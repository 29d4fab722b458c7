package core

import (
	"testing"

	"repro/internal/sketch"
)

// The benchmark's write-interleaved shapes: T0 partitions on calories and
// protein, T3 on price, fat and rating, T4 on calories, fat and protein.
const (
	shapeT0 = lcQuery
	shapeT3 = `
	SELECT PACKAGE(R) AS P FROM recipes R
	SUCH THAT COUNT(*) BETWEEN 4 AND 8 AND SUM(P.price) <= 60.005 AND SUM(P.fat) <= 120
	MAXIMIZE SUM(P.rating)`
	shapeT4 = `
	SELECT PACKAGE(R) AS P FROM recipes R
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 AND SUM(P.fat) BETWEEN 20 AND 200
	MAXIMIZE SUM(P.protein)`
)

// TestAlternatingShapesEachPatchTheirOwnTree runs two tree shapes over one
// table in write-interleaved's pattern — a write before every query, four
// T0 queries to one T3 — with the sketch strategy forced: every query
// after a shape's first patches that shape's own tree, T3 walking the five
// writes since its own version where one shared lineage would have left
// it nothing to patch from. A shape first seen at a version another shape
// has advanced to hashes no row and shares that shape's record.
func TestAlternatingShapesEachPatchTheirOwnTree(t *testing.T) {
	db := lcDB(t, 6000)
	memo := NewFingerprintMemo()
	opts := Options{Strategy: SketchRefineStrategy, Seed: 1, SketchCache: sketch.NewCache(0),
		SketchMemo: memo}
	run := func(query string) *Result {
		t.Helper()
		res, err := Evaluate(db, query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Packages) == 0 {
			t.Fatalf("no package: %v", res.Stats.Notes)
		}
		return res
	}
	shape := func(query string) string {
		t.Helper()
		prep, err := Prepare(db, query)
		if err != nil {
			t.Fatal(err)
		}
		return sketch.AttrsOf(prep.Instance)
	}
	if shape(shapeT0) == shape(shapeT3) || shape(shapeT0) == shape(shapeT4) {
		t.Fatal("the three queries do not partition on three attribute sets; the fixture tests nothing")
	}
	hashes := func(query string) int64 {
		t.Helper()
		before := memo.Stats().RowsHashed
		run(query)
		return memo.Stats().RowsHashed - before
	}
	if cold := hashes(shapeT0); cold != 6000 {
		t.Fatalf("the cold query hashed %d rows, want 6000", cold)
	}
	if h := hashes(shapeT3); h != 0 {
		t.Fatalf("T3, first seen where T0 stands, hashed %d rows", h)
	}
	nextID, delFrom := 100_000, 1
	for step := 1; step <= 21; step++ {
		writeBatch(t, db, nextID, 20, delFrom, 10)
		nextID, delFrom = nextID+20, delFrom+10
		query, name := shapeT0, "T0"
		if step%5 == 0 {
			query, name = shapeT3, "T3"
		}
		if res := run(query); !res.Stats.SketchTreePatched {
			t.Fatalf("step %d (%s): tree not patched; planned\n%s", step, name, res.Stats.Plan.Explain())
		}
	}

	// T4, first seen at the version T0 has just advanced to, shares T0's
	// record; T3's trails it by one write and holds a slice of its own.
	if h := hashes(shapeT4); h != 0 {
		t.Fatalf("a new shape at an advanced version hashed %d rows, want 0", h)
	}
	e := snapshotsOf(recipesTable(t, db)).entries[""]
	f0, f3, f4 := e.lineage[shape(shapeT0)], e.lineage[shape(shapeT3)], e.lineage[shape(shapeT4)]
	if f0 == nil || f4 != f0 || f3 == nil || f3 == f0 {
		t.Fatalf("lineage records T0 %p, T3 %p, T4 %p: want T4 on T0's and T3 on its own", f0, f3, f4)
	}
	pinned := len(e.ids) + len(e.rows)*(1+e.passes.Kept())
	if got, want := e.size(), pinned+len(f0.rowHashes)+len(f3.rowHashes); got != want {
		t.Fatalf("entry size %d, want %d: the slice T0 and T4 share counted once", got, want)
	}
}

// TestEvictionCountsSharedLineageOnce: the store's row bound counts a hash
// slice several shapes share once, so shapes that stand together do not
// evict a snapshot they fit in; shapes that diverge do count apart.
func TestEvictionCountsSharedLineageOnce(t *testing.T) {
	n := memoMaxRows / 3
	record := func() *fingerprint { return &fingerprint{rowHashes: make([]uint64, n)} }
	s := &candidateStore{entries: map[string]*snapshot{}}
	a, b := s.entry("a"), s.entry("b")
	for _, e := range []*snapshot{a, b} {
		f := record()
		e.lineage = map[string]*fingerprint{"x": f, "y": f, "z": f}
	}
	s.evict(b)
	if len(s.entries) != 2 {
		t.Fatalf("two entries of %d candidates each, three shapes sharing one slice, evicted to %d (bound %d)", n, len(s.entries), memoMaxRows)
	}
	a.lineage["y"], a.lineage["z"] = record(), record()
	s.evict(b)
	if len(s.entries) != 1 || s.entries["b"] != b {
		t.Fatalf("a's three diverged slices and b's one exceed %d rows, yet the store kept %d entries", memoMaxRows, len(s.entries))
	}
}

// A write that leaves the candidates exactly as they were — the last one
// deleted and an identical row appended — moves the version but not the
// fingerprint: the memo counts a hit and the tree is served from the
// cache, with nothing to patch.
func TestRowsBackAsTheyWereHitTheCache(t *testing.T) {
	db := lcDB(t, 6000)
	memo := NewFingerprintMemo()
	opts := Options{Strategy: SketchRefineStrategy, Seed: 1, SketchCache: sketch.NewCache(0),
		SketchMemo: memo}
	exec := func(stmt string) {
		t.Helper()
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	run := func() *Result {
		t.Helper()
		res, err := Evaluate(db, shapeT0, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const row = "INSERT INTO recipes VALUES (90001, 'x', 'fusion', 'dinner', 'free', 700, 30, 10, 50, 9.5, 4.5)"
	exec(row)
	run()
	exec("DELETE FROM recipes WHERE id = 90001")
	exec(row)
	hits := memo.Stats().Hits
	res := run()
	if !res.Stats.Sketch.CacheHit || res.Stats.SketchTreePatched || memo.Stats().Hits != hits+1 {
		t.Fatalf("cache hit %v, patched %v, memo hits +%d: the rows are the ones the cached tree covers",
			res.Stats.Sketch.CacheHit, res.Stats.SketchTreePatched, memo.Stats().Hits-hits)
	}
}
