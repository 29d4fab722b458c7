package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/minidb"
	"repro/internal/plan"
	"repro/internal/sketch"
)

const incrQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func incrOptions(cache *sketch.Cache, memo *FingerprintMemo) Options {
	return Options{
		Strategy:            SketchRefineStrategy,
		Seed:                1,
		SketchPartitionSize: 16,
		SketchDepth:         2,
		SketchCache:         cache,
		SketchMemo:          memo,
		SketchIncremental:   true,
	}
}

// TestWarmEvaluationHashesNothing pins the fingerprint-memo contract:
// a repeat evaluation over an unchanged table performs zero candidate
// hashing — the O(n)-per-query rehash the memo exists to kill.
func TestWarmEvaluationHashesNothing(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 400, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)

	run := func() *Result {
		t.Helper()
		prep, err := Prepare(db, incrQuery)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := run()
	afterCold := memo.Stats()
	if afterCold.RowsHashed != int64(cold.Stats.Candidates) {
		t.Fatalf("cold run hashed %d rows for %d candidates", afterCold.RowsHashed, cold.Stats.Candidates)
	}
	warm := run()
	if !warm.Stats.Sketch.CacheHit {
		t.Fatal("warm run must hit the tree cache")
	}
	afterWarm := memo.Stats()
	if afterWarm.RowsHashed != afterCold.RowsHashed {
		t.Fatalf("warm run hashed %d extra candidate rows; want zero",
			afterWarm.RowsHashed-afterCold.RowsHashed)
	}
	if afterWarm.Hits != afterCold.Hits+1 {
		t.Fatalf("memo hits = %d, want %d", afterWarm.Hits, afterCold.Hits+1)
	}
}

// TestIncrementalInsertPatchesTree drives an INSERT batch through
// minidb → core → sketch: the write must invalidate the exact cache
// key, hash only the appended candidates, and patch the stale tree in
// place instead of rebuilding.
func TestIncrementalInsertPatchesTree(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 500, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)

	prep, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(opts); err != nil {
		t.Fatal(err)
	}
	before := memo.Stats()

	inserted := 5
	for i := 0; i < inserted; i++ {
		stmt := fmt.Sprintf("INSERT INTO recipes VALUES (%d, 'delta%d', 'fusion', 'dinner', 'free', %d, %d, 10, 50, 9.5, 4.5)",
			80000+i, i, 650+i*10, 30+i)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	prep2, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep2.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sketch.CacheHit {
		t.Fatal("stale tree served after a write")
	}
	if !res.Stats.SketchTreePatched {
		t.Fatalf("tree was rebuilt, not patched; notes: %v", res.Stats.Notes)
	}
	if res.Stats.Sketch.DeltaApplied != inserted {
		t.Fatalf("DeltaApplied = %d, want %d", res.Stats.Sketch.DeltaApplied, inserted)
	}
	after := memo.Stats()
	if hashed := after.RowsHashed - before.RowsHashed; hashed != int64(inserted) {
		t.Fatalf("write of %d rows hashed %d candidates; want delta-only hashing", inserted, hashed)
	}
	if len(res.Packages) == 0 {
		t.Fatal("no package after the write")
	}
}

// TestIncrementalDeletePatchesTree is the DELETE mirror: tombstoned
// candidates must invalidate the cache, renumber the survivors, and
// patch — covering the delete path end to end through minidb's delta
// log, the memo's remap, and the sketch engine.
func TestIncrementalDeletePatchesTree(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 500, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)

	prep, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := prep.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := memo.Stats()

	res0, err := db.Exec("DELETE FROM recipes WHERE id >= 100 AND id < 120")
	if err != nil {
		t.Fatal(err)
	}
	if res0.Affected == 0 {
		t.Fatal("delete removed nothing; fixture broken")
	}
	prep2, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	removed := cold.Stats.Candidates - len(prep2.Instance.Rows)
	if removed <= 0 {
		t.Fatalf("delete removed no candidates (%d -> %d)", cold.Stats.Candidates, len(prep2.Instance.Rows))
	}
	res, err := prep2.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sketch.CacheHit {
		t.Fatal("stale tree served after a delete")
	}
	if !res.Stats.SketchTreePatched {
		t.Fatalf("tree was rebuilt, not patched; notes: %v", res.Stats.Notes)
	}
	if res.Stats.Sketch.DeltaApplied != removed {
		t.Fatalf("DeltaApplied = %d, want %d", res.Stats.Sketch.DeltaApplied, removed)
	}
	after := memo.Stats()
	if after.RowsHashed != before.RowsHashed {
		t.Fatalf("delete hashed %d candidate rows; deletions need none", after.RowsHashed-before.RowsHashed)
	}
	if len(res.Packages) == 0 {
		t.Fatal("no package after the delete")
	}
	// And the next evaluation over the patched state is warm again.
	prep3, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := prep3.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Sketch.CacheHit {
		t.Fatal("patched tree not cached under the new fingerprint")
	}
	if memo.Stats().RowsHashed != after.RowsHashed {
		t.Fatal("warm run after the delete rehashed candidates")
	}
}

// TestIncrementalDisabledRebuilds pins the ablation: with
// SketchIncremental off the memo still kills rehashing, but a write
// forces a full rebuild (no patching).
func TestIncrementalDisabledRebuilds(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)
	// "Off" is forced: it must survive the planner's patch-vs-rebuild
	// decision.
	opts.SketchIncremental = false

	prep, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO recipes VALUES (80000, 'x', 'fusion', 'dinner', 'free', 700, 30, 10, 50, 9.5, 4.5)"); err != nil {
		t.Fatal(err)
	}
	prep2, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep2.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SketchTreePatched {
		t.Fatal("patching ran with SketchIncremental disabled")
	}
	if res.Stats.Sketch.CacheHit {
		t.Fatal("stale tree served")
	}
}

// writeBatch INSERTs ins fresh recipes (ids from nextID up) and DELETEs
// the del rows with the smallest ids still in the table, one statement
// each, the way the benchmark's write-interleaved steps do.
func writeBatch(t *testing.T, db *minidb.DB, nextID, ins, delFrom, del int) {
	t.Helper()
	var b strings.Builder
	b.WriteString("INSERT INTO recipes VALUES ")
	for i := 0; i < ins; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		id := nextID + i
		fmt.Fprintf(&b, "(%d, 'w%d', 'fusion', 'dinner', 'free', %d, %d, 10, 50, 9.5, 4.5)", id, id, 500+id%400, 10+id%40)
	}
	if _, err := db.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(fmt.Sprintf("DELETE FROM recipes WHERE id >= %d AND id < %d", delFrom, delFrom+del))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != del {
		t.Fatalf("delete removed %d rows, want %d; fixture broken", res.Affected, del)
	}
}

// TestMaintenanceFollowsTreeLineage pins the clock patch-vs-rebuild is
// decided on: the tree's own — the delta between the stale tree and now
// plus the drift that tree carries since its last full build, which
// Tree.ApplyDelta holds against the budget (plan.PatchFits) — not the
// writes the table has seen in total. Sixty 1 % write steps each leave the
// cached tree 1 % stale, so each is a patch until the tree's drift would
// pass 25 %: that step's patch refuses with the budget note and the tree
// is rebuilt, and the chain starts over from the fresh tree. One 30 %
// batch is past the budget on its own: the patch path refuses it and
// publishes no patched tree. No plan decides any of it.
func TestMaintenanceFollowsTreeLineage(t *testing.T) {
	db := lcDB(t, 6000)
	opts := Options{Seed: 1, SketchIncremental: true, SketchCache: sketch.NewCache(0),
		SketchMemo: NewFingerprintMemo()}
	run := func() (*Result, string) {
		t.Helper()
		res, err := Evaluate(db, lcQuery, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Packages) == 0 {
			t.Fatalf("no package: %v", res.Stats.Notes)
		}
		if d := res.Stats.Plan.Decision("maintenance"); d != nil {
			t.Fatalf("unforced plan decided maintenance = %s\n%s", d.Value, res.Stats.Plan.Explain())
		}
		return res, budgetNote(res.Stats.Notes)
	}
	if cold, note := run(); cold.Stats.Sketch.CacheHit || cold.Stats.SketchTreePatched || note != "" {
		t.Fatalf("cold query: cache hit %v, patched %v, note %q", cold.Stats.Sketch.CacheHit, cold.Stats.SketchTreePatched, note)
	}
	nextID, delFrom := 100_000, 1 // recipe ids start at 1
	drift, rebuilds := 0, 0
	for step := 1; step <= 60; step++ {
		writeBatch(t, db, nextID, 40, delFrom, 20)
		nextID, delFrom = nextID+40, delFrom+20
		res, note := run()
		fits := plan.PatchFits(drift, 60, res.Stats.Candidates)
		switch {
		case fits && (!res.Stats.SketchTreePatched || note != ""):
			t.Fatalf("write step %d (this tree 1%% stale, %d drift): patched=%v, note %q", step, drift, res.Stats.SketchTreePatched, note)
		case !fits && (res.Stats.SketchTreePatched || !strings.Contains(note, "since the last full build > 25%")):
			t.Fatalf("write step %d (1%% stale on top of %d drift, past the budget): patched=%v, note %q", step, drift, res.Stats.SketchTreePatched, note)
		case fits:
			drift += 60
		default:
			drift = 0
			rebuilds++
		}
	}
	// 60 % written in 1 % steps: the drift budget rebuilt the tree twice.
	if rebuilds != 2 {
		t.Fatalf("%d drift rebuilds over 60 one-percent steps, want 2", rebuilds)
	}

	// One batch of 30 % (2,400 rows against the 8,000 it leaves): past the
	// budget on the tree's own clock.
	writeBatch(t, db, nextID, 1600, delFrom, 800)
	inj := fault.NewInjector(1) // no rules: the injector only counts site visits
	defer fault.Enable(inj)()
	res, note := run()
	if res.Stats.SketchTreePatched || !strings.Contains(note, "(delta 30.0% + drift ") {
		t.Fatalf("30%% batch: patched=%v, note %q", res.Stats.SketchTreePatched, note)
	}
	// The patch path ran and refused; the one tree published is the build.
	cov := inj.Coverage()
	if v, p := cov["sketch.tree.patch"].Visits, cov["sketch.cache.put"].Visits; v != 1 || p != 1 {
		t.Fatalf("30%% batch visited the patch path %d time(s) and published %d tree(s), want 1 and 1", v, p)
	}
}

// budgetNote is the run's record of a patch refused for the drift budget,
// or "".
func budgetNote(notes []string) string {
	for _, n := range notes {
		if strings.Contains(n, "past its drift budget") {
			return n
		}
	}
	return ""
}
