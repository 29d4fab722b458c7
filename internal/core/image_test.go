package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/search"
	"repro/internal/sketch"
)

// imageShapes are three tree shapes over advanceSchema's table: the
// property query partitions on a and b, the second on a alone, the third
// — no column in an aggregate — on every numeric column.
var imageShapes = []string{
	advanceQuery(""),
	"SELECT PACKAGE(R) AS P FROM t R%s SUCH THAT COUNT(*) <= 3 AND SUM(P.a) <= 1000000 MAXIMIZE SUM(P.a)",
	"SELECT PACKAGE(R) AS P FROM t R%s SUCH THAT COUNT(*) BETWEEN 1 AND 3",
}

func imageShapeQuery(shape int, where string) string {
	if shape == 0 {
		return advanceQuery(where)
	}
	return fmt.Sprintf(imageShapes[shape], where)
}

// checkFreshImage holds the table's image to one lowered and hashed from
// the table as it stands, cell for cell: the float lens and the NULL bit
// by their bits, every coded cell's datum identical to the row's, every
// other cell numeric or NULL, and every row hash the row's.
func checkFreshImage(t *testing.T, label string, tab *minidb.Table) {
	t.Helper()
	img := snapshotsOf(tab).img
	if img == nil || img.version != tab.Version() {
		t.Fatalf("%s: no image at the table's version %d", label, tab.Version())
	}
	n := len(tab.Rows)
	if len(img.hashes) != n || img.cols.Len() != n {
		t.Fatalf("%s: image of %d hashes and %d rows for a %d-row table", label, len(img.hashes), img.cols.Len(), n)
	}
	fresh := search.Lower(tab.Rows, nil, nil)
	num := func(col *search.Column, i int) uint64 {
		if col.Num == nil {
			return 0
		}
		return math.Float64bits(col.Num[i])
	}
	for i, row := range tab.Rows {
		if img.hashes[i] != sketch.RowHash(row) {
			t.Fatalf("%s: row %d hash %x, RowHash says %x", label, i, img.hashes[i], sketch.RowHash(row))
		}
		for c, v := range row {
			got, want := &img.cols.Cols[c], &fresh.Cols[c]
			if num(got, i) != num(want, i) || got.IsNull(i) != want.IsNull(i) {
				t.Fatalf("%s: cell (%d,%d) = %s reads num %x null %v, a fresh lowering %x %v",
					label, i, c, v.SQLString(), num(got, i), got.IsNull(i), num(want, i), want.IsNull(i))
			}
			switch {
			case got.Codes != nil:
				if d := got.Dict[got.Codes[i]]; !d.Identical(v) {
					t.Fatalf("%s: cell (%d,%d) = %s coded as %s", label, i, c, v.SQLString(), d.SQLString())
				}
			case !v.IsNull() && !v.IsNumeric():
				t.Fatalf("%s: column %d holds %s but is not coded", label, c, v.SQLString())
			}
		}
	}
}

// TestTableImageAdvanceMatchesFresh is the property the table image keeps:
// after any seeded batch of INSERTs and DELETEs — deleting candidates,
// non-candidates, rows the same batch inserted, or every row — with four
// readers imaging the table at once, the image advanced along the delta
// log equals one made afresh from the table, and the readers hash the
// appended rows once between them. Every WHERE's fingerprint, for every
// tree shape, is the fingerprint of its candidate rows. When the log
// cannot reach the image — aged out past its entry bound, or its read
// failing — the image is made afresh, and still matches.
func TestTableImageAdvanceMatchesFresh(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 20
	}
	rng := rand.New(rand.NewSource(51))
	db := minidb.New()
	if _, err := db.CreateTable("t", advanceSchema()); err != nil {
		t.Fatal(err)
	}
	nextID := 1
	insert := func(n int) {
		t.Helper()
		if err := db.InsertRows("t", advanceRows(rng, nextID, n)); err != nil {
			t.Fatal(err)
		}
		nextID += n
	}
	exec := func(stmt string) {
		t.Helper()
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	insert(300)
	tab, _ := db.Table("t")
	memo := NewFingerprintMemo()

	// step images the table with four readers at once, each preparing the
	// first shape without a WHERE, advancing its fingerprint and reading
	// the image a tree build reads, then checks the image and every
	// fingerprint. It returns the rows the readers hashed.
	step := func(label string) int64 {
		t.Helper()
		before := memo.Stats().RowsHashed
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for r := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prep, err := Prepare(db, imageShapeQuery(0, ""))
				if err != nil {
					errs[r] = err
					return
				}
				memo.Advance(prep)
				if cols, err := prep.Instance.Image(context.Background()); err != nil || cols == nil {
					errs[r] = fmt.Errorf("image %p, %v", cols, err)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		hashed := memo.Stats().RowsHashed - before
		checkFreshImage(t, label, tab)
		for _, where := range advanceWheres {
			for shape := range imageShapes {
				prep, err := Prepare(db, imageShapeQuery(shape, where))
				if err != nil {
					t.Fatal(err)
				}
				if fp, _ := memo.Advance(prep); fp != sketch.Fingerprint(prep.Instance.Rows) {
					t.Fatalf("%s: shape %d%s: fingerprint %x, the candidates' is %x", label, shape, where, fp, sketch.Fingerprint(prep.Instance.Rows))
				}
			}
		}
		if extra := memo.Stats().RowsHashed - before - hashed; extra != 0 {
			t.Fatalf("%s: fingerprints at the image's version hashed %d rows", label, extra)
		}
		return hashed
	}

	if hashed := step("first image"); hashed != int64(len(tab.Rows)) {
		t.Fatalf("the first image hashed %d rows of %d", hashed, len(tab.Rows))
	}
	advanced := 0
	for s := 0; s < steps; s++ {
		k := rng.Intn(25)
		firstNew := nextID
		insert(k)
		switch rng.Intn(6) {
		case 0: // every row
			exec("DELETE FROM t WHERE id >= 0")
		case 1: // rows this batch inserted
			exec(fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id < %d", firstNew, firstNew+rng.Intn(k+1)))
		case 2: // nothing
		default: // a range of old rows
			lo := rng.Intn(max(nextID, 1))
			exec(fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id < %d", lo, lo+1+rng.Intn(30)))
		}
		hashed := step(fmt.Sprintf("step %d", s))
		if hashed > int64(k) {
			t.Fatalf("step %d: %d rows hashed after a batch of %d inserts; an advance hashes the appended rows only", s, hashed, k)
		}
		if len(tab.Rows) > k {
			advanced++ // a build from scratch would have hashed every row
		}
	}
	if advanced == 0 {
		t.Fatal("no image advanced")
	}

	// The log ages out past its entry bound: the image is made afresh.
	for range 1025 {
		insert(1)
	}
	if hashed := step("aged-out log"); hashed != int64(len(tab.Rows)) {
		t.Fatalf("aged-out log: %d rows hashed of %d", hashed, len(tab.Rows))
	}
	// An unreadable log is an aged-out one.
	insert(5)
	exec("DELETE FROM t WHERE id < 40")
	restore := fault.Enable(fault.NewInjector(1, fault.Rule{Site: "minidb.delta", Kind: fault.KindError}))
	hashed := step("minidb.delta fault")
	restore()
	if hashed != int64(len(tab.Rows)) {
		t.Fatalf("minidb.delta fault: %d rows hashed of %d", hashed, len(tab.Rows))
	}
}

// A canceled build of the image is not kept: the next caller makes it.
// A preparation the table has moved past reads the image at its version
// if one was made, else none — the rows at its version are gone — and
// its fingerprint then hashes its candidates.
func TestImageCanceledAndMovedPast(t *testing.T) {
	db := lcDB(t, 3000)
	prep, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	tab := recipesTable(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if cols, err := prep.Instance.Image(ctx); cols != nil || !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("a canceled image build returned %p, %v", cols, err)
	}
	if store := snapshotsOf(tab); store.img != nil || store.imgStep != nil {
		t.Fatal("a canceled image build was kept")
	}
	cols, err := prep.Instance.Image(context.Background())
	if err != nil || cols == nil || cols.Len() != 3000 {
		t.Fatalf("image after a canceled build: %v", err)
	}

	// A canceled build from scratch over an unreadable log leaves no step
	// behind either, so nothing but the store pins the image it started
	// from.
	writeBatch(t, db, 90_000, 10, 2000, 5)
	past, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	restore := fault.Enable(fault.NewInjector(1, fault.Rule{Site: "minidb.delta", Kind: fault.KindError}))
	_, err = past.Instance.Image(ctx)
	restore()
	if store := snapshotsOf(tab); !errors.Is(err, lifecycle.ErrCanceled) || store.imgStep != nil {
		t.Fatalf("a canceled rebuild returned %v and left step %p", err, store.imgStep)
	}
	if _, err := past.Instance.Image(context.Background()); err != nil {
		t.Fatal(err)
	}
	writeBatch(t, db, 90_010, 1, 2005, 5)
	if again, err := prep.Instance.Image(context.Background()); again != nil || err != nil {
		t.Fatalf("the image at a version the store moved past was served: %v", err)
	}
	prep, err = Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if cols, err = prep.Instance.Image(context.Background()); err != nil || cols == nil {
		t.Fatalf("image after a canceled rebuild: %v", err)
	}

	// A published image serves its version after the table moves on; a
	// preparation at a version nobody imaged reads none once the table
	// moved past it.
	writeBatch(t, db, 100_000, 10, 1, 5)
	if again, err := prep.Instance.Image(context.Background()); again != cols || err != nil {
		t.Fatalf("the image at the preparation's version was not served after a write: %v", err)
	}
	moved, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	writeBatch(t, db, 100_010, 10, 10, 5)
	if cols, err := moved.Instance.Image(context.Background()); cols != nil || err != nil {
		t.Fatalf("a preparation the table moved past read an image: %p, %v", cols, err)
	}
	memo := NewFingerprintMemo()
	if fp, _ := memo.Advance(moved); fp != sketch.Fingerprint(moved.Instance.Rows) || memo.Stats().RowsHashed != int64(len(moved.Instance.Rows)) {
		t.Fatalf("fingerprint of a moved-past preparation: %x (want %x), %d rows hashed", fp, sketch.Fingerprint(moved.Instance.Rows), memo.Stats().RowsHashed)
	}
}

// TestExactTrafficBuildsNoImage: interactive-exact's shape — a WHERE
// keeping candidates under the sketch threshold, so the planner picks the
// exact solver — never images the table.
func TestExactTrafficBuildsNoImage(t *testing.T) {
	db := lcDB(t, 6000)
	for _, where := range []string{"R.calories < 450", "R.gluten = 'free' AND R.protein > 30"} {
		res, err := Evaluate(db, `SELECT PACKAGE(R) AS P FROM recipes R WHERE `+where+`
			SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1000 AND 2000 MAXIMIZE SUM(P.protein)`, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Strategy != Solver || res.Stats.Candidates >= 4096 {
			t.Fatalf("WHERE %s: %d candidates ran %s; the fixture wants the exact path", where, res.Stats.Candidates, res.Stats.Strategy)
		}
	}
	if store := snapshotsOf(recipesTable(t, db)); store.img != nil || store.imgStep != nil {
		t.Fatal("exact-only traffic imaged the table")
	}
}

// selectiveQuery keeps about 8 % of lcDB's recipes — their prices are
// drawn uniformly from 2 to 20 — and every row writeBatch inserts.
func selectiveQuery(maxPrice string) string {
	return `SELECT PACKAGE(R) AS P FROM recipes R WHERE R.price <= ` + maxPrice + ` OR R.cuisine = 'fusion'
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1000 AND 2000 MAXIMIZE SUM(P.protein)`
}

// TestSelectiveSketchImagesNothing: an evaluation whose candidates are
// under 1/imageShare of the table neither makes nor advances the image —
// its snapshot keeps its candidates' hashes, so after a write it hashes
// only the candidates the write appended, and a tree lowers its
// candidates — and reads an image only where one stands at its version.
func TestSelectiveSketchImagesNothing(t *testing.T) {
	db := lcDB(t, 4000)
	tab := recipesTable(t, db)
	store, memo := snapshotsOf(tab), NewFingerprintMemo()
	evaluate := func(label, query string, hashed int) *Prepared {
		t.Helper()
		before := memo.Stats().RowsHashed
		prep, err := Prepare(db, query)
		if err != nil {
			t.Fatal(err)
		}
		if fp, _ := memo.Advance(prep); fp != sketch.Fingerprint(prep.Instance.Rows) {
			t.Fatalf("%s: fingerprint %x, the candidates' is %x", label, fp, sketch.Fingerprint(prep.Instance.Rows))
		}
		if hashed < 0 {
			hashed = len(prep.Instance.Rows)
		}
		if got := memo.Stats().RowsHashed - before; got != int64(hashed) {
			t.Fatalf("%s: %d rows hashed, want %d", label, got, hashed)
		}
		return prep
	}

	sel := evaluate("selective", selectiveQuery("3.5"), -1)
	if n := len(sel.Instance.IDs); n == 0 || n*imageShare >= len(tab.Rows) {
		t.Fatalf("the fixture wants a selective WHERE: %d candidates of %d rows", n, len(tab.Rows))
	}
	if cols, err := sel.Instance.Image(context.Background()); cols != nil || err != nil {
		t.Fatalf("a selective build read an image: %p, %v", cols, err)
	}
	if tree := sketch.BuildTree(sel.Instance, sketch.Options{}); len(tree.Levels) == 0 {
		t.Fatal("no tree over the selective candidates")
	}
	if store.img != nil || store.imgStep != nil {
		t.Fatal("a selective evaluation imaged the table")
	}
	// A write that deletes candidates and appends ten: the next evaluation
	// hashes the ten.
	writeBatch(t, db, 100_000, 10, 1, 40)
	evaluate("selective after a write", selectiveQuery("3.5"), 10)

	// A whole-table evaluation images the table; a selective one at that
	// version reads the image and hashes nothing.
	evaluate("whole table", lcQuery, len(tab.Rows))
	evaluate("selective at the image's version", selectiveQuery("3.4"), 0)
	imaged := store.img.version

	// After a write, a selective evaluation leaves the image where it was.
	writeBatch(t, db, 100_010, 10, 41, 40)
	evaluate("selective after a second write", selectiveQuery("3.5"), 10)
	if store.img == nil || store.img.version != imaged || store.imgStep != nil {
		t.Fatal("a selective evaluation advanced the image")
	}
}

// TestIdleImageIsDropped: an image no sketch evaluation reads for
// imageMaxIdle uses of the store is let go — here exact-only traffic after
// one sketch evaluation — and the next sketch evaluation makes it again.
func TestIdleImageIsDropped(t *testing.T) {
	db := lcDB(t, 3000)
	tab := recipesTable(t, db)
	store, memo := snapshotsOf(tab), NewFingerprintMemo()
	sketchEval := func() {
		t.Helper()
		prep, err := Prepare(db, lcQuery)
		if err != nil {
			t.Fatal(err)
		}
		memo.Advance(prep)
	}
	sketchEval()
	if store.img == nil {
		t.Fatal("a sketch evaluation made no image")
	}
	for i := 0; store.img != nil; i++ {
		if i > imageMaxIdle {
			t.Fatalf("the image outlived %d preparations no sketch evaluation read it across", i)
		}
		if _, err := Prepare(db, "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.calories < 300 SUCH THAT COUNT(*) = 3"); err != nil {
			t.Fatal(err)
		}
	}
	sketchEval()
	if store.img != nil {
		t.Fatal("a warm sketch evaluation, reading no image, made one")
	}
	writeBatch(t, db, 100_000, 10, 1, 5)
	sketchEval()
	if store.img == nil || store.img.version != tab.Version() {
		t.Fatal("the next sketch evaluation after a write made no image")
	}
}

// TestSelectiveHashesMatchFresh is the property a selective WHERE's kept
// hashes hold: across seeded INSERT/DELETE batches, with steps where a
// preparation only advances the snapshot, steps where a sketch evaluation
// of some tree shape fingerprints it, and steps where four do at once,
// every kept hash is its
// candidate's RowHash, every fingerprint is its candidates', one hashes no
// more rows than were appended since its WHERE's last, and no image is
// made.
func TestSelectiveHashesMatchFresh(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 20
	}
	rng := rand.New(rand.NewSource(52))
	db := minidb.New()
	if _, err := db.CreateTable("t", advanceSchema()); err != nil {
		t.Fatal(err)
	}
	nextID := 1
	insert := func(n int) {
		t.Helper()
		if err := db.InsertRows("t", advanceRows(rng, nextID, n)); err != nil {
			t.Fatal(err)
		}
		nextID += n
	}
	insert(400)
	tab, _ := db.Table("t")
	store, memo := snapshotsOf(tab), NewFingerprintMemo()
	wheres := []string{" WHERE R.a > 80", " WHERE R.b < -5"}
	appended := []int{400, 400} // rows inserted since each WHERE's last fingerprint
	fingerprinted := 0
	for s := 0; s < steps; s++ {
		k := rng.Intn(25)
		insert(k)
		lo := rng.Intn(nextID)
		if _, err := db.Exec(fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id < %d", lo, lo+1+rng.Intn(20))); err != nil {
			t.Fatal(err)
		}
		if s%2 == 0 {
			// Four evaluations of the first WHERE at once: their kept hashes
			// and fingerprints must still be their candidates'.
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					prep, err := Prepare(db, imageShapeQuery(r%len(imageShapes), wheres[0]))
					if err != nil {
						t.Error(err)
						return
					}
					if fp, _ := memo.Advance(prep); fp != sketch.Fingerprint(prep.Instance.Rows) {
						t.Errorf("step %d, reader %d: fingerprint %x, the candidates' is %x", s, r, fp, sketch.Fingerprint(prep.Instance.Rows))
					}
				}()
			}
			wg.Wait()
			appended[0] = -k // the readers hashed what was appended; the step's own evaluation hashes nothing
		}
		for w, where := range wheres {
			appended[w] += k
			prep, err := Prepare(db, imageShapeQuery(rng.Intn(len(imageShapes)), where))
			if err != nil {
				t.Fatal(err)
			}
			if n := len(prep.Instance.IDs); n*imageShare >= len(tab.Rows) {
				t.Fatalf("step %d%s: %d candidates of %d rows; the fixture wants a selective WHERE", s, where, n, len(tab.Rows))
			}
			if rng.Intn(3) == 0 {
				continue // the snapshot advanced; nothing fingerprinted it
			}
			before := memo.Stats().RowsHashed
			if fp, _ := memo.Advance(prep); fp != sketch.Fingerprint(prep.Instance.Rows) {
				t.Fatalf("step %d%s: fingerprint %x, the candidates' is %x", s, where, fp, sketch.Fingerprint(prep.Instance.Rows))
			}
			if hashed := memo.Stats().RowsHashed - before; hashed > int64(appended[w]) {
				t.Fatalf("step %d%s: %d rows hashed, %d appended since the last fingerprint", s, where, hashed, appended[w])
			}
			appended[w] = 0
			fingerprinted++
			e := store.entries[whereKey(prep.Query)]
			if len(e.hashes) != len(prep.Instance.Rows) {
				t.Fatalf("step %d%s: %d hashes kept for %d candidates", s, where, len(e.hashes), len(prep.Instance.Rows))
			}
			for i, h := range e.hashes {
				if h != sketch.RowHash(prep.Instance.Rows[i]) {
					t.Fatalf("step %d%s: kept hash %d is not its candidate's", s, where, i)
				}
			}
		}
		if store.img != nil {
			t.Fatalf("step %d: selective evaluations imaged the table", s)
		}
	}
	if fingerprinted == 0 {
		t.Fatal("nothing fingerprinted")
	}
}
