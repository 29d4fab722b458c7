package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/minidb"
	"repro/internal/paql"
)

const snapSuchThat = ` SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1500 AND 2600 MAXIMIZE SUM(P.protein)`

func snapQuery(where string) string {
	if where != "" {
		where = " WHERE " + where
	}
	return "SELECT PACKAGE(R) AS P FROM recipes R" + where + snapSuchThat
}

func recipesTable(t *testing.T, db *minidb.DB) *minidb.Table {
	t.Helper()
	tab, ok := db.Table("recipes")
	if !ok {
		t.Fatal("no recipes table")
	}
	return tab
}

// scanIDs evaluates a query's WHERE over the table the slow way.
func scanIDs(t *testing.T, tab *minidb.Table, queryText string) ([]int, error) {
	t.Helper()
	q, err := paql.Parse(queryText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paql.Analyze(q, tab.Schema); err != nil {
		t.Fatal(err)
	}
	var ids []int
	match := expr.CompileWhere(q.Where)
	for rid, row := range tab.Rows {
		ok, err := match(row)
		if err != nil {
			return nil, err
		}
		if ok {
			ids = append(ids, rid)
		}
	}
	return ids, nil
}

// The snapshot serves candidates under the rendered WHERE (the memo before
// it only cross-checked a fresh scan against what it kept), so two
// predicates that select different tuples must never share a key. Each
// pair below differs in one thing a rendering can lose — a literal's type,
// a quote, the alias, a pair of parentheses, a constant — and must get
// distinct keys or provably the same candidates; and whatever the keys,
// every query, asked three times over one table so that the third answer
// comes from a promoted snapshot, gets the candidates a scan finds.
func TestWhereKeysAreInjective(t *testing.T) {
	db := lcDB(t, 400)
	if _, err := db.Exec(`INSERT INTO recipes VALUES (90001, 'it''s', 'fusion', 'dinner', 'free', 600, 30, 10, 50, 9.5, 4.5),
		(90002, 'it', 'fusion', 'dinner', 'free', 610, 31, 10, 50, 9.5, 4.5), (90003, 'a'' OR R.name = ''b', 'fusion', 'dinner', 'free', 620, 32, 10, 50, 9.5, 4.5),
		(90004, 'a', 'fusion', 'dinner', 'free', 630, 33, 10, 50, 9.5, 4.5), (90005, '1', 'fusion', 'dinner', 'free', 640, 34, 10, 50, 9.5, 4.5)`); err != nil {
		t.Fatal(err)
	}
	tab := recipesTable(t, db)
	from := func(alias, where string) string {
		return "SELECT PACKAGE(" + alias + ") AS P FROM recipes " + alias + " WHERE " + where + " SUCH THAT COUNT(*) >= 1"
	}
	asked := map[string]bool{} // by key: a repeated WHERE is a hit from its second asking on
	for _, pair := range [][2]string{
		{from("R", "R.id % 2 = 0"), from("R", "R.id % 2.0 = 0")},                 // literal type: % takes integers only
		{from("R", "R.calories / 2 > 300"), from("R", "R.calories / 2.0 > 300")}, // literal type, same tuples
		{from("R", "R.name = '1'"), from("R", "R.id = 1")},
		{from("R", "R.name = 'it''s'"), from("R", "R.name = 'it'")}, // quoting
		{from("R", "R.name = 'a'' OR R.name = ''b'"), from("R", "R.name = 'a' OR R.name = 'b'")},
		{from("R", "R.gluten = 'free'"), from("X", "X.gluten = 'free'")}, // alias
		{from("R", "R.gluten = 'free'"), from("R", "gluten = 'free'")},
		{from("R", "R.calories > 500 AND (R.protein > 30 OR R.fat < 10)"), from("R", "(R.calories > 500 AND R.protein > 30) OR R.fat < 10")}, // parenthesisation
		{from("R", "R.calories >= 500"), from("R", "R.calories >= 501")},                                                                     // constant
		{from("R", "R.calories >= 500"), from("R", "R.calories > 500")},
	} {
		var keys [2]string
		var want [2][]int
		var scanErr [2]error
		for i, text := range pair {
			q, err := paql.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := paql.Analyze(q, tab.Schema); err != nil {
				t.Fatal(err)
			}
			keys[i] = whereKey(q)
			want[i], scanErr[i] = scanIDs(t, tab, text)
		}
		if keys[0] == keys[1] && ((scanErr[0] == nil) != (scanErr[1] == nil) || !slices.Equal(want[0], want[1])) {
			t.Errorf("%s\nand %s\nshare the key %q and select %d and %d tuples (errors: %v, %v)",
				pair[0], pair[1], keys[0], len(want[0]), len(want[1]), scanErr[0], scanErr[1])
		}
		for round := 0; round < 3; round++ {
			for i, text := range pair {
				prep, err := Prepare(db, text)
				if scanErr[i] != nil {
					if err == nil {
						t.Errorf("round %d: %s prepared; a scan fails with %v", round, text, scanErr[i])
					}
					continue
				}
				if err != nil {
					t.Fatalf("round %d: %s: %v", round, text, err)
				}
				if !slices.Equal(prep.Instance.IDs, want[i]) {
					t.Errorf("round %d: %s: %d candidates (snapshot hit %v), a scan finds %d",
						round, text, len(prep.Instance.IDs), prep.SnapshotHit, len(want[i]))
				}
				if wantHit := asked[keys[i]]; prep.SnapshotHit != wantHit || (prep.RowsScanned == 0) != wantHit {
					t.Errorf("round %d: %s: SnapshotHit=%v RowsScanned=%d", round, text, prep.SnapshotHit, prep.RowsScanned)
				}
				asked[keys[i]] = true
			}
		}
	}
}

// A WHERE nobody repeats leaves the ids a first sight costs and nothing
// else: after 200 of them over one table the store holds no candidate row
// and no pass store, and no more entries than its bound.
func TestNeverRepeatedWheresRetainNothing(t *testing.T) {
	db := lcDB(t, 600)
	store := snapshotsOf(recipesTable(t, db))
	for i := 0; i < 200; i++ {
		prep, err := Prepare(db, snapQuery(fmt.Sprintf("R.calories >= %d", 100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if prep.SnapshotHit || prep.RowsScanned != 600 {
			t.Fatalf("WHERE %d: SnapshotHit=%v RowsScanned=%d on first sight", i, prep.SnapshotHit, prep.RowsScanned)
		}
		if _, err := prep.Run(Options{Strategy: SketchRefineStrategy, SketchMemo: NewFingerprintMemo()}); err != nil {
			t.Fatal(err)
		}
	}
	if rows, stores := store.retained(); rows != 0 || stores != 0 {
		t.Errorf("200 never-repeated WHEREs left %d candidate rows and %d pass stores behind", rows, stores)
	}
	if n := len(store.entries); n > memoMaxEntries {
		t.Errorf("%d entries, bound %d", n, memoMaxEntries)
	}
}

// A snapshot that keeps being hit outlives a stream of WHEREs nobody
// repeats, however long: eviction takes the least recently used entry.
func TestHotSnapshotSurvivesColdStream(t *testing.T) {
	db := lcDB(t, 600)
	hot := snapQuery("R.gluten = 'free'")
	for i := 0; i < 2; i++ {
		if _, err := Prepare(db, hot); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*memoMaxEntries; i++ {
		if _, err := Prepare(db, snapQuery(fmt.Sprintf("R.calories >= %d", 100+i))); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			continue
		}
		prep, err := Prepare(db, hot)
		if err != nil {
			t.Fatal(err)
		}
		if !prep.SnapshotHit || prep.RowsScanned != 0 {
			t.Fatalf("after %d cold WHEREs the hot snapshot was gone: SnapshotHit=%v RowsScanned=%d", i+1, prep.SnapshotHit, prep.RowsScanned)
		}
	}
	store := snapshotsOf(recipesTable(t, db))
	if rows, stores := store.retained(); stores != 1 || rows == 0 {
		t.Errorf("the store holds %d pass stores over %d rows, want the hot snapshot's alone", stores, rows)
	}
}

// A write moves the table's version, and the next preparation of a WHERE
// advances its snapshot along the delta log: it evaluates the predicate on
// the k appended rows alone (RowsScanned = k, not a hit), drops the m
// deleted ones, and carries every selection the old version's queries
// folded, so its store folds nothing that query asks. A snapshot whose
// WHERE is not asked keeps its old version until it is, and advances then
// over every write since; the preparation after an advance is a hit.
func TestWriteAdvancesRowsAndPasses(t *testing.T) {
	db := lcDB(t, 600)
	store := snapshotsOf(recipesTable(t, db))
	wheres := []string{"R.gluten = 'free'", "R.calories >= 300"}
	for _, where := range wheres {
		for i := 0; i < 2; i++ {
			if _, err := Prepare(db, snapQuery(where)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, stores := store.retained(); stores != 2 {
		t.Fatalf("%d promoted snapshots, want 2", stores)
	}
	const k = 25
	for step := 0; step < 2; step++ {
		writeBatch(t, db, 90_000+100*step, k, 10+10*step, 10)
		prep, err := Prepare(db, snapQuery(wheres[0]))
		if err != nil {
			t.Fatal(err)
		}
		if prep.SnapshotHit || prep.RowsScanned != k {
			t.Errorf("step %d: first preparation after the write: SnapshotHit=%v RowsScanned=%d, want an advance over %d rows",
				step, prep.SnapshotHit, prep.RowsScanned, k)
		}
		if got := prep.Instance.Passes.Folds(); got != 0 {
			t.Errorf("step %d: the advanced store folded %d selections; every one the query asks was carried", step, got)
		}
		if want, _ := scanIDs(t, recipesTable(t, db), snapQuery(wheres[0])); !slices.Equal(prep.Instance.IDs, want) {
			t.Errorf("step %d: the advanced snapshot holds %d candidates, a scan finds %d", step, len(prep.Instance.IDs), len(want))
		}
		if _, stores := store.retained(); stores != 2 {
			t.Errorf("step %d: %d pass stores; the unasked WHERE keeps its own", step, stores)
		}
		if prep, err = Prepare(db, snapQuery(wheres[0])); err != nil || !prep.SnapshotHit || prep.RowsScanned != 0 {
			t.Errorf("step %d: second preparation after the write: SnapshotHit=%v err=%v", step, prep != nil && prep.SnapshotHit, err)
		}
	}
	prep, err := Prepare(db, snapQuery(wheres[1]))
	if err != nil {
		t.Fatal(err)
	}
	if prep.SnapshotHit || prep.RowsScanned != 2*k || prep.Instance.Passes.Folds() != 0 {
		t.Errorf("a snapshot two writes behind: SnapshotHit=%v RowsScanned=%d folds=%d, want an advance over %d rows folding nothing",
			prep.SnapshotHit, prep.RowsScanned, prep.Instance.Passes.Folds(), 2*k)
	}
}

// The store hangs off the table and nothing else holds it: a dropped
// table, snapshots and all, is garbage once the queries over it are.
func TestDroppedTableIsCollectable(t *testing.T) {
	db := lcDB(t, 600)
	for i := 0; i < 3; i++ {
		prep, err := Prepare(db, lcQuery)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.Run(Options{SketchMemo: NewFingerprintMemo()}); err != nil {
			t.Fatal(err)
		}
	}
	collected := make(chan struct{})
	runtime.AddCleanup(recipesTable(t, db), func(ch chan struct{}) { close(ch) }, collected)
	if err := db.DropTable("recipes"); err != nil {
		t.Fatal(err)
	}
	awaitCleanup(t, collected, "the dropped table")
}

// awaitCleanup runs the two collections a cleanup needs — one to find the
// object unreachable, one for the cleanup's goroutine to have run — and a
// few more for a slow scheduler.
func awaitCleanup(t *testing.T, collected <-chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Errorf("%s is still reachable after 10 collections", what)
}
