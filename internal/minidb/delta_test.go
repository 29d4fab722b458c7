package minidb

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func deltaTable(t *testing.T, n int) (*DB, *Table) {
	t.Helper()
	db := New()
	tab, err := db.CreateTable("t", schema.Schema{Cols: []schema.Column{
		{Name: "id", Type: schema.TInt}, {Name: "v", Type: schema.TInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for i := 0; i < n; i++ {
		rows = append(rows, schema.Row{value.Int(int64(i)), value.Int(int64(i * 10))})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// replayCheck drives a write sequence while shadowing the table with a
// plain slice of logical row tags, then verifies DeltaSince(base)
// explains exactly how the base rows map onto the current heap.
func TestDeltaSinceReplay(t *testing.T) {
	db, tab := deltaTable(t, 10)
	base := tab.Version()
	baseTags := make([]string, len(tab.Rows))
	for i, r := range tab.Rows {
		baseTags[i] = r[0].String()
	}

	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("DELETE FROM t WHERE id = 3")
	mustExec("INSERT INTO t VALUES (100, 0)")
	mustExec("INSERT INTO t VALUES (101, 0)")
	mustExec("DELETE FROM t WHERE id = 7 OR id = 100")
	mustExec("INSERT INTO t VALUES (102, 0)")

	d, ok := tab.DeltaSince(base)
	if !ok {
		t.Fatal("delta aged out unexpectedly")
	}
	if d.BaseSize != 10 {
		t.Fatalf("BaseSize = %d, want 10", d.BaseSize)
	}
	// Deleted must name base positions of ids 3 and 7.
	if !reflect.DeepEqual(d.Deleted, []int{3, 7}) {
		t.Fatalf("Deleted = %v, want [3 7]", d.Deleted)
	}
	// Survivors must be a prefix of the heap, in base order.
	if d.AppendedStart != 8 {
		t.Fatalf("AppendedStart = %d, want 8", d.AppendedStart)
	}
	want := []string{"0", "1", "2", "4", "5", "6", "8", "9"}
	for i, tag := range want {
		if got := tab.Rows[i][0].String(); got != tag {
			t.Fatalf("row %d = %s, want %s", i, got, tag)
		}
	}
	for i := d.AppendedStart; i < len(tab.Rows); i++ {
		if id := tab.Rows[i][0].String(); id != "101" && id != "102" {
			t.Fatalf("appended row %d = %s, want a post-base insert", i, id)
		}
	}
}

func TestDeltaSinceVersionSemantics(t *testing.T) {
	db, tab := deltaTable(t, 4)
	v0 := tab.Version()
	if v0 == 0 {
		t.Fatal("initial load must bump the version")
	}
	if d, ok := tab.DeltaSince(v0); !ok || len(d.Deleted) != 0 || d.AppendedStart != 4 {
		t.Fatalf("identity delta = %+v ok=%v", d, ok)
	}
	if _, ok := tab.DeltaSince(v0 + 5); ok {
		t.Fatal("future version must not resolve")
	}
	if _, err := db.Exec("DELETE FROM t WHERE id >= 2"); err != nil {
		t.Fatal(err)
	}
	if tab.Version() != v0+1 {
		t.Fatalf("version = %d, want %d", tab.Version(), v0+1)
	}
	// A no-op write (nothing matched) must not bump the version:
	// downstream memos would otherwise rehash for nothing.
	if _, err := db.Exec("DELETE FROM t WHERE id = 999"); err != nil {
		t.Fatal(err)
	}
	if tab.Version() != v0+1 {
		t.Fatalf("no-op delete bumped version to %d", tab.Version())
	}
	d, ok := tab.DeltaSince(v0)
	if !ok || !reflect.DeepEqual(d.Deleted, []int{2, 3}) || d.AppendedStart != 2 {
		t.Fatalf("delta = %+v ok=%v", d, ok)
	}
}

func TestDeltaLogAgesOut(t *testing.T) {
	db, tab := deltaTable(t, 2)
	base := tab.Version()
	for i := 0; i < deltaLogMaxEntries+10; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tab.DeltaSince(base); ok {
		t.Fatal("base older than the bounded log must report !ok")
	}
	// A recent base still resolves.
	recent := tab.Version() - 3
	d, ok := tab.DeltaSince(recent)
	if !ok || d.AppendedStart != len(tab.Rows)-3 {
		t.Fatalf("recent delta = %+v ok=%v", d, ok)
	}
}

func TestDeltaLogBoundsDeletedIDs(t *testing.T) {
	db, tab := deltaTable(t, deltaLogMaxDeleted+100)
	base := tab.Version()
	if _, err := db.Exec("DELETE FROM t WHERE id >= 50"); err != nil {
		t.Fatal(err)
	}
	// The single delete exceeds the retained-id budget: the log must
	// shed it rather than pin a huge slice, so the base ages out.
	if _, ok := tab.DeltaSince(base); ok {
		t.Fatal("oversized delete must age the log out")
	}
	if got := tab.Version(); got != base+1 {
		t.Fatalf("version = %d, want %d", got, base+1)
	}
}

// TestDeleteCompactsIntoItsOwnArray: DELETE writes the survivors into a
// new array, so a reader holding the table's rows from before keeps
// them as they were, and the new array is sized by the survivors, so a
// DELETE of most rows gives the memory back.
func TestDeleteCompactsIntoItsOwnArray(t *testing.T) {
	db, tab := deltaTable(t, 1000)
	held := tab.Rows
	if _, err := db.Exec(`DELETE FROM t WHERE id < 990`); err != nil {
		t.Fatal(err)
	}
	for i, r := range held {
		if id := r[0].IntVal(); id != int64(i) {
			t.Fatalf("held row %d reads id %d after the DELETE", i, id)
		}
	}
	if len(tab.Rows) != 10 || cap(tab.Rows) >= 100 {
		t.Fatalf("after deleting 990 of 1000 rows: len %d, cap %d", len(tab.Rows), cap(tab.Rows))
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (5000, 0)`); err != nil {
		t.Fatal(err)
	}
	if held[10][0].IntVal() != 10 {
		t.Fatalf("an INSERT after the DELETE wrote into the held rows: %v", held[10])
	}
}
