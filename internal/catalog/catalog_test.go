package catalog

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/minidb"
)

// newDB builds a db with one table "t" holding n rows (id INT, v FLOAT,
// s TEXT) where v = id and s cycles over 3 values; every 10th v is NULL.
func newDB(t *testing.T, n int) *minidb.DB {
	t.Helper()
	db := minidb.New()
	mustExec(t, db, "CREATE TABLE t (id INTEGER, v FLOAT, s TEXT)")
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("%d.5", i)
		if i%10 == 0 {
			v = "NULL"
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %s, 's%d')", i, v, i%3))
	}
	return db
}

func mustExec(t *testing.T, db *minidb.DB, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func TestStatsFullScan(t *testing.T) {
	db := newDB(t, 30)
	c := New(db)
	ts, ok := c.Stats("T") // case-insensitive
	if !ok {
		t.Fatal("table not found")
	}
	tab, _ := db.Table("t")
	if ts.Rows != 30 || ts.Table != "t" || ts.Version != tab.Version() {
		t.Fatalf("rows=%d table=%q version=%d (table at %d)", ts.Rows, ts.Table, ts.Version, tab.Version())
	}
}

func TestStatsUnknownTable(t *testing.T) {
	c := New(minidb.New())
	if _, ok := c.Stats("nope"); ok {
		t.Fatal("expected !ok")
	}
}

func TestIncrementalAppendMerges(t *testing.T) {
	db := newDB(t, 20)
	c := New(db)
	before, _ := c.Stats("t")
	mustExec(t, db, "INSERT INTO t VALUES (100, 999.5, 's9')")
	after, _ := c.Stats("t")
	if after.Rows != 21 || after.Version != before.Version+1 {
		t.Fatalf("rows=%d version=%d (before %d)", after.Rows, after.Version, before.Version)
	}
	mustExec(t, db, "DELETE FROM t WHERE id >= 10")
	gone, _ := c.Stats("t")
	if gone.Rows != 10 || gone.Version != after.Version+1 {
		t.Fatalf("after delete: rows=%d version=%d (before %d)", gone.Rows, gone.Version, after.Version)
	}
}

func TestWriteRate(t *testing.T) {
	db := newDB(t, 5)
	c := New(db)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	ts, _ := c.Stats("t")
	if ts.WriteRate != 0 {
		t.Fatalf("single sample should give rate 0, got %g", ts.WriteRate)
	}
	// 10 writes over 10 seconds → 1 write/s.
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 1.0, 'x')", 200+i))
	}
	ts, _ = c.Stats("t")
	if ts.WriteRate < 0.9 || ts.WriteRate > 1.1 {
		t.Fatalf("writeRate=%g want ≈1", ts.WriteRate)
	}
	// Quiet period: the rate decays toward zero as time passes.
	now = now.Add(2 * time.Minute)
	ts, _ = c.Stats("t")
	if ts.WriteRate > 0.1 {
		t.Fatalf("writeRate=%g should decay", ts.WriteRate)
	}
	// Past the window old samples drop entirely → read-only again.
	now = now.Add(writeRateWindow + time.Minute)
	c.Stats("t")
	now = now.Add(time.Second)
	ts, _ = c.Stats("t")
	if ts.WriteRate != 0 {
		t.Fatalf("writeRate=%g want 0 after window", ts.WriteRate)
	}
}

func TestAll(t *testing.T) {
	db := newDB(t, 3)
	mustExec(t, db, "CREATE TABLE aaa (x INTEGER)")
	c := New(db)
	all := c.All()
	if len(all) != 2 || all[0].Table != "aaa" || all[1].Table != "t" {
		t.Fatalf("all=%+v", all)
	}
}

func TestDroppedTableForgotten(t *testing.T) {
	db := newDB(t, 3)
	c := New(db)
	c.Stats("t")
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Stats("t"); ok {
		t.Fatal("dropped table should report !ok")
	}
}
