package minidb

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func TestInsertRowsAPI(t *testing.T) {
	db := New()
	sc := schema.New(
		schema.Column{Name: "a", Type: schema.TInt},
		schema.Column{Name: "b", Type: schema.TFloat},
	)
	if _, err := db.CreateTable("t", sc); err != nil {
		t.Fatal(err)
	}
	rows := []schema.Row{
		{value.Int(1), value.Float(1.5)},
		{value.Int(2), value.Int(3)}, // int widens into float column
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, `SELECT SUM(b) FROM t`)
	if f, _ := res.Rows[0][0].AsFloat(); f != 4.5 {
		t.Errorf("sum = %g", f)
	}
	if err := db.InsertRows("nope", rows); err == nil {
		t.Error("insert into missing table should fail")
	}
	if err := db.InsertRows("t", []schema.Row{{value.Str("x"), value.Null()}}); err == nil {
		t.Error("type mismatch should fail")
	}
}

func TestLoadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, []byte("x:int,y\n1,foo\n2,bar\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := New()
	n, err := db.LoadCSVFile("f", path)
	if err != nil || n != 2 {
		t.Fatalf("LoadCSVFile = %d, %v", n, err)
	}
	if _, err := db.LoadCSVFile("g", filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestAstNodeInterfaces(t *testing.T) {
	// Subquery
	sq := &Subquery{Text: "SELECT 1"}
	if sq.String() != "(SELECT 1)" || len(sq.Children()) != 0 {
		t.Error("subquery shape")
	}
	if _, err := sq.Eval(nil); err == nil {
		t.Error("bare Subquery.Eval must error")
	}
	if sq.CloneWith(nil).String() != "(SELECT 1)" {
		t.Error("subquery clone")
	}
	// TableRef binding resolution
	if (TableRef{Name: "t"}).Binding() != "t" {
		t.Error("binding falls back to name")
	}
	if (TableRef{Name: "t", Alias: "a"}).Binding() != "a" {
		t.Error("alias wins")
	}
}

func TestSQLScalarFunctionsAndPredicates(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT UPPER(name), LENGTH(name), ABS(0 - calories)
		FROM recipes WHERE name LIKE 'O%' AND calories IS NOT NULL`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].StrVal() != "OATMEAL" {
		t.Errorf("upper = %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].Equal(value.Int(7)) {
		t.Errorf("length = %v", res.Rows[0][1])
	}
	if f, _ := res.Rows[0][2].AsFloat(); f != 300 {
		t.Errorf("abs = %v", res.Rows[0][2])
	}
	// IN list predicate
	res = mustExec(t, db, `SELECT COUNT(*) FROM recipes WHERE id IN (1, 3, 5, 99)`)
	if !res.Rows[0][0].Equal(value.Int(3)) {
		t.Errorf("in-list count = %v", res.Rows[0][0])
	}
}
