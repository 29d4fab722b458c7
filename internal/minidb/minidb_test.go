package minidb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE recipes (id INT, name TEXT, gluten TEXT, calories FLOAT, protein FLOAT, fat FLOAT)`)
	rows := []string{
		`(1, 'Oatmeal',   'free', 300, 10, 5)`,
		`(2, 'Pasta',     'full', 550, 18, 8)`,
		`(3, 'Salad',     'free', 150, 4,  9)`,
		`(4, 'Chicken',   'free', 420, 38, 12)`,
		`(5, 'Burger',    'full', 800, 30, 40)`,
		`(6, 'Tofu Bowl', 'free', 380, 22, 10)`,
		`(7, 'Smoothie',  'free', 200, 6,  2)`,
		`(8, 'Steak',     'free', 650, 45, 30)`,
	}
	mustExec(t, db, "INSERT INTO recipes VALUES "+strings.Join(rows, ", "))
	return db
}

func TestCreateInsertSelectStar(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT * FROM recipes`)
	if len(res.Rows) != 8 || res.Schema.Len() != 6 {
		t.Fatalf("got %d rows, %d cols", len(res.Rows), res.Schema.Len())
	}
	if res.Schema.Cols[0].Table != "recipes" {
		t.Errorf("star schema should be qualified: %v", res.Schema.Cols[0])
	}
}

func TestCreateTableErrors(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`CREATE TABLE recipes (x INT)`); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.Exec(`CREATE TABLE t2 (x INT, X TEXT)`); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := db.Exec(`CREATE TABLE t3 (x BLOB)`); err == nil {
		t.Error("unknown type should fail")
	}
}

func TestWhereBaseConstraint(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name FROM recipes WHERE gluten = 'free' AND calories <= 400`)
	var names []string
	for _, r := range res.Rows {
		names = append(names, r[0].StrVal())
	}
	want := []string{"Oatmeal", "Salad", "Tofu Bowl", "Smoothie"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v, want %v", names, want)
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name, protein / calories * 100 AS density FROM recipes WHERE id = 4`)
	if res.Schema.Cols[1].Name != "density" {
		t.Errorf("alias = %q", res.Schema.Cols[1].Name)
	}
	got, _ := res.Rows[0][1].AsFloat()
	want := 38.0 / 420.0 * 100
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("density = %v, want %v", got, want)
	}
}

// names reads a result's first column as strings, in row order.
func names(res *Result) string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].StrVal())
	}
	return strings.Join(out, ",")
}

// LIMIT keeps the first rows in heap order, after WHERE.
func TestLimit(t *testing.T) {
	db := newTestDB(t)
	if got := names(mustExec(t, db, `SELECT name, calories FROM recipes LIMIT 3`)); got != "Oatmeal,Pasta,Salad" {
		t.Errorf("first 3 = %v", got)
	}
	if got := names(mustExec(t, db, `SELECT name FROM recipes WHERE calories > 400 LIMIT 2`)); got != "Pasta,Chicken" {
		t.Errorf("first 2 over 400 = %v", got)
	}
	if res := mustExec(t, db, `SELECT name FROM recipes LIMIT 0`); len(res.Rows) != 0 {
		t.Errorf("LIMIT 0 = %v", res.Rows)
	}
	if res := mustExec(t, db, `SELECT name FROM recipes LIMIT 100`); len(res.Rows) != 8 {
		t.Errorf("LIMIT past the table = %d rows", len(res.Rows))
	}
	// LIMIT over a join stops at the first qualifying pair.
	res := mustExec(t, db, `SELECT a.name, b.name FROM recipes a, recipes b WHERE a.calories + b.calories = 1000 LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].StrVal() != "Burger" || res.Rows[0][1].StrVal() != "Smoothie" {
		t.Errorf("first pair = %v", res.Rows)
	}
}

func TestAggregatesGlobal(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT COUNT(*), SUM(calories), MIN(calories), MAX(calories), AVG(protein) FROM recipes`)
	r := res.Rows[0]
	if !r[0].Equal(value.Int(8)) {
		t.Errorf("count = %v", r[0])
	}
	if f, _ := r[1].AsFloat(); f != 3450 {
		t.Errorf("sum = %v", r[1])
	}
	if f, _ := r[2].AsFloat(); f != 150 {
		t.Errorf("min = %v", r[2])
	}
	if f, _ := r[3].AsFloat(); f != 800 {
		t.Errorf("max = %v", r[3])
	}
	if f, _ := r[4].AsFloat(); f != (10+18+4+38+30+22+6+45)/8.0 {
		t.Errorf("avg = %v", r[4])
	}
	// Each column is typed as the value it holds: COUNT an integer, AVG
	// a float, SUM an integer over integers, MIN and MAX their argument's
	// type.
	db = New()
	mustExec(t, db, `CREATE TABLE t (id INT, s TEXT, f FLOAT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5)`)
	res = mustExec(t, db, `SELECT SUM(id), MIN(s), MAX(id), COUNT(s), AVG(id), SUM(f), MAX(f), SUM(id) + 1 FROM t`)
	want := []schema.Type{schema.TInt, schema.TString, schema.TInt, schema.TInt, schema.TFloat, schema.TFloat, schema.TFloat, schema.TInt}
	for i, c := range res.Schema.Cols {
		if c.Type != want[i] {
			t.Errorf("%s declared %v, want %v (value %v)", c.Name, c.Type, want[i], res.Rows[0][i])
		}
	}
}

// TestGroupByHaving checks what is left of grouping: an aggregate query
// is one global fold, so a bare column beside an aggregate fails, and
// GROUP BY and HAVING are refused by name.
func TestGroupByHaving(t *testing.T) {
	db := newTestDB(t)
	// An aggregate query folds to one row, so a bare column has no value.
	if _, err := db.Exec(`SELECT name, COUNT(*) FROM recipes`); err == nil || !strings.Contains(err.Error(), "inside an aggregate") {
		t.Errorf("bare column beside an aggregate: err = %v", err)
	}
	for _, c := range []struct{ sql, clause string }{
		{`SELECT gluten, COUNT(*) AS n, SUM(calories) AS total FROM recipes GROUP BY gluten HAVING COUNT(*) > 2`, "GROUP BY"},
		{`SELECT name FROM recipes GROUP BY gluten`, "GROUP BY"},
		{`SELECT gluten FROM recipes HAVING COUNT(*) > 1`, "HAVING"},
	} {
		_, err := db.Exec(c.sql)
		if err == nil || !strings.Contains(err.Error(), "minidb does not support "+c.clause) {
			t.Errorf("%s: err = %v, want it to name %s", c.sql, err, c.clause)
		}
	}
}

func TestAggregatesEmptyInput(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT COUNT(*), SUM(calories) FROM recipes WHERE calories > 10000`)
	if len(res.Rows) != 1 {
		t.Fatalf("global agg over empty input should yield 1 row, got %d", len(res.Rows))
	}
	if !res.Rows[0][0].Equal(value.Int(0)) {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("sum of empty = %v, want NULL", res.Rows[0][1])
	}
}

func TestJoins(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE cuisines (rid INT, cuisine TEXT)`)
	mustExec(t, db, `INSERT INTO cuisines VALUES (1,'US'), (2,'IT'), (3,'US'), (4,'FR'), (99,'XX')`)

	// comma join with equi predicate
	res := mustExec(t, db, `
		SELECT r.name, c.cuisine FROM recipes r, cuisines c
		WHERE r.id = c.rid`)
	if len(res.Rows) != 4 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].StrVal() != "Oatmeal" || res.Rows[0][1].StrVal() != "US" {
		t.Errorf("first join row = %v", res.Rows[0])
	}
	// the same join with the sources swapped: heap order of the outer
	// side, here the same order
	res2 := mustExec(t, db, `
		SELECT r.name, c.cuisine FROM cuisines c, recipes r WHERE c.rid = r.id`)
	if fmt.Sprint(res2.Rows) != fmt.Sprint(res.Rows) {
		t.Errorf("swapped join rows = %v, want %v", res2.Rows, res.Rows)
	}
	// non-equi theta join
	res3 := mustExec(t, db, `
		SELECT a.name, b.name FROM recipes a, recipes b
		WHERE a.calories < b.calories AND a.id = 3 AND b.id = 5`)
	if len(res3.Rows) != 1 {
		t.Errorf("theta join rows = %v", res3.Rows)
	}
	// cross join cardinality
	res4 := mustExec(t, db, `SELECT COUNT(*) FROM recipes a, cuisines b`)
	if !res4.Rows[0][0].Equal(value.Int(40)) {
		t.Errorf("cross count = %v", res4.Rows[0][0])
	}
	// three-way join
	res5 := mustExec(t, db, `
		SELECT COUNT(*) FROM recipes r, cuisines c, recipes r2
		WHERE r.id = c.rid AND r2.id = r.id`)
	if !res5.Rows[0][0].Equal(value.Int(4)) {
		t.Errorf("3-way join count = %v", res5.Rows[0][0])
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (x INT)`)
	mustExec(t, db, `CREATE TABLE b (y INT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1), (NULL)`)
	mustExec(t, db, `INSERT INTO b VALUES (1), (NULL)`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM a, b WHERE a.x = b.y`)
	if !res.Rows[0][0].Equal(value.Int(1)) {
		t.Errorf("null join count = %v", res.Rows[0][0])
	}
}

func TestScalarSubquery(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT name FROM recipes
		WHERE calories = (SELECT MAX(calories) FROM recipes)`)
	if len(res.Rows) != 1 || res.Rows[0][0].StrVal() != "Burger" {
		t.Errorf("subquery = %v", res.Rows)
	}
	// zero-row subquery folds to NULL -> no matches
	res = mustExec(t, db, `
		SELECT name FROM recipes
		WHERE calories = (SELECT calories FROM recipes WHERE id = 999)`)
	if len(res.Rows) != 0 {
		t.Errorf("null subquery matched %v", res.Rows)
	}
	if _, err := db.Exec(`SELECT name FROM recipes WHERE calories = (SELECT id, name FROM recipes)`); err == nil {
		t.Error("two-column subquery should fail")
	}
	if _, err := db.Exec(`SELECT name FROM recipes WHERE calories = (SELECT calories FROM recipes)`); err == nil {
		t.Error("multi-row subquery should fail")
	}
}

func TestInsertWithColumnListAndNulls(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO recipes (id, name) VALUES (9, 'Mystery')`)
	res := mustExec(t, db, `SELECT calories FROM recipes WHERE id = 9`)
	if !res.Rows[0][0].IsNull() {
		t.Errorf("unspecified column should be NULL, got %v", res.Rows[0][0])
	}
	// NULL does not satisfy predicates
	res = mustExec(t, db, `SELECT COUNT(*) FROM recipes WHERE calories <= 10000`)
	if !res.Rows[0][0].Equal(value.Int(8)) {
		t.Errorf("null row should not match, count = %v", res.Rows[0][0])
	}
	if _, err := db.Exec(`INSERT INTO recipes (id) VALUES (1, 2)`); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := db.Exec(`INSERT INTO recipes (id) VALUES (id)`); err == nil {
		t.Error("non-constant insert should fail")
	}
	if _, err := db.Exec(`INSERT INTO recipes (id) VALUES ('abc')`); err == nil {
		t.Error("type mismatch should fail")
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `DELETE FROM recipes WHERE gluten = 'full'`)
	if res.Affected != 2 {
		t.Errorf("deleted = %d", res.Affected)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM recipes`)
	if !res.Rows[0][0].Equal(value.Int(6)) {
		t.Errorf("remaining = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, `DELETE FROM recipes`)
	if res.Affected != 6 {
		t.Errorf("delete all = %d", res.Affected)
	}
}

// Range and equality probes follow writes: a scan reads the rows INSERT
// appended and skips the rows DELETE compacted away.
func TestRangeProbesFollowWrites(t *testing.T) {
	db := newTestDB(t)
	r := mustExec(t, db, `SELECT name FROM recipes WHERE calories = 800`)
	if len(r.Rows) != 1 || r.Rows[0][0].StrVal() != "Burger" {
		t.Errorf("eq probe = %v", r.Rows)
	}
	r = mustExec(t, db, `SELECT COUNT(*) FROM recipes WHERE calories > 400`)
	if !r.Rows[0][0].Equal(value.Int(4)) {
		t.Errorf("gt probe = %v", r.Rows[0][0])
	}
	mustExec(t, db, `INSERT INTO recipes VALUES (10, 'Snack', 'free', 100, 1, 1)`)
	r = mustExec(t, db, `SELECT COUNT(*) FROM recipes WHERE calories < 200`)
	if !r.Rows[0][0].Equal(value.Int(2)) {
		t.Errorf("after insert = %v", r.Rows[0][0])
	}
	mustExec(t, db, `DELETE FROM recipes WHERE id = 10`)
	r = mustExec(t, db, `SELECT COUNT(*) FROM recipes WHERE calories < 200`)
	if !r.Rows[0][0].Equal(value.Int(1)) {
		t.Errorf("after delete = %v", r.Rows[0][0])
	}
}

// Scalar sub-queries fold in writes as they do in SELECT: DELETE folds
// its WHERE and INSERT each VALUES expression, against the table as it
// stands before the write.
func TestScalarSubqueriesInWrites(t *testing.T) {
	db := newTestDB(t)
	// AVG(calories) = 3450/8 = 431.25: Pasta, Burger and Steak go.
	res := mustExec(t, db, `DELETE FROM recipes WHERE calories > (SELECT AVG(calories) FROM recipes)`)
	if res.Affected != 3 {
		t.Errorf("deleted = %d, want 3", res.Affected)
	}
	// MAX(id) is 7 now, and both rows read it before either lands.
	mustExec(t, db, `INSERT INTO recipes VALUES
		((SELECT MAX(id) FROM recipes) + 1, 'Soup', 'free', 120, 5, 3),
		((SELECT MAX(id) FROM recipes) + 2, 'Stew', 'full', 480, 25, 14)`)
	res = mustExec(t, db, `SELECT id, name FROM recipes WHERE id > 7`)
	if len(res.Rows) != 2 || !res.Rows[0][0].Equal(value.Int(8)) || res.Rows[0][1].StrVal() != "Soup" ||
		!res.Rows[1][0].Equal(value.Int(9)) || res.Rows[1][1].StrVal() != "Stew" {
		t.Errorf("inserted = %v", res.Rows)
	}
	// A failing sub-query fails the write before it touches the table.
	tab, _ := db.Table("recipes")
	version := tab.Version()
	for _, q := range []string{
		`DELETE FROM recipes WHERE calories > (SELECT calories FROM recipes)`,
		`INSERT INTO recipes VALUES ((SELECT id, name FROM recipes), 'X', 'free', 1, 1, 1)`,
	} {
		if _, err := db.Exec(q); err == nil || !strings.Contains(err.Error(), "scalar sub-query") {
			t.Errorf("Exec(%q) = %v, want a scalar sub-query error", q, err)
		}
	}
	if tab.Version() != version || len(tab.Rows) != 7 {
		t.Errorf("failed writes moved the table: version %d -> %d, %d rows", version, tab.Version(), len(tab.Rows))
	}
}

func TestLoadCSV(t *testing.T) {
	db := New()
	csvData := `id:int,name,price:float,organic
1,apple,1.25,true
2,banana,0.5,false
3,cherry,3.0,true
`
	n, err := db.LoadCSV("fruit", strings.NewReader(csvData))
	if err != nil || n != 3 {
		t.Fatalf("LoadCSV = %d, %v", n, err)
	}
	res := mustExec(t, db, `SELECT name FROM fruit WHERE organic = TRUE AND price < 2`)
	if len(res.Rows) != 1 || res.Rows[0][0].StrVal() != "apple" {
		t.Errorf("csv query = %v", res.Rows)
	}
	tab, _ := db.Table("fruit")
	if tab.Schema.Cols[0].Type != schema.TInt || tab.Schema.Cols[2].Type != schema.TFloat ||
		tab.Schema.Cols[3].Type != schema.TBool || tab.Schema.Cols[1].Type != schema.TString {
		t.Errorf("csv schema = %v", tab.Schema)
	}
	// inference: column of mixed ints and floats becomes float
	db2 := New()
	_, err = db2.LoadCSV("m", strings.NewReader("x\n1\n2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	tab2, _ := db2.Table("m")
	if tab2.Schema.Cols[0].Type != schema.TFloat {
		t.Errorf("mixed numeric inferred as %v", tab2.Schema.Cols[0].Type)
	}
}

func TestResultFormat(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name, calories FROM recipes WHERE id <= 2`)
	var sb strings.Builder
	res.Format(&sb)
	out := sb.String()
	if !strings.Contains(out, "Oatmeal") || !strings.Contains(out, "(2 rows)") {
		t.Errorf("format output:\n%s", out)
	}
	ddl := mustExec(t, db, `CREATE TABLE empty_t (x INT)`)
	sb.Reset()
	ddl.Format(&sb)
	if !strings.Contains(sb.String(), "OK") {
		t.Errorf("ddl format: %s", sb.String())
	}
}

func TestParseErrorsSurface(t *testing.T) {
	db := newTestDB(t)
	bad := []string{
		`SELEC * FROM recipes`,
		`SELECT * FROM`,
		`SELECT * FROM recipes WHERE`,
		`SELECT * FROM recipes GROUP`,
		`SELECT * FROM recipes trailing_token extra`,
		`INSERT INTO recipes`,
		`CREATE recipes`,
		`CREATE INDEX ON recipes (calories)`,
		`SELECT FROM recipes`,
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
	if _, err := db.Exec(`SELECT * FROM nope`); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.Exec(`SELECT nope FROM recipes`); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := db.Query(`DELETE FROM recipes`); err == nil {
		t.Error("Query should reject non-SELECT")
	}
	if _, err := db.Exec(`SELECT r.id FROM recipes r, recipes r`); err == nil {
		t.Error("duplicate binding should fail")
	}
	if _, err := db.Exec(`SELECT nope.* FROM recipes r`); err == nil {
		t.Error("unknown star qualifier should fail")
	}
	if _, err := db.Exec(`SELECT SUM(SUM(calories)) FROM recipes`); err == nil {
		t.Error("nested aggregates should fail")
	}
	if _, err := db.Exec(`SELECT * , COUNT(*) FROM recipes`); err == nil {
		t.Error("star with aggregation should fail")
	}
	// The clauses minidb does not run are refused by name, also inside
	// a scalar sub-query, and none is read as an alias.
	refused := []struct{ q, clause string }{
		{`SELECT gluten, COUNT(*) FROM recipes GROUP BY gluten`, "GROUP BY"},
		{`SELECT COUNT(*) FROM recipes HAVING COUNT(*) > 1`, "HAVING"},
		{`SELECT name FROM recipes ORDER BY calories`, "ORDER BY"},
		{`SELECT name FROM recipes r ORDER BY calories LIMIT 1`, "ORDER BY"},
		{`SELECT DISTINCT gluten FROM recipes`, "DISTINCT"},
		{`SELECT name FROM recipes LIMIT 2 OFFSET 1`, "OFFSET"},
		{`SELECT name FROM recipes OFFSET 1`, "OFFSET"},
		{`SELECT a.name FROM recipes a JOIN recipes b ON a.id = b.id`, "JOIN ... ON"},
		{`SELECT a.name FROM recipes a INNER JOIN recipes b ON a.id = b.id`, "JOIN ... ON"},
		{`SELECT x.name FROM (SELECT name FROM recipes) x`, "derived table"},
		{`SELECT name FROM recipes WHERE calories = (SELECT calories FROM recipes ORDER BY calories LIMIT 1)`, "ORDER BY"},
		{`DELETE FROM recipes WHERE calories = (SELECT DISTINCT calories FROM recipes)`, "DISTINCT"},
	}
	for _, c := range refused {
		want := "minidb does not support " + c.clause
		if _, err := db.Exec(c.q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Exec(%q) = %v, want %q", c.q, err, want)
		}
	}
}

func TestDropTableAndNames(t *testing.T) {
	db := newTestDB(t)
	names := db.TableNames()
	if len(names) != 1 || names[0] != "recipes" {
		t.Errorf("names = %v", names)
	}
	if err := db.DropTable("recipes"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("recipes"); err == nil {
		t.Error("double drop should fail")
	}
	if len(db.TableNames()) != 0 {
		t.Error("catalog not empty after drop")
	}
}

// TestReplacementQueryShape runs the paper's §4.2 single-tuple
// replacement query: find all (p, r) pairs where swapping p out of the
// package for r makes the calorie total feasible.
func TestReplacementQueryShape(t *testing.T) {
	db := newTestDB(t)
	// Current package: ids 5, 8, 2 (Burger 800, Steak 650, Pasta 550) = 2000 total.
	mustExec(t, db, `CREATE TABLE p0 (id INT, calories FLOAT)`)
	mustExec(t, db, `INSERT INTO p0 VALUES (5, 800), (8, 650), (2, 550)`)
	// Target: total <= 1500. 2000 - p.calories + r.calories <= 1500.
	res := mustExec(t, db, `
		SELECT p.id, r.id FROM p0 p, recipes r
		WHERE 2000 - p.calories + r.calories <= 1500
		  AND r.id <> p.id`)
	// p=5 (800): need r.calories <= 300: ids 1(300),3(150),7(200) -> 3 pairs
	// p=8 (650): need r.calories <= 150: id 3 -> 1 pair
	// p=2 (550): need r.calories <= 50: none
	// Pairs come in nested-loop order: p0's heap order outside,
	// recipes' inside.
	if got := fmt.Sprint(res.Rows); got != "[[5, 1] [5, 3] [5, 7] [8, 3]]" {
		t.Errorf("replacement pairs = %s", got)
	}
}

// Property-style test: random filters over a random table agree with a
// straightforward in-memory oracle.
func TestRandomFiltersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := New()
	mustExec(t, db, `CREATE TABLE nums (a INT, b FLOAT)`)
	type rec struct {
		a int64
		b float64
	}
	var data []rec
	var inserts []string
	for i := 0; i < 300; i++ {
		r := rec{a: int64(rng.Intn(100)), b: float64(rng.Intn(1000)) / 10}
		data = append(data, r)
		inserts = append(inserts, fmt.Sprintf("(%d, %g)", r.a, r.b))
	}
	mustExec(t, db, "INSERT INTO nums VALUES "+strings.Join(inserts, ","))
	for trial := 0; trial < 50; trial++ {
		lo := rng.Intn(100)
		hi := lo + rng.Intn(40)
		bcut := float64(rng.Intn(1000)) / 10
		q := fmt.Sprintf(`SELECT COUNT(*), SUM(b) FROM nums WHERE a BETWEEN %d AND %d AND b <= %g`, lo, hi, bcut)
		res := mustExec(t, db, q)
		wantN := int64(0)
		wantSum := 0.0
		for _, r := range data {
			if r.a >= int64(lo) && r.a <= int64(hi) && r.b <= bcut {
				wantN++
				wantSum += r.b
			}
		}
		gotN := res.Rows[0][0].IntVal()
		gotSum, _ := res.Rows[0][1].AsFloat()
		if gotN != wantN {
			t.Fatalf("trial %d: count = %d, want %d (q=%s)", trial, gotN, wantN, q)
		}
		if wantN > 0 && (gotSum-wantSum > 1e-6 || wantSum-gotSum > 1e-6) {
			t.Fatalf("trial %d: sum = %v, want %v", trial, gotSum, wantSum)
		}
	}
}

// Joins agree with counts computed in Go: equi-joins, theta joins and
// their mix, over random keys of which some
// are NULL and never match.
func TestJoinStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type row struct {
		k    int64
		null bool // k is NULL
		v    int64
	}
	gen := func(n int) ([]row, string) {
		rows := make([]row, n)
		lits := make([]string, n)
		for i := range rows {
			rows[i] = row{k: int64(rng.Intn(12)), null: rng.Intn(6) == 0, v: int64(rng.Intn(30))}
			k := fmt.Sprint(rows[i].k)
			if rows[i].null {
				k = "NULL"
			}
			lits[i] = fmt.Sprintf("(%s, %d)", k, rows[i].v)
		}
		return rows, strings.Join(lits, ", ")
	}
	eq := func(a, b row, shift int64) bool { return !a.null && !b.null && a.k+shift == b.k }
	cases := []struct {
		from, where string
		match       func(a, b row) bool
	}{
		{"l, r", "l.k = r.k", func(a, b row) bool { return eq(a, b, 0) }},
		{"l, r", "r.k = l.k", func(a, b row) bool { return eq(a, b, 0) }},
		{"l, r", "l.k + 1 = r.k", func(a, b row) bool { return eq(a, b, 1) }},
		{"l, r", "l.k = r.k AND l.v < r.v", func(a, b row) bool { return eq(a, b, 0) && a.v < b.v }},
		{"l, r", "l.k < r.k", func(a, b row) bool { return !a.null && !b.null && a.k < b.k }},
		{"l, r", "l.v + r.v = 30", func(a, b row) bool { return a.v+b.v == 30 }},
		{"l, r", "l.k = r.k OR l.v = r.v", func(a, b row) bool { return eq(a, b, 0) || a.v == b.v }},
		{"l, r", "l.k IS NULL AND r.k IS NULL", func(a, b row) bool { return a.null && b.null }},
	}
	for trial := 0; trial < 4; trial++ {
		db := New()
		mustExec(t, db, `CREATE TABLE l (k INT, v INT)`)
		mustExec(t, db, `CREATE TABLE r (k INT, v INT)`)
		l, lits := gen(60)
		mustExec(t, db, "INSERT INTO l VALUES "+lits)
		r, lits := gen(60)
		mustExec(t, db, "INSERT INTO r VALUES "+lits)
		for _, c := range cases {
			want := int64(0)
			for _, a := range l {
				for _, b := range r {
					if c.match(a, b) {
						want++
					}
				}
			}
			q := "SELECT COUNT(*) FROM " + c.from
			if c.where != "" {
				q += " WHERE " + c.where
			}
			if got := mustExec(t, db, q).Rows[0][0].IntVal(); got != want {
				t.Errorf("trial %d: %s = %d, want %d", trial, q, got, want)
			}
		}
		// A three-way chain of equi-joins.
		want := int64(0)
		for _, a := range l {
			for _, b := range r {
				for _, c := range l {
					if eq(a, b, 0) && eq(b, c, 0) && c.v > a.v {
						want++
					}
				}
			}
		}
		q := `SELECT COUNT(*) FROM l, r, l l2 WHERE l.k = r.k AND r.k = l2.k AND l2.v > l.v`
		if got := mustExec(t, db, q).Rows[0][0].IntVal(); got != want {
			t.Errorf("trial %d: %s = %d, want %d", trial, q, got, want)
		}
	}
}
