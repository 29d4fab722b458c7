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

func TestOrderByLimitOffset(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name, calories FROM recipes ORDER BY calories DESC LIMIT 3`)
	var names []string
	for _, r := range res.Rows {
		names = append(names, r[0].StrVal())
	}
	if strings.Join(names, ",") != "Burger,Steak,Pasta" {
		t.Errorf("top3 = %v", names)
	}
	res = mustExec(t, db, `SELECT name FROM recipes ORDER BY calories LIMIT 2 OFFSET 1`)
	names = nil
	for _, r := range res.Rows {
		names = append(names, r[0].StrVal())
	}
	if strings.Join(names, ",") != "Smoothie,Oatmeal" {
		t.Errorf("offset page = %v", names)
	}
	// ORDER BY ordinal and alias
	res = mustExec(t, db, `SELECT name, calories AS c FROM recipes ORDER BY 2 DESC LIMIT 1`)
	if res.Rows[0][0].StrVal() != "Burger" {
		t.Errorf("ordinal order = %v", res.Rows[0])
	}
	res = mustExec(t, db, `SELECT name, calories AS c FROM recipes ORDER BY c DESC LIMIT 1`)
	if res.Rows[0][0].StrVal() != "Burger" {
		t.Errorf("alias order = %v", res.Rows[0])
	}
	// ORDER BY expression not in select list (hidden key)
	res = mustExec(t, db, `SELECT name FROM recipes ORDER BY protein / calories DESC LIMIT 1`)
	if res.Rows[0][0].StrVal() != "Chicken" {
		t.Errorf("hidden key order = %v", res.Rows[0])
	}
	if res.Schema.Len() != 1 {
		t.Errorf("hidden sort column leaked: %v", res.Schema)
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

func TestGroupByHaving(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT gluten, COUNT(*) AS n, SUM(calories) AS total
		FROM recipes GROUP BY gluten HAVING COUNT(*) > 2 ORDER BY gluten`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].StrVal() != "free" || !r[1].Equal(value.Int(6)) {
		t.Errorf("group row = %v", r)
	}
	if f, _ := r[2].AsFloat(); f != 300+150+420+380+200+650 {
		t.Errorf("free total = %v", r[2])
	}
	// grouped column referenced bare vs qualified
	res = mustExec(t, db, `SELECT r.gluten, COUNT(*) FROM recipes r GROUP BY gluten ORDER BY 2 DESC`)
	if len(res.Rows) != 2 || res.Rows[0][0].StrVal() != "free" {
		t.Errorf("qualified group = %v", res.Rows)
	}
	// non-grouped column must error
	if _, err := db.Exec(`SELECT name FROM recipes GROUP BY gluten`); err == nil {
		t.Error("non-grouped column should fail")
	}
	if _, err := db.Exec(`SELECT gluten FROM recipes HAVING COUNT(*) > 1`); err == nil {
		t.Error("HAVING without GROUP BY with bare column select should fail")
	}
	// ORDER BY aggregate not in select list
	res = mustExec(t, db, `SELECT gluten FROM recipes GROUP BY gluten ORDER BY SUM(calories) DESC`)
	if res.Rows[0][0].StrVal() != "free" {
		t.Errorf("order by hidden agg = %v", res.Rows)
	}
}

func TestJoins(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE cuisines (rid INT, cuisine TEXT)`)
	mustExec(t, db, `INSERT INTO cuisines VALUES (1,'US'), (2,'IT'), (3,'US'), (4,'FR'), (99,'XX')`)

	// comma join with equi predicate (hash join path)
	res := mustExec(t, db, `
		SELECT r.name, c.cuisine FROM recipes r, cuisines c
		WHERE r.id = c.rid ORDER BY r.id`)
	if len(res.Rows) != 4 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].StrVal() != "Oatmeal" || res.Rows[0][1].StrVal() != "US" {
		t.Errorf("first join row = %v", res.Rows[0])
	}
	// JOIN ... ON syntax
	res2 := mustExec(t, db, `
		SELECT r.name, c.cuisine FROM recipes r JOIN cuisines c ON r.id = c.rid ORDER BY r.id`)
	if len(res2.Rows) != len(res.Rows) {
		t.Errorf("ON join rows = %d, want %d", len(res2.Rows), len(res.Rows))
	}
	// non-equi theta join (nested loop path)
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

func TestDerivedTable(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT g.gluten, g.total FROM
		(SELECT gluten, SUM(calories) AS total FROM recipes GROUP BY gluten) g
		WHERE g.total > 1400 ORDER BY g.total DESC`)
	if len(res.Rows) != 1 || res.Rows[0][0].StrVal() != "free" {
		t.Errorf("derived = %v", res.Rows)
	}
	if _, err := db.Exec(`SELECT * FROM (SELECT 1 FROM recipes)`); err == nil {
		t.Error("derived table without alias should fail")
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

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT DISTINCT gluten FROM recipes ORDER BY gluten`)
	if len(res.Rows) != 2 || res.Rows[0][0].StrVal() != "free" || res.Rows[1][0].StrVal() != "full" {
		t.Errorf("distinct = %v", res.Rows)
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

func TestIndexScanMatchesHeapScan(t *testing.T) {
	db := newTestDB(t)
	run := func(q string) []schema.Row {
		return mustExec(t, db, q).Rows
	}
	q := `SELECT name FROM recipes WHERE calories <= 400 ORDER BY id`
	before := run(q)
	mustExec(t, db, `CREATE INDEX ON recipes (calories)`)
	after := run(q)
	if len(before) != len(after) {
		t.Fatalf("index scan changed results: %d vs %d rows", len(before), len(after))
	}
	for i := range before {
		if before[i][0].StrVal() != after[i][0].StrVal() {
			t.Errorf("row %d: %v vs %v", i, before[i], after[i])
		}
	}
	// equality and lower-bound probes
	r := mustExec(t, db, `SELECT name FROM recipes WHERE calories = 800`)
	if len(r.Rows) != 1 || r.Rows[0][0].StrVal() != "Burger" {
		t.Errorf("eq probe = %v", r.Rows)
	}
	r = mustExec(t, db, `SELECT COUNT(*) FROM recipes WHERE calories > 400`)
	if !r.Rows[0][0].Equal(value.Int(4)) {
		t.Errorf("gt probe = %v", r.Rows[0][0])
	}
	// index maintained across insert and delete
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
	if err := db.CreateIndex("recipes", "calories"); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := db.CreateIndex("recipes", "nope"); err == nil {
		t.Error("index on unknown column should fail")
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
	res := mustExec(t, db, `SELECT name FROM fruit WHERE organic = TRUE AND price < 2 ORDER BY id`)
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
	res := mustExec(t, db, `SELECT name, calories FROM recipes WHERE id <= 2 ORDER BY id`)
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
		  AND r.id <> p.id
		ORDER BY p.id, r.id`)
	// p=5 (800): need r.calories <= 300: ids 1(300),3(150),7(200) -> 3 pairs
	// p=8 (650): need r.calories <= 150: id 3 -> 1 pair
	// p=2 (550): need r.calories <= 50: none
	if len(res.Rows) != 4 {
		t.Fatalf("replacement pairs = %d: %v", len(res.Rows), res.Rows)
	}
	first := res.Rows[0]
	if !first[0].Equal(value.Int(5)) || !first[1].Equal(value.Int(1)) {
		t.Errorf("first pair = %v", first)
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
	mustExec(t, db, `CREATE INDEX ON nums (a)`)
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

// Join results agree between hash-join (equi) and the nested-loop oracle
// expressed as a filtered cross product.
func TestJoinStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := New()
	mustExec(t, db, `CREATE TABLE l (k INT, v INT)`)
	mustExec(t, db, `CREATE TABLE r (k INT, w INT)`)
	var li, ri []string
	for i := 0; i < 80; i++ {
		li = append(li, fmt.Sprintf("(%d, %d)", rng.Intn(20), i))
		ri = append(ri, fmt.Sprintf("(%d, %d)", rng.Intn(20), i))
	}
	mustExec(t, db, "INSERT INTO l VALUES "+strings.Join(li, ","))
	mustExec(t, db, "INSERT INTO r VALUES "+strings.Join(ri, ","))
	// hash-join path
	hj := mustExec(t, db, `SELECT COUNT(*) FROM l, r WHERE l.k = r.k`)
	// force nested loop with an always-true non-equi wrapper
	nl := mustExec(t, db, `SELECT COUNT(*) FROM l, r WHERE l.k <= r.k AND l.k >= r.k`)
	if hj.Rows[0][0].IntVal() != nl.Rows[0][0].IntVal() {
		t.Errorf("hash join %v != nested loop %v", hj.Rows[0][0], nl.Rows[0][0])
	}
}
