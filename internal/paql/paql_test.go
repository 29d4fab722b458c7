package paql

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

const mealQuery = `
	SELECT PACKAGE(R) AS P
	FROM Recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND
	          SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func recipeSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "gluten", Type: schema.TString},
		schema.Column{Name: "calories", Type: schema.TFloat},
		schema.Column{Name: "protein", Type: schema.TFloat},
		schema.Column{Name: "kind", Type: schema.TString},
		schema.Column{Name: "price", Type: schema.TFloat},
	)
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	return q
}

func mustAnalyze(t *testing.T, src string) (*Query, *Analysis) {
	t.Helper()
	q := mustParse(t, src)
	a, err := Analyze(q, recipeSchema())
	if err != nil {
		t.Fatalf("Analyze: %v\n%s", err, src)
	}
	return q, a
}

func TestParseMealQuery(t *testing.T) {
	q := mustParse(t, mealQuery)
	if q.RelVar != "R" || q.PkgVar != "P" || q.Table != "Recipes" {
		t.Errorf("vars = %q %q %q", q.RelVar, q.PkgVar, q.Table)
	}
	if q.Repeat != 0 || q.MaxMultiplicity() != 1 {
		t.Errorf("repeat = %d, mult = %d", q.Repeat, q.MaxMultiplicity())
	}
	if q.Where == nil || q.SuchThat == nil || q.Objective == nil {
		t.Fatal("missing clauses")
	}
	if q.Objective.Sense != Maximize {
		t.Errorf("sense = %v", q.Objective.Sense)
	}
	aggs := expr.Aggregates(q.SuchThat)
	if len(aggs) != 2 {
		t.Fatalf("aggs = %v", aggs)
	}
	if aggs[0].String() != "COUNT(*)" {
		t.Errorf("agg0 = %s", aggs[0])
	}
	if !strings.Contains(aggs[1].String(), "SUM") {
		t.Errorf("agg1 = %s", aggs[1])
	}
}

func TestParseRepeatAndLimit(t *testing.T) {
	q := mustParse(t, `SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 2 SUCH THAT COUNT(*) = 4 LIMIT 5`)
	if q.Repeat != 2 || q.MaxMultiplicity() != 3 {
		t.Errorf("repeat = %d mult = %d", q.Repeat, q.MaxMultiplicity())
	}
	if q.Limit != 5 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseDefaults(t *testing.T) {
	q := mustParse(t, `SELECT PACKAGE(Recipes) FROM Recipes`)
	if q.PkgVar != "P" || q.RelVar != "Recipes" {
		t.Errorf("defaults: %q %q", q.PkgVar, q.RelVar)
	}
	if q.Where != nil || q.SuchThat != nil || q.Objective != nil || q.Limit != 0 {
		t.Error("clauses should default to nil")
	}
}

func TestParseFilteredAggregates(t *testing.T) {
	q := mustParse(t, `
		SELECT PACKAGE(V) AS P FROM Items V
		SUCH THAT SUM(P.price) <= 2000 AND
		          (MAX(P.price WHERE P.kind = 'hotel') <= 1 OR COUNT(* WHERE P.kind = 'car') >= 1)`)
	aggs := expr.Aggregates(q.SuchThat)
	if len(aggs) != 3 {
		t.Fatalf("aggs = %d", len(aggs))
	}
	if !strings.Contains(aggs[1].String(), "WHERE") {
		t.Errorf("filter lost: %s", aggs[1])
	}
}

func TestParseSubquery(t *testing.T) {
	q := mustParse(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT SUM(P.calories) <= (SELECT MAX(calories) FROM Recipes) * 3`)
	subs := Subqueries(q.SuchThat)
	if len(subs) != 1 {
		t.Fatalf("subqueries = %d", len(subs))
	}
	if subs[0].Text != "SELECT MAX(calories) FROM Recipes" {
		t.Errorf("sql = %q", subs[0].Text)
	}
}

// badQueries are texts Parse must refuse; FuzzParse seeds from them too.
var badQueries = []string{
	``,
	`SELECT * FROM Recipes`,
	`SELECT PACKAGE(R) FROM Recipes S`, // alias mismatch
	`SELECT PACKAGE(R) FROM Recipes`,   // missing alias
	`SELECT PACKAGE(R) AS P FROM Recipes R REPEAT -1`,
	`SELECT PACKAGE(R) AS P FROM Recipes R LIMIT 0`,
	`SELECT PACKAGE(R) AS P FROM Recipes R SUCH COUNT(*) = 1`,
	`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(*) > 1`,
	`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(*) = 1 trailing`,
	`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.cal <= 3`,
	`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT (SELECT MAX(x) FROM t`,
	`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= (SELECT FROM WHERE)`,
	`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(SUM(P.calories)) <= 3`,
}

func TestParseErrors(t *testing.T) {
	for _, src := range badQueries {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q := mustParse(t, mealQuery)
	text := q.String()
	q2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", text, err)
	}
	if q2.String() != text {
		t.Errorf("unstable rendering:\n%s\nvs\n%s", text, q2.String())
	}
}

func TestAnalyzeBindsAndNormalizes(t *testing.T) {
	q, a := mustAnalyze(t, mealQuery)
	if len(a.Aggs) != 3 { // COUNT(*), SUM(cal), SUM(protein)
		t.Errorf("aggs = %d", len(a.Aggs))
	}
	// The package-variable qualifier P.calories must now resolve against
	// the relation schema.
	row := schema.Row{value.Int(1), value.Str("free"), value.Float(700), value.Float(30), value.Str("x"), value.Float(1)}
	ok, err := expr.CompileWhere(q.Where)(row)
	if err != nil || !ok {
		t.Errorf("where eval = %v, %v", ok, err)
	}
	v, err := CompileGlobal(q.SuchThat).Eval([]schema.Row{row, row, row})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := v.Truthy(); !b { // 3 rows, 2100 cal
		t.Errorf("formula = %v for 3x700cal", v)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []string{
		// aggregate in WHERE
		`SELECT PACKAGE(R) AS P FROM Recipes R WHERE SUM(P.calories) > 3`,
		// unknown column
		`SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.nope = 1`,
		`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.nope) > 1`,
		// bare column in global constraint
		`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT P.calories > 100`,
		// unfolded subquery
		`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(*) = (SELECT MAX(id) FROM Recipes)`,
		// subquery in WHERE unsupported
		`SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.id = (SELECT MAX(id) FROM Recipes)`,
	}
	for _, src := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Analyze(q, recipeSchema()); err == nil {
			t.Errorf("Analyze(%q) should fail", src)
		}
	}
}

// globalClauses are SUCH THAT clauses of every shape the grammar takes —
// affine, AVG/MIN/MAX, disjunctive, filtered, non-linear; FuzzParse seeds
// from them. Which of them the MILP translation can encode is
// internal/translate's TestLinearityClassification.
var globalClauses = []string{
	`SUCH THAT COUNT(*) = 3`,
	`SUCH THAT SUM(P.calories) BETWEEN 100 AND 200`,
	`SUCH THAT 2 * SUM(P.calories) - COUNT(*) <= 100`,
	`SUCH THAT SUM(P.calories) / 2 <= 100`,
	`SUCH THAT AVG(P.calories) <= 500`,
	`SUCH THAT MIN(P.calories) >= 100 AND MAX(P.calories) <= 700`,
	`SUCH THAT COUNT(*) = 3 OR SUM(P.calories) >= 1000`,
	`SUCH THAT NOT (SUM(P.calories) > 2500)`,
	`SUCH THAT AVG(P.calories) BETWEEN 100 AND 500`,
	`SUCH THAT COUNT(* WHERE P.kind = 'car') >= 1`,
	`SUCH THAT -SUM(P.calories) >= -2500 AND 100 <= MAX(P.calories)`,
	`SUCH THAT SUM(P.calories) * (2 + 3) / (4 - 2) <= ABS(-100) + 1`,
	`SUCH THAT 500 >= AVG(P.calories) AND TRUE`,
	`SUCH THAT SUM(P.calories) BETWEEN COUNT(*) AND 100`,
	`SUCH THAT SUM(P.calories) * SUM(P.protein) <= 100`,
	`SUCH THAT SUM(P.calories) / COUNT(*) <= 100 AND SUM(P.protein) / SUM(P.calories) > 1`,
	`SUCH THAT AVG(P.calories) + SUM(P.protein) <= 100`,
	`SUCH THAT MIN(P.calories) = 100`,
	`SUCH THAT SUM(P.calories) <> 100`,
	`SUCH THAT AVG(P.calories) = 500`,
	`SUCH THAT ABS(SUM(P.calories)) <= 100`,
	`SUCH THAT -AVG(P.calories) <= 100 OR SUM(P.calories) / SUM(P.protein) <= 2`,
	`SUCH THAT MIN(P.calories) * 2 BETWEEN 1 AND 100`,
	`SUCH THAT SUM(P.calories)`,
}

func packageRows() []schema.Row {
	// id, gluten, calories, protein, kind, price
	return []schema.Row{
		{value.Int(1), value.Str("free"), value.Float(300), value.Float(10), value.Str("meal"), value.Float(5)},
		{value.Int(2), value.Str("free"), value.Float(500), value.Float(25), value.Str("meal"), value.Float(9)},
		{value.Int(3), value.Str("full"), value.Float(700), value.Float(40), value.Str("snack"), value.Float(3)},
	}
}

func TestEvalAgg(t *testing.T) {
	_, a := mustAnalyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) > 0 AND MIN(P.protein) > 0 AND
		          MAX(P.calories) > 0 AND AVG(P.price) > 0 AND COUNT(* WHERE P.kind = 'meal') > 0`)
	rows := packageRows()
	want := map[string]float64{
		"COUNT(*)":                         3,
		"SUM(R.calories)":                  1500,
		"MIN(R.protein)":                   10,
		"MAX(R.calories)":                  700,
		"AVG(R.price)":                     17.0 / 3,
		"COUNT(* WHERE (R.kind = 'meal'))": 2,
	}
	for _, agg := range a.Aggs {
		v, err := EvalAgg(agg, rows)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		expect, known := want[agg.String()]
		if !known {
			t.Fatalf("unexpected aggregate rendering %q", agg.String())
		}
		got, _ := v.AsFloat()
		if diff := got - expect; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s = %v, want %g", agg, v, expect)
		}
	}
}

func TestEvalAggEmptyPackage(t *testing.T) {
	_, a := mustAnalyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 0 AND SUM(P.calories) > 0 AND MIN(P.calories) > 0 AND AVG(P.calories) > 0`)
	var rows []schema.Row
	vals := map[string]func(value.V) bool{
		"COUNT(*)":        func(v value.V) bool { return v.Equal(value.Int(0)) },
		"SUM(R.calories)": func(v value.V) bool { return v.IsNull() },
		"MIN(R.calories)": func(v value.V) bool { return v.IsNull() },
		"AVG(R.calories)": func(v value.V) bool { return v.IsNull() },
	}
	for _, agg := range a.Aggs {
		v, err := EvalAgg(agg, rows)
		if err != nil {
			t.Fatal(err)
		}
		check, known := vals[agg.String()]
		if !known {
			t.Fatalf("unexpected agg %s", agg)
		}
		if !check(v) {
			t.Errorf("%s over empty = %v", agg, v)
		}
	}
}

func TestSatisfiesAndObjective(t *testing.T) {
	q, _ := mustAnalyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1000 AND 2000
		MAXIMIZE SUM(P.protein)`)
	rows := packageRows()
	ok, err := Satisfies(q.SuchThat, rows)
	if err != nil || !ok {
		t.Errorf("Satisfies = %v, %v", ok, err)
	}
	ok, err = Satisfies(q.SuchThat, rows[:2])
	if err != nil || ok {
		t.Errorf("2-row package should fail COUNT(*)=3: %v, %v", ok, err)
	}
	obj, err := ObjectiveValue(q.Objective, rows)
	if err != nil || obj != 75 {
		t.Errorf("objective = %v, %v", obj, err)
	}
	if !Better(q.Objective, 80, 75) || Better(q.Objective, 70, 75) {
		t.Error("Better(maximize) broken")
	}
	minObj := &Objective{Sense: Minimize, Expr: q.Objective.Expr}
	if !Better(minObj, 70, 75) || Better(minObj, 80, 75) {
		t.Error("Better(minimize) broken")
	}
	if Better(nil, 1, 0) {
		t.Error("nil objective should never improve")
	}
	if v, err := ObjectiveValue(nil, rows); err != nil || v != 0 {
		t.Error("nil objective should be 0")
	}
	// nil formula satisfied
	if ok, err := Satisfies(nil, rows); err != nil || !ok {
		t.Error("nil formula should be satisfied")
	}
}

func TestEvalGlobalArithmetic(t *testing.T) {
	q, _ := mustAnalyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT SUM(P.calories) - 100 * COUNT(*) = 1200`)
	rows := packageRows() // 1500 - 300 = 1200
	ok, err := Satisfies(q.SuchThat, rows)
	if err != nil || !ok {
		t.Errorf("arith formula = %v, %v", ok, err)
	}
}

func TestSubqueryCloneAndAggClone(t *testing.T) {
	q := mustParse(t, `SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT SUM(P.calories WHERE P.gluten = 'free') <= (SELECT MAX(calories) FROM Recipes)`)
	c := expr.Clone(q.SuchThat)
	if c.String() != q.SuchThat.String() {
		t.Errorf("clone mismatch:\n%s\n%s", c, q.SuchThat)
	}
	// mutating the clone must not affect the original
	expr.Walk(c, func(n expr.Expr) {
		if col, ok := n.(*expr.Col); ok {
			col.Table = "ZZZ"
		}
	})
	if strings.Contains(q.SuchThat.String(), "ZZZ") {
		t.Error("clone shares column nodes")
	}
}
