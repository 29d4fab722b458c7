package paql_test

// The aggregate semantics of PaQL, written once. A global constraint is
// an SQL aggregate over the package, so what COUNT, SUM, AVG, MIN and MAX
// answer over an empty package, an emptied selection, an all-NULL
// argument or a repeated tuple is SQL's answer, and this file is where it
// is stated: the cells of semantics below. SQL's SELECT fn(col) and
// PaQL's fn(P.col) parse to the same node, expr.Agg, folded over its Term
// by the same accumulator, expr.AggState. Every evaluator is held to the
// cells — paql.EvalAgg, minidb's SELECT fn(col), paql.Satisfies and
// ObjectiveValue, search.BruteForce, and the four strategies through
// core — and README.md's table is rendered from them.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/value"
)

// The relation every cell is read over: x is the numeric argument (NULL
// in rows 3 and 4), s the non-numeric one, k what WHERE and filters pick
// rows by.
var semRows = []schema.Row{
	{value.Int(1), value.Float(10), value.Str("a"), value.Str("in")},
	{value.Int(2), value.Float(20), value.Str("b"), value.Str("in")},
	{value.Int(3), value.Null(), value.Str("c"), value.Str("nul")},
	{value.Int(4), value.Null(), value.Str("d"), value.Str("nul")},
}

var semSchema = schema.New(
	schema.Column{Name: "id", Type: schema.TInt},
	schema.Column{Name: "x", Type: schema.TFloat},
	schema.Column{Name: "s", Type: schema.TString},
	schema.Column{Name: "k", Type: schema.TString},
)

// situation is one column of the table: a package (row indexes, repeated
// per multiplicity) and the aggregate argument read over it. where and
// repeat make that package the only one of its size among the
// candidates, so a query can force it on a strategy.
type situation struct {
	name   string
	pkg    []int
	arg    string // PaQL argument, with its filter
	sqlArg string // the same for minidb: the column
	sqlSel string // and the filter, as a WHERE over the package's rows
	where  string
	repeat int
}

var situations = []situation{
	{name: "empty package", pkg: nil, arg: "P.x", sqlArg: "x", where: "T.id < 0"},
	{name: "selection filtered to empty", pkg: []int{0, 1}, arg: "P.x WHERE P.k = 'none'", sqlArg: "x", sqlSel: " WHERE k = 'none'", where: "T.k = 'in'"},
	{name: "all-NULL argument", pkg: []int{2, 3}, arg: "P.x", sqlArg: "x", where: "T.k = 'nul'"},
	{name: "multiplicity 2", pkg: []int{0, 0}, arg: "P.x", sqlArg: "x", where: "T.id = 1", repeat: 1},
	{name: "non-numeric argument", pkg: []int{0, 1}, arg: "P.s", sqlArg: "s", where: "T.k = 'in'"},
}

// verdict is what a cell says of the aggregate used in a comparison atom
// or as the objective.
type verdict string

const (
	holds       verdict = "holds"           // the atom is true; as objective: the package is an answer with this value
	fails       verdict = "fails"           // the atom is unknown, hence not true
	notAnAnswer verdict = "not an answer"   // a NULL objective disqualifies the package
	typeError   verdict = "rejected (type)" // paql.Analyze refuses the query, naming the atom
)

// cell is one decision of the table: aggregate fn in situations[sit].
type cell struct {
	fn, value string // value as rendered; "error" when evaluation itself is a type error
	cmp       string // the atom is fn(arg) cmp
	atom      verdict
	objective verdict
	rule      string // the SQL rule the cell follows
}

// semantics is the table: semantics[sit] lists the five aggregates under
// situations[sit]. The comparison is one the old linear reading (an empty
// SUM is 0) would have accepted, so a strategy that still reads it that
// way fails its cell.
var semantics = [][]cell{
	{ // empty package
		{"COUNT", "0", "<= 100", holds, holds, "COUNT of no rows is 0, never NULL"},
		{"SUM", "NULL", "<= 100", fails, notAnAnswer, "SUM of no rows is NULL; NULL <= 100 is unknown, and unknown is not true"},
		{"AVG", "NULL", "<= 100", fails, notAnAnswer, "AVG of no rows is NULL (0/0 is not 0)"},
		{"MIN", "NULL", "<= 100", fails, notAnAnswer, "MIN of no rows is NULL"},
		{"MAX", "NULL", "<= 100", fails, notAnAnswer, "MAX of no rows is NULL"},
	},
	{ // selection filtered to empty: the package has tuples, the aggregate sees none
		{"COUNT", "0", "<= 100", holds, holds, "a filter that rejects every tuple leaves COUNT 0"},
		{"SUM", "NULL", "<= 100", fails, notAnAnswer, "the filter runs first: SUM sees no rows and is NULL"},
		{"AVG", "NULL", "<= 100", fails, notAnAnswer, "as SUM"},
		{"MIN", "NULL", "<= 100", fails, notAnAnswer, "as SUM"},
		{"MAX", "NULL", "<= 100", fails, notAnAnswer, "as SUM"},
	},
	{ // all-NULL argument
		{"COUNT", "0", "<= 100", holds, holds, "COUNT(x) counts non-NULL x; only COUNT(*) counts rows"},
		{"SUM", "NULL", "<= 100", fails, notAnAnswer, "aggregates skip NULL inputs, so nothing is left to sum"},
		{"AVG", "NULL", "<= 100", fails, notAnAnswer, "NULL inputs enter neither the sum nor the count"},
		{"MIN", "NULL", "<= 100", fails, notAnAnswer, "as SUM"},
		{"MAX", "NULL", "<= 100", fails, notAnAnswer, "as SUM"},
	},
	{ // multiplicity 2: tuple 1 (x = 10) taken twice
		{"COUNT", "2", ">= 2", holds, holds, "a package is a bag: a repeated tuple counts once per copy"},
		{"SUM", "20", ">= 20", holds, holds, "and adds once per copy"},
		{"AVG", "10", ">= 10", holds, holds, "copies weigh the average like distinct tuples"},
		{"MIN", "10", ">= 10", holds, holds, "copies do not move an extreme"},
		{"MAX", "10", "<= 10", holds, holds, "copies do not move an extreme"},
	},
	{ // non-numeric argument
		{"COUNT", "2", "<= 100", holds, holds, "COUNT only asks whether the argument is NULL"},
		{"SUM", "error", "<= 100", typeError, typeError, "SUM needs numbers: a type error, not a 0"},
		{"AVG", "error", "<= 100", typeError, typeError, "as SUM"},
		{"MIN", "a", "<= 100", typeError, typeError, "SQL orders strings, so MIN has a value; PaQL compares aggregates with numbers and optimizes numbers, so using it is a type error"},
		{"MAX", "b", "<= 100", typeError, typeError, "as MIN"},
	},
}

func semDB(t *testing.T, name string, rows []schema.Row) *minidb.DB {
	t.Helper()
	db := minidb.New()
	if _, err := db.CreateTable(name, semSchema); err != nil {
		t.Fatal(err)
	}
	if len(rows) > 0 {
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestAggregateSemantics holds every evaluator to every cell.
func TestAggregateSemantics(t *testing.T) {
	db := semDB(t, "t", semRows)
	for si, sit := range situations {
		var pkg []schema.Row
		for _, i := range sit.pkg {
			pkg = append(pkg, semRows[i])
		}
		for _, c := range semantics[si] {
			t.Run(sit.name+"/"+c.fn, func(t *testing.T) {
				agg := fmt.Sprintf("%s(%s)", c.fn, sit.arg)
				head := fmt.Sprintf("SELECT PACKAGE(T) AS P FROM t T REPEAT %d WHERE %s SUCH THAT COUNT(*) = %d", sit.repeat, sit.where, len(sit.pkg))

				// The value: minidb's SELECT over the package's rows, and
				// EvalAgg over the same rows.
				sql := fmt.Sprintf("SELECT %s(%s) FROM pkg%s", c.fn, sit.sqlArg, sit.sqlSel)
				res, err := semDB(t, "pkg", pkg).Query(sql)
				switch {
				case c.value == "error":
					if err == nil {
						t.Errorf("minidb: %s = %v, want a type error", sql, res.Rows)
					}
				case err != nil:
					t.Errorf("minidb: %s: %v", sql, err)
				case len(res.Rows) != 1 || res.Rows[0][0].String() != c.value:
					t.Errorf("minidb: %s = %v, want %s", sql, res.Rows, c.value)
				}
				// EvalAgg over the same rows (bound through the COUNT of the
				// same argument, which Analyze admits over any type).
				a, err := analyzeSem(head + " AND COUNT(" + sit.arg + ") >= 0")
				if err != nil {
					t.Fatal(err)
				}
				bound := *a.Aggs[len(a.Aggs)-1]
				bound.Fn = c.fn
				if v, err := paql.EvalAgg(&bound, pkg); (err != nil) != (c.value == "error") || err == nil && v.String() != c.value {
					t.Errorf("EvalAgg(%s) = %v, %v; want %s", agg, v, err, c.value)
				}

				// The atom, then the objective: the oracle on the package
				// itself, then every strategy on a query that forces it.
				for _, use := range []struct {
					query string
					want  verdict
				}{
					{head + " AND " + agg + " " + c.cmp, c.atom},
					{head + " MAXIMIZE " + agg, c.objective},
				} {
					checkCell(t, db, use.query, pkg, use.want, c.value, agg)
				}
			})
		}
	}
}

// objectiveBounds is the table's consequence for the §4.1 cardinality
// bounds: an affine objective over a SUM is NULL for the empty package
// ("not an answer" above), so no answer is empty and the bounds say so,
// whatever SUCH THAT alone allows. COUNT is never NULL, and an objective
// that is not affine (AVG, MIN, MAX) is judged package by package.
var objectiveBounds = []struct {
	tail   string
	lo, hi int
}{
	{"SUCH THAT COUNT(*) <= 2", 0, 2},
	{"SUCH THAT COUNT(*) <= 2 MINIMIZE SUM(P.x)", 1, 2},
	{"SUCH THAT COUNT(*) <= 2 MINIMIZE SUM(P.x WHERE P.k = 'none')", 1, 2},
	{"SUCH THAT COUNT(*) <= 2 MINIMIZE COUNT(P.x) + 2 * SUM(P.x)", 1, 2},
	{"SUCH THAT COUNT(*) <= 2 MINIMIZE COUNT(P.x)", 0, 2},
	{"SUCH THAT COUNT(*) <= 2 MAXIMIZE AVG(P.x)", 0, 2},
	{"SUCH THAT COUNT(*) = 0 MINIMIZE SUM(P.x)", 1, 0}, // contradictory: no package
}

func TestObjectiveGuardReachesTheBounds(t *testing.T) {
	db := semDB(t, "t", semRows)
	for _, c := range objectiveBounds {
		prep, err := core.Prepare(db, "SELECT PACKAGE(T) AS P FROM t T "+c.tail)
		if err != nil {
			t.Fatalf("%s: %v", c.tail, err)
		}
		if b := prep.Instance.Bounds; b.Lo != c.lo || b.Hi != c.hi {
			t.Errorf("%s: bounds %s, want [%d, %d]", c.tail, b, c.lo, c.hi)
		}
	}
}

func analyzeSem(query string) (*paql.Analysis, error) {
	q, err := paql.Parse(query)
	if err != nil {
		return nil, err
	}
	return paql.Analyze(q, semSchema)
}

// checkCell runs one query of a cell through the oracle, the referee and
// the strategies. pkg is the package the query forces (the only one of
// its size among the candidates).
func checkCell(t *testing.T, db *minidb.DB, query string, pkg []schema.Row, want verdict, value, agg string) {
	t.Helper()
	a, err := analyzeSem(query)
	if want == typeError {
		if err == nil || !strings.Contains(err.Error(), agg[:strings.Index(agg, "(")]+"(T.") {
			t.Errorf("Analyze(%s) = %v, want a type error naming the atom", query, err)
		}
		if _, err := core.Prepare(db, query); err == nil {
			t.Errorf("core.Prepare(%s) accepted a type error", query)
		}
		return
	}
	if err != nil {
		t.Fatalf("Analyze(%s): %v", query, err)
	}
	// The oracle, on the package itself.
	ok, err := paql.Satisfies(a.Query.SuchThat, pkg)
	if err != nil {
		t.Fatalf("Satisfies(%s): %v", query, err)
	}
	if a.Query.Objective != nil {
		obj, err := paql.ObjectiveValue(a.Query.Objective, pkg)
		if ok = ok && err == nil; ok && fmt.Sprint(obj) != value {
			t.Errorf("ObjectiveValue(%s) = %v, want %s", query, obj, value)
		}
	}
	if ok != (want == holds) {
		t.Errorf("oracle on %s: answer=%v, cell says %s", query, ok, want)
	}
	// The referee and the strategies, on the query.
	prep, err := core.Prepare(db, query)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", query, err)
	}
	brute, err := search.BruteForce(prep.Instance, search.Options{})
	if err != nil {
		t.Fatalf("BruteForce(%s): %v", query, err)
	}
	if (len(brute.Packages) > 0) != (want == holds) {
		t.Errorf("BruteForce on %s: %d packages, cell says %s", query, len(brute.Packages), want)
	}
	for _, strat := range []core.Strategy{core.Solver, core.PrunedEnum, core.LocalSearchStrategy, core.SketchRefineStrategy} {
		res, err := prep.RunContext(context.Background(), core.Options{Strategy: strat})
		if err != nil && !errors.Is(err, lifecycle.ErrInfeasible) {
			t.Errorf("%s on %s: %v", strat, query, err)
			continue
		}
		for _, note := range res.Stats.Notes {
			if strings.Contains(note, "disagree") {
				t.Errorf("%s on %s: %s", strat, query, note)
			}
		}
		if (len(res.Packages) > 0) != (want == holds) {
			t.Errorf("%s (ran %s) on %s: %d packages, err %v; cell says %s", strat, res.Stats.Strategy, query, len(res.Packages), err, want)
			continue
		}
		if want != holds {
			continue
		}
		got := res.Packages[0]
		if len(got.Rows) != len(pkg) {
			t.Errorf("%s on %s: package of %d rows, want %d", strat, query, len(got.Rows), len(pkg))
		}
		if a.Query.Objective != nil && fmt.Sprint(got.Objective) != value {
			t.Errorf("%s on %s: objective %v, want %s", strat, query, got.Objective, value)
		}
		if v := got.AggValues[a.Aggs[len(a.Aggs)-1].String()]; v.String() != value {
			t.Errorf("%s on %s: AggValues[%s] = %s, want %s", strat, query, agg, v, value)
		}
		if res.Stats.Exact && math.Abs(got.Objective-brute.Packages[0].Obj) > 1e-9 {
			t.Errorf("%s on %s: exact objective %v, BruteForce %v", strat, query, got.Objective, brute.Packages[0].Obj)
		}
	}
}

// renderSemantics renders the table as README.md carries it.
func renderSemantics() string {
	var b strings.Builder
	b.WriteString("| aggregate | over | value | `fn(arg) ⋚ c` in SUCH THAT | as the objective | SQL's rule |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for si, sit := range situations {
		for _, c := range semantics[si] {
			fmt.Fprintf(&b, "| `%s(%s)` | %s | %s | `%s` %s | %s | %s |\n",
				c.fn, sit.arg, sit.name, c.value, c.cmp, c.atom, c.objective, c.rule)
		}
	}
	return b.String()
}

// TestReadmeCarriesTheSemanticsTable keeps the README's table the test's.
func TestReadmeCarriesTheSemanticsTable(t *testing.T) {
	table := renderSemantics()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), table) {
		t.Errorf("README.md does not carry the semantics table as rendered from this file; paste:\n%s", table)
	}
}
