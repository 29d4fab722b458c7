package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/search"
	"repro/internal/value"
)

func testDB(t *testing.T) *minidb.DB {
	t.Helper()
	db := minidb.New()
	stmts := []string{
		`CREATE TABLE recipes (id INT, name TEXT, gluten TEXT, calories FLOAT, protein FLOAT, price FLOAT)`,
		`INSERT INTO recipes VALUES
			(1, 'Oatmeal',   'free', 300, 10, 4),
			(2, 'Pasta',     'full', 550, 18, 7),
			(3, 'Salad',     'free', 150, 4,  6),
			(4, 'Chicken',   'free', 420, 38, 11),
			(5, 'Burger',    'full', 800, 30, 9),
			(6, 'Tofu Bowl', 'free', 380, 22, 8),
			(7, 'Smoothie',  'free', 200, 6,  5),
			(8, 'Steak',     'free', 650, 45, 15),
			(9, 'Curry',     'free', 500, 21, 9),
			(10,'Wrap',      'free', 350, 15, 6)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const mealQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1200 AND 1600
	MAXIMIZE SUM(P.protein)`

func TestStrategiesAgreeOnOptimum(t *testing.T) {
	db := testDB(t)
	// Ground truth is the 2^n oracle, called directly.
	prep, err := Prepare(db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	brute, err := search.BruteForce(prep.Instance, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !brute.Complete || len(brute.Packages) != 1 {
		t.Fatalf("brute force: complete=%v, %d packages", brute.Complete, len(brute.Packages))
	}
	exact := brute.Packages[0].Obj
	for _, strat := range []Strategy{Solver, PrunedEnum} {
		res, err := Evaluate(db, mealQuery, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(res.Packages) != 1 {
			t.Fatalf("%v: %d packages", strat, len(res.Packages))
		}
		if !res.Stats.Exact {
			t.Errorf("%v should be exact", strat)
		}
		if math.Abs(res.Packages[0].Objective-exact) > 1e-6 {
			t.Errorf("%v objective %g != brute force %g", strat, res.Packages[0].Objective, exact)
		}
		if res.Stats.Strategy != strat {
			t.Errorf("stats.Strategy = %v, want %v", res.Stats.Strategy, strat)
		}
	}
	// Local search never beats exact.
	res, err := Evaluate(db, mealQuery, Options{Strategy: LocalSearchStrategy, Restarts: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) > 0 && res.Packages[0].Objective > exact+1e-9 {
		t.Errorf("local search %g beats exact %g", res.Packages[0].Objective, exact)
	}
	if res.Stats.SQLQueries == 0 {
		t.Error("local search stats missing SQL query count")
	}
}

// TestEnumValidatesRelaxedStrictAtoms: 761 + 366 calories is exactly
// 1127, so the closed row the enumerator prunes with admits a pair the
// strict comparison excludes. A relaxed atom set is not pure; the
// enumerator must validate in full and agree with the solver.
func TestEnumValidatesRelaxedStrictAtoms(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, atom := range []string{`SUM(P.calories) < 1127`, `NOT (SUM(P.calories) >= 1127)`} {
		q := `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND ` + atom + ` MAXIMIZE SUM(P.protein)`
		for _, strat := range []Strategy{Solver, PrunedEnum} {
			res, err := Evaluate(db, q, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%s under %v: %v", atom, strat, err)
			}
			if len(res.Packages) != 1 || res.Packages[0].Objective != 35 || !res.Stats.Exact {
				t.Errorf("%s under %v: objectives %v, exact=%v; want one package at 35",
					atom, strat, objectives(res), res.Stats.Exact)
			}
		}
	}
}

// TestEnumKeepsMultiplicitiesAboveNine: packages that differ only in a
// multiplicity above 9 are distinct. A clamped dedup key dropped the 10-
// and 11-copy packages as duplicates of the 9-copy one and certified 216
// where 264 is feasible.
func TestEnumKeepsMultiplicitiesAboveNine(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 6, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT PACKAGE(R) AS P FROM recipes R REPEAT 11 WHERE R.id = 2
		SUCH THAT COUNT(*) <= 11 MAXIMIZE SUM(P.protein)`
	for _, strat := range []Strategy{Solver, PrunedEnum} {
		res, err := Evaluate(db, q, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(res.Packages) != 1 || res.Packages[0].Objective != 264 || res.Packages[0].Size() != 11 {
			t.Fatalf("%v: objectives %v; want 11 copies at 264", strat, objectives(res))
		}
		if !res.Stats.Exact || !res.Stats.Certified || res.Stats.BoundValue != 264 {
			t.Errorf("%v: exact=%v certified=%v bound=%g; want a certificate at 264",
				strat, res.Stats.Exact, res.Stats.Certified, res.Stats.BoundValue)
		}
	}
	res, err := Evaluate(db, q, Options{Strategy: PrunedEnum, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 2 || res.Packages[0].Objective != 264 || res.Packages[1].Objective != 240 {
		t.Errorf("limit 2: objectives %v; want 264 (11 copies) then 240 (10 copies)", objectives(res))
	}
}

func objectives(res *Result) []float64 {
	var out []float64
	for _, p := range res.Packages {
		out = append(out, p.Objective)
	}
	return out
}

func TestAutoChoosesSolverForLinear(t *testing.T) {
	db := testDB(t)
	res, err := Evaluate(db, mealQuery, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != Solver {
		t.Errorf("auto chose %v, want solver", res.Stats.Strategy)
	}
	if !res.Stats.Plan.Mix.Linear {
		t.Error("meal query should be linear")
	}
	found := false
	for _, n := range res.Stats.Notes {
		if strings.Contains(n, "planner:") {
			found = true
		}
	}
	if !found {
		t.Errorf("auto decision not recorded: %v", res.Stats.Notes)
	}
}

func TestAutoFallsBackForNonlinear(t *testing.T) {
	db := testDB(t)
	q := `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) * SUM(P.protein) <= 50000
		MAXIMIZE SUM(P.protein)`
	res, err := Evaluate(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != PrunedEnum {
		t.Errorf("auto chose %v for small non-linear query, want pruned-enum", res.Stats.Strategy)
	}
	if res.Stats.Plan.Mix.Linear {
		t.Error("query should be non-linear")
	}
	if len(res.Packages) != 1 {
		t.Fatalf("packages = %d", len(res.Packages))
	}
	// validate the product constraint truly holds
	p := res.Packages[0]
	cal, _ := p.AggValues["SUM(R.calories)"].AsFloat()
	prot, _ := p.AggValues["SUM(R.protein)"].AsFloat()
	if cal*prot > 50000+1e-6 {
		t.Errorf("nonlinear constraint violated: %g * %g", cal, prot)
	}
}

// TestDisputedLinearityAnswersAlike: a comparison against a constant with
// no number in it has no linear form, and an aggregate BETWEEN bound is
// affine; the planner routes both by what Translate can encode, so Auto
// answers each as forced pruned enumeration does — same feasibility, same
// optimum — and plans BETWEEN as its two-comparison spelling.
func TestDisputedLinearityAnswersAlike(t *testing.T) {
	db := minidb.New()
	if _, err := db.Exec(`CREATE TABLE recipes (id INT, calories FLOAT, protein FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 18; i++ {
		stmt := fmt.Sprintf(`INSERT INTO recipes VALUES (%d, %d, %d)`, i, 150+(i*137)%700, 4+(i*11)%41)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	const head = `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 AND `
	cases := []struct {
		atom string
		auto Strategy
	}{
		{`SUM(P.calories) <= NULL`, PrunedEnum},
		{`SUM(P.calories) <= 'abc'`, PrunedEnum},
		{`SUM(P.calories) <= 1/0`, PrunedEnum},
		{`SUM(P.calories) BETWEEN 10 * SUM(P.protein) AND 1500`, Solver},
		{`(SUM(P.calories) >= 10 * SUM(P.protein) AND SUM(P.calories) <= 1500)`, Solver},
		{`SUM(P.protein) BETWEEN 15 * COUNT(*) AND 60`, Solver},
	}
	answer := func(q string, s Strategy) (*Result, bool, float64) {
		t.Helper()
		res, err := Evaluate(db, q, Options{Strategy: s})
		if errors.Is(err, lifecycle.ErrInfeasible) {
			return res, false, 0
		}
		if err != nil {
			t.Fatalf("%s under %v: %v", q, s, err)
		}
		if len(res.Packages) == 0 {
			return res, false, 0
		}
		return res, true, res.Packages[0].Objective
	}
	for _, c := range cases {
		q := head + c.atom + ` MAXIMIZE SUM(P.protein)`
		auto, autoOK, autoObj := answer(q, Auto)
		_, enumOK, enumObj := answer(q, PrunedEnum)
		if autoOK != enumOK || autoObj != enumObj {
			t.Errorf("%s: auto (feasible %v, objective %g) and pruned-enum (feasible %v, objective %g) disagree", c.atom, autoOK, autoObj, enumOK, enumObj)
		}
		if got := auto.Stats.Strategy; got != c.auto {
			t.Errorf("%s: auto ran %v, want %v", c.atom, got, c.auto)
		}
		if linear := c.auto == Solver; auto.Stats.Plan.Mix.Linear != linear {
			t.Errorf("%s: Stats.Plan.Mix.Linear = %v, want %v", c.atom, auto.Stats.Plan.Mix.Linear, linear)
		}
	}
}

func TestSolverRequestedForNonlinearFallsBack(t *testing.T) {
	db := testDB(t)
	q := `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) * SUM(P.protein) <= 50000`
	res, err := Evaluate(db, q, Options{Strategy: Solver})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy == Solver {
		t.Error("solver cannot run non-linear queries; engine should fall back")
	}
	noteOK := false
	for _, n := range res.Stats.Notes {
		if strings.Contains(n, "falling back") {
			noteOK = true
		}
	}
	if !noteOK {
		t.Errorf("fallback not explained: %v", res.Stats.Notes)
	}
}

func TestMultiplePackagesViaExclusionCuts(t *testing.T) {
	db := testDB(t)
	q := strings.Replace(mealQuery, "MAXIMIZE SUM(P.protein)", "MAXIMIZE SUM(P.protein)\nLIMIT 4", 1)
	res, err := Evaluate(db, q, Options{Strategy: Solver})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 4 {
		t.Fatalf("packages = %d, want 4", len(res.Packages))
	}
	seen := map[string]bool{}
	prev := math.Inf(1)
	for _, p := range res.Packages {
		key := ""
		for _, id := range p.TupleIDs() {
			key += string(rune('a' + id))
		}
		if seen[key] {
			t.Error("duplicate package across exclusion cuts")
		}
		seen[key] = true
		if p.Objective > prev+1e-9 {
			t.Error("packages should be non-increasing in objective")
		}
		prev = p.Objective
	}
}

func TestDiverseSelection(t *testing.T) {
	db := testDB(t)
	q := `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 900 AND 2000
		MAXIMIZE SUM(P.protein) LIMIT 3`
	topk, err := Evaluate(db, q, Options{Strategy: Solver})
	if err != nil {
		t.Fatal(err)
	}
	diverse, err := Evaluate(db, q, Options{Strategy: Solver, Diverse: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.Packages) != 3 || len(diverse.Packages) != 3 {
		t.Fatalf("sizes: %d, %d", len(topk.Packages), len(diverse.Packages))
	}
	dist := func(pkgs []*Package) float64 {
		var mults [][]int
		for _, p := range pkgs {
			mults = append(mults, p.Mult)
		}
		return MinPairwiseDistance(mults)
	}
	if dist(diverse.Packages) < dist(topk.Packages)-1e-9 {
		t.Errorf("diverse min-distance %g < top-k %g", dist(diverse.Packages), dist(topk.Packages))
	}
}

func TestSubqueryFolding(t *testing.T) {
	db := testDB(t)
	q := `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= (SELECT MAX(calories) FROM recipes)
		MAXIMIZE SUM(P.protein)`
	res, err := Evaluate(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 {
		t.Fatalf("packages = %d", len(res.Packages))
	}
	cal, _ := res.Packages[0].AggValues["SUM(R.calories)"].AsFloat()
	if cal > 800 {
		t.Errorf("folded bound violated: %g > 800", cal)
	}
	// failing subquery surfaces
	if _, err := Evaluate(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = (SELECT id FROM recipes)`, Options{}); err == nil {
		t.Error("multi-row subquery should fail")
	}
}

// TestPaQLSubqueriesFollowSQLsRule: a sub-query in SUCH THAT is held to
// the rule a sub-query inside SQL is — one column, at most one row, zero
// rows fold to NULL — and breaks it with the same error.
func TestPaQLSubqueriesFollowSQLsRule(t *testing.T) {
	db := testDB(t)
	for _, c := range []struct{ name, sub, err string }{
		{"two columns", "SELECT id, calories FROM recipes", "must return one column, got 2"},
		{"two rows", "SELECT calories FROM recipes WHERE id <= 2", "must return at most one row, got 2"},
		{"zero rows", "SELECT calories FROM recipes WHERE id = 999", ""},
	} {
		sqlRes, sqlErr := db.Query("SELECT (" + c.sub + ") FROM recipes WHERE id = 1")
		prep, paqlErr := Prepare(db, "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= ("+c.sub+")")
		if c.err != "" {
			if sqlErr == nil || paqlErr == nil {
				t.Fatalf("%s: SQL error %v, PaQL error %v; want both to fail", c.name, sqlErr, paqlErr)
			}
			if sqlErr.Error() != paqlErr.Error() || !strings.Contains(sqlErr.Error(), c.err) {
				t.Errorf("%s: SQL says %q, PaQL says %q; want the same error, containing %q", c.name, sqlErr, paqlErr, c.err)
			}
			continue
		}
		if sqlErr != nil || paqlErr != nil {
			t.Fatalf("%s: SQL error %v, PaQL error %v", c.name, sqlErr, paqlErr)
		}
		if !sqlRes.Rows[0][0].IsNull() || !strings.Contains(prep.Query.SuchThat.String(), "<= NULL") {
			t.Errorf("%s: SQL folded to %v, PaQL to %s; want NULL in both", c.name, sqlRes.Rows[0][0], prep.Query.SuchThat)
		}
	}
}

func TestInfeasibleQueryReturnsEmpty(t *testing.T) {
	db := testDB(t)
	q := `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND COUNT(*) = 5`
	res, err := Evaluate(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 0 || !res.Stats.Exact {
		t.Errorf("infeasible query: %d packages, exact=%v", len(res.Packages), res.Stats.Exact)
	}
	if !res.Stats.Bounds.IsInfeasible() {
		t.Errorf("bounds = %v", res.Stats.Bounds)
	}
}

func TestRepeatQueryThroughEngine(t *testing.T) {
	db := testDB(t)
	q := `
		SELECT PACKAGE(R) AS P FROM recipes R REPEAT 2
		WHERE R.gluten = 'free'
		SUCH THAT COUNT(*) = 3 AND SUM(P.protein) >= 130
		MAXIMIZE SUM(P.protein)`
	res, err := Evaluate(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 {
		t.Fatalf("packages = %d", len(res.Packages))
	}
	// optimum repeats Steak (45 protein) three times
	if res.Packages[0].Objective != 135 {
		t.Errorf("objective = %g, want 135 (3x Steak)", res.Packages[0].Objective)
	}
	maxMult := 0
	for _, m := range res.Packages[0].Mult {
		if m > maxMult {
			maxMult = m
		}
	}
	if maxMult != 3 {
		t.Errorf("max multiplicity = %d, want 3", maxMult)
	}
}

func TestBaseConstraintsFilterCandidates(t *testing.T) {
	db := testDB(t)
	res, err := Evaluate(db, mealQuery, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 8 { // 10 recipes, 2 with gluten
		t.Errorf("candidates = %d, want 8", res.Stats.Candidates)
	}
	for _, row := range res.Packages[0].Rows {
		if row[2].StrVal() != "free" {
			t.Errorf("package contains non-free tuple: %v", row)
		}
	}
}

func TestStatsSpaceAndAggValues(t *testing.T) {
	db := testDB(t)
	res, err := Evaluate(db, mealQuery, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpaceFull == nil || res.Stats.SpacePruned == nil {
		t.Fatal("space sizes not computed")
	}
	if res.Stats.SpaceFull.Cmp(res.Stats.SpacePruned) <= 0 {
		t.Errorf("full space %v should exceed pruned %v", res.Stats.SpaceFull, res.Stats.SpacePruned)
	}
	p := res.Packages[0]
	if v, ok := p.AggValues["COUNT(*)"]; !ok || !v.Equal(value.Int(3)) {
		t.Errorf("COUNT(*) agg = %v", v)
	}
	if p.Size() != 3 || len(p.Rows) != 3 || len(p.TupleIDs()) != 3 {
		t.Errorf("package shape: size=%d rows=%d ids=%d", p.Size(), len(p.Rows), len(p.TupleIDs()))
	}
}

func TestErrorPaths(t *testing.T) {
	db := testDB(t)
	if _, err := Evaluate(db, `SELECT PACKAGE(R) AS P FROM nope R`, Options{}); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := Evaluate(db, `garbage`, Options{}); err == nil {
		t.Error("parse error should surface")
	}
	if _, err := Evaluate(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT SUM(P.nope) <= 3`, Options{}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestDiverseSelectHelpers(t *testing.T) {
	a := []int{1, 1, 0, 0}
	b := []int{1, 1, 0, 0}
	c := []int{0, 0, 1, 1}
	d := []int{1, 0, 1, 0}
	if JaccardDistance(a, b) != 0 {
		t.Error("identical packages should have distance 0")
	}
	if JaccardDistance(a, c) != 1 {
		t.Error("disjoint packages should have distance 1")
	}
	got := JaccardDistance(a, d) // inter 1, union 3
	if math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("distance = %g", got)
	}
	sel := DiverseSelect([][]int{a, b, c, d}, 2)
	if len(sel) != 2 {
		t.Fatalf("selected %d", len(sel))
	}
	// first is a; most distant from a is c
	if JaccardDistance(sel[0], sel[1]) != 1 {
		t.Errorf("diverse pick suboptimal: %v", sel)
	}
	// k >= len passes through
	if len(DiverseSelect([][]int{a, c}, 5)) != 2 {
		t.Error("overlarge k should pass through")
	}
	// multiplicity-aware distance
	if d := JaccardDistance([]int{2, 0}, []int{1, 1}); math.Abs(d-2.0/3) > 1e-9 {
		t.Errorf("multiset distance = %g", d)
	}
	if MinPairwiseDistance([][]int{a}) != 1 {
		t.Error("single package min distance should be 1")
	}
	if MeanPairwiseDistance([][]int{a, b, c}) == 0 {
		t.Error("mean distance should be positive")
	}
}

// TestSolverMatchesPrunedEnumeration: branch-and-bound and exact
// enumeration, two exact strategies that share no search code, reach the
// same optimum.
func TestSolverMatchesPrunedEnumeration(t *testing.T) {
	db := testDB(t)
	solved, err := Evaluate(db, mealQuery, Options{Strategy: Solver})
	if err != nil {
		t.Fatal(err)
	}
	enum, err := Evaluate(db, mealQuery, Options{Strategy: PrunedEnum})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(solved.Packages[0].Objective-enum.Packages[0].Objective) > 1e-9 {
		t.Errorf("solver optimum %g != pruned enumeration's %g",
			solved.Packages[0].Objective, enum.Packages[0].Objective)
	}
}

// TestExactEvaluationIssuesNoSQL: the exact strategy hands its MILP to
// branch-and-bound and nothing else. It runs no SQL against the user's
// database and leaves no table behind: scratch tables belong to the
// local-search strategy alone.
func TestExactEvaluationIssuesNoSQL(t *testing.T) {
	db := testDB(t)
	for _, q := range []string{mealQuery, mealQuery + " LIMIT 3"} {
		res, err := Evaluate(db, q, Options{Strategy: Solver})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Packages) == 0 || !res.Stats.Exact {
			t.Fatalf("%d packages, exact=%v", len(res.Packages), res.Stats.Exact)
		}
		if res.Stats.SQLQueries != 0 {
			t.Errorf("exact evaluation issued %d SQL queries", res.Stats.SQLQueries)
		}
		for _, n := range res.Stats.Notes {
			if strings.Contains(n, "warm-start") || strings.Contains(n, "local-search") {
				t.Errorf("exact evaluation ran a local search: %q", n)
			}
		}
	}
	if names := db.TableNames(); len(names) != 1 {
		t.Errorf("tables after exact evaluation: %v", names)
	}
}

// TestSolverBudgetOneRoundingOver is the cent-price regression: on these
// rows the best eight-recipe packages cost exactly 50.00 (49.00 in the
// second query) on paper, and some of them sum to 50.000000000000007 in
// floating point. The exact solver took such a relaxation optimum as its
// incumbent (integral and row-feasible within 1e-6), and the final
// validator, which compares the sum exactly, then failed the query with
// "strategy returned an invalid package". Such a point must never be an
// incumbent: the answer is a package that passes the validator.
func TestSolverBudgetOneRoundingOver(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 14000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cuisine, mealtype string
		budget            float64
	}{{"mexican", "snack", 50}, {"american", "lunch", 49}} {
		q := fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R
			WHERE R.gluten = 'free' AND R.cuisine = '%s' AND R.mealtype = '%s'
			SUCH THAT COUNT(*) BETWEEN 4 AND 8 AND SUM(P.price) <= %g AND SUM(P.fat) <= 120
			MAXIMIZE SUM(P.rating)`, c.cuisine, c.mealtype, c.budget)
		res, err := Evaluate(db, q, Options{Strategy: Solver})
		if err != nil {
			t.Fatalf("%s %s: %v", c.cuisine, c.mealtype, err)
		}
		if len(res.Packages) != 1 || !res.Stats.Exact {
			t.Fatalf("%s %s: %d packages, exact=%v; want one proven-optimal package",
				c.cuisine, c.mealtype, len(res.Packages), res.Stats.Exact)
		}
		spent, _ := res.Packages[0].AggValues["SUM(P.price)"].AsFloat()
		if spent > c.budget {
			t.Errorf("%s %s: package spends %.17g of a %g budget", c.cuisine, c.mealtype, spent, c.budget)
		}
	}
}
