package translate

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/milp"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/value"
)

func relSchema() schema.Schema {
	return schema.New(
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "calories", Type: schema.TFloat},
		schema.Column{Name: "protein", Type: schema.TFloat},
		schema.Column{Name: "kind", Type: schema.TString},
		schema.Column{Name: "price", Type: schema.TFloat},
	)
}

func mkRow(id int, cal, prot float64, kind string, price float64) schema.Row {
	return schema.Row{value.Int(int64(id)), value.Float(cal), value.Float(prot), value.Str(kind), value.Float(price)}
}

func analyze(t *testing.T, src string) *paql.Analysis {
	t.Helper()
	q, err := paql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := paql.Analyze(q, relSchema())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// bruteBest enumerates every multiplicity vector up to maxMult and
// returns the best objective among the answers: packages that satisfy
// SUCH THAT and whose objective is not NULL.
func bruteBest(t *testing.T, q *paql.Query, rows []schema.Row) (float64, bool) {
	t.Helper()
	maxMult := q.MaxMultiplicity()
	if maxMult == 0 {
		t.Fatal("bruteBest requires bounded multiplicity")
	}
	n := len(rows)
	mult := make([]int, n)
	best := 0.0
	found := false
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var pkg []schema.Row
			for j, m := range mult {
				for k := 0; k < m; k++ {
					pkg = append(pkg, rows[j])
				}
			}
			ok, err := paql.Satisfies(q.SuchThat, pkg)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			obj := 0.0
			if q.Objective != nil {
				v, err := paql.EvalGlobal(q.Objective.Expr, pkg)
				if err != nil {
					t.Fatal(err)
				}
				if v.IsNull() {
					return
				}
				obj, _ = v.AsFloat()
			}
			if !found || paql.Better(q.Objective, obj, best) {
				best = obj
				found = true
			}
			return
		}
		for m := 0; m <= maxMult; m++ {
			mult[i] = m
			rec(i + 1)
		}
		mult[i] = 0
	}
	rec(0)
	return best, found
}

func solveModel(t *testing.T, a *paql.Analysis, rows []schema.Row) *Result {
	t.Helper()
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	m, err := Translate(a, rows, ids)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return res
}

// verify decodes and re-checks the package against the query semantics.
func verify(t *testing.T, a *paql.Analysis, rows []schema.Row, res *Result) []schema.Row {
	t.Helper()
	var pkg []schema.Row
	for i, m := range res.Multiplicities {
		for k := 0; k < m; k++ {
			pkg = append(pkg, rows[i])
		}
	}
	ok, err := paql.Satisfies(a.Query.SuchThat, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("solver package does not satisfy SUCH THAT: mult=%v", res.Multiplicities)
	}
	return pkg
}

func testRows() []schema.Row {
	return []schema.Row{
		mkRow(1, 300, 10, "meal", 5),
		mkRow(2, 550, 18, "meal", 9),
		mkRow(3, 150, 4, "snack", 3),
		mkRow(4, 420, 38, "meal", 11),
		mkRow(5, 800, 30, "meal", 14),
		mkRow(6, 380, 22, "snack", 6),
		mkRow(7, 200, 6, "snack", 2),
		mkRow(8, 650, 45, "meal", 13),
	}
}

func TestMealQueryMatchesBruteForce(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`)
	rows := testRows()
	want, feasible := bruteBest(t, a.Query, rows)
	if !feasible {
		t.Fatal("test instance should be feasible")
	}
	res := solveModel(t, a, rows)
	if res.Solution.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	verify(t, a, rows, res)
	if math.Abs(res.Solution.Objective-want) > 1e-6 {
		t.Errorf("objective = %g, want %g", res.Solution.Objective, want)
	}
}

func TestRepeatAllowsMultiplicity(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 2
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) >= 2300
		MAXIMIZE SUM(P.protein)`)
	rows := testRows()[:4] // calories 300,550,150,420: only repetition reaches 2300? 3*550=1650 no...
	// With REPEAT 2 (mult<=3): max sum = 3*550 = 1650 < 2300: infeasible.
	res := solveModel(t, a, rows)
	if res.Solution.Status != milp.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Solution.Status)
	}
	// Achievable with repetition: >= 1500 needs e.g. 550*3.
	a2 := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 2
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) >= 1500
		MAXIMIZE SUM(P.protein)`)
	want, feasible := bruteBest(t, a2.Query, rows)
	if !feasible {
		t.Fatal("repeat instance should be feasible")
	}
	res2 := solveModel(t, a2, rows)
	if res2.Solution.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res2.Solution.Status)
	}
	if math.Abs(res2.Solution.Objective-want) > 1e-6 {
		t.Errorf("objective = %g, want %g", res2.Solution.Objective, want)
	}
	// must actually use multiplicity > 1
	hasRepeat := false
	for _, m := range res2.Multiplicities {
		if m > 1 {
			hasRepeat = true
		}
	}
	if !hasRepeat {
		t.Log("note: optimum did not need repetition (still correct)")
	}
}

func TestDisjunctionMatchesBruteForce(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT (COUNT(*) = 2 AND SUM(P.calories) <= 600) OR
		          (COUNT(*) = 3 AND SUM(P.calories) >= 1800)
		MAXIMIZE SUM(P.protein)`)
	rows := testRows()
	want, feasible := bruteBest(t, a.Query, rows)
	res := solveModel(t, a, rows)
	if !feasible {
		if res.Solution.Status != milp.StatusInfeasible {
			t.Fatalf("want infeasible, got %v", res.Solution.Status)
		}
		return
	}
	if res.Solution.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	verify(t, a, rows, res)
	if math.Abs(res.Solution.Objective-want) > 1e-6 {
		t.Errorf("objective = %g, want %g", res.Solution.Objective, want)
	}
}

func TestVacationStyleFilteredDisjunction(t *testing.T) {
	// Items: flights, hotels, cars. Budget, and "close hotel OR a car".
	rows := []schema.Row{
		mkRow(1, 0, 0, "flight", 600),
		mkRow(2, 0, 0, "flight", 450),
		mkRow(3, 2.5, 0, "hotel", 700), // calories column reused as distance
		mkRow(4, 0.4, 0, "hotel", 950),
		mkRow(5, 0, 0, "car", 300),
	}
	a := analyze(t, `
		SELECT PACKAGE(V) AS P FROM Items V
		SUCH THAT SUM(P.price) <= 2000
		      AND COUNT(* WHERE P.kind = 'flight') = 1
		      AND COUNT(* WHERE P.kind = 'hotel') = 1
		      AND (MAX(P.calories WHERE P.kind = 'hotel') <= 1.0 OR COUNT(* WHERE P.kind = 'car') >= 1)
		MINIMIZE SUM(P.price)`)
	want, feasible := bruteBest(t, a.Query, rows)
	if !feasible {
		t.Fatal("vacation instance should be feasible")
	}
	res := solveModel(t, a, rows)
	if res.Solution.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	verify(t, a, rows, res)
	if math.Abs(res.Solution.Objective-want) > 1e-6 {
		t.Errorf("objective = %g, want %g", res.Solution.Objective, want)
	}
	// cheapest: flight 450 + far hotel? hotel 700 is far (2.5) -> needs car
	// (450+700+300=1450) vs close hotel 950 (450+950=1400). Want 1400.
	if math.Abs(want-1400) > 1e-9 {
		t.Errorf("oracle sanity: want 1400, got %g", want)
	}
}

func TestMinMaxConstraints(t *testing.T) {
	cases := []string{
		`SUCH THAT COUNT(*) = 2 AND MIN(P.calories) >= 300 MAXIMIZE SUM(P.protein)`,
		`SUCH THAT COUNT(*) = 2 AND MIN(P.calories) <= 200 MAXIMIZE SUM(P.protein)`,
		`SUCH THAT COUNT(*) = 2 AND MAX(P.calories) <= 500 MAXIMIZE SUM(P.protein)`,
		`SUCH THAT COUNT(*) = 2 AND MAX(P.calories) >= 700 MAXIMIZE SUM(P.protein)`,
		`SUCH THAT COUNT(*) = 3 AND MIN(P.calories) > 150 AND MAX(P.calories) < 700 MAXIMIZE SUM(P.protein)`,
	}
	rows := testRows()
	for _, clause := range cases {
		a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R `+clause)
		want, feasible := bruteBest(t, a.Query, rows)
		res := solveModel(t, a, rows)
		if !feasible {
			if res.Solution.Status != milp.StatusInfeasible {
				t.Errorf("%q: want infeasible, got %v", clause, res.Solution.Status)
			}
			continue
		}
		if res.Solution.Status != milp.StatusOptimal {
			t.Fatalf("%q: status %v", clause, res.Solution.Status)
		}
		verify(t, a, rows, res)
		if math.Abs(res.Solution.Objective-want) > 1e-6 {
			t.Errorf("%q: objective %g, want %g", clause, res.Solution.Objective, want)
		}
	}
}

func TestAvgConstraint(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND AVG(P.calories) <= 400
		MAXIMIZE SUM(P.protein)`)
	rows := testRows()
	want, feasible := bruteBest(t, a.Query, rows)
	if !feasible {
		t.Fatal("avg instance should be feasible")
	}
	res := solveModel(t, a, rows)
	if res.Solution.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	verify(t, a, rows, res)
	if math.Abs(res.Solution.Objective-want) > 1e-6 {
		t.Errorf("objective = %g, want %g", res.Solution.Objective, want)
	}
}

func TestAvgGuardsEmptyPackage(t *testing.T) {
	// AVG <= 1000 alone: empty package must NOT satisfy (AVG is NULL),
	// so the minimal solution has one tuple.
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT AVG(P.calories) <= 1000
		MINIMIZE COUNT(*)`)
	rows := testRows()
	res := solveModel(t, a, rows)
	if res.Solution.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	total := 0
	for _, m := range res.Multiplicities {
		total += m
	}
	if total != 1 {
		t.Errorf("minimal AVG package size = %d, want 1 (empty is invalid)", total)
	}
}

func TestExclusionCuts(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 1000
		MAXIMIZE SUM(P.protein)`)
	rows := testRows()
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	m, err := Translate(a, rows, ids)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	prevObj := math.Inf(1)
	for k := 0; k < 4; k++ {
		res, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Solution.Status != milp.StatusOptimal {
			break
		}
		key := ""
		for _, mm := range res.Multiplicities {
			key += string(rune('0' + mm))
		}
		if seen[key] {
			t.Fatalf("exclusion cut failed: package %s repeated", key)
		}
		seen[key] = true
		if res.Solution.Objective > prevObj+1e-9 {
			t.Errorf("objective increased across cuts: %g after %g", res.Solution.Objective, prevObj)
		}
		prevObj = res.Solution.Objective
		if err := m.AddExclusionCut(res.Multiplicities); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) < 3 {
		t.Errorf("expected at least 3 distinct packages, got %d", len(seen))
	}
}

func TestTranslateErrors(t *testing.T) {
	rows := testRows()
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// nonlinear rejected
	a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT SUM(P.calories) * SUM(P.protein) <= 10`)
	if _, err := Translate(a, rows, ids); err == nil {
		t.Error("nonlinear query should fail to translate")
	}
	// id/candidate mismatch
	a = analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(*) = 1`)
	if _, err := Translate(a, rows, ids[:2]); err == nil {
		t.Error("mismatched ids should fail")
	}
	// exclusion cut with REPEAT
	a = analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 1 SUCH THAT COUNT(*) = 2`)
	m, err := Translate(a, rows, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddExclusionCut(make([]int, len(rows))); err == nil {
		t.Error("exclusion cut with REPEAT should fail")
	}
}

func TestFeasibilityOnlyQuery(t *testing.T) {
	// No objective: any satisfying package will do.
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 4 AND SUM(P.price) <= 30`)
	rows := testRows()
	res := solveModel(t, a, rows)
	if res.Solution.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	verify(t, a, rows, res)
}

// Property: random linear queries over random data agree with brute
// force. %L/%H/%S are multiples of 100 like the calories they bound, so
// strict comparisons and MIN/MAX thresholds land on attained values. The
// last seven templates are the NULL cells: a SUM with no COUNT beside it
// (the empty package passed the old linear rows), a SUM filtered to
// nothing, objectives over a filtered selection, REPEAT under a filtered
// guard, and disjunctions one branch of which is NULL on the empty
// package (with an objective that is and one that is not).
func TestPropTranslateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	const head = `SELECT PACKAGE(R) AS P FROM Recipes R `
	templates := []struct {
		src     string
		maxRows int // 0 = the default 4..8 rows
	}{
		{src: head + `SUCH THAT COUNT(*) = %K AND SUM(P.calories) <= %B MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT SUM(P.calories) BETWEEN %A AND %B MINIMIZE SUM(P.price)`},
		{src: head + `SUCH THAT COUNT(*) <= %K AND SUM(P.calories) >= %A MAXIMIZE SUM(P.protein) - SUM(P.price)`},
		{src: head + `SUCH THAT COUNT(*) = %K OR SUM(P.calories) <= %A MAXIMIZE SUM(P.calories)`},
		{src: head + `REPEAT 1 SUCH THAT COUNT(*) = %K AND SUM(P.calories) <= %B MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) = %K AND AVG(P.calories) < %H MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) <= %K AND AVG(P.calories) >= %H MINIMIZE SUM(P.price)`},
		{src: head + `SUCH THAT COUNT(*) = %K AND MIN(P.calories) >= %L AND MAX(P.calories) <= %H MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) BETWEEN 2 AND 3 AND MIN(P.calories) <= %L AND MAX(P.calories) >= %H MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) <= %K AND SUM(P.calories) > %L AND SUM(P.calories) < %S MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) >= 1 AND NOT (COUNT(*) > %K OR SUM(P.calories) >= %S) MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) = %K AND COUNT(* WHERE P.kind = 'meal') >= 1 AND SUM(P.calories WHERE P.kind = 'meal') <= %S MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) = %K AND %H > AVG(P.calories) AND %L <= MIN(P.calories) MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT (COUNT(*) = %K AND (SUM(P.calories) <= %A OR SUM(P.calories) >= %B)) OR COUNT(*) = 1 MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) <= %K AND 2 * SUM(P.protein) - SUM(P.price) / 2 >= 20 AND -SUM(P.calories) >= -%B MINIMIZE SUM(P.price)`},
		{src: head + `REPEAT 10 SUCH THAT COUNT(*) BETWEEN 1 AND 11 AND SUM(P.calories) <= %B MAXIMIZE SUM(P.protein)`, maxRows: 3},
		{src: head + `SUCH THAT SUM(P.calories) <= %B MINIMIZE SUM(P.price)`},
		{src: head + `SUCH THAT COUNT(*) <= %K AND SUM(P.calories WHERE P.kind = 'none') <= %B MAXIMIZE SUM(P.protein)`},
		{src: head + `SUCH THAT COUNT(*) <= %K MINIMIZE SUM(P.price WHERE P.kind = 'meal')`},
		{src: head + `SUCH THAT COUNT(*) <= %K AND SUM(P.calories) <= %B MAXIMIZE SUM(P.protein WHERE P.kind = 'snack') - COUNT(*)`},
		{src: head + `REPEAT 2 SUCH THAT COUNT(*) BETWEEN 1 AND 4 AND SUM(P.calories WHERE P.kind = 'snack') <= %B MINIMIZE SUM(P.price)`, maxRows: 3},
		{src: head + `SUCH THAT (SUM(P.calories) <= %A OR COUNT(*) = 0) AND COUNT(*) <= %K MINIMIZE COUNT(*)`},
		{src: head + `SUCH THAT (SUM(P.calories) <= %A OR COUNT(*) = 0) AND COUNT(*) <= %K MINIMIZE SUM(P.price)`},
	}
	for trial := 0; trial < 6*len(templates); trial++ {
		tpl := templates[trial%len(templates)]
		n := 4 + rng.Intn(5)
		if tpl.maxRows > 0 {
			n = 1 + rng.Intn(tpl.maxRows)
		}
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = mkRow(i, float64(100+rng.Intn(9)*100), float64(rng.Intn(50)),
				[]string{"meal", "snack"}[rng.Intn(2)], float64(1+rng.Intn(20)))
		}
		src := tpl.src
		src = replaceAll(src, "%K", itoa(1+rng.Intn(3)))
		src = replaceAll(src, "%A", itoa(300+rng.Intn(800)))
		src = replaceAll(src, "%B", itoa(1200+rng.Intn(1500)))
		src = replaceAll(src, "%L", itoa(100*(2+rng.Intn(4))))
		src = replaceAll(src, "%H", itoa(100*(5+rng.Intn(5))))
		src = replaceAll(src, "%S", itoa(100*(5+rng.Intn(12))))
		a := analyze(t, src)
		want, feasible := bruteBest(t, a.Query, rows)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		m, err := Translate(a, rows, ids)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, src, err)
		}
		res, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !feasible {
			if res.Solution.Status != milp.StatusInfeasible {
				t.Fatalf("trial %d (%s): want infeasible, got %v (obj %g)",
					trial, src, res.Solution.Status, res.Solution.Objective)
			}
			continue
		}
		if res.Solution.Status != milp.StatusOptimal {
			t.Fatalf("trial %d (%s): status %v", trial, src, res.Solution.Status)
		}
		if math.Abs(res.Solution.Objective-want) > 1e-5 {
			t.Fatalf("trial %d (%s): milp %g, brute %g", trial, src, res.Solution.Objective, want)
		}
	}
}

// TestTranslateRowsAreTheCompiledAtoms pins the one lowering and the one
// conjunction assembly: restricted to the tuple variables (indicator
// linking undone), the constraint rows of Translate's LP are, in order,
// the rows weighConjunction keeps of the unconditional atoms plus the
// objective's guards, then every row of every atom under a disjunction
// (guards kept: nothing outside an indicator stands in for them) — the
// benchmark's T0–T4 shapes and one disjunction. A second encoder cannot
// come back unseen.
//
// It also pins what the guards cost the benchmark's models: nothing.
// COUNT(*) = k over NULL-free columns implies every guard, so T0, T3 and
// T4 keep exactly the rows they had before SUM comparisons and the
// objective brought guards (no guard row survives), T1 loses the AVG
// guard it used to carry and T2 its MIN and MAX guards — lostGuards names
// them.
func TestTranslateRowsAreTheCompiledAtoms(t *testing.T) {
	rows := testRows()
	n := len(rows)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	cases := []struct {
		name, suchThat string
		rows           int      // constraint rows of the model
		lostGuards     []string // AVG/MIN/MAX guards the conjunction drops
	}{
		{"T0", `COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1200 AND 1700`, 4, nil},
		{"T1", `COUNT(*) = 5 AND AVG(P.calories) <= 450`, 3, []string{"(AVG(R.calories) <= 450) [non-empty guard]"}},
		{"T2", `COUNT(*) = 5 AND MIN(P.protein) >= 5 AND MAX(P.calories) <= 700 AND SUM(P.calories) BETWEEN 1500 AND 2500`, 6,
			[]string{"(MIN(R.protein) >= 5) [non-empty guard]", "(MAX(R.calories) <= 700) [non-empty guard]"}},
		{"T3", `COUNT(*) BETWEEN 4 AND 8 AND SUM(P.price) <= 60.005 AND SUM(P.calories) <= 3200`, 4, nil},
		{"T4", `COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1200 AND 1700 AND SUM(P.price) BETWEEN 20 AND 200`, 6, nil},
		{"disjunction", `COUNT(*) = 2 AND (AVG(P.calories) < 500 OR MAX(P.protein) <= 30 AND SUM(P.price) > 9)`, 8, nil},
	}
	for _, tc := range cases {
		a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT `+tc.suchThat+` MAXIMIZE SUM(P.protein)`)
		m, err := Translate(a, rows, ids)
		if err != nil {
			t.Fatalf("%s: translate: %v", tc.name, err)
		}
		var got []*LinearAtom
		for i := 0; i < m.MILP.LP.NumRows(); i++ {
			r := m.MILP.LP.Row(i)
			at := &LinearAtom{W: make([]float64, n), Op: r.Op, RHS: r.RHS}
			tuples := 0
			for _, c := range r.Coefs {
				if c.Var < n {
					at.W[c.Var] = c.Val
					tuples++
				} else {
					at.RHS -= c.Val // addRow linked the row as rhs ± M with ±M on the indicator
				}
			}
			if tuples > 0 { // the rest is OR plumbing over indicators only
				got = append(got, at)
			}
		}
		branches, _, err := CompileSketch(a, 0)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		// The DNF repeats the conjuncts before the OR in every branch and
		// closes each branch with the objective's guards; the MILP walks
		// the formula once: the shared conjuncts and the objective's
		// guards as one conjunction, then each branch's own atoms whole.
		shared := len(branches[0].Atoms)
		for _, br := range branches[1:] {
			k := 0
			for k < shared && k < len(br.Atoms) && br.Atoms[k].Source() == branches[0].Atoms[k].Source() {
				k++
			}
			shared = k
		}
		_, objGuards, err := compileObjective(a, newSelections(nil))
		if err != nil {
			t.Fatal(err)
		}
		conj := conjoin(conjoin(nil, branches[0].Atoms[:shared]), objGuards)
		kept, wantRows, err := weighConjunction(nil, conj, rows, false)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Concat(wantRows...)
		if len(branches) > 1 {
			for _, br := range branches {
				for _, at := range br.Atoms[shared:] {
					if strings.HasPrefix(at.Source(), "MAXIMIZE") {
						continue // already in the unconditional conjunction
					}
					r, err := at.Weigh(rows)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, r...)
				}
			}
		} else {
			var lost []string
			for _, at := range conj {
				if at.isGuard() && slices.Contains(kept, at) {
					t.Errorf("%s: guard %s survives COUNT(*) = k; the model gained a row", tc.name, at.Source())
				}
				if at.isGuard() && !strings.HasPrefix(at.Source(), "(SUM") && !strings.HasPrefix(at.Source(), "MAXIMIZE") {
					lost = append(lost, at.Source())
				}
			}
			if !slices.Equal(lost, tc.lostGuards) {
				t.Errorf("%s: lost guards %q, want %q", tc.name, lost, tc.lostGuards)
			}
		}
		if len(got) != len(want) || len(got) != tc.rows {
			t.Fatalf("%s: %d MILP rows over tuples, %d compiled rows, want %d", tc.name, len(got), len(want), tc.rows)
		}
		for k := range want {
			if got[k].Op != want[k].Op || math.Abs(got[k].RHS-want[k].RHS) > 1e-9*(1+math.Abs(want[k].RHS)) {
				t.Errorf("%s row %d (%s): got (%v, %g), want (%v, %g)", tc.name, k, want[k].Source, got[k].Op, got[k].RHS, want[k].Op, want[k].RHS)
			}
			for i := range want[k].W {
				if got[k].W[i] != want[k].W[i] {
					t.Errorf("%s row %d (%s) weight %d: got %g, want %g", tc.name, k, want[k].Source, i, got[k].W[i], want[k].W[i])
				}
			}
		}
	}
}

func itoa(i int) string { return value.Int(int64(i)).String() }

func replaceAll(s, old, new string) string {
	for {
		i := index(s, old)
		if i < 0 {
			return s
		}
		s = s[:i] + new + s[i+len(old):]
	}
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
