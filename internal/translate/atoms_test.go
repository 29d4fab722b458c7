package translate

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/schema"
)

func TestConjunctiveAtomsExtraction(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`)
	rows := testRows()
	atoms, pure, _, _, err := NewPasses(rows).ConjunctiveAtoms(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if !pure {
		t.Error("pure conjunctive formula should report pure")
	}
	// COUNT(*)=3 -> LE+GE; BETWEEN -> GE+LE: 4 atoms.
	if len(atoms) != 4 {
		t.Fatalf("atoms = %d", len(atoms))
	}
	// verify atom checking against a known-feasible multiplicity vector:
	// rows 1 (550), 4 (800), 7 (650) = 2000 cal.
	mult := make([]int, len(rows))
	mult[1], mult[4], mult[7] = 1, 1, 1
	for _, at := range atoms {
		if !at.Check(mult) {
			t.Errorf("atom %s rejects the known-valid package", at.Source)
		}
	}
	// and an invalid one (count 2)
	bad := make([]int, len(rows))
	bad[1], bad[4] = 1, 1
	okAll := true
	for _, at := range atoms {
		if !at.Check(bad) {
			okAll = false
		}
	}
	if okAll {
		t.Error("atoms accepted an invalid package")
	}
}

func TestConjunctiveAtomsImpure(t *testing.T) {
	// Disjunction: atoms under OR are not top-level conjuncts.
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND (SUM(P.calories) <= 600 OR SUM(P.calories) >= 1800)`)
	atoms, pure, _, _, err := NewPasses(testRows()).ConjunctiveAtoms(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if pure {
		t.Error("formula with OR must not report pure")
	}
	if len(atoms) != 2 { // only COUNT(*)=2 (LE+GE)
		t.Errorf("atoms = %d, want the COUNT conjunct only", len(atoms))
	}
	// AVG atoms are skipped (no incremental form) and mark impure.
	a2 := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND AVG(P.calories) <= 500`)
	atoms2, pure2, _, _, err := NewPasses(testRows()).ConjunctiveAtoms(nil, a2)
	if err != nil {
		t.Fatal(err)
	}
	if pure2 || len(atoms2) != 2 {
		t.Errorf("AVG handling: pure=%v atoms=%d", pure2, len(atoms2))
	}
	// nil formula
	a3 := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R`)
	atoms3, pure3, _, _, err := NewPasses(testRows()).ConjunctiveAtoms(nil, a3)
	if err != nil || !pure3 || atoms3 != nil {
		t.Errorf("nil formula: %v %v %v", atoms3, pure3, err)
	}
}

func TestCheckSumOps(t *testing.T) {
	le := &LinearAtom{W: []float64{1}, Op: lp.LE, RHS: 5}
	ge := &LinearAtom{W: []float64{1}, Op: lp.GE, RHS: 5}
	eq := &LinearAtom{W: []float64{1}, Op: lp.EQ, RHS: 5}
	cases := []struct {
		at   *LinearAtom
		sum  float64
		want bool
	}{
		{le, 5, true}, {le, 5.1, false}, {le, -100, true},
		{ge, 5, true}, {ge, 4.9, false},
		{eq, 5, true}, {eq, 5.2, false}, {eq, 4.8, false},
	}
	for _, tc := range cases {
		if got := tc.at.CheckSum(tc.sum); got != tc.want {
			t.Errorf("%v sum=%g -> %v, want %v", tc.at.Op, tc.sum, got, tc.want)
		}
	}
	if (&LinearAtom{W: []float64{1}, Op: lp.Op(99)}).CheckSum(0) {
		t.Error("unknown op should fail closed")
	}
}

func TestObjectiveWeights(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		MAXIMIZE 2 * SUM(P.protein) - SUM(P.price) + 10`)
	rows := testRows()
	w, konst, err := ObjectiveWeights(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if konst != 10 {
		t.Errorf("const = %g", konst)
	}
	// row 0: protein 10, price 5 -> 2*10 - 5 = 15
	if w[0] != 15 {
		t.Errorf("w[0] = %g, want 15", w[0])
	}
	// no objective -> zero weights
	a2 := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R`)
	w2, k2, err := ObjectiveWeights(a2, rows)
	if err != nil || k2 != 0 {
		t.Fatalf("no-objective weights: %v %v", k2, err)
	}
	for _, v := range w2 {
		if v != 0 {
			t.Error("no-objective weights must be zero")
		}
	}
	// non-affine objective errors
	a3 := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R MAXIMIZE SUM(P.protein) / COUNT(*)`)
	if _, _, err := ObjectiveWeights(a3, rows); err == nil {
		t.Error("ratio objective should fail")
	}
}

// A weight is a floating-point sum over the form's aggregates, and
// (0.1 + 0.2) + 0.3 ≠ 0.1 + (0.2 + 0.3): summed in Go's map order, the
// same form weighed twice could differ in the last bit, and a last bit
// decides simplex ties. Terms are summed in the order of their text.
func TestWeighIsOrderIndependent(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		MAXIMIZE SUM(P.calories) + SUM(P.protein) + SUM(P.price)`)
	rows := []schema.Row{mkRow(1, 0.1, 0.2, "a", 0.3), mkRow(2, 0.7, 0.1, "b", 0.2)}
	first, _, err := ObjectiveWeights(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w, _, err := ObjectiveWeights(a, rows)
		if err != nil {
			t.Fatal(err)
		}
		for j := range w {
			if math.Float64bits(w[j]) != math.Float64bits(first[j]) {
				t.Fatalf("weighing %d: w[%d] = %v, first was %v", i, j, w[j], first[j])
			}
		}
	}
}

func TestRequireTuple(t *testing.T) {
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= 1500
		MAXIMIZE SUM(P.protein)`)
	rows := testRows()
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	m, err := Translate(a, rows, ids)
	if err != nil {
		t.Fatal(err)
	}
	// candidate 2 (Salad, protein 4) would never be chosen freely
	if err := m.RequireTuple(2); err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Solution.Status)
	}
	if res.Multiplicities[2] != 1 {
		t.Errorf("required tuple missing: %v", res.Multiplicities)
	}
	if err := m.RequireTuple(99); err == nil {
		t.Error("out-of-range require should fail")
	}
	if m.indicators != 0 {
		t.Errorf("conjunctive model should have 0 indicators, got %d", m.indicators)
	}
}

func TestStrictAndNegatedComparisons(t *testing.T) {
	rows := testRows()
	// strict < and > with integral data match closed comparisons offset by 1
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) < 500 AND SUM(P.calories) > 300
		MAXIMIZE SUM(P.protein)`)
	want, feasible := bruteBest(t, a.Query, rows)
	res := solveModel(t, a, rows)
	if !feasible {
		if res.Solution.Status != milp.StatusInfeasible {
			t.Fatalf("want infeasible, got %v", res.Solution.Status)
		}
	} else if math.Abs(res.Solution.Objective-want) > 1e-6 {
		t.Errorf("strict: %g vs brute %g", res.Solution.Objective, want)
	}
	// NOT BETWEEN becomes a disjunction of strict comparisons
	a2 := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) NOT BETWEEN 500 AND 1200
		MAXIMIZE SUM(P.protein)`)
	want2, feasible2 := bruteBest(t, a2.Query, rows)
	res2 := solveModel(t, a2, rows)
	if !feasible2 {
		t.Fatal("NOT BETWEEN instance should be feasible")
	}
	if math.Abs(res2.Solution.Objective-want2) > 1e-6 {
		t.Errorf("not-between: %g vs brute %g", res2.Solution.Objective, want2)
	}
	// NOT over a conjunction pushes to a disjunction
	a3 := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND NOT (SUM(P.calories) >= 500 AND SUM(P.calories) <= 1200)
		MAXIMIZE SUM(P.protein)`)
	want3, _ := bruteBest(t, a3.Query, rows)
	res3 := solveModel(t, a3, rows)
	if math.Abs(res3.Solution.Objective-want3) > 1e-6 {
		t.Errorf("negated conjunction: %g vs brute %g", res3.Solution.Objective, want3)
	}
}

func TestConstantFormulas(t *testing.T) {
	rows := testRows()
	// TRUE is a no-op constraint
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT TRUE AND COUNT(*) = 1 MAXIMIZE SUM(P.protein)`)
	res := solveModel(t, a, rows)
	if res.Solution.Status != milp.StatusOptimal || math.Abs(res.Solution.Objective-45) > 1e-9 {
		t.Errorf("TRUE formula: %v %g", res.Solution.Status, res.Solution.Objective)
	}
	// FALSE is unsatisfiable
	a2 := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT FALSE`)
	res2 := solveModel(t, a2, rows)
	if res2.Solution.Status != milp.StatusInfeasible {
		t.Errorf("FALSE formula: %v", res2.Solution.Status)
	}
	// FALSE under an OR branch is pruned, the other branch carries
	a3 := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT FALSE OR COUNT(*) = 1 MAXIMIZE SUM(P.protein)`)
	res3 := solveModel(t, a3, rows)
	if res3.Solution.Status != milp.StatusOptimal || math.Abs(res3.Solution.Objective-45) > 1e-9 {
		t.Errorf("FALSE OR x: %v %g", res3.Solution.Status, res3.Solution.Objective)
	}
}

func TestFilteredAvgAndMinMaxFilters(t *testing.T) {
	rows := testRows()
	// filtered AVG
	a := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 3 AND AVG(P.calories WHERE P.kind = 'meal') <= 600
		MAXIMIZE SUM(P.protein)`)
	want, feasible := bruteBest(t, a.Query, rows)
	if !feasible {
		t.Fatal("filtered AVG instance should be feasible")
	}
	res := solveModel(t, a, rows)
	if math.Abs(res.Solution.Objective-want) > 1e-6 {
		t.Errorf("filtered AVG: %g vs brute %g", res.Solution.Objective, want)
	}
	// filtered MIN with a guard
	a2 := analyze(t, `
		SELECT PACKAGE(R) AS P FROM Recipes R
		SUCH THAT COUNT(*) = 2 AND MIN(P.price WHERE P.kind = 'snack') <= 3
		MAXIMIZE SUM(P.protein)`)
	want2, feasible2 := bruteBest(t, a2.Query, rows)
	if !feasible2 {
		t.Fatal("filtered MIN instance should be feasible")
	}
	res2 := solveModel(t, a2, rows)
	if math.Abs(res2.Solution.Objective-want2) > 1e-6 {
		t.Errorf("filtered MIN: %g vs brute %g", res2.Solution.Objective, want2)
	}
}

func TestAffineFormErrors(t *testing.T) {
	bad := []string{
		`SUM(P.calories) * SUM(P.protein)`,
		`COUNT(*) / SUM(P.protein)`,
		`MIN(P.calories) + 1`,
		`SUM(P.calories) / 0`,
	}
	for _, src := range bad {
		a := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R MAXIMIZE `+src)
		if _, err := affineForm(a.Query.Objective.Expr); err == nil {
			t.Errorf("affineForm(%q) should fail", src)
		}
	}
	// modulo is not affine either
	aMod := analyze(t, `SELECT PACKAGE(R) AS P FROM Recipes R MAXIMIZE COUNT(*) % 2`)
	if _, err := affineForm(aMod.Query.Objective.Expr); err == nil {
		t.Error("modulo should fail")
	}
}
