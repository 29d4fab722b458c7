package lp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s := Solve(p)
	if s.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	checkFeasible(t, p, s.X)
	return s
}

// checkFeasible verifies a solution against all constraints and bounds.
func checkFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-5
	for j := 0; j < p.NumVars(); j++ {
		lo, up := p.Bounds(j)
		if x[j] < lo-tol || x[j] > up+tol {
			t.Errorf("x[%d]=%g violates bounds [%g,%g]", j, x[j], lo, up)
		}
	}
	for i, row := range p.rows {
		lhs := 0.0
		for _, c := range row.Coefs {
			lhs += c.Val * x[c.Var]
		}
		switch row.Op {
		case LE:
			if lhs > row.RHS+tol {
				t.Errorf("row %d: %g <= %g violated", i, lhs, row.RHS)
			}
		case GE:
			if lhs < row.RHS-tol {
				t.Errorf("row %d: %g >= %g violated", i, lhs, row.RHS)
			}
		case EQ:
			if math.Abs(lhs-row.RHS) > tol {
				t.Errorf("row %d: %g = %g violated", i, lhs, row.RHS)
			}
		}
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6; opt at (4, 0) -> 12.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{3, 2}, Maximize)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, LE, 4)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 3}}, LE, 6)
	s := solveOK(t, p)
	if !approx(s.Objective, 12) {
		t.Errorf("objective = %g, want 12", s.Objective)
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x <= 6; opt (6,4) -> 24.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{2, 3}, Minimize)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, GE, 10)
	_, _ = p.AddConstraint([]Coef{{0, 1}}, LE, 6)
	s := solveOK(t, p)
	if !approx(s.Objective, 24) {
		t.Errorf("objective = %g, want 24", s.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + 2y = 8, x,y >= 0; opt (0,4) -> 4.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1}, Minimize)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 2}}, EQ, 8)
	s := solveOK(t, p)
	if !approx(s.Objective, 4) {
		t.Errorf("objective = %g, want 4", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetObjective([]float64{1}, Minimize)
	_, _ = p.AddConstraint([]Coef{{0, 1}}, GE, 5)
	_, _ = p.AddConstraint([]Coef{{0, 1}}, LE, 3)
	if s := Solve(p); s.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetObjective([]float64{1}, Maximize)
	_, _ = p.AddConstraint([]Coef{{0, 1}}, GE, 0)
	if s := Solve(p); s.Status != StatusUnbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestVariableUpperBounds(t *testing.T) {
	// max x + y with x <= 2 (bound), y <= 3 (bound), x + y <= 4.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1}, Maximize)
	_ = p.SetBounds(0, 0, 2)
	_ = p.SetBounds(1, 0, 3)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, LE, 4)
	s := solveOK(t, p)
	if !approx(s.Objective, 4) {
		t.Errorf("objective = %g, want 4", s.Objective)
	}
}

func TestFixedVariable(t *testing.T) {
	// Branch-and-bound fixes variables by collapsing bounds.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{5, 4}, Maximize)
	_ = p.SetBounds(0, 1, 1) // x fixed at 1
	_ = p.SetBounds(1, 0, 1)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, LE, 1.5)
	s := solveOK(t, p)
	if !approx(s.X[0], 1) || !approx(s.X[1], 0.5) {
		t.Errorf("x = %v, want [1, 0.5]", s.X)
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	// min x + y with x >= 2, y >= 3 (bounds), x + y >= 6.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1}, Minimize)
	_ = p.SetBounds(0, 2, Inf)
	_ = p.SetBounds(1, 3, Inf)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, GE, 6)
	s := solveOK(t, p)
	if !approx(s.Objective, 6) {
		t.Errorf("objective = %g, want 6", s.Objective)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Multiple redundant constraints through the optimum.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1}, Maximize)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, LE, 2)
	_, _ = p.AddConstraint([]Coef{{0, 1}}, LE, 2)
	_, _ = p.AddConstraint([]Coef{{1, 1}}, LE, 2)
	_, _ = p.AddConstraint([]Coef{{0, 2}, {1, 2}}, LE, 4)
	s := solveOK(t, p)
	if !approx(s.Objective, 2) {
		t.Errorf("objective = %g, want 2", s.Objective)
	}
}

func TestRedundantEquality(t *testing.T) {
	// x + y = 4 stated twice: phase 1 must cope with a redundant row.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 2}, Minimize)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, EQ, 4)
	_, _ = p.AddConstraint([]Coef{{0, 2}, {1, 2}}, EQ, 8)
	s := solveOK(t, p)
	if !approx(s.Objective, 4) { // all weight on x
		t.Errorf("objective = %g, want 4", s.Objective)
	}
}

func TestTransportation(t *testing.T) {
	// 2 supplies (10, 20), 2 demands (15, 15), costs [[1,2],[3,1]].
	// Optimal: s0->d0:10, s1->d0:5, s1->d1:15 => 10 + 15 + 15 = 40.
	p := NewProblem(4) // x00 x01 x10 x11
	_ = p.SetObjective([]float64{1, 2, 3, 1}, Minimize)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, EQ, 10)
	_, _ = p.AddConstraint([]Coef{{2, 1}, {3, 1}}, EQ, 20)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {2, 1}}, EQ, 15)
	_, _ = p.AddConstraint([]Coef{{1, 1}, {3, 1}}, EQ, 15)
	s := solveOK(t, p)
	if !approx(s.Objective, 40) {
		t.Errorf("objective = %g, want 40", s.Objective)
	}
}

func TestMealPlanRelaxation(t *testing.T) {
	// LP relaxation of the paper's meal query: pick x_i in [0,1],
	// count = 3, 2000 <= sum cal <= 2500, max protein.
	cal := []float64{300, 550, 150, 420, 800, 380, 200, 650}
	prot := []float64{10, 18, 4, 38, 30, 22, 6, 45}
	n := len(cal)
	p := NewProblem(n)
	obj := make([]float64, n)
	copy(obj, prot)
	_ = p.SetObjective(obj, Maximize)
	var cnt, cs []Coef
	for i := 0; i < n; i++ {
		_ = p.SetBounds(i, 0, 1)
		cnt = append(cnt, Coef{i, 1})
		cs = append(cs, Coef{i, cal[i]})
	}
	_, _ = p.AddConstraint(cnt, EQ, 3)
	_, _ = p.AddConstraint(cs, GE, 2000)
	_, _ = p.AddConstraint(cs, LE, 2500)
	s := solveOK(t, p)
	// The integral optimum is {Chicken 420/38, Burger 800/30, Steak
	// 650/45} = 1870 cal -> infeasible; actual integral best is
	// {Pasta, Chicken, Burger}=1770? No: constraint >= 2000 forces
	// heavier sets. The LP bound must be >= any integral solution:
	// {Burger 800, Steak 650, Pasta 550} = 2000 cal, protein 93.
	if s.Objective < 93-1e-6 {
		t.Errorf("LP bound %g below known integral solution 93", s.Objective)
	}
	// count respected
	total := 0.0
	for _, v := range s.X {
		total += v
	}
	if !approx(total, 3) {
		t.Errorf("count = %g", total)
	}
}

func TestObjectiveAPIErrors(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1}, Minimize); err == nil {
		t.Error("short objective should fail")
	}
	if err := p.SetObjectiveCoef(5, 1); err == nil {
		t.Error("out-of-range coef should fail")
	}
	if err := p.SetBounds(0, 3, 2); err == nil {
		t.Error("empty bound range should fail")
	}
	if err := p.SetBounds(0, math.Inf(-1), 0); err == nil {
		t.Error("infinite lower bound should fail")
	}
	if err := p.SetBounds(9, 0, 1); err == nil {
		t.Error("out-of-range bounds should fail")
	}
	if _, err := p.AddConstraint([]Coef{{7, 1}}, LE, 1); err == nil {
		t.Error("out-of-range constraint var should fail")
	}
	if err := p.SetObjectiveCoef(1, 2.5); err != nil {
		t.Error(err)
	}
	p.SetSense(Maximize)
	if p.Sense() != Maximize {
		t.Error("sense not set")
	}
}

// TestAddConstraintMergesDuplicates: repeated variables are summed in the
// order given, terms that cancel or are zero are dropped, and the stored
// row comes out sorted by variable whatever order it went in.
func TestAddConstraintMergesDuplicates(t *testing.T) {
	p := NewProblem(5)
	a, b := 0.1, 0.2 // summed at run time: 0.30000000000000004, not the constant 0.3
	i, err := p.AddConstraint([]Coef{{3, 2}, {1, a}, {3, -2}, {0, 4}, {1, b}, {4, 0}, {2, 7}}, LE, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := []Coef{{0, 4}, {1, a + b}, {2, 7}}
	got := p.Row(i).Coefs
	if len(got) != len(want) {
		t.Fatalf("row = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("coef %d = %v, want %v", k, got[k], want[k])
		}
	}
}

func TestClone(t *testing.T) {
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1}, Maximize)
	_ = p.SetBounds(0, 0, 5)
	_, _ = p.AddConstraint([]Coef{{0, 1}, {1, 1}}, LE, 3)
	q := p.Clone()
	_ = q.SetBounds(0, 0, 1)
	if _, up := p.Bounds(0); up != 5 {
		t.Error("Clone must not share bounds")
	}
	if q.NumRows() != 1 || q.NumVars() != 2 {
		t.Error("Clone lost structure")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusOptimal, StatusInfeasible, StatusUnbounded, StatusIterLimit} {
		if s.String() == "" {
			t.Error("empty status name")
		}
	}
}

// Property: the LP relaxation of a random fractional knapsack matches
// the greedy density oracle exactly.
func TestPropFractionalKnapsackMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		w := make([]float64, n)
		v := make([]float64, n)
		totW := 0.0
		for i := range w {
			w[i] = 1 + float64(rng.Intn(50))
			v[i] = 1 + float64(rng.Intn(100))
			totW += w[i]
		}
		cap := totW * (0.2 + 0.6*rng.Float64())
		// greedy oracle
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return v[idx[a]]/w[idx[a]] > v[idx[b]]/w[idx[b]] })
		remaining := cap
		want := 0.0
		for _, i := range idx {
			if w[i] <= remaining {
				want += v[i]
				remaining -= w[i]
			} else {
				want += v[i] * remaining / w[i]
				break
			}
		}
		// LP
		p := NewProblem(n)
		obj := make([]float64, n)
		copy(obj, v)
		_ = p.SetObjective(obj, Maximize)
		var row []Coef
		for i := 0; i < n; i++ {
			_ = p.SetBounds(i, 0, 1)
			row = append(row, Coef{i, w[i]})
		}
		_, _ = p.AddConstraint(row, LE, cap)
		s := Solve(p)
		if s.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		checkFeasible(t, p, s.X)
		if math.Abs(s.Objective-want) > 1e-5*(1+want) {
			t.Fatalf("trial %d: lp=%g greedy=%g (n=%d cap=%g)", trial, s.Objective, want, n, cap)
		}
	}
}

// Property: on random feasible systems, the solver never returns a point
// violating constraints, and minimize/maximize agree via negation.
func TestPropRandomLPsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(5)
		p := NewProblem(n)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = float64(rng.Intn(21) - 10)
			_ = p.SetBounds(j, 0, float64(1+rng.Intn(10)))
		}
		_ = p.SetObjective(obj, Maximize)
		for i := 0; i < m; i++ {
			var row []Coef
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.7 {
					row = append(row, Coef{j, float64(rng.Intn(9) + 1)})
				}
			}
			if len(row) == 0 {
				row = []Coef{{0, 1}}
			}
			// RHS generous enough to keep x=0 feasible.
			_, _ = p.AddConstraint(row, LE, float64(rng.Intn(40)+1))
		}
		s := Solve(p)
		if s.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v (bounded feasible problem)", trial, s.Status)
		}
		checkFeasible(t, p, s.X)
		// negated problem solved as Minimize agrees
		neg := p.Clone()
		nobj := make([]float64, n)
		for j := range nobj {
			nobj[j] = -obj[j]
		}
		_ = neg.SetObjective(nobj, Minimize)
		s2 := Solve(neg)
		if s2.Status != StatusOptimal {
			t.Fatalf("trial %d: negated status %v", trial, s2.Status)
		}
		if math.Abs(s.Objective+s2.Objective) > 1e-5*(1+math.Abs(s.Objective)) {
			t.Fatalf("trial %d: max %g != -min %g", trial, s.Objective, -s2.Objective)
		}
	}
}

func BenchmarkMealRelaxation1000(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 1000
	p := NewProblem(n)
	obj := make([]float64, n)
	var cnt, cs []Coef
	for i := 0; i < n; i++ {
		obj[i] = float64(rng.Intn(50))
		_ = p.SetBounds(i, 0, 1)
		cnt = append(cnt, Coef{i, 1})
		cs = append(cs, Coef{i, float64(100 + rng.Intn(900))})
	}
	_ = p.SetObjective(obj, Maximize)
	_, _ = p.AddConstraint(cnt, EQ, 3)
	_, _ = p.AddConstraint(cs, GE, 2000)
	_, _ = p.AddConstraint(cs, LE, 2500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := Solve(p); s.Status != StatusOptimal {
			b.Fatal(s.Status)
		}
	}
}
