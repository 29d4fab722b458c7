package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lp"
)

// knapsackBrute solves 0/1 knapsack exactly by enumeration.
func knapsackBrute(v, w []float64, cap float64) float64 {
	n := len(v)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		totW, totV := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				totW += w[i]
				totV += v[i]
			}
		}
		if totW <= cap && totV > best {
			best = totV
		}
	}
	return best
}

func buildKnapsack(v, w []float64, cap float64) *Problem {
	n := len(v)
	p := lp.NewProblem(n)
	obj := make([]float64, n)
	copy(obj, v)
	_ = p.SetObjective(obj, lp.Maximize)
	var row []lp.Coef
	for i := 0; i < n; i++ {
		_ = p.SetBounds(i, 0, 1)
		row = append(row, lp.Coef{Var: i, Val: w[i]})
	}
	_, _ = p.AddConstraint(row, lp.LE, cap)
	mp := NewProblem(p)
	for i := 0; i < n; i++ {
		mp.SetInteger(i)
	}
	return mp
}

func TestKnapsackSmall(t *testing.T) {
	v := []float64{60, 100, 120}
	w := []float64{10, 20, 30}
	mp := buildKnapsack(v, w, 50)
	s := Solve(mp)
	if s.Status != StatusOptimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-220) > 1e-6 {
		t.Errorf("objective = %g, want 220", s.Objective)
	}
	// x must be integral
	for j, x := range s.X {
		if math.Abs(x-math.Round(x)) > 1e-6 {
			t.Errorf("x[%d] = %g not integral", j, x)
		}
	}
}

// TestIncumbentRowsHoldExactly: 0.1 + 0.2 sums to 0.30000000000000004,
// one rounding over a 0.3 budget. The relaxation's optimum takes both
// items and is integral, but it is not a solution of the program as the
// machine adds it up; the search must reject it, keep looking inside the
// node, and prove the one-item optimum.
func TestIncumbentRowsHoldExactly(t *testing.T) {
	mp := buildKnapsack([]float64{1, 1}, []float64{0.1, 0.2}, 0.3)
	s := Solve(mp, Options{InitialIncumbent: []float64{1, 1}})
	if s.Status != StatusOptimal || s.Objective != 1 {
		t.Fatalf("status %v objective %g, want optimal 1", s.Status, s.Objective)
	}
	if !mp.LP.Feasible(s.X, 0) {
		t.Errorf("incumbent %v breaks a row when added up exactly", s.X)
	}
}

func TestIntegerGapInfeasible(t *testing.T) {
	// 0.4 <= x <= 0.6 with x integer: no integer point.
	p := lp.NewProblem(1)
	_ = p.SetObjective([]float64{1}, lp.Maximize)
	_ = p.SetBounds(0, 0.4, 0.6)
	mp := NewProblem(p)
	mp.SetInteger(0)
	if s := Solve(mp); s.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := lp.NewProblem(1)
	_, _ = p.AddConstraint([]lp.Coef{{Var: 0, Val: 1}}, lp.GE, 5)
	_, _ = p.AddConstraint([]lp.Coef{{Var: 0, Val: 1}}, lp.LE, 3)
	mp := NewProblem(p)
	mp.SetInteger(0)
	if s := Solve(mp); s.Status != StatusInfeasible {
		t.Errorf("status = %v", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := lp.NewProblem(1)
	_ = p.SetObjective([]float64{1}, lp.Maximize)
	mp := NewProblem(p)
	mp.SetInteger(0)
	if s := Solve(mp); s.Status != StatusUnbounded {
		t.Errorf("status = %v", s.Status)
	}
}

func TestMinimizeSense(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 3, x,y in {0..5} integer.
	p := lp.NewProblem(2)
	_ = p.SetObjective([]float64{3, 2}, lp.Minimize)
	_ = p.SetBounds(0, 0, 5)
	_ = p.SetBounds(1, 0, 5)
	_, _ = p.AddConstraint([]lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, lp.GE, 3)
	mp := NewProblem(p)
	mp.SetInteger(0)
	mp.SetInteger(1)
	s := Solve(mp)
	if s.Status != StatusOptimal || math.Abs(s.Objective-6) > 1e-6 {
		t.Errorf("min objective = %v %g, want optimal 6", s.Status, s.Objective)
	}
}

func TestGeneralIntegerVariables(t *testing.T) {
	// max x + y s.t. 3x + 5y <= 17, integers: best is x=4,y=1 -> 5.
	p := lp.NewProblem(2)
	_ = p.SetObjective([]float64{1, 1}, lp.Maximize)
	_ = p.SetBounds(0, 0, 10)
	_ = p.SetBounds(1, 0, 10)
	_, _ = p.AddConstraint([]lp.Coef{{Var: 0, Val: 3}, {Var: 1, Val: 5}}, lp.LE, 17)
	mp := NewProblem(p)
	mp.SetInteger(0)
	mp.SetInteger(1)
	s := Solve(mp)
	if s.Status != StatusOptimal || math.Abs(s.Objective-5) > 1e-6 {
		t.Errorf("objective = %v %g, want 5", s.Status, s.Objective)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x integer, y continuous; x + y <= 2.5, x <= 2.
	// Optimum: x=2, y=0.5 -> 4.5.
	p := lp.NewProblem(2)
	_ = p.SetObjective([]float64{2, 1}, lp.Maximize)
	_ = p.SetBounds(0, 0, 2)
	_ = p.SetBounds(1, 0, lp.Inf)
	_, _ = p.AddConstraint([]lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, lp.LE, 2.5)
	mp := NewProblem(p)
	mp.SetInteger(0)
	s := Solve(mp)
	if s.Status != StatusOptimal || math.Abs(s.Objective-4.5) > 1e-6 {
		t.Errorf("objective = %v %g, want 4.5", s.Status, s.Objective)
	}
}

func TestNodeLimitReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 30
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(100) + 1)
		w[i] = float64(rng.Intn(50) + 1)
	}
	mp := buildKnapsack(v, w, 200)
	s := Solve(mp, Options{MaxNodes: 3})
	if s.Status != StatusFeasible && s.Status != StatusOptimal && s.Status != StatusLimit {
		t.Errorf("status = %v", s.Status)
	}
	if s.Status == StatusFeasible {
		// incumbent must be integral and feasible
		if s.X == nil {
			t.Fatal("feasible status without X")
		}
		if !mp.LP.Feasible(s.X, 1e-6) {
			t.Error("incumbent infeasible")
		}
		// bound must not be worse than the incumbent for maximize
		if s.Bound < s.Objective-1e-6 {
			t.Errorf("bound %g < incumbent %g", s.Bound, s.Objective)
		}
	}
}

// TestTimeLimit: a solve stopped by its time limit returns what the limit
// promises — StatusFeasible, an integral incumbent that satisfies every
// row, and a dual bound on the right side of it. Every weight is even and
// the capacity odd, so every node whose relaxation can fill the knapsack
// bounds at the capacity, which no integer point reaches: the tree has
// about 2⁴⁰ nodes, and only the clock can stop it, on any machine.
func TestTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = float64(2 * (rng.Intn(1000) + 1))
		sum += w[i]
	}
	capacity := 2*math.Floor(sum/4) + 1
	mp := buildKnapsack(w, w, capacity)
	s := Solve(mp, Options{TimeLimit: 20 * time.Millisecond, MaxNodes: math.MaxInt})
	if s.Status != StatusFeasible || s.Canceled {
		t.Fatalf("status %v (canceled %v) after %d nodes; want %v", s.Status, s.Canceled, s.Nodes, StatusFeasible)
	}
	if s.X == nil || mostFractional(mp, s.X, 0) != -1 || !mp.LP.Feasible(s.X, 0) {
		t.Fatalf("incumbent %v is not an integral point inside the rows", s.X)
	}
	// The bound is a relaxation's optimum, so it may sit a rounding above
	// the capacity.
	if s.Objective >= capacity || s.Bound < s.Objective || s.Bound > capacity+1e-6 {
		t.Errorf("incumbent %g, bound %g; want incumbent < %g and incumbent <= bound <= %g (± round-off)",
			s.Objective, s.Bound, capacity, capacity)
	}
	t.Logf("stopped after %d nodes, %v: incumbent %g, bound %g", s.Nodes, s.WallTime, s.Objective, s.Bound)
}

func TestInitialIncumbentPrunes(t *testing.T) {
	v := []float64{60, 100, 120}
	w := []float64{10, 20, 30}
	mp := buildKnapsack(v, w, 50)
	// Seed with the known optimum: y+z.
	seed := []float64{0, 1, 1}
	s := Solve(mp, Options{InitialIncumbent: seed})
	if s.Status != StatusOptimal || math.Abs(s.Objective-220) > 1e-6 {
		t.Errorf("seeded solve = %v %g", s.Status, s.Objective)
	}
	// A bogus initial incumbent (infeasible) must be ignored.
	bad := []float64{1, 1, 1}
	s = Solve(mp, Options{InitialIncumbent: bad})
	if s.Status != StatusOptimal || math.Abs(s.Objective-220) > 1e-6 {
		t.Errorf("bad seed solve = %v %g", s.Status, s.Objective)
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusOptimal, StatusInfeasible, StatusUnbounded, StatusFeasible, StatusLimit} {
		if s.String() == "unknown" {
			t.Errorf("status %d has no name", s)
		}
	}
}

// Property: random 0/1 knapsacks match brute force exactly.
func TestPropKnapsackMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		v := make([]float64, n)
		w := make([]float64, n)
		totW := 0.0
		for i := range v {
			v[i] = float64(rng.Intn(100) + 1)
			w[i] = float64(rng.Intn(40) + 1)
			totW += w[i]
		}
		cap := totW * (0.25 + 0.5*rng.Float64())
		want := knapsackBrute(v, w, cap)
		s := Solve(buildKnapsack(v, w, cap))
		if s.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		if math.Abs(s.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: milp=%g brute=%g (n=%d)", trial, s.Objective, want, n)
		}
	}
}

// Property: equality-count problems (the paper's COUNT(*) = k) match
// brute force.
func TestPropCountConstrainedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(8)
		k := 1 + rng.Intn(3)
		cal := make([]float64, n)
		prot := make([]float64, n)
		for i := range cal {
			cal[i] = float64(100 + rng.Intn(700))
			prot[i] = float64(rng.Intn(50))
		}
		lo, hi := 500.0, 1800.0
		// brute force
		want := math.Inf(-1)
		for mask := 0; mask < 1<<n; mask++ {
			cnt, cs, ps := 0, 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					cnt++
					cs += cal[i]
					ps += prot[i]
				}
			}
			if cnt == k && cs >= lo && cs <= hi && ps > want {
				want = ps
			}
		}
		// milp
		p := lp.NewProblem(n)
		obj := make([]float64, n)
		copy(obj, prot)
		_ = p.SetObjective(obj, lp.Maximize)
		var cnt, cs []lp.Coef
		for i := 0; i < n; i++ {
			_ = p.SetBounds(i, 0, 1)
			cnt = append(cnt, lp.Coef{Var: i, Val: 1})
			cs = append(cs, lp.Coef{Var: i, Val: cal[i]})
		}
		_, _ = p.AddConstraint(cnt, lp.EQ, float64(k))
		_, _ = p.AddConstraint(cs, lp.GE, lo)
		_, _ = p.AddConstraint(cs, lp.LE, hi)
		mp := NewProblem(p)
		for i := 0; i < n; i++ {
			mp.SetInteger(i)
		}
		s := Solve(mp)
		if math.IsInf(want, -1) {
			if s.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v obj=%g", trial, s.Status, s.Objective)
			}
			continue
		}
		if s.Status != StatusOptimal || math.Abs(s.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: milp=%v %g brute=%g", trial, s.Status, s.Objective, want)
		}
	}
}

func BenchmarkKnapsack100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(100) + 1)
		w[i] = float64(rng.Intn(50) + 1)
	}
	mp := buildKnapsack(v, w, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := Solve(mp); s.Status != StatusOptimal {
			b.Fatal(s.Status)
		}
	}
}
