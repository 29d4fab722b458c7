package lp

import (
	"math"
	"math/rand"
	"testing"
)

// boundShape builds the LP the certified-bound pass solves: a handful
// of dense rows over n columns bounded to [0, 1]. With six rows it is
// the base relaxation of a two-band query (a COUNT equality as its ≤/≥
// pair, a calorie band over per-column min/max coefficients, two
// budgets); with two rows, the Lagrangian inner problem that keeps only
// the COUNT pair.
func boundShape(rows, n int) *Problem {
	rng := rand.New(rand.NewSource(int64(rows*n + 1)))
	p := NewProblem(n)
	count := make([]Coef, n)
	calLo, calHi := make([]Coef, n), make([]Coef, n)
	fat, price := make([]Coef, n), make([]Coef, n)
	for j := 0; j < n; j++ {
		_ = p.SetBounds(j, 0, 1)
		cal := math.Round(math.Exp(rng.NormFloat64()*0.45 + 6.05))
		_ = p.SetObjectiveCoef(j, math.Round(cal*(0.02+0.03*rng.Float64())))
		count[j] = Coef{j, 1}
		calLo[j], calHi[j] = Coef{j, cal - float64(rng.Intn(20))}, Coef{j, cal + float64(rng.Intn(20))}
		fat[j] = Coef{j, math.Round(cal * (0.015 + 0.03*rng.Float64()))}
		price[j] = Coef{j, math.Round((2+rng.Float64()*18)*100) / 100}
	}
	p.SetSense(Maximize)
	_, _ = p.AddConstraint(count, LE, 5)
	_, _ = p.AddConstraint(count, GE, 5)
	if rows == 6 {
		_, _ = p.AddConstraint(calLo, LE, 3000)
		_, _ = p.AddConstraint(calHi, GE, 2500)
		_, _ = p.AddConstraint(fat, LE, 120)
		_, _ = p.AddConstraint(price, LE, 45)
	}
	return p
}

// TestWorkspaceReuseAllocatesNothing: once a workspace has held a shape,
// solving that shape again allocates nothing in load or the iteration
// loop; the only allocations of a whole Solve are the Solution it hands
// back (the struct, X and Duals). A restart from a basis (SolveFrom on a
// branch-and-bound child) allocates no more.
func TestWorkspaceReuseAllocatesNothing(t *testing.T) {
	p := boundShape(6, 512)
	var w Workspace
	first := w.Solve(p)
	if first.Status != StatusOptimal || first.Iterations < 5 {
		t.Fatalf("fixture must exercise the iteration loop: %v after %d iterations", first.Status, first.Iterations)
	}
	if n := testing.AllocsPerRun(10, func() { w.run(p, Options{}) }); n != 0 {
		t.Errorf("load + both phases on a reused workspace: %v allocations per solve, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { w.Solve(p) }); n > 3 {
		t.Errorf("Solve on a reused workspace: %v allocations, want at most 3 (Solution, X, Duals)", n)
	}
	again := w.Solve(p)
	if again.Iterations != first.Iterations || again.Objective != first.Objective {
		t.Errorf("reused workspace changed the solve: %d iterations, objective %g; first solve %d, %g",
			again.Iterations, again.Objective, first.Iterations, first.Objective)
	}
	b := w.Basis()
	child := p.Clone()
	for j, v := range again.X {
		if math.Abs(v-math.Round(v)) > 1e-6 {
			_ = child.SetBounds(j, 0, math.Floor(v))
			break
		}
	}
	if status, iters, decided := w.warm(child, b, Options{}); status != StatusOptimal || iters == 0 || !decided {
		t.Fatalf("fixture child must restart: %v after %d iterations, decided %v", status, iters, decided)
	}
	if n := testing.AllocsPerRun(10, func() { w.warm(child, b, Options{}) }); n != 0 {
		t.Errorf("a restart on a reused workspace: %v allocations per solve, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { w.SolveFrom(child, b) }); n > 3 {
		t.Errorf("SolveFrom on a reused workspace: %v allocations, want at most 3 (Solution, X, Duals)", n)
	}
}

// BenchmarkSolveBoundShape is the kernel's microbenchmark on the two
// shapes the bound pass solves, on a reused workspace as the pass does.
func BenchmarkSolveBoundShape(b *testing.B) {
	for _, shape := range []struct {
		name    string
		rows, n int
	}{{"6x8192", 6, 8192}, {"2x32768", 2, 32768}} {
		b.Run(shape.name, func(b *testing.B) {
			p := boundShape(shape.rows, shape.n)
			var w Workspace
			b.ReportAllocs()
			var s *Solution
			for b.Loop() {
				s = w.Solve(p)
			}
			if s.Status != StatusOptimal {
				b.Fatalf("status %v", s.Status)
			}
			b.ReportMetric(float64(s.Iterations), "iters/op")
		})
	}
}
