package lp

// SolveFrom is held to the cold two-phase solve. A branch-and-bound
// child differs from its parent in one bound on a column the parent's
// optimum holds fractional; restarted from the parent's basis, the
// bounded dual simplex must reach the status and optimum a fresh Solve
// reaches, with a point inside every row and bound and row prices that
// price the optimum exactly (checkDuals).

import (
	"math"
	"math/rand"
	"testing"
)

// branchCase draws a bounded LP. Half are the package shape the engine
// branches on: n columns in [0, r] with a few pinned, COUNT(*) = k, and
// one or two SUM bands (a ≥ and a ≤ row over one attribute). The rest
// are random LE/GE/EQ rows around a point inside the box, with pinned
// columns and columns unbounded above.
func branchCase(rng *rand.Rand) *Problem {
	if rng.Intn(2) == 0 {
		return packageShape(rng)
	}
	m, n := 1+rng.Intn(6), 2+rng.Intn(12)
	p := NewProblem(n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(3))
		up := lo + float64(1+rng.Intn(5))
		switch rng.Intn(6) {
		case 0:
			up = lo // pinned
		case 1:
			up = Inf
		}
		_ = p.SetBounds(j, lo, up)
		x0[j] = lo + rng.Float64()*math.Min(up-lo, 3)
		_ = p.SetObjectiveCoef(j, float64(rng.Intn(41)-20)/4)
	}
	p.SetSense([]Sense{Minimize, Maximize}[rng.Intn(2)])
	for i := 0; i < m; i++ {
		var coefs []Coef
		at := 0.0
		for j := 0; j < n; j++ {
			if v := float64(rng.Intn(13) - 4); v != 0 && rng.Intn(3) > 0 {
				coefs = append(coefs, Coef{Var: j, Val: v})
				at += v * x0[j]
			}
		}
		op := []Op{LE, GE, EQ}[rng.Intn(3)]
		rhs := math.Round(at*2) / 2
		switch op {
		case LE:
			rhs += float64(rng.Intn(4))
		case GE:
			rhs -= float64(rng.Intn(4))
		}
		_, _ = p.AddConstraint(coefs, op, rhs)
	}
	return p
}

// packageShape is the relaxation of a package query: COUNT(*) = k and
// SUM bands over n candidates of multiplicity up to r.
func packageShape(rng *rand.Rand) *Problem {
	n, k := 6+rng.Intn(40), 2+rng.Intn(4)
	r := 1.0
	if rng.Intn(4) == 0 {
		r = float64(2 + rng.Intn(2)) // REPEAT
	}
	p := NewProblem(n)
	count := make([]Coef, n)
	for j := 0; j < n; j++ {
		lo, up := 0.0, r
		if rng.Intn(10) == 0 {
			v := float64(rng.Intn(2))
			lo, up = v, v // a pinned (required or excluded) tuple
		}
		_ = p.SetBounds(j, lo, up)
		_ = p.SetObjectiveCoef(j, float64(rng.Intn(400))/10)
		count[j] = Coef{Var: j, Val: 1}
	}
	p.SetSense([]Sense{Minimize, Maximize}[rng.Intn(2)])
	_, _ = p.AddConstraint(count, EQ, float64(k))
	for b := 0; b < 1+rng.Intn(2); b++ {
		attr := make([]Coef, n)
		for j := range attr {
			attr[j] = Coef{Var: j, Val: float64(100 + rng.Intn(800))}
		}
		mid := float64(k) * float64(300+rng.Intn(400))
		_, _ = p.AddConstraint(attr, GE, mid-float64(rng.Intn(400)))
		_, _ = p.AddConstraint(attr, LE, mid+float64(rng.Intn(400)))
	}
	return p
}

// branchOutcome is what one restart did.
type branchOutcome struct {
	fellBack, certified bool
}

// checkBranch solves p on w, then walks up to depth branches down as
// branch-and-bound does: it snapshots the optimum's basis, floors or
// ceils one fractional basic column, and holds SolveFrom from that
// basis to a cold Solve of the child on a fresh workspace. Each
// restart's outcome is passed to note.
func checkBranch(t *testing.T, rng *rand.Rand, w *Workspace, p *Problem, depth int, note func(branchOutcome)) {
	t.Helper()
	s := w.Solve(p)
	for ; depth > 0 && s.Status == StatusOptimal; depth-- {
		b := w.Basis()
		frac := -1
		for j := 0; j < p.n; j++ {
			if v := s.X[j]; b.state[j] == basic && math.Abs(v-math.Round(v)) > 1e-6 && (frac == -1 || rng.Intn(2) == 0) {
				frac = j
			}
		}
		if frac == -1 {
			return
		}
		q := p.Clone()
		if lo, up := q.Bounds(frac); rng.Intn(2) == 0 {
			_ = q.SetBounds(frac, lo, math.Floor(s.X[frac]))
		} else {
			_ = q.SetBounds(frac, math.Ceil(s.X[frac]), up)
		}
		warm := w.SolveFrom(q, b)
		cold := Solve(q)
		_, _, decided := new(Workspace).warm(q, b, Options{})
		note(branchOutcome{fellBack: !decided, certified: decided && warm.Status == StatusInfeasible})
		agreeWithCold(t, q, warm, cold)
		p, s = q, warm
	}
}

// agreeWithCold holds a restarted solve to the cold one: the same
// status and, when optimal, the same objective within 1e-9 relative, a
// point inside every row and bound, and exact row prices.
func agreeWithCold(t *testing.T, p *Problem, warm, cold *Solution) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("SolveFrom: %v after %d iterations; Solve: %v", warm.Status, warm.Iterations, cold.Status)
	}
	if warm.Status != StatusOptimal {
		return
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
		t.Fatalf("SolveFrom objective %.12g, Solve %.12g", warm.Objective, cold.Objective)
	}
	checkFeasible(t, p, warm.X)
	checkDuals(t, p, warm)
}

// TestPropSolveFromMatchesSolve: 600 random LPs, each branched up to
// three levels deep; every restart agrees with the cold solve, some
// restarts prove infeasibility on a row, and fewer than one in a
// hundred falls back to the cold solve.
func TestPropSolveFromMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	var n, fellBack, certified int
	var w Workspace
	for k := 0; k < 600; k++ {
		checkBranch(t, rng, &w, branchCase(rng), 3, func(o branchOutcome) {
			n++
			if o.fellBack {
				fellBack++
			}
			if o.certified {
				certified++
			}
		})
		if t.Failed() {
			t.Fatalf("case %d failed", k)
		}
	}
	t.Logf("%d restarts: %d proved infeasible on a row, %d fell back", n, certified, fellBack)
	if n < 500 || certified == 0 {
		t.Fatalf("%d restarts, %d row proofs: the corpus checks too little", n, certified)
	}
	if fellBack*100 >= n {
		t.Fatalf("%d of %d restarts fell back to the cold solve", fellBack, n)
	}
}

// FuzzSolveFromMatchesSolve is the property above on LPs drawn from
// the fuzzed seed.
func FuzzSolveFromMatchesSolve(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(i))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var w Workspace
		checkBranch(t, rng, &w, branchCase(rng), 3, func(branchOutcome) {})
	})
}

// TestSolveFromFallbacks reaches each way a restart can end: the row
// certificate decides "infeasible" in the restart; a singular install, a
// start that is not dual feasible, a leaving row without an entering
// column or a proof, and a basis of another shape all solve cold. Every
// one answers as Solve does.
func TestSolveFromFallbacks(t *testing.T) {
	problem := func(obj []float64, sense Sense, up []float64, rows ...Constraint) *Problem {
		p := NewProblem(len(obj))
		_ = p.SetObjective(obj, sense)
		for j, u := range up {
			_ = p.SetBounds(j, 0, u)
		}
		for _, r := range rows {
			_, _ = p.AddConstraint(r.Coefs, r.Op, r.RHS)
		}
		return p
	}
	sum := Constraint{Coefs: []Coef{{0, 1}, {1, 1}}, Op: LE, RHS: 4}
	tiny := Constraint{Coefs: []Coef{{0, 1}, {1, 1e-12}}, Op: EQ, RHS: 10}
	// max x0 + 2·x1 over x0 + x1 ≤ 4, x1 ≤ 3.5: x1 sits at its bound and
	// x0 = 0.5 is basic. The child asks x0 = 3 and x1 ≥ 2: once x1 has
	// entered, row 0 reads x1 = 4 − x0 − s ≤ 1 over the box.
	certParent := problem([]float64{1, 2}, Maximize, []float64{3, 3.5}, sum)
	certChild := certParent.Clone()
	_ = certChild.SetBounds(0, 3, 3)
	_ = certChild.SetBounds(1, 2, 3.5)
	// Two copies of one equality row: an artificial stays basic in the
	// second at 0, and the restart keeps it there. The child caps x0.
	eq := Constraint{Coefs: []Coef{{0, 1}, {1, 1}}, Op: EQ, RHS: 2.5}
	eq2 := Constraint{Coefs: []Coef{{0, 2}, {1, 2}}, Op: EQ, RHS: 5}
	redParent := problem([]float64{1, 0}, Maximize, []float64{3, 3}, eq, eq2)
	redChild := redParent.Clone()
	_ = redChild.SetBounds(0, 0, 2)
	for _, c := range []struct {
		name          string
		parent, child *Problem
		decided       bool
	}{
		{"row-certificate", certParent, certChild, true},
		{"redundant-row", redParent, redChild, true},
		// The parent's basic x0 has no coefficient in the child's row.
		{"singular-install", problem([]float64{1, 0}, Maximize, []float64{Inf, Inf}, sum),
			problem([]float64{1, 0}, Maximize, []float64{5, Inf}, Constraint{Coefs: []Coef{{1, 1}}, Op: LE, RHS: 4}), false},
		// The parent's optimum maximizes x0; the child minimizes it.
		{"not-dual-feasible", problem([]float64{1, 0}, Maximize, []float64{Inf, Inf}, sum),
			problem([]float64{1, 0}, Minimize, []float64{Inf, Inf}, sum), false},
		// x0 + 1e-12·x1 = 10 with x0 capped at 5: only x1, far below the
		// pivot tolerance and unbounded above, moves x0, so no column
		// enters and the row proves nothing.
		{"no-entering-column", problem([]float64{1, 0}, Maximize, []float64{Inf, Inf}, tiny),
			problem([]float64{1, 0}, Maximize, []float64{5, Inf}, tiny), false},
		{"other-shape", problem([]float64{1, 1}, Maximize, []float64{3, 3}, sum),
			problem([]float64{1, 1, 1}, Maximize, []float64{3, 3, 3}, sum), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var w Workspace
			if s := w.Solve(c.parent); s.Status != StatusOptimal {
				t.Fatalf("parent: %v", s.Status)
			}
			b := w.Basis()
			warm := w.SolveFrom(c.child, b)
			if _, _, decided := new(Workspace).warm(c.child, b, Options{}); decided != c.decided {
				t.Errorf("restart decided = %v, want %v", decided, c.decided)
			}
			agreeWithCold(t, c.child, warm, Solve(c.child))
		})
	}
}

// TestSolveFromPollsCancel: a restart polls Cancel once per dual
// iteration and once per primal one; cancelled at any poll, it answers
// StatusIterLimit, and at no poll does it answer otherwise than the cold
// solve. Cancelled at the first poll it stops there.
func TestSolveFromPollsCancel(t *testing.T) {
	p := boundShape(6, 64)
	var w Workspace
	s := w.Solve(p)
	b := w.Basis()
	frac := -1
	for j, v := range s.X {
		if math.Abs(v-math.Round(v)) > 1e-6 {
			frac = j
		}
	}
	if frac == -1 {
		t.Fatal("fixture has no fractional column")
	}
	q := p.Clone()
	_ = q.SetBounds(frac, 0, 0)
	polls := 0
	got := w.SolveFrom(q, b, Options{Cancel: func() bool { polls++; return true }})
	if got.Status != StatusIterLimit || polls != 1 {
		t.Fatalf("cancelled restart: %v after %d polls, want iteration-limit after 1", got.Status, polls)
	}
	cold := Solve(q)
	total := 0
	w.SolveFrom(q, b, Options{Cancel: func() bool { total++; return false }})
	for at := 1; at <= total+1; at++ {
		polls = 0
		got := w.SolveFrom(q, b, Options{Cancel: func() bool { polls++; return polls >= at }})
		if at <= total && got.Status != StatusIterLimit {
			t.Fatalf("cancelled at poll %d of %d: %v", at, total, got.Status)
		}
		if got.Status != StatusIterLimit {
			agreeWithCold(t, q, got, cold)
		}
	}
}
