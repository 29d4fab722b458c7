package lp

// Property-based numerics tests built on LP duality. Each case is
// constructed so the optimum is known exactly before the solver runs:
// draw A, a nonnegative primal point x* and a nonnegative dual point
// y*, set b = A·x* and c = Aᵀy*. For max cᵀx s.t. Ax ≤ b, x ≥ 0,
// weak duality gives cᵀx = y*ᵀAx ≤ y*ᵀb for every feasible x, and x*
// attains equality — so the optimum is exactly y*ᵀb, no solver needed
// to establish the ground truth. The minimization mirror flips the
// rows to ≥, and the equality variant pins cᵀx = y*ᵀb on the whole
// feasible set. Every solve is additionally checked against weak
// duality itself: the returned objective may never exceed the
// certificate value.
//
// Every optimal solve's row prices (Solution.Duals) are checked too, by
// checkDuals: they must be a dual-feasible point that prices the primal
// optimum exactly. A fourth corpus adds what the constructed cases
// lack — finite column bounds and mixed row operators, the shape of the
// certified-bound relaxations.

import (
	"math"
	"math/rand"
	"testing"
)

// dualityCase is one constructed LP with a provable optimum.
type dualityCase struct {
	m, n int
	a    [][]float64
	b    []float64 // A·x*
	c    []float64 // Aᵀ·y*
	opt  float64   // y*ᵀb, the exact optimum by construction
}

func genDualityCase(rng *rand.Rand, eq bool) dualityCase {
	dc := dualityCase{m: 1 + rng.Intn(6), n: 1 + rng.Intn(8)}
	dc.a = make([][]float64, dc.m)
	for i := range dc.a {
		dc.a[i] = make([]float64, dc.n)
		for j := range dc.a[i] {
			if rng.Intn(4) > 0 { // keep some structural zeros
				dc.a[i][j] = float64(rng.Intn(11) - 5)
			}
		}
	}
	xstar := make([]float64, dc.n)
	for j := range xstar {
		xstar[j] = float64(rng.Intn(11))
	}
	ystar := make([]float64, dc.m)
	for i := range ystar {
		v := float64(rng.Intn(6))
		if eq {
			// Equality rows admit free multipliers.
			v = float64(rng.Intn(11) - 5)
		}
		ystar[i] = v
	}
	dc.b = make([]float64, dc.m)
	dc.c = make([]float64, dc.n)
	for i := 0; i < dc.m; i++ {
		for j := 0; j < dc.n; j++ {
			dc.b[i] += dc.a[i][j] * xstar[j]
			dc.c[j] += ystar[i] * dc.a[i][j]
		}
		dc.opt += ystar[i] * dc.b[i]
	}
	return dc
}

func (dc dualityCase) problem(t *testing.T, op Op, sense Sense) *Problem {
	t.Helper()
	p := NewProblem(dc.n)
	if err := p.SetObjective(dc.c, sense); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dc.m; i++ {
		coefs := make([]Coef, 0, dc.n)
		for j, v := range dc.a[i] {
			if v != 0 {
				coefs = append(coefs, Coef{Var: j, Val: v})
			}
		}
		if _, err := p.AddConstraint(coefs, op, dc.b[i]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestPropDualityMaximize: 300 random max-LE systems whose optimum is
// y*ᵀb by construction; the solver must find exactly that value, never
// exceed it (weak duality), and return a feasible point.
func TestPropDualityMaximize(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for k := 0; k < 300; k++ {
		dc := genDualityCase(rng, false)
		p := dc.problem(t, LE, Maximize)
		s := Solve(p)
		if s.Status != StatusOptimal {
			t.Fatalf("case %d: status %v, want optimal (constructed feasible+bounded)", k, s.Status)
		}
		checkFeasible(t, p, s.X)
		checkDuals(t, p, s)
		tol := 1e-6 * (1 + math.Abs(dc.opt))
		if s.Objective > dc.opt+tol {
			t.Fatalf("case %d: WEAK DUALITY VIOLATED: objective %g > certificate %g", k, s.Objective, dc.opt)
		}
		if s.Objective < dc.opt-tol {
			t.Fatalf("case %d: suboptimal: objective %g < known optimum %g", k, s.Objective, dc.opt)
		}
	}
}

// TestPropDualityMinimize mirrors the construction with ≥ rows: for
// min cᵀx s.t. Ax ≥ b, x ≥ 0 the optimum is again exactly y*ᵀb, now
// a floor the solver may never undercut.
func TestPropDualityMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	for k := 0; k < 300; k++ {
		dc := genDualityCase(rng, false)
		p := dc.problem(t, GE, Minimize)
		s := Solve(p)
		if s.Status != StatusOptimal {
			t.Fatalf("case %d: status %v, want optimal", k, s.Status)
		}
		checkFeasible(t, p, s.X)
		checkDuals(t, p, s)
		tol := 1e-6 * (1 + math.Abs(dc.opt))
		if s.Objective < dc.opt-tol {
			t.Fatalf("case %d: WEAK DUALITY VIOLATED: objective %g < certificate %g", k, s.Objective, dc.opt)
		}
		if s.Objective > dc.opt+tol {
			t.Fatalf("case %d: suboptimal: objective %g > known optimum %g", k, s.Objective, dc.opt)
		}
	}
}

// TestEqualityArtificialPinnedRegression pins the simplex bug the
// equality property corpus surfaced: when the all-at-lower-bound start
// is already feasible, phase 1 is skipped, and artificial columns used
// to keep an infinite upper bound — so phase 2 could ride a basic
// artificial upward and min −15·x s.t. −5·x = 0 reported a spurious
// unbounded ray instead of its optimum 0.
func TestEqualityArtificialPinnedRegression(t *testing.T) {
	p := NewProblem(1)
	if err := p.SetObjective([]float64{-15}, Minimize); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddConstraint([]Coef{{Var: 0, Val: -5}}, EQ, 0); err != nil {
		t.Fatal(err)
	}
	s := Solve(p)
	if s.Status != StatusOptimal || math.Abs(s.Objective) > 1e-9 {
		t.Fatalf("got %v obj=%g, want optimal 0", s.Status, s.Objective)
	}
}

// TestPropDualityEquality: with Ax = b and c = Aᵀy*, the objective is
// the constant y*ᵀb on the entire feasible set — any optimal solve in
// either sense must return exactly the certificate value.
func TestPropDualityEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(810))
	for k := 0; k < 200; k++ {
		dc := genDualityCase(rng, true)
		for _, sense := range []Sense{Maximize, Minimize} {
			p := dc.problem(t, EQ, sense)
			s := Solve(p)
			if s.Status != StatusOptimal {
				t.Fatalf("case %d/%v: status %v, want optimal (x* is feasible)", k, sense, s.Status)
			}
			checkFeasible(t, p, s.X)
			checkDuals(t, p, s)
			tol := 1e-6 * (1 + math.Abs(dc.opt))
			if math.Abs(s.Objective-dc.opt) > tol {
				t.Fatalf("case %d/%v: degenerate objective drifted: %g != %g", k, sense, s.Objective, dc.opt)
			}
		}
	}
}

// checkDuals verifies an optimal solve's row prices against the LP
// optimality conditions, in the minimization orientation (a maximization
// negates costs and prices):
//
//   - sign: a ≥ row's price is ≥ 0, a ≤ row's ≤ 0, an equality's free;
//   - complementary slackness: a row with slack prices at 0;
//   - strong duality: with reduced costs dⱼ = cⱼ − Σᵢ yᵢaᵢⱼ, the dual
//     value bᵀy + Σⱼ dⱼ·(loⱼ if dⱼ > 0, upⱼ if dⱼ < 0) equals cᵀx.
//
// The dual value is a lower bound on the optimum for any sign-feasible
// y, so meeting cᵀx proves the prices optimal, not merely plausible.
func checkDuals(t *testing.T, p *Problem, s *Solution) {
	t.Helper()
	if len(s.Duals) != p.NumRows() {
		t.Fatalf("%d duals for %d rows", len(s.Duals), p.NumRows())
	}
	orient := 1.0
	if p.sense == Maximize {
		orient = -1.0
	}
	const tol = 1e-7
	scale := 1 + math.Abs(s.Objective)
	d := make([]float64, p.n)
	for j := range d {
		d[j] = orient * p.obj[j]
	}
	dual := 0.0
	for i, row := range p.rows {
		y := orient * s.Duals[i]
		if row.Op == GE && y < -tol || row.Op == LE && y > tol {
			t.Errorf("row %d (%v, sense %v): price %g has the wrong sign", i, row.Op, p.sense, s.Duals[i])
		}
		lhs := 0.0
		for _, c := range row.Coefs {
			lhs += c.Val * s.X[c.Var]
			d[c.Var] -= y * c.Val
		}
		if slack := lhs - row.RHS; math.Abs(y*slack) > 1e-6*scale {
			t.Errorf("row %d: price %g on slack %g violates complementary slackness", i, s.Duals[i], slack)
		}
		dual += y * row.RHS
	}
	for j, dj := range d {
		switch {
		case dj > tol:
			dual += dj * p.lo[j]
		case dj < -tol && p.up[j] == Inf:
			t.Errorf("column %d: reduced cost %g on an unbounded column is dual infeasible", j, dj)
		case dj < -tol:
			dual += dj * p.up[j]
		default:
			dual += dj * s.X[j]
		}
	}
	if primal := orient * s.Objective; math.Abs(primal-dual) > 1e-6*scale {
		t.Errorf("strong duality: primal %g != dual %g", primal, dual)
	}
}

// TestPropDualsBoundedColumns: random LPs with finite column bounds,
// nonzero lower bounds and mixed row operators, built around a known
// interior point so most are feasible. Nothing fixes the optimum in
// advance; checkDuals' strong-duality test certifies each one.
func TestPropDualsBoundedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	optimal := 0
	for k := 0; k < 200; k++ {
		m, n := 1+rng.Intn(5), 2+rng.Intn(10)
		p := NewProblem(n)
		x0 := make([]float64, n)
		for j := 0; j < n; j++ {
			lo := float64(rng.Intn(4))
			up := Inf
			if rng.Intn(4) > 0 {
				up = lo + float64(rng.Intn(6))
			}
			if err := p.SetBounds(j, lo, up); err != nil {
				t.Fatal(err)
			}
			x0[j] = lo + float64(rng.Intn(3))
			if x0[j] > up {
				x0[j] = up
			}
			_ = p.SetObjectiveCoef(j, float64(rng.Intn(21)-10))
		}
		p.SetSense([]Sense{Minimize, Maximize}[rng.Intn(2)])
		for i := 0; i < m; i++ {
			var coefs []Coef
			at := 0.0
			for j := 0; j < n; j++ {
				if v := float64(rng.Intn(9) - 3); v != 0 && rng.Intn(3) > 0 {
					coefs = append(coefs, Coef{Var: j, Val: v})
					at += v * x0[j]
				}
			}
			op := []Op{LE, GE, EQ}[rng.Intn(3)]
			rhs := at
			switch op {
			case LE:
				rhs += float64(rng.Intn(5))
			case GE:
				rhs -= float64(rng.Intn(5))
			}
			if _, err := p.AddConstraint(coefs, op, rhs); err != nil {
				t.Fatal(err)
			}
		}
		s := Solve(p)
		switch s.Status {
		case StatusOptimal:
			optimal++
			checkFeasible(t, p, s.X)
			checkDuals(t, p, s)
		case StatusUnbounded:
		default:
			t.Fatalf("case %d: status %v, but x0 is feasible", k, s.Status)
		}
		if t.Failed() {
			t.Fatalf("case %d failed", k)
		}
	}
	if optimal < 100 {
		t.Fatalf("only %d of 200 cases were bounded; the corpus checks too little", optimal)
	}
}
