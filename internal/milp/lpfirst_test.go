package milp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lp"
)

// plainSolve is the oracle: the search Solve runs, without the LP-first
// root.
func plainSolve(p *Problem, opt Options) *Solution {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 200000
	}
	var ws lp.Workspace
	return newSearch(p, opt, &ws).run(false)
}

// packageMILP builds a MILP shaped like translate's lowering of a
// package query over 200–500 candidates: one integer multiplicity
// column per tuple with a REPEAT cap of 1–3, a few pinned tuples
// (lo = 1), a COUNT row (= k, or a band), SUM rows of either direction,
// sometimes an exclusion cut against an earlier package, an OR's
// indicator tied in by big-M, and translate's unused indicator slots
// pinned at 0 as continuous columns.
func packageMILP(rng *rand.Rand) *Problem {
	n := 200 + rng.Intn(301)
	slots := rng.Intn(6)
	withOr := rng.Intn(3) == 0
	total := n + slots
	if withOr {
		total++
	}
	p := lp.NewProblem(total)
	mp := NewProblem(p)
	cap := 1 + rng.Intn(3)
	obj := make([]float64, total)
	for j := 0; j < n; j++ {
		_ = p.SetBounds(j, 0, float64(cap))
		mp.SetInteger(j)
		obj[j] = float64(rng.Intn(1000)) / 10
	}
	for pins := rng.Intn(3); pins > 0; pins-- {
		_ = p.SetBounds(rng.Intn(n), 1, float64(cap))
	}
	for j := n; j < n+slots; j++ {
		_ = p.SetBounds(j, 0, 0)
	}
	sense := lp.Maximize
	if rng.Intn(2) == 0 {
		sense = lp.Minimize
	}
	_ = p.SetObjective(obj, sense)

	k := 2 + rng.Intn(6)
	count := make([]lp.Coef, n)
	for j := range count {
		count[j] = lp.Coef{Var: j, Val: 1}
	}
	if rng.Intn(2) == 0 {
		_, _ = p.AddConstraint(count, lp.EQ, float64(k))
	} else {
		_, _ = p.AddConstraint(count, lp.GE, float64(k-1))
		_, _ = p.AddConstraint(count, lp.LE, float64(k+1))
	}
	for sums := 1 + rng.Intn(3); sums > 0; sums-- {
		row := make([]lp.Coef, n)
		for j := range row {
			row[j] = lp.Coef{Var: j, Val: float64(50 + rng.Intn(900))}
		}
		rhs := float64(k) * 500 * (0.6 + 0.8*rng.Float64())
		op := lp.LE
		if rng.Intn(2) == 0 {
			op = lp.GE
		}
		_, _ = p.AddConstraint(row, op, rhs)
	}
	if cap == 1 && rng.Intn(3) == 0 {
		// An exclusion cut: not exactly the k tuples of some package.
		in := map[int]bool{}
		for len(in) < k {
			in[rng.Intn(n)] = true
		}
		row := make([]lp.Coef, n)
		for j := range row {
			row[j] = lp.Coef{Var: j, Val: -1}
			if in[j] {
				row[j].Val = 1
			}
		}
		_, _ = p.AddConstraint(row, lp.LE, float64(k-1))
	}
	if withOr {
		// SUM(w) ≤ b OR COUNT(*) ≥ k+1, one indicator z: the first holds
		// when z = 0, the second when z = 1.
		z := n + slots
		_ = p.SetBounds(z, 0, 1)
		mp.SetInteger(z)
		const bigM = 1e6
		row := make([]lp.Coef, 0, n+1)
		for j := 0; j < n; j++ {
			row = append(row, lp.Coef{Var: j, Val: float64(rng.Intn(50))})
		}
		_, _ = p.AddConstraint(append(row, lp.Coef{Var: z, Val: -bigM}), lp.LE, float64(20*k))
		_, _ = p.AddConstraint(append(count[:n:n], lp.Coef{Var: z, Val: -bigM}), lp.GE, float64(k+1)-bigM)
	}
	return mp
}

// agree checks got against the oracle's want: the same status and, with
// an incumbent, the same objective and an integral point inside every
// original row.
func agree(t *testing.T, name string, mp *Problem, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, the plain search says %v", name, got.Status, want.Status)
	}
	if want.X == nil {
		return
	}
	if math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
		t.Fatalf("%s: objective %g, the plain search says %g", name, got.Objective, want.Objective)
	}
	if !mp.LP.Feasible(got.X, 0) || mostFractional(mp, got.X, 0) != -1 {
		t.Fatalf("%s: %v is not an integral point inside the rows", name, got.X)
	}
	if got.Status == StatusOptimal && got.Bound != got.Objective {
		t.Fatalf("%s: optimal with bound %g beside objective %g", name, got.Bound, got.Objective)
	}
}

// TestLPFirstMatchesPlainSearch: over 300 seeded package-shaped MILPs
// the LP-first root and the plain search agree on status and optimum,
// with and without an initial incumbent at least as good as the
// restricted search's.
func TestLPFirstMatchesPlainSearch(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 60
	}
	var nodes, plainNodes int
	for seed := 0; seed < cases; seed++ {
		mp := packageMILP(rand.New(rand.NewSource(int64(seed))))
		want := plainSolve(mp, Options{})
		var opt Options
		if seed%3 == 0 && want.X != nil {
			opt.InitialIncumbent = want.X
		}
		got := Solve(mp, opt)
		agree(t, fmt.Sprintf("seed %d", seed), mp, got, want)
		nodes += got.Nodes
		plainNodes += want.Nodes
	}
	t.Logf("%d MILPs: %d nodes LP-first, %d plain", cases, nodes, plainNodes)
}

// parityMILP maximises over four "pair" columns (weight 2, value 10,
// less spread per pair after the first) and odd columns (weight 1,
// value 1) under Σ weight·x = 7 (EQ) or ≤ 7 (LE), beside zeros columns
// that no row reads and the objective ignores. Without spread the root
// takes three and a half pairs at price 5, so every pair and every zero
// column prices at dⱼ = 0 and every odd column at −4: the restricted
// search gets the pairs and the first zero columns, and never an odd
// one. With spread the pairs price a little above 0 and each branch on
// them lowers the bound.
func parityMILP(op lp.Op, zeros, odds int, spread float64) *Problem {
	n := 4 + zeros + odds
	p := lp.NewProblem(n)
	mp := NewProblem(p)
	obj := make([]float64, n)
	row := make([]lp.Coef, 0, 4+odds)
	for j := 0; j < n; j++ {
		_ = p.SetBounds(j, 0, 1)
		mp.SetInteger(j)
		switch {
		case j < 4:
			obj[j] = 10 - spread*float64(j)
			row = append(row, lp.Coef{Var: j, Val: 2})
		case j >= 4+zeros:
			obj[j] = 1
			row = append(row, lp.Coef{Var: j, Val: 1})
		}
	}
	_ = p.SetObjective(obj, lp.Maximize)
	_, _ = p.AddConstraint(row, op, 7)
	return mp
}

// TestLPFirstUnfixedOutsideS: 300 zero columns price at dⱼ = 0, so no
// fixing touches them and 200 of them lie outside the restricted
// search's columns. The incumbent it finds (three pairs, 30) is then
// confirmed by the search over the unfixed columns, which must still
// prove it.
func TestLPFirstUnfixedOutsideS(t *testing.T) {
	mp := parityMILP(lp.LE, 300, 0, 0)
	got, want := Solve(mp), plainSolve(mp, Options{})
	agree(t, "unfixed outside S", mp, got, want)
	if got.Status != StatusOptimal || got.Objective != 30 {
		t.Fatalf("status %v objective %g, want optimal 30", got.Status, got.Objective)
	}
}

// TestLPFirstInfeasibleS: under Σ weight·x = 7 the restricted search
// holds only weight-2 and zero columns, so it has no integer point; the
// solve carries on from the root it already solved and finds three
// pairs and one odd column.
func TestLPFirstInfeasibleS(t *testing.T) {
	mp := parityMILP(lp.EQ, 120, 100, 0)
	got, want := Solve(mp), plainSolve(mp, Options{})
	agree(t, "infeasible S", mp, got, want)
	if got.Status != StatusOptimal || got.Objective != 31 {
		t.Fatalf("status %v objective %g, want optimal 31", got.Status, got.Objective)
	}
}

// pollCtx is a context whose Done channel reads closed from its after-th
// read on, or, blinking, at that one read only: a simplex that polls it
// then stops at its iteration limit while the search's own next poll
// sees nothing.
type pollCtx struct {
	context.Context
	reads, after int
	blink        bool
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *pollCtx) Done() <-chan struct{} {
	c.reads++
	if c.reads == c.after || !c.blink && c.reads > c.after {
		return closedDone
	}
	return nil
}

// unproven fails a solve that claims a proof it cannot have: optimal or
// infeasible after a cancellation, optimal at another objective than
// the oracle's, or a bound on the wrong side of its incumbent.
func unproven(t *testing.T, name string, mp *Problem, got, want *Solution) {
	t.Helper()
	switch {
	case got.Canceled && (got.Status == StatusOptimal || got.Status == StatusInfeasible):
		t.Fatalf("%s: cancelled, yet %v", name, got.Status)
	case got.Status == StatusOptimal || got.Status == StatusInfeasible:
		agree(t, name, mp, got, want)
	case got.X != nil:
		if !mp.LP.Feasible(got.X, 0) {
			t.Fatalf("%s: incumbent breaks a row", name)
		}
		maximize := mp.LP.Sense() == lp.Maximize
		if maximize && got.Bound < got.Objective || !maximize && got.Bound > got.Objective {
			t.Fatalf("%s: bound %g on the wrong side of incumbent %g", name, got.Bound, got.Objective)
		}
		if maximize && got.Bound < want.Objective-1e-6 || !maximize && got.Bound > want.Objective+1e-6 {
			t.Fatalf("%s: bound %g cuts off the optimum %g", name, got.Bound, want.Objective)
		}
	}
}

// TestLPFirstStopsWithoutProof: a context cancelled before the solve, a
// context cancelled at each read in turn (inside the root, the
// restricted search, fixing's search), one that blinks at a single read
// so a relaxation stops short uncancelled, a deadline already past, and
// node budgets from 1 up: none may claim optimal or infeasible without
// the proof.
func TestLPFirstStopsWithoutProof(t *testing.T) {
	cases := []*Problem{parityMILP(lp.LE, 300, 0, 0), parityMILP(lp.EQ, 120, 100, 0), parityMILP(lp.LE, 300, 0, 0.1)}
	for seed := 0; seed < 6; seed++ {
		cases = append(cases, packageMILP(rand.New(rand.NewSource(int64(seed)))))
	}
	for ci, mp := range cases {
		want := plainSolve(mp, Options{})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got := Solve(mp, Options{Ctx: ctx})
		if !got.Canceled || got.Status != StatusLimit || got.Nodes != 0 {
			t.Fatalf("case %d, cancelled context: canceled %v status %v nodes %d", ci, got.Canceled, got.Status, got.Nodes)
		}
		got = Solve(mp, Options{Deadline: time.Unix(1, 0)})
		if got.Status != StatusLimit || got.Nodes != 0 {
			t.Fatalf("case %d, past deadline: status %v nodes %d", ci, got.Status, got.Nodes)
		}
		for after := 1; after < 400; after += 7 {
			for _, blink := range []bool{false, true} {
				name := fmt.Sprintf("case %d, context read %d (blink %v)", ci, after, blink)
				unproven(t, name, mp, Solve(mp, Options{Ctx: &pollCtx{Context: context.Background(), after: after, blink: blink}}), want)
			}
		}
		for budget := 1; budget <= 40; budget++ {
			got := Solve(mp, Options{MaxNodes: budget})
			if got.Nodes > budget {
				t.Fatalf("case %d: %d nodes under a budget of %d", ci, got.Nodes, budget)
			}
			unproven(t, fmt.Sprintf("case %d, budget %d", ci, budget), mp, got, want)
		}
	}
}

// TestLPFirstNeedsBoundedIntegerColumns: one continuous column free to
// move, or one integer column without an upper bound, and the root is
// the plain search's, node for node.
func TestLPFirstNeedsBoundedIntegerColumns(t *testing.T) {
	for _, loosen := range []func(mp *Problem){
		func(mp *Problem) { mp.Integer[0] = false },
		func(mp *Problem) { _ = mp.LP.SetBounds(0, 0, lp.Inf) },
	} {
		mp := packageMILP(rand.New(rand.NewSource(1)))
		loosen(mp)
		got, want := Solve(mp), plainSolve(mp, Options{})
		agree(t, "loosened", mp, got, want)
		if got.Nodes != want.Nodes || got.LPIters != want.LPIters {
			t.Fatalf("%d nodes and %d iterations, the plain search %d and %d", got.Nodes, got.LPIters, want.Nodes, want.LPIters)
		}
	}
}

// TestNodeBudgetOfItsOwnSizeProves: a search re-run with MaxNodes set
// to the nodes it took finishes the same proof, since the nodes it
// leaves open are all dominated and pruned before the budget is read.
func TestNodeBudgetOfItsOwnSizeProves(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(20)
		v := make([]float64, n)
		w := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(100) + 1)
			w[i] = float64(rng.Intn(50) + 1)
		}
		mp := buildKnapsack(v, w, float64(10*n))
		first := Solve(mp)
		again := Solve(mp, Options{MaxNodes: first.Nodes})
		if first.Status != StatusOptimal || again.Status != StatusOptimal || again.Objective != first.Objective {
			t.Fatalf("seed %d: %v %g in %d nodes, then %v %g under MaxNodes %d",
				seed, first.Status, first.Objective, first.Nodes, again.Status, again.Objective, first.Nodes)
		}
	}
}

// TestStoppedRelaxationIsNoProof: a node relaxation that stops at its
// iteration limit without a cancelled context leaves its subtree
// unsearched. Here the root's simplex stops at its first iteration, so
// nothing is known: the solve reports a limit with an infinite bound,
// not an infeasible problem.
func TestStoppedRelaxationIsNoProof(t *testing.T) {
	mp := buildKnapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	got := Solve(mp, Options{Ctx: &pollCtx{Context: context.Background(), after: 2, blink: true}})
	if got.Status != StatusLimit || got.Canceled || !math.IsInf(got.Bound, 1) {
		t.Fatalf("status %v canceled %v bound %g; want limit, not canceled, bound +Inf", got.Status, got.Canceled, got.Bound)
	}
}

// FuzzPresolveVsSearch holds the LP-first root to the plain search on
// package-shaped MILPs drawn from the fuzzed seed, with the oracle's
// optimum as the initial incumbent when flags' low bit is set.
func FuzzPresolveVsSearch(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, flags uint8) {
		mp := packageMILP(rand.New(rand.NewSource(seed)))
		want := plainSolve(mp, Options{})
		var opt Options
		if flags&1 == 1 && want.X != nil {
			opt.InitialIncumbent = want.X
		}
		agree(t, fmt.Sprintf("seed %d flags %d", seed, flags), mp, Solve(mp, opt), want)
	})
}
