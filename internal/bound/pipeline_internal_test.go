package bound

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/lp"
	"repro/internal/search"
	"repro/internal/translate"
)

// bandFixture is the shape the bound pass meets on a banded sketch
// query: n tuples in calorie-sorted leaves of tau (what the partition
// tree's median splits produce), one COUNT equality, one SUM(calories)
// band lowered to its GE/LE pair, protein as the objective, every tuple
// capped at multiplicity 1.
func bandFixture(n, tau, maxVars int) ([]Group, PipelineOptions) {
	rng := rand.New(rand.NewSource(13))
	cal := make([]float64, n)
	protein := make([]float64, n)
	ones := make([]float64, n)
	for i := range cal {
		cal[i] = math.Round(math.Min(1400, math.Max(80, math.Exp(rng.NormFloat64()*0.45+6.05))))
		protein[i] = math.Round(math.Max(1, cal[i]*(0.02+0.03*rng.Float64())+rng.NormFloat64()*3))
		ones[i] = 1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cal[order[a]] < cal[order[b]] })
	var leaves []Group
	for a := 0; a < n; a += tau {
		b := min(a+tau, n)
		leaves = append(leaves, Group{Tuples: order[a:b], Hi: float64(b - a)})
	}
	one := func(int) float64 { return 1 }
	po := PipelineOptions{
		Atoms: []*translate.LinearAtom{
			{W: ones, Op: lp.EQ, RHS: 3},
			{W: cal, Op: lp.GE, RHS: 1500},
			{W: cal, Op: lp.LE, RHS: 2000},
		},
		ObjW:          protein,
		Sense:         lp.Maximize,
		TightenRounds: DefaultTightenRounds,
		TupleHi:       one,
	}
	return SplitGroups(leaves, protein, lp.Maximize, maxVars, nil, one), po
}

// TestPipelineSolvesEachGroupingOnce pins the pass's LP budget: the
// grouping's relaxation is solved once — its prices are what the rounds
// consume — and the Lagrangian rounds solve none, so a band query costs
// one LP however many rounds it runs. The benchmark trace's spelling of
// the full pipeline, a MaxStage of StageDescend with a descent budget,
// runs that same pass.
func TestPipelineSolvesEachGroupingOnce(t *testing.T) {
	groups, po := bandFixture(4000, 64, 1024)
	run := func(stage string, budget int) (PipelineResult, int) {
		po := po
		po.MaxStage, po.DescendBudget = stage, budget
		pl := pipeline{po: &po}
		pr, err := pl.run(groups)
		if err != nil {
			t.Fatal(err)
		}
		return pr, pl.solves
	}

	pr, solves := run(StageTightened, 0)
	if !pr.Certified || pr.Stage != StageTightened || pr.Rounds == 0 {
		t.Fatalf("tightened run did not tighten: %+v", pr)
	}
	if solves != 1 {
		t.Errorf("StageTightened: %d LP solves for %d rounds, want the base solve alone", solves, pr.Rounds)
	}

	traced, solves := run(StageDescend, 4096)
	if !reflect.DeepEqual(traced, pr) {
		t.Errorf("MaxStage %s: %+v, want StageTightened's %+v", StageDescend, traced, pr)
	}
	if solves != 1 {
		t.Errorf("MaxStage %s: %d LP solves, want the base solve alone", StageDescend, solves)
	}
}

// TestTightenRoundsPollStop states the rounds' cancellation cadence: with
// no simplex left in them they poll the stop hook themselves, once per
// search.PollRows tuples, and the poll that fires ends tighten then and
// there — no further poll, no retry over a dead context — with the bound
// and the count of the rounds already completed.
func TestTightenRoundsPollStop(t *testing.T) {
	const n = 50000
	groups, po := bandFixture(n, 256, 8192)
	// tightenUnder solves the base grouping unobserved, then runs the
	// rounds under a hook that fires at its fireAt-th poll (0 = never).
	var base float64
	tightenUnder := func(fireAt int) (best float64, rounds, polls int) {
		po := po
		pl := pipeline{po: &po}
		r, sol, out, err := pl.solveGrouped(groups)
		if err != nil || !out.Certified {
			t.Fatalf("base relaxation did not certify: %+v", out)
		}
		pl.cancel = func() bool {
			polls++
			return fireAt > 0 && polls >= fireAt
		}
		pr := PipelineResult{Outcome: out}
		if pl.tighten(r, sol.Duals, &pr) {
			t.Fatalf("fireAt=%d: tighten declared the fixture infeasible", fireAt)
		}
		base = out.Bound
		return pr.Bound, pr.Rounds, polls
	}
	full, rounds, total := tightenUnder(0)
	if rounds == 0 || full >= base {
		t.Fatalf("the fixture did not tighten: %g after %d rounds, base %g", full, rounds, base)
	}
	if total < rounds*(n/search.PollRows) {
		t.Errorf("%d polls over %d rounds of %d tuples, want at least %d per round", total, rounds, n, n/search.PollRows)
	}
	perRound := total / rounds
	for _, fireAt := range []int{1, total / 2, total} {
		best, got, polls := tightenUnder(fireAt)
		if polls != fireAt {
			t.Errorf("fireAt=%d of %d: %d polls, want none after the one that fired", fireAt, total, polls)
		}
		if want := (fireAt - 1) / perRound; got != want {
			t.Errorf("fireAt=%d of %d: %d rounds reported, want the %d completed", fireAt, total, got, want)
		}
		if best < full || best > base || (got == 0) != (best == base) {
			t.Errorf("fireAt=%d of %d: bound %g after %d rounds, want the base solve's %g tightened no further than the full search's %g", fireAt, total, best, got, base, full)
		}
	}
}

// referenceLagrangian is the Lagrangian round as it ran until the
// selection replaced it, kept as the oracle: assemble the tuple-level
// inner LP — one singleton column per kept tuple under its own bounds,
// the adjusted objective c − Σᵢ yᵢaᵢ, the unpriced rows as they stand —
// and hand it to the simplex. act receives the priced rows' activities
// at its optimum.
func referenceLagrangian(po *PipelineOptions, kept []int, inner []*translate.LinearAtom, rows []dualRow, act []float64) (float64, lp.Status) {
	adj := append([]float64(nil), po.ObjW...)
	konst := 0.0
	for _, d := range rows {
		for t := range adj {
			adj[t] -= d.y * d.w[t]
		}
		konst += d.y * d.rhs
	}
	p := lp.NewProblem(len(kept))
	dense := make([]float64, len(kept))
	for j, t := range kept {
		if err := p.SetBounds(j, po.tupleLo(t), po.tupleHi(t)); err != nil {
			return 0, lp.StatusIterLimit
		}
		dense[j] = adj[t]
	}
	if err := p.SetObjective(dense, po.Sense); err != nil {
		return 0, lp.StatusIterLimit
	}
	coefs := make([]lp.Coef, 0, len(kept))
	for _, at := range inner {
		for j, t := range kept {
			dense[j] = at.W[t]
		}
		addRow(p, coefs, dense, at.Op, at.RHS)
	}
	sol := lp.Solve(p, lp.Options{})
	if sol.Status != lp.StatusOptimal {
		return 0, sol.Status
	}
	for i, d := range rows {
		act[i] = 0
		for j, t := range kept {
			act[i] += d.w[t] * sol.X[j]
		}
	}
	return sol.Objective + konst, sol.Status
}

// TestLagrangianSelectMatchesLP is the closed-form round's differential
// test: over generated systems and random sign-valid multipliers, the
// selection's L(y), status and priced-row activities must equal the
// simplex's on the tuple-level inner problem. The systems cover both
// senses, pinned tuples, per-tuple caps of 1–3, tuples no group holds,
// cardinality rows of every operator with positive, negative and zero
// constants (a zero row is one that is constant on the kept tuples only,
// as a MIN/MAX elimination row is), up to seven priced rows, open bands
// with uncapped tuples (unbounded) and bands out of reach (infeasible).
func TestLagrangianSelectMatchesLP(t *testing.T) {
	const systems = 600
	rng := rand.New(rand.NewSource(20))
	ops := []lp.Op{lp.LE, lp.GE, lp.EQ}
	seen := map[string]int{}
	statuses := map[lp.Status]int{}
	for sys := 0; sys < systems; sys++ {
		n := 6 + rng.Intn(30)
		maxMult := float64(1 + rng.Intn(3))
		uncapped := rng.Intn(8) == 0
		lo, hi := make([]float64, n), make([]float64, n)
		var kept []int
		for i := range hi {
			if rng.Intn(5) == 0 {
				continue // dropped: in no group, capped at 0
			}
			kept = append(kept, i)
			hi[i] = maxMult
			if uncapped && rng.Intn(3) == 0 {
				hi[i] = lp.Inf
			}
			if rng.Intn(10) == 0 {
				lo[i] = 1
				seen["pin"]++
			}
		}
		if len(kept) < 2 {
			continue
		}
		po := PipelineOptions{
			ObjW:    make([]float64, n),
			Sense:   []lp.Sense{lp.Maximize, lp.Minimize}[rng.Intn(2)],
			TupleLo: func(i int) float64 { return lo[i] },
			TupleHi: func(i int) float64 { return hi[i] },
		}
		for i := range po.ObjW {
			po.ObjW[i] = 40*rng.Float64() - 10
		}
		// Cardinality rows: a constant on the kept tuples, anything on the
		// dropped ones. RHS/c lands on halves, so bands end mid-tuple too.
		var inner []*translate.LinearAtom
		for k := rng.Intn(4); k > 0; k-- {
			c := []float64{1, 1, 2, -1, -2, 0}[rng.Intn(6)]
			w := make([]float64, n)
			for i := range w {
				w[i] = float64(rng.Intn(3))
			}
			for _, i := range kept {
				w[i] = c
			}
			at := &translate.LinearAtom{W: w, Op: ops[rng.Intn(3)], RHS: c * float64(rng.Intn(2*len(kept)+2)) / 2}
			switch {
			case c == 0:
				at.RHS = float64(rng.Intn(5) - 2)
				seen["zero"]++
			case c < 0:
				seen["negative"]++
			}
			if rng.Intn(12) == 0 { // out of reach of any box
				at.Op, at.RHS = lp.GE, c*float64(4*len(kept))
				if c < 0 {
					at.Op = lp.LE
				}
			}
			inner = append(inner, at)
		}
		// Priced rows: continuous weights, so no two tuples tie.
		priced := 1 + rng.Intn(7)
		if priced > 4 {
			seen["over4priced"]++
		}
		atoms := append([]*translate.LinearAtom(nil), inner...)
		for k := 0; k < priced; k++ {
			w := make([]float64, n)
			for i := range w {
				w[i] = 10 * rng.Float64()
			}
			atoms = append(atoms, &translate.LinearAtom{W: w, Op: ops[rng.Intn(3)], RHS: 30 * rng.Float64()})
		}
		rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
		po.Atoms = atoms

		groups := make([]Group, 1+rng.Intn(min(4, len(kept))))
		for _, i := range kept {
			g := &groups[rng.Intn(len(groups))]
			g.Tuples = append(g.Tuples, i)
			g.Lo += lo[i]
			g.Hi += hi[i]
		}
		groups = slices.DeleteFunc(groups, func(g Group) bool { return len(g.Tuples) == 0 })
		r, err := newRelaxation(atoms, po.ObjW, po.Sense, groups)
		if err != nil {
			t.Fatal(err)
		}
		rows, cLo, cHi, ok := priceRows(&po, r, make([]float64, r.p.NumRows()))
		if ok && len(rows) != priced {
			t.Fatalf("system %d: %d rows priced, want the %d with coefficient spread", sys, len(rows), priced)
		}
		pl := pipeline{po: &po}
		pl.box(groups)
		for trial := 0; trial < 3; trial++ {
			for i := range rows {
				rows[i].y = rng.NormFloat64()
				if rng.Intn(4) == 0 {
					rows[i].y = 0
				}
				rows[i].clamp()
			}
			act, wantAct := make([]float64, len(rows)), make([]float64, len(rows))
			// When priceRows itself finds the cardinality rows contradictory it
			// prices nothing; the oracle's verdict does not depend on prices.
			L, status := 0.0, lp.StatusInfeasible
			if ok {
				L, status = pl.lagrangianEval(rows, cLo, cHi, act)
			}
			wantL, want := referenceLagrangian(&po, kept, inner, rows, wantAct)
			statuses[want]++
			if status != want {
				t.Fatalf("system %d trial %d: selection says %v, the simplex %v (band [%g, %g])", sys, trial, status, want, cLo, cHi)
			}
			if status != lp.StatusOptimal {
				continue
			}
			if math.Abs(L-wantL) > 1e-9*(1+math.Abs(wantL)) {
				t.Fatalf("system %d trial %d: L(y) = %.12g, the simplex finds %.12g", sys, trial, L, wantL)
			}
			for i := range act {
				if math.Abs(act[i]-wantAct[i]) > 1e-9*(1+math.Abs(wantAct[i])) {
					t.Fatalf("system %d trial %d: row %d activity %.12g, the simplex's %.12g", sys, trial, i, act[i], wantAct[i])
				}
			}
		}
	}
	for _, k := range []string{"pin", "zero", "negative", "over4priced"} {
		if seen[k] == 0 {
			t.Errorf("no generated system had a %s case", k)
		}
	}
	for _, st := range []lp.Status{lp.StatusOptimal, lp.StatusInfeasible, lp.StatusUnbounded} {
		if statuses[st] == 0 {
			t.Errorf("no generated system ended %v", st)
		}
	}
	t.Logf("kinds %v, statuses %v", seen, statuses)
}

// BenchmarkRunPipeline50k is the bound layer's microbenchmark: the full
// tightened pass over 50,000 tuples in τ = 256 leaves segmented to at
// most 8,192 columns.
func BenchmarkRunPipeline50k(b *testing.B) {
	groups, po := bandFixture(50000, 256, 8192)
	po.MaxStage = StageTightened
	b.ReportAllocs()
	var pr PipelineResult
	for b.Loop() {
		pr, _ = RunPipeline(groups, po)
	}
	if !pr.Certified || pr.Rounds == 0 {
		b.Fatalf("pipeline did not certify and tighten: %+v", pr)
	}
	b.ReportMetric(float64(len(groups)), "columns")
}
