package bound_test

// Bound-soundness harness. The theorem under test is weak duality at
// the linear-atom layer: for any conjunction (or DNF union) of linear
// atoms over integer multiplicities, a certified outcome's Bound must
// never be beaten by the exact integer optimum — an upper bound for a
// maximization, a lower bound for a minimization — for BOTH groupings
// the engine uses (exact singleton relaxation and coarse coefficient-
// range groups). TestBoundSoundness1000 replays ≥1000 deterministic
// generated systems spanning the lowered forms of the full atom
// grammar (SUM/COUNT/AVG/filtered atoms, MIN/MAX exclusion and
// at-least-one rows, equalities, BETWEEN band pairs, disjunctions,
// pins, objective constants) against the exact MILP and demands zero
// violations. The same systems also run through the full tightening
// pipeline (segment split + Lagrangian rounds) over the coarse groups,
// with a gap-quantile gate the bare coarse envelope does not meet — the
// regression tripwire for the stages.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bound"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/translate"
)

func TestPadDirection(t *testing.T) {
	if b := bound.Pad(10, lp.Maximize); b <= 10 {
		t.Fatalf("maximize pad must raise the bound, got %g", b)
	}
	if b := bound.Pad(10, lp.Minimize); b >= 10 {
		t.Fatalf("minimize pad must lower the bound, got %g", b)
	}
	if b := bound.Pad(-10, lp.Maximize); b <= -10 {
		t.Fatalf("pad must move toward +inf for maximize even below zero, got %g", b)
	}
}

func TestIntervalGap(t *testing.T) {
	if g := (bound.Interval{Found: 100, Bound: 105}).Gap(); math.Abs(g-0.05) > 1e-12 {
		t.Fatalf("gap = %g, want 0.05", g)
	}
	// Near-zero incumbents divide by 1, not by |Found|.
	if g := (bound.Interval{Found: 0, Bound: 0.5}).Gap(); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("gap = %g, want 0.5", g)
	}
	if g := (bound.Interval{Found: -100, Bound: -105}).Gap(); math.Abs(g-0.05) > 1e-12 {
		t.Fatalf("gap must be sign-agnostic, got %g", g)
	}
}

func TestCandidatesGrouping(t *testing.T) {
	gs := bound.Candidates(3, 2, map[int]bool{1: true})
	if len(gs) != 3 {
		t.Fatalf("want 3 singleton groups, got %d", len(gs))
	}
	if gs[1].Lo != 1 || gs[0].Lo != 0 {
		t.Fatalf("pin lower bounds wrong: %+v", gs)
	}
	if gs[0].Hi != 2 {
		t.Fatalf("maxMult cap wrong: %+v", gs[0])
	}
	if un := bound.Candidates(1, 0, nil); !math.IsInf(un[0].Hi, 1) {
		t.Fatalf("maxMult 0 must mean uncapped, got %g", un[0].Hi)
	}
}

// rawLP certifies a grouping with the pipeline capped at its first
// stage: one relaxation, one solve — the certificate the sketch engine
// ships over raw candidates.
func rawLP(ctx context.Context, atoms []*translate.LinearAtom, objW []float64, sense lp.Sense, konst float64, groups []bound.Group) (bound.Outcome, error) {
	pr, err := bound.RunPipeline(groups, bound.PipelineOptions{
		Ctx: ctx, Atoms: atoms, ObjW: objW, Konst: konst, Sense: sense, MaxStage: bound.StageTreeLP,
	})
	return pr.Outcome, err
}

// TestRelaxSingletonKnapsack pins the exact-relaxation regime on a
// hand-checked knapsack: maximize 6m0+5m1+4m2 s.t. 5m0+4m1+3m2 ≤ 10,
// 0 ≤ m ≤ 1. Density ordering fills m2 = 1, m1 = 1 and 3/5 of m0, so
// the LP optimum is 12.6; the certified bound must be 12.6 plus pad,
// and the integer optimum 11 must respect it.
func TestRelaxSingletonKnapsack(t *testing.T) {
	atoms := []*translate.LinearAtom{{W: []float64{5, 4, 3}, Op: lp.LE, RHS: 10}}
	objW := []float64{6, 5, 4}
	out, err := rawLP(context.Background(), atoms, objW, lp.Maximize, 0, bound.Candidates(3, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Certified {
		t.Fatalf("knapsack relaxation must certify: %+v", out)
	}
	lpOpt := 12.6
	if math.Abs(out.Bound-lpOpt) > 1e-6*lpOpt {
		t.Fatalf("bound = %g, want LP optimum %g (+pad)", out.Bound, lpOpt)
	}
	if out.Bound < 11 {
		t.Fatalf("bound %g beaten by integer optimum 11", out.Bound)
	}
}

// TestRelaxGroupedEnvelope checks the coefficient-range reduction: a ≤
// row must take each group's minimum weight and the maximize objective
// its maximum, making the grouped optimum an over-estimate of the
// singleton one — never an under-estimate.
func TestRelaxGroupedEnvelope(t *testing.T) {
	atoms := []*translate.LinearAtom{{W: []float64{2, 8, 3, 9}, Op: lp.LE, RHS: 12}}
	objW := []float64{1, 7, 2, 6}
	fo, err := rawLP(context.Background(), atoms, objW, lp.Maximize, 0, bound.Candidates(4, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	co, err := rawLP(context.Background(), atoms, objW, lp.Maximize, 0, []bound.Group{
		{Tuples: []int{0, 1}, Hi: 2},
		{Tuples: []int{2, 3}, Hi: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fo.Certified || !co.Certified {
		t.Fatalf("both relaxations must certify: %+v %+v", fo, co)
	}
	if co.Bound < fo.Bound-1e-9 {
		t.Fatalf("coarse bound %g below fine bound %g: grouping must only loosen", co.Bound, fo.Bound)
	}
}

// TestSolveKonst: the affine objective constant dropped by the
// translation must come back in the certified bound.
func TestSolveKonst(t *testing.T) {
	out, err := rawLP(context.Background(), nil, []float64{1}, lp.Maximize, 41, bound.Candidates(1, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Certified || out.Bound < 42 {
		t.Fatalf("konst not added: %+v", out)
	}
}

// TestSolveCanceled: an interrupted simplex proves nothing, so a
// canceled context must never yield a certified outcome.
func TestSolveCanceled(t *testing.T) {
	atoms := []*translate.LinearAtom{{W: []float64{1, 2, 1, 3}, Op: lp.LE, RHS: 5}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := rawLP(ctx, atoms, []float64{3, 5, 4, 7}, lp.Maximize, 0, bound.Candidates(4, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Certified {
		t.Fatalf("canceled solve certified a bound: %+v", out)
	}
}

func TestBestMerge(t *testing.T) {
	cert := func(b float64) bound.Outcome { return bound.Outcome{Bound: b, Certified: true} }
	cases := []struct {
		name string
		outs []bound.Outcome
		want bound.Outcome
	}{
		{"empty", nil, bound.Outcome{}},
		{"max-picks-largest", []bound.Outcome{cert(3), cert(7)}, bound.Outcome{Bound: 7, Certified: true}},
		{"infeasible-branch-skipped", []bound.Outcome{{Infeasible: true}, cert(4)}, bound.Outcome{Bound: 4, Certified: true}},
		{"uncertified-branch-poisons", []bound.Outcome{cert(4), {}}, bound.Outcome{Bound: 4}},
		{"all-infeasible", []bound.Outcome{{Infeasible: true}, {Infeasible: true}}, bound.Outcome{Infeasible: true}},
	}
	for _, c := range cases {
		got := bound.Best(lp.Maximize, c.outs)
		got.Iterations = 0
		if got != c.want {
			t.Errorf("%s: Best = %+v, want %+v", c.name, got, c.want)
		}
	}
	got := bound.Best(lp.Minimize, []bound.Outcome{cert(3), cert(7)})
	if got.Bound != 3 || !got.Certified {
		t.Errorf("minimize union must keep the smallest bound: %+v", got)
	}
}

// boundCase is one generated differential system: a DNF union of
// linear-atom conjunctions plus an objective, mirroring what the
// engine's lowering produces for the full PaQL atom grammar.
type boundCase struct {
	n        int
	maxMult  int
	branches [][]*translate.LinearAtom
	objW     []float64
	sense    lp.Sense
	konst    float64
	pins     map[int]bool
	kinds    map[string]bool
}

// genBoundCase draws one system. Atom shapes follow the engine's
// lowerings: COUNT rows are all-ones, AVG(a) ≤ c lowers to
// SUM(a − c) ≤ 0, MIN(a) ≥ c to an exclusion row Σ_{a_t<c} m_t ≤ 0,
// MIN(a) ≤ c to an at-least-one row Σ_{a_t≤c} m_t ≥ 1 (MAX mirrored),
// filters zero a random subset of weights.
func genBoundCase(rng *rand.Rand) boundCase {
	c := boundCase{
		n:       6 + rng.Intn(18),
		maxMult: 1 + rng.Intn(2),
		kinds:   map[string]bool{},
		pins:    map[int]bool{},
	}
	attr := make([]float64, c.n)
	for i := range attr {
		attr[i] = float64(rng.Intn(100) - 10)
	}

	atom := func() *translate.LinearAtom {
		w := make([]float64, c.n)
		ops := []lp.Op{lp.LE, lp.GE}
		switch rng.Intn(8) {
		case 0:
			c.kinds["count"] = true
			for i := range w {
				w[i] = 1
			}
			op := []lp.Op{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
			if op == lp.EQ {
				c.kinds["eq"] = true
			}
			return &translate.LinearAtom{W: w, Op: op, RHS: float64(1 + rng.Intn(5))}
		case 1:
			c.kinds["sum"] = true
			copy(w, attr)
			op := []lp.Op{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
			if op == lp.EQ {
				c.kinds["eq"] = true
			}
			return &translate.LinearAtom{W: w, Op: op, RHS: float64(rng.Intn(260) - 40)}
		case 2:
			c.kinds["sum"] = true
			c.kinds["filter"] = true
			for i := range w {
				if rng.Intn(2) == 0 {
					w[i] = attr[i]
				}
			}
			return &translate.LinearAtom{W: w, Op: ops[rng.Intn(2)], RHS: float64(rng.Intn(160) - 40)}
		case 3:
			// AVG(attr) ≤/≥ cut lowered as SUM(attr − cut) ≤/≥ 0.
			c.kinds["avg"] = true
			cut := float64(rng.Intn(80) - 10)
			for i := range w {
				w[i] = attr[i] - cut
			}
			return &translate.LinearAtom{W: w, Op: ops[rng.Intn(2)], RHS: 0}
		case 4:
			// MIN(attr) ≥ cut: tuples below the cut are excluded.
			c.kinds["min"] = true
			cut := float64(rng.Intn(70) - 15)
			for i := range w {
				if attr[i] < cut {
					w[i] = 1
				}
			}
			return &translate.LinearAtom{W: w, Op: lp.LE, RHS: 0}
		case 5:
			// MAX(attr) ≥ cut: at least one tuple at or above the cut.
			c.kinds["max"] = true
			cut := float64(rng.Intn(90) - 10)
			for i := range w {
				if attr[i] >= cut {
					w[i] = 1
				}
			}
			return &translate.LinearAtom{W: w, Op: lp.GE, RHS: 1}
		case 6:
			// MAX(attr) ≤ cut: tuples above the cut are excluded.
			c.kinds["max"] = true
			cut := float64(rng.Intn(90) - 10)
			for i := range w {
				if attr[i] > cut {
					w[i] = 1
				}
			}
			return &translate.LinearAtom{W: w, Op: lp.LE, RHS: 0}
		default:
			c.kinds["sum"] = true
			for i := range w {
				w[i] = float64(rng.Intn(60))
			}
			return &translate.LinearAtom{W: w, Op: ops[rng.Intn(2)], RHS: float64(rng.Intn(200))}
		}
	}

	base := []*translate.LinearAtom{atom()}
	if rng.Intn(2) == 0 {
		base = append(base, atom())
	}
	if rng.Intn(3) == 0 {
		// SUM(w) BETWEEN lo AND hi lowers to a GE/LE pair over one weight
		// vector — the band rows the tightening stages exist for.
		c.kinds["band"] = true
		w := make([]float64, c.n)
		for i := range w {
			w[i] = float64(rng.Intn(80))
		}
		lo := float64(rng.Intn(120))
		base = append(base,
			&translate.LinearAtom{W: w, Op: lp.GE, RHS: lo},
			&translate.LinearAtom{W: append([]float64(nil), w...), Op: lp.LE, RHS: lo + float64(30+rng.Intn(150))})
	}
	nb := 1
	if rng.Intn(3) == 0 {
		c.kinds["or"] = true
		nb = 2 + rng.Intn(2)
	}
	for b := 0; b < nb; b++ {
		br := append([]*translate.LinearAtom{}, base...)
		if nb > 1 {
			br = append(br, atom())
		}
		c.branches = append(c.branches, br)
	}

	c.objW = make([]float64, c.n)
	for i := range c.objW {
		c.objW[i] = float64(rng.Intn(100) - 20)
	}
	c.sense = lp.Maximize
	if rng.Intn(2) == 0 {
		c.sense = lp.Minimize
	}
	if rng.Intn(4) == 0 {
		c.kinds["konst"] = true
		c.konst = float64(rng.Intn(20) - 10)
	}
	if rng.Intn(6) == 0 {
		c.kinds["pin"] = true
		c.pins[rng.Intn(c.n)] = true
	}
	return c
}

// exactBranch solves one branch's integer program to proven optimality
// or infeasibility; ok is false when the node limit fired first.
func exactBranch(c boundCase, atoms []*translate.LinearAtom) (obj float64, feasible, ok bool) {
	p := lp.NewProblem(c.n)
	for j := 0; j < c.n; j++ {
		lo := 0.0
		if c.pins[j] {
			lo = 1
		}
		if err := p.SetBounds(j, lo, float64(c.maxMult)); err != nil {
			return 0, false, false
		}
	}
	if err := p.SetObjective(c.objW, c.sense); err != nil {
		return 0, false, false
	}
	for _, at := range atoms {
		coefs := make([]lp.Coef, 0, c.n)
		for j, w := range at.W {
			if w != 0 {
				coefs = append(coefs, lp.Coef{Var: j, Val: w})
			}
		}
		if _, err := p.AddConstraint(coefs, at.Op, at.RHS); err != nil {
			return 0, false, false
		}
	}
	m := milp.NewProblem(p)
	for j := 0; j < c.n; j++ {
		m.SetInteger(j)
	}
	sol := milp.Solve(m, milp.Options{MaxNodes: 100000})
	switch sol.Status {
	case milp.StatusOptimal:
		return sol.Objective + c.konst, true, true
	case milp.StatusInfeasible:
		return 0, false, true
	}
	return 0, false, false
}

// groupBound relaxes every branch under the given grouping and merges.
func groupBound(c boundCase, groups []bound.Group) (bound.Outcome, error) {
	outs := make([]bound.Outcome, 0, len(c.branches))
	for _, br := range c.branches {
		out, err := rawLP(context.Background(), br, c.objW, c.sense, c.konst, groups)
		if err != nil {
			return bound.Outcome{}, err
		}
		outs = append(outs, out)
	}
	return bound.Best(c.sense, outs), nil
}

// pipelineBound runs the full tightening pipeline (segment split,
// Lagrangian rounds) per branch over the coarse grouping and merges —
// the tree-path bound the sketch engine ships above the raw-candidate
// cap.
func pipelineBound(c boundCase, coarse []bound.Group) bound.Outcome {
	tupleLo := func(t int) float64 {
		if c.pins[t] {
			return 1
		}
		return 0
	}
	tupleHi := func(t int) float64 { return float64(c.maxMult) }
	outs := make([]bound.Outcome, 0, len(c.branches))
	for _, br := range c.branches {
		split := bound.SplitGroups(coarse, c.objW, c.sense, 4*len(coarse), tupleLo, tupleHi)
		pr, _ := bound.RunPipeline(split, bound.PipelineOptions{
			Ctx:           context.Background(),
			Atoms:         br,
			ObjW:          c.objW,
			Konst:         c.konst,
			Sense:         c.sense,
			TightenRounds: bound.DefaultTightenRounds,
			TupleLo:       tupleLo,
			TupleHi:       tupleHi,
		})
		outs = append(outs, pr.Outcome)
	}
	return bound.Best(c.sense, outs)
}

// coarseGroups shuffles the candidates into 2-5 groups with Lo = pin
// count and Hi = member count × maxMult, mimicking tree leaves.
func coarseGroups(c boundCase, rng *rand.Rand) []bound.Group {
	perm := rng.Perm(c.n)
	k := 2 + rng.Intn(4)
	if k > c.n {
		k = c.n
	}
	groups := make([]bound.Group, k)
	for i, t := range perm {
		g := &groups[i%k]
		g.Tuples = append(g.Tuples, t)
		if c.pins[t] {
			g.Lo++
		}
	}
	for i := range groups {
		groups[i].Hi = float64(len(groups[i].Tuples) * c.maxMult)
	}
	return groups
}

// beats reports a violation: the exact optimum strictly beyond the
// certified bound (above it for Maximize, below for Minimize) past the
// relative tolerance.
func beats(sense lp.Sense, exact, b, tol float64) bool {
	if sense == lp.Maximize {
		return exact > b+tol
	}
	return exact < b-tol
}

// TestBoundSoundness1000 is the deterministic differential corpus: at
// least 1000 generated systems (a smaller slice under -short) where
// the exact MILP proves its answer, each checked against BOTH the
// singleton and the coarse grouped relaxation, with zero bound
// violations, per-atom-kind coverage, and quantile gates on how tight
// the exact relaxation runs.
func TestBoundSoundness1000(t *testing.T) {
	target := 1000
	if testing.Short() {
		target = 150
	}
	rng := rand.New(rand.NewSource(20260808))
	kinds := map[string]int{}
	ran, feasible, infeasAgree := 0, 0, 0
	var gaps, coarseGaps, pipeGaps []float64
	for attempts := 0; ran < target && attempts < 4*target; attempts++ {
		c := genBoundCase(rng)

		exactFeasible, exactObj, allProven := false, 0.0, true
		for _, br := range c.branches {
			obj, feas, ok := exactBranch(c, br)
			if !ok {
				allProven = false
				break
			}
			if feas && (!exactFeasible || beats(c.sense, obj, exactObj, 0)) {
				exactObj = obj
				exactFeasible = true
			}
		}
		if !allProven {
			continue
		}
		ran++
		for k := range c.kinds {
			kinds[k]++
		}

		fine, err := groupBound(c, bound.Candidates(c.n, c.maxMult, c.pins))
		if err != nil {
			t.Fatalf("fine relax: %v", err)
		}
		cg := coarseGroups(c, rng)
		coarse, err := groupBound(c, cg)
		if err != nil {
			t.Fatalf("coarse relax: %v", err)
		}
		pipe := pipelineBound(c, cg)

		if exactFeasible {
			feasible++
			tol := 1e-6 * (1 + math.Abs(exactObj))
			if fine.Certified && beats(c.sense, exactObj, fine.Bound, tol) {
				t.Fatalf("BOUND VIOLATION (singleton): exact %g beats certified bound %g (sense %v, case %d)",
					exactObj, fine.Bound, c.sense, ran)
			}
			if coarse.Certified && beats(c.sense, exactObj, coarse.Bound, tol) {
				t.Fatalf("BOUND VIOLATION (grouped): exact %g beats certified bound %g (sense %v, case %d)",
					exactObj, coarse.Bound, c.sense, ran)
			}
			if pipe.Certified && beats(c.sense, exactObj, pipe.Bound, tol) {
				t.Fatalf("BOUND VIOLATION (pipeline): exact %g beats certified bound %g (sense %v, case %d)",
					exactObj, pipe.Bound, c.sense, ran)
			}
			// At the linear-atom layer the relaxation's feasible set
			// contains every integral package, so a certified-infeasible
			// union with an exactly-feasible instance is a soundness bug.
			// The pipeline's stages only refine, so the same holds for it.
			if fine.Infeasible || coarse.Infeasible || pipe.Infeasible {
				t.Fatalf("relaxation claims infeasible but exact found %g (case %d)", exactObj, ran)
			}
			if fine.Certified {
				gaps = append(gaps, bound.Interval{Found: exactObj, Bound: fine.Bound}.Gap())
			}
			if coarse.Certified && pipe.Certified {
				// The pipeline starts from a refinement of the same coarse
				// grouping, so it may never come back looser.
				if beats(c.sense, pipe.Bound, coarse.Bound, tol) {
					t.Fatalf("pipeline bound %g looser than its own coarse envelope %g (sense %v, case %d)",
						pipe.Bound, coarse.Bound, c.sense, ran)
				}
				coarseGaps = append(coarseGaps, bound.Interval{Found: exactObj, Bound: coarse.Bound}.Gap())
				pipeGaps = append(pipeGaps, bound.Interval{Found: exactObj, Bound: pipe.Bound}.Gap())
			}
		} else if fine.Infeasible {
			infeasAgree++
		}
	}
	if ran < target {
		t.Fatalf("only %d of %d systems proved exactly", ran, target)
	}
	for _, k := range []string{"sum", "count", "avg", "min", "max", "filter", "eq", "or", "pin", "konst", "band"} {
		if kinds[k] == 0 {
			t.Errorf("atom kind %q never reached a proven head-to-head run", k)
		}
	}
	if feasible == 0 || len(gaps) == 0 {
		t.Fatal("no feasible certified comparisons; the harness is vacuous")
	}
	// Tightness gates on the exact (singleton) relaxation: most small
	// integer programs have modest LP gaps; a loosening regression
	// shows up as the quantiles sliding out.
	within10, within50 := 0, 0
	for _, g := range gaps {
		if g <= 0.10 {
			within10++
		}
		if g <= 0.50 {
			within50++
		}
	}
	t.Logf("ran=%d feasible=%d certified-gaps=%d within10%%=%d within50%%=%d infeas-agree=%d kinds=%v",
		ran, feasible, len(gaps), within10, within50, infeasAgree, kinds)
	if frac := float64(within10) / float64(len(gaps)); frac < 0.50 {
		t.Errorf("only %.0f%% of certified singleton bounds within a 10%% gap (want >= 50%%)", 100*frac)
	}
	if frac := float64(within50) / float64(len(gaps)); frac < 0.80 {
		t.Errorf("only %.0f%% of certified singleton bounds within a 50%% gap (want >= 80%%)", 100*frac)
	}
	// Pipeline tightness gate, calibrated so the bare coarse envelope
	// fails it: on the same coarse grouping the staged pipeline must pull
	// a clear majority of certified gaps under 25%, a quantile the
	// pre-pipeline envelopes never reached on this corpus.
	if len(pipeGaps) == 0 {
		t.Fatal("pipeline never certified a feasible head-to-head case")
	}
	cw25, pw25 := 0, 0
	for i := range pipeGaps {
		if coarseGaps[i] <= 0.25 {
			cw25++
		}
		if pipeGaps[i] <= 0.25 {
			pw25++
		}
	}
	t.Logf("coarse-vs-pipeline certified gaps: %d pairs, within25%% coarse=%d pipeline=%d",
		len(pipeGaps), cw25, pw25)
	if frac := float64(pw25) / float64(len(pipeGaps)); frac < 0.60 {
		t.Errorf("only %.0f%% of pipeline bounds within a 25%% gap (want >= 60%%): tightening stages regressed", 100*frac)
	}
}
