package bound_test

// Bound-soundness harness. The theorem under test is weak duality at
// the linear-atom layer: for any conjunction (or DNF union) of linear
// atoms over integer multiplicities, a certified outcome's Bound must
// never be beaten by the exact integer optimum — an upper bound for a
// maximization, a lower bound for a minimization. TestBoundSoundness1000
// replays ≥1000 deterministic generated systems spanning the lowered
// forms of the full atom grammar (SUM/COUNT/AVG/filtered atoms, MIN/MAX
// exclusion and at-least-one rows, equalities, BETWEEN band pairs,
// disjunctions, pins, objective constants) against the exact MILP and
// demands zero violations, with quantile gates on how tight the
// certificate runs.

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

// certify runs the pass over every tuple, each in [pin, maxMult] (maxMult
// ≤ 0: uncapped).
func certify(ctx context.Context, atoms []*translate.LinearAtom, objW []float64, sense lp.Sense, konst float64, maxMult int, pins map[int]bool) (bound.PipelineResult, error) {
	hi := lp.Inf
	if maxMult > 0 {
		hi = float64(maxMult)
	}
	return bound.Certify(bound.PipelineOptions{
		Ctx: ctx, Atoms: atoms, ObjW: objW, Konst: konst, Sense: sense,
		TupleLo: func(i int) float64 {
			if pins[i] {
				return 1
			}
			return 0
		},
		TupleHi: func(int) float64 { return hi },
	})
}

// TestPadDirection: the rounding margin moves a bound the safe way — up
// for a maximization, down for a minimization — and never past what the
// arithmetic can be off by. One tuple pinned at 1 with weight 10 has LP
// optimum 10 in either sense.
func TestPadDirection(t *testing.T) {
	for _, c := range []struct {
		sense lp.Sense
		konst float64
	}{{lp.Maximize, 0}, {lp.Minimize, 0}, {lp.Maximize, -20}, {lp.Minimize, -20}} {
		pr, err := certify(context.Background(), nil, []float64{10}, c.sense, c.konst, 1, map[int]bool{0: true})
		if err != nil || !pr.Certified {
			t.Fatalf("%+v: not certified (%v): %+v", c, err, pr)
		}
		want := 10 + c.konst
		if c.sense == lp.Maximize && pr.Bound <= want || c.sense == lp.Minimize && pr.Bound >= want {
			t.Errorf("%+v: bound %g is not padded away from the optimum %g", c, pr.Bound, want)
		}
		if math.Abs(pr.Bound-want) > 1e-12 {
			t.Errorf("%+v: bound %g padded by more than its margin around %g", c, pr.Bound, want)
		}
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

// TestRelaxSingletonKnapsack pins the certificate on a hand-checked
// knapsack: maximize 6m0+5m1+4m2 s.t. 5m0+4m1+3m2 ≤ 10, 0 ≤ m ≤ 1.
// Density ordering fills m2 = 1, m1 = 1 and 3/5 of m0, so the LP optimum
// is 12.6; the certified bound must be 12.6 plus its margin, and the
// integer optimum 11 must respect it.
func TestRelaxSingletonKnapsack(t *testing.T) {
	atoms := []*translate.LinearAtom{{W: []float64{5, 4, 3}, Op: lp.LE, RHS: 10}}
	objW := []float64{6, 5, 4}
	out, err := certify(context.Background(), atoms, objW, lp.Maximize, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Certified || out.Rounds != 1 {
		t.Fatalf("knapsack certificate: %+v, want certified in one round", out)
	}
	lpOpt := 12.6
	if out.Bound < lpOpt || out.Bound-lpOpt > 1e-12 {
		t.Fatalf("bound = %g, want LP optimum %g plus its margin", out.Bound, lpOpt)
	}
}

// TestRelaxGroupedEnvelope: RunPipeline, the benchmark trace's form,
// certifies the tuples its groups hold, each within the tuple box — the
// same certificate as Certify over the same tuples, however they are
// grouped — and holds every other tuple at zero.
func TestRelaxGroupedEnvelope(t *testing.T) {
	atoms := []*translate.LinearAtom{{W: []float64{2, 8, 3, 9}, Op: lp.LE, RHS: 12}}
	objW := []float64{1, 7, 2, 6}
	one := func(int) float64 { return 1 }
	po := bound.PipelineOptions{Atoms: atoms, ObjW: objW, Sense: lp.Maximize, TupleHi: one}
	fine, err := bound.Certify(po)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := bound.RunPipeline(bound.SplitGroups([]bound.Group{{Tuples: []int{0, 1}}, {Tuples: []int{2, 3}}}, objW, lp.Maximize, 8, nil, one), po)
	if err != nil {
		t.Fatal(err)
	}
	if !fine.Certified || grouped != fine {
		t.Fatalf("grouped %+v, want Certify's %+v", grouped, fine)
	}
	// Without tuple 1, m3 = 1 (weight 9) and m2 = 1 (weight 3) fill the
	// row exactly: LP optimum 8.
	part, err := bound.RunPipeline([]bound.Group{{Tuples: []int{0}}, {Tuples: []int{2, 3}}}, po)
	if err != nil || !part.Certified || part.Bound < 8 || part.Bound-8 > 1e-12 {
		t.Fatalf("tuple 1 held at zero: %+v (%v), want 8 plus its margin", part, err)
	}
}

// TestSolveKonst: the affine objective constant dropped by the
// translation must come back in the certified bound.
func TestSolveKonst(t *testing.T) {
	out, err := certify(context.Background(), nil, []float64{1}, lp.Maximize, 41, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Certified || out.Bound < 42 {
		t.Fatalf("konst not added: %+v", out)
	}
}

// TestSolveCanceled: an interrupted pass proves nothing, so a canceled
// context must never yield a certified outcome.
func TestSolveCanceled(t *testing.T) {
	atoms := []*translate.LinearAtom{{W: []float64{1, 2, 1, 3}, Op: lp.LE, RHS: 5}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := certify(ctx, atoms, []float64{3, 5, 4, 7}, lp.Maximize, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Certified {
		t.Fatalf("canceled pass certified a bound: %+v", out)
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

// caseBound certifies every branch and merges.
func caseBound(c boundCase) (bound.Outcome, error) {
	outs := make([]bound.Outcome, 0, len(c.branches))
	for _, br := range c.branches {
		pr, err := certify(context.Background(), br, c.objW, c.sense, c.konst, c.maxMult, c.pins)
		if err != nil {
			return bound.Outcome{}, err
		}
		outs = append(outs, pr.Outcome)
	}
	return bound.Best(c.sense, outs), nil
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
// least 1000 generated systems (a smaller slice under -short) where the
// exact MILP proves its answer, each checked against the certificate,
// with zero bound violations, per-atom-kind coverage, no infeasibility
// claimed where a package exists, and quantile gates on how tight the
// certificate runs.
func TestBoundSoundness1000(t *testing.T) {
	target := 1000
	if testing.Short() {
		target = 150
	}
	rng := rand.New(rand.NewSource(20260808))
	kinds := map[string]int{}
	ran, feasible, infeasAgree := 0, 0, 0
	var gaps []float64
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

		cert, err := caseBound(c)
		if err != nil {
			t.Fatalf("certify: %v", err)
		}
		if exactFeasible {
			feasible++
			tol := 1e-6 * (1 + math.Abs(exactObj))
			if cert.Certified && beats(c.sense, exactObj, cert.Bound, tol) {
				t.Fatalf("BOUND VIOLATION: exact %g beats certified bound %g (sense %v, case %d)",
					exactObj, cert.Bound, c.sense, ran)
			}
			// At the linear-atom layer the relaxation's feasible set
			// contains every integral package, so a certified-infeasible
			// union with an exactly-feasible instance is a soundness bug.
			if cert.Infeasible {
				t.Fatalf("certificate claims infeasible but exact found %g (case %d)", exactObj, ran)
			}
			if cert.Certified {
				gaps = append(gaps, bound.Interval{Found: exactObj, Bound: cert.Bound}.Gap())
			}
		} else if cert.Infeasible {
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
	// Tightness gates: most small integer programs have modest LP gaps; a
	// loosening regression shows up as the quantiles sliding out.
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
		t.Errorf("only %.0f%% of certified bounds within a 10%% gap (want >= 50%%)", 100*frac)
	}
	if frac := float64(within50) / float64(len(gaps)); frac < 0.80 {
		t.Errorf("only %.0f%% of certified bounds within a 50%% gap (want >= 80%%)", 100*frac)
	}
}
