package bound

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/search"
	"repro/internal/translate"
)

// bandFixture is the shape the bound pass meets on a banded sketch
// query: n tuples in calorie-sorted leaves of tau (what the partition
// tree's median splits produce), one COUNT equality, one SUM(calories)
// band lowered to its GE/LE pair, protein as the objective, every tuple
// capped at multiplicity 1.
func bandFixture(n, tau int) ([]Group, PipelineOptions) {
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
	po := PipelineOptions{
		Atoms: []*translate.LinearAtom{
			{W: ones, Op: lp.EQ, RHS: 3},
			{W: cal, Op: lp.GE, RHS: 1500},
			{W: cal, Op: lp.LE, RHS: 2000},
		},
		ObjW:    protein,
		Sense:   lp.Maximize,
		TupleHi: func(int) float64 { return 1 },
	}
	return leaves, po
}

// TestPipelineSolvesEachGroupingOnce: the pass is one certificate,
// whatever grouping and stage a caller names. The benchmark trace's
// spelling — leaves split by SplitGroups, a MaxStage of StageDescend with
// a descent budget and tightening rounds — runs the very pass Certify
// runs over the same tuples, one master solve and one pricing pass a
// round, within the caps.
func TestPipelineSolvesEachGroupingOnce(t *testing.T) {
	leaves, po := bandFixture(4000, 64)
	pr, err := Certify(po)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Certified || pr.Rounds == 0 || pr.Rounds > MaxRounds || pr.Columns > MaxColumns {
		t.Fatalf("band fixture: %+v, want certified within %d rounds and %d columns", pr, MaxRounds, MaxColumns)
	}
	traced := po
	traced.MaxStage, traced.TightenRounds, traced.DescendBudget = StageDescend, DefaultTightenRounds, 4096
	got, err := RunPipeline(SplitGroups(leaves, po.ObjW, lp.Maximize, 8192, nil, po.TupleHi), traced)
	if err != nil || got != pr {
		t.Errorf("the trace's pass: %+v (%v), want Certify's %+v", got, err, pr)
	}
}

// TestTightenRoundsPollStop states the pass's cancellation cadence: the
// pricing passes poll the context once per search.PollRows tuples (and
// the master's simplex once per iteration), and the poll that fires ends
// the pass then and there — no further poll, no retry over a dead
// context — uncertified.
func TestTightenRoundsPollStop(t *testing.T) {
	const n = 50000
	_, po := bandFixture(n, 256)
	under := func(fireAt int) (PipelineResult, int) {
		polls := 0
		ps := &pass{po: &po, sgn: 1, poll: func() bool {
			polls++
			return fireAt > 0 && polls >= fireAt
		}}
		return ps.run(), polls
	}
	full, total := under(0)
	if !full.Certified || full.Rounds == 0 {
		t.Fatalf("the fixture did not certify: %+v", full)
	}
	if total < (full.Rounds+1)*(n/search.PollRows) {
		t.Errorf("%d polls over the seed and %d rounds of %d tuples, want at least %d per pass", total, full.Rounds, n, n/search.PollRows)
	}
	for _, fireAt := range []int{1, total / 2, total} {
		pr, polls := under(fireAt)
		if polls != fireAt {
			t.Errorf("fireAt=%d of %d: %d polls, want none after the one that fired", fireAt, total, polls)
		}
		if pr.Certified || pr.Infeasible {
			t.Errorf("fireAt=%d of %d: a canceled pass reported %+v", fireAt, total, pr)
		}
	}
}

// genCase draws one branch: n tuples, one to four rows of every relation
// over weights that are sometimes sparse and sometimes negative, a right
// side a random package meets (so most cases are feasible), an objective
// of either sense and constant, caps of 1–3 and an occasional pin.
func genCase(rng *rand.Rand, n int) (PipelineOptions, []float64, []float64) {
	lo, hi := make([]float64, n), make([]float64, n)
	cap := float64(1 + rng.Intn(3))
	x := make([]float64, n)
	for j := range hi {
		hi[j] = cap
		if rng.Intn(n) == 0 {
			lo[j] = 1
		}
		x[j] = math.Max(lo[j], float64(rng.Intn(2)))
	}
	po := PipelineOptions{ObjW: make([]float64, n), Konst: float64(rng.Intn(20) - 10), Sense: lp.Maximize}
	if rng.Intn(2) == 0 {
		po.Sense = lp.Minimize
	}
	for j := range po.ObjW {
		po.ObjW[j] = float64(rng.Intn(100) - 20)
	}
	for range 1 + rng.Intn(4) {
		w := make([]float64, n)
		act := 0.0
		for j := range w {
			if rng.Intn(3) > 0 {
				w[j] = float64(rng.Intn(60) - 10)
			}
			act += w[j] * x[j]
		}
		op := []lp.Op{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
		rhs := act
		switch op {
		case lp.LE:
			rhs += float64(rng.Intn(40))
		case lp.GE:
			rhs -= float64(rng.Intn(40))
		}
		if rng.Intn(8) == 0 {
			rhs = -rhs - 50 // likely infeasible
		}
		po.Atoms = append(po.Atoms, &translate.LinearAtom{W: w, Op: op, RHS: rhs})
	}
	po.TupleLo = func(j int) float64 { return lo[j] }
	po.TupleHi = func(j int) float64 { return hi[j] }
	return po, lo, hi
}

// exactLP solves po's relaxation over every column with lp.Solve, or with
// integer columns through milp; obj includes the constant.
func exactLP(po PipelineOptions, lo, hi []float64, integer bool) (obj float64, status string) {
	p := lp.NewProblem(len(po.ObjW))
	for j := range po.ObjW {
		_ = p.SetBounds(j, lo[j], hi[j])
	}
	_ = p.SetObjective(po.ObjW, po.Sense)
	for _, at := range po.Atoms {
		var coefs []lp.Coef
		for j, w := range at.W {
			if w != 0 {
				coefs = append(coefs, lp.Coef{Var: j, Val: w})
			}
		}
		_, _ = p.AddConstraint(coefs, at.Op, at.RHS)
	}
	if !integer {
		sol := lp.Solve(p)
		return sol.Objective + po.Konst, sol.Status.String()
	}
	mp := milp.NewProblem(p)
	for j := range po.ObjW {
		mp.SetInteger(j)
	}
	sol := milp.Solve(mp, milp.Options{MaxNodes: 20000})
	return sol.Objective + po.Konst, sol.Status.String()
}

// checkCertificate holds Certify to the LP over every column: certified
// within 1e-7 relative of its optimum (the pass's margin is far below
// it) and never beating it, Infeasible exactly when the LP is.
func checkCertificate(t *testing.T, name string, po PipelineOptions, lo, hi []float64) PipelineResult {
	t.Helper()
	pr, err := Certify(po)
	if err != nil {
		t.Fatal(err)
	}
	want, status := exactLP(po, lo, hi, false)
	switch status {
	case "optimal":
		tol := 1e-7 * (1 + math.Abs(want))
		if !pr.Certified || beyond(po.Sense, want, pr.Bound, 1e-9*(1+math.Abs(want))) || math.Abs(pr.Bound-want) > tol {
			t.Fatalf("%s: certificate %+v, LP over every column %.12g", name, pr, want)
		}
	case "infeasible":
		if !pr.Infeasible || pr.Certified {
			t.Fatalf("%s: the LP over every column is infeasible, the pass reported %+v", name, pr)
		}
	}
	return pr
}

// beyond reports that v lies past the bound b (above it maximizing,
// below it minimizing) by more than tol.
func beyond(sense lp.Sense, v, b, tol float64) bool {
	if sense == lp.Maximize {
		return v > b+tol
	}
	return v < b-tol
}

// TestLagrangianSelectMatchesLP: at any multipliers the pass's
// Lagrangian is a bound — for random row prices, each clamped to its
// row's sign by lp.Multiplier, L(y) never beats the LP optimum over every
// column (and so never the integer one) — and the pass's own certificate
// is that optimum: on small branches, which the seed covers whole, and on
// branches of 1,500 to 3,000 tuples, where pricing has to bring columns
// in.
func TestLagrangianSelectMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	below, priced := 0, 0
	for c := range 300 {
		n := 5 + rng.Intn(30)
		if c%10 == 0 {
			n = 1500 + rng.Intn(1500)
		}
		po, lo, hi := genCase(rng, n)
		name := fmt.Sprintf("case %d (n=%d)", c, n)
		pr := checkCertificate(t, name, po, lo, hi)
		if pr.Rounds > 1 {
			priced++
		}
		want, status := exactLP(po, lo, hi, false)
		if status != "optimal" {
			continue
		}
		ps := &pass{po: &po, sgn: 1}
		if po.Sense == lp.Minimize {
			ps.sgn = -1
		}
		for range 20 {
			ps.y = ps.y[:0]
			for _, at := range po.Atoms {
				ps.y = append(ps.y, lp.Multiplier(at.Op, po.Sense, 4*rng.NormFloat64()))
			}
			L, _ := ps.price(0)
			b := ps.sgn * L
			if beyond(po.Sense, want, b, 1e-9*(1+math.Abs(want))) {
				t.Fatalf("%s: L(y) = %.12g at y = %v beats the LP optimum %.12g", name, b, ps.y, want)
			}
			if math.Abs(b-want) > 1e-6*(1+math.Abs(want)) {
				below++
			}
		}
	}
	t.Logf("%d random multipliers bounded strictly; %d cases priced more than one round", below, priced)
	if below == 0 || priced == 0 {
		t.Error("the corpus exercises neither loose multipliers nor pricing")
	}
}

// TestInfeasibleMasterGrows: a seed that misses the only column a row can
// use is infeasible, so the master grows in index order until it holds
// that column; only the LP over every column may call a branch
// infeasible, and an empty tuple box (a pin on an eliminated tuple) is
// infeasible at once.
func TestInfeasibleMasterGrows(t *testing.T) {
	const n = 5000
	objW, w := make([]float64, n), make([]float64, n)
	for j := range objW {
		objW[j] = float64(j % 97)
	}
	const only = 4001 // worst by objective, and off the seed's stride of 5
	objW[only] = -1000
	w[only] = 1
	one := func(int) float64 { return 1 }
	po := PipelineOptions{Atoms: []*translate.LinearAtom{{W: w, Op: lp.GE, RHS: 1}}, ObjW: objW, Sense: lp.Maximize, TupleHi: one}
	pr, err := Certify(po)
	if err != nil || !pr.Certified || pr.Columns <= only/5 {
		t.Fatalf("%+v (%v): want certified after growing past column %d", pr, err, only)
	}
	po.Atoms[0].RHS = 2 // one column cannot reach 2
	if pr, err = Certify(po); err != nil || !pr.Infeasible || pr.Certified || pr.Columns != n {
		t.Fatalf("%+v (%v): want infeasible over all %d columns", pr, err, n)
	}
	po.Atoms[0].RHS = 1
	po.TupleLo = func(j int) float64 { return float64(j % 2) }
	po.TupleHi = func(j int) float64 { return float64(j%4) / 3 } // tuple 1 has lo 1, hi 1/3
	if pr, err = Certify(po); err != nil || !pr.Infeasible || pr.Rounds != 0 {
		t.Fatalf("%+v (%v): an empty box must be infeasible before any round", pr, err)
	}
}

// FuzzCertificateVsExact cross-checks the certificate on random small
// branches against the LP over every column and the exact integer
// optimum: never beaten by either, within its margin of the first.
func FuzzCertificateVsExact(f *testing.F) {
	for i := range 8 {
		f.Add(int64(i))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		po, lo, hi := genCase(rng, 4+rng.Intn(14))
		pr := checkCertificate(t, fmt.Sprintf("seed %d", seed), po, lo, hi)
		if obj, status := exactLP(po, lo, hi, true); status == "optimal" && (!pr.Certified || beyond(po.Sense, obj, pr.Bound, 1e-9*(1+math.Abs(obj)))) {
			t.Fatalf("seed %d: integer optimum %.12g beats the certificate %+v", seed, obj, pr)
		}
	})
}

// BenchmarkCertify50k is the bound layer's microbenchmark: the pass over
// the 50,000-tuple band fixture.
func BenchmarkCertify50k(b *testing.B) {
	_, po := bandFixture(50000, 256)
	b.ReportAllocs()
	var pr PipelineResult
	for b.Loop() {
		pr, _ = Certify(po)
	}
	if !pr.Certified {
		b.Fatalf("the pass did not certify: %+v", pr)
	}
	b.ReportMetric(float64(pr.Columns), "columns")
	b.ReportMetric(float64(pr.Rounds), "rounds")
}
