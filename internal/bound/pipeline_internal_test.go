package bound

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lp"
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

// TestPipelineSolvesEachGroupingOnce pins the pass's LP budget: the base
// relaxation is solved once and its prices and primal point are what the
// later stages consume, so a band query costs at most one solve per
// Lagrangian round on top of one per grouping.
func TestPipelineSolvesEachGroupingOnce(t *testing.T) {
	groups, po := bandFixture(4000, 64, 1024)
	run := func(stage string, budget int) (PipelineResult, int) {
		po := po
		po.MaxStage, po.DescendBudget = stage, budget
		pl := pipeline{po: &po}
		return pl.run(groups), pl.solves
	}

	pr, solves := run(StageTightened, 0)
	if !pr.Certified || pr.Stage != StageTightened || pr.Rounds == 0 {
		t.Fatalf("tightened run did not tighten: %+v", pr)
	}
	if limit := 1 + po.TightenRounds; solves > limit {
		t.Errorf("StageTightened: %d LP solves, want at most 1 + TightenRounds = %d", solves, limit)
	}
	if solves != 1+pr.Rounds {
		t.Errorf("StageTightened: %d LP solves for %d rounds, want one base solve plus one per round", solves, pr.Rounds)
	}

	pr, solves = run(StageDescend, 512)
	if !pr.Certified || pr.Stage != StageDescend || pr.Vars <= len(groups) {
		t.Fatalf("descend run did not refine: %+v", pr)
	}
	// One solve per grouping (base, refined) and one per round; a second
	// solve of the base grouping would make it three.
	if solves != 2+pr.Rounds {
		t.Errorf("StageDescend: %d LP solves for %d rounds, want one per grouping plus one per round", solves, pr.Rounds)
	}
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
		pr = RunPipeline(groups, po)
	}
	if !pr.Certified || pr.Rounds == 0 {
		b.Fatalf("pipeline did not certify and tighten: %+v", pr)
	}
	b.ReportMetric(float64(len(groups)), "columns")
}
