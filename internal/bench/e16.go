package bench

// E16 measures what the staged bound-tightening pipeline buys on
// BETWEEN-heavy workloads — the band rows (GE/LE pairs over one weight
// vector) the grouped relaxation is loosest on. The "tree-lp" cells stop
// the pipeline at stage 1 (segmented leaf columns, no tightening) and the
// "pipeline" cells run the stage the planner picks for band queries
// (segmented columns + Lagrangian tightening rounds). The pipeline must
// be no looser than stage 1 at every size, reach a ≤5% certified gap at
// the largest full-mode size, and stay the size it was designed to be at
// any row count — one grouping of at most 2·plan.SketchThreshold columns,
// at most bound.DefaultTightenRounds rounds (the share of the solve it
// takes is printed, not gated: it is a ratio of two clocks, and each has
// been made faster since without the pass growing).

import (
	"fmt"
	"time"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/sketch"
)

// E16Query is the BETWEEN-heavy meal workload: two band constraints on
// correlated columns on top of the COUNT pin. Each band lowers to a
// GE/LE row pair — exactly the rows the Lagrangian tightening stage
// dualizes and the old envelope bound ignored almost entirely.
const E16Query = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	SUCH THAT COUNT(*) = 3
		AND SUM(P.calories) BETWEEN 2000 AND 2500
		AND SUM(P.fat) BETWEEN 20 AND 200
	MAXIMIZE SUM(P.protein)`

// e16FullTau and e16FullDepth are the partitioning knobs the full-size
// cells run under (E10's too): τ=256 depth-2 trees keep the per-leaf
// segments coarse enough that the tightening stages — not sheer
// variable count — have to close the gap.
const (
	e16FullTau   = 256
	e16FullDepth = 2
)

// RunE16 sweeps the stage-1-vs-pipeline cells. It fails if the
// pipeline is looser than stage 1 anywhere or its pass outgrows its
// column and round budget, or if the largest full-mode cell misses the
// ≤5% gap — the tightening work's whole claim.
func RunE16(cfg Config) error {
	sizes := []int{100000, 1000000}
	full := true
	if cfg.Quick {
		sizes = []int{5000, 20000}
		full = false
	}
	fmt.Fprintln(cfg.Out, "== E16: band-aware bound tightening — tree-lp vs pipeline ==")
	tw := newTable(cfg.Out, "n", "cell", "time", "objective", "bound", "gap", "stage", "rounds", "bound-share")
	for _, n := range sizes {
		gate := full && n == sizes[len(sizes)-1]
		if err := runE16Tightening(cfg, tw, n, full, gate); err != nil {
			tw.Flush() // show the measured rows alongside the gate failure
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(claim check: the staged pipeline is no looser than its stage-1 tree-lp bound on every BETWEEN-heavy cell)")
	return nil
}

// runE16Tightening runs the band query twice at one size — stage 1
// alone, then the tightened pipeline — and enforces the no-looser gate,
// the pass's size budget (and, when gate is set, the ≤5% gap).
func runE16Tightening(cfg Config, tw interface{ Write([]byte) (int, error) }, n int, full, gate bool) error {
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	prep, err := core.Prepare(db, E16Query)
	if err != nil {
		return err
	}
	base := sketch.Options{Seed: cfg.seed()}
	if full {
		base.MaxPartitionSize = e16FullTau
		base.Depth = e16FullDepth
	}
	cell := func(name, mode string) (*sketch.Result, time.Duration, error) {
		o := base
		o.BoundMode = mode
		start := time.Now()
		res, err := prep.Sketch.Solve(o)
		elapsed := time.Since(start)
		if err != nil {
			return nil, 0, fmt.Errorf("e16: n=%d %s: %w", n, name, err)
		}
		if !res.Feasible || !res.Certified {
			return nil, 0, fmt.Errorf("e16: n=%d %s: no certified package (feasible=%v certified=%v)", n, name, res.Feasible, res.Certified)
		}
		share := float64(res.BoundTime) / float64(elapsed)
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%.0f\t%.2f%%\t%s\t%d\t%.1f%%\n",
			n, name, ms(elapsed), res.Objective, res.Bound,
			100*res.Gap, res.BoundStage, res.BoundRounds, 100*share)
		return res, elapsed, nil
	}
	stage1, _, err := cell("bound/tree-lp", bound.StageTreeLP)
	if err != nil {
		return err
	}
	// The planner's pick for a band query: segmented columns plus the
	// Lagrangian rounds.
	pipe, _, err := cell("bound/pipeline", bound.StageTightened)
	if err != nil {
		return err
	}
	if pipe.Gap > stage1.Gap {
		return fmt.Errorf("e16: n=%d: pipeline gap %.2f%% is looser than the tree-lp gap %.2f%%; tightening stages regressed",
			n, 100*pipe.Gap, 100*stage1.Gap)
	}
	if gate && pipe.Gap > 0.05 {
		return fmt.Errorf("e16: n=%d: pipeline certified gap %.2f%% exceeds the 5%% acceptance gate", n, 100*pipe.Gap)
	}
	// What keeps the pass a small part of the solve at any n is its size,
	// not a clock: one grouping (bound.TestPipelineSolvesEachGroupingOnce
	// pins one LP solve for it) of a bounded number of columns, and a
	// bounded number of rounds that are each one pass over the tuples.
	pr, columns, err := boundPass(prep.Instance, base)
	if err != nil {
		return fmt.Errorf("e16: n=%d: bound pass: %w", n, err)
	}
	if pr.Stage != bound.StageTightened || columns > 2*plan.SketchThreshold || pr.Rounds > bound.DefaultTightenRounds {
		return fmt.Errorf("e16: n=%d: the bound pass ran %s over %d columns in %d rounds (budget: %s, ≤ %d columns, ≤ %d rounds)",
			n, pr.Stage, columns, pr.Rounds, bound.StageTightened, 2*plan.SketchThreshold, bound.DefaultTightenRounds)
	}
	return nil
}

// boundPass runs the band query's tightened bound pass from outside, as
// sketch.Solve runs it inside (one group per tree leaf, segmented, then
// the pipeline), for the PipelineResult the engine's stats fold away and
// the column count of the one relaxation it solves.
func boundPass(inst *search.Instance, o sketch.Options) (bound.PipelineResult, int, error) {
	leaves := sketch.BuildTree(inst, o).Leaves()
	groups := make([]bound.Group, len(leaves))
	for g := range leaves {
		groups[g] = bound.Group{Tuples: leaves[g].Tuples, Hi: float64(len(leaves[g].Tuples) * inst.MaxMult)}
	}
	tupleHi := func(int) float64 { return float64(inst.MaxMult) }
	groups = bound.SplitGroups(groups, inst.ObjW, lp.Maximize, 2*plan.SketchThreshold, nil, tupleHi)
	pr, err := bound.RunPipeline(groups, bound.PipelineOptions{
		Atoms: inst.Atoms, ObjW: inst.ObjW, Konst: inst.ObjK, Sense: lp.Maximize,
		MaxStage: bound.StageTightened, TightenRounds: bound.DefaultTightenRounds, TupleHi: tupleHi,
	})
	return pr, len(groups), err
}
