package sketch

import (
	"math"

	"repro/internal/bound"
	"repro/internal/lp"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/translate"
)

// maxBoundVars caps the segmented tree relaxation: SplitGroups spends
// up to this many variables cutting each leaf into objective-sorted
// segments (piecewise-linear columns). Twice the candidate count at
// which the bound leaves the raw LP for the tree, so even τ=256 leaves
// at 1M rows get ≥ 2 segments each.
const maxBoundVars = 2 * plan.SketchThreshold

// branchBound computes the certified dual bound for one DNF branch via
// the staged tightening pipeline (internal/bound): the branch's exact
// tuple-level rows (plus any exclusion cuts) relaxed over singleton
// groups when the candidates are few, or — when they are many — over
// objective-sorted segments of the shared partition tree's leaves,
// tightened by Lagrangian rounds on the band rows and, adaptively, a
// one-level descent into the loosest leaves. The tree is the same one
// the descent uses (memoized by trees), so the bound adds no
// partitioning work.
//
// Exclusion cuts ride the same relaxation soundly: a cut is a valid
// linear row over the branch's feasible packages (REPEAT is rejected
// before any cut exists, so multiplicities are 0/1 and the §5 cut is
// exact), and relaxing any valid row to its per-group min coefficient
// only enlarges the feasible set — a relaxed cut can make the bound
// looser, never unsoundly tighter. Dropping elimination-inadmissible
// tuples from the segments is exact for the cut rows too: such tuples
// carry multiplicity 0 in every feasible package of the branch, so
// their −1 cut coefficients contribute nothing (see
// TestExclusionCutTreeBoundSound).
//
// incumbent, when hasIncumbent, is the best feasible objective found
// so far: the pipeline stops escalating stages once the gap against it
// is within opts.GapTolerance (or runs every allowed stage when the
// tolerance is 0).
func branchBound(inst *search.Instance, ba *branchAtoms, exAtoms []*translate.LinearAtom, pins map[int]bool, trees *treeSource, opts Options, incumbent float64, hasIncumbent bool) (bound.PipelineResult, error) {
	atoms := ba.tuple
	if len(exAtoms) > 0 {
		atoms = append(append([]*translate.LinearAtom{}, ba.tuple...), exAtoms...)
	}
	n := len(inst.Rows)
	sense := objSense(inst)
	if n <= plan.SketchThreshold {
		// Few enough candidates that the planner would have answered
		// exactly: bound over the raw candidates, the exact LP relaxation
		// of the query's MILP and the tightest bound an LP can give. Above
		// the threshold the bound runs over the partition-tree leaves, one
		// LP variable per leaf segment, so the pass stays tiny at any scale.
		groups := bound.Candidates(n, inst.MaxMult, pins)
		p, err := bound.Relax(atoms, inst.ObjW, sense, groups)
		if err != nil {
			return bound.PipelineResult{}, err
		}
		out := bound.Solve(opts.Ctx, p, inst.ObjK)
		return bound.PipelineResult{Outcome: out, Stage: bound.StageRawLP, Vars: n}, nil
	}
	tree, err := trees.get(opts.tau(), opts.depth())
	if err != nil {
		return bound.PipelineResult{}, err
	}
	leaves := tree.Leaves()
	adm := ba.admissibleCounts(leaves)
	groups := make([]bound.Group, len(leaves))
	for g := range leaves {
		groups[g] = bound.Group{
			Tuples: leaves[g].Tuples,
			Lo:     float64(pinCount(leaves[g].Tuples, pins)),
			Hi:     nodeCap(inst, &leaves[g], adm, g),
		}
	}
	tupleLo := func(i int) float64 {
		if pins[i] {
			return 1
		}
		return 0
	}
	tupleHi := func(i int) float64 {
		if ba.eliminated != nil && ba.eliminated[i] {
			return 0
		}
		if inst.MaxMult > 0 {
			return float64(inst.MaxMult)
		}
		return lp.Inf
	}
	stage, rounds, budget := boundStagePlan(opts)
	// Segmented columns are stage-1 tightening, applied on every tree path.
	groups = bound.SplitGroups(groups, inst.ObjW, sense, maxBoundVars, tupleLo, tupleHi)
	return bound.RunPipeline(groups, bound.PipelineOptions{
		Ctx:           opts.Ctx,
		Atoms:         atoms,
		ObjW:          inst.ObjW,
		Konst:         inst.ObjK,
		Sense:         sense,
		MaxStage:      stage,
		TightenRounds: rounds,
		DescendBudget: budget,
		Incumbent:     incumbent,
		HasIncumbent:  hasIncumbent,
		GapTarget:     opts.GapTolerance,
		TupleLo:       tupleLo,
		TupleHi:       tupleHi,
	}), nil
}

// boundStagePlan maps Options.BoundMode (the planner's bound decision)
// onto the pipeline knobs: the deepest stage allowed, the Lagrangian
// round budget, and the descent variable budget.
func boundStagePlan(opts Options) (stage string, rounds, budget int) {
	switch opts.BoundMode {
	case bound.StageTreeLP, bound.StageRawLP:
		return bound.StageTreeLP, 0, 0
	case bound.StageTightened:
		return bound.StageTightened, bound.DefaultTightenRounds, 0
	default: // bound.StageDescend or "" (auto): the full pipeline
		return bound.StageDescend, bound.DefaultTightenRounds, plan.DescendBudget
	}
}

// mergeBranchBounds folds per-branch pipeline results into the solve's
// bound stats: Best-merged outcome, deepest stage, summed rounds.
func mergeBranchBounds(sense lp.Sense, prs []bound.PipelineResult) (bound.Outcome, string, int) {
	outs := make([]bound.Outcome, len(prs))
	stage := ""
	rounds := 0
	for i, pr := range prs {
		outs[i] = pr.Outcome
		rounds += pr.Rounds
		if bound.StageRank(pr.Stage) > bound.StageRank(stage) {
			stage = pr.Stage
		}
	}
	return bound.Best(sense, outs), stage, rounds
}

// nanIncumbent is the "no incumbent yet" placeholder for branchBound
// callers.
var nanIncumbent = math.NaN()
