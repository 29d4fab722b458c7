package sketch

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/bound"
	"repro/internal/expr"
	"repro/internal/lifecycle"
	"repro/internal/paql"
	"repro/internal/plan"
)

// maxBoundVars caps the segmented tree relaxation: bound.Segment spends
// up to this many variables cutting each leaf into objective-sorted
// segments (piecewise-linear columns). Twice the candidate count at
// which the bound leaves the raw LP for the tree, so even τ=256 leaves
// at 1M rows get ≥ 2 segments each.
const maxBoundVars = 2 * plan.SketchThreshold

// branchBound computes the certified dual bound for one DNF branch via
// the staged tightening pipeline (internal/bound): the branch's exact
// tuple-level rows (plus any exclusion cuts) relaxed over singleton
// groups when the candidates are few (tree is nil), or — when they are
// many — over objective-sorted segments of the shared partition tree's
// leaves, tightened by Lagrangian rounds on the band rows. The tree is
// the same one the descent uses (memoized by trees), so the bound adds no
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
// best, when non-nil, is the best feasible descent so far: its
// objective is the incumbent the Lagrangian rounds aim their step at.
func (s *solver) branchBound(ba *branchAtoms, tree *Tree, best *descent) (bound.PipelineResult, error) {
	inst, opts, pins := s.inst, s.opts, s.pins
	sense := objSense(inst)
	po := bound.PipelineOptions{
		Ctx:       opts.Ctx,
		Atoms:     s.fullAtoms(ba),
		ObjW:      inst.ObjW,
		Konst:     inst.ObjK,
		Sense:     sense,
		Incumbent: math.NaN(),
	}
	if best != nil {
		po.Incumbent, po.HasIncumbent = best.Objective, true
	}
	if tree == nil {
		// Few enough candidates that the planner would have answered
		// exactly: bound over the raw candidates, the exact LP relaxation
		// of the query's MILP and the tightest bound an LP can give, so
		// the pipeline stops at its first stage. Above the threshold the
		// bound runs over the partition-tree leaves, one LP variable per
		// leaf segment, so the pass stays tiny at any scale.
		po.MaxStage = bound.StageTreeLP
		pr, err := bound.RunPipeline(bound.Candidates(len(inst.Rows), inst.MaxMult, pins), po)
		pr.Stage = bound.StageRawLP
		return pr, err
	}
	leaves := &level{nodes: tree.Leaves(), facts: s.leafFacts(ba, tree.Leaves(), false)}
	groups := make([]bound.Group, len(leaves.nodes))
	for g := range groups {
		groups[g].Tuples = leaves.nodes[g].Tuples
		groups[g].Lo, groups[g].Hi = s.nodeBound(leaves, g)
	}
	po.TupleLo = func(i int) float64 {
		if pins[i] {
			return 1
		}
		return 0
	}
	po.TupleHi = func(i int) float64 {
		if ba.eliminated != nil && ba.eliminated[i] {
			return 0
		}
		return float64(inst.MaxMult)
	}
	po.MaxStage, po.TightenRounds = boundStagePlan(opts)
	// Segmented columns are stage-1 tightening, applied on every tree path:
	// each leaf in objective order, which the tree keeps per objective, cut
	// into segments. A grouping too wide to segment keeps its leaf order.
	if bound.Splits(len(groups), maxBoundVars) {
		orders, err := tree.leafOrder(opts.Ctx, objectiveKey(inst.Analysis.Query.Objective), inst.ObjW, sense)
		if err != nil {
			return bound.PipelineResult{}, err
		}
		for g := range groups {
			groups[g].Tuples = orders[g]
		}
		groups = bound.Segment(groups, maxBoundVars, po.TupleLo, po.TupleHi)
	}
	return bound.RunPipeline(groups, po)
}

// objectiveKey names an objective in a tree's order memo: its sense, its
// rendered expression and the column ordinals it reads. Over one tree's
// candidates two objectives with one key weigh every tuple alike.
func objectiveKey(o *paql.Objective) string {
	var b strings.Builder
	b.WriteString(o.Sense.String())
	b.WriteByte(' ')
	b.WriteString(expr.Key(o.Expr))
	expr.Walk(o.Expr, func(n expr.Expr) {
		if c, ok := n.(*expr.Col); ok {
			b.WriteString("|" + strconv.Itoa(c.Idx))
		}
	})
	return b.String()
}

// boundPass runs the certified-bound pass for one branch: the one place
// the pass is timed, its result kept for recordBound, and its failure
// classified. Cancellation propagates (the caller gave up, not the
// subsystem); any other failure is the certification rung of the
// degradation ladder — the pass is optional, so the answer goes
// uncertified, no further branch is bounded, and the descent continues.
//
// Above the raw-candidate cap the pass reads the descent's partition
// tree. Acquiring it is tree work, timed as such, so it happens before
// the clock starts.
func (s *solver) boundPass(ba *branchAtoms, best *descent) error {
	var tree *Tree
	var err error
	if len(s.inst.Rows) > plan.SketchThreshold {
		tree, err = s.tree(s.opts.tau(), s.opts.depth())
	}
	var pr bound.PipelineResult
	if err == nil {
		start := time.Now()
		pr, err = s.branchBound(ba, tree, best)
		s.res.BoundTime += time.Since(start)
	}
	switch {
	case err == nil:
		s.prs = append(s.prs, pr)
		return nil
	case errors.Is(err, lifecycle.ErrCanceled):
		return err
	}
	if cerr := lifecycle.ContextErr(s.opts.Ctx); cerr != nil {
		return cerr
	}
	s.res.degrade("bound", fmt.Sprintf("certification pass failed (%v); answer uncertified", err))
	s.wantBound, s.prs = false, nil
	return nil
}

// recordBound folds the pass's per-branch pipeline results into the
// union bound — the union's optimum cannot beat the best branch
// relaxation; it backs the reported interval — and into the record: the deepest stage seen, and the rounds
// spent, cumulative across the parity retry like nodes and pivots.
func (s *solver) recordBound() {
	outs := make([]bound.Outcome, len(s.prs))
	for i, pr := range s.prs {
		outs[i] = pr.Outcome
		s.res.BoundRounds += pr.Rounds
		if bound.StageRank(pr.Stage) > bound.StageRank(s.res.BoundStage) {
			s.res.BoundStage = pr.Stage
		}
	}
	s.merged = bound.Best(objSense(s.inst), outs)
}

// boundStagePlan maps Options.BoundMode (the planner's bound decision)
// onto the pipeline knobs: the deepest stage allowed and the Lagrangian
// round budget.
func boundStagePlan(opts Options) (stage string, rounds int) {
	switch opts.BoundMode {
	case bound.StageTreeLP, bound.StageRawLP:
		return bound.StageTreeLP, 0
	default: // bound.StageTightened or "" (auto): the full pipeline
		return bound.StageTightened, bound.DefaultTightenRounds
	}
}
