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
	"repro/internal/lp"
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
// best, when non-nil, is the best feasible descent so far: the pipeline
// stops escalating stages once the gap against its objective is within
// Options.GapTolerance (or runs every allowed stage when the tolerance
// is 0).
func (s *solver) branchBound(ba *branchAtoms, best *descent) (bound.PipelineResult, error) {
	inst, opts, pins := s.inst, s.opts, s.pins
	atoms := s.fullAtoms(ba)
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
	tree, err := s.tree(opts.tau(), opts.depth())
	if err != nil {
		return bound.PipelineResult{}, err
	}
	leaves := &level{nodes: tree.Leaves(), adm: ba.admissibleCounts(tree.Leaves())}
	groups := make([]bound.Group, len(leaves.nodes))
	for g := range groups {
		groups[g].Tuples = leaves.nodes[g].Tuples
		groups[g].Lo, groups[g].Hi = s.nodeBound(leaves, g)
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
	po := bound.PipelineOptions{
		Ctx:           opts.Ctx,
		Atoms:         atoms,
		ObjW:          inst.ObjW,
		Konst:         inst.ObjK,
		Sense:         sense,
		MaxStage:      stage,
		TightenRounds: rounds,
		DescendBudget: budget,
		Incumbent:     math.NaN(),
		GapTarget:     opts.GapTolerance,
		TupleLo:       tupleLo,
		TupleHi:       tupleHi,
	}
	if best != nil {
		po.Incumbent, po.HasIncumbent = best.Objective, true
	}
	// Segmented columns are stage-1 tightening, applied on every tree path:
	// each leaf in objective order, which the tree keeps per objective, cut
	// into segments. A grouping too wide to segment keeps its leaf order,
	// the order a one-level descent's singleton columns follow.
	if bound.Splits(len(groups), maxBoundVars) {
		orders, err := tree.leafOrder(opts.Ctx, objectiveKey(inst.Analysis.Query.Objective), inst.ObjW, sense)
		if err != nil {
			return bound.PipelineResult{}, err
		}
		for g := range groups {
			groups[g].Tuples = orders[g]
		}
		groups = bound.Segment(groups, maxBoundVars, tupleLo, tupleHi)
	}
	return bound.RunPipeline(groups, po), nil
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
func (s *solver) boundPass(ba *branchAtoms, best *descent) error {
	start := time.Now()
	pr, err := s.branchBound(ba, best)
	s.res.BoundTime += time.Since(start)
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
// relaxation; it backs both the reported interval and the anytime early
// exit — and into the record: the deepest stage seen, and the rounds
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
