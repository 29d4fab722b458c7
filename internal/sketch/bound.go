package sketch

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bound"
	"repro/internal/lifecycle"
	"repro/internal/lp"
)

// branchBound computes the certified dual bound for one DNF branch: the
// LP relaxation of the branch's MILP over the raw candidates, found by
// column generation and certified by L(y) (bound.Certify). The branch's
// exact tuple-level rows and any exclusion cuts are its rows; pins and
// MIN/MAX eliminations are column bounds — a pinned tuple carries at
// least one unit, an eliminated one none. The pass reads no partition
// tree.
//
// Exclusion cuts are valid linear rows over the branch's feasible
// packages (REPEAT is rejected before any cut exists, so multiplicities
// are 0/1 and the §5 cut is exact), and an eliminated tuple carries
// multiplicity 0 in every feasible package of the branch, so neither
// cuts off a package the branch can answer with (see
// TestExclusionCutTreeBoundSound).
func (s *solver) branchBound(ba *branchAtoms) (bound.PipelineResult, error) {
	inst, pins := s.inst, s.pins
	hi := lp.Inf
	if inst.MaxMult > 0 {
		hi = float64(inst.MaxMult)
	}
	po := bound.PipelineOptions{
		Ctx:   s.opts.Ctx,
		Atoms: s.fullAtoms(ba),
		ObjW:  inst.ObjW,
		Konst: inst.ObjK,
		Sense: objSense(inst),
		TupleHi: func(i int) float64 {
			if ba.eliminated != nil && ba.eliminated[i] {
				return 0
			}
			return hi
		},
	}
	if pins != nil {
		po.TupleLo = func(i int) float64 {
			if pins[i] {
				return 1
			}
			return 0
		}
	}
	return bound.Certify(po)
}

// boundPass runs the certified-bound pass for one branch: the one place
// the pass is timed, its result kept for recordBound, and its failure
// classified. Cancellation propagates (the caller gave up, not the
// subsystem); any other failure is the certification rung of the
// degradation ladder — the pass is optional, so the answer goes
// uncertified, no further branch is bounded, and the descent continues.
func (s *solver) boundPass(ba *branchAtoms) error {
	start := time.Now()
	pr, err := s.branchBound(ba)
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

// recordBound folds the pass's per-branch results into the union bound —
// the union's optimum cannot beat the best branch relaxation; it backs
// the reported interval — and into the record: the stage, and the
// pricing rounds spent, cumulative across the parity retry like nodes and
// pivots.
func (s *solver) recordBound() {
	outs := make([]bound.Outcome, len(s.prs))
	for i, pr := range s.prs {
		outs[i] = pr.Outcome
		s.res.BoundRounds += pr.Rounds
		s.res.BoundStage = bound.StageRawLP
	}
	s.merged = bound.Best(objSense(s.inst), outs)
}
