package sketch

import (
	"fmt"

	"repro/internal/bound"
	"repro/internal/lifecycle"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/translate"
)

// solver is one run of a compiled query under one Options value: what
// every phase reads (the instance, the pins, the exclusion cuts, the
// deadline) and what every phase writes (the trees acquired, the record
// being filled in). The phases are its methods, one file each — acquire,
// descent, refine, bound — and Solve below is the only place that
// strings them together.
type solver struct {
	q       *Compiled
	inst    *search.Instance
	opts    Options
	pins    map[int]bool
	exAtoms []*translate.LinearAtom // one tuple-level cut per Options.Exclude entry
	res     *Result

	trees      map[[2]int]*Tree // (τ, depth) → tree acquired this run
	patchedAny bool             // some tree descended carries patched provenance
	rebuild    bool             // parity pass: bypass cache, store and patch, overwrite both tiers

	wantBound bool                   // an objective to certify, and nothing has degraded the pass yet
	prs       []bound.PipelineResult // the current pass's per-branch bounds
	merged    bound.Outcome          // their union: no branch relaxation beats it
}

// note appends one line to the record's notes.
func (s *solver) note(format string, args ...any) {
	s.res.Notes = append(s.res.Notes, fmt.Sprintf(format, args...))
}

// Solve runs SketchRefine for the compiled query: each DNF branch
// descends the shared partition tree — sketch over the roots, push down
// level by level, refine the leaves into real tuples — and the best
// feasible branch wins. When a branch's sketch MILP over the roots is
// infeasible, that branch retries flat, then at a quarter of the
// partition size bound (finer partitions make representatives more
// faithful) before giving up. Solves of one Compiled may run
// concurrently; they share its weighed branches and nothing else.
func (q *Compiled) Solve(opts Options) (*Result, error) {
	if q.err != nil {
		return nil, q.err
	}
	inst := q.inst
	s := &solver{q: q, inst: inst, opts: opts,
		res: &Result{Workers: opts.workers(), AtomRewrites: q.rewrites}}
	var err error
	if s.pins, err = pinSet(len(inst.Rows), opts.Require); err != nil {
		return nil, err
	}
	if s.exAtoms, err = exclusionAtoms(inst, opts.Exclude); err != nil {
		return nil, err
	}
	if len(inst.Rows) == 0 {
		return s.res, s.solveEmpty()
	}
	if len(q.branches) == 0 {
		s.note("SUCH THAT is constant false; no package can satisfy the query")
		return s.res, nil
	}
	s.wantBound = inst.Analysis.Query.Objective != nil && inst.ObjW != nil && opts.BoundMode != plan.BoundNone
	pick, err := s.pass()
	if err == nil && !pick.Feasible && s.patchedAny {
		// Parity retry: the descent ran over a patched tree and found no
		// feasible package. Patched trees are approximations (merged
		// internal representatives, nearest-leaf routing), so before
		// declaring the query infeasible, rebuild from scratch and run
		// once more — incremental maintenance must never lose a package
		// a rebuild would find. The fresh tree overwrites the patched
		// one in both cache tiers. Branch stats describe the pass the
		// final answer came from; nodes, pivots and bound rounds stay
		// cumulative (they measure real work done).
		s.note("patched partition tree yielded no feasible package; rebuilding from scratch and retrying")
		s.res.Branches = 0
		s.rebuild, s.trees = true, nil
		pick, err = s.pass()
	}
	if err != nil {
		return nil, err
	}
	s.res.descent = *pick
	if pick.Mult == nil {
		s.note("sketch over representatives is infeasible on every branch; the query may have no package")
		return s.res, nil
	}
	s.res.LPIters += s.merged.Iterations
	if s.merged.Certified && s.res.Feasible {
		s.res.Bound, s.res.Certified = s.merged.Bound, true
		s.res.Gap = bound.Interval{Found: s.res.Objective, Bound: s.res.Bound}.Gap()
	}
	return s.res, nil
}

// exclusionAtoms converts excluded multiplicity vectors into the
// solver's tuple-level cut atoms (translate.ExclusionAtom).
func exclusionAtoms(inst *search.Instance, exclude [][]int) ([]*translate.LinearAtom, error) {
	if len(exclude) == 0 {
		return nil, nil
	}
	if inst.MaxMult != 1 {
		return nil, fmt.Errorf("sketch: exclusion cuts require 0/1 multiplicities (REPEAT 0), REPEAT is %d", inst.MaxMult-1)
	}
	atoms := make([]*translate.LinearAtom, 0, len(exclude))
	for _, mult := range exclude {
		if len(mult) != len(inst.Rows) {
			return nil, fmt.Errorf("sketch: exclusion cut has %d entries for %d candidates", len(mult), len(inst.Rows))
		}
		atoms = append(atoms, translate.ExclusionAtom(mult))
	}
	return atoms, nil
}

// pinSet validates Require into a lookup set.
func pinSet(n int, require []int) (map[int]bool, error) {
	if len(require) == 0 {
		return nil, nil
	}
	pins := make(map[int]bool, len(require))
	for _, i := range require {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("sketch: pinned candidate %d out of range [0,%d)", i, n)
		}
		pins[i] = true
	}
	return pins, nil
}

// solveEmpty answers a query with no candidates. The empty package is
// the only one: an answer when some branch's rows — non-empty guards
// included — accept the zero vector and the cardinality bounds allow an
// empty package.
func (s *solver) solveEmpty() error {
	s.res.Mult = []int{}
	for bi := range s.q.branches {
		ba, err := s.q.branch(s.opts.Ctx, bi)
		if err != nil {
			return err
		}
		ok := s.inst.Bounds.Lo <= 0
		for _, at := range ba.tuple {
			ok = ok && at.Check(nil)
		}
		if ok {
			s.res.Feasible = true
			break
		}
	}
	return nil
}

// pass descends every DNF branch once and bounds each. It returns the
// feasible outcome with the best objective; when no branch reached
// feasibility, the first refined-but-infeasible package (the
// single-branch contract: a best-effort package plus Feasible=false);
// and when no branch even reached refine, the last attempt's tree shape
// with no package, so stats still show what ran.
func (s *solver) pass() (*descent, error) {
	branches := s.q.branches
	s.prs = nil
	// Anytime pre-pass: with a gap tolerance and several branches, bound
	// every branch up front (cheap LPs over leaves or raw candidates) so
	// the loop below can stop as soon as an incumbent is provably within
	// tolerance of the union bound. No incumbent exists yet, so the
	// pipeline runs every allowed stage — the tightest certificate it can
	// produce.
	prebound := false
	if s.wantBound && s.opts.GapTolerance > 0 && len(branches) > 1 {
		for bi := 0; bi < len(branches) && s.wantBound; bi++ {
			ba, err := s.q.branch(s.opts.Ctx, bi)
			if err != nil {
				return nil, err
			}
			if err := s.boundPass(ba, nil); err != nil {
				return nil, err
			}
		}
		if prebound = s.wantBound; prebound {
			s.recordBound()
		}
	}
	var best, fallback, last *descent
	for bi := range branches {
		if err := lifecycle.ContextErr(s.opts.Ctx); err != nil {
			return nil, err
		}
		if prebound && best != nil && s.merged.Certified {
			iv := bound.Interval{Found: best.Objective, Bound: s.merged.Bound}
			if iv.Gap() <= s.opts.GapTolerance {
				s.note("anytime: certified gap %.2f%% ≤ tolerance %.2f%% after %d of %d branches; skipping the rest",
					100*iv.Gap(), 100*s.opts.GapTolerance, bi, len(branches))
				break
			}
		}
		ba, err := s.q.branch(s.opts.Ctx, bi)
		if err != nil {
			return nil, err
		}
		if last, err = s.solveBranch(ba); err != nil {
			return nil, err
		}
		s.res.Branches++
		prefix := ""
		if len(branches) > 1 {
			prefix = fmt.Sprintf("branch %d/%d: ", bi+1, len(branches))
		}
		for _, note := range last.notes {
			s.res.Notes = append(s.res.Notes, prefix+note)
		}
		last.notes = nil
		if last.Feasible {
			if best == nil || s.inst.Better(last.Objective, best.Objective) {
				best = last
			}
			if s.inst.Analysis.Query.Objective == nil {
				break // any feasible branch answers an objective-free query
			}
		} else if fallback == nil && last.Mult != nil {
			fallback = last
		}
		if s.wantBound && !prebound {
			// Bound after the descent, not before: the best objective so
			// far is an incumbent the pipeline can measure its gap against,
			// stopping stage escalation as soon as the certificate is tight
			// enough (Options.GapTolerance).
			if err := s.boundPass(ba, best); err != nil {
				return nil, err
			}
		}
	}
	if s.wantBound && !prebound {
		s.recordBound()
	}
	switch {
	case best != nil:
		return best, nil
	case fallback != nil:
		return fallback, nil
	}
	return &descent{Partitions: last.Partitions, Levels: last.Levels, TopVars: last.TopVars}, nil
}
