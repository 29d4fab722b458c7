// Package bound computes certified dual bounds for package queries.
//
// A package query is an integer program: pick a multiplicity m_t ≥ 0
// for every candidate tuple t subject to linear aggregate constraints,
// optimizing a linear objective. Dropping integrality gives the LP
// relaxation, whose optimum is an always-valid dual bound — for a
// maximization no integral package can beat it, for a minimization
// none can undercut it — so the true optimum provably lies between
// the bound and any feasible incumbent's objective.
//
// The engine works over *groups* of candidates so the same machinery
// covers two regimes:
//
//   - Raw candidates: one singleton group per tuple. The relaxation is
//     the exact LP relaxation of the query's MILP — the tightest bound
//     an LP can give.
//   - Partition-tree leaves: one group per leaf, with the leaf's tuple
//     set as members. Constraint coefficients collapse to the safe end
//     of the group's coefficient range (per-group minimum for ≤ rows,
//     maximum for ≥ rows; the objective takes the optimistic end), so
//     the LP has one variable per leaf instead of one per tuple and
//     stays small at any scale. The proof obligation is one line: with
//     w_t ≥ lo_g and m_t ≥ 0, lo_g·Σm_t ≤ Σw_t·m_t, so every integral
//     feasible package maps to a feasible point of the grouped LP.
//
// Disjunctive queries bound each DNF branch independently and merge
// with Best: the union's optimum is bounded by the best branch bound.
// A branch whose relaxation is infeasible contributes nothing — but an
// infeasible relaxation is never treated as a proof that the original
// query is infeasible, because the engine's lowering of strict
// comparisons is epsilon-tightened.
//
// All certified bounds are padded by a relative numerical safety
// margin in the safe direction (see Pad) so simplex round-off cannot
// flip a true statement into a false one.
package bound

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/translate"
)

// Group is one variable of the relaxation: a set of candidate tuple
// indexes whose total multiplicity is relaxed to a single continuous
// variable bounded by [Lo, Hi].
type Group struct {
	// Tuples lists the candidate indexes the group covers. Constraint
	// and objective coefficients for the group are min/max reductions
	// over these indexes.
	Tuples []int
	// Lo is the least total multiplicity the group must carry — the
	// number of pinned tuples inside it.
	Lo float64
	// Hi caps the group's total multiplicity (tuple count × per-tuple
	// cap, shrunk to the admissible supply); lp.Inf means uncapped.
	Hi float64
}

// Outcome is the result of one relaxation solve.
type Outcome struct {
	// Bound is the certified dual bound on the objective, in the
	// problem's sense: an upper bound for a maximization, a lower
	// bound for a minimization. Valid only when Certified.
	Bound float64
	// Certified reports that the relaxation solved to proven
	// optimality, so Bound is a true dual bound.
	Certified bool
	// Infeasible reports that the relaxation itself had no feasible
	// point. This bounds nothing about the original query (the
	// lowering of strict comparisons is epsilon-tightened), but for a
	// DNF branch it means the branch contributes no candidate optimum.
	Infeasible bool
	// Iterations counts simplex iterations spent on the solve.
	Iterations int
}

// Interval is a certified objective interval: the true optimum lies
// between Found (a feasible incumbent's objective) and Bound (the dual
// bound), whichever order the sense puts them in.
type Interval struct {
	// Found is the incumbent package's objective value.
	Found float64
	// Bound is the certified dual bound.
	Bound float64
	// Certified reports whether Bound is proven; an uncertified
	// interval is just the incumbent with no error bar.
	Certified bool
}

// Gap returns the relative width of the interval,
// |Found − Bound| / max(1, |Found|) — the certified relative
// optimality gap when the interval is certified. The max(1, ·)
// denominator keeps the figure meaningful when the objective is near
// zero or flips sign across the interval: instead of dividing by ~0
// (which would report an arbitrarily huge "relative" gap for a tiny
// absolute one), the gap degrades to the interval's absolute width.
// FormatGap renders that distinction explicitly.
func (iv Interval) Gap() float64 {
	return math.Abs(iv.Found-iv.Bound) / math.Max(1, math.Abs(iv.Found))
}

// FormatGap renders the certified gap for display — the one shared
// helper every surface (FormatResult, the CLI, the HTTP stats and UI)
// uses, so the figure is rounded the same way everywhere. With
// |Found| ≥ 1 the gap is a true relative gap and renders as a
// percentage; below that the max(1, |objective|) denominator clamps to
// 1, the figure is really the interval's absolute width, and the
// rendering says so instead of printing a misleading percent.
func (iv Interval) FormatGap() string {
	g := iv.Gap()
	if math.Abs(iv.Found) >= 1 {
		return fmt.Sprintf("%.2f%%", 100*g)
	}
	return fmt.Sprintf("%.4g abs (|objective| < 1)", g)
}

// FormatInterval renders the full certified statement,
// "objective ∈ [lo, hi] (gap …)", with the endpoints ordered
// regardless of sense.
func (iv Interval) FormatInterval() string {
	lo, hi := iv.Found, iv.Bound
	if lo > hi {
		lo, hi = hi, lo
	}
	return fmt.Sprintf("objective ∈ [%.6g, %.6g] (gap %s)", lo, hi, iv.FormatGap())
}

// Pad inflates a dual bound by a relative numerical safety margin in
// the safe direction for the sense (up for a maximization bound, down
// for a minimization bound), so floating-point round-off in the solve
// cannot make the bound claim more than was proven.
func Pad(b float64, sense lp.Sense) float64 {
	margin := 1e-7 * (1 + math.Abs(b))
	if sense == lp.Maximize {
		return b + margin
	}
	return b - margin
}

// Candidates builds the singleton grouping over n raw candidates: one
// group per tuple with Lo = 1 for pinned indexes and Hi = maxMult
// (uncapped when maxMult ≤ 0). The resulting relaxation is the exact
// LP relaxation of the query's MILP.
func Candidates(n, maxMult int, pins map[int]bool) []Group {
	hi := lp.Inf
	if maxMult > 0 {
		hi = float64(maxMult)
	}
	groups := make([]Group, n)
	for i := range groups {
		groups[i] = Group{Tuples: []int{i}, Hi: hi}
		if pins[i] {
			groups[i].Lo = 1
		}
	}
	return groups
}

// Relax builds the grouped LP relaxation of a conjunction of linear
// atoms: one continuous variable per group bounded by [Lo, Hi], each ≤
// row taking the per-group minimum tuple coefficient, each ≥ row the
// maximum, equality rows split into both, and the objective taking the
// optimistic end for the sense (maximum for Maximize, minimum for
// Minimize). objW holds one objective weight per candidate tuple; nil
// means a zero objective.
func Relax(atoms []*translate.LinearAtom, objW []float64, sense lp.Sense, groups []Group) (*lp.Problem, error) {
	r, err := newRelaxation(atoms, objW, sense, groups)
	if err != nil {
		return nil, err
	}
	return r.p, nil
}

// relaxation is one grouping's LP relaxation together with the
// reductions it was assembled from, so the pipeline stages that follow
// the base solve (dual-row selection, multiplier seeding) read them
// instead of scanning the tuples again.
type relaxation struct {
	groups []Group
	// lo[i][g] and hi[i][g] are the minimum and maximum of atom i's
	// tuple coefficients over group g; objLo[g] and objHi[g] the
	// objective's.
	lo, hi       [][]float64
	objLo, objHi []float64
	p            *lp.Problem
	// row[i] is atom i's first LP row; an equality atom owns two, the ≤
	// row over lo[i] and then the ≥ row over hi[i].
	row []int
}

func newRelaxation(atoms []*translate.LinearAtom, objW []float64, sense lp.Sense, groups []Group) (*relaxation, error) {
	if err := fault.Check("bound.relax"); err != nil {
		// Every certification stage builds its relaxation here, so this
		// one site lets the chaos harness fail any bound pass; callers
		// degrade to an uncertified answer, never a failed query.
		return nil, err
	}
	r := &relaxation{
		groups: groups,
		lo:     make([][]float64, len(atoms)),
		hi:     make([][]float64, len(atoms)),
		p:      lp.NewProblem(len(groups)),
		row:    make([]int, len(atoms)),
	}
	for g, grp := range groups {
		if err := r.p.SetBounds(g, grp.Lo, grp.Hi); err != nil {
			return nil, err
		}
	}
	r.objLo, r.objHi = envelope(objW, groups)
	optimistic := r.objLo
	if sense == lp.Maximize {
		optimistic = r.objHi
	}
	if err := r.p.SetObjective(optimistic, sense); err != nil {
		return nil, err
	}
	coefs := make([]lp.Coef, 0, len(groups))
	for i, at := range atoms {
		r.lo[i], r.hi[i] = envelope(at.W, groups)
		r.row[i] = r.p.NumRows()
		// m ≥ 0 makes the min-coefficient sum a lower envelope of the
		// true row value and the max-coefficient sum an upper envelope,
		// so an equality is relaxed to the band between them.
		if at.Op != lp.GE {
			addRow(r.p, coefs, r.lo[i], lp.LE, at.RHS)
		}
		if at.Op != lp.LE {
			addRow(r.p, coefs, r.hi[i], lp.GE, at.RHS)
		}
	}
	return r, nil
}

// addRow appends one relaxed constraint row from its dense per-group
// coefficients. coefs is scratch; the problem keeps its own copy.
func addRow(p *lp.Problem, coefs []lp.Coef, dense []float64, op lp.Op, rhs float64) {
	coefs = coefs[:0]
	for g, c := range dense {
		if c != 0 {
			coefs = append(coefs, lp.Coef{Var: g, Val: c})
		}
	}
	p.AddConstraint(coefs, op, rhs)
}

// envelope reduces a weight vector over every group's tuples to its
// minimum and maximum in one pass; an empty group (or an empty vector)
// contributes zero to both.
func envelope(w []float64, groups []Group) (lo, hi []float64) {
	both := make([]float64, 2*len(groups))
	lo, hi = both[:len(groups):len(groups)], both[len(groups):]
	if len(w) == 0 {
		return lo, hi
	}
	for g, grp := range groups {
		if len(grp.Tuples) == 0 {
			continue
		}
		mn := w[grp.Tuples[0]]
		mx := mn
		for _, t := range grp.Tuples[1:] {
			if v := w[t]; v < mn {
				mn = v
			} else if v > mx {
				mx = v
			}
		}
		lo[g], hi[g] = mn, mx
	}
	return lo, hi
}

// cancelOf adapts a context to the simplex's per-iteration poll (nil
// context = never canceled).
func cancelOf(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	return func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// Solve optimizes a relaxation built by Relax and classifies the
// result. konst is the affine objective constant the relaxation's
// rows omit (the query objective is konst + Σ w·m); it is added to
// the LP optimum before padding. A canceled or iteration-limited
// solve returns an uncertified outcome — an interrupted simplex
// proves nothing.
func Solve(ctx context.Context, p *lp.Problem, konst float64) Outcome {
	return outcomeOf(lp.Solve(p, lp.Options{Cancel: cancelOf(ctx)}), p.Sense(), konst)
}

// outcomeOf classifies one relaxation solve.
func outcomeOf(sol *lp.Solution, sense lp.Sense, konst float64) Outcome {
	out := Outcome{Iterations: sol.Iterations}
	switch sol.Status {
	case lp.StatusOptimal:
		out.Bound = Pad(sol.Objective+konst, sense)
		out.Certified = true
	case lp.StatusInfeasible:
		out.Infeasible = true
	}
	return out
}

// Best merges per-branch outcomes of a DNF union into one. The union's
// optimum is the best branch optimum, so its dual bound is the best
// (largest for Maximize, smallest for Minimize) certified branch
// bound. The merge is certified only when every branch is accounted
// for — certified or relaxation-infeasible — and at least one is
// certified; a single interrupted branch leaves the union unproven.
// Infeasible is set only when every branch relaxation was infeasible,
// which callers must NOT surface as certified query infeasibility.
func Best(sense lp.Sense, outs []Outcome) Outcome {
	res := Outcome{Infeasible: len(outs) > 0}
	accounted, seen := true, false
	for _, o := range outs {
		res.Iterations += o.Iterations
		if o.Infeasible {
			continue
		}
		res.Infeasible = false
		if !o.Certified {
			accounted = false
			continue
		}
		if !seen || better(sense, o.Bound, res.Bound) {
			res.Bound = o.Bound
		}
		seen = true
	}
	res.Certified = accounted && seen
	return res
}

// better reports whether a beats b as a union bound for the sense: a
// maximization union is bounded by the largest branch bound, a
// minimization union by the smallest.
func better(sense lp.Sense, a, b float64) bool {
	if sense == lp.Maximize {
		return a > b
	}
	return a < b
}
