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
// Certify finds that LP by column generation over the tuple columns and
// certifies it by weak duality (see tighten.go): at any sign-correct
// row multipliers y the Lagrangian L(y) is a true dual bound, and it is
// computed under a rounding margin (lp.Lagrangian), so simplex round-off
// cannot flip a true statement into a false one. There is one regime:
// the rows, pins and eliminations of a branch at any candidate count.
//
// Disjunctive queries bound each DNF branch independently and merge
// with Best: the union's optimum is bounded by the best branch bound.
// A branch whose relaxation is infeasible contributes nothing — but an
// infeasible relaxation is never treated as a proof that the original
// query is infeasible, because the engine's lowering of strict
// comparisons is epsilon-tightened.
package bound

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// Group is a set of candidate tuples, the unit the benchmark's layer
// trace hands RunPipeline. Only its tuples are read.
type Group struct {
	// Tuples lists the candidate indexes the group covers.
	Tuples []int
	// Hi is never read. The field stays only as the signature the
	// benchmark's layer trace compiles against.
	Hi float64
}

// Outcome is the result of one relaxation's certificate.
type Outcome struct {
	// Bound is the certified dual bound on the objective, in the
	// problem's sense: an upper bound for a maximization, a lower
	// bound for a minimization. Valid only when Certified.
	Bound float64
	// Certified reports that Bound is a true dual bound: an L(y) under
	// its rounding margin.
	Certified bool
	// Infeasible reports that the relaxation itself had no feasible
	// point. This bounds nothing about the original query (the
	// lowering of strict comparisons is epsilon-tightened), but for a
	// DNF branch it means the branch contributes no candidate optimum.
	Infeasible bool
	// Iterations counts the simplex iterations spent.
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
