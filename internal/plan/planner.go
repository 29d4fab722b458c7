package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/lifecycle"
)

// New runs the execution planner over one input and returns the
// decision trail. It is a pure function of the input: same input, same
// plan. The strategy is decided first; the sketch knobs are then
// decided only for a sketch plan or when the user forced them, and the
// bound and memory lines follow for whatever strategy runs. Each
// decision is appended as it is made, which is display order.
func New(in Input) *Plan {
	p := &Plan{
		Query:       in.Query,
		Table:       in.Table,
		Candidates:  in.N,
		RowsScanned: in.RowsScanned,
		SnapshotHit: in.SnapshotHit,
		Mix:         in.Mix,
		Incremental: true,
	}
	p.Strategy = pickStrategy(p, in)
	sketchy := p.Strategy == StrategySketch
	if sketchy || in.Forced.Tau > 0 {
		p.Tau = pickTau(p, in)
	}
	if sketchy || in.Forced.Depth > 0 {
		p.Depth = pickDepth(p, in)
	}
	if sketchy {
		p.Parallelism = pickParallelism(p, in)
	}
	pickBound(p, in)
	pickMemory(p, in)
	return p
}

// pickStrategy records the strategy decision. A forced strategy wins
// unless the query rules it out — the solver on a non-linear query,
// sketch-refine on a query the sketch compiler cannot lower, pruned
// enumeration over more than ExactEnumMax candidates, whose search space
// no budget covers. Such a query is decided exactly as if nothing had
// been forced, and the reason names the override, so every later
// decision (knobs, bound, memory) is made for the strategy that will run.
func pickStrategy(p *Plan, in Input) string {
	forced := in.Forced.Strategy
	tooMany := forced == StrategyPrunedEnum && in.N > ExactEnumMax
	ruledOut := (forced == StrategySolver && !in.Mix.Linear) || (forced == StrategySketch && !in.Mix.SketchOK) || tooMany
	d := Decision{Value: forced, Forced: true, Reason: "explicit strategy flag"}
	if forced == "" || ruledOut {
		d = strategyRule(in)
	}
	if ruledOut {
		// A linear query the sketch cannot run names its own obstruction
		// in the reason strategyRule gives.
		why := ""
		switch {
		case tooMany:
			why = fmt.Sprintf(" (%d candidates > %d)", in.N, ExactEnumMax)
		case !in.Mix.Linear:
			why = fmt.Sprintf(" (non-linear: %s)", strings.Join(in.Mix.NonlinearReasons, "; "))
		}
		d.Reason = fmt.Sprintf("forced %s unavailable%s; falling back: %s", forced, why, d.Reason)
	}
	d.Name = "strategy"
	p.Decisions = append(p.Decisions, d)
	return d.Value
}

// strategyRule is the planner's strategy rule. Non-linear queries
// enumerate exactly while the candidates are at most ExactEnumMax, and
// local-search otherwise. Linear queries solve the exact MILP when the
// sketch compiler cannot lower them or the candidates are at most
// SketchThreshold, and SketchRefine beyond it.
func strategyRule(in Input) Decision {
	n := in.N
	var d Decision
	switch {
	case !in.Mix.Linear && n <= ExactEnumMax:
		d.Value = StrategyPrunedEnum
		d.Reason = fmt.Sprintf("non-linear query, %d candidates ≤ %d: exact pruned enumeration is affordable", n, ExactEnumMax)
	case !in.Mix.Linear:
		d.Value = StrategyLocalSearch
		d.Reason = fmt.Sprintf("non-linear query (%d candidates > %d): local search is the only tractable option", n, ExactEnumMax)
	case !in.Mix.SketchOK:
		d.Value = StrategySolver
		d.Reason = fmt.Sprintf("linear query but sketch inapplicable (%s): exact MILP", in.Mix.SketchErr)
	case n <= SketchThreshold:
		d.Value = StrategySolver
		d.Reason = fmt.Sprintf("linear query, %d candidates ≤ %d: exact MILP is affordable", n, SketchThreshold)
	default:
		d.Value = StrategySketch
		d.Reason = fmt.Sprintf("linear query, %d candidates > %d: partitioned sketch is cheapest", n, SketchThreshold)
	}
	return d
}

// pickTau chooses the leaf-size bound: the default for ordinary tables,
// quadrupled past LargeTauRows so leaf count — and with it build and
// descent cost — stays bounded as tables grow.
func pickTau(p *Plan, in Input) int {
	d := Decision{Name: "tau"}
	if in.Forced.Tau > 0 {
		d.Value, d.Forced = strconv.Itoa(in.Forced.Tau), true
		d.Reason = "explicit partition-size flag"
		p.Decisions = append(p.Decisions, d)
		return in.Forced.Tau
	}
	tau := DefaultTau
	d.Reason = fmt.Sprintf("%d candidates ≤ %d: default leaf size", in.N, LargeTauRows)
	if in.N > LargeTauRows {
		tau = LargeTau
		d.Reason = fmt.Sprintf("%d candidates > %d: larger leaves bound the leaf count", in.N, LargeTauRows)
	}
	d.Value = strconv.Itoa(tau)
	p.Decisions = append(p.Decisions, d)
	return tau
}

// pickDepth sizes the hierarchy so the root level fits under MaxTopVars
// variables: with L leaves of p.Tau tuples the tree needs
// ⌈log_MaxTopVars(L)⌉ levels, at most MaxDepth. MIN/MAX atoms cap depth
// at MinMaxDepthCap (see there). A forced depth wins but is clamped to
// MaxDepth, the deepest tree the sketch engine builds.
func pickDepth(p *Plan, in Input) int {
	d := Decision{Name: "depth"}
	if forced := in.Forced.Depth; forced > 0 {
		depth := min(forced, MaxDepth)
		d.Value, d.Forced = strconv.Itoa(depth), true
		d.Reason = "explicit depth flag"
		if forced > MaxDepth {
			d.Reason = fmt.Sprintf("explicit depth flag %d, clamped to the deepest tree the engine builds (%d)", forced, MaxDepth)
		}
		p.Decisions = append(p.Decisions, d)
		return depth
	}
	leaves := p.leaves()
	depth := 1
	if leaves > MaxTopVars {
		depth = min(int(math.Ceil(math.Log(float64(leaves))/math.Log(MaxTopVars))), MaxDepth)
	}
	d.Reason = fmt.Sprintf("%d leaves fit a single MILP of ≤ %d vars: flat", leaves, MaxTopVars)
	if depth > 1 {
		d.Reason = fmt.Sprintf("%d leaves > %d top-level vars: %d levels keep the root small", leaves, MaxTopVars, depth)
	}
	if in.Mix.MinMax > 0 && depth > MinMaxDepthCap {
		depth = MinMaxDepthCap
		d.Reason = fmt.Sprintf("%d leaves, but %d MIN/MAX atom(s): depth capped at %d because selector rows loosen at every level above the leaves", leaves, in.Mix.MinMax, depth)
	}
	d.Value = strconv.Itoa(depth)
	p.Decisions = append(p.Decisions, d)
	return depth
}

// leaves is the number of τ-bounded leaves over the candidates, at least
// one; only a sketch plan, whose τ is set, asks.
func (p *Plan) leaves() int { return max((p.Candidates+p.Tau-1)/p.Tau, 1) }

// pickParallelism fans the build and refine waves across all procs once
// the table clears the builder's serial cutoff; below it goroutine
// overhead eats the win. No option forces it: the worker count never
// changes an answer, so GOMAXPROCS is the one way to bound it.
func pickParallelism(p *Plan, in Input) int {
	d := Decision{Name: "parallelism"}
	par := 1
	d.Reason = fmt.Sprintf("%d candidates < %d: serial avoids fan-out overhead", in.N, ParallelMinRows)
	if in.N >= ParallelMinRows {
		par = max(in.Procs, 1)
		d.Reason = fmt.Sprintf("%d candidates ≥ %d: fan out across %d workers", in.N, ParallelMinRows, par)
	}
	d.Value = strconv.Itoa(par)
	p.Decisions = append(p.Decisions, d)
	return par
}

// pickBound records which dual-bound pass will certify the objective
// interval (internal/bound): the exact strategies prove their own bound;
// the sketch path certifies the LP relaxation over the raw candidates per
// DNF branch, at any candidate count. Local search has no relaxation and
// leaves the gap unproven.
func pickBound(p *Plan, in Input) {
	d := Decision{Name: "bound"}
	switch {
	case !in.Mix.Objective:
		d.Value = BoundNone
		d.Reason = "no objective: feasibility needs no dual bound"
	case p.Strategy == StrategySolver || p.Strategy == StrategyPrunedEnum:
		d.Value = BoundMILPDual
		d.Reason = "exact strategy: the search proves its own dual bound (gap 0 at optimality)"
	case p.Strategy != StrategySketch:
		d.Value = BoundNone
		d.Reason = fmt.Sprintf("%s has no relaxation to certify against: gap stays unproven", p.Strategy)
	default:
		d.Value = BoundRawLP
		d.Reason = fmt.Sprintf("LP relaxation over the %d candidates, %d branch(es): column generation finds it and L(y) certifies it", in.N, max(in.Mix.Branches, 1))
	}
	p.Bound = d.Value
	p.Decisions = append(p.Decisions, d)
}

// pickMemory records the chosen strategy's predicted peak working set,
// forced strategies included: engines gate admission on it, so every
// plan carries it.
func pickMemory(p *Plan, in Input) {
	atoms := in.Mix.SumCount + in.Mix.Avg + in.Mix.MinMax
	p.MemoryBytes = MemoryEstimate(p.Strategy, in.N, p.Depth, atoms)
	p.Decisions = append(p.Decisions, Decision{
		Name:  "memory",
		Value: lifecycle.FormatBytes(p.MemoryBytes),
		Reason: fmt.Sprintf("predicted peak working set for %s over %d candidates (%d atoms)",
			p.Strategy, in.N, atoms),
	})
}
