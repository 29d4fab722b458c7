package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bound"
)

// New runs the execution planner over one input and returns the
// decision trail. It is a pure function of the input: same input, same
// plan.
func New(in Input) *Plan {
	n := in.N
	procs := in.Procs
	if procs < 1 {
		procs = 1
	}
	p := &Plan{
		Query:       in.Query,
		Table:       in.Table,
		Candidates:  n,
		RowsScanned: in.RowsScanned,
		SnapshotHit: in.SnapshotHit,
		Mix:         in.Mix,
	}

	// Knobs first: τ and depth are functions of size and atom mix
	// alone, and the sketch's cost estimate reads τ.
	tau := pickTau(p, in)
	depth := pickDepth(p, in, tau)
	par := pickParallelism(p, in, procs)

	strat := pickStrategy(p, in, tau)
	p.Strategy = strat

	sketchy := strat == StrategySketch
	if sketchy || in.Forced.Tau > 0 {
		p.Tau = tau
	}
	if sketchy || in.Forced.Depth > 0 {
		p.Depth = depth
	}
	if sketchy {
		p.Parallelism = par
		pickMaintenance(p, in)
	} else {
		p.Incremental = true
		// The knob decisions explain values that will not be used; keep
		// only forced ones so EXPLAIN for a solver plan stays honest.
		kept := p.Decisions[:0]
		for _, d := range p.Decisions {
			if d.Name == "strategy" || d.Forced {
				kept = append(kept, d)
			}
		}
		p.Decisions = kept
	}

	// Memory is estimated for whatever strategy won (forced ones too):
	// engines gate admission on it, so every plan must carry it.
	pickMemory(p, in, strat, tau, depth)

	// The bound decision also runs after the filter: every strategy's
	// plan says how (or whether) its objective interval gets certified.
	pickBound(p, in, strat, tau)

	// The strategy decision reads best first; knob decisions follow in
	// pick order.
	orderDecisions(p)
	return p
}

// pickMemory records the chosen strategy's predicted peak working set.
// It runs after the solver-plan decision filter so the estimate always
// survives into the trail — admission control reads it off the plan.
func pickMemory(p *Plan, in Input, strat string, tau, depth int) {
	atoms := in.Mix.SumCount + in.Mix.Avg + in.Mix.MinMax
	est := MemoryEstimate(strat, in.N, tau, depth, atoms)
	p.MemoryBytes = est
	// Cost stays zero: Decision.Cost is abstract work units and the
	// trail would render bytes as a solver-cost lookalike.
	p.Decisions = append(p.Decisions, Decision{
		Name:  "memory",
		Value: formatBytes(est),
		Reason: fmt.Sprintf("predicted peak working set for %s over %d candidates (%d atoms)",
			strat, in.N, atoms),
	})
}

// pickBound records which dual-bound pass will certify the objective
// interval (internal/bound): the exact solver proves its own
// branch-and-bound bound; the sketch path runs the staged bound
// pipeline per DNF branch — the exact LP relaxation over the raw
// candidates while they are few, the segmented tree relaxation beyond
// that, escalated to Lagrangian tightening when band (BETWEEN or
// equality) rows are present and to the adaptive one-level descent
// when the anytime mode needs the tightest certificate it can get.
// Strategies without a relaxation leave the gap unproven. The cost
// estimate is the relaxation's variable count times the branch count
// per solve: each grouping is relaxed and solved once, tightening adds
// one inner LP per round, and the descent adds one refined solve over
// the extra singleton columns. That is not small change next to the
// descent: over a cached tree at 50,000 rows the tightened pass is
// several times the descent and refine it certifies (the benchmark's
// bound.pass_share on sketch-warm); what it does not do is grow with
// the table, so the share shrinks as the scan and the tree grow.
func pickBound(p *Plan, in Input, strat string, tau int) {
	const rounds = bound.DefaultTightenRounds
	d := Decision{Name: "bound"}
	branches := in.Mix.Branches
	if branches < 1 {
		branches = 1
	}
	leaves := (in.N + tau - 1) / tau
	// One pipeline stage per rung; costs model LP solves: the base tree
	// LP, +1 solve per tightening round, +1 refined solve with the
	// descent's extra columns.
	treeC := float64(leaves * branches)
	tightenC := treeC * float64(1+rounds)
	descendC := tightenC + float64((leaves+DescendBudget)*branches)
	switch {
	case !in.Mix.Objective:
		d.Value = BoundNone
		d.Reason = "no objective: feasibility needs no dual bound"
	case strat == StrategySolver || strat == StrategyPrunedEnum:
		d.Value = BoundMILPDual
		d.Reason = "exact strategy: the search proves its own dual bound (gap 0 at optimality)"
	case strat != StrategySketch:
		d.Value = BoundNone
		d.Reason = fmt.Sprintf("%s has no relaxation to certify against: gap stays unproven", strat)
	case in.N <= SketchThreshold:
		d.Value = BoundRawLP
		d.Cost = float64(in.N * branches)
		d.Reason = fmt.Sprintf("%d candidates ≤ %d: the exact LP relaxation is affordable and tightest", in.N, SketchThreshold)
	case in.Forced.GapTolerance > 0:
		d.Value = BoundDescend1
		d.Cost = descendC
		d.Reason = fmt.Sprintf("anytime mode over ~%d leaves: full pipeline (segments, %d Lagrangian rounds, one-level descent) buys the tightest certificate", leaves, rounds)
		d.Alternatives = []Alternative{{Value: BoundTreeLPTighten, Cost: tightenC}, {Value: BoundTreeLP, Cost: treeC}}
	case in.Mix.Bands > 0:
		d.Value = BoundTreeLPTighten
		d.Cost = tightenC
		d.Reason = fmt.Sprintf("%d band atom(s) (BETWEEN/equality): %d Lagrangian rounds tighten the paired-row envelopes over ~%d leaves", in.Mix.Bands, rounds, leaves)
		d.Alternatives = []Alternative{{Value: BoundTreeLP, Cost: treeC}, {Value: BoundDescend1, Cost: descendC}}
	default:
		d.Value = BoundTreeLP
		d.Cost = treeC
		d.Reason = fmt.Sprintf("LP relaxation over ~%d partition leaves (objective-sorted segments), %d branch(es); no band atoms to tighten", leaves, branches)
		d.Alternatives = []Alternative{{Value: BoundTreeLPTighten, Cost: tightenC}}
	}
	if in.Forced.GapTolerance > 0 && d.Value != BoundNone {
		d.Forced = true
		d.Reason += fmt.Sprintf("; anytime mode stops once provably within %.1f%% of optimal", 100*in.Forced.GapTolerance)
	}
	p.Bound = d.Value
	p.Decisions = append(p.Decisions, d)
}

// formatBytes renders a byte count with a binary-ish unit for the
// decision trail (the same rendering lifecycle's budget errors use).
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// orderDecisions sorts the trail into display order.
func orderDecisions(p *Plan) {
	rank := map[string]int{
		"strategy": 0, "tau": 1, "depth": 2, "parallelism": 3,
		"maintenance": 4, "bound": 5, "memory": 6,
	}
	out := make([]Decision, 0, len(p.Decisions))
	for r := 0; r < len(rank); r++ {
		for _, d := range p.Decisions {
			if rank[d.Name] == r {
				out = append(out, d)
			}
		}
	}
	p.Decisions = out
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
// variables: with L leaves the tree needs ⌈log_MaxTopVars(L)⌉ levels.
// MIN/MAX atoms cap depth at MinMaxDepthCap — envelope relaxation
// loosens per level, and feasibility there is worth more than solve
// time.
func pickDepth(p *Plan, in Input, tau int) int {
	d := Decision{Name: "depth"}
	if in.Forced.Depth > 0 {
		d.Value, d.Forced = strconv.Itoa(in.Forced.Depth), true
		d.Reason = "explicit depth flag"
		p.Decisions = append(p.Decisions, d)
		return in.Forced.Depth
	}
	leaves := (in.N + tau - 1) / tau
	if leaves < 1 {
		leaves = 1
	}
	depth := 1
	if leaves > MaxTopVars {
		depth = int(math.Ceil(math.Log(float64(leaves)) / math.Log(MaxTopVars)))
		if depth > MaxDepth {
			depth = MaxDepth
		}
	}
	d.Reason = fmt.Sprintf("%d leaves fit a single MILP of ≤ %d vars: flat", leaves, MaxTopVars)
	if depth > 1 {
		d.Reason = fmt.Sprintf("%d leaves > %d top-level vars: %d levels keep the root small", leaves, MaxTopVars, depth)
	}
	if in.Mix.MinMax > 0 && depth > MinMaxDepthCap {
		depth = MinMaxDepthCap
		d.Reason = fmt.Sprintf("%d leaves, but %d MIN/MAX atom(s): depth capped at %d to keep envelopes tight", leaves, in.Mix.MinMax, depth)
	}
	d.Value = strconv.Itoa(depth)
	p.Decisions = append(p.Decisions, d)
	return depth
}

// pickParallelism fans the build and refine waves across all procs once
// the table clears the builder's serial cutoff; below it goroutine
// overhead eats the win. No option forces it: the worker count never
// changes an answer, so GOMAXPROCS is the one way to bound it.
func pickParallelism(p *Plan, in Input, procs int) int {
	d := Decision{Name: "parallelism"}
	par := 1
	d.Reason = fmt.Sprintf("%d candidates < %d: serial avoids fan-out overhead", in.N, ParallelMinRows)
	if in.N >= ParallelMinRows {
		par = procs
		d.Reason = fmt.Sprintf("%d candidates ≥ %d: fan out across %d workers", in.N, ParallelMinRows, procs)
	}
	d.Value = strconv.Itoa(par)
	p.Decisions = append(p.Decisions, d)
	return par
}

// pickStrategy records the strategy decision. A forced strategy wins
// unless the atom mix rules it out — the solver on a non-linear query,
// sketch-refine on a query the sketch compiler cannot lower. Such a
// query is decided exactly as if nothing had been forced, and the
// reason names the override, so every later decision (knobs, bound,
// memory) is made for the strategy that will run.
func pickStrategy(p *Plan, in Input, tau int) string {
	forced := in.Forced.Strategy
	ruledOut := (forced == StrategySolver && !in.Mix.Linear) || (forced == StrategySketch && !in.Mix.SketchOK)
	d := Decision{Value: forced, Forced: true, Reason: "explicit strategy flag"}
	if forced == "" || ruledOut {
		d = costStrategy(in, tau)
	}
	if ruledOut {
		// A linear query the sketch cannot run names its own obstruction
		// in the reason costStrategy gives.
		why := ""
		if !in.Mix.Linear {
			why = fmt.Sprintf(" (non-linear: %s)", strings.Join(in.Mix.NonlinearReasons, "; "))
		}
		d.Reason = fmt.Sprintf("forced %s unavailable%s; falling back: %s", forced, why, d.Reason)
	}
	d.Name = "strategy"
	p.Decisions = append(p.Decisions, d)
	return d.Value
}

// costStrategy is the cost comparison at the heart of the planner.
// Non-linear queries can only enumerate or local-search; linear ones
// weigh the exact MILP against SketchRefine — exact wins while its
// estimate stays under the affordability budget, the cheaper of the two
// wins beyond it.
func costStrategy(in Input, tau int) Decision {
	n := in.N
	var d Decision
	if !in.Mix.Linear {
		enumC, localC := EnumCost(n), LocalSearchCost(n)
		if n <= ExactEnumMax && in.MaxMult > 0 {
			d.Value, d.Cost = StrategyPrunedEnum, enumC
			d.Reason = fmt.Sprintf("non-linear query, %d candidates ≤ %d: exact pruned enumeration is affordable", n, ExactEnumMax)
			d.Alternatives = []Alternative{{Value: StrategyLocalSearch, Cost: localC}}
		} else {
			d.Value, d.Cost = StrategyLocalSearch, localC
			why := fmt.Sprintf("%d candidates > %d", n, ExactEnumMax)
			if in.MaxMult <= 0 {
				why = "unbounded multiplicity"
			}
			d.Reason = fmt.Sprintf("non-linear query (%s): local search is the only tractable option", why)
			d.Alternatives = []Alternative{{Value: StrategyPrunedEnum, Cost: enumC}}
		}
		return d
	}
	solverC := SolverCost(n)
	if !in.Mix.SketchOK {
		d.Value, d.Cost = StrategySolver, solverC
		d.Reason = fmt.Sprintf("linear query but sketch inapplicable (%s): exact MILP", in.Mix.SketchErr)
		return d
	}
	sketchC := SketchCost(n, tau, in.Mix.Branches)
	if solverC <= ExactBudget() {
		d.Value, d.Cost = StrategySolver, solverC
		d.Reason = fmt.Sprintf("linear query, %d candidates ≤ %d: exact MILP is affordable", n, SketchThreshold)
		d.Alternatives = []Alternative{{Value: StrategySketch, Cost: sketchC}}
		return d
	}
	// Past the budget the sketch is always the cheaper of the two: even
	// with its build priced in, at τ = 1 and the full eight DNF branches,
	// its estimate is under half the solver's
	// (TestSketchEstimateUndercutsSolverPastTheBudget).
	d.Value, d.Cost = StrategySketch, sketchC
	d.Reason = fmt.Sprintf("linear query, %d candidates > %d: partitioned sketch is cheapest", n, SketchThreshold)
	d.Alternatives = []Alternative{{Value: StrategySolver, Cost: solverC}}
	return d
}

// pickMaintenance records a rebuild the user forced. Otherwise there is
// no decision to make before the run: tree acquisition patches a stale
// tree while its drift since the last full build fits the budget
// (PatchFits, which Tree.ApplyDelta checks) and rebuilds past it, and the
// run's record says which it did.
func pickMaintenance(p *Plan, in Input) {
	p.Incremental = !in.Forced.Rebuild
	if !in.Forced.Rebuild {
		return
	}
	p.Maintenance = MaintainRebuild
	p.Decisions = append(p.Decisions, Decision{Name: "maintenance", Value: MaintainRebuild, Forced: true,
		Reason: "explicit incremental flag"})
}
