// Package plan is the rule-based strategy planner: the single place
// that turns "what does this query look like and how many candidates
// does it have" into "which strategy and which knobs". It follows the
// classic query-planner / execution-planner split:
//
//   - the query-planner half (AnalyzeAtoms) classifies the atom mix of a
//     PaQL analysis — linear, AVG, MIN/MAX, disjunctive — given the
//     translation's linearity verdict (translate.Nonlinear) and the
//     sketch engine's applicability verdict and branch count;
//   - the execution-planner half (New) applies threshold rules: exact
//     MILP for a linear query up to SketchThreshold candidates and
//     SketchRefine beyond, pruned enumeration for a non-linear one up to
//     ExactEnumMax candidates and local search otherwise; it sizes τ
//     and tree depth to the candidates, picks parallelism from size and
//     GOMAXPROCS and the bound stage from the band atoms, and predicts
//     the working set (MemoryEstimate) — emitting a typed Plan whose
//     every Decision carries a human-readable reason.
//
// Where the partition tree comes from — memory, disk, a patch of a stale
// tree, or a build — is not a plan decision: tree acquisition in
// internal/sketch decides it when the query runs, against the drift
// budget Tree.ApplyDelta holds (PatchFits), and the run's result records
// what happened; no option overrides it.
//
// Explicit user knobs win: they enter as Input.Forced and come back out
// in the Plan marked forced, so EXPLAIN shows exactly which choices the
// user pinned and which the planner made. The one exception is a forced
// strategy the query rules out — by its atoms, or pruned enumeration by
// more than ExactEnumMax candidates: the planner decides it as if
// unforced and the reason says so, because the plan is what runs.
//
// The thresholds below are declared here once and read from here by the
// engines that enforce them (internal/sketch, internal/core), so a plan
// cannot promise what the execution will not do. The package imports
// internal/bound for the certified-bound pipeline's stage names and round
// budget, which the pipeline owns; it imports neither engine, and the
// table arrives as a TableStats value — so Input is plain data and
// planning a pure function of it, which is what makes the decision
// matrix testable.
package plan

import (
	"repro/internal/bound"
	"repro/internal/expr"
	"repro/internal/paql"
)

// The planner's thresholds. Each is declared here and nowhere else: the
// sketch engine and core read these constants for the limits they
// enforce, so a retuned number moves the decision and the execution
// together.
const (
	// ExactEnumMax is the largest candidate count worth exact
	// enumeration for non-linear queries.
	ExactEnumMax = 22
	// SketchThreshold is the candidate count where an exact MILP stops
	// being affordable and SketchRefine takes over. The sketch engine's
	// bound pass switches at the same count from the exact LP relaxation
	// over raw candidates to the tree relaxation — below it the exact
	// strategy would have run anyway — and core computes the §4.1
	// search-space size only up to it.
	SketchThreshold = 4096
	// DefaultTau and LargeTau are the leaf-size bounds τ for tables at or
	// below / above LargeTauRows candidates; DefaultTau is also what the
	// sketch engine uses when handed no τ.
	DefaultTau   = 64
	LargeTau     = 256
	LargeTauRows = 100_000
	// MaxTopVars caps the top-level sketch MILP size; depth grows until
	// the root level fits under it.
	MaxTopVars = 64
	// MaxDepth caps the partition-tree depth — beyond it extra levels
	// only add representative error. The sketch engine clamps requested
	// depths to it and rejects persisted trees deeper than it.
	MaxDepth = 8
	// MinMaxDepthCap caps depth for queries with MIN/MAX atoms. A sketch
	// level relaxes their selector rows over whole subtrees from counts
	// folded up from the leaves: an elimination row excludes only a node
	// whose every tuple violates it, an at-least-one row admits a node
	// holding any witness. Every level above the leaves is looser, so
	// deep trees cost feasibility more than they save solve time.
	MinMaxDepthCap = 2
	// ParallelMinRows is the row count below which fan-out overhead beats
	// the win: the planner stays serial under it, and so does the tree
	// builder's median splitter for any group smaller than it.
	ParallelMinRows = 2048
	// PatchMaxFrac is the largest drift (inserts + deletes since a tree's
	// last full build, as a fraction of the current candidates) a patched
	// tree may carry; past it patching would have touched most of the tree
	// and a rebuild is both faster and higher-fidelity. Tree.ApplyDelta
	// refuses beyond it (PatchFits).
	PatchMaxFrac = 0.25
)

// PatchFits reports whether a tree that has drifted by drift tuples since
// its last full build can absorb a step of step more over n current
// candidates: the one size check Tree.ApplyDelta makes.
func PatchFits(drift, step, n int) bool {
	return float64(drift+step) <= PatchMaxFrac*float64(n)
}

// Strategy names a plan can choose (core.ParseStrategy's spellings).
const (
	// StrategySolver is the exact MILP over all candidates.
	StrategySolver = "solver"
	// StrategySketch is SketchRefine over a (possibly hierarchical)
	// partition tree.
	StrategySketch = "sketch-refine"
	// StrategyPrunedEnum is exact branch-and-bound enumeration.
	StrategyPrunedEnum = "pruned-enum"
	// StrategyLocalSearch is the greedy + local-search heuristic.
	StrategyLocalSearch = "local-search"
)

// Bound values: which dual-bound pass certifies the objective interval
// the evaluation returns. The four pipeline rungs are internal/bound's
// stage names, so what a plan asks for is what Stats.BoundStage reports.
const (
	// BoundRawLP: LP relaxation over the raw candidates — the exact LP
	// relaxation of the query's MILP, the tightest bound an LP gives.
	BoundRawLP = bound.StageRawLP
	// BoundTreeLP: LP relaxation over the partition-tree leaves, each
	// leaf split into objective-sorted segments (piecewise-linear
	// columns); a handful of variables per leaf keeps the bound pass
	// tiny at any scale.
	BoundTreeLP = bound.StageTreeLP
	// BoundTreeLPTighten: the tree relaxation plus a few rounds of
	// subgradient Lagrangian tightening on the rows the LP leaves tight
	// or violated — what band (BETWEEN/equality) rows need, since the
	// grouped envelope is loosest on paired ≤/≥ rows.
	BoundTreeLPTighten = bound.StageTightened
	// BoundDescend1 is never planned. The name stays only as the
	// signature the benchmark's layer trace compiles against.
	BoundDescend1 = bound.StageDescend
	// BoundMILPDual: the exact solver's own branch-and-bound dual bound
	// (gap 0 when it proves optimality).
	BoundMILPDual = "milp-dual"
	// BoundNone: nothing to bound — no objective, or a strategy with no
	// relaxation to certify against.
	BoundNone = "none"
)

// AtomMix classifies a query's constraint atoms — the query-planner
// half's output.
type AtomMix struct {
	// Linear reports whether the exact MILP translation can encode the
	// query (translate.Nonlinear is empty).
	Linear bool `json:"linear"`
	// NonlinearReasons lists the linearity obstructions when not.
	NonlinearReasons []string `json:"nonlinearReasons,omitempty"`
	// SketchOK reports whether the sketch path can run this query.
	SketchOK bool `json:"sketchOK"`
	// SketchErr is the applicability error when it cannot.
	SketchErr string `json:"sketchErr,omitempty"`
	// Branches is the number of DNF branches a sketch run will descend
	// (1 for conjunctive queries, 0 when inapplicable).
	Branches int `json:"branches"`
	// SumCount, Avg and MinMax count the distinct aggregates by family.
	SumCount int `json:"sumCountAtoms"`
	Avg      int `json:"avgAtoms"`
	MinMax   int `json:"minMaxAtoms"`
	// Bands counts band-shaped SUCH THAT atoms — BETWEEN ranges and
	// equality comparisons — which lower to paired ≤/≥ rows the grouped
	// envelope relaxation is loosest on. The bound decision escalates
	// to the tightening stages when they are present.
	Bands int `json:"bandAtoms,omitempty"`
	// Objective reports whether the query optimizes an objective — a
	// feasibility-only query has nothing to bound, so the bound
	// decision keys on this.
	Objective bool `json:"objective,omitempty"`
}

// AnalyzeAtoms binds an analyzed query into an atom mix. nonlinear is
// the query's linearity verdict (translate.Nonlinear: why the exact MILP
// translation cannot encode it, nil when it can); branches and sketchErr
// are the sketch engine's applicability verdict for the same query
// (sketch.Applicable): the DNF branches it will descend, or why it cannot
// run the query at all.
func AnalyzeAtoms(a *paql.Analysis, nonlinear []string, branches int, sketchErr error) AtomMix {
	m := AtomMix{Linear: len(nonlinear) == 0, NonlinearReasons: nonlinear,
		Objective: a.Query != nil && a.Query.Objective != nil}
	if a.Query != nil && a.Query.SuchThat != nil {
		expr.Walk(a.Query.SuchThat, func(e expr.Expr) {
			switch n := e.(type) {
			case *expr.Between:
				m.Bands++
			case *expr.Binary:
				if n.Op == expr.OpEq {
					m.Bands++
				}
			}
		})
	}
	for _, agg := range a.Aggs {
		switch agg.Fn {
		case "AVG":
			m.Avg++
		case "MIN", "MAX":
			m.MinMax++
		default:
			m.SumCount++
		}
	}
	if sketchErr != nil {
		m.SketchErr = sketchErr.Error()
		return m
	}
	m.SketchOK = true
	m.Branches = branches
	return m
}

// TableStats is what the planner knows about the queried table without
// touching its rows. No decision reads it: plan.New echoes it into the
// Plan and EXPLAIN prints it in its header.
type TableStats struct {
	// Table is the table's declared name.
	Table string `json:"table"`
	// Rows is the current row count.
	Rows int `json:"rows"`
	// Version is the table's delta-log version the snapshot describes.
	Version uint64 `json:"version"`
}

// Forced carries the knobs the user pinned explicitly; zero values mean
// "planner's choice".
type Forced struct {
	// Strategy is the explicit strategy name, or "". It wins unless the
	// atom mix rules it out (see pickStrategy).
	Strategy string `json:"strategy,omitempty"`
	// Tau is the explicit leaf-size bound, or 0.
	Tau int `json:"tau,omitempty"`
	// Depth is the explicit tree depth, or 0; one past MaxDepth is
	// planned at MaxDepth, the deepest tree the sketch engine builds.
	Depth int `json:"depth,omitempty"`
}

// Input is everything the execution planner looks at — plain data, so
// planning is a pure function of a value and the decision matrix can
// enumerate cells without a live engine.
type Input struct {
	// Query is the raw query text (display only).
	Query string `json:"query,omitempty"`
	// Table describes the queried table (display only).
	Table TableStats `json:"table"`
	// N is the candidate count after the WHERE filter.
	N int `json:"candidates"`
	// RowsScanned is how many table rows the WHERE filter was evaluated
	// on to find them, and SnapshotHit whether the table's candidate
	// snapshot served them instead (display only).
	RowsScanned int  `json:"rowsScanned"`
	SnapshotHit bool `json:"snapshotHit"`
	// Mix is the query-planner half's atom classification.
	Mix AtomMix `json:"atomMix"`
	// Procs is the scheduler's GOMAXPROCS: with N, the parallelism
	// decision's only input.
	Procs int `json:"procs"`
	// Forced carries explicitly pinned knobs.
	Forced Forced `json:"forced"`
}

// Decision is one planner choice with its justification.
type Decision struct {
	// Name identifies the decision: strategy, tau, depth, parallelism,
	// bound, memory.
	Name string `json:"name"`
	// Value is the chosen value, rendered as a string.
	Value string `json:"value"`
	// Forced reports that the user pinned this value explicitly.
	Forced bool `json:"forced,omitempty"`
	// Reason explains the choice in one human-readable sentence.
	Reason string `json:"reason"`
}

// Plan is the planner's typed output: the chosen strategy and knobs
// plus the per-decision trail EXPLAIN renders.
type Plan struct {
	// Query echoes the planned query text.
	Query string `json:"query,omitempty"`
	// Table echoes the table snapshot the plan was made against.
	Table TableStats `json:"table"`
	// Candidates is the candidate count after the WHERE filter;
	// RowsScanned and SnapshotHit echo how the preparation found them.
	Candidates  int  `json:"candidates"`
	RowsScanned int  `json:"rowsScanned"`
	SnapshotHit bool `json:"snapshotHit"`
	// Mix is the atom classification.
	Mix AtomMix `json:"atomMix"`
	// Strategy is the chosen strategy name (core.ParseStrategy spelling).
	Strategy string `json:"strategy"`
	// Tau, Depth and Parallelism are the planned sketch knobs (set only
	// when the plan takes the sketch path or the knob was forced).
	Tau         int `json:"tau,omitempty"`
	Depth       int `json:"depth,omitempty"`
	Parallelism int `json:"parallelism,omitempty"`
	// Incremental is always true and never read by the engine, nor sent
	// on the wire: whether a stale tree is patched is tree acquisition's
	// call (PatchFits), and the run's record says which it did. The field
	// stays only as the signature the benchmark's layer trace compiles
	// against.
	Incremental bool `json:"-"`
	// MemoryBytes is the predicted peak working set of the chosen
	// strategy (MemoryEstimate); engines gate admission on it
	// against a per-query memory budget.
	MemoryBytes int64 `json:"memoryBytes,omitempty"`
	// Bound names the dual-bound pass the evaluation will run to
	// certify its objective interval (BoundRawLP, BoundTreeLP,
	// BoundTreeLPTighten, BoundMILPDual, or BoundNone).
	// Sketch evaluations feed it to the bound pipeline as the deepest
	// stage to run.
	Bound string `json:"bound,omitempty"`
	// Decisions is the ordered decision trail.
	Decisions []Decision `json:"decisions"`
}

// Decision returns the named decision, or nil.
func (p *Plan) Decision(name string) *Decision {
	for i := range p.Decisions {
		if p.Decisions[i].Name == name {
			return &p.Decisions[i]
		}
	}
	return nil
}

// MemoryEstimate predicts the peak working set a strategy allocates on
// top of the candidate rows, in bytes. The formulas are deliberately
// rough — order-of-magnitude allocation models, not measurements — but
// they scale with the same variables the real allocations do, which is
// what admission control needs:
//
//   - solver: one flat simplex working matrix of (atoms+2)·n float64 cells
//     plus branch-and-bound node state (~48 bytes/candidate of bound
//     vectors and incumbents);
//   - sketch-refine: one 8-byte tuple index per candidate per tree level
//     (8·n·depth) — an upper bound, since only the leaves hold tuple
//     indexes — plus representatives (~16n); each residual sub-MILP is
//     bounded by the leaf size (negligible next to the tree at scale);
//   - enumeration and local search: multiplicity vectors and bookkeeping
//     linear in n (~32 bytes/candidate).
//
// Engines compare the estimate against Options.MemoryBudget before
// dispatch and refuse with a typed budget error instead of thrashing.
func MemoryEstimate(strategy string, n, depth, atoms int) int64 {
	if n < 1 {
		return 0
	}
	f := int64(n)
	switch strategy {
	case StrategySolver:
		return f*int64(atoms+2)*16 + f*48
	case StrategySketch:
		if depth < 1 {
			depth = 1
		}
		return f*int64(depth)*8 + f*16
	default: // pruned-enum, local-search
		return f * 32
	}
}
