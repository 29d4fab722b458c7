// Package engine is PackageBuilder's core: it parses PaQL, folds scalar
// sub-queries against the DBMS, computes the candidate tuples (base
// constraints), derives §4.1 cardinality bounds, chooses an evaluation
// strategy ("PACKAGEBUILDER heuristically combines all of them"), and
// returns validated packages with their aggregate values.
//
// Strategies:
//   - Solver: translate to MILP and branch-and-bound (§7); multiple
//     packages via exclusion cuts (§5 "solver limitations").
//   - PrunedEnum: exact enumeration within cardinality bounds (§4.1).
//   - LocalSearchStrategy: SQL-join k-replacement hill climbing (§4.2).
//   - SketchRefineStrategy: the follow-up papers' partition-based
//     SketchRefine (internal/sketch) — solve a small sketch over
//     partition representatives, then refine per partition; heuristic
//     but fast at large n.
//   - Auto: pick by linearity and scale.
package core

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"time"

	"repro/internal/bound"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/plan"
	"repro/internal/prune"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/translate"
	"repro/internal/value"
)

// Strategy selects how a package query is evaluated.
type Strategy int

const (
	// Auto lets the engine choose (linearity- and scale-driven).
	Auto Strategy = iota
	// PrunedEnum enumerates within §4.1 cardinality bounds.
	PrunedEnum
	// LocalSearchStrategy is the §4.2 SQL-driven heuristic.
	LocalSearchStrategy
	// Solver translates to a MILP and runs branch-and-bound.
	Solver
	// SketchRefineStrategy partitions the candidates, solves a sketch
	// MILP over partition representatives, and refines per partition
	// (the PVLDB 2016 follow-up's SketchRefine).
	SketchRefineStrategy
)

// String returns the strategy's CLI/API name (e.g. "sketch-refine").
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case PrunedEnum:
		return plan.StrategyPrunedEnum
	case LocalSearchStrategy:
		return plan.StrategyLocalSearch
	case Solver:
		return plan.StrategySolver
	case SketchRefineStrategy:
		return plan.StrategySketch
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy name (as used by the CLIs and the
// HTTP API) to its Strategy value.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return Auto, nil
	case "pruned-enum", "pruned":
		return PrunedEnum, nil
	case "local-search", "local":
		return LocalSearchStrategy, nil
	case "solver", "milp":
		return Solver, nil
	case "sketch-refine", "sketch":
		return SketchRefineStrategy, nil
	}
	return Auto, fmt.Errorf("core: unknown strategy %q (auto, solver, sketch-refine, pruned-enum, local-search)", name)
}

// MarshalText spells the strategy by its String name, so a Strategy binds
// to a flag (flag.TextVar) or a JSON string field as it is.
func (s Strategy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText accepts every name ParseStrategy does.
func (s *Strategy) UnmarshalText(text []byte) (err error) {
	*s, err = ParseStrategy(string(text))
	return err
}

// Options tunes evaluation.
type Options struct {
	Strategy Strategy
	// Catalog is never read by the engine: the planner takes the table's
	// statistics from the Prepared's own table. The field stays only as
	// the signature the benchmark's layer trace compiles against.
	Catalog *Catalog
	// Limit overrides the query's LIMIT (number of packages).
	Limit int
	// Timeout bounds the whole evaluation, every package LIMIT, Diverse
	// or a Replace asks for included: packages found before it are the
	// answer. Under RunContext a hard context deadline trails it by a
	// short grace, the backstop for any path that ignores it.
	Timeout time.Duration
	// MemoryBudget, when positive, caps the planner-predicted peak
	// working set (plan.MemoryEstimate) a query may allocate:
	// evaluation refuses with lifecycle.ErrBudgetExceeded before
	// dispatching a strategy whose estimate exceeds it.
	MemoryBudget int64
	// Seed drives the randomized strategies.
	Seed int64
	// Restarts tunes local search.
	Restarts int
	// Diverse returns a diverse package set (max-min Jaccard greedy over
	// diverseOverFetch times the requested packages) instead of the top-k
	// by objective (§5 "diverse package results").
	Diverse bool
	// SketchPartitionSize bounds SketchRefine partitions (τ; 0 = the
	// planner sizes it).
	SketchPartitionSize int
	// SketchDepth is the SketchRefine partition-tree depth: 0 or 1 =
	// flat, ≥ 2 recurses the sketch over partitions of partitions so
	// the top-level MILP stays tiny at any scale.
	SketchDepth int
	// SketchCache, when set, caches SketchRefine partition trees across
	// evaluations (keyed by a fingerprint of the candidate rows); a hit
	// skips the offline partitioning step. System and pbserver share
	// one cache across queries.
	SketchCache *sketch.Cache
	// SketchNoCache suppresses the partition-tree cache and the
	// fingerprint memo for this evaluation, whether the options or the
	// Prepared supply them (ablation / -sketch-cache=false).
	SketchNoCache bool
	// SketchMemo, when set, memoizes candidate fingerprints per
	// (table, WHERE) across evaluations: warm sketch queries over an
	// unchanged table perform zero candidate hashing, and after writes
	// only the delta is hashed. System and pbserver share one memo
	// across queries, next to the partition-tree cache.
	SketchMemo *FingerprintMemo
	// SketchIncremental is never read by the engine: with a SketchMemo,
	// tree acquisition patches a stale tree in place after writes while
	// its drift fits plan.PatchMaxFrac and rebuilds it past that, whatever
	// the options say. The field stays only as the signature the
	// benchmark's layer trace compiles against.
	SketchIncremental bool
	// SketchPersistDir, when non-empty, persists SketchRefine partition
	// trees to this directory as an on-disk tier under the in-memory
	// cache: trees are saved after every build and loaded on a cache
	// miss, so a cold start (new process, empty cache) skips the
	// offline partitioning step too. Stale or corrupted files fall back
	// to a rebuild.
	SketchPersistDir string
	// Require lists candidate indexes (positions in the candidate set,
	// not base-table row ids) that must appear in every package —
	// adaptive exploration (§3.3) pins kept tuples through this.
	Require []int
}

// Package is one evaluated package.
type Package struct {
	Mult         []int              // multiplicity per candidate
	CandidateIDs []int              // base-table row ids per candidate
	Rows         []schema.Row       // materialized tuples (repeated per multiplicity)
	Objective    float64            // objective value (0 when none)
	AggValues    map[string]value.V // each aggregate's value, keyed by its PaQL text
}

// TupleIDs expands to base-table row ids with multiplicity.
func (p *Package) TupleIDs() []int {
	var out []int
	for i, m := range p.Mult {
		for k := 0; k < m; k++ {
			out = append(out, p.CandidateIDs[i])
		}
	}
	return out
}

// Size is the number of tuples in the package.
func (p *Package) Size() int {
	n := 0
	for _, m := range p.Mult {
		n += m
	}
	return n
}

// Stats describes how an evaluation went.
type Stats struct {
	Candidates  int          // tuples passing base constraints
	Bounds      prune.Bounds // §4.1 cardinality bounds
	SpacePruned *big.Int     // Σ C(n,k) within bounds (nil unless computed)
	SpaceFull   *big.Int     // 2^n (nil unless computed)
	Strategy    Strategy     // strategy actually used
	Exact       bool         // result is provably optimal/complete
	Nodes       int64        // search nodes or MILP B&B nodes
	LPIters     int          // simplex iterations (solver; sketch-refine's MILPs and its bound pass's master LPs)
	SQLQueries  int          // replacement queries (local search)
	// Sketch is the SketchRefine solver's own record of the evaluation's
	// first solve — tree shape and origin, branches, rewrites, workers,
	// refine tallies, bound rounds — exactly as sketch.Solve returned it;
	// nil under any other strategy.
	Sketch *sketch.Result
	// SketchTreePatched is Sketch.TreePatched, false without a Sketch:
	// the one field of the record kept beside it, because the benchmark
	// harness fills in a Stats of its own and sets it.
	SketchTreePatched bool
	BoundValue        float64 // certified dual bound on the objective (valid when Certified)
	Gap               float64 // certified relative gap |objective − BoundValue| / max(1, |objective|)
	Certified         bool    // BoundValue provably brackets the exact optimum (internal/bound)
	BoundStage        string  // the certificate that produced BoundValue: raw-lp (sketch-refine) or milp-dual (exact strategies)
	Elapsed           time.Duration
	Notes             []string // strategy decisions, fallbacks, caveats
	// Degraded reports that at least one optional subsystem (cache,
	// disk store, delta patch, bound pass, …) failed during
	// this evaluation and the engine continued one rung down the
	// degradation ladder instead of failing the query.
	Degraded bool
	// DegradedReasons lists the rungs taken, one "subsystem: detail"
	// entry per degradation event, in the order they happened.
	DegradedReasons []string
	// Plan is the planner's decision trail for this evaluation
	// (strategy, knobs, bound, memory, each with its reason) and the one
	// record of what the engine decided: how the candidates were found
	// (RowsScanned, SnapshotHit), whether the query is linear
	// (Mix.Linear) and its predicted working set (MemoryBytes). Always
	// set by Run, and Strategy is its strategy; an EXPLAIN statement's
	// result is this plan alone.
	Plan *plan.Plan
}

// Interval is the certified interval around a best objective of found.
func (st *Stats) Interval(found float64) bound.Interval {
	return bound.Interval{Found: found, Bound: st.BoundValue, Certified: st.Certified}
}

// CertifiedLine renders the certificate as every surface prints it —
// "objective ∈ [lo, hi] (gap g) via stage, n pricing round(s)" — for
// an answer whose best objective is found; "" when the evaluation
// certified nothing.
func (st *Stats) CertifiedLine(found float64) string {
	if !st.Certified {
		return ""
	}
	line := st.Interval(found).FormatInterval()
	if st.BoundStage != "" {
		line += " via " + st.BoundStage
		if st.Sketch != nil && st.Sketch.BoundRounds > 0 {
			line += fmt.Sprintf(", %d pricing round(s)", st.Sketch.BoundRounds)
		}
	}
	return line
}

// Result is the evaluation outcome.
type Result struct {
	Query    *paql.Query
	Packages []*Package
	Stats    Stats
}

// Prepared is a query bound to its candidates, ready to run (possibly
// multiple times with different options — the bench harness relies on
// this).
type Prepared struct {
	Query    *paql.Query
	Analysis *paql.Analysis
	Table    *minidb.Table
	Instance *search.Instance
	// Nonlinear is the query's linearity verdict (translate.Nonlinear):
	// why the exact MILP translation cannot encode it, nil when it can.
	// The planner routes by it and Stats.Plan.Mix.Linear reports it.
	Nonlinear []string
	// SketchCache is the default partition-tree cache for Run when the
	// options carry none (System.Prepare points it at the engine-level
	// shared cache, so repeated prep.Run calls skip re-partitioning).
	SketchCache *sketch.Cache
	// SketchMemo is the default fingerprint memo for Run when the
	// options carry none (System.Prepare points it at the engine-level
	// shared memo, so repeated prep.Run calls skip candidate rehashing).
	SketchMemo *FingerprintMemo
	// TableVersion is the table's write version at Prepare time; the
	// candidate snapshot and the fingerprint memo key on it.
	TableVersion uint64
	// Sketch is the query compiled for SketchRefine, once: the planner's
	// applicability probe and every sketch solve of every Run read it, so
	// each DNF branch is weighed over the candidates at most once.
	Sketch *sketch.Compiled
	// RowsScanned is how many table rows the base constraints were
	// evaluated on to find the candidates, and SnapshotHit whether the
	// table's candidate snapshot of (table, WHERE) served them instead —
	// then no row was scanned, and the selection passes earlier queries
	// folded over the same candidates are this query's too.
	RowsScanned int
	SnapshotHit bool
}

// Prepare parses, folds sub-queries, analyzes, and computes candidates.
func Prepare(db *minidb.DB, queryText string) (*Prepared, error) {
	return PrepareContext(context.Background(), db, queryText)
}

// PrepareContext is Prepare under a context: the phases linear in the
// table — the candidate scan and the selection passes — check for
// cancellation periodically and return lifecycle.ErrCanceled instead of
// finishing.
func PrepareContext(ctx context.Context, db *minidb.DB, queryText string) (*Prepared, error) {
	q, err := paql.Parse(queryText)
	if err != nil {
		return nil, err
	}
	return PrepareQueryContext(ctx, db, q)
}

// PrepareQueryContext is PrepareContext for an already-parsed query.
func PrepareQueryContext(ctx context.Context, db *minidb.DB, q *paql.Query) (*Prepared, error) {
	table, ok := db.Table(q.Table)
	if !ok {
		return nil, fmt.Errorf("engine: relation %q does not exist", q.Table)
	}
	// Scalar sub-queries fold to constants under SQL's own rule.
	var err error
	if q.SuchThat, err = db.FoldSubqueries(q.SuchThat); err != nil {
		return nil, err
	}
	if q.Objective != nil {
		if q.Objective.Expr, err = db.FoldSubqueries(q.Objective.Expr); err != nil {
			return nil, err
		}
	}
	analysis, err := paql.Analyze(q, table.Schema)
	if err != nil {
		return nil, err
	}
	// Candidate tuples: those satisfying the base constraints (WHERE) —
	// evaluated once per table version, by whichever query came first.
	cands, err := candidatesOf(ctx, table, q)
	if err != nil {
		return nil, err
	}
	inst, err := search.NewInstance(ctx, analysis, cands.passes, cands.ids)
	if err != nil {
		return nil, err
	}
	version := table.Version()
	inst.Image = func(ctx context.Context) (*search.Columns, error) {
		img, _, err := snapshotsOf(table).imageAt(ctx, table, version, len(inst.IDs), nil, false)
		if img == nil {
			return nil, err
		}
		return img.cols, nil
	}
	return &Prepared{Query: q, Analysis: analysis, Table: table, Instance: inst,
		Nonlinear: translate.Nonlinear(analysis), TableVersion: version, Sketch: sketch.Compile(inst),
		RowsScanned: cands.scanned, SnapshotHit: cands.hit}, nil
}

// Evaluate runs a PaQL query end to end (legacy contract; see Run).
func Evaluate(db *minidb.DB, queryText string, opts Options) (*Result, error) {
	prep, err := Prepare(db, queryText)
	if err != nil {
		return nil, err
	}
	return prep.Run(opts)
}

// EvaluateContext runs a PaQL query end to end under a context, with
// RunContext's typed-error contract (lifecycle.ErrInfeasible,
// ErrCanceled, ErrBudgetExceeded — all errors.Is-able).
func EvaluateContext(ctx context.Context, db *minidb.DB, queryText string, opts Options) (*Result, error) {
	prep, err := PrepareContext(ctx, db, queryText)
	if err != nil {
		return nil, err
	}
	return prep.RunContext(ctx, opts)
}

// limit resolves the number of packages to return.
func (p *Prepared) limit(opts Options) int {
	if opts.Limit > 0 {
		return opts.Limit
	}
	if p.Query.Limit > 0 {
		return p.Query.Limit
	}
	return 1
}

// buildPackage materializes and validates one package on the formula
// and objective the instance compiled once.
func (p *Prepared) buildPackage(mult []int) (*Package, error) {
	inst := p.Instance
	rows := inst.Materialize(mult)
	ok, err := inst.Holds(rows)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("engine: internal error: strategy returned an invalid package")
	}
	obj, err := inst.Value(rows)
	if err != nil {
		return nil, err
	}
	aggs := map[string]value.V{}
	for _, a := range p.Analysis.Aggs {
		v, err := paql.EvalAgg(a, rows)
		if err != nil {
			return nil, err
		}
		aggs[a.String()] = v
	}
	return &Package{
		Mult:         mult,
		CandidateIDs: inst.IDs,
		Rows:         rows,
		Objective:    obj,
		AggValues:    aggs,
	}, nil
}
