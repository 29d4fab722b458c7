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
	"repro/internal/expr"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/plan"
	"repro/internal/prune"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sketch"
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
	// Timeout bounds the whole evaluation. Under RunContext it is sugar
	// for a derived context deadline (plus a short grace) and doubles as
	// the soft budget the strategies check so best-effort results beat
	// hard cancellation.
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
	// SketchIncremental allows incremental partition-tree maintenance
	// (requires SketchMemo): after writes, the cached tree for the
	// pre-write data is patched in place via sketch.ApplyDelta —
	// deletions tombstoned, insertions routed to their leaves,
	// overgrown leaves split, representatives refreshed bottom-up —
	// instead of rebuilt from scratch, and the persisted tree is re-saved
	// atomically. True (the System, CLI and server
	// default) leaves patch-vs-rebuild to tree acquisition, which
	// patches while the tree's drift fits plan.PatchMaxFrac; false
	// forces a rebuild after every write, and the plan records it as
	// forced.
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
	// GapTolerance, when positive, switches SketchRefine into its
	// anytime mode: every evaluation carries a certified dual bound
	// (Stats.BoundValue), and once a feasible package is provably
	// within this relative gap of the bound, the remaining DNF branch
	// descents are skipped — early exit with a proof. Zero keeps the
	// certified interval without changing what is evaluated. The knob
	// is threaded to the planner as forced, so EXPLAIN shows it on the
	// bound decision.
	GapTolerance float64
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
	RowsScanned int          // table rows the base constraints were evaluated on to find them
	SnapshotHit bool         // the table's candidate snapshot served them: nothing scanned, earlier queries' selection passes shared
	Bounds      prune.Bounds // §4.1 cardinality bounds
	SpacePruned *big.Int     // Σ C(n,k) within bounds (nil unless computed)
	SpaceFull   *big.Int     // 2^n (nil unless computed)
	Linear      bool         // MILP-translatable
	Strategy    Strategy     // strategy actually used
	Exact       bool         // result is provably optimal/complete
	Nodes       int64        // search nodes or MILP B&B nodes
	LPIters     int          // simplex iterations (solver; sketch-refine's MILPs and bound relaxations — its Lagrangian rounds run no simplex)
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
	MemoryEstimate    int64   // planner-predicted peak working set, bytes
	BoundValue        float64 // certified dual bound on the objective (valid when Certified)
	Gap               float64 // certified relative gap |objective − BoundValue| / max(1, |objective|)
	Certified         bool    // BoundValue provably brackets the exact optimum (internal/bound)
	BoundStage        string  // deepest bound-pipeline stage that produced BoundValue (raw-lp, tree-lp, tree-lp+tighten, descend-1, milp-dual)
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
	// (strategy, knobs, bound, memory, each with its reason). Always set
	// by Run; EXPLAIN surfaces render it.
	Plan *plan.Plan
}

// Interval is the certified interval around a best objective of found.
func (st *Stats) Interval(found float64) bound.Interval {
	return bound.Interval{Found: found, Bound: st.BoundValue, Certified: st.Certified}
}

// CertifiedLine renders the certificate as every surface prints it —
// "objective ∈ [lo, hi] (gap g) via stage, n tightening round(s)" — for
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
			line += fmt.Sprintf(", %d tightening round(s)", st.Sketch.BoundRounds)
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
	DB       *minidb.DB
	Query    *paql.Query
	Analysis *paql.Analysis
	Table    *minidb.Table
	Instance *search.Instance
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
	if err := foldSubqueries(db, q); err != nil {
		return nil, err
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
	return &Prepared{DB: db, Query: q, Analysis: analysis, Table: table, Instance: inst,
		TableVersion: table.Version(), Sketch: sketch.Compile(inst),
		RowsScanned: cands.scanned, SnapshotHit: cands.hit}, nil
}

// foldSubqueries evaluates scalar SQL sub-queries in SUCH THAT and the
// objective against the DBMS and replaces them with constants, under
// the rule SQL's own sub-queries follow (minidb.Result.Scalar).
func foldSubqueries(db *minidb.DB, q *paql.Query) error {
	var firstErr error
	fold := func(e expr.Expr) expr.Expr {
		if e == nil {
			return nil
		}
		return expr.Transform(e, func(n expr.Expr) expr.Expr {
			sq, ok := n.(*paql.Subquery)
			if !ok {
				return nil
			}
			res, err := db.Query(sq.SQL)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("engine: sub-query (%s): %w", sq.SQL, err)
				}
				return &expr.Const{Val: value.Null()}
			}
			v, err := res.Scalar()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			return &expr.Const{Val: v}
		})
	}
	q.SuchThat = fold(q.SuchThat)
	if q.Objective != nil {
		q.Objective.Expr = fold(q.Objective.Expr)
	}
	return firstErr
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

// buildPackage materializes and validates one package.
func (p *Prepared) buildPackage(mult []int) (*Package, error) {
	inst := p.Instance
	rows := inst.Materialize(mult)
	ok, err := paql.Satisfies(p.Query.SuchThat, rows)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("engine: internal error: strategy returned an invalid package")
	}
	obj, err := paql.ObjectiveValue(p.Query.Objective, rows)
	if err != nil && p.Query.Objective != nil {
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
