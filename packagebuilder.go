// Package packagebuilder is a from-scratch Go implementation of
// PackageBuilder (Brucato, Ramakrishna, Abouzied, Meliou — VLDB 2014):
// a system that extends a relational database with *package queries*. A
// package is a collection of tuples that individually satisfy base
// constraints (ordinary WHERE predicates) and collectively satisfy
// global constraints (aggregate predicates over the whole package),
// optionally optimizing a per-package objective.
//
// Queries are written in PaQL, the paper's SQL-based language:
//
//	SELECT PACKAGE(R) AS P
//	FROM   recipes R
//	WHERE  R.gluten = 'free'
//	SUCH THAT COUNT(*) = 3
//	      AND SUM(P.calories) BETWEEN 2000 AND 2500
//	MAXIMIZE SUM(P.protein)
//
// The library is self-contained: it embeds its own relational engine
// (internal/minidb), a simplex/branch-and-bound MILP solver
// (internal/lp, internal/milp), the PaQL front-end (internal/paql), the
// PaQL→MILP translation (internal/translate), the search-based
// evaluation strategies with §4.1 cardinality pruning and the §4.2
// SQL-driven local search (internal/search), the partition-based
// SketchRefine strategy from the paper's follow-up work
// (internal/sketch), and the §3 interface abstractions
// (internal/explore, internal/viz, internal/template).
//
// At scale, SketchRefine (PVLDB 2016, "Scalable Package Queries in
// Relational Database Systems") replaces the one-MILP-per-query model:
// candidates are partitioned offline into size-bounded groups over the
// query's numeric attributes, a small sketch package is solved over one
// representative tuple per group, and the sketch is refined partition
// by partition with tiny sub-MILPs (greedy repair when a partition is
// infeasible or over budget). Select it with WithStrategy(SketchRefine)
// or let Auto choose it above a few thousand candidates; tune it with
// WithSketchPartitionSize. WithSketchDepth(d) generalizes the
// partitioning to a partition tree (PVLDB 2023,
// "Scaling Package Queries to a Billion Tuples"): the sketch recurses
// level by level so the top MILP stays around the d-th root of the
// partition count. Partition trees are cached across queries in the
// System's shared LRU (keyed by a fingerprint of the candidate rows, so
// writes invalidate automatically); WithSketchCache(false) opts out.
// The offline partitioning and the per-partition solves fan out across
// GOMAXPROCS workers once the candidates clear a serial cutoff (results
// are identical at any worker count, so there is no option for it), and
// WithSketchPersistDir(dir) adds an on-disk tier under the LRU so a new
// process skips the offline step as well. Both tiers are maintained
// incrementally: a shared fingerprint memo makes warm evaluations over
// unchanged tables hash zero candidate rows, and after INSERTs or
// DELETEs tree acquisition decides per query whether the stale tree is
// patched in place — the write batch routed or tombstoned through the
// existing structure — or rebuilt from scratch, by the tree's drift
// since its last full build (WithSketchIncremental(false) forces the
// rebuild).
//
// SketchRefine covers the full PaQL atom grammar, not just conjunctive
// SUM/COUNT comparisons: AVG atoms are linearized as SUM − c·COUNT with
// a non-empty guard, MIN/MAX atoms prune partition nodes by counts of
// qualifying tuples folded up from the tree's leaves, and disjunctions
// expand to DNF with one sketch descent per branch — the best feasible
// branch wins. Stats.Sketch is the solver's own record of all of it.
//
// Answers with an objective come with a certificate: alongside the best
// package found, the engine proves an LP-relaxation dual bound over the
// search space (internal/bound), so Stats report a certified
// objective ∈ [bound, found] interval (Stats.CertifiedLine renders it)
// rather than an unquantified "approximate" answer.
// WithGapTolerance(tol) turns the certificate into an anytime mode —
// SketchRefine stops descending as soon as the proven gap is within tol.
//
// Every evaluation surface has a context-aware variant — QueryContext,
// ExplainContext, ExploreContext, ExecSQLContext, and RunContext on a
// Prepared — that threads the context cooperatively through candidate
// scans, MILP branch-and-bound, and SketchRefine's parallel build and
// refine phases, so cancellation returns promptly even mid-solve over
// millions of tuples. Outcomes are distinguished by an errors.Is-able
// taxonomy (ErrInfeasible, ErrCanceled, ErrBudgetExceeded,
// ErrAdmission); WithTimeout is sugar for a derived context deadline and
// WithMemoryBudget refuses queries whose planner-predicted working set
// exceeds a byte budget. The context-free methods (Query, Explore, ...)
// evaluate under context.Background() with the original contracts.
//
// Every With* helper edits one field of a single record, Options.
// Front ends that already hold a whole record — the paql flags and
// pbserver's server flags bind straight into one — pass it with
// With(opts); start it from Options{SketchIncremental: true}, since that
// field's zero value forces tree rebuilds.
//
// Typical use:
//
//	sys := packagebuilder.New()
//	_ = dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: 500, Seed: 1})
//	res, err := sys.Query(queryText)          // evaluate a PaQL query
//	ses, err := sys.Explore(queryText)        // adaptive exploration
package packagebuilder

import (
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/plan"
	"repro/internal/sketch"
	"repro/internal/template"
	"repro/internal/viz"
)

// Typed query-lifecycle errors, re-exported from the lifecycle package.
// Match them with errors.Is; wrapped causes (context.Canceled,
// context.DeadlineExceeded) survive the wrap.
var (
	// ErrInfeasible: the query provably has no satisfying package.
	// Returned only by the context-aware surfaces and only on proof
	// (contradictory cardinality bounds, or an exact strategy completing
	// empty); a heuristic strategy finding nothing is an empty result,
	// not an error.
	ErrInfeasible = lifecycle.ErrInfeasible
	// ErrCanceled: the context was canceled or its deadline expired
	// before any answer was computed.
	ErrCanceled = lifecycle.ErrCanceled
	// ErrBudgetExceeded: the planner-predicted working set exceeds the
	// query's WithMemoryBudget; evaluation was refused before any
	// allocation.
	ErrBudgetExceeded = lifecycle.ErrBudgetExceeded
	// ErrAdmission: a serving-side admission controller shed the query
	// (pbserver maps it to HTTP 429 with a Retry-After).
	ErrAdmission = lifecycle.ErrAdmission
	// ErrInternal: the query failed unexpectedly — a recovered panic or
	// an exhausted degradation ladder. The solve drained its admission
	// slot correctly; retrying is safe (pbserver maps it to HTTP 500).
	ErrInternal = lifecycle.ErrInternal
)

// System is a PackageBuilder instance: an embedded database plus the
// package-query engine. Safe for concurrent readers.
//
// The system owns a shared SketchRefine partition-tree cache: repeated
// package queries over unchanged data reuse the offline partitioning
// instead of rebuilding it (the cache key fingerprints the candidate
// rows, so data changes invalidate stale trees automatically). Disable
// it per query with WithSketchCache(false).
type System struct {
	db          *minidb.DB
	sketchCache *sketch.Cache
	sketchMemo  *core.FingerprintMemo
}

// New creates an empty system.
func New() *System {
	return &System{db: minidb.New(), sketchCache: sketch.NewCache(0),
		sketchMemo: core.NewFingerprintMemo()}
}

// Catalog is a stateless view of each table's row count and delta-log
// version — what EXPLAIN's header prints, read off the table itself.
func (s *System) Catalog() *core.Catalog { return &core.Catalog{DB: s.db} }

// SketchCache exposes the system's shared partition-tree cache (for
// stats inspection).
func (s *System) SketchCache() *sketch.Cache { return s.sketchCache }

// SketchMemo exposes the system's shared candidate-fingerprint memo:
// its stats report how many candidate rows were actually hashed across
// evaluations — zero for warm queries over unchanged tables.
func (s *System) SketchMemo() *core.FingerprintMemo { return s.sketchMemo }

// DB exposes the embedded relational engine (DDL, SQL, CSV loading).
func (s *System) DB() *minidb.DB { return s.db }

// ExecSQL runs one SQL statement against the embedded database.
func (s *System) ExecSQL(sql string) (*minidb.Result, error) {
	return s.db.Exec(sql)
}

// ExecSQLContext is ExecSQL under a context. Statements are short and
// run to completion once started; the context gates starting at all —
// a dead context returns ErrCanceled without touching the database.
func (s *System) ExecSQLContext(ctx context.Context, sql string) (*minidb.Result, error) {
	if err := lifecycle.ContextErr(ctx); err != nil {
		return nil, err
	}
	return s.db.Exec(sql)
}

// LoadCSV loads CSV data (header row; "name:type" cells supported) into
// a new table, returning the row count.
func (s *System) LoadCSV(table string, r io.Reader) (int, error) {
	return s.db.LoadCSV(table, r)
}

// LoadCSVFile is LoadCSV from a file path.
func (s *System) LoadCSVFile(table, path string) (int, error) {
	return s.db.LoadCSVFile(table, path)
}

// Strategy selects the evaluation strategy. See the core package for
// semantics; Auto picks by linearity and scale.
type Strategy = core.Strategy

// Evaluation strategies.
const (
	Auto         = core.Auto
	PrunedEnum   = core.PrunedEnum
	LocalSearch  = core.LocalSearchStrategy
	Solver       = core.Solver
	SketchRefine = core.SketchRefineStrategy
)

// Result is a query evaluation outcome. Re-exported from core.
type Result = core.Result

// Package is one evaluated package. Re-exported from core.
type Package = core.Package

// Stats describes how an evaluation went. Re-exported from core.
type Stats = core.Stats

// SketchStats is the SketchRefine solver's own record of a solve, which
// Stats carries as Stats.Sketch. Re-exported from internal/sketch.
type SketchStats = sketch.Result

// Options is the whole evaluation record every Option edits.
// Re-exported from core.
type Options = core.Options

// Option tunes query evaluation.
type Option func(*core.Options)

// With replaces the whole options record — for front ends that bind
// their flags or request fields straight into one Options. Its zero
// SketchIncremental forces tree rebuilds after writes (the With*
// helpers start from the planner's choice), so start from
// Options{SketchIncremental: true}. Nil SketchCache and SketchMemo still
// fall back to the System's.
func With(o Options) Option { return func(dst *core.Options) { *dst = o } }

// WithStrategy forces an evaluation strategy.
func WithStrategy(st Strategy) Option { return func(o *core.Options) { o.Strategy = st } }

// WithLimit requests n packages (overrides the query's LIMIT).
func WithLimit(n int) Option { return func(o *core.Options) { o.Limit = n } }

// WithTimeout bounds evaluation time. Under the context-aware surfaces
// it is sugar for a derived context deadline: the strategies treat it as
// a soft budget first (best-effort packages beat an error) with hard
// cancellation trailing as the backstop; symmetrically, a context
// deadline with no WithTimeout becomes the soft budget.
func WithTimeout(d time.Duration) Option { return func(o *core.Options) { o.Timeout = d } }

// WithMemoryBudget caps the planner-predicted peak working set (bytes) a
// query may allocate: evaluation refuses with ErrBudgetExceeded before
// dispatching a strategy whose estimate exceeds the budget. The
// estimate is the plan's "memory" decision — EXPLAIN shows it.
func WithMemoryBudget(bytes int64) Option {
	return func(o *core.Options) { o.MemoryBudget = bytes }
}

// WithGapTolerance switches on the anytime mode: SketchRefine keeps
// descending only while the certified relative optimality gap — the
// distance between the best package found and the LP dual bound proven
// over the remaining search space — exceeds tol (e.g. 0.05 for 5%).
// Once within tolerance it stops early and still returns the certified
// objective ∈ [bound, found] interval. Zero (the default) disables
// early exit but the interval is computed and reported regardless.
func WithGapTolerance(tol float64) Option {
	return func(o *core.Options) { o.GapTolerance = tol }
}

// WithSeed seeds the randomized strategies.
func WithSeed(seed int64) Option { return func(o *core.Options) { o.Seed = seed } }

// WithDiverse returns a diverse package set instead of the top-k.
func WithDiverse() Option { return func(o *core.Options) { o.Diverse = true } }

// WithRequire pins candidate indexes into every package.
func WithRequire(idx ...int) Option { return func(o *core.Options) { o.Require = idx } }

// WithSketchPartitionSize bounds SketchRefine partitions at n tuples.
func WithSketchPartitionSize(n int) Option {
	return func(o *core.Options) { o.SketchPartitionSize = n }
}

// WithSketchDepth sets the SketchRefine partition-tree depth: 1 = flat,
// ≥ 2 recurses the sketch over partitions of partitions so the
// top-level MILP stays tiny at any scale.
func WithSketchDepth(d int) Option {
	return func(o *core.Options) { o.SketchDepth = d }
}

// WithSketchCache enables or disables the system's shared
// partition-tree cache for this query (enabled by default).
func WithSketchCache(enabled bool) Option {
	return func(o *core.Options) { o.SketchNoCache = !enabled }
}

// WithSketchPersistDir persists SketchRefine partition trees to dir as
// an on-disk tier under the in-memory cache, so a cold start (new
// process) skips the offline partitioning step too. Stale or corrupted
// files fall back to a rebuild.
func WithSketchPersistDir(dir string) Option {
	return func(o *core.Options) { o.SketchPersistDir = dir }
}

// WithSketchIncremental allows or forbids incremental partition-tree
// maintenance. Allowed (the default), after INSERTs or DELETEs the
// cached tree for the pre-write data is patched in place — deletions
// tombstoned, insertions routed to their leaves, overgrown leaves split
// locally — while its drift since the last full build fits the 25 %
// budget, and rebuilt from scratch past it; the result's notes and
// sketch record say which happened. WithSketchIncremental(false) forces
// the rebuild; EXPLAIN then shows a forced maintenance decision. Either
// way warm evaluations hash only the written rows rather than every
// candidate.
func WithSketchIncremental(enabled bool) Option {
	return func(o *core.Options) { o.SketchIncremental = enabled }
}

// QueryPlan is the planner's decision trail: strategy, knobs, bound and
// memory, plus a forced maintenance choice, each with the rule's reason.
// Render it with its Explain method.
type QueryPlan = plan.Plan

// buildOptions resolves a query's options over the system's shared
// tree cache and fingerprint memo (WithSketchCache(false) suppresses both
// inside the engine). It sets no Catalog: the planner reads the prepared
// query's own table.
func (s *System) buildOptions(opts []Option) core.Options {
	// Patch-vs-rebuild is tree acquisition's call by default at the System
	// surface; WithSketchIncremental(false) forces rebuilds per query.
	o := core.Options{SketchIncremental: true}
	for _, fn := range opts {
		fn(&o)
	}
	if o.SketchCache == nil {
		o.SketchCache = s.sketchCache
	}
	if o.SketchMemo == nil {
		o.SketchMemo = s.sketchMemo
	}
	return o
}

// Query evaluates a PaQL query under context.Background() with the
// legacy contract: a provably infeasible query is an empty result, not
// an error. See QueryContext for the typed-error surface.
func (s *System) Query(paqlText string, opts ...Option) (*Result, error) {
	return core.Evaluate(s.db, paqlText, s.buildOptions(opts))
}

// QueryContext evaluates a PaQL query under a context. The context is
// checked cooperatively through every evaluation phase, so cancellation
// returns promptly with partial work discarded and the shared partition
// tree cache left consistent. Outcomes map onto the error taxonomy:
// ErrInfeasible (provably no package), ErrCanceled (context canceled, or
// deadline expired empty-handed), ErrBudgetExceeded (WithMemoryBudget
// refusal) — all errors.Is-able.
func (s *System) QueryContext(ctx context.Context, paqlText string, opts ...Option) (*Result, error) {
	return core.EvaluateContext(ctx, s.db, paqlText, s.buildOptions(opts))
}

// Prepare parses and binds a PaQL query for repeated evaluation.
// Repeated prep.Run calls share the system's partition-tree cache and
// fingerprint memo; prep.RunContext adds the context-aware typed-error
// contract per run.
func (s *System) Prepare(paqlText string) (*core.Prepared, error) {
	return s.PrepareContext(context.Background(), paqlText)
}

// PrepareContext is Prepare under a context: the candidate scan — the
// one preparation phase linear in the table — checks for cancellation
// periodically.
func (s *System) PrepareContext(ctx context.Context, paqlText string) (*core.Prepared, error) {
	prep, err := core.PrepareContext(ctx, s.db, paqlText)
	if err != nil {
		return nil, err
	}
	prep.SketchCache = s.sketchCache
	prep.SketchMemo = s.sketchMemo
	return prep, nil
}

// RunContext evaluates an already prepared query under the system's
// options — its shared tree cache and fingerprint memo — with
// prep.RunContext's typed-error contract.
func (s *System) RunContext(ctx context.Context, prep *core.Prepared, opts ...Option) (*Result, error) {
	return prep.RunContext(ctx, s.buildOptions(opts))
}

// SweepSketchDir removes the temp files a crashed earlier process may
// have left in a partition-tree directory (WithSketchPersistDir), so
// they never block saves, and returns the line a front end should log
// about it: "" when there was nothing to remove.
func (s *System) SweepSketchDir(dir string) string {
	switch n, err := sketch.NewStore(dir).SweepResult(); {
	case err != nil:
		return fmt.Sprintf("sketch-dir sweep: %v", err)
	case n > 0:
		return fmt.Sprintf("swept %d orphaned temp file(s) from %s", n, dir)
	}
	return ""
}

// Parse parses PaQL without evaluating it.
func (s *System) Parse(paqlText string) (*paql.Query, error) {
	return paql.Parse(paqlText)
}

// Explain plans a PaQL query without executing it, returning the
// planner's decision trail (strategy, SketchRefine knobs, bound, memory
// and a forced maintenance choice — each with its reason). Where the
// partition tree comes from is not planned: a run records it
// (Stats.Sketch). A leading EXPLAIN keyword in the text is
// accepted and ignored.
func (s *System) Explain(paqlText string, opts ...Option) (*QueryPlan, error) {
	return s.ExplainContext(context.Background(), paqlText, opts...)
}

// ExplainContext is Explain under a context. Planning itself is cheap
// and never blocks; the context governs the preparation scan that
// precedes it.
func (s *System) ExplainContext(ctx context.Context, paqlText string, opts ...Option) (*QueryPlan, error) {
	prep, err := s.PrepareContext(ctx, paqlText)
	if err != nil {
		return nil, err
	}
	return prep.Plan(s.buildOptions(opts)), nil
}

// Explore opens an adaptive-exploration session (§3.3): evaluate,
// pin tuples, request replacements.
func (s *System) Explore(paqlText string, opts ...Option) (*explore.Session, error) {
	return explore.NewSession(s.db, paqlText, s.buildOptions(opts))
}

// ExploreContext is Explore under a context. The session's own
// RefreshContext and ReplaceContext take per-evaluation contexts with
// the typed-error contract; the context given here governs only session
// preparation.
func (s *System) ExploreContext(ctx context.Context, paqlText string, opts ...Option) (*explore.Session, error) {
	return explore.NewSessionContext(ctx, s.db, paqlText, s.buildOptions(opts))
}

// Template converts PaQL text into an editable package template (§3.1).
func (s *System) Template(paqlText string) (*template.Template, error) {
	return template.FromText(paqlText)
}

// Summarize lays out packages along two automatically selected
// dimensions (§3.2).
func (s *System) Summarize(prep *core.Prepared, pkgs []*Package, currentIdx int, running bool) (*viz.Summary, error) {
	return viz.Summarize(prep, pkgs, currentIdx, running)
}

// FormatResult renders an evaluation result: each package as a table of
// its tuples plus aggregate values, then the evaluation statistics.
func FormatResult(w io.Writer, sys *System, res *Result) {
	tab, ok := sys.db.Table(res.Query.Table)
	if !ok {
		fmt.Fprintf(w, "(relation %s vanished)\n", res.Query.Table)
		return
	}
	if len(res.Packages) == 0 {
		fmt.Fprintln(w, "no package satisfies the query")
	}
	for i, p := range res.Packages {
		fmt.Fprintf(w, "package %d of %d", i+1, len(res.Packages))
		if res.Query.Objective != nil {
			fmt.Fprintf(w, "  (%s %s = %g)", res.Query.Objective.Sense,
				res.Query.Objective.Expr, p.Objective)
		}
		fmt.Fprintln(w)
		r := &minidb.Result{Schema: tab.Schema, Rows: p.Rows}
		r.Format(w)
		for _, k := range slices.Sorted(maps.Keys(p.AggValues)) {
			fmt.Fprintf(w, "  %-40s %s\n", k, p.AggValues[k])
		}
		fmt.Fprintln(w)
	}
	st := res.Stats
	fmt.Fprintf(w, "strategy=%s exact=%v candidates=%d scanned=%d snapshot-hit=%v bounds=%s elapsed=%s\n",
		st.Strategy, st.Exact, st.Candidates, st.RowsScanned, st.SnapshotHit, st.Bounds, st.Elapsed.Round(time.Microsecond))
	if st.Degraded {
		fmt.Fprintf(w, "degraded: %s\n", strings.Join(st.DegradedReasons, "; "))
	}
	if st.Certified && len(res.Packages) > 0 && res.Query.Objective != nil {
		fmt.Fprintf(w, "certified: %s\n", st.CertifiedLine(res.Packages[0].Objective))
	}
	if st.SpaceFull != nil && st.SpacePruned != nil {
		fmt.Fprintf(w, "search space: %s of %s candidate packages after §4.1 pruning\n",
			st.SpacePruned.String(), st.SpaceFull.String())
	}
	for _, n := range st.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
