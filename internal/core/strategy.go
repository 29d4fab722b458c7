package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bound"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/paql"
	"repro/internal/plan"
	"repro/internal/prune"
	"repro/internal/search"
	"repro/internal/sketch"
)

// timeoutGrace is how far the hard context deadline RunContext derives
// from Options.Timeout trails the soft budget: the solvers' soft
// deadline checks fire first and surrender best-effort results, and the
// hard cancellation is the backstop for any path that ignores them.
const timeoutGrace = 250 * time.Millisecond

// diverseOverFetch is how many times the requested package count a
// Diverse evaluation gathers before the max-min selection.
const diverseOverFetch = 4

// Run evaluates the prepared query under the given options: the
// rule-based planner (internal/plan) resolves them into one plan.Plan —
// explicitly-set options enter as forced and win, except a strategy the
// query's atoms rule out — and the strategy runners execute that plan.
//
// Run is the legacy surface: it evaluates under context.Background()
// and keeps the original no-typed-errors contract — a provably
// infeasible query returns an empty Result with explanatory notes and a
// nil error. New callers should use RunContext, which distinguishes
// infeasible, canceled, and over-budget outcomes as errors.Is-able
// lifecycle errors.
func (p *Prepared) Run(opts Options) (*Result, error) {
	res, err := p.run(context.Background(), opts)
	if err != nil && errors.Is(err, lifecycle.ErrInfeasible) {
		// Legacy contract: infeasibility is an answer, not an error.
		return res, nil
	}
	return res, err
}

// RunContext evaluates the prepared query under a context. The context
// is checked cooperatively throughout — candidate scans, enumeration,
// every MILP branch-and-bound node and simplex iteration, partition
// builds, sketch descents, and refine waves — so cancellation returns
// promptly even mid-solve over millions of candidates, with partial
// work discarded and shared tree caches left consistent.
//
// Outcomes map onto the lifecycle error taxonomy:
//
//   - lifecycle.ErrInfeasible: the query provably has no package
//     (contradictory bounds, or an exact strategy completed empty). The
//     Result still carries the plan and stats. A heuristic strategy
//     finding nothing is NOT infeasible: that returns an empty Result
//     with a note and a nil error.
//   - lifecycle.ErrCanceled: the context was canceled. An expired
//     deadline that still produced packages instead returns them with a
//     note — Options.Timeout and a context deadline both act as soft
//     budgets first (best incumbent wins over an error), with hard
//     cancellation as the backstop.
//   - lifecycle.ErrBudgetExceeded: the planner's predicted working set
//     exceeds Options.MemoryBudget; nothing was executed.
//
// Options.Timeout is sugar for a derived context deadline: RunContext
// bounds the context at Timeout plus a short grace and passes Timeout
// down as the soft budget; symmetrically, a context deadline with no
// Timeout set becomes the soft budget.
func (p *Prepared) RunContext(ctx context.Context, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d, ok := ctx.Deadline(); ok {
		if soft := time.Until(d) - timeoutGrace; soft > 0 && (opts.Timeout <= 0 || soft < opts.Timeout) {
			opts.Timeout = soft
		}
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout+timeoutGrace)
		defer cancel()
	}
	return p.run(ctx, opts)
}

// searchTimeout is the time left before deadline, at least a nanosecond
// so a spent budget never reads as search's "0 = unlimited".
func searchTimeout(deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	return max(time.Until(deadline), time.Nanosecond)
}

// run is the shared evaluation body behind Run and RunContext. It
// returns typed lifecycle errors; the legacy wrapper downgrades the
// ones its contract predates.
func (p *Prepared) run(ctx context.Context, opts Options) (res *Result, err error) {
	// Last rung of the degradation ladder: a panic anywhere in the
	// solve becomes a typed lifecycle.ErrInternal instead of killing
	// the process, so admission slots drain and the caller sees one
	// failed query, not a crashed server.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, lifecycle.Internal(fmt.Errorf("panic: %v", r))
		}
	}()
	if ferr := fault.Check("core.solve"); ferr != nil {
		return nil, lifecycle.Internal(ferr)
	}
	start := time.Now()
	// The one instant the budget ends (zero = none): every solve below
	// reads it, and none restarts a clock of its own.
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	if err := lifecycle.ContextErr(ctx); err != nil {
		return nil, err
	}
	inst := p.Instance
	// A pin outside the candidates is the caller's error under every
	// strategy, so it is refused here, once, before anything is planned.
	for _, i := range opts.Require {
		if i < 0 || i >= len(inst.Rows) {
			return nil, fmt.Errorf("core: pinned candidate %d out of range [0,%d)", i, len(inst.Rows))
		}
	}
	res = &Result{Query: p.Query}
	res.Stats.Candidates = len(inst.Rows)
	res.Stats.Bounds = inst.Bounds
	limit := p.limit(opts)
	fetch := limit
	if opts.Diverse {
		fetch = limit * diverseOverFetch
	}
	if len(inst.Rows) <= plan.SketchThreshold {
		pr, full := prune.SpaceSize(len(inst.Rows), inst.Bounds)
		res.Stats.SpacePruned, res.Stats.SpaceFull = pr, full
	}

	// Plan first: the plan is the record of what the engine decided, and
	// its strategy is the one that runs — a forced strategy is echoed, and
	// one the atom mix rules out was already decided as the unforced query
	// would be, with the override in the reason.
	qplan := p.Plan(opts)
	res.Stats.Plan = qplan
	strat, err := ParseStrategy(qplan.Strategy)
	if err != nil {
		return nil, err
	}
	res.Stats.Strategy = strat
	if d := qplan.Decision("strategy"); d != nil && !d.Forced {
		res.Stats.Notes = append(res.Stats.Notes, fmt.Sprintf("planner: %s (%s)", d.Value, d.Reason))
	}

	// EXPLAIN: report the plan without executing anything — on every
	// surface, whatever the bounds or the budget would answer.
	if p.Query != nil && p.Query.Explain {
		res.Stats.Notes = append(res.Stats.Notes, "EXPLAIN: plan only; query not executed")
		res.Stats.Elapsed = time.Since(start)
		return res, nil
	}

	// Provably-empty space: exact empty answer.
	if inst.Bounds.IsInfeasible() {
		res.Stats.Exact = true
		res.Stats.Notes = append(res.Stats.Notes, "cardinality bounds are contradictory; no package can satisfy the query")
		res.Stats.Elapsed = time.Since(start)
		return res, lifecycle.Infeasible("cardinality bounds are contradictory")
	}

	// Admission by memory budget: refuse before allocating anything when
	// the planner's working-set prediction exceeds the per-query budget.
	if opts.MemoryBudget > 0 && qplan.MemoryBytes > opts.MemoryBudget {
		res.Stats.Elapsed = time.Since(start)
		return res, lifecycle.BudgetExceeded(qplan.MemoryBytes, opts.MemoryBudget)
	}

	var mults [][]int
	switch strat {
	case PrunedEnum:
		mults, err = p.runEnum(ctx, res, opts, deadline, fetch)
	case LocalSearchStrategy:
		mults, err = p.runLocal(ctx, res, opts, deadline, fetch)
	case Solver:
		mults, err = p.runSolver(ctx, res, opts, deadline, fetch)
	case SketchRefineStrategy:
		mults, err = p.runSketch(ctx, res, opts, qplan, deadline, fetch)
	default:
		err = fmt.Errorf("engine: unknown strategy %v", strat)
	}
	if err != nil {
		return nil, err
	}

	// Cancellation beats partial answers for an explicitly canceled
	// context: the caller walked away, so partial work is discarded. A
	// deadline is softer — packages computed before it fired are still
	// the answer (see RunContext); only an empty-handed deadline is an
	// error.
	if cerr := ctx.Err(); cerr != nil {
		if errors.Is(cerr, context.Canceled) || len(mults) == 0 {
			return nil, lifecycle.Canceled(cerr)
		}
		res.Stats.Notes = append(res.Stats.Notes, "deadline exceeded; best-effort packages returned")
	}

	// Provable infeasibility: an exact strategy ran to completion and
	// found nothing. Heuristic strategies (sketch, local search) leave
	// Exact false, so their empty answers stay answers, not verdicts.
	if len(mults) == 0 && res.Stats.Exact {
		res.Stats.Elapsed = time.Since(start)
		return res, lifecycle.Infeasible(fmt.Sprintf("proved by %s", strat))
	}

	if opts.Diverse && len(mults) > limit {
		mults = DiverseSelect(mults, limit)
		res.Stats.Notes = append(res.Stats.Notes, "diverse selection applied (max-min Jaccard greedy)")
	}
	if len(mults) > limit {
		mults = mults[:limit]
	}
	for _, m := range mults {
		pkg, err := p.buildPackage(m)
		if err != nil {
			return nil, err
		}
		res.Packages = append(res.Packages, pkg)
	}
	// An exact strategy that ran to completion is its own certificate:
	// the best package IS the optimum — a zero-width certified interval.
	// The solver path (branch-and-bound dual bound) and the sketch path
	// (LP relaxation over leaves or raw candidates) set richer intervals
	// inside their runners; this only fills the enumeration strategies.
	if res.Stats.Exact && !res.Stats.Certified && p.Query != nil && p.Query.Objective != nil && len(res.Packages) > 0 {
		res.Stats.BoundValue = res.Packages[0].Objective
		res.Stats.Gap = 0
		res.Stats.Certified = true
		res.Stats.BoundStage = plan.BoundMILPDual
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

func (p *Prepared) runEnum(ctx context.Context, res *Result, opts Options, deadline time.Time, fetch int) ([][]int, error) {
	sres, err := search.PrunedEnumerate(p.Instance, search.Options{
		Ctx:     ctx,
		Limit:   fetch,
		Timeout: searchTimeout(deadline),
		Seed:    opts.Seed,
		Require: opts.Require,
	})
	if err != nil {
		return nil, err
	}
	res.Stats.Nodes = sres.Examined
	res.Stats.Exact = sres.Complete
	if !sres.Complete {
		res.Stats.Notes = append(res.Stats.Notes, "enumeration hit its budget; result may be suboptimal")
	}
	var mults [][]int
	for _, pk := range sres.Packages {
		mults = append(mults, pk.Mult)
	}
	return mults, nil
}

func (p *Prepared) runLocal(ctx context.Context, res *Result, opts Options, deadline time.Time, fetch int) ([][]int, error) {
	sres, err := search.LocalSearch(p.Instance, nil, search.Options{
		Ctx:      ctx,
		Limit:    fetch,
		Timeout:  searchTimeout(deadline),
		Seed:     opts.Seed,
		Restarts: opts.Restarts,
		Require:  opts.Require,
	})
	if err != nil {
		return nil, err
	}
	res.Stats.Nodes = sres.Examined
	res.Stats.SQLQueries = sres.Queries
	res.Stats.Exact = false
	res.Stats.Notes = append(res.Stats.Notes, "local search is heuristic: packages may be suboptimal and the set incomplete")
	var mults [][]int
	for _, pk := range sres.Packages {
		mults = append(mults, pk.Mult)
	}
	return mults, nil
}

// sketchTiers resolves the partition-tree cache and fingerprint memo an
// evaluation uses: the options' own, else the Prepared's defaults, with
// SketchNoCache suppressing both — the one place that opt-out is
// honoured.
func (p *Prepared) sketchTiers(opts Options) (*sketch.Cache, *FingerprintMemo) {
	if opts.SketchNoCache {
		return nil, nil
	}
	cache, memo := opts.SketchCache, opts.SketchMemo
	if cache == nil {
		cache = p.SketchCache
	}
	if memo == nil {
		memo = p.SketchMemo
	}
	return cache, memo
}

// runSketch executes a sketch-refine plan: qp carries every decided knob
// (τ, depth, workers, bound stage); opts contributes only what the
// planner does not decide — seed, pins, gap tolerance and the tree tiers
// — and every solve reads the evaluation's deadline.
// Whether a stale tree is patched is the solve's tree acquisition to
// decide, and its record (sres) says so.
func (p *Prepared) runSketch(ctx context.Context, res *Result, opts Options, qp *plan.Plan, deadline time.Time, fetch int) ([][]int, error) {
	cache, memo := p.sketchTiers(opts)
	if cache == nil && fetch > 1 && p.Instance.MaxMult == 1 {
		// Evaluation-scoped cache: the exclusion-cut re-solves below
		// reuse the partition tree instead of re-partitioning per
		// package. Never leaks across queries, so SketchNoCache's
		// isolation promise holds.
		cache = sketch.NewCache(2)
	}
	base := sketch.Options{
		Ctx:              ctx,
		MaxPartitionSize: qp.Tau,
		Depth:            qp.Depth,
		Parallelism:      qp.Parallelism,
		BoundMode:        qp.Bound,
		Seed:             opts.Seed,
		Deadline:         deadline,
		Cache:            cache,
		PersistDir:       opts.SketchPersistDir,
		Require:          opts.Require,
	}
	// Fingerprint memo: resolve the candidate fingerprint incrementally
	// (zero hashing on an unchanged table, delta-only after writes) and
	// pick up the lineage that lets a stale cached tree be patched in
	// place instead of rebuilt.
	if memo != nil {
		fp, patch := memo.Advance(p)
		base.Fingerprint, base.Patch = &fp, patch
	}
	sres, err := p.Sketch.Solve(base)
	if err != nil {
		return nil, err
	}
	st := &res.Stats
	st.Sketch, st.SketchTreePatched = sres, sres.TreePatched
	st.Nodes += sres.Nodes
	st.LPIters += sres.LPIters
	st.Exact = false
	st.BoundValue, st.Gap, st.Certified, st.BoundStage = sres.Bound, sres.Gap, sres.Certified, sres.BoundStage
	st.Notes = append(st.Notes, sres.Notes...)
	st.DegradedReasons = append(st.DegradedReasons, sres.Degraded...)
	st.Degraded = st.Degraded || len(sres.Degraded) > 0
	gapNote := "; objective gap unproven"
	if sres.Certified {
		gapNote = "; certified " + st.CertifiedLine(sres.Objective)
	}
	st.Notes = append(st.Notes, fmt.Sprintf(
		"sketch-refine: %d leaf partitions (τ bound), %d levels, %d top-level vars%s%s, %d active, %d refined, %d repaired%s",
		sres.Partitions, sres.Levels, sres.TopVars, cacheNote(sres.CacheHit, sres.TreeLoaded, sres.TreePatched),
		branchNote(sres.Branches, sres.AtomRewrites), sres.Active, sres.Refined, sres.Repaired, gapNote))
	if !sres.Feasible {
		res.Stats.Notes = append(res.Stats.Notes,
			"sketch-refine found no feasible package (the query may still be feasible; try -strategy solver)")
		return nil, nil
	}
	if fetch == 1 {
		return [][]int{sres.Mult}, nil
	}
	return p.moreSketchPackages(res, base, sres.Mult, fetch), nil
}

// moreSketchPackages gathers up to fetch distinct packages, best first,
// starting from the one the base solve found. One sketch solve yields
// one deterministic package; additional ones (top-k, diverse sets,
// adaptive exploration's Replace) come from re-solving copies of the
// base options, deadline included. The certificate belongs to the first
// package, so the re-solves run no bound pass.
func (p *Prepared) moreSketchPackages(res *Result, base sketch.Options, first []int, fetch int) [][]int {
	mults := [][]int{first}
	extra := base
	extra.BoundMode = plan.BoundNone
	// No re-solve starts once the evaluation's deadline has passed.
	outOfTime := func() bool {
		if d := base.Deadline; d.IsZero() || time.Now().Before(d) {
			return false
		}
		res.Stats.Notes = append(res.Stats.Notes, "sketch-refine: timeout reached before all requested packages")
		return true
	}
	if p.Instance.MaxMult == 1 {
		// Exclusion cuts in sketch space: the cached partition tree is
		// reused, so each extra package costs one sketch+refine pass, no
		// re-partitioning.
		extra.Exclude = [][]int{first}
		for len(mults) < fetch && !outOfTime() {
			alt, err := p.Sketch.Solve(extra)
			if err != nil {
				res.Stats.Notes = append(res.Stats.Notes,
					fmt.Sprintf("sketch-refine: exclusion-cut solve failed: %v", err))
				break
			}
			if !alt.Feasible {
				break // no further distinct package reachable
			}
			res.Stats.Nodes += alt.Nodes
			res.Stats.LPIters += alt.LPIters
			mults = append(mults, alt.Mult)
			extra.Exclude = append(extra.Exclude, alt.Mult)
		}
		res.Stats.Notes = append(res.Stats.Notes, fmt.Sprintf(
			"sketch-refine: %d of %d requested packages via exclusion cuts in sketch space",
			len(mults), fetch))
	} else {
		// REPEAT queries: exclusion cuts need 0/1 multiplicities, so
		// perturb the partition size and seed instead — moving τ moves
		// every partition boundary, so the sketch lands elsewhere. No
		// cache and no persistence: each perturbed (τ, seed) pair is near
		// single-use — it would evict hot trees from the shared LRU and
		// litter the store with files no later run asks for.
		extra.Cache, extra.PersistDir = nil, ""
		seen := map[string]bool{search.Pkg{Mult: first}.Key(): true}
		for attempt := int64(1); len(mults) < fetch && attempt <= 2*int64(fetch) && !outOfTime(); attempt++ {
			extra.MaxPartitionSize = base.MaxPartitionSize + int(attempt)
			extra.Seed = base.Seed + attempt
			alt, err := p.Sketch.Solve(extra)
			if err != nil {
				// Deterministic errors would repeat across attempts;
				// stop instead of re-partitioning 2*fetch times.
				res.Stats.Notes = append(res.Stats.Notes,
					fmt.Sprintf("sketch-refine: perturbed solve failed: %v", err))
				break
			}
			if !alt.Feasible {
				continue
			}
			res.Stats.Nodes += alt.Nodes
			res.Stats.LPIters += alt.LPIters
			if k := (search.Pkg{Mult: alt.Mult}).Key(); !seen[k] {
				seen[k] = true
				mults = append(mults, alt.Mult)
			}
		}
		res.Stats.Notes = append(res.Stats.Notes, fmt.Sprintf(
			"sketch-refine: %d of %d requested packages via partition perturbation (REPEAT blocks exclusion cuts)",
			len(mults), fetch))
	}
	sortMultsByObjective(p.Instance, mults)
	return mults
}

// sortMultsByObjective orders packages best-first under the query's
// objective sense (no-op for objective-free queries).
func sortMultsByObjective(inst *search.Instance, mults [][]int) {
	if inst.Analysis.Query.Objective == nil || len(mults) < 2 {
		return
	}
	type pkg struct {
		mult []int
		obj  float64
	}
	ps := make([]pkg, len(mults))
	for i, m := range mults {
		o, _ := inst.Objective(m)
		ps[i] = pkg{mult: m, obj: o}
	}
	sort.SliceStable(ps, func(i, j int) bool { return inst.Better(ps[i].obj, ps[j].obj) })
	for i := range ps {
		mults[i] = ps[i].mult
	}
}

// branchNote renders the DNF-branch and atom-rewrite counters for the
// sketch-refine stats note; conjunctive SUM/COUNT queries (one branch,
// no rewrites) keep the classic note text.
func branchNote(branches, rewrites int) string {
	s := ""
	if branches > 1 {
		s += fmt.Sprintf(", %d branches", branches)
	}
	if rewrites > 0 {
		s += fmt.Sprintf(", %d atom rewrites", rewrites)
	}
	return s
}

func cacheNote(hit, loaded, patched bool) string {
	switch {
	case hit:
		return " (partition tree from cache)"
	case loaded:
		return " (partition tree from disk)"
	case patched:
		return " (partition tree patched in place)"
	}
	return ""
}

func (p *Prepared) runSolver(ctx context.Context, res *Result, opts Options, deadline time.Time, fetch int) ([][]int, error) {
	model, err := p.Instance.Passes.Translate(ctx, p.Analysis, p.Instance.IDs)
	if err != nil {
		return nil, err
	}
	for _, i := range opts.Require {
		if err := model.RequireTuple(i); err != nil {
			return nil, err
		}
	}
	// Every package's solve reads the one deadline, so a LIMIT or
	// DIVERSE over-fetch shares the budget.
	mopts := milp.Options{Deadline: deadline, Ctx: ctx}
	exact := true
	var mults [][]int
	for k := 0; k < fetch; k++ {
		sol := milp.Solve(model.MILP, mopts)
		res.Stats.Nodes += int64(sol.Nodes)
		res.Stats.LPIters += sol.LPIters
		if sol.Status == milp.StatusInfeasible {
			break // no more packages
		}
		if sol.Status == milp.StatusUnbounded {
			return nil, fmt.Errorf("engine: objective is unbounded (add constraints or REPEAT)")
		}
		if sol.Status != milp.StatusOptimal {
			exact = false
			if sol.X == nil {
				res.Stats.Notes = append(res.Stats.Notes, "solver hit its limits without an incumbent")
				break
			}
			res.Stats.Notes = append(res.Stats.Notes, "solver hit its limits; best incumbent returned without proof")
		}
		if k == 0 && p.Query.Objective != nil && p.Instance.ObjW != nil && !sol.Canceled {
			// The branch-and-bound dual bound is the certificate the exact
			// path gets for free. A canceled search proves nothing (a node
			// may have been dropped mid-relaxation), so only uncanceled
			// solves certify. Translate drops the affine objective
			// constant, so both sides add it back; the limit-path bound is
			// clamped to the incumbent (the global dual bound is the
			// better of the best open node and the incumbent) and padded
			// against round-off.
			sense := lp.Minimize
			if p.Query.Objective.Sense == paql.Maximize {
				sense = lp.Maximize
			}
			found := sol.Objective + p.Instance.ObjK
			if sol.Status == milp.StatusOptimal {
				res.Stats.BoundValue = found
			} else {
				b := sol.Bound + p.Instance.ObjK
				if sense == lp.Maximize && b < found || sense == lp.Minimize && b > found {
					b = found
				}
				res.Stats.BoundValue = bound.Pad(b, sense)
			}
			res.Stats.Certified = true
			res.Stats.Gap = bound.Interval{Found: found, Bound: res.Stats.BoundValue}.Gap()
			res.Stats.BoundStage = plan.BoundMILPDual
		}
		mult := model.Multiplicities(sol.X)
		mults = append(mults, mult)
		if k+1 < fetch {
			if err := model.AddExclusionCut(mult); err != nil {
				res.Stats.Notes = append(res.Stats.Notes,
					fmt.Sprintf("multiple packages unavailable: %v", err))
				break
			}
		}
	}
	res.Stats.Exact = exact
	return mults, nil
}
