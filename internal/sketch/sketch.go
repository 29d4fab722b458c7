// Package sketch implements SketchRefine, the partition-based
// evaluation strategy from the paper's follow-up work ("Scalable
// Package Queries in Relational Database Systems", PVLDB 2016, and
// "Scaling Package Queries to a Billion Tuples via Hierarchical
// Partitioning and Customized Optimization", PVLDB 2023): instead of
// handing the solver one MILP with a variable per candidate tuple, the
// relation is partitioned offline into size-bounded groups over the
// query's numeric attributes, a small "sketch" package is solved over
// one representative tuple per group, and the sketch is then refined
// partition by partition, swapping each chosen representative for real
// tuples via a tiny per-partition MILP. One huge solve becomes many
// small ones, trading a bounded objective gap for orders-of-magnitude
// lower latency at scale.
//
// At depth ≥ 2 the flat partitioning generalizes to a partition tree:
// the sketch MILP runs over the tree's roots (about the depth-th root
// of the leaf count), and each selected node's multiplicity is re-solved
// over its children's representatives level by level, descending only
// into nodes the level above chose — the top-level solve stays tiny no
// matter how large the relation grows. An optional Cache keyed by a
// fingerprint of the candidate rows lets repeated workloads skip the
// offline partitioning step entirely, and Options.PersistDir backs that
// cache with an on-disk Store so a brand-new process skips it too. The
// tree is a maintained structure, not a throwaway artifact: when the
// caller supplies write lineage (Options.Patch, derived from minidb's
// per-table delta log by core's fingerprint memo), a stale cached tree
// is patched in place via Tree.ApplyDelta — deletions tombstoned,
// insertions routed to their leaves, overgrown leaves split locally,
// representatives and envelopes refreshed bottom-up — and then
// re-persisted, instead of being rebuilt from scratch.
//
// The pipeline is parallel end to end: tree construction forks the
// median splits across a worker pool (small subtrees stay serial), the
// per-parent push-down solves of each descent level and the per-leaf
// refine solves run as concurrent waves against a shared residual
// snapshot, merged in fixed order. Options.Parallelism tunes the worker
// count; the result is byte-identical at every setting (see the package
// README for the architecture and the full knob table).
//
// The strategy covers the full PaQL atom grammar of linear queries
// with an affine objective (sketch.Applicable reports the precise
// obstruction otherwise, naming the offending atom): affine SUM/COUNT
// comparisons flow through every level as re-weighted rows; AVG atoms
// are linearized at compile time as SUM(arg) − c·COUNT ⋚ 0 plus a
// non-empty guard (the PVLDB 2016 rewrite), so they ride the same
// machinery; MIN/MAX atoms lower to elimination and at-least-one
// selector rows that are exact over real tuples and are relaxed over
// partition nodes via the per-node min/max envelopes the offline build
// attaches to the tree; disjunctions expand to DNF (capped at
// MaxBranches) with one sketch descent per branch, best feasible
// package wins. When a partition's sub-MILP is infeasible or the time
// budget runs out, a greedy repair pass substitutes the real tuples
// nearest the representative; a final validation plus bounded
// re-refinement sweeps keep the result honest — Result.Feasible is true
// only for packages that satisfy the full SUCH THAT formula (and
// contain every pinned tuple, when Options.Require is set).
package sketch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bound"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/paql"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
)

// Options tunes a SketchRefine evaluation.
type Options struct {
	// Ctx, when non-nil, cancels the evaluation cooperatively: the DNF
	// branch loop, the offline tree build's median splits, every
	// descent and refine sub-MILP (per branch-and-bound node and per
	// simplex iteration) poll it. A cancelled Solve returns a
	// lifecycle.ErrCanceled wrap promptly, discards partial work, and
	// never publishes a partially-built tree to the cache or the store.
	Ctx context.Context
	// MaxPartitionSize bounds each leaf partition (τ); 0 = plan.DefaultTau.
	MaxPartitionSize int
	// Depth is the number of sketch levels (the partition-tree depth):
	// 0 or 1 = flat SketchRefine, ≥ 2 recurses the sketch over
	// partitions of partitions so the top-level MILP stays around the
	// depth-th root of the leaf count (clamped to plan.MaxDepth).
	Depth int
	// Seed drives partitioning tie-breaks (deterministic per seed).
	Seed int64
	// Timeout bounds the whole evaluation; refine falls back to greedy
	// repair once it expires.
	Timeout time.Duration
	// Cache, when non-nil, caches partition trees across evaluations,
	// keyed by a fingerprint of the candidate rows plus the
	// partitioning knobs; a hit skips the offline partitioning step
	// entirely. Share one Cache across queries over the same data.
	Cache *Cache
	// Require lists candidate indexes that must appear in every package
	// with multiplicity ≥ 1. Each pinned tuple's leaf partition is
	// forced into every sketch level (a lower bound on the multiplicity
	// of every ancestor node) instead of falling back to the exact
	// solver.
	Require []int
	// Exclude lists multiplicity vectors of packages the result must
	// differ from — exclusion cuts in sketch space: each cut becomes
	// one extra linear atom (the solver's §5 cut
	// Σ_{i∈S} x_i − Σ_{i∉S} x_i ≤ |S|−1), enforced approximately at
	// every sketch level via per-node mean weights and exactly during
	// refine. Requires 0/1 multiplicities (no REPEAT).
	Exclude [][]int
	// Parallelism caps the workers the offline partitioning, the
	// per-level push-down wave, and the per-leaf refine wave fan out
	// across: 0 = one worker per CPU (GOMAXPROCS), 1 = fully serial.
	// Results are byte-identical at every setting (workers only divide
	// the work, never reorder the merge); under a Timeout the per-solve
	// time slices depend on wall clock, so only timeout-free runs are
	// reproducible across machines.
	Parallelism int
	// PersistDir, when non-empty, names a directory used as an on-disk
	// second tier under Cache: trees are saved after every build and
	// loaded on a cache miss (same fingerprint-based key, so stale
	// files are never used — see Store). Empty = no persistence.
	PersistDir string
	// Fingerprint, when non-nil, is the precomputed fingerprint of the
	// candidate rows (core's fingerprint memo maintains it
	// incrementally per table version). It replaces the O(n) per-cell
	// hash acquireTree would otherwise run on every evaluation; warm
	// queries over unchanged data then hash nothing at all.
	Fingerprint *uint64
	// Patch, when non-nil, relates the current candidates to the
	// dataset fingerprinted as Patch.BaseFingerprint: on a cache and
	// store miss, the engine patches that base tree in place via
	// Tree.ApplyDelta — tombstoning deletions, routing insertions to
	// their leaves, re-splitting overgrown leaves — instead of
	// rebuilding from scratch, and re-persists the patched tree.
	Patch *PatchSpec
	// GapTolerance, when positive, switches on the anytime mode: once a
	// feasible package is provably within this relative gap of the
	// certified dual bound over every DNF branch, the remaining branch
	// descents are skipped — early exit with a proof. Zero (the
	// default) still computes and reports the certified interval but
	// never changes what is descended.
	GapTolerance float64
	// BoundMode, when set, pins how deep the certified-bound pipeline
	// runs on branches above the raw-candidate cap: bound.StageTreeLP
	// (segmented leaf columns, no tightening), bound.StageTightened
	// (adds the Lagrangian rounds), bound.StageDescend (adds the
	// adaptive one-level descent), or plan.BoundNone (no bound pass at
	// all: Certified stays false and BoundTime zero — what re-solves
	// whose certificate nobody reads ask for). Empty runs the full
	// pipeline. The planner's bound decision feeds this.
	BoundMode string
	// forceRebuild bypasses the cache, store, and patch lookups and
	// builds fresh, overwriting both tiers. Set internally by Solve's
	// patched-infeasible retry: a patched tree that yields no feasible
	// package must not be the engine's last word when a from-scratch
	// tree could still find one.
	forceRebuild bool
}

// subMILPNodes caps branch-and-bound nodes per descent and refine
// sub-MILP.
const subMILPNodes = 50000

// stopped is the non-blocking poll behind every cooperative
// cancellation checkpoint in the package.
func (o Options) stopped() bool {
	if o.Ctx == nil {
		return false
	}
	select {
	case <-o.Ctx.Done():
		return true
	default:
		return false
	}
}

// stopHook is stopped in the form the build's inner loops take: nil
// when there is no context, so they skip the poll altogether.
func (o Options) stopHook() func() bool {
	if o.Ctx == nil {
		return nil
	}
	return o.stopped
}

// tau resolves the leaf size bound: MaxPartitionSize, else the planner's
// default.
func (o Options) tau() int {
	if o.MaxPartitionSize > 0 {
		return o.MaxPartitionSize
	}
	return plan.DefaultTau
}

func (o Options) depth() int {
	if o.Depth <= 1 {
		return 1
	}
	if o.Depth > plan.MaxDepth {
		return plan.MaxDepth
	}
	return o.Depth
}

// MaxBranches caps the disjunctive-normal-form expansion Solve accepts:
// each DNF branch of the SUCH THAT formula costs one sketch descent, so
// the cap bounds the total work. Formulas expanding past it are not
// sketch-applicable.
const MaxBranches = translate.DefaultMaxSketchBranches

// Result is a SketchRefine outcome.
type Result struct {
	Mult        []int   // multiplicity per candidate
	Objective   float64 // objective of Mult (0 when the query has none)
	Feasible    bool    // Mult satisfies the full SUCH THAT formula (and pins)
	Bound       float64 // certified dual bound on the objective (valid when Certified)
	Gap         float64 // certified relative gap |Objective − Bound| / max(1, |Objective|)
	Certified   bool    // Bound provably brackets the exact optimum (see internal/bound)
	BoundStage  string  // deepest bound-pipeline stage reached across branches (bound.Stage*)
	BoundRounds int     // Lagrangian tightening rounds spent across all branch bounds
	// BoundTime is the wall time the certified-bound passes cost
	// (every branchBound call), so benchmarks can report the bound's
	// share of the solve without re-deriving it.
	BoundTime    time.Duration
	Partitions   int   // leaf partitions produced by the offline step
	Levels       int   // partition-tree levels used (1 = flat)
	TopVars      int   // variables in the top-level sketch MILP
	Branches     int   // DNF branches descended (1 = conjunctive formula)
	AtomRewrites int   // AVG/MIN/MAX atoms rewritten into sketchable rows
	CacheHit     bool  // partition tree served from the cache
	TreeLoaded   bool  // partition tree loaded from the on-disk store
	TreePatched  bool  // stale tree patched in place via ApplyDelta
	Coalesced    bool  // tree acquisition joined another solve's in-flight build
	DeltaApplied int   // tuples the patch inserted plus deleted
	Workers      int   // workers the parallel phases fanned out across
	Active       int   // leaf partitions the sketch solution touched
	Refined      int   // partitions refined via their sub-MILP
	Repaired     int   // partitions that fell back to greedy repair
	Nodes        int64 // branch-and-bound nodes across all solves
	LPIters      int   // simplex iterations across all solves (the bound pass's Lagrangian rounds run no simplex and add none)
	Notes        []string
	// Degraded lists the degradation-ladder rungs this solve took, one
	// "subsystem: detail" entry per event — an optional tier (cache,
	// disk store, delta patch, bound pass) failed and the solve
	// continued one rung down instead of failing. Empty on a fully
	// healthy solve.
	Degraded []string
	Elapsed  time.Duration
	// patchedAny records that any tree this solve descended carries
	// patched provenance — whether ApplyDelta ran here or a
	// patched-born tree arrived via the cache or the store. Solve's
	// parity retry keys on it (TreePatched reflects only the last
	// acquisition).
	patchedAny bool
}

// degrade records one degradation-ladder rung on the result: the named
// optional subsystem failed with detail, and the solve continued one
// rung down instead of failing.
func (r *Result) degrade(sub, detail string) {
	r.Degraded = append(r.Degraded, sub+": "+detail)
}

// Applicable reports whether the instance can be evaluated with
// SketchRefine and, when it can, how many DNF branches Solve will
// descend; the error names the obstruction — for an atom the compiler
// cannot lower, the message names the offending aggregate.
func Applicable(inst *search.Instance) (branches int, err error) {
	br, _, err := lower(inst)
	return len(br), err
}

// lower is the applicability gate: it compiles the SUCH THAT formula
// into the DNF branches Solve descends (with the count of rewritten
// AVG/MIN/MAX atoms), or says why SketchRefine cannot run the query.
func lower(inst *search.Instance) ([]translate.SketchBranch, int, error) {
	if !inst.Analysis.Linear {
		return nil, 0, fmt.Errorf("sketch: query is not linear: %v", inst.Analysis.NonlinearReasons)
	}
	branches, rewrites, err := translate.CompileSketch(inst.Analysis, MaxBranches)
	if err != nil {
		return nil, 0, fmt.Errorf("sketch: %w", err)
	}
	if inst.Analysis.Query.Objective != nil && inst.ObjW == nil {
		return nil, 0, fmt.Errorf("sketch: objective is not affine")
	}
	return branches, rewrites, nil
}

// Solve runs SketchRefine over the full PaQL atom grammar: the SUCH
// THAT formula is compiled into DNF branches (AVG atoms linearized as
// SUM − c·COUNT, MIN/MAX atoms lowered to envelope-prunable selector
// rows), each branch descends the shared partition tree — sketch over
// the roots, push down level by level, refine the leaves into real
// tuples — and the best feasible branch wins. When a branch's sketch
// MILP over the roots is infeasible, that branch retries flat, then at
// a quarter of the partition size bound (finer partitions make
// representatives more faithful) before giving up.
func Solve(inst *search.Instance, opts Options) (*Result, error) {
	start := time.Now()
	branches, rewrites, err := lower(inst)
	if err != nil {
		return nil, err
	}
	res := &Result{Workers: opts.workers(), AtomRewrites: rewrites}
	defer func() { res.Elapsed = time.Since(start) }()
	n := len(inst.Rows)
	pins, err := pinSet(n, opts.Require)
	if err != nil {
		return nil, err
	}
	exAtoms, err := exclusionAtoms(inst, opts.Exclude)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		// The empty package is the only one: an answer when some branch's
		// rows — non-empty guards included — accept the zero vector and
		// the cardinality bounds allow an empty package.
		res.Mult = []int{}
		for _, br := range branches {
			ba, err := newBranchAtoms(opts.Ctx, inst, br)
			if err != nil {
				return nil, err
			}
			ok := inst.Bounds.Lo <= 0
			for _, at := range ba.tuple {
				ok = ok && at.Check(nil)
			}
			if ok {
				res.Feasible = true
				break
			}
		}
		return res, nil
	}
	if len(branches) == 0 {
		res.Notes = append(res.Notes, "SUCH THAT is constant false; no package can satisfy the query")
		return res, nil
	}
	deadline := time.Time{}
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	trees := &treeSource{inst: inst, opts: opts, res: res}
	// best: the feasible branch outcome with the best objective.
	// fallback: the first refined-but-infeasible outcome, reported when
	// no branch reaches feasibility (mirrors the single-branch contract:
	// a best-effort package plus Feasible=false).
	var best, fallback, last *Result
	// merged is the certified dual bound over every DNF branch (the
	// union's optimum cannot beat the best branch relaxation); it backs
	// both the reported interval and the anytime early exit.
	wantBound := inst.Analysis.Query.Objective != nil && inst.ObjW != nil && opts.BoundMode != plan.BoundNone
	var merged bound.Outcome
	// recordBound folds a pass's per-branch pipeline results into the
	// union bound and the Result's stage/round stats (stage keeps the
	// deepest seen; rounds stay cumulative across the parity retry, like
	// Nodes/LPIters — they measure real work done).
	recordBound := func(prs []bound.PipelineResult) {
		var stage string
		var rounds int
		merged, stage, rounds = mergeBranchBounds(objSense(inst), prs)
		if bound.StageRank(stage) > bound.StageRank(res.BoundStage) {
			res.BoundStage = stage
		}
		res.BoundRounds += rounds
	}
	for pass := 0; ; pass++ {
		best, fallback, last = nil, nil, nil
		var prs []bound.PipelineResult
		// Anytime pre-pass: with a gap tolerance and several branches,
		// bound every branch up front (cheap LPs over leaves or raw
		// candidates) so the descent loop below can stop as soon as an
		// incumbent is provably within tolerance of the union bound. No
		// incumbent exists yet, so the pipeline runs every allowed stage
		// — the tightest certificate it can produce.
		prebounded := false
		if wantBound && opts.GapTolerance > 0 && len(branches) > 1 {
			for _, br := range branches {
				ba, err := newBranchAtoms(opts.Ctx, inst, br)
				if err != nil {
					return nil, err
				}
				bt := time.Now()
				pr, err := branchBound(inst, ba, exAtoms, pins, trees, opts, nanIncumbent, false)
				res.BoundTime += time.Since(bt)
				if err != nil {
					if ferr := boundFatal(opts, err); ferr != nil {
						return nil, ferr
					}
					// Certification rung: the bound pass is optional, so
					// its failure degrades to an uncertified answer and
					// the descent continues.
					res.degrade("bound", fmt.Sprintf("certification pass failed (%v); answer uncertified", err))
					wantBound = false
					prs = nil
					break
				}
				prs = append(prs, pr)
			}
			if wantBound {
				recordBound(prs)
				prebounded = true
			}
		}
		for bi, br := range branches {
			if err := lifecycle.ContextErr(opts.Ctx); err != nil {
				return nil, err
			}
			if prebounded && best != nil && merged.Certified {
				iv := bound.Interval{Found: best.Objective, Bound: merged.Bound}
				if iv.Gap() <= opts.GapTolerance {
					res.Notes = append(res.Notes, fmt.Sprintf(
						"anytime: certified gap %.2f%% ≤ tolerance %.2f%% after %d of %d branches; skipping the rest",
						100*iv.Gap(), 100*opts.GapTolerance, bi, len(branches)))
					break
				}
			}
			ba, err := newBranchAtoms(opts.Ctx, inst, br)
			if err != nil {
				return nil, err
			}
			bres := &Result{}
			last = bres
			if err := solveBranch(inst, ba, exAtoms, pins, trees, opts, deadline, bres); err != nil {
				return nil, err
			}
			res.Branches++
			res.Nodes += bres.Nodes
			res.LPIters += bres.LPIters
			prefix := ""
			if len(branches) > 1 {
				prefix = fmt.Sprintf("branch %d/%d: ", bi+1, len(branches))
			}
			for _, note := range bres.Notes {
				res.Notes = append(res.Notes, prefix+note)
			}
			if bres.Feasible {
				if best == nil || inst.Better(bres.Objective, best.Objective) {
					best = bres
				}
				if inst.Analysis.Query.Objective == nil {
					break // any feasible branch answers an objective-free query
				}
			} else if fallback == nil && bres.Mult != nil {
				fallback = bres
			}
			if wantBound && !prebounded {
				// Bound after the descent, not before: the best objective
				// so far is an incumbent the pipeline can measure its gap
				// against, stopping stage escalation as soon as the
				// certificate is tight enough (Options.GapTolerance).
				incumbent, has := nanIncumbent, false
				if best != nil {
					incumbent, has = best.Objective, true
				}
				bt := time.Now()
				pr, err := branchBound(inst, ba, exAtoms, pins, trees, opts, incumbent, has)
				res.BoundTime += time.Since(bt)
				if err != nil {
					if ferr := boundFatal(opts, err); ferr != nil {
						return nil, ferr
					}
					res.degrade("bound", fmt.Sprintf("certification pass failed (%v); answer uncertified", err))
					wantBound = false
					prs = nil
				} else {
					prs = append(prs, pr)
				}
			}
		}
		if wantBound && !prebounded {
			recordBound(prs)
		}
		if best != nil || pass > 0 || !res.patchedAny {
			break
		}
		// Parity retry: the descent ran over a patched tree and found no
		// feasible package. Patched trees are approximations (merged
		// internal representatives, nearest-leaf routing), so before
		// declaring the query infeasible, rebuild from scratch and run
		// once more — incremental maintenance must never lose a package
		// a rebuild would find. The fresh tree overwrites the patched
		// one in both cache tiers.
		res.Notes = append(res.Notes,
			"patched partition tree yielded no feasible package; rebuilding from scratch and retrying")
		// Branch stats describe the pass the final answer came from;
		// Nodes/LPIters stay cumulative (they measure real work done).
		res.Branches = 0
		o := opts
		o.Patch = nil
		o.forceRebuild = true
		trees = &treeSource{inst: inst, opts: o, res: res}
	}
	pick := best
	if pick == nil {
		pick = fallback
	}
	if pick == nil {
		// Every branch was sketch-infeasible before reaching refine:
		// report the last attempt's tree shape so stats still show what
		// ran, with no package.
		res.Partitions, res.Levels, res.TopVars = last.Partitions, last.Levels, last.TopVars
		res.Notes = append(res.Notes, "sketch over representatives is infeasible on every branch; the query may have no package")
		return res, nil
	}
	res.Mult, res.Objective, res.Feasible = pick.Mult, pick.Objective, pick.Feasible
	res.Partitions, res.Levels, res.TopVars = pick.Partitions, pick.Levels, pick.TopVars
	res.Active, res.Refined, res.Repaired = pick.Active, pick.Refined, pick.Repaired
	res.LPIters += merged.Iterations
	if merged.Certified && res.Feasible {
		res.Bound, res.Certified = merged.Bound, true
		res.Gap = bound.Interval{Found: res.Objective, Bound: res.Bound}.Gap()
	}
	return res, nil
}

// boundFatal classifies a bound-pass error: cancellation must
// propagate (the caller gave up, not the subsystem), everything else
// may degrade to an uncertified answer. Returns the error to propagate
// or nil when degrading is allowed.
func boundFatal(opts Options, err error) error {
	if errors.Is(err, lifecycle.ErrCanceled) {
		return err
	}
	if cerr := lifecycle.ContextErr(opts.Ctx); cerr != nil {
		return cerr
	}
	return nil
}

// treeSource memoizes partition-tree acquisition across the branch
// descents of one Solve: every DNF branch shares the same candidates
// and split attributes, so one (τ, depth) tree serves them all, and the
// cache/persist flags on the outer Result reflect real acquisitions,
// never intra-call reuse.
type treeSource struct {
	inst  *search.Instance
	opts  Options
	res   *Result
	trees map[[2]int]*Tree
}

func (ts *treeSource) get(tau, depth int) (*Tree, error) {
	k := [2]int{tau, depth}
	if t, ok := ts.trees[k]; ok {
		return t, nil
	}
	o := ts.opts
	o.MaxPartitionSize, o.Depth = tau, depth
	t, err := acquireTree(ts.inst, o, ts.res)
	if err != nil {
		return nil, err
	}
	if ts.trees == nil {
		ts.trees = map[[2]int]*Tree{}
	}
	ts.trees[k] = t
	return t, nil
}

// solveBranch runs the classic SketchRefine pipeline — acquire tree,
// descend, refine — for one DNF branch, recording the outcome in res.
// A branch whose top-level sketch is infeasible retries flat over the
// same leaves, then once more at τ/4, exactly like the conjunctive
// engine always has.
func solveBranch(inst *search.Instance, ba *branchAtoms, exAtoms []*translate.LinearAtom, pins map[int]bool, trees *treeSource, opts Options, deadline time.Time, res *Result) error {
	// The working atom set: the branch's tuple-level rows plus one
	// synthetic atom per exclusion cut. Everything downstream — the
	// per-level sketch MILPs, the refine residuals, the final check —
	// enforces this extended set.
	fullAtoms := ba.tuple
	if len(exAtoms) > 0 {
		fullAtoms = append(append([]*translate.LinearAtom{}, ba.tuple...), exAtoms...)
	}
	tau := opts.tau()
	depth := opts.depth()
	reducedTau := false
	var flatFrom *Tree // a hierarchical tree whose leaves the flat retry reuses
	for {
		if err := lifecycle.ContextErr(opts.Ctx); err != nil {
			return err
		}
		var tree *Tree
		if flatFrom != nil {
			// The flat retry shares the previous tree's leaf level: same
			// τ and seed mean the leaves are identical, so re-running the
			// offline partitioning (the dominant cost at scale) would
			// only rebuild what is already in memory.
			tree = flatFrom.flatten()
			flatFrom = nil
		} else {
			var err error
			tree, err = trees.get(tau, depth)
			if err != nil {
				return err
			}
		}
		res.Partitions = len(tree.Leaves())
		res.Levels = tree.Depth
		res.TopVars = len(tree.Levels[0])
		y, leafAtoms, infeasible, err := descend(inst, tree, ba, exAtoms, pins, opts, deadline, res)
		if err != nil {
			return err
		}
		if infeasible {
			switch {
			case tree.Depth > 1:
				// Coarse top-level representatives can be infeasible
				// where the flat sketch is not; retry over the same
				// leaves as a single level before shrinking τ. (Keyed
				// on the tree actually built: a depth request the
				// builder early-stopped to 1 level must not re-try the
				// same flat tree.)
				depth = 1
				flatFrom = tree
				res.Notes = append(res.Notes,
					"hierarchical sketch infeasible at the top level; retrying flat over the same leaves")
				continue
			case !reducedTau && tau > 1:
				reducedTau = true
				tau = max(1, tau/4)
				res.Notes = append(res.Notes,
					fmt.Sprintf("sketch over representatives infeasible; retrying with partition size %d", tau))
				continue
			}
			res.Notes = append(res.Notes, "sketch over representatives is infeasible; the query may have no package")
			return nil
		}
		if y == nil {
			res.Notes = append(res.Notes, "sketch solver hit its limits without an incumbent")
			return nil
		}
		refine(inst, tree.Leaves(), tree.Attrs, fullAtoms, leafAtoms, y, pins, opts, deadline, res)
		return nil
	}
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

// nodeExclusionAtoms re-weights tuple-level exclusion atoms over a
// level's nodes: a node's weight is its subtree's mean tuple weight,
// the same per-unit approximation the representative carries for SUM
// atoms.
func nodeExclusionAtoms(nodes []Node, exAtoms []*translate.LinearAtom) []*translate.LinearAtom {
	out := make([]*translate.LinearAtom, len(exAtoms))
	for k, ex := range exAtoms {
		w := make([]float64, len(nodes))
		for g := range nodes {
			s := 0.0
			for _, i := range nodes[g].Tuples {
				s += ex.W[i]
			}
			w[g] = s / float64(len(nodes[g].Tuples))
		}
		out[k] = &translate.LinearAtom{W: w, Op: ex.Op, RHS: ex.RHS, Source: ex.Source}
	}
	return out
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

// pinCount counts the pinned candidates a node's subtree covers: the
// node's multiplicity lower bound at every sketch level.
func pinCount(tuples []int, pins map[int]bool) int {
	if len(pins) == 0 {
		return 0
	}
	c := 0
	for _, i := range tuples {
		if pins[i] {
			c++
		}
	}
	return c
}

// acquireTree fetches the partition tree from the in-memory cache, then
// from the on-disk store, then — when Options.Patch supplies lineage —
// by patching the previous dataset's tree in place, and only then
// builds it (populating both tiers). The key fingerprints the candidate
// rows, so any change to the backing data misses in both tiers; with a
// Patch the stale tree is repaired via ApplyDelta and re-persisted,
// without one a rebuild overwrites it. CacheHit/TreeLoaded/TreePatched
// reflect the tree this call returns: a retry that rebuilds clears
// flags recorded by an earlier attempt.
//
// Concurrent misses on the same key coalesce onto one acquisition (see
// Cache.do): joiners share the winner's tree and report Coalesced. A
// canceled acquisition returns a lifecycle.ErrCanceled wrap and writes
// nothing to either cache tier — the incomplete tree a canceled build
// returns is discarded here, never published.
func acquireTree(inst *search.Instance, opts Options, res *Result) (*Tree, error) {
	res.CacheHit, res.TreeLoaded, res.TreePatched, res.Coalesced, res.DeltaApplied = false, false, false, false, 0
	var store *Store
	if opts.PersistDir != "" {
		store = NewStore(opts.PersistDir)
	}
	if opts.Cache == nil && store == nil {
		return buildFresh(inst, opts, res, nil, Key{}, nil)
	}
	key, err := keyForCtx(inst, opts)
	if err != nil {
		return nil, err
	}
	width := 0
	if len(inst.Rows) > 0 {
		width = len(inst.Rows[0])
	}
	if opts.forceRebuild {
		return buildFresh(inst, opts, res, store, key, opts.Cache)
	}
	// Cache rung of the degradation ladder: a failed probe bypasses the
	// in-memory tier for this acquisition (disk, patch, and build still
	// run) rather than failing the query.
	cacheOK := opts.Cache != nil
	if cacheOK {
		if ferr := fault.Check("sketch.cache.get"); ferr != nil {
			cacheOK = false
			res.degrade("cache", fmt.Sprintf("probe failed (%v); bypassed for this query", ferr))
		}
	}
	cacheGet := func() (*Tree, bool) {
		if !cacheOK {
			return nil, false
		}
		t, ok := opts.Cache.Get(key)
		if ok {
			res.CacheHit = true
			res.patchedAny = res.patchedAny || t.Patched
		}
		return t, ok
	}
	if t, ok := cacheGet(); ok {
		return t, nil
	}
	miss := func() (*Tree, error) {
		// The flight's winner may have populated the cache between this
		// caller's miss and its grant; re-check before doing real work.
		// Peek, not Get: the one recorded miss already describes this
		// acquisition, a second lookup must not skew the counters.
		if cacheOK {
			if t, ok := opts.Cache.Peek(key); ok {
				res.CacheHit = true
				res.patchedAny = res.patchedAny || t.Patched
				return t, nil
			}
		}
		if store != nil {
			t, err := store.Load(key)
			if err == nil && t != nil {
				err = t.validateAgainst(len(inst.Rows), width)
			}
			switch {
			case err != nil:
				// Corrupt, truncated, stale, or instance-mismatched files are
				// a rebuild, never a failure: the build below overwrites them.
				res.Notes = append(res.Notes, fmt.Sprintf("persisted partition tree unusable (%v); rebuilding", err))
				res.degrade("store", fmt.Sprintf("persisted tree unusable (%v); rebuilt", err))
			case t != nil:
				res.TreeLoaded = true
				res.patchedAny = res.patchedAny || t.Patched
				if cacheOK {
					cachePublish(opts.Cache, key, t, res)
				}
				return t, nil
			}
		}
		if t := patchStaleTree(inst, opts, key, store, res); t != nil {
			return t, nil
		}
		return buildFresh(inst, opts, res, store, key, opts.Cache)
	}
	if opts.Cache == nil {
		return miss()
	}
	t, coalesced, err := opts.Cache.do(opts.Ctx, key, miss)
	if err != nil {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return nil, lifecycle.Canceled(opts.Ctx.Err())
		}
		return nil, err
	}
	if coalesced {
		res.Coalesced = true
		res.patchedAny = res.patchedAny || t.Patched
	}
	return t, nil
}

// buildFresh runs the offline build and publishes the result to both
// cache tiers — unless the context was canceled mid-build, in which
// case the incomplete tree is dropped on the floor and an error
// returned, keeping cache and store consistent.
func buildFresh(inst *search.Instance, opts Options, res *Result, store *Store, key Key, cache *Cache) (*Tree, error) {
	t := BuildTree(inst, opts)
	if err := lifecycle.ContextErr(opts.Ctx); err != nil {
		return nil, err
	}
	cachePublish(cache, key, t, res)
	if store != nil {
		if err := store.Save(key, t); err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("could not persist partition tree: %v", err))
			res.degrade("store", fmt.Sprintf("tree not persisted (%v); disk tier cold for this key", err))
		}
	}
	return t, nil
}

// cachePublish puts a tree in the in-memory tier unless the publish
// fault site fires; publication is optional, so a failure only degrades
// (the tree still serves this query and the disk tier).
func cachePublish(c *Cache, key Key, t *Tree, res *Result) {
	if c == nil {
		return
	}
	if ferr := fault.Check("sketch.cache.put"); ferr != nil {
		res.degrade("cache", fmt.Sprintf("publish failed (%v); tree not cached", ferr))
		return
	}
	c.Put(key, t)
}

// patchStaleTree attempts incremental maintenance on an exact-key miss:
// the tree cached (or persisted) for the pre-write dataset — the base
// fingerprint in Options.Patch — is patched via ApplyDelta to cover the
// current candidates, stored under the new key, and re-persisted
// atomically. Returns nil when there is no lineage, no base tree, or
// the delta cannot be absorbed locally (the caller then rebuilds).
//
// Patching is the first rung above a rebuild, so every failure mode —
// an injected fault, or a panic out of ApplyDelta on a tree that
// decoded cleanly but trips an invariant — degrades to "no patch" and
// lets the caller rebuild from scratch, never fails the query.
func patchStaleTree(inst *search.Instance, opts Options, key Key, store *Store, res *Result) (t *Tree) {
	defer func() {
		if r := recover(); r != nil {
			res.degrade("patch", fmt.Sprintf("delta patch panicked (%v); rebuilding from scratch", r))
			res.TreePatched = false
			t = nil
		}
	}()
	if opts.Patch == nil || key.Fingerprint == opts.Patch.BaseFingerprint {
		return nil
	}
	if opts.stopped() {
		// A canceled solve must not publish a patched tree; report "no
		// patch" and let the build path surface the cancellation.
		return nil
	}
	if ferr := fault.Check("sketch.tree.patch"); ferr != nil {
		res.degrade("patch", fmt.Sprintf("delta patch failed (%v); rebuilding from scratch", ferr))
		return nil
	}
	baseKey := key
	baseKey.Fingerprint = opts.Patch.BaseFingerprint
	var base *Tree
	if opts.Cache != nil {
		base, _ = opts.Cache.Get(baseKey)
	}
	if base == nil && store != nil {
		if t, err := store.Load(baseKey); err == nil && t != nil {
			base = t
		}
	}
	if base == nil {
		return nil
	}
	patched, ok := base.ApplyDelta(inst.Rows, opts.Patch.Remap, opts)
	if !ok {
		res.Notes = append(res.Notes, "stale partition tree not locally patchable; rebuilding")
		return nil
	}
	res.TreePatched = true
	res.patchedAny = true
	res.DeltaApplied = opts.Patch.DeltaSize(len(inst.Rows))
	cachePublish(opts.Cache, key, patched, res)
	if store != nil {
		if err := store.Save(key, patched); err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("could not persist patched partition tree: %v", err))
			res.degrade("store", fmt.Sprintf("patched tree not persisted (%v)", err))
		}
	}
	return patched
}

// KeyFor resolves the cache/store key an evaluation with these options
// uses for the instance: the candidate fingerprint (Options.Fingerprint
// when precomputed) plus every knob that shapes the tree. Exported for
// benchmarks and tooling that pre-seed the cache.
func KeyFor(inst *search.Instance, opts Options) Key {
	opts.Ctx = nil // tool callers want the key, not a cancellation point
	key, _ := keyForCtx(inst, opts)
	return key
}

// keyForCtx is KeyFor with the solve's context threaded into the O(n)
// fingerprint hash, so a canceled evaluation bails out of the hash
// instead of finishing it (the dominant per-solve cost at 1M rows when
// no memo precomputes the fingerprint).
func keyForCtx(inst *search.Instance, opts Options) (Key, error) {
	fp := uint64(0)
	if opts.Fingerprint != nil {
		fp = *opts.Fingerprint
	} else {
		var err error
		if fp, err = fingerprintCtx(opts.Ctx, inst.Rows); err != nil {
			return Key{}, err
		}
	}
	return Key{
		Fingerprint: fp,
		Attrs:       attrsKey(partitionAttrs(inst)),
		Tau:         opts.tau(),
		Depth:       opts.depth(),
		Seed:        opts.Seed,
	}, nil
}

func attrsKey(attrs []int) string {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = strconv.Itoa(a)
	}
	return strings.Join(parts, ",")
}

// descend runs the sketch at every level of the tree: one MILP over the
// root representatives first, then each selected node's multiplicity is
// re-solved over its children's representatives against residual
// constraint right-hand sides — the same residual scheme refine applies
// to real tuples, applied to representatives level by level. Only nodes
// chosen at the level above are descended into. Returns the leaf
// multiplicities together with the branch atoms weighted over the leaf
// level (what refine consumes): representative rows for affine and AVG
// atoms, envelope relaxations for the MIN/MAX selector rows.
func descend(inst *search.Instance, tree *Tree, ba *branchAtoms, exAtoms []*translate.LinearAtom, pins map[int]bool, opts Options, deadline time.Time, res *Result) (y []int, leafAtoms []*translate.LinearAtom, infeasible bool, err error) {
	levelAtoms := make([][]*translate.LinearAtom, tree.Depth)
	levelObjW := make([][]float64, tree.Depth)
	levelAdm := make([][]int, tree.Depth)
	for l, nodes := range tree.Levels {
		reps := make([]schema.Row, len(nodes))
		for i := range nodes {
			reps[i] = nodes[i].Rep
		}
		atoms, err := ba.levelAtoms(nodes, tree.Attrs, reps)
		if err != nil {
			return nil, nil, false, err
		}
		atoms = append(atoms, nodeExclusionAtoms(nodes, exAtoms)...)
		w, _, err := translate.ObjectiveWeights(inst.Analysis, reps)
		if err != nil {
			return nil, nil, false, err
		}
		levelAtoms[l], levelObjW[l], levelAdm[l] = atoms, w, ba.admissibleCounts(nodes)
	}
	y, infeasible, err = rootSolve(inst, tree.Levels[0], levelAtoms[0], levelObjW[0], levelAdm[0], pins, opts, deadline, res)
	if err != nil || infeasible || y == nil {
		return nil, nil, infeasible, err
	}
	for l := 1; l < tree.Depth; l++ {
		y = pushLevel(inst, tree, l, levelAtoms, levelObjW, levelAdm, y, pins, opts, deadline, res)
	}
	return y, levelAtoms[tree.Depth-1], false, nil
}

// jointCap bounds the variable count of a joint per-level MILP (the
// union of all active nodes' children); beyond it pushLevel falls back
// to per-parent residual solves, which stay tiny regardless of how
// many nodes the level above selected.
const jointCap = 4096

// rootSolve builds and solves the top-level sketch MILP: one integer
// variable per root node (the representative's multiplicity, capped at
// the subtree's tuple capacity and floored at the subtree's pinned
// count), the query's linear atoms re-weighted over the root
// representatives, and the affine objective likewise.
func rootSolve(inst *search.Instance, nodes []Node, atoms []*translate.LinearAtom, objW []float64, adm []int, pins map[int]bool, opts Options, deadline time.Time, res *Result) (y []int, infeasible bool, err error) {
	G := len(nodes)
	p := lp.NewProblem(G)
	for g := 0; g < G; g++ {
		lo := float64(pinCount(nodes[g].Tuples, pins))
		up := nodeCap(inst, &nodes[g], adm, g)
		if lo > up {
			// A pinned tuple inside a fully-eliminated subtree: no
			// package on this branch can honor both.
			return nil, true, nil
		}
		if err := p.SetBounds(g, lo, up); err != nil {
			return nil, false, err
		}
	}
	if err := p.SetObjective(objW, objSense(inst)); err != nil {
		return nil, false, err
	}
	for _, at := range atoms {
		var coefs []lp.Coef
		for g, w := range at.W {
			if w != 0 {
				coefs = append(coefs, lp.Coef{Var: g, Val: w})
			}
		}
		if _, err := p.AddConstraint(coefs, at.Op, at.RHS); err != nil {
			return nil, false, err
		}
	}
	mp := milp.NewProblem(p)
	for g := 0; g < G; g++ {
		mp.SetInteger(g)
	}
	sol := milp.Solve(mp, milp.Options{MaxNodes: subMILPNodes, TimeLimit: timeShare(deadline, 2), Ctx: opts.Ctx})
	res.Nodes += int64(sol.Nodes)
	res.LPIters += sol.LPIters
	switch sol.Status {
	case milp.StatusInfeasible:
		return nil, true, nil
	case milp.StatusUnbounded:
		return nil, false, fmt.Errorf("sketch: objective is unbounded over representatives (add constraints or REPEAT)")
	}
	if sol.X == nil {
		return nil, false, nil
	}
	y = make([]int, G)
	for g := 0; g < G; g++ {
		y[g] = int(math.Round(sol.X[g]))
	}
	return y, false, nil
}

// pushLevel distributes the multiplicities chosen at level l-1 over the
// nodes of level l, descending only into subtrees the level above
// selected. It first attempts one joint MILP over the union of every
// active parent's children against the full constraints — the
// highest-quality push-down, and still tiny because the union is
// bounded by the active count times the fanout. When that union
// exceeds jointCap or the joint solve fails, the active parents are
// pushed down as a concurrent wave (see solveWave): each parent gets
// its own MILP over its children whose constraint right-hand sides are
// the query atoms minus every other parent's representative
// contribution, the solves fan out across workers (parents own
// disjoint child sets), and the merge walks the parents in fixed order
// (largest multiplicity first). A parent whose sub-MILP fails falls
// back to a greedy spread over its children, nearest representative
// first, honoring pinned lower bounds. Cross-parent error left by the
// shared snapshot is absorbed a level deeper — ultimately by refine's
// validation and repair sweeps.
func pushLevel(inst *search.Instance, tree *Tree, l int, levelAtoms [][]*translate.LinearAtom, levelObjW [][]float64, levelAdm [][]int, parentMult []int, pins map[int]bool, opts Options, deadline time.Time, res *Result) []int {
	parents := tree.Levels[l-1]
	children := tree.Levels[l]
	pAtoms, cAtoms := levelAtoms[l-1], levelAtoms[l]
	adm := levelAdm[l]
	childMult := make([]int, len(children))

	var union []int
	for g, m := range parentMult {
		if m > 0 {
			union = append(union, parents[g].Children...)
		}
	}
	if len(union) <= jointCap {
		sort.Ints(union)
		residual := make([]float64, len(cAtoms))
		for k := range cAtoms {
			residual[k] = cAtoms[k].RHS
		}
		if residualSolve(inst, union, nodeBound(inst, children, pins, adm), cAtoms, levelObjW[l], residual, childMult, opts, deadline, res) {
			return childMult
		}
		for _, ci := range union {
			childMult[ci] = 0
		}
	}

	// cur[k]: every active parent's representative contribution to atom
	// k — the shared snapshot the wave's residuals are taken against.
	cur := make([]float64, len(cAtoms))
	grpSum := make([][]float64, len(parents))
	for g := range parents {
		grpSum[g] = make([]float64, len(cAtoms))
		if parentMult[g] == 0 {
			continue
		}
		for k := range cAtoms {
			grpSum[g][k] = pAtoms[k].W[g] * float64(parentMult[g])
			cur[k] += grpSum[g][k]
		}
	}
	var active []int
	for g, m := range parentMult {
		if m > 0 {
			active = append(active, g)
		}
	}
	sort.SliceStable(active, func(i, j int) bool {
		if parentMult[active[i]] != parentMult[active[j]] {
			return parentMult[active[i]] > parentMult[active[j]]
		}
		return active[i] < active[j]
	})
	oks := solveWave(inst, active, func(g int) []int { return parents[g].Children },
		nodeBound(inst, children, pins, adm), cAtoms, levelObjW[l], cur, grpSum, childMult, opts, deadline, res)
	// Scales feed only the greedy fallback's distance metric, and cost a
	// full candidate scan — computed on first use.
	var scales []float64
	for ai, g := range active {
		if !oks[ai] {
			if scales == nil {
				scales = attrScales(inst, tree.Attrs)
			}
			greedySpread(inst, children, parents[g], parentMult[g], childMult, pins, scales, tree.Attrs, adm)
		}
	}
	return childMult
}

// nodeBound is the push-down bound function over a level's nodes:
// floored at the subtree's pinned count, capped at the subtree's
// admissible tuple capacity.
func nodeBound(inst *search.Instance, nodes []Node, pins map[int]bool, adm []int) func(int) (float64, float64) {
	return func(ci int) (float64, float64) {
		return float64(pinCount(nodes[ci].Tuples, pins)), nodeCap(inst, &nodes[ci], adm, ci)
	}
}

// nodeCap bounds a node's multiplicity at a sketch level: the subtree's
// tuple count times the REPEAT cap, shrunk to the admissible supply
// when the branch carries elimination rows — units the refine MILP
// could never place must not be promised by the sketch. A node whose
// whole subtree is eliminated caps at 0 (the envelope prune as a
// bound).
func nodeCap(inst *search.Instance, n *Node, adm []int, g int) float64 {
	tuples := len(n.Tuples)
	if adm != nil && adm[g] < tuples {
		tuples = adm[g]
	}
	if tuples == 0 {
		return 0
	}
	if inst.MaxMult > 0 {
		return float64(tuples * inst.MaxMult)
	}
	return lp.Inf
}

// greedySpread hands a parent's units to its children when the
// push-down MILP fails: every child first receives its pinned lower
// bound, then the remaining units go round-robin to the children whose
// representatives are nearest the parent's in normalized attribute
// space (the same allocation the per-leaf repair uses).
func greedySpread(inst *search.Instance, children []Node, parent Node, units int, childMult []int, pins map[int]bool, scales []float64, attrs []int, adm []int) {
	floor := func(ci int) int { return pinCount(children[ci].Tuples, pins) }
	capacity := func(ci int) int {
		tuples := len(children[ci].Tuples)
		if adm != nil && adm[ci] < tuples {
			tuples = adm[ci]
		}
		if inst.MaxMult > 0 {
			return tuples * inst.MaxMult
		}
		if tuples == 0 {
			return 0
		}
		return max(units, 1)
	}
	dist := func(ci int) float64 {
		d := 0.0
		for ai, a := range attrs {
			diff := (numAt(children[ci].Rep, a) - numAt(parent.Rep, a)) / scales[ai]
			d += diff * diff
		}
		return d
	}
	allocate(parent.Children, units, floor, capacity, dist, childMult)
}

// objSense maps the query objective to an LP sense (minimize-zero for
// objective-free queries).
func objSense(inst *search.Instance) lp.Sense {
	if o := inst.Analysis.Query.Objective; o != nil && o.Sense == paql.Maximize {
		return lp.Maximize
	}
	return lp.Minimize
}

// timeShare splits the remaining budget into parts (0 = no limit).
func timeShare(deadline time.Time, parts int) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	left := time.Until(deadline)
	if left <= 0 {
		// The budget is spent; hand solves a token slice so they bail
		// out quickly rather than running unbounded.
		return time.Millisecond
	}
	return left / time.Duration(max(parts, 1))
}
