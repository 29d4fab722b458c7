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
// An evaluation has two halves, each with one owner. A Compiled is the
// query lowered for SketchRefine — its DNF branches, each weighed over
// the candidates at most once — and depends on no option; a solver
// (solve.go) is one run of it under one Options value, and its phases
// are its methods, a file each, named as the repository benchmark's
// per-layer metrics are:
//
//	compile.go   the lowering and the lazy per-branch weighing (translate.weigh)
//	acquire.go   the partition tree: cache, disk store, delta patch, build (sketch.build, sketch.patch)
//	descent.go   sketch MILP over the roots, push-down level by level (sketch.descent)
//	refine.go    leaves into real tuples, greedy repair, one repair sweep
//	bound.go     the certified dual bound per branch (bound.pass)
//	solve.go     the branch loop, the anytime exit, the parity retry (sketch.solve)
//
// partition.go and tree.go build the tree, delta.go patches it, cache.go
// and persist.go are its two tiers, atoms.go weighs a branch over a tree
// level, parallel.go fans the waves out. Result is the one record of a
// solve. The result is byte-identical at any Options.Parallelism, and
// Result.Feasible is true only for packages that satisfy the full SUCH
// THAT formula and contain every pinned tuple. README.md in this
// directory has the architecture, the atom grammar and the knob table.
package sketch

import (
	"context"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/lp"
	"repro/internal/paql"
	"repro/internal/plan"
	"repro/internal/search"
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
	// Deadline, when non-zero, ends the evaluation's budget: sub-MILPs
	// get shares of what is left, and refine falls back to greedy repair
	// once it passes.
	Deadline time.Time
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
	// Parallelism caps the workers the offline partitioning and the
	// per-leaf refine wave fan out across: 0 = one worker per CPU
	// (GOMAXPROCS), 1 = fully serial.
	// Results are byte-identical at every setting (workers only divide
	// the work, never reorder the merge); under a Deadline the
	// per-solve time slices depend on wall clock, so only runs without
	// one are reproducible across machines.
	Parallelism int
	// PersistDir, when non-empty, names a directory used as an on-disk
	// second tier under Cache: trees are saved after every build and
	// loaded on a cache miss (same fingerprint-based key, so stale
	// files are never used — see Store). Empty = no persistence.
	PersistDir string
	// Fingerprint, when non-nil, is the precomputed fingerprint of the
	// candidate rows (core's fingerprint memo maintains it
	// incrementally per table version). It replaces the O(n) per-cell
	// hash tree acquisition would otherwise run on every evaluation; warm
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
}

// stopped polls Ctx once at a cooperative cancellation checkpoint
// between phases. The build's inner loops take lifecycle.Poll(Ctx)
// itself, nil without a context, so they skip the poll altogether.
func (o Options) stopped() bool {
	poll := lifecycle.Poll(o.Ctx)
	return poll != nil && poll()
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

// Result is a SketchRefine outcome — the one record of what a solve did.
// The solver fills it in as the phases run; core.Stats carries it as it
// is and pbserver marshals it by its struct tags, which are the keys of
// the response's "stats" object.
type Result struct {
	descent // the winning branch: its package, tree shape and refine tallies
	origin  // where the tree it descended came from
	tally   // branch-and-bound nodes and simplex iterations across all solves

	Bound      float64 `json:"-"` // certified dual bound on the objective (valid when Certified)
	Gap        float64 `json:"-"` // certified relative gap |Objective − Bound| / max(1, |Objective|)
	Certified  bool    `json:"-"` // Bound provably brackets the exact optimum (see internal/bound)
	BoundStage string  `json:"-"` // deepest bound-pipeline stage reached across branches (bound.Stage*)
	// BoundRounds counts the Lagrangian tightening rounds spent across
	// all branch bounds.
	BoundRounds int `json:"boundRounds,omitempty"`
	// BoundTime is the wall time the certified-bound passes cost (every
	// boundPass call), so benchmarks can report the bound's share of the
	// solve without re-deriving it.
	BoundTime time.Duration `json:"-"`

	Branches     int `json:"sketchBranches"`     // DNF branches descended (1 = conjunctive formula)
	AtomRewrites int `json:"sketchAtomRewrites"` // AVG/MIN/MAX atoms rewritten into sketchable rows
	Workers      int `json:"sketchWorkers"`      // workers the parallel phases fanned out across

	Notes []string `json:"-"`
	// Degraded lists the degradation-ladder rungs this solve took, one
	// "subsystem: detail" entry per event — an optional tier (cache,
	// disk store, delta patch, bound pass) failed and the solve
	// continued one rung down instead of failing. Empty on a fully
	// healthy solve.
	Degraded []string `json:"-"`
}

// degrade records one degradation-ladder rung on the result: the named
// optional subsystem failed with detail, and the solve continued one
// rung down instead of failing.
func (r *Result) degrade(sub, detail string) {
	r.Degraded = append(r.Degraded, sub+": "+detail)
}

// objSense maps the query objective to an LP sense (minimize-zero for
// objective-free queries).
func objSense(inst *search.Instance) lp.Sense {
	if o := inst.Analysis.Query.Objective; o != nil && o.Sense == paql.Maximize {
		return lp.Maximize
	}
	return lp.Minimize
}

// timeShare is the deadline of a sub-MILP allowed 1/parts of what is
// left before deadline (zero = none). A spent budget still hands it a
// token millisecond, so it bails out quickly rather than not solving.
func timeShare(deadline time.Time, parts int) time.Time {
	if deadline.IsZero() {
		return deadline
	}
	now := time.Now()
	return now.Add(max(deadline.Sub(now)/time.Duration(parts), time.Millisecond))
}
