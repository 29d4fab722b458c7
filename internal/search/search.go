// Package search implements PackageBuilder's search-based evaluation
// strategies (paper §4): exhaustive enumeration (the impractical
// baseline), cardinality-pruned enumeration (§4.1), greedy
// construction, and the heuristic local search whose k-replacement
// neighbourhoods are generated by SQL joins against the DBMS (§4.2).
//
// All strategies operate on an Instance: the analyzed query plus its
// candidate tuples (those satisfying the base constraints), with the
// top-level conjunctive linear atoms and objective pre-weighted per
// candidate for incremental evaluation. Packages are multiplicity
// vectors over the candidates.
package search

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/lifecycle"
	"repro/internal/paql"
	"repro/internal/prune"
	"repro/internal/schema"
	"repro/internal/translate"
)

// Instance is a query prepared for search over concrete candidates.
type Instance struct {
	Analysis *paql.Analysis
	Rows     []schema.Row // candidate tuples (post-WHERE)
	IDs      []int        // base-table row ids, parallel to Rows
	MaxMult  int          // per-tuple multiplicity cap (≥1 for enumerators)
	// Passes is the pass store of Rows: every linear row any strategy
	// weighs over the candidates — the atoms below, the exact MILP, the
	// sketch branches — and the pruning statistics are compiled against it,
	// so they share one fold per (argument, filter) selection, with every
	// other instance over the same candidates when the store is a
	// snapshot's.
	Passes *translate.Passes
	// Image, when set, returns the table the candidates were drawn from,
	// lowered to columns at the candidates' version — candidate j is row
	// IDs[j] of it — made by the first caller, whom ctx may cancel. It
	// returns nil, nil when none is kept at that version and none may be
	// made: the table has moved past it, or the candidates are too small
	// a share of the table to lower it whole. The engine sets it on an
	// instance prepared from
	// a table; nothing reads it until a tree is built or patched.
	Image func(ctx context.Context) (*Columns, error)

	Atoms  []*translate.LinearAtom // top-level conjunctive linear atoms
	Pure   bool                    // passing Atoms is being an answer: the formula holds and the objective is not NULL (none missing, none relaxed)
	ObjW   []float64               // linear objective weights (nil if non-affine)
	ObjK   float64                 // objective constant term
	Bounds prune.Bounds            // §4.1 cardinality bounds

	// suchThat and objective are the query's formula and objective,
	// compiled once for the packages Validate and Objective evaluate.
	suchThat, objective *paql.Global
}

// NewInstance prepares an instance over the candidates of a pass store:
// extracts atoms, objective weights and cardinality bounds. ids are the
// candidates' base-table row ids. ctx, which may be nil, cancels the folds
// over the candidates that the store has not made yet.
func NewInstance(ctx context.Context, a *paql.Analysis, passes *translate.Passes, ids []int) (*Instance, error) {
	rows := passes.Rows()
	if len(rows) != len(ids) {
		return nil, fmt.Errorf("search: %d rows but %d ids", len(rows), len(ids))
	}
	inst := &Instance{
		Analysis: a,
		Rows:     rows,
		IDs:      ids,
		MaxMult:  a.Query.MaxMultiplicity(),
		Passes:   passes,
		suchThat: paql.CompileGlobal(a.Query.SuchThat),
	}
	if a.Query.Objective != nil {
		inst.objective = paql.CompileGlobal(a.Query.Objective.Expr)
	}
	var err error // a non-affine objective leaves ObjW nil: full evaluation per package
	if inst.Atoms, inst.Pure, inst.ObjW, inst.ObjK, err = passes.ConjunctiveAtoms(ctx, a); err != nil {
		return nil, err
	}
	inst.Bounds = prune.Derive(a.Query.SuchThat, passStats{ctx, passes}, len(rows), inst.MaxMult)
	if err := lifecycle.ContextErr(ctx); err != nil {
		return nil, err // a canceled fold answered Derive "no statistics"
	}
	if translate.ObjectiveNeedsTuple(a) {
		// Derive reads SUCH THAT only; the objective's guard is a constraint too.
		inst.Bounds = inst.Bounds.Intersect(prune.Bounds{Lo: 1, Hi: prune.Unbounded})
	}
	return inst, nil
}

// passStats adapts a pass store to prune.StatsProvider.
type passStats struct {
	ctx    context.Context
	passes *translate.Passes
}

func (s passStats) AggStats(a *expr.Agg) (lo, hi float64, n int, ok bool) {
	return s.passes.AggStats(s.ctx, a)
}

// Pkg is a package: multiplicities over the instance's candidates.
type Pkg struct {
	Mult []int
	Obj  float64
}

// Key renders the multiplicity vector as an exact dedup key (no
// clamping: REPEAT multiplicities must not collide).
func (p Pkg) Key() string {
	var b strings.Builder
	for i, m := range p.Mult {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(m))
	}
	return b.String()
}

// Size returns the total tuple count.
func (p Pkg) Size() int {
	s := 0
	for _, m := range p.Mult {
		s += m
	}
	return s
}

// Materialize expands a multiplicity vector to package rows.
func (inst *Instance) Materialize(mult []int) []schema.Row {
	var out []schema.Row
	for i, m := range mult {
		for k := 0; k < m; k++ {
			out = append(out, inst.Rows[i])
		}
	}
	return out
}

// Validate reports whether a package is an answer: the full SUCH THAT
// formula holds and the objective is not NULL (an affine objective's NULL
// cases are guard rows among Atoms; any other is evaluated here).
func (inst *Instance) Validate(mult []int) (bool, error) {
	rows := inst.Materialize(mult)
	ok, err := inst.suchThat.Holds(rows)
	if err != nil || !ok || inst.objective == nil || inst.ObjW != nil {
		return ok, err
	}
	v, err := inst.objective.Eval(rows)
	return err == nil && !v.IsNull(), err
}

// Holds reports whether a materialized package satisfies the SUCH THAT
// formula compiled for the instance.
func (inst *Instance) Holds(rows []schema.Row) (bool, error) {
	return inst.suchThat.Holds(rows)
}

// Value evaluates the objective compiled for the instance on a
// materialized package in full, never by Objective's linear fast path,
// so it reads what paql's evaluator reads; the absent objective is 0.
func (inst *Instance) Value(rows []schema.Row) (float64, error) {
	return inst.objective.Value(rows)
}

// Objective computes the package objective, via the linear fast path
// when available.
func (inst *Instance) Objective(mult []int) (float64, error) {
	if inst.Analysis.Query.Objective == nil {
		return 0, nil
	}
	if inst.ObjW != nil {
		s := inst.ObjK
		for i, m := range mult {
			if m != 0 {
				s += inst.ObjW[i] * float64(m)
			}
		}
		return s, nil
	}
	return inst.objective.Value(inst.Materialize(mult))
}

// Better reports whether objective a improves on b for this query.
func (inst *Instance) Better(a, b float64) bool {
	return paql.Better(inst.Analysis.Query.Objective, a, b)
}

// Options tunes search strategies.
type Options struct {
	// Ctx, when non-nil, cancels the search cooperatively: strategies
	// poll it wherever they check Timeout and return their best-so-far
	// result promptly when it is done.
	Ctx        context.Context
	Limit      int           // packages to return (default 1)
	Timeout    time.Duration // wall-clock budget from the call; 0 = unlimited
	Seed       int64         // randomness seed (local search, greedy ties)
	Restarts   int           // local-search restarts (default 4)
	MaxK       int           // max replacement size (default 2)
	NoObjBound bool          // ablation: objective-based pruning off
	// Require lists candidate indexes that must appear in every
	// returned package with multiplicity ≥ 1 (adaptive exploration §3.3
	// pins tuples the user wants to keep).
	Require []int
}

// requireSet validates Require against n candidates into a lookup; a pin
// outside [0, n) is an error, never dropped.
func (o Options) requireSet(n int) (map[int]bool, error) {
	if len(o.Require) == 0 {
		return nil, nil
	}
	set := make(map[int]bool, len(o.Require))
	for _, i := range o.Require {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("search: pinned candidate %d out of range [0,%d)", i, n)
		}
		set[i] = true
	}
	return set, nil
}

func (o Options) limit() int {
	if o.Limit <= 0 {
		return 1
	}
	return o.Limit
}

// Result is a strategy outcome.
type Result struct {
	Packages []Pkg // feasible packages, best-first under the objective
	Examined int64 // search nodes / candidates examined
	Complete bool  // the search space was exhausted (result is exact)
	Queries  int   // SQL queries issued (local search)
	Elapsed  time.Duration
}

// add records a feasible package, deduplicating and keeping the best
// `limit` under the objective.
func (r *Result) add(inst *Instance, p Pkg, limit int) {
	for _, have := range r.Packages {
		if slices.Equal(have.Mult, p.Mult) {
			return
		}
	}
	r.Packages = append(r.Packages, p)
	if inst.Analysis.Query.Objective != nil {
		sort.SliceStable(r.Packages, func(i, j int) bool {
			return inst.Better(r.Packages[i].Obj, r.Packages[j].Obj)
		})
	}
	if len(r.Packages) > limit {
		r.Packages = r.Packages[:limit]
	}
}

// deadline converts Options.Timeout to an absolute time (zero = none).
func (o Options) deadline() time.Time {
	if o.Timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(o.Timeout)
}

// stop reports whether a strategy should abandon the search: its
// context is done or the soft deadline has passed. Strategies treat
// both identically — finish the current node, keep what was found,
// and return with Complete=false.
func (o Options) stop(deadline time.Time) bool {
	if poll := lifecycle.Poll(o.Ctx); poll != nil && poll() {
		return true
	}
	return !deadline.IsZero() && time.Now().After(deadline)
}
