package bound

// This file is the tightening pipeline over the grouped relaxation:
// the machinery that turns the single coefficient-range envelope per
// partition leaf into a certificate tight enough to act on.
//
// Stage 1 — segmented columns (SortByObjective, then Segment; SplitGroups
// does both): each leaf group is split into contiguous segments of its
// objective-sorted tuple list, with
// per-tuple multiplicity caps summed per segment. A leaf's objective
// contribution is then bounded by a best-k prefix over its segments (a
// piecewise-linear column) instead of Hi × its single most optimistic
// coefficient, and every constraint row's coefficient range shrinks to
// the per-segment range.
//
// Stage 2 — Lagrangian tightening (part of RunPipeline): every row whose
// coefficient varies over the tuples — the band (BETWEEN and =) rows
// whose [min,max] envelopes the grouped relaxation exploits above all —
// is priced with a sign-correct multiplier. For any valid multiplier
// vector y the Lagrangian
//
//	L(y) = opt_{m ∈ X} [ (c − Σᵢ yᵢaᵢ)·m ] + Σᵢ yᵢbᵢ
//
// is a true dual bound (weak duality: a feasible package satisfies the
// priced rows, so with valid signs the terms added to its objective
// never count against it), whatever y is. X is what the unpriced rows
// leave, and those are the rows with one coefficient on every tuple —
// COUNT rows and guards — so X is the tuple box tupleLo ≤ mₜ ≤ tupleHi
// cut by a band on Σmₜ. That is an interval matrix, and the LP over X is
// solved exactly by a selection — the forced units, then the
// best-adjusted tuples while they help or the band needs them — with no
// simplex and no grouping. The adjusted objective is read per tuple, so
// a priced row cannot be cheated by picking different tuples for the
// objective and for the row. A few subgradient rounds (one pass over the
// tuples each) search for a good y, started at the grouped LP's own row
// prices; every evaluated y yields a valid bound, so the best one is
// kept and an unconverged search loses nothing.
//
// Stage 3 — adaptive one-level descent (also RunPipeline): when the
// bound is still wider than the caller's target, the groups that
// contribute most looseness (large LP value × wide objective spread —
// the children of a leaf are its tuples) are re-bounded as singleton
// columns under a variable budget and the relaxation is re-solved.
// Descending a level is a pure refinement: every integral package
// feasible for the branch remains feasible for the refined relaxation,
// so the bound only tightens.
//
// All three stages only ever shrink the relaxation's feasible set
// toward the integral one (or price its rows exactly), so each stage's
// bound is individually valid and the pipeline reports the tightest.

import (
	"cmp"
	"container/heap"
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/lp"
	"repro/internal/search"
	"repro/internal/translate"
)

// Stage names for the bound pipeline, in tightening order. The planner
// declares its bound-decision values as these (plan.BoundRawLP = StageRawLP,
// …), so EXPLAIN and Stats speak the same vocabulary by construction.
const (
	// StageRawLP: exact LP relaxation over the raw candidates (singleton
	// groups); nothing to tighten, it is the tightest LP bound.
	StageRawLP = "raw-lp"
	// StageTreeLP: grouped LP over (segmented) partition-tree leaves.
	StageTreeLP = "tree-lp"
	// StageTightened: StageTreeLP plus subgradient Lagrangian rounds on
	// the binding rows.
	StageTightened = "tree-lp+tighten"
	// StageDescend: StageTightened plus a one-level descent re-solve
	// over the worst-contributing groups.
	StageDescend = "descend-1"
)

// StageRank is a stage's position in tightening order, shallowest
// first, and -1 for anything that is not a pipeline stage. It is the one
// stage order: the pipeline caps its depth with it and the sketch engine
// keeps the deepest stage across DNF branches with it.
func StageRank(stage string) int {
	return slices.Index([]string{StageRawLP, StageTreeLP, StageTightened, StageDescend}, stage)
}

// DefaultTightenRounds bounds the subgradient Lagrangian rounds (one
// selection pass over the tuples each). Exported so callers and
// benchmarks agree on what "the stock pipeline" means.
const DefaultTightenRounds = 4

// PipelineOptions configures RunPipeline.
type PipelineOptions struct {
	// Ctx cancels the LP solves and the rounds cooperatively (nil = never).
	Ctx context.Context
	// Atoms are the branch's tuple-level rows (including any exclusion
	// cuts); ObjW/Konst the affine objective; Sense its direction.
	Atoms []*translate.LinearAtom
	ObjW  []float64
	Konst float64
	Sense lp.Sense
	// MaxStage caps how deep the pipeline runs (a Stage* constant;
	// empty = StageDescend, the full pipeline).
	MaxStage string
	// TightenRounds bounds the Lagrangian rounds (0 skips stage 2).
	TightenRounds int
	// DescendBudget is the extra singleton variables stage 3 may spend
	// (0 skips it).
	DescendBudget int
	// Incumbent, when HasIncumbent, is a feasible objective value: once
	// the certified gap against it reaches GapTarget, later stages are
	// skipped — the adaptive part of the pipeline.
	Incumbent    float64
	HasIncumbent bool
	// GapTarget is the relative gap at which tightening may stop early
	// (0 = keep tightening through every allowed stage).
	GapTarget float64
	// TupleLo/TupleHi bound a single tuple's multiplicity (pinned count
	// and admissible per-tuple cap); nil defaults to [0, +inf). Stage 3
	// uses them to build singleton columns.
	TupleLo func(int) float64
	TupleHi func(int) float64
}

// PipelineResult is RunPipeline's outcome: the tightest bound any stage
// proved, plus how far the pipeline went getting it.
type PipelineResult struct {
	Outcome
	// Stage is the deepest pipeline stage that ran.
	Stage string
	// Rounds counts the Lagrangian rounds completed (selection passes
	// over the tuples; no LP is solved in them).
	Rounds int
	// Vars is the variable count of the largest relaxation solved.
	Vars int
}

func (po *PipelineOptions) tupleLo(i int) float64 {
	if po.TupleLo == nil {
		return 0
	}
	return po.TupleLo(i)
}

func (po *PipelineOptions) tupleHi(i int) float64 {
	if po.TupleHi == nil {
		return lp.Inf
	}
	return po.TupleHi(i)
}

// withinTarget reports that the bound already certifies the incumbent
// within the caller's gap target, so later stages would buy nothing.
func (po *PipelineOptions) withinTarget(b float64) bool {
	if !po.HasIncumbent || po.GapTarget <= 0 {
		return false
	}
	return Interval{Found: po.Incumbent, Bound: b}.Gap() <= po.GapTarget
}

// tighter returns the tighter of two valid dual bounds for the sense:
// the smaller upper bound for a maximization, the larger lower bound
// for a minimization.
func tighter(sense lp.Sense, a, b float64) float64 {
	if sense == lp.Maximize {
		return math.Min(a, b)
	}
	return math.Max(a, b)
}

// SplitGroups refines a grouping into objective-sorted segments: a copy
// of each group's tuples is ordered best objective first for the sense
// (SortByObjective) and cut into contiguous chunks (Segment). It never
// mutates its input; maxVars caps the total group count, and a grouping
// Splits rejects is returned unchanged. The engine keeps each tree's
// orders and calls Segment on them itself; this is the one-off form, for
// callers that hold nothing to reuse.
func SplitGroups(groups []Group, objW []float64, sense lp.Sense, maxVars int, tupleLo, tupleHi func(int) float64) []Group {
	if !Splits(len(groups), maxVars) {
		return groups
	}
	ordered := make([]Group, len(groups))
	for i, g := range groups {
		ordered[i] = g
		ordered[i].Tuples = slices.Clone(g.Tuples)
		SortByObjective(ordered[i].Tuples, objW, sense)
	}
	return Segment(ordered, maxVars, tupleLo, tupleHi)
}

// SortByObjective stable-sorts tuples in place, best objective first for
// the sense; without an objective it leaves them as they are.
func SortByObjective(tuples []int, objW []float64, sense lp.Sense) {
	if len(objW) == 0 {
		return
	}
	slices.SortStableFunc(tuples, func(a, b int) int {
		if sense == lp.Maximize {
			a, b = b, a
		}
		return cmp.Compare(objW[a], objW[b])
	})
}

// segmentsPer is how many segments Segment cuts each of n groups into
// under maxVars: up to 32, and below 2 when it leaves them whole.
func segmentsPer(n, maxVars int) int {
	if n == 0 || maxVars <= n {
		return 0
	}
	return min(maxVars/n, 32)
}

// Splits reports whether Segment cuts a grouping of n groups under
// maxVars; when it does not, the grouping goes on as it is, and the order
// of each group's tuples is what a one-level descent's singleton columns
// follow.
func Splits(n, maxVars int) bool { return segmentsPer(n, maxVars) >= 2 }

// Segment cuts each group's tuples, in the order given, into contiguous
// chunks, one refined Group per chunk, with Lo/Hi summed from the
// per-tuple bounds (tupleLo/tupleHi; nil = [0, +inf)), dropping the
// tuples no package can carry. Given tuples ordered by SortByObjective the
// chunks are objective-sorted segments: a leaf's objective contribution
// is then bounded by a best-k prefix over its segments. A grouping Splits
// rejects is returned unchanged. Each chunk is a capacity-clipped window,
// of the group's own slice when the group drops nothing and of a filtered
// copy otherwise, so the chunks are as read-only as the input.
//
// The refinement is sound on both sides, whatever the order. Splitting:
// any feasible integral package's per-tuple multiplicities sum within
// each chunk's [ΣtupleLo, ΣtupleHi], so the package maps to a feasible
// point of the refined relaxation, and each chunk's min/max coefficient
// range is a subset of its parent group's. Dropping a tuple with tupleHi
// ≤ 0 is exact, not a relaxation: such a tuple (eliminated by the
// branch's MIN/MAX rows) has multiplicity 0 in every feasible package of
// the branch, so no feasible point is lost.
func Segment(groups []Group, maxVars int, tupleLo, tupleHi func(int) float64) []Group {
	segs := segmentsPer(len(groups), maxVars)
	if segs < 2 {
		return groups
	}
	if tupleLo == nil {
		tupleLo = func(int) float64 { return 0 }
	}
	if tupleHi == nil {
		tupleHi = func(int) float64 { return lp.Inf }
	}
	out := make([]Group, 0, len(groups)*segs)
	for _, g := range groups {
		var kept []int // nil until a tuple is dropped
		for i, t := range g.Tuples {
			switch {
			case tupleHi(t) > 0 || tupleLo(t) > 0:
				if kept != nil {
					kept = append(kept, t)
				}
			case kept == nil:
				kept = append(make([]int, 0, len(g.Tuples)), g.Tuples[:i]...)
			}
		}
		if kept == nil {
			kept = g.Tuples
		}
		if len(kept) == 0 {
			if g.Lo > 0 {
				// A pinned tuple inside a fully-eliminated group: keep the
				// contradiction visible so the caller reports infeasibility.
				out = append(out, Group{Tuples: g.Tuples, Lo: g.Lo, Hi: 0})
			}
			continue
		}
		parts := min(segs, len(kept))
		for s := 0; s < parts; s++ {
			a, b := s*len(kept)/parts, (s+1)*len(kept)/parts
			seg := Group{Tuples: kept[a:b:b]}
			for _, t := range seg.Tuples {
				seg.Lo += tupleLo(t)
				seg.Hi += tupleHi(t)
			}
			out = append(out, seg)
		}
	}
	return out
}

// RunPipeline runs the staged tightening pipeline over a grouped
// relaxation (typically Segment or SplitGroups output) and returns the tightest
// certified bound any stage proved. Stages only run while the result is
// not yet within GapTarget of the incumbent and MaxStage allows them;
// an uncertified or infeasible base solve short-circuits.
func RunPipeline(groups []Group, po PipelineOptions) PipelineResult {
	pl := pipelines.Get().(*pipeline)
	pl.po, pl.cancel, pl.solves, pl.boxed = &po, cancelOf(po.Ctx), 0, false
	pr := pl.run(groups)
	pl.po, pl.cancel = nil, nil
	pipelines.Put(pl) // a pass that panicked is simply not recycled
	return pr
}

// pipelines recycles the working state between calls: the simplex
// workspace of an 8,192-column relaxation and one float per tuple, and a
// server answers one banded query after another.
var pipelines = sync.Pool{New: func() any { return new(pipeline) }}

// pipeline is one RunPipeline call's working state: the LP workspace the
// groupings' solves share and the scratch the Lagrangian rounds reuse.
// Each grouping is relaxed and solved once — the only LPs of the pass;
// that solve's row prices seed the multipliers and its primal point
// scores the descent.
type pipeline struct {
	po     *PipelineOptions
	cancel func() bool
	ws     lp.Workspace
	solves int // LP solves performed

	boxed  bool      // room and forced hold this call's tuple box
	room   []float64 // per tuple: tupleHi − tupleLo; 0 when no group holds it
	forced []pick    // the tuples with tupleLo > 0, and their tupleLo units
	best   shortlist // the running round's candidates
}

// solveGrouped builds and solves the relaxation of one grouping.
func (pl *pipeline) solveGrouped(groups []Group) (*relaxation, *lp.Solution, Outcome) {
	po := pl.po
	r, err := newRelaxation(po.Atoms, po.ObjW, po.Sense, groups)
	if err != nil {
		return nil, nil, Outcome{}
	}
	pl.solves++
	sol := pl.ws.Solve(r.p, lp.Options{Cancel: pl.cancel})
	return r, sol, outcomeOf(sol, po.Sense, po.Konst)
}

func (pl *pipeline) run(groups []Group) PipelineResult {
	po := pl.po
	pr := PipelineResult{Stage: StageTreeLP, Vars: len(groups)}
	for _, g := range groups {
		if g.Lo > g.Hi {
			pr.Infeasible = true
			return pr
		}
	}
	base, sol, out := pl.solveGrouped(groups)
	pr.Outcome = out
	if !out.Certified {
		return pr
	}
	// infeasible folds a later stage's proof that the branch has no
	// feasible package into the result.
	infeasible := func() PipelineResult {
		pr.Outcome = Outcome{Infeasible: true, Iterations: pr.Iterations}
		return pr
	}
	maxRank := StageRank(po.MaxStage)
	if maxRank < 0 {
		maxRank = StageRank(StageDescend) // unknown or empty cap: run everything
	}
	if maxRank >= StageRank(StageTightened) {
		inf := pl.tighten(base, sol.Duals, &pr)
		if inf || pr.Rounds > 0 {
			pr.Stage = StageTightened
		}
		if inf {
			return infeasible()
		}
	}
	if maxRank < StageRank(StageDescend) || po.DescendBudget <= 0 || po.withinTarget(pr.Bound) {
		return pr
	}
	refined := descendWorst(base, sol.X, po)
	if len(refined) <= len(groups) {
		return pr
	}
	fine, sol2, out2 := pl.solveGrouped(refined)
	pr.Iterations += out2.Iterations
	if out2.Infeasible {
		// A refined relaxation still contains every feasible integral
		// package, so its infeasibility is the branch's.
		pr.Stage = StageDescend
		pr.Vars = len(refined)
		return infeasible()
	}
	if !out2.Certified {
		return pr
	}
	pr.Stage = StageDescend
	pr.Vars = len(refined)
	pr.Bound = tighter(po.Sense, pr.Bound, out2.Bound)
	if pl.tighten(fine, sol2.Duals, &pr) {
		return infeasible()
	}
	return pr
}

// descendWorst refines the groups contributing most looseness into
// singleton columns: score = LP activity × objective-coefficient spread
// (a group at zero or with uniform coefficients cannot be cheated), and
// the worst groups are split one level down — for a leaf group, its
// children are its tuples — until the extra-variable budget runs out.
func descendWorst(r *relaxation, x []float64, po *PipelineOptions) []Group {
	groups := r.groups
	if len(po.ObjW) == 0 {
		return groups
	}
	type scored struct {
		g     int
		score float64
	}
	var cand []scored
	for g, grp := range groups {
		if len(grp.Tuples) < 2 || g >= len(x) || x[g] <= 0 {
			continue
		}
		if spread := (r.objHi[g] - r.objLo[g]) * x[g]; spread > 0 {
			cand = append(cand, scored{g, spread})
		}
	}
	if len(cand) == 0 {
		return groups
	}
	sort.SliceStable(cand, func(i, j int) bool { return cand[i].score > cand[j].score })
	split := make(map[int]bool)
	budget := po.DescendBudget
	for _, c := range cand {
		extra := len(groups[c.g].Tuples) - 1
		if extra > budget {
			continue
		}
		split[c.g] = true
		budget -= extra
		if budget <= 0 {
			break
		}
	}
	if len(split) == 0 {
		return groups
	}
	out := make([]Group, 0, len(groups)+po.DescendBudget)
	for g, grp := range groups {
		if !split[g] {
			out = append(out, grp)
			continue
		}
		for _, t := range grp.Tuples {
			out = append(out, Group{Tuples: []int{t}, Lo: po.tupleLo(t), Hi: po.tupleHi(t)})
		}
	}
	return out
}

// dualRow is one priced constraint row of the Lagrangian: the atom's
// tuple coefficients and right-hand side, the multiplier's valid sign for
// the sense (+1: y ≥ 0, −1: y ≤ 0, 0: free, for equality rows), and the
// current multiplier.
type dualRow struct {
	w    []float64
	rhs  float64
	sign int
	y    float64
}

// clamp pulls the multiplier back into its valid sign range.
func (d *dualRow) clamp() {
	switch d.sign {
	case 1:
		d.y = math.Max(0, d.y)
	case -1:
		d.y = math.Min(0, d.y)
	}
}

// feasTol is the simplex's phase-1 tolerance: a cardinality band missed
// by no more than this is feasible to internal/lp too, so the selection
// and a grouping's LP agree on which branches are infeasible.
const feasTol = 1e-6

// tighten runs the subgradient Lagrangian rounds over one solved
// relaxation: fold the cardinality rows into a band on the package size,
// price every other row with a sign-correct multiplier started at the
// solve's own row price, and take a few subgradient steps. Every
// evaluated multiplier yields a valid bound, so each completed round is
// counted in pr and pr.Bound keeps the tightest. Reports whether the
// tuple box and the band alone prove the branch infeasible. A canceled
// round ends the search at once with what the finished rounds proved.
func (pl *pipeline) tighten(r *relaxation, prices []float64, pr *PipelineResult) (infeasible bool) {
	po := pl.po
	if len(po.ObjW) == 0 || len(r.groups) == 0 || po.TightenRounds <= 0 || po.withinTarget(pr.Bound) {
		return false
	}
	rows, cLo, cHi, ok := priceRows(po, r, prices)
	if !ok || len(rows) == 0 {
		return !ok
	}
	pl.box(r.groups)
	// dir: subgradient direction that improves the bound — minimize L(y)
	// for a maximization (upper bound shrinks), maximize it for a
	// minimization.
	dir := 1.0
	if po.Sense == lp.Minimize {
		dir = -1.0
	}
	step := 1.0
	act := make([]float64, len(rows))
	for t := 0; t < po.TightenRounds; t++ {
		L, status := pl.lagrangianEval(rows, cLo, cHi, act)
		switch status {
		case lp.StatusInfeasible:
			return true
		case lp.StatusIterLimit:
			return false
		case lp.StatusUnbounded:
			// This multiplier proves nothing; shrink toward zero and retry.
			for i := range rows {
				rows[i].y *= 0.25
			}
			step /= 2
			continue
		}
		pr.Rounds++
		pr.Bound = tighter(po.Sense, pr.Bound, Pad(L+po.Konst, po.Sense))
		if po.withinTarget(pr.Bound) {
			break
		}
		// Subgradient of L at y is (b − a·x̂) per priced row; step toward
		// the incumbent when known, by a relative fraction otherwise.
		norm := 0.0
		for i := range rows {
			g := rows[i].rhs - act[i]
			norm += g * g
		}
		if norm < 1e-12 {
			break
		}
		target := L * 0.95
		if po.HasIncumbent {
			target = po.Incumbent - po.Konst
		}
		s := step * math.Abs(L-target) / norm
		if s <= 0 {
			break
		}
		for i := range rows {
			g := rows[i].rhs - act[i]
			rows[i].y -= dir * s * g
			rows[i].clamp()
		}
		step *= 0.7
	}
	return false
}

// priceRows sorts the branch's atoms into the two kinds a round knows,
// reading the relaxation's envelopes instead of the tuples. An atom with
// one coefficient c on every group — on every tuple that can still carry
// multiplicity, which is not every tuple: a MIN/MAX elimination row is 0
// on all that Segment kept — is a cardinality row, c·Σmₜ op RHS, and
// folds into the band cLo ≤ Σmₜ ≤ cHi (c = 0 leaves the constant row
// 0 op RHS: true, or the branch is infeasible). Every other atom is
// priced: it gets a multiplier with the sign weak duality needs.
//
// Each multiplier starts at the relaxation's own price for its row,
// ∂bound/∂RHS as the grouping's simplex reports it (an equality atom's
// two rows move together, so their prices add). Subgradient descent from
// a cold y = 0 needs many rounds to find the right scale (the price of a
// calorie in units of objective, say); started at the LP's prices it
// converges in the few rounds the pipeline budgets. Any start is safe:
// every multiplier with valid signs yields a true bound. ok is false
// when the cardinality rows contradict each other.
func priceRows(po *PipelineOptions, r *relaxation, prices []float64) (rows []dualRow, cLo, cHi float64, ok bool) {
	cHi = lp.Inf
	for i, at := range po.Atoms {
		c := r.lo[i][0]
		differs := func(v float64) bool { return v != c }
		if slices.ContainsFunc(r.lo[i], differs) || slices.ContainsFunc(r.hi[i], differs) {
			d := dualRow{w: at.W, rhs: at.RHS, y: prices[r.row[i]]}
			switch at.Op {
			case lp.LE:
				d.sign = 1
			case lp.GE:
				d.sign = -1
			case lp.EQ:
				d.y += prices[r.row[i]+1]
			}
			if po.Sense == lp.Minimize {
				d.sign = -d.sign
			}
			d.clamp()
			rows = append(rows, d)
			continue
		}
		if c == 0 {
			if at.Op != lp.GE && at.RHS < -feasTol || at.Op != lp.LE && at.RHS > feasTol {
				return nil, 0, 0, false
			}
			continue
		}
		// Dividing by a negative c turns the row's ≤ into ≥ and back.
		if at.Op == lp.EQ || (at.Op == lp.LE) == (c > 0) {
			cHi = math.Min(cHi, at.RHS/c)
		}
		if at.Op == lp.EQ || (at.Op == lp.GE) == (c > 0) {
			cLo = math.Max(cLo, at.RHS/c)
		}
	}
	return rows, cLo, cHi, cLo <= cHi+feasTol
}

// box fills the per-tuple columns the rounds read, once per pass (a
// refined grouping covers the same tuples): room[t] = tupleHi − tupleLo
// for a tuple some group holds and 0 for one Segment dropped, and
// the few tuples whose tupleLo forces units into every package.
func (pl *pipeline) box(groups []Group) {
	if pl.boxed {
		return
	}
	pl.boxed = true
	pl.room = append(pl.room[:0], make([]float64, len(pl.po.ObjW))...)
	pl.forced = pl.forced[:0]
	for _, g := range groups {
		for _, t := range g.Tuples {
			lo := pl.po.tupleLo(t)
			pl.room[t] = math.Max(0, pl.po.tupleHi(t)-lo)
			if lo > 0 {
				pl.forced = append(pl.forced, pick{t: t, units: lo})
			}
		}
	}
}

// pick is some units of one tuple's multiplicity; v is what a unit is
// worth in the round's adjusted objective, signed so larger is better.
type pick struct {
	t        int
	v, units float64
}

// before orders picks best first. Ties go to the lower tuple index, so a
// round's selection is a function of its multipliers alone.
func (p pick) before(q pick) bool { return p.v > q.v || p.v == q.v && p.t < q.t }

// shortlist is a heap (container/heap) of the best picks offered so far,
// the worst on top, trimmed to the fewest that still cover keep units.
// Picks must be offered in tuple order: once the list is full, floor is
// the value a later tuple has to beat, a tie being lost to the earlier
// one.
type shortlist struct {
	s                  []pick
	keep, units, floor float64 // units = Σ s[i].units
}

func (h *shortlist) Len() int           { return len(h.s) }
func (h *shortlist) Less(i, j int) bool { return h.s[j].before(h.s[i]) }
func (h *shortlist) Swap(i, j int)      { h.s[i], h.s[j] = h.s[j], h.s[i] }
func (h *shortlist) Push(p any)         { h.s = append(h.s, p.(pick)) }
func (h *shortlist) Pop() any {
	last := h.s[len(h.s)-1]
	h.s = h.s[:len(h.s)-1]
	return last
}

// reset empties the list for a round that can use keep units — of picks
// worth more than nothing, or of any picks when the band needs filling.
func (h *shortlist) reset(keep float64, fill bool) {
	*h = shortlist{s: h.s[:0], keep: keep}
	switch {
	case keep <= 0:
		h.floor = math.Inf(1)
	case fill:
		h.floor = math.Inf(-1)
	}
}

// offer is the per-tuple test, small enough to inline; add does the work
// for the few picks that pass it.
func (h *shortlist) offer(p pick) {
	if p.v > h.floor {
		h.add(p)
	}
}

func (h *shortlist) add(p pick) {
	p.units = math.Min(p.units, h.keep)
	h.units += p.units
	heap.Push(h, p)
	for len(h.s) > 1 && h.units-h.s[0].units >= h.keep {
		h.units -= heap.Pop(h).(pick).units
	}
	if h.units >= h.keep {
		h.floor = h.s[0].v
	}
}

// lagrangianEval evaluates the Lagrangian at the rows' multipliers by
// the selection the file comment derives: charge the forced units, then
// the tuples best in the adjusted objective vₜ = cₜ − Σᵢ yᵢaᵢₜ while one
// still helps and the band cLo ≤ Σmₜ ≤ cHi has room, or its lower end
// still needs units. One pass in tuple order computes v and shortlists
// the candidates, polling the cancel hook every search.PollRows tuples.
//
// Returns L(y), a valid dual bound before the affine constant, with
// act[i] = Σₜ aᵢₜmₜ at the optimum (the subgradient input), under
// lp.StatusOptimal; StatusInfeasible when box and band do not meet,
// StatusUnbounded when an uncapped tuple helps under an open band, and
// StatusIterLimit when canceled.
func (pl *pipeline) lagrangianEval(rows []dualRow, cLo, cHi float64, act []float64) (float64, lp.Status) {
	objW := pl.po.ObjW
	sgn := 1.0
	if pl.po.Sense == lp.Minimize {
		sgn = -1
	}
	adjusted := func(t int) float64 {
		v := objW[t]
		for i := range rows {
			v -= rows[i].y * rows[i].w[t]
		}
		return v
	}
	L, used := 0.0, 0.0
	clear(act)
	for _, d := range rows {
		L += d.y * d.rhs
	}
	take := func(t int, v, units float64) {
		L += v * units
		used += units
		for i := range rows {
			act[i] += rows[i].w[t] * units
		}
	}
	for _, f := range pl.forced {
		take(f.t, adjusted(f.t), f.units)
	}
	// left is the room under the band's upper end, need what its lower
	// end still asks for. Under an open band every tuple that helps is
	// taken as it passes and the shortlist holds the least harmful of the
	// rest, in case the lower end needs them.
	left, need := cHi-used, math.Max(0, cLo-used)
	if left < -feasTol {
		return 0, lp.StatusInfeasible
	}
	left = math.Max(0, left)
	open := math.IsInf(left, 1)
	if open {
		pl.best.reset(need, true)
	} else {
		pl.best.reset(left, need > 0)
	}
	for t, room := range pl.room {
		if t%search.PollRows == 0 && pl.cancel != nil && pl.cancel() {
			return 0, lp.StatusIterLimit
		}
		if room == 0 {
			continue
		}
		v := adjusted(t)
		if open && sgn*v > 0 {
			if math.IsInf(room, 1) {
				return 0, lp.StatusUnbounded
			}
			take(t, v, room)
			continue
		}
		pl.best.offer(pick{t: t, v: sgn * v, units: room})
	}
	need = math.Max(0, cLo-used)
	sort.Sort(sort.Reverse(&pl.best)) // the heap's order is worst first
	for _, p := range pl.best.s {
		units := math.Min(p.units, left)
		if p.v <= 0 {
			units = math.Min(units, need)
		}
		if units <= 0 {
			break
		}
		take(p.t, sgn*p.v, units)
		left, need = left-units, need-units
	}
	if need > feasTol {
		return 0, lp.StatusInfeasible
	}
	return L, lp.StatusOptimal
}
