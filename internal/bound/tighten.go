package bound

// This file is the tightening pipeline over the grouped relaxation:
// the machinery that turns the single coefficient-range envelope per
// partition leaf into a certificate tight enough to act on.
//
// Stage 1 — segmented columns (SplitGroups): each leaf group is split
// into contiguous segments of its objective-sorted tuple list, with
// per-tuple multiplicity caps summed per segment. A leaf's objective
// contribution is then bounded by a best-k prefix over its segments (a
// piecewise-linear column) instead of Hi × its single most optimistic
// coefficient, and every constraint row's coefficient range shrinks to
// the per-segment range.
//
// Stage 2 — Lagrangian tightening (part of RunPipeline): the rows the
// grouped LP leaves tight or violated — in practice the band (BETWEEN
// and =) rows whose [min,max] envelopes the relaxation exploits — are
// dualized with sign-correct multipliers. For any valid multiplier
// vector y the Lagrangian
//
//	L(y) = opt_{x ∈ X} [ (c − Σᵢ yᵢaᵢ)·x ] + Σᵢ yᵢbᵢ
//
// is a true dual bound (weak duality, with X the grouped relaxation of
// the remaining rows), because the adjusted objective c − Σ yᵢaᵢ is
// computed per tuple and only then extremized per group: the dualized
// rows can no longer be cheated by picking different tuples for the
// objective and for the row. A few subgradient rounds (one internal/lp
// solve each) search for a good y; every evaluated y yields a valid
// bound, so the best one is kept and an unconverged search loses
// nothing.
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
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/lp"
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

// Pipeline defaults, exported so callers and benchmarks agree on what
// "the stock pipeline" means.
const (
	// DefaultTightenRounds bounds the subgradient Lagrangian rounds (one
	// grouped LP solve each).
	DefaultTightenRounds = 4
	// maxDualRows bounds how many rows a tightening round dualizes;
	// beyond a handful the adjusted-objective scans dominate the solve.
	maxDualRows = 4
	// innerTopK is how many extreme-adjusted tuples per group become
	// singleton columns in each Lagrangian inner solve (see
	// innerSegments). The inner LP keeps almost no rows, so the extra
	// columns cost little even over thousands of groups.
	innerTopK = 4
)

// PipelineOptions configures RunPipeline.
type PipelineOptions struct {
	// Ctx cancels the LP solves cooperatively (nil = never).
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
	// Rounds counts the Lagrangian rounds executed (inner LP solves).
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

// SplitGroups refines a grouping into objective-sorted segments: each
// group's tuples are ordered best-objective-first for the sense and cut
// into contiguous chunks, one refined Group per chunk, with Lo/Hi
// summed from the per-tuple bounds (tupleLo/tupleHi; nil = [0, +inf)).
// maxVars caps the total group count; at or below it the grouping is
// returned unchanged.
//
// The refinement is sound on both sides. Splitting: any feasible
// integral package's per-tuple multiplicities sum within each chunk's
// [ΣtupleLo, ΣtupleHi], so the package maps to a feasible point of the
// refined relaxation, and each chunk's min/max coefficient range is a
// subset of its parent group's. Dropping a tuple with tupleHi ≤ 0 is
// exact, not a relaxation: such a tuple (eliminated by the branch's
// MIN/MAX rows) has multiplicity 0 in every feasible package of the
// branch, so no feasible point is lost.
func SplitGroups(groups []Group, objW []float64, sense lp.Sense, maxVars int, tupleLo, tupleHi func(int) float64) []Group {
	if len(groups) == 0 || maxVars <= len(groups) {
		return groups
	}
	segs := maxVars / len(groups)
	if segs > 32 {
		segs = 32
	}
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
		kept := make([]int, 0, len(g.Tuples))
		for _, t := range g.Tuples {
			if tupleHi(t) > 0 || tupleLo(t) > 0 {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			if g.Lo > 0 {
				// A pinned tuple inside a fully-eliminated group: keep the
				// contradiction visible so the caller reports infeasibility.
				out = append(out, Group{Tuples: g.Tuples, Lo: g.Lo, Hi: 0})
			}
			continue
		}
		if len(objW) > 0 {
			slices.SortStableFunc(kept, func(a, b int) int {
				if sense == lp.Maximize {
					a, b = b, a
				}
				return cmp.Compare(objW[a], objW[b])
			})
		}
		parts := segs
		if parts > len(kept) {
			parts = len(kept)
		}
		for s := 0; s < parts; s++ {
			a, b := s*len(kept)/parts, (s+1)*len(kept)/parts
			seg := Group{Tuples: append([]int(nil), kept[a:b]...)}
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
// relaxation (typically SplitGroups output) and returns the tightest
// certified bound any stage proved. Stages only run while the result is
// not yet within GapTarget of the incumbent and MaxStage allows them;
// an uncertified or infeasible base solve short-circuits.
func RunPipeline(groups []Group, po PipelineOptions) PipelineResult {
	pl := pipelines.Get().(*pipeline)
	pl.po, pl.cancel, pl.solves, pl.perTuple = &po, cancelOf(po.Ctx), 0, false
	pr := pl.run(groups)
	pl.po, pl.cancel = nil, nil
	pipelines.Put(pl) // a pass that panicked is simply not recycled
	return pr
}

// pipelines recycles the working state between calls: a pass over 50,000
// tuples sizes some 12 MB of scratch, and a server answers one banded
// query after another.
var pipelines = sync.Pool{New: func() any { return new(pipeline) }}

// pipeline is one RunPipeline call's working state: the LP workspace
// every solve shares and the scratch the Lagrangian rounds reuse. Each
// grouping is relaxed and solved once; that solve's row prices seed the
// multipliers and its primal point scores the descent.
type pipeline struct {
	po     *PipelineOptions
	cancel func() bool
	ws     lp.Workspace
	solves int // LP solves performed

	perTuple     bool       // tupLo, tupHi hold this call's tuple bounds
	tupLo, tupHi []float64  // per tuple: PipelineOptions.TupleLo/TupleHi
	adj          []float64  // per tuple: objective adjusted by the priced rows
	tuples       []int      // inner segments' tuple lists, back to back
	inner        []Group    // inner segments of the running round
	innerLP      lp.Problem // the running round's relaxation
	dense        []float64  // per inner segment: one row (or the objective)
	arg          []int      // per inner segment: the tuple attaining dense
	coefs        []lp.Coef
}

func (pl *pipeline) solve(p *lp.Problem) *lp.Solution {
	pl.solves++
	return pl.ws.Solve(p, lp.Options{Cancel: pl.cancel})
}

// solveGrouped builds and solves the relaxation of one grouping.
func (pl *pipeline) solveGrouped(groups []Group) (*relaxation, *lp.Solution, Outcome) {
	po := pl.po
	r, err := newRelaxation(po.Atoms, po.ObjW, po.Sense, groups)
	if err != nil {
		return nil, nil, Outcome{}
	}
	sol := pl.solve(r.p)
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
	if maxRank >= StageRank(StageTightened) && po.TightenRounds > 0 && !po.withinTarget(pr.Bound) {
		b, rounds, iters, inf := pl.tighten(base, sol.Duals)
		pr.Rounds += rounds
		pr.Iterations += iters
		if inf {
			pr.Stage = StageTightened
			return infeasible()
		}
		if rounds > 0 {
			pr.Stage = StageTightened
			pr.Bound = tighter(po.Sense, pr.Bound, b)
		}
	}
	if maxRank < StageRank(StageDescend) || po.DescendBudget <= 0 || po.withinTarget(pr.Bound) {
		return pr
	}
	refined := descendWorst(groups, sol.X, po)
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
	if po.TightenRounds > 0 && !po.withinTarget(pr.Bound) {
		b, rounds, iters, inf := pl.tighten(fine, sol2.Duals)
		pr.Rounds += rounds
		pr.Iterations += iters
		if inf {
			return infeasible()
		}
		if rounds > 0 {
			pr.Bound = tighter(po.Sense, pr.Bound, b)
		}
	}
	return pr
}

// descendWorst refines the groups contributing most looseness into
// singleton columns: score = LP activity × objective-coefficient spread
// (a group at zero or with uniform coefficients cannot be cheated), and
// the worst groups are split one level down — for a leaf group, its
// children are its tuples — until the extra-variable budget runs out.
func descendWorst(groups []Group, x []float64, po *PipelineOptions) []Group {
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
		lo := groupCoef(po.ObjW, grp.Tuples, false)
		hi := groupCoef(po.ObjW, grp.Tuples, true)
		if spread := (hi - lo) * x[g]; spread > 0 {
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

// dualRow is one dualized constraint row of the Lagrangian: the atom,
// the multiplier's valid sign for the sense (+1: y ≥ 0, −1: y ≤ 0, 0:
// free, for equality rows), and the current multiplier.
type dualRow struct {
	atom *translate.LinearAtom
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

// tighten runs the subgradient Lagrangian rounds over one solved
// relaxation: pick the rows whose envelope spread lets the grouped LP
// cheat, dualize them with sign-correct multipliers started at the
// solve's own row prices, and take a few subgradient steps, keeping the
// best (tightest) of the valid bounds every evaluated multiplier
// yields. Returns the best bound, the rounds executed, the simplex
// iterations spent, and whether an inner relaxation proved the branch
// infeasible.
func (pl *pipeline) tighten(r *relaxation, prices []float64) (best float64, rounds, iters int, infeasible bool) {
	po := pl.po
	if len(po.ObjW) == 0 {
		return 0, 0, 0, false
	}
	duals, inner := pickDualRows(po, r, prices)
	if len(duals) == 0 {
		return 0, 0, 0, false
	}
	if !pl.perTuple {
		n := len(po.ObjW)
		if cap(pl.adj) < n {
			pl.adj, pl.tupLo, pl.tupHi = make([]float64, n), make([]float64, n), make([]float64, n)
		}
		pl.adj, pl.tupLo, pl.tupHi = pl.adj[:n], pl.tupLo[:n], pl.tupHi[:n]
		for t := range pl.adj {
			pl.tupLo[t], pl.tupHi[t] = po.tupleLo(t), po.tupleHi(t)
		}
		pl.perTuple = true
	}
	// dir: subgradient direction that improves the bound — minimize L(y)
	// for a maximization (upper bound shrinks), maximize it for a
	// minimization.
	dir := 1.0
	if po.Sense == lp.Minimize {
		dir = -1.0
	}
	haveBest := false
	step := 1.0
	act := make([]float64, len(duals))
	for t := 0; t < po.TightenRounds; t++ {
		L, its, status := pl.lagrangianEval(r.groups, inner, duals, act)
		iters += its
		if status == lp.StatusInfeasible {
			return 0, rounds, iters, true
		}
		if status != lp.StatusOptimal {
			// An unbounded or interrupted inner solve proves nothing for
			// this multiplier; shrink toward zero and retry.
			for i := range duals {
				duals[i].y *= 0.25
			}
			step /= 2
			continue
		}
		rounds++
		b := Pad(L+po.Konst, po.Sense)
		if !haveBest || tighter(po.Sense, best, b) == b {
			best, haveBest = b, true
		}
		if po.withinTarget(best) {
			break
		}
		// Subgradient of L at y is (b − a·x̂) per dual row; step toward
		// the incumbent when known, by a relative fraction otherwise.
		norm := 0.0
		for i := range duals {
			g := duals[i].atom.RHS - act[i]
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
		for i := range duals {
			g := duals[i].atom.RHS - act[i]
			duals[i].y -= dir * s * g
			duals[i].clamp()
		}
		step *= 0.7
	}
	return best, rounds, iters, false
}

// pickDualRows selects up to maxDualRows atoms worth dualizing — the
// ones whose per-group coefficient spread gives the grouped relaxation
// room to cheat, band (equality) rows first — and returns them with
// their valid multiplier signs plus the remaining (inner) atoms.
//
// Each multiplier starts at the relaxation's own price for its row,
// ∂bound/∂RHS as the base solve's simplex reports it (an equality
// atom's two rows move together, so their prices add). Subgradient
// descent from a cold y = 0 needs many rounds to find the right scale
// (the price of a calorie in units of objective, say); started at the
// LP's prices it converges in the few rounds the pipeline budgets. Any
// start is safe: every multiplier with valid signs yields a true bound.
func pickDualRows(po *PipelineOptions, r *relaxation, prices []float64) ([]dualRow, []*translate.LinearAtom) {
	type scored struct {
		idx    int
		spread float64
	}
	var cand []scored
	for i, at := range po.Atoms {
		spread := 0.0
		for g, lo := range r.lo[i] {
			if d := r.hi[i][g] - lo; d > spread {
				spread = d
			}
		}
		if spread <= 0 {
			continue
		}
		if at.Op == lp.EQ {
			spread *= 4 // band rows are where the envelope bound leaks most
		}
		cand = append(cand, scored{i, spread})
	}
	if len(cand) == 0 {
		return nil, nil
	}
	sort.SliceStable(cand, func(a, b int) bool { return cand[a].spread > cand[b].spread })
	if len(cand) > maxDualRows {
		cand = cand[:maxDualRows]
	}
	take := make(map[int]bool, len(cand))
	var duals []dualRow
	for _, c := range cand {
		at := po.Atoms[c.idx]
		d := dualRow{atom: at, y: prices[r.row[c.idx]]}
		switch at.Op {
		case lp.LE:
			d.sign = 1
		case lp.GE:
			d.sign = -1
		case lp.EQ:
			d.y += prices[r.row[c.idx]+1]
		}
		if po.Sense == lp.Minimize {
			d.sign = -d.sign
		}
		d.clamp()
		duals = append(duals, d)
		take[c.idx] = true
	}
	inner := make([]*translate.LinearAtom, 0, len(po.Atoms)-len(duals))
	for i, at := range po.Atoms {
		if !take[i] {
			inner = append(inner, at)
		}
	}
	return duals, inner
}

// innerSegments refines the grouping for one Lagrangian inner solve
// around the round's adjusted objective: each group's innerTopK most
// extreme-adjusted tuples become singleton columns (so their per-tuple
// multiplicity caps bind), the rest stay one residual column. With the
// dualized rows priced into the objective, the inner problem is mostly
// cardinality-driven, and its optimum wants exactly those extreme
// tuples — left inside a wide group, the relaxation could take the
// whole group's capacity at the single best tuple's adjusted value.
// The refinement is a pure sound split (same argument as SplitGroups):
// every feasible package maps onto the refined columns within their
// [Σ tupleLo, Σ tupleHi] bounds. The segments live in pl.inner and
// index into pl.tuples until the next call.
func (pl *pipeline) innerSegments(groups []Group, wantMax bool) []Group {
	adj := pl.adj
	total := 0
	for _, g := range groups {
		total += len(g.Tuples)
	}
	if cap(pl.tuples) < total {
		pl.tuples = make([]int, total)
	}
	if pl.inner == nil {
		pl.inner = make([]Group, 0, len(groups)*(innerTopK+1))
	}
	out := pl.inner[:0]
	single := func(ts []int) Group {
		return Group{Tuples: ts, Lo: pl.tupLo[ts[0]], Hi: pl.tupHi[ts[0]]}
	}
	next := 0
	for _, g := range groups {
		ts := pl.tuples[next : next+len(g.Tuples) : next+len(g.Tuples)]
		next += len(g.Tuples)
		copy(ts, g.Tuples)
		if len(ts) <= innerTopK+1 {
			for i := range ts {
				out = append(out, single(ts[i:i+1]))
			}
			continue
		}
		// Partial selection: innerTopK passes, each pulling the next
		// extreme tuple to the front.
		for k := 0; k < innerTopK; k++ {
			best := k
			for j := k + 1; j < len(ts); j++ {
				if wantMax && adj[ts[j]] > adj[ts[best]] || !wantMax && adj[ts[j]] < adj[ts[best]] {
					best = j
				}
			}
			ts[k], ts[best] = ts[best], ts[k]
			out = append(out, single(ts[k:k+1]))
		}
		rest := Group{Tuples: ts[innerTopK:]}
		for _, t := range rest.Tuples {
			rest.Lo += pl.tupLo[t]
			rest.Hi += pl.tupHi[t]
		}
		out = append(out, rest)
	}
	pl.inner = out
	return out
}

// lagrangianEval solves one inner relaxation: the grouped LP over the
// non-dualized rows with the per-tuple adjusted objective c − Σ yᵢaᵢ
// extremized per group (the groups first refined by innerSegments so
// the extreme tuples' own caps bind). Returns the Lagrangian value
// L(y) (a valid dual bound before the affine constant), the simplex
// iterations and the solve status; act receives the dualized rows'
// activities at the inner optimum's implicit tuple choice (the
// subgradient input).
func (pl *pipeline) lagrangianEval(groups []Group, inner []*translate.LinearAtom, duals []dualRow, act []float64) (L float64, iters int, status lp.Status) {
	po, adj := pl.po, pl.adj
	copy(adj, po.ObjW)
	konst := 0.0
	for _, d := range duals {
		if d.y == 0 {
			continue
		}
		for t, w := range d.atom.W[:min(len(adj), len(d.atom.W))] {
			adj[t] -= d.y * w
		}
		konst += d.y * d.atom.RHS
	}
	wantMax := po.Sense == lp.Maximize
	groups = pl.innerSegments(groups, wantMax)
	if cap(pl.dense) < len(groups) {
		pl.dense = make([]float64, len(groups))
		pl.arg = make([]int, len(groups))
		pl.coefs = make([]lp.Coef, 0, len(groups))
	}
	dense, arg := pl.dense[:len(groups)], pl.arg[:len(groups)]
	p := &pl.innerLP
	p.Reset(len(groups))
	for g, grp := range groups {
		if err := p.SetBounds(g, grp.Lo, grp.Hi); err != nil {
			return 0, 0, lp.StatusIterLimit
		}
		dense[g], arg[g] = extTuple(adj, grp.Tuples, wantMax)
	}
	if err := p.SetObjective(dense, po.Sense); err != nil {
		return 0, 0, lp.StatusIterLimit
	}
	for _, at := range inner {
		for _, op := range [...]lp.Op{lp.LE, lp.GE} {
			if at.Op != op && at.Op != lp.EQ {
				continue
			}
			for g, grp := range groups {
				dense[g] = groupCoef(at.W, grp.Tuples, op == lp.GE)
			}
			addRow(p, pl.coefs, dense, op, at.RHS)
		}
	}
	sol := pl.solve(p)
	if sol.Status != lp.StatusOptimal {
		return 0, sol.Iterations, sol.Status
	}
	for i, d := range duals {
		a := 0.0
		for g, x := range sol.X {
			if x == 0 || arg[g] < 0 {
				continue
			}
			a += d.atom.W[arg[g]] * x
		}
		act[i] = a
	}
	return sol.Objective + konst, sol.Iterations, sol.Status
}

// extTuple returns the extreme value of a dense weight vector over a
// group's tuples together with the tuple attaining it (-1 for an empty
// group).
func extTuple(w []float64, tuples []int, wantMax bool) (float64, int) {
	if len(tuples) == 0 {
		return 0, -1
	}
	best, arg := w[tuples[0]], tuples[0]
	for _, t := range tuples[1:] {
		v := w[t]
		if wantMax && v > best || !wantMax && v < best {
			best, arg = v, t
		}
	}
	return best, arg
}
