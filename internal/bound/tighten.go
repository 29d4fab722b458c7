package bound

// This file is the certificate: one branch's LP relaxation over its tuple
// columns, found by column generation and certified by weak duality.
//
// A restricted master LP runs over some of the branch's columns, every
// other column held at zero: a seed of the best columns by objective,
// every ⌈n/seedSpread⌉-th column, and every column a pin forces into
// every package. One pricing pass over every tuple, at the master's row
// prices clamped to their rows' signs (lp.Multiplier), computes each
// reduced cost
//
//	dⱼ = sgn·cⱼ − Σᵢ yᵢaᵢⱼ
//
// and with it the Lagrangian
//
//	L(y) = Σᵢ yᵢbᵢ + Σⱼ max(dⱼloⱼ, dⱼupⱼ)
//
// (lp.Lagrangian, rounding margin included), a true dual bound at any
// sign-correct y: a feasible package satisfies every row, so with valid
// signs the priced rows never count against it. The pricedPer most
// violated columns (dⱼ > 0, held at zero, ties to the lower index) then
// join the master, until none is violated — the master is then the LP
// over every column and L(y) its optimum — or a cap is reached, and the
// pass keeps the tightest L(y) it saw.
//
// COUNT rows, exclusion cuts and MIN/MAX eliminations are ordinary rows,
// pins and eliminations column bounds (the tuple box), so the same pass
// certifies any branch at any candidate count without reading a
// partition tree, and the pass is the same at any worker count: each
// round is serial and every tie goes by index.

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/lp"
	"repro/internal/search"
	"repro/internal/translate"
)

// StageRawLP names the one certificate every sketch bound reports: the
// exact LP relaxation over the raw candidates, the tightest LP bound.
// The planner declares its bound decision as it (plan.BoundRawLP), so
// EXPLAIN and Stats speak the same vocabulary by construction.
const StageRawLP = "raw-lp"

// The stages of the grouped relaxation and its Lagrangian rounds, and
// their round count, are never run, reported or read. The names stay only
// as the signature the benchmark's layer trace compiles against.
const (
	StageTreeLP          = "tree-lp"
	StageTightened       = "tree-lp+tighten"
	StageDescend         = "descend-1"
	DefaultTightenRounds = 4
)

// The pass's sizes, all counts: the seed's best columns by objective and
// its spread (every ⌈n/seedSpread⌉-th column), the most violated columns
// a round adds, and the caps on pricing rounds and on the columns pricing
// may bring into the master.
const (
	seedTop    = 1000
	seedSpread = 1000
	pricedPer  = 500
	// MaxRounds caps the pricing rounds of one pass.
	MaxRounds = 16
	// MaxColumns caps the master's columns that pricing admits. A master
	// that comes back infeasible grows past it, in index order, because
	// only the LP over every column may call a branch infeasible.
	MaxColumns = 8192
)

// PipelineOptions is one branch's relaxation: its rows, its objective and
// the box of each tuple's multiplicity.
type PipelineOptions struct {
	// Ctx cancels the pass cooperatively (nil = never).
	Ctx context.Context
	// Atoms are the branch's tuple-level rows (including any exclusion
	// cuts); ObjW/Konst the affine objective, one weight per tuple;
	// Sense its direction.
	Atoms []*translate.LinearAtom
	ObjW  []float64
	Konst float64
	Sense lp.Sense
	// The next three fields are never read. They stay only as the
	// signature the benchmark's layer trace compiles against.
	MaxStage      string
	TightenRounds int
	DescendBudget int
	// TupleLo/TupleHi bound a single tuple's multiplicity (pinned count
	// and admissible per-tuple cap); nil defaults to [0, +inf).
	TupleLo func(int) float64
	TupleHi func(int) float64
}

// PipelineResult is a pass's outcome: the tightest bound it proved, and
// how much it took.
type PipelineResult struct {
	Outcome
	// Rounds counts the pricing rounds: one master solve and one pass
	// over the tuples each.
	Rounds int
	// Columns is the master's size when the pass ended.
	Columns int
}

// Certify bounds one branch's LP relaxation over every tuple of
// po.ObjW: the tightest L(y) its column generation saw, padded by the
// rounding margin. It is certified unless the pass was canceled, the
// master's iterations ran out before any round, or the LP is unbounded;
// Infeasible reports the LP over every column infeasible. The error
// reports that the pass could not start (the bound.relax fault).
func Certify(po PipelineOptions) (PipelineResult, error) {
	if err := fault.Check("bound.relax"); err != nil {
		// The one site per pass that lets the chaos harness fail it;
		// callers degrade to an uncertified answer, never a failed query.
		return PipelineResult{}, err
	}
	ps := passes.Get().(*pass)
	ps.po, ps.poll, ps.canceled = &po, lifecycle.Poll(po.Ctx), false
	ps.sgn = 1
	if po.Sense == lp.Minimize {
		ps.sgn = -1
	}
	pr := ps.run()
	ps.po, ps.poll = nil, nil
	passes.Put(ps) // a pass that panicked is simply not recycled
	return pr, nil
}

// RunPipeline certifies the tuples that its groups hold, within po's
// tuple box; a tuple no group holds is held at zero, and the groups' own
// bounds are not read. The engine calls Certify; this form stays only as
// the signature the benchmark's layer trace compiles against.
func RunPipeline(groups []Group, po PipelineOptions) (PipelineResult, error) {
	held := make([]bool, len(po.ObjW))
	for _, g := range groups {
		for _, t := range g.Tuples {
			held[t] = true
		}
	}
	lo, hi := po.TupleLo, po.TupleHi
	po.TupleLo = func(j int) float64 {
		if !held[j] || lo == nil {
			return 0
		}
		return lo(j)
	}
	po.TupleHi = func(j int) float64 {
		switch {
		case !held[j]:
			return 0
		case hi == nil:
			return lp.Inf
		}
		return hi(j)
	}
	return Certify(po)
}

// SplitGroups returns its input unchanged. It stays only as the
// signature the benchmark's layer trace compiles against.
func SplitGroups(groups []Group, objW []float64, sense lp.Sense, maxVars int, tupleLo, tupleHi func(int) float64) []Group {
	return groups
}

// passes recycles the working state between calls: the simplex workspace
// of a master of a few thousand columns and its scratch, and a server
// answers one query after another.
var passes = sync.Pool{New: func() any { return new(pass) }}

// pass is one certificate's working state. Nothing in it is per tuple:
// the master's columns, its LP and the scratch a round reuses.
type pass struct {
	po       *PipelineOptions
	poll     func() bool
	canceled bool
	sgn      float64 // +1 maximizing, −1 minimizing: the pass works on max sgn·c

	cols   []int // the master's columns, ascending
	top    best  // the round's best candidates
	y      []float64
	priced []pricedRow // the rows of nonzero multiplier, during a pricing pass
	obj    []float64
	coefs  []lp.Coef
	p      lp.Problem
	ws     lp.Workspace
}

// stop polls the context, and remembers a cancellation.
func (ps *pass) stop() bool {
	if !ps.canceled && ps.poll != nil && ps.poll() {
		ps.canceled = true
	}
	return ps.canceled
}

// box is tuple j's multiplicity range.
func (ps *pass) box(j int) (lo, up float64) {
	lo, up = 0, lp.Inf
	if ps.po.TupleLo != nil {
		lo = ps.po.TupleLo(j)
	}
	if ps.po.TupleHi != nil {
		up = ps.po.TupleHi(j)
	}
	return lo, up
}

// run drives the rounds. L is tracked in the maximizing form.
func (ps *pass) run() PipelineResult {
	var pr PipelineResult
	if infeasible := ps.seed(); infeasible || ps.canceled {
		pr.Infeasible = infeasible
		return pr
	}
	tightest := math.Inf(1)
	for {
		sol := ps.solveMaster()
		pr.Iterations += sol.Iterations
		if sol.Status == lp.StatusInfeasible {
			// A master only grows, so this is before any round.
			if ps.grow() {
				continue
			}
			pr.Infeasible = !ps.canceled
			break
		}
		if sol.Status != lp.StatusOptimal {
			// Canceled, unbounded (a restriction of the LP is, so the LP
			// is) or out of iterations: what earlier rounds proved stands
			// unless the pass was canceled.
			break
		}
		pr.Rounds++
		for i, at := range ps.po.Atoms {
			ps.y[i] = lp.Multiplier(at.Op, ps.po.Sense, sol.Duals[i])
		}
		room := min(pricedPer, MaxColumns-len(ps.cols))
		if pr.Rounds == MaxRounds {
			room = 0
		}
		L, ok := ps.price(room)
		if !ok {
			break
		}
		tightest = min(tightest, L)
		if len(ps.top.s) == 0 {
			break
		}
		for _, c := range ps.top.s {
			ps.cols = append(ps.cols, c.j)
		}
		slices.Sort(ps.cols)
	}
	pr.Columns = len(ps.cols)
	if !ps.canceled && !math.IsInf(tightest, 1) {
		pr.Bound, pr.Certified = ps.sgn*tightest, true
	}
	return pr
}

// live reports whether a tuple can carry any multiplicity: a column fixed
// at zero adds nothing to a row, the objective or L(y).
func live(lo, up float64) bool { return lo > 0 || up > 0 }

// seed picks the first master: every column a pin forces, the seedTop
// best by objective and every ⌈n/seedSpread⌉-th column, ascending. It
// reports a tuple whose box is empty (a pin on an eliminated tuple),
// which makes the branch infeasible.
func (ps *pass) seed() (infeasible bool) {
	objW := ps.po.ObjW
	spread := max(1, (len(objW)+seedSpread-1)/seedSpread)
	ps.cols = ps.cols[:0]
	ps.y = append(ps.y[:0], make([]float64, len(ps.po.Atoms))...)
	ps.top.reset(seedTop)
	next := 0 // the next multiple of spread
	for j, c := range objW {
		if j%search.PollRows == 0 && ps.stop() {
			return false
		}
		spreadCol := j == next
		if spreadCol {
			next += spread
		}
		lo, up := ps.box(j)
		switch {
		case lo > up:
			return true
		case !live(lo, up):
			continue
		case lo > 0 || spreadCol:
			ps.cols = append(ps.cols, j)
		}
		ps.top.offer(j, ps.sgn*c)
	}
	for _, c := range ps.top.s {
		ps.cols = append(ps.cols, c.j)
	}
	slices.Sort(ps.cols)
	ps.cols = slices.Compact(ps.cols)
	return false
}

// grow adds, in index order, as many live columns outside an infeasible
// master as it holds already (at least pricedPer), and reports whether
// there were any.
func (ps *pass) grow() bool {
	want := max(len(ps.cols), pricedPer)
	add := 0
	k, n := 0, len(ps.cols)
	for j := 0; j < len(ps.po.ObjW) && add < want; j++ {
		if j%search.PollRows == 0 && ps.stop() {
			return false
		}
		for k < n && ps.cols[k] < j {
			k++
		}
		if k < n && ps.cols[k] == j {
			continue
		}
		if live(ps.box(j)) {
			ps.cols = append(ps.cols, j)
			add++
		}
	}
	slices.Sort(ps.cols)
	return add > 0
}

// solveMaster assembles the LP over the master's columns, every other
// column at zero, and solves it cold.
func (ps *pass) solveMaster() *lp.Solution {
	po, cols := ps.po, ps.cols
	ps.p.Reset(len(cols))
	ps.obj = ps.obj[:0]
	for k, j := range cols {
		lo, up := ps.box(j)
		_ = ps.p.SetBounds(k, lo, up) // seed rejected every empty box
		ps.obj = append(ps.obj, po.ObjW[j])
	}
	_ = ps.p.SetObjective(ps.obj, po.Sense)
	for _, at := range po.Atoms {
		ps.coefs = ps.coefs[:0]
		if len(at.W) > 0 {
			for k, j := range cols {
				if w := at.W[j]; w != 0 {
					ps.coefs = append(ps.coefs, lp.Coef{Var: k, Val: w})
				}
			}
		}
		_, _ = ps.p.AddConstraint(ps.coefs, at.Op, at.RHS) // the coefficients are finite
	}
	return ps.ws.Solve(&ps.p, lp.Options{Cancel: ps.stop})
}

// price is one pass over every tuple at multipliers ps.y: it returns
// L(y) in the maximizing form, rounding margin included, and leaves in
// ps.top the room most violated columns outside the master. ok is false
// when the pass was canceled.
func (ps *pass) price(room int) (L float64, ok bool) {
	po := ps.po
	var g lp.Lagrangian
	ps.priced = ps.priced[:0]
	for i, at := range po.Atoms {
		g.Row(ps.y[i], at.RHS)
		if ps.y[i] != 0 && len(at.W) > 0 {
			ps.priced = append(ps.priced, pricedRow{at.W, ps.y[i]})
		}
	}
	g.Row(1, ps.sgn*po.Konst)
	ps.top.reset(room)
	k, n := 0, len(ps.cols)
	for j, c := range po.ObjW {
		if j%search.PollRows == 0 && ps.stop() {
			return 0, false
		}
		lo, up := ps.box(j)
		if !live(lo, up) {
			continue
		}
		d := ps.sgn * c
		mag := math.Abs(d)
		for _, r := range ps.priced {
			t := r.y * r.w[j]
			d -= t
			mag += math.Abs(t)
		}
		g.Column(d, mag, lo, up)
		for k < n && ps.cols[k] < j {
			k++
		}
		if (k == n || ps.cols[k] != j) && d > 1e-9*max(1, mag) && up > lo {
			ps.top.offer(j, d)
		}
	}
	return g.Bound(), true
}

// pricedRow is a row's weights and its multiplier.
type pricedRow struct {
	w []float64
	y float64
}

// cand is one column offered to best, and what it is worth.
type cand struct {
	j int
	v float64
}

// better orders candidates: the larger value first, ties to the lower
// index, so a selection is a function of the values alone.
func (c cand) better(o cand) bool { return c.v > o.v || c.v == o.v && c.j < o.j }

// best keeps the k best candidates offered, as a heap with the worst on
// top. Candidates are offered in index order, so a tie with the worst
// kept loses to it: floor is the value a candidate has to beat.
type best struct {
	s     []cand
	k     int
	floor float64
}

func (b *best) reset(k int) {
	b.s, b.k, b.floor = b.s[:0], k, math.Inf(-1)
	if k <= 0 {
		b.floor = math.Inf(1)
	}
}

// offer is the per-column test, small enough to inline; add does the work
// for the few candidates that pass it.
func (b *best) offer(j int, v float64) {
	if v > b.floor {
		b.add(cand{j, v})
	}
}

// add keeps c, dropping the worst kept when the heap is full.
func (b *best) add(c cand) {
	if len(b.s) < b.k {
		b.s = append(b.s, c)
		for i := len(b.s) - 1; i > 0; {
			up := (i - 1) / 2
			if !b.s[up].better(b.s[i]) {
				break
			}
			b.s[up], b.s[i] = b.s[i], b.s[up]
			i = up
		}
	} else {
		b.s[0] = c
		for i := 0; ; {
			w := i
			if l := 2*i + 1; l < len(b.s) && b.s[w].better(b.s[l]) {
				w = l
			}
			if r := 2*i + 2; r < len(b.s) && b.s[w].better(b.s[r]) {
				w = r
			}
			if w == i {
				break
			}
			b.s[i], b.s[w] = b.s[w], b.s[i]
			i = w
		}
	}
	if len(b.s) == b.k {
		b.floor = b.s[0].v
	}
}
