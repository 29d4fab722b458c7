// Package milp implements a mixed-integer linear program solver:
// best-first branch-and-bound over the bounded-variable simplex in
// internal/lp, with most-fractional branching, a rounding primal
// heuristic, and node/time limits. PackageBuilder's translation layer
// (internal/translate) compiles PaQL package queries into these MILPs;
// integer variables are tuple multiplicities, so branching tightens
// variable bounds and never adds rows. A search's root relaxation is
// solved cold; every other node restarts from its parent's optimal basis
// with the dual simplex (lp.Workspace.SolveFrom).
//
// A problem of at least 200 columns, every one of them integer or
// pinned (lo = up) and every bound finite, opens with an LP-first root,
// the Dual Reducer of Mai et al. (arXiv 2307.02860) plus reduced-cost
// fixing:
//
//  1. the root relaxation is solved and every column priced at its
//     duals, dⱼ = cⱼ − yᵀAⱼ, each dual clamped to the sign its row
//     allows;
//  2. the search runs over S, the LP support and the 100 columns of
//     smallest |dⱼ| (ties to the lower index), compacted into a problem
//     of its own; every other column is held at the bound dⱼ prefers;
//  3. against the better of that incumbent and Options.InitialIncumbent,
//     L(y) = Σyᵢbᵢ + Σⱼ max(dⱼloⱼ, dⱼupⱼ) fixes away every column value
//     whose best case falls short of it by more than a rounding margin
//     of γ·Σ|terms| (Neumaier and Shcherbina 2004); a REPEAT column's
//     range narrows;
//  4. when every column fixing leaves free lies in S and the search
//     over S finished, the incumbent is proven optimal. Otherwise the
//     free columns are searched, compacted and seeded with the
//     incumbent, and the reported bound is clamped to it. When S has no
//     incumbent, the plain search carries on from the root.
//
// Nodes, simplex iterations and MaxNodes count across every phase;
// the context and the deadline act through the search loop's own
// checks; a node whose relaxation stops short leaves the solve unproven.
package milp

import (
	"cmp"
	"container/heap"
	"context"
	"math"
	"slices"
	"time"

	"repro/internal/lifecycle"
	"repro/internal/lp"
)

// Problem couples an LP with integrality flags.
type Problem struct {
	LP      *lp.Problem
	Integer []bool // len == LP.NumVars(); true = integrality required
}

// NewProblem wraps an LP; integrality defaults to false per variable.
func NewProblem(p *lp.Problem) *Problem {
	return &Problem{LP: p, Integer: make([]bool, p.NumVars())}
}

// SetInteger marks a variable as integer.
func (p *Problem) SetInteger(j int) { p.Integer[j] = true }

// Status reports the solve outcome.
type Status int

const (
	// StatusOptimal: proven optimal integer solution.
	StatusOptimal Status = iota
	// StatusInfeasible: no integer-feasible point exists.
	StatusInfeasible
	// StatusUnbounded: the relaxation is unbounded.
	StatusUnbounded
	// StatusFeasible: limits hit; best incumbent returned without proof.
	StatusFeasible
	// StatusLimit: limits hit with no incumbent found.
	StatusLimit
)

// String names the status as logs and test failures print it:
// "optimal", "infeasible", "unbounded", "feasible(limit)" (an incumbent
// without a proof) or "limit" (no incumbent).
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusFeasible:
		return "feasible(limit)"
	case StatusLimit:
		return "limit"
	}
	return "unknown"
}

// intTol is the integrality tolerance: a value within it of an integer
// counts as integral.
const intTol = 1e-6

// Options tunes the search.
type Options struct {
	MaxNodes int // 0 = default (200000)
	// Deadline, when non-zero, stops the search before any node starts
	// after it; callers solving under one budget pass each solve the
	// same instant.
	Deadline time.Time
	// InitialIncumbent, when non-nil, seeds the search with a known
	// integer-feasible point (e.g. from local search), enabling pruning
	// from the first node.
	InitialIncumbent []float64
	// Ctx, when non-nil, cancels the search cooperatively: it is
	// checked before every branch-and-bound node and polled inside each
	// node's LP relaxation, so a cancelled solve returns within one
	// simplex iteration. The solution's Canceled flag records that the
	// stop came from the context rather than a node or time limit.
	Ctx context.Context
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Bound     float64 // best proven dual bound (in the problem's sense)
	Nodes     int
	LPIters   int
	Canceled  bool // the search stopped because Options.Ctx was done
}

// node is one open subproblem: its box and its parent's relaxation.
// A node with a basis re-solves from it with the dual simplex (the box
// differs from the parent's in one bound); the roots have none.
type node struct {
	lo, up []float64 // bounds override (full copies)
	bound  float64   // parent LP bound (priority)
	basis  *lp.Basis // the parent's optimal basis, shared by both children
}

type nodeQueue struct {
	items []*node
	max   bool // true for maximize problems: higher bound first
}

func (q *nodeQueue) Len() int { return len(q.items) }
func (q *nodeQueue) Less(i, j int) bool {
	if q.max {
		return q.items[i].bound > q.items[j].bound
	}
	return q.items[i].bound < q.items[j].bound
}
func (q *nodeQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *nodeQueue) Push(x interface{}) { q.items = append(q.items, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	q.items = old[:n-1]
	return it
}

// Solve runs branch-and-bound. A problem the LP-first root admits (see
// the package comment) opens with it; every other problem, and any the
// root cannot settle, is searched plainly.
func Solve(p *Problem, opts ...Options) *Solution {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 200000
	}
	var ws lp.Workspace // one working matrix for every node's relaxation
	return newSearch(p, opt, &ws).run(true)
}

// search is one branch-and-bound over p: the incumbent, the counters,
// and the workspace every relaxation it solves is loaded into. The
// restricted searches the root opens share the workspace and add their
// counts to sol.
type search struct {
	p        *Problem
	opt      Options // MaxNodes is the budget left, and may be ≤ 0
	ws       *lp.Workspace
	maximize bool
	rowTol   float64
	cancel   func() bool
	sol      *Solution

	incumbent []float64
	incObj    float64
	have      bool
}

func newSearch(p *Problem, opt Options, ws *lp.Workspace) *search {
	s := &search{
		p: p, opt: opt, ws: ws,
		maximize: p.LP.Sense() == lp.Maximize,
		// One poll for the node loop and every node relaxation's simplex.
		cancel: lifecycle.Poll(opt.Ctx),
		sol:    &Solution{Status: StatusLimit},
	}
	// Rows over integer variables are tested exactly: the engine's final
	// validator compares aggregates without a tolerance, so a sum one
	// rounding over a budget must not become an incumbent. With a
	// continuous variable free to move the simplex's own arithmetic is
	// all there is, and its tolerance applies.
	for j, isInt := range p.Integer {
		if lo, up := p.LP.Bounds(j); !isInt && lo < up {
			s.rowTol = 1e-6
			break
		}
	}
	if x := opt.InitialIncumbent; len(x) == p.LP.NumVars() && mostFractional(p, x, intTol) == -1 {
		s.accept(snapped(p, x))
	}
	return s
}

func (s *search) better(a, b float64) bool {
	if s.maximize {
		return a > b+1e-9
	}
	return a < b-1e-9
}

// accept takes x, whose integer variables are exact integers, as the
// incumbent if it satisfies every row and improves on the current one.
// It reports whether x was feasible; a point that is not is never an
// incumbent.
func (s *search) accept(x []float64) bool {
	if !s.p.LP.Feasible(x, s.rowTol) {
		return false
	}
	obj := objective(s.p.LP, x)
	if !s.have || s.better(obj, s.incObj) {
		s.incumbent, s.incObj, s.have = x, obj, true
	}
	return true
}

// run searches best-first from the root; with root set, a problem the
// LP-first root admits opens with it.
func (s *search) run(root bool) *Solution {
	p, opt, sol := s.p, s.opt, s.sol
	n := p.LP.NumVars()
	rootLo := make([]float64, n)
	rootUp := make([]float64, n)
	for j := 0; j < n; j++ {
		rootLo[j], rootUp[j] = p.LP.Bounds(j)
		// Integer variables get integral bounds up front.
		if p.Integer[j] {
			rootLo[j] = math.Ceil(rootLo[j] - intTol)
			if !math.IsInf(rootUp[j], 1) {
				rootUp[j] = math.Floor(rootUp[j] + intTol)
			}
			if rootLo[j] > rootUp[j] {
				sol.Status = StatusInfeasible
				return sol
			}
		}
	}
	root = root && rootAdmits(p, rootLo, rootUp)
	q := &nodeQueue{max: s.maximize}
	heap.Init(q)
	heap.Push(q, &node{lo: rootLo, up: rootUp, bound: infFor(s.maximize)})

	work := p.LP.Clone()
	bestBound := infFor(s.maximize)
	firstNode := true
	// A node whose relaxation stopped short, cancelled or not, leaves its
	// part of the tree unsearched: the solve proves nothing, and that
	// node's parent bound stays in the reported one.
	dropped, lost := false, 0.0

	for q.Len() > 0 {
		if s.cancel != nil && s.cancel() {
			sol.Canceled = true
			break
		}
		nd := heap.Pop(q).(*node)
		// Bound-based pruning against the incumbent, before the budget
		// is read: a search whose open nodes are all dominated is done.
		if s.have && !s.better(nd.bound, s.incObj) && !firstNode {
			continue
		}
		if sol.Nodes >= opt.MaxNodes || !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) {
			heap.Push(q, nd)
			break
		}
		sol.Nodes++
		for j := 0; j < n; j++ {
			if err := work.SetBounds(j, nd.lo[j], nd.up[j]); err != nil {
				// Empty range: infeasible node.
				goto nextNode
			}
		}
		{
			res := s.ws.SolveFrom(work, nd.basis, lp.Options{Cancel: s.cancel})
			sol.LPIters += res.Iterations
			switch res.Status {
			case lp.StatusInfeasible:
				goto nextNode
			case lp.StatusUnbounded:
				if firstNode {
					sol.Status = StatusUnbounded
					return sol
				}
				goto nextNode
			case lp.StatusIterLimit:
				if !dropped || s.better(nd.bound, lost) {
					lost = nd.bound
				}
				dropped = true
				goto nextNode
			}
			// The children's restart, taken before anything else loads
			// the workspace: the LP-first root searches on it.
			var basis *lp.Basis
			if firstNode {
				bestBound = res.Objective
				firstNode = false
				if root {
					basis = s.ws.Basis()
					if out := s.lpFirst(res, rootLo, rootUp); out != nil {
						return out
					}
				}
			}
			if s.have && !s.better(res.Objective, s.incObj) {
				goto nextNode // dominated
			}
			// Branch on the most fractional variable: down to ⌊v⌋, up to ⌈v⌉.
			frac := mostFractional(p, res.X, intTol)
			if frac >= 0 {
				// Rounding heuristic: snap to nearest in-bounds integers.
				s.accept(roundCandidate(p, res.X, nd.lo, nd.up, intTol))
			} else {
				if s.accept(snapped(p, res.X)) {
					goto nextNode
				}
				// Integral within tolerance, yet its exact image breaks a
				// row: a fraction below the tolerance was holding the row
				// up, or a sum landed one rounding over its budget. The
				// point is no incumbent, but the rest of the node may hold
				// one: branch on what fraction rises above simplex noise,
				// failing that split the box at the point itself.
				frac = mostFractional(p, res.X, noiseTol)
			}
			var down, up float64 // the children's new bounds on frac
			if frac >= 0 {
				down, up = math.Floor(res.X[frac]), math.Ceil(res.X[frac])
			} else if frac, down, up = splitAt(p, nd, res.X); frac == -1 {
				goto nextNode // the box is one point, and it breaks a row
			}
			if basis == nil {
				basis = s.ws.Basis()
			}
			left := &node{lo: append([]float64(nil), nd.lo...), up: append([]float64(nil), nd.up...), bound: res.Objective, basis: basis}
			left.up[frac] = down
			right := &node{lo: append([]float64(nil), nd.lo...), up: append([]float64(nil), nd.up...), bound: res.Objective, basis: basis}
			right.lo[frac] = up
			if left.lo[frac] <= left.up[frac] {
				heap.Push(q, left)
			}
			if right.lo[frac] <= right.up[frac] {
				heap.Push(q, right)
			}
		}
	nextNode:
	}
	// With open nodes remaining, the best open node's parent bound is
	// the tightest proven dual bound (the heap root, by construction);
	// a dropped node's parent bound joins it.
	if q.Len() > 0 {
		bestBound = q.items[0].bound
	}
	if dropped && (q.Len() == 0 || s.better(lost, bestBound)) {
		bestBound = lost
	}
	// The tree is searched to its end only when no node is left open and
	// none was dropped; a cancelled search proves nothing either.
	proven := q.Len() == 0 && !dropped && !sol.Canceled
	switch {
	case proven && s.have:
		return s.result(StatusOptimal, s.incObj)
	case proven:
		sol.Status = StatusInfeasible
		return sol
	case s.have:
		return s.result(StatusFeasible, bestBound)
	}
	sol.Status, sol.Bound = StatusLimit, bestBound
	return sol
}

// result reports the incumbent under status and bound.
func (s *search) result(status Status, bound float64) *Solution {
	s.sol.Status, s.sol.Bound = status, bound
	s.sol.X, s.sol.Objective = s.incumbent, s.incObj
	return s.sol
}

// The LP-first root's sizes: the restricted search takes the LP support
// and the reducedK columns priced closest to entering it, and a problem
// pays for the root's extra work from 2·reducedK columns up.
const (
	reducedK     = 100
	lpFirstAfter = 2 * reducedK
)

// rootAdmits reports whether the LP-first root applies: enough columns,
// every bound finite, and every column integer or pinned.
func rootAdmits(p *Problem, lo, up []float64) bool {
	if len(lo) < lpFirstAfter {
		return false
	}
	for j, isInt := range p.Integer {
		if math.IsInf(up[j], 1) || !isInt && lo[j] < up[j] {
			return false
		}
	}
	return true
}

// lpFirst opens the search from the root relaxation res over the box
// [lo, up]. It prices every column at the root's duals, searches the
// columns the LP uses or prices closest, then fixes every column whose
// best case cannot beat the incumbent. When what fixing leaves lies
// inside the restricted search's proof, the incumbent is optimal;
// otherwise the columns it leaves are searched, seeded with the
// incumbent. It returns nil when the restricted search finds no
// incumbent, and the plain search carries on from res.
func (s *search) lpFirst(res *lp.Solution, lo, up []float64) *Solution {
	p := s.p.LP
	n, m := p.NumVars(), p.NumRows()
	// Work in the maximising sense: sgn·c is maximised.
	sgn := 1.0
	if !s.maximize {
		sgn = -1
	}
	// Each row price clamped to the sign its row allows, so that L(y)
	// below is a valid bound whatever the simplex's last bits say.
	y := make([]float64, m)
	for i := range y {
		y[i] = sgn * res.Duals[i]
		switch p.Row(i).Op {
		case lp.LE:
			y[i] = max(y[i], 0)
		case lp.GE:
			y[i] = min(y[i], 0)
		}
	}
	// dⱼ = sgn·cⱼ − yᵀAⱼ, and the magnitude its rounding scales with.
	d := make([]float64, n)
	mag := make([]float64, n)
	for j := range d {
		c := sgn * p.ObjectiveCoef(j)
		d[j], mag[j] = c, math.Abs(c)
	}
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		for _, c := range p.Row(i).Coefs {
			t := yi * c.Val
			d[c.Var] -= t
			mag[c.Var] += math.Abs(t)
		}
	}

	// S is the LP support (every unpinned column the root puts off zero,
	// or off the bound it would be held at) and the reducedK other
	// unpinned columns of smallest |dⱼ|, ties to the lower index. Every
	// other column is held at the bound its reduced cost prefers.
	hold := make([]float64, n)
	inS := make([]bool, n)
	var pool []int
	for j := range hold {
		hold[j] = lo[j]
		if d[j] > 0 {
			hold[j] = up[j]
		}
		switch x := res.X[j]; {
		case lo[j] == up[j]:
		case math.Abs(x) > intTol || math.Abs(x-hold[j]) > intTol:
			inS[j] = true
		default:
			pool = append(pool, j)
		}
	}
	slices.SortStableFunc(pool, func(a, b int) int { return cmp.Compare(math.Abs(d[a]), math.Abs(d[b])) })
	for _, j := range pool[:min(reducedK, len(pool))] {
		inS[j] = true
	}
	sub, x := s.child(restrict(s.p, inS, lo, up, hold), nil)
	if x == nil || !s.accept(x) {
		return nil
	}

	// Fix against the incumbent with L(y) = Σyᵢbᵢ + Σⱼ max(dⱼloⱼ, dⱼupⱼ):
	// a column whose value v makes L(y) − max(dⱼloⱼ, dⱼupⱼ) + dⱼv fall
	// short of the incumbent cannot hold v in a better package. The
	// margin covers the rounding of L(y), of each dⱼ and of the
	// incumbent's objective: γ·Σ|terms| (Neumaier and Shcherbina 2004).
	L, terms := 0.0, 0.0
	for i, yi := range y {
		t := yi * p.Row(i).RHS
		L += t
		terms += math.Abs(t)
	}
	for j, dj := range d {
		best := max(dj*lo[j], dj*up[j])
		L += best
		terms += math.Abs(best) + mag[j]*max(math.Abs(lo[j]), math.Abs(up[j]))
	}
	for j, xj := range s.incumbent {
		terms += math.Abs(p.ObjectiveCoef(j) * xj)
	}
	gap := max(0, L-sgn*s.incObj+2*gamma(n+m+2)*terms)
	fixLo, fixUp := slices.Clone(lo), slices.Clone(up)
	proven := sub.Status == StatusOptimal && !s.sol.Canceled
	free := make([]bool, n)
	for j, dj := range d {
		switch {
		case lo[j] == up[j]:
		case dj > 0:
			fixLo[j] = max(lo[j], math.Ceil(up[j]-gap/dj-intTol))
		case dj < 0:
			fixUp[j] = min(up[j], math.Floor(lo[j]-gap/dj+intTol))
		}
		if free[j] = fixLo[j] < fixUp[j]; free[j] && !inS[j] {
			proven = false
		}
	}
	if proven {
		return s.result(StatusOptimal, s.incObj)
	}

	// Search what fixing left, the incumbent as its seed.
	r := restrict(s.p, free, fixLo, fixUp, fixLo)
	seed := make([]float64, len(r.cols))
	for k, j := range r.cols {
		seed[k] = s.incumbent[j]
	}
	last, x := s.child(r, seed)
	proven = (last.Status == StatusOptimal || last.Status == StatusInfeasible) && !s.sol.Canceled
	if x != nil && !s.accept(x) {
		proven = false
	}
	if proven {
		return s.result(StatusOptimal, s.incObj)
	}
	bound := res.Objective
	if s.better(bound, last.Bound+r.objK) {
		bound = last.Bound + r.objK
	}
	if s.better(s.incObj, bound) {
		bound = s.incObj
	}
	return s.result(StatusFeasible, bound)
}

// gamma is γₖ = k·u/(1 − k·u), the relative rounding error of a k-term
// floating-point sum.
func gamma(k int) float64 {
	ku := float64(k) * 0x1p-53
	return ku / (1 - ku)
}

// restriction is a problem over some of p's columns, every other column
// held at a fixed value with its terms moved into the right-hand sides.
type restriction struct {
	*Problem
	cols []int     // the kept columns, in index order
	hold []float64 // every column's held value (kept columns' unused)
	objK float64   // the held columns' share of the objective
}

// restrict compacts p onto the columns keep marks, each within [lo, up].
func restrict(p *Problem, keep []bool, lo, up, hold []float64) *restriction {
	r := &restriction{hold: hold}
	pos := make([]int, len(keep))
	for j, k := range keep {
		pos[j] = -1
		if k {
			pos[j] = len(r.cols)
			r.cols = append(r.cols, j)
		} else {
			r.objK += p.LP.ObjectiveCoef(j) * hold[j]
		}
	}
	q := lp.NewProblem(len(r.cols))
	r.Problem = NewProblem(q)
	obj := make([]float64, len(r.cols))
	for k, j := range r.cols {
		_ = q.SetBounds(k, lo[j], up[j])
		obj[k] = p.LP.ObjectiveCoef(j)
		r.Integer[k] = p.Integer[j]
	}
	_ = q.SetObjective(obj, p.LP.Sense())
	var coefs []lp.Coef
	for i := 0; i < p.LP.NumRows(); i++ {
		row := p.LP.Row(i)
		coefs = coefs[:0]
		rhs := row.RHS
		for _, c := range row.Coefs {
			if k := pos[c.Var]; k >= 0 {
				coefs = append(coefs, lp.Coef{Var: k, Val: c.Val})
			} else if h := hold[c.Var]; h != 0 {
				rhs -= c.Val * h
			}
		}
		_, _ = q.AddConstraint(coefs, row.Op, rhs)
	}
	return r
}

// child searches r under what is left of s's node budget, seeded with
// seed, and adds its counts to s's. Its incumbent comes back spread over
// every column of s's problem, nil when it has none.
func (s *search) child(r *restriction, seed []float64) (*Solution, []float64) {
	opt := s.opt
	opt.MaxNodes -= s.sol.Nodes
	opt.InitialIncumbent = seed
	c := newSearch(r.Problem, opt, s.ws).run(false)
	s.sol.Nodes += c.Nodes
	s.sol.LPIters += c.LPIters
	s.sol.Canceled = s.sol.Canceled || c.Canceled
	if c.X == nil {
		return c, nil
	}
	x := slices.Clone(r.hold)
	for k, j := range r.cols {
		x[j] = c.X[k]
	}
	return c, x
}

func infFor(maximize bool) float64 {
	if maximize {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

func objective(p *lp.Problem, x []float64) float64 {
	obj := 0.0
	for j := 0; j < p.NumVars(); j++ {
		obj += p.ObjectiveCoef(j) * x[j]
	}
	return obj
}

// mostFractional returns the integer variable whose value is farthest
// from integrality, or -1 when all are integral.
func mostFractional(p *Problem, x []float64, tol float64) int {
	best := -1
	bestDist := tol
	for j, isInt := range p.Integer {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			bestDist = dist
			best = j
		}
	}
	return best
}

// roundCandidate moves integer variables to the nearest in-bounds
// integer; whether the point satisfies the rows is the caller's check.
func roundCandidate(p *Problem, x, lo, up []float64, tol float64) []float64 {
	out := append([]float64(nil), x...)
	for j, isInt := range p.Integer {
		if !isInt {
			continue
		}
		r := math.Round(out[j])
		if r < lo[j] {
			r = math.Ceil(lo[j] - tol)
		}
		if r > up[j] {
			r = math.Floor(up[j] + tol)
		}
		out[j] = r
	}
	return out
}

// noiseTol separates a fraction the relaxation means from the round-off
// its pivots leave behind.
const noiseTol = 1e-9

// splitAt splits a node's box at the integral point x when x itself is
// unusable, returning the variable and the bounds its two children put
// on it: the first unfixed integer variable x holds above its lower
// bound (down to x−1, or up from x and so one bound tighter), else the
// first unfixed one at all (held at x, or up from x+1); -1 when every
// integer variable is fixed.
func splitAt(p *Problem, nd *node, x []float64) (j int, down, up float64) {
	first := -1
	for j, isInt := range p.Integer {
		if !isInt || nd.lo[j] == nd.up[j] {
			continue
		}
		if v := math.Round(x[j]); v > nd.lo[j] {
			return j, v - 1, v
		}
		if first == -1 {
			first = j
		}
	}
	if first == -1 {
		return -1, 0, 0
	}
	return first, nd.lo[first], nd.lo[first] + 1
}

// snapped returns a copy of x with every integer variable rounded to
// the exact integer.
func snapped(p *Problem, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for j, isInt := range p.Integer {
		if isInt {
			out[j] = math.Round(out[j])
		}
	}
	return out
}
