// Package milp implements a mixed-integer linear program solver:
// best-first branch-and-bound over the bounded-variable simplex in
// internal/lp, with most-fractional branching, a rounding primal
// heuristic, and node/time limits. PackageBuilder's translation layer
// (internal/translate) compiles PaQL package queries into these MILPs;
// integer variables are tuple multiplicities, so branching tightens
// variable bounds and never adds rows.
package milp

import (
	"container/heap"
	"context"
	"math"
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

// Options tunes the search.
type Options struct {
	MaxNodes  int           // 0 = default (200000)
	TimeLimit time.Duration // 0 = none
	IntTol    float64       // integrality tolerance, default 1e-6
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
	Status     Status
	X          []float64
	Objective  float64
	Bound      float64 // best proven dual bound (in the problem's sense)
	Nodes      int
	LPIters    int
	WallTime   time.Duration
	GapClosed  bool
	Incumbents int  // number of improving incumbents found
	Canceled   bool // the search stopped because Options.Ctx was done
}

type node struct {
	lo, up []float64 // bounds override (full copies)
	bound  float64   // parent LP bound (priority)
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

// Solve runs branch-and-bound.
func Solve(p *Problem, opts ...Options) *Solution {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 200000
	}
	if opt.IntTol <= 0 {
		opt.IntTol = 1e-6
	}
	start := time.Now()
	maximize := p.LP.Sense() == lp.Maximize
	sol := &Solution{Status: StatusLimit}
	// One poll for the node loop and every node relaxation's simplex.
	cancelPoll := lifecycle.Poll(opt.Ctx)
	better := func(a, b float64) bool {
		if maximize {
			return a > b+1e-9
		}
		return a < b-1e-9
	}

	n := p.LP.NumVars()
	// Rows over integer variables are tested exactly: the engine's final
	// validator compares aggregates without a tolerance, so a sum one
	// rounding over a budget must not become an incumbent. With a
	// continuous variable free to move the simplex's own arithmetic is
	// all there is, and its tolerance applies.
	rowTol := 0.0
	for j, isInt := range p.Integer {
		if lo, up := p.LP.Bounds(j); !isInt && lo < up {
			rowTol = 1e-6
			break
		}
	}
	var haveIncumbent bool
	var incumbent []float64
	var incObj float64
	// accept takes x, whose integer variables are exact integers, as the
	// incumbent if it satisfies every row and improves on the current
	// one. It reports whether x was feasible; a point that is not is
	// never an incumbent.
	accept := func(x []float64) bool {
		if !p.LP.Feasible(x, rowTol) {
			return false
		}
		obj := objective(p.LP, x)
		if !haveIncumbent || better(obj, incObj) {
			incumbent = x
			incObj = obj
			haveIncumbent = true
			sol.Incumbents++
		}
		return true
	}
	if x := opt.InitialIncumbent; len(x) == n && mostFractional(p, x, opt.IntTol) == -1 {
		accept(snapped(p, x))
	}

	rootLo := make([]float64, n)
	rootUp := make([]float64, n)
	for j := 0; j < n; j++ {
		rootLo[j], rootUp[j] = p.LP.Bounds(j)
		// Integer variables get integral bounds up front.
		if p.Integer[j] {
			rootLo[j] = math.Ceil(rootLo[j] - opt.IntTol)
			if !math.IsInf(rootUp[j], 1) {
				rootUp[j] = math.Floor(rootUp[j] + opt.IntTol)
			}
			if rootLo[j] > rootUp[j] {
				sol.Status = StatusInfeasible
				sol.WallTime = time.Since(start)
				return sol
			}
		}
	}
	q := &nodeQueue{max: maximize}
	heap.Init(q)
	heap.Push(q, &node{lo: rootLo, up: rootUp, bound: infFor(maximize)})

	work := p.LP.Clone()
	var ws lp.Workspace // one working matrix for every node's relaxation
	bestBound := infFor(maximize)
	firstNode := true

	for q.Len() > 0 {
		if cancelPoll != nil && cancelPoll() {
			sol.Canceled = true
			break
		}
		if sol.Nodes >= opt.MaxNodes {
			break
		}
		if opt.TimeLimit > 0 && time.Since(start) > opt.TimeLimit {
			break
		}
		nd := heap.Pop(q).(*node)
		// Bound-based pruning against the incumbent.
		if haveIncumbent && !better(nd.bound, incObj) && !firstNode {
			continue
		}
		sol.Nodes++
		for j := 0; j < n; j++ {
			if err := work.SetBounds(j, nd.lo[j], nd.up[j]); err != nil {
				// Empty range: infeasible node.
				goto nextNode
			}
		}
		{
			res := ws.Solve(work, lp.Options{Cancel: cancelPoll})
			sol.LPIters += res.Iterations
			switch res.Status {
			case lp.StatusInfeasible:
				goto nextNode
			case lp.StatusUnbounded:
				if firstNode {
					sol.Status = StatusUnbounded
					sol.WallTime = time.Since(start)
					return sol
				}
				goto nextNode
			case lp.StatusIterLimit:
				goto nextNode
			}
			if firstNode {
				bestBound = res.Objective
				firstNode = false
			}
			if haveIncumbent && !better(res.Objective, incObj) {
				goto nextNode // dominated
			}
			// Branch on the most fractional variable: down to ⌊v⌋, up to ⌈v⌉.
			frac := mostFractional(p, res.X, opt.IntTol)
			if frac >= 0 {
				// Rounding heuristic: snap to nearest in-bounds integers.
				accept(roundCandidate(p, res.X, nd.lo, nd.up, opt.IntTol))
			} else {
				if accept(snapped(p, res.X)) {
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
			left := &node{lo: append([]float64(nil), nd.lo...), up: append([]float64(nil), nd.up...), bound: res.Objective}
			left.up[frac] = down
			right := &node{lo: append([]float64(nil), nd.lo...), up: append([]float64(nil), nd.up...), bound: res.Objective}
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
	sol.WallTime = time.Since(start)
	// With open nodes remaining, the best open node's parent bound is
	// the tightest proven dual bound (the heap root, by construction).
	if q.Len() > 0 {
		bestBound = q.items[0].bound
	}
	switch {
	// A cancelled search proves nothing: a node may have been dropped
	// by the LP's cancel hook, so never claim optimal or infeasible.
	case sol.Canceled && haveIncumbent:
		sol.Status = StatusFeasible
		sol.Bound = bestBound
	case sol.Canceled:
		sol.Status = StatusLimit
		sol.Bound = bestBound
	case q.Len() == 0 && sol.Nodes < opt.MaxNodes && haveIncumbent:
		sol.Status = StatusOptimal
		sol.Bound = incObj
	case q.Len() == 0 && sol.Nodes < opt.MaxNodes:
		sol.Status = StatusInfeasible
	case haveIncumbent:
		sol.Status = StatusFeasible
		sol.Bound = bestBound
	default:
		sol.Status = StatusLimit
		sol.Bound = bestBound
	}
	if haveIncumbent {
		sol.X = incumbent
		sol.Objective = incObj
		sol.GapClosed = sol.Status == StatusOptimal
	}
	return sol
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
