package lp

import (
	"math"
)

const (
	feasTol = 1e-7 // feasibility tolerance
	costTol = 1e-9 // reduced-cost optimality tolerance
	pivTol  = 1e-9 // minimum pivot magnitude
)

// Options tunes the solver. Each phase stops after 2000 + 50·(m+n)
// iterations with StatusIterLimit, for m rows and n columns (slacks and
// artificials included).
type Options struct {
	// Cancel, when non-nil, is polled once per simplex iteration; a
	// true return stops the solve with StatusIterLimit. An iteration is
	// one pricing pass over the columns plus, when a basic variable
	// leaves, one O(m·n) pivot, so the poll is noise — this is the
	// cooperative-cancellation hook the branch-and-bound layer uses to
	// abandon node relaxations promptly.
	Cancel func() bool
}

// Solve optimizes the problem with the bounded-variable two-phase
// primal simplex on a fresh Workspace. The returned solution's X has
// one value per problem variable (slacks and artificials are internal).
func Solve(p *Problem, opts ...Options) *Solution {
	var w Workspace
	return w.Solve(p, opts...)
}

// Workspace is the simplex's working storage over the extended variable
// set [structural | slacks | artificials]. The zero value is ready; a
// caller that solves many problems (branch-and-bound nodes, Lagrangian
// rounds) keeps one and reuses it, so only the first solve of a shape
// allocates. A Workspace serves one solve at a time.
type Workspace struct {
	m, n int // rows, total columns

	a  []float64 // m×n row-major: B⁻¹[A | I] (basic columns are unit)
	tb []float64 // m: B⁻¹ b

	lo, up  []float64  // n: bounds of every column
	costs   []float64  // n: phase-2 costs (structural = ±obj, rest 0)
	artCost []float64  // n: phase-1 costs (1 per artificial)
	d       []float64  // n: reduced costs of the running phase
	basis   []int      // m: basic column per row
	state   []colState // n: where each column sits
	x       []float64  // n: current values
	rowSign []float64  // m: ±1, the sign each row was normalized by

	artStart   int // first artificial column
	needPhase1 bool
	maximize   bool
}

// colState is a column's position: basic, or nonbasic at one of its
// bounds. Pricing reads it beside the reduced cost and nothing else.
type colState uint8

const (
	atLower colState = iota // nonbasic at its lower bound
	atUpper                 // nonbasic at its upper bound
	fixed                   // nonbasic with lo == up: can never enter
	basic
)

// Solve is the package-level Solve on this workspace's storage. The
// returned Solution owns its slices; nothing in it aliases w.
func (w *Workspace) Solve(p *Problem, opts ...Options) *Solution {
	return w.SolveFrom(p, nil, opts...)
}

// SolveFrom solves p as Solve does, restarting from b, a Basis taken
// after an optimal solve of a problem with p's rows and columns and
// other bounds (a branch-and-bound parent). It installs b, runs the
// bounded dual simplex until the basic values sit inside their bounds,
// and ends in the primal simplex's own optimality test. It reports
// "infeasible" only on a row that proves it; whenever the restart cannot
// decide (a singular install, a start that is not dual feasible, a
// leaving row with no entering column and no proof, the iteration
// limit) it solves cold in the same call. A nil b solves cold.
// Iterations counts the install, dual and primal pivots, and the cold
// solve's when it ran.
func (w *Workspace) SolveFrom(p *Problem, b *Basis, opts ...Options) *Solution {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	sol := &Solution{}
	decided := false
	if b != nil {
		sol.Status, sol.Iterations, decided = w.warm(p, b, opt)
	}
	if !decided {
		status, n := w.run(p, opt)
		sol.Status, sol.Iterations = status, sol.Iterations+n
	}
	if sol.Status != StatusOptimal {
		return sol
	}
	sol.X = make([]float64, p.n)
	copy(sol.X, w.x[:p.n])
	for j, xj := range sol.X {
		sol.Objective += p.obj[j] * xj
	}
	sol.Duals = make([]float64, w.m)
	w.duals(sol.Duals)
	return sol
}

// run loads p and drives both phases. On a workspace that has already
// held a problem of p's shape it allocates nothing.
func (w *Workspace) run(p *Problem, opt Options) (Status, int) {
	w.load(p)
	maxIters := 2000 + 50*(w.m+w.n)
	iters := 0
	// Phase 1: minimize the sum of artificial variables.
	if w.needPhase1 {
		status, n := w.iterate(w.artCost, maxIters, opt.Cancel)
		iters += n
		if status == StatusIterLimit {
			return StatusIterLimit, iters
		}
		if w.phase1Objective() > 1e-6 {
			return StatusInfeasible, iters
		}
	}
	// Pin artificials to zero even when phase 1 was skipped because the
	// initial point was already feasible: every artificial starts at 0
	// then, but with its upper bound still infinite phase 2 could move
	// a basic artificial off zero — reporting a spurious unbounded ray
	// or returning a point that violates its equality row.
	w.fixArtificials()
	// Phase 2: the real objective.
	status, n := w.iterate(w.costs, maxIters, opt.Cancel)
	return status, iters + n
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// load fills the workspace with p's starting point: every structural
// and slack column nonbasic at its finite bound nearest zero, one
// artificial per row absorbing the residual, rows signed so the
// artificial basis is the identity.
func (w *Workspace) load(p *Problem) {
	m := len(p.rows)
	// Column layout: structural, then one slack per inequality row, then
	// one artificial per row.
	nSlack := 0
	for _, r := range p.rows {
		if r.Op != EQ {
			nSlack++
		}
	}
	n := p.n + nSlack + m
	w.m, w.n = m, n
	w.a = resize(w.a, m*n)
	w.tb = resize(w.tb, m)
	w.lo = resize(w.lo, n)
	w.up = resize(w.up, n)
	w.costs = resize(w.costs, n)
	w.artCost = resize(w.artCost, n)
	w.d = resize(w.d, n)
	w.basis = resize(w.basis, m)
	w.state = resize(w.state, n)
	w.x = resize(w.x, n)
	w.rowSign = resize(w.rowSign, m)
	w.artStart = p.n + nSlack
	w.needPhase1 = false
	w.maximize = p.sense == Maximize

	copy(w.lo, p.lo)
	copy(w.up, p.up)
	for j := p.n; j < n; j++ {
		w.up[j] = Inf
	}
	for j, c := range p.obj {
		if w.maximize {
			c = -c
		}
		w.costs[j] = c
	}
	for j := 0; j < p.n; j++ {
		w.x[j] = w.lo[j]
		if w.up[j] < Inf && math.Abs(w.up[j]) < math.Abs(w.lo[j]) {
			w.x[j] = w.up[j]
			w.state[j] = atUpper
		} else if w.lo[j] == w.up[j] {
			w.state[j] = fixed
		}
	}
	slack := p.n
	for i, r := range p.rows {
		// Slacks start at 0, so only the structural terms (stored in
		// variable order) enter the residual.
		resid := r.RHS
		for _, c := range r.Coefs {
			resid -= c.Val * w.x[c.Var]
		}
		sign := 1.0
		if resid < 0 {
			sign = -1.0
		}
		row := w.a[i*n : (i+1)*n]
		for _, c := range r.Coefs {
			row[c.Var] = sign * c.Val
		}
		switch r.Op {
		case LE:
			row[slack] = sign
			slack++
		case GE:
			row[slack] = -sign
			slack++
		}
		art := w.artStart + i
		row[art] = 1
		w.artCost[art] = 1
		w.rowSign[i] = sign
		w.tb[i] = sign * r.RHS
		w.basis[i] = art
		w.state[art] = basic
		w.x[art] = math.Abs(resid)
		if w.x[art] > feasTol {
			w.needPhase1 = true
		}
	}
}

// phase1Objective sums artificial values.
func (w *Workspace) phase1Objective() float64 {
	s := 0.0
	for j := w.artStart; j < w.n; j++ {
		s += w.x[j]
	}
	return s
}

// fixArtificials pins artificial variables to zero so phase 2 cannot
// reuse them, and pivots basic zero-valued artificials out when a
// non-artificial pivot column exists.
func (w *Workspace) fixArtificials() {
	for j := w.artStart; j < w.n; j++ {
		w.up[j] = 0
		if w.state[j] != basic {
			w.state[j] = fixed
		}
	}
	for i := 0; i < w.m; i++ {
		art := w.basis[i]
		if art < w.artStart {
			continue
		}
		row := w.a[i*w.n : (i+1)*w.n]
		for j := 0; j < w.artStart; j++ {
			if w.state[j] != basic && math.Abs(row[j]) > pivTol {
				w.pivot(i, j)
				w.state[art] = fixed
				break
			}
		}
	}
}

// recompute rebuilds basic-variable values from the nonbasic bound
// assignment: x_B = B⁻¹b − Σ_nonbasic (B⁻¹A)ⱼ xⱼ. Few nonbasic columns
// sit off zero, so it scans the columns once and touches the matrix
// only under those; each row still sums in column order.
func (w *Workspace) recompute() {
	for i, k := range w.basis {
		w.x[k] = w.tb[i]
	}
	for j, xj := range w.x {
		if xj == 0 || w.state[j] == basic {
			continue
		}
		for i, k := range w.basis {
			w.x[k] -= w.a[i*w.n+j] * xj
		}
	}
}

// priceOut rebuilds the reduced costs d = c − c_Bᵀ (B⁻¹A).
func (w *Workspace) priceOut(c []float64) {
	copy(w.d, c)
	for i := 0; i < w.m; i++ {
		cb := c[w.basis[i]]
		if cb == 0 {
			continue
		}
		row := w.a[i*w.n : (i+1)*w.n]
		for j, v := range row {
			w.d[j] -= cb * v
		}
	}
}

// entering picks the entering column from the reduced costs: the
// largest violation (Dantzig), or the first one under Bland's rule; -1
// when no nonbasic column can improve the objective.
func (w *Workspace) entering(bland bool) int {
	enter := -1
	best := 0.0
	state := w.state[:len(w.d)]
	for j, dj := range w.d {
		var viol float64
		switch state[j] {
		case atLower:
			viol = -dj
		case atUpper:
			viol = dj
		default:
			continue
		}
		if !(viol > costTol) {
			continue
		}
		if bland {
			return j
		}
		if viol > best {
			best = viol
			enter = j
		}
	}
	return enter
}

// iterate runs the simplex with cost vector c until optimal, unbounded,
// the iteration limit, or cancellation. It uses Dantzig pricing with a
// Bland fallback after a stretch of degenerate pivots to guarantee
// termination. The reduced-cost row is carried through pivots and basic
// values move by the step; both are rebuilt from the matrix before
// optimality is declared, so drift in the carried values can cost an
// extra pass but never a wrong verdict.
func (w *Workspace) iterate(c []float64, maxIters int, cancel func() bool) (Status, int) {
	m, n := w.m, w.n
	w.recompute()
	w.priceOut(c)
	rebuilt := true
	degenerate := 0
	const blandAfter = 200
	for iter := 0; iter < maxIters; {
		if cancel != nil && cancel() {
			return StatusIterLimit, iter
		}
		bland := degenerate > blandAfter
		enter := w.entering(bland)
		if enter == -1 {
			if rebuilt {
				return StatusOptimal, iter
			}
			w.recompute()
			w.priceOut(c)
			rebuilt = true
			continue
		}
		iter++
		rebuilt = false
		// Direction: increasing from lower bound, decreasing from upper.
		dir := 1.0
		if w.state[enter] == atUpper {
			dir = -1.0
		}
		// Ratio test: smallest step that drives a basic variable to a
		// bound, or flips the entering variable to its other bound.
		tMax := math.Inf(1)
		leaveRow := -1
		leaveAtUpper := false
		if w.up[enter] < Inf {
			tMax = w.up[enter] - w.lo[enter]
		}
		for i := 0; i < m; i++ {
			coef := w.a[i*n+enter] * dir
			if math.Abs(coef) < pivTol {
				continue
			}
			k := w.basis[i]
			xv := w.x[k]
			var limit float64
			var hitsUpper bool
			if coef > 0 {
				// basic variable decreases toward its lower bound
				limit = (xv - w.lo[k]) / coef
				hitsUpper = false
			} else {
				// basic variable increases toward its upper bound
				if w.up[k] == Inf {
					continue
				}
				limit = (xv - w.up[k]) / coef
				hitsUpper = true
			}
			if limit < -feasTol {
				limit = 0
			}
			if limit < tMax-pivTol {
				tMax = limit
				leaveRow = i
				leaveAtUpper = hitsUpper
			} else if bland && leaveRow >= 0 && math.Abs(limit-tMax) <= pivTol {
				// Bland tie-break: smallest basic index leaves.
				if w.basis[i] < w.basis[leaveRow] {
					leaveRow = i
					leaveAtUpper = hitsUpper
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return StatusUnbounded, iter - 1
		}
		if tMax <= pivTol {
			degenerate++
		} else {
			degenerate = 0
		}
		// Move the basic variables by the step along the entering column.
		if step := dir * tMax; step != 0 {
			for i := 0; i < m; i++ {
				if coef := w.a[i*n+enter]; coef != 0 {
					w.x[w.basis[i]] -= step * coef
				}
			}
		}
		if leaveRow == -1 {
			// Bound flip: entering variable jumps to its other bound.
			if w.state[enter] == atLower {
				w.state[enter], w.x[enter] = atUpper, w.up[enter]
			} else {
				w.state[enter], w.x[enter] = atLower, w.lo[enter]
			}
			continue
		}
		w.x[enter] += dir * tMax
		leaving := w.basis[leaveRow]
		w.pivot(leaveRow, enter)
		switch {
		case w.lo[leaving] == w.up[leaving]:
			w.state[leaving], w.x[leaving] = fixed, w.lo[leaving]
		case leaveAtUpper:
			w.state[leaving], w.x[leaving] = atUpper, w.up[leaving]
		default:
			w.state[leaving], w.x[leaving] = atLower, w.lo[leaving]
		}
		w.carry(leaveRow, enter)
	}
	return StatusIterLimit, maxIters
}

// carry moves the reduced costs through the pivot just made on column
// enter in row r, as one more row of the tableau.
func (w *Workspace) carry(r, enter int) {
	if f := w.d[enter]; f != 0 {
		for j, v := range w.a[r*w.n : (r+1)*w.n] {
			w.d[j] -= f * v
		}
	}
}

// pivot performs a Gauss-Jordan pivot: column enter becomes basic in
// row r. The column it displaces is the caller's to place at a bound.
func (w *Workspace) pivot(r, enter int) {
	n := w.n
	row := w.a[r*n : (r+1)*n]
	inv := 1.0 / row[enter]
	for j := range row {
		row[j] *= inv
	}
	w.tb[r] *= inv
	for i := 0; i < w.m; i++ {
		if i == r {
			continue
		}
		ri := w.a[i*n : (i+1)*n]
		f := ri[enter]
		if f == 0 {
			continue
		}
		for j, v := range row {
			ri[j] -= f * v
		}
		w.tb[i] -= f * w.tb[r]
	}
	w.basis[r] = enter
	w.state[enter] = basic
}

// duals writes the row prices into y (length m), in the problem's
// sense. The artificial block of the matrix is B⁻¹ over the signed
// rows, so the price of signed row i is c_Bᵀ·(B⁻¹)ᵢ; undoing the row's
// sign and the internal minimization gives ∂Objective/∂RHSᵢ.
func (w *Workspace) duals(y []float64) {
	for i := range y {
		v := 0.0
		for k := 0; k < w.m; k++ {
			if cb := w.costs[w.basis[k]]; cb != 0 {
				v += cb * w.a[k*w.n+w.artStart+i]
			}
		}
		v *= w.rowSign[i]
		if w.maximize {
			v = -v
		}
		y[i] = v
	}
}
