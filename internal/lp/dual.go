package lp

import (
	"math"
	"slices"
)

// Basis is a snapshot of the basis a workspace's solve ended on: the
// basic column of every row and where every column sits. SolveFrom
// restarts a problem of the same shape from it. A Basis is never
// modified after it is taken, so one snapshot may seed any number of
// solves (both children of a branch-and-bound node share one).
type Basis struct {
	basis []int
	state []colState
}

// Basis snapshots the basis of the workspace's last solve. It is a
// restart point only after an optimal solve.
func (w *Workspace) Basis() *Basis {
	return &Basis{basis: slices.Clone(w.basis[:w.m]), state: slices.Clone(w.state[:w.n])}
}

// warm loads p, installs b and runs the bounded dual simplex, then the
// primal simplex from the primal feasible basis it reaches. decided is
// false when the restart settles nothing and the caller must solve
// cold; iters counts the pivots made either way.
func (w *Workspace) warm(p *Problem, b *Basis, opt Options) (status Status, iters int, decided bool) {
	w.load(p)
	if len(b.basis) != w.m || len(b.state) != w.n {
		return 0, 0, false
	}
	// The artificials are pinned to 0, as fixArtificials pins them.
	for j := w.artStart; j < w.n; j++ {
		w.up[j] = 0
	}
	// Pivot b's basic columns in, each into the row of largest |aᵢₖ|
	// among the rows whose basic column b does not keep. Every column
	// displaced is an artificial b leaves nonbasic.
	for _, k := range b.basis {
		if w.state[k] == basic {
			continue
		}
		r, best := -1, pivTol
		for i, bi := range w.basis {
			if v := math.Abs(w.a[i*w.n+k]); b.state[bi] != basic && v > best {
				r, best = i, v
			}
		}
		if r == -1 {
			return 0, iters, false // b's columns are singular under p
		}
		w.state[w.basis[r]] = fixed
		w.pivot(r, k)
		iters++
	}
	// Every nonbasic column at the bound b recorded, clamped to p's.
	for j, s := range w.state {
		switch {
		case s == basic:
		case w.lo[j] == w.up[j]:
			w.state[j], w.x[j] = fixed, w.lo[j]
		case b.state[j] == atUpper && w.up[j] < Inf:
			w.state[j], w.x[j] = atUpper, w.up[j]
		default:
			w.state[j], w.x[j] = atLower, w.lo[j]
		}
	}
	w.recompute()
	w.priceOut(w.costs)
	for j, s := range w.state {
		if s == atLower && w.d[j] < -costTol || s == atUpper && w.d[j] > costTol {
			return 0, iters, false // not dual feasible
		}
	}
	maxIters := 2000 + 50*(w.m+w.n)
	for it := 0; ; it++ {
		if opt.Cancel != nil && opt.Cancel() {
			return StatusIterLimit, iters, true
		}
		r, toUpper := w.dualLeaving()
		if r == -1 {
			break
		}
		if it == maxIters {
			return 0, iters, false
		}
		enter := w.dualEntering(r, toUpper)
		if enter == -1 {
			if w.rowProvesInfeasible(r, toUpper) {
				return StatusInfeasible, iters, true
			}
			return 0, iters, false
		}
		leaving := w.basis[r]
		w.pivot(r, enter)
		iters++
		switch {
		case w.lo[leaving] == w.up[leaving]:
			w.state[leaving], w.x[leaving] = fixed, w.lo[leaving]
		case toUpper:
			w.state[leaving], w.x[leaving] = atUpper, w.up[leaving]
		default:
			w.state[leaving], w.x[leaving] = atLower, w.lo[leaving]
		}
		w.carry(r, enter)
		w.recompute()
	}
	status, n := w.iterate(w.costs, maxIters, opt.Cancel)
	iters += n
	if status == StatusIterLimit {
		return status, iters, false
	}
	return status, iters, true
}

// dualLeaving picks the dual simplex's leaving row: the basic column
// farthest outside its bounds, beyond feasTol. toUpper says it leaves
// at its upper bound (it sits above it). It returns -1 when every basic
// value is within its bounds.
func (w *Workspace) dualLeaving() (r int, toUpper bool) {
	r, worst := -1, feasTol
	for i, k := range w.basis {
		if v := w.lo[k] - w.x[k]; v > worst {
			r, worst, toUpper = i, v, false
		}
		if v := w.x[k] - w.up[k]; v > worst {
			r, worst, toUpper = i, v, true
		}
	}
	return r, toUpper
}

// dualEntering is the dual ratio test on row r: among the nonbasic
// columns whose move off their bound pushes row r's basic value toward
// the bound it leaves at, the one of smallest |dⱼ|/|aᵣⱼ|, so every
// reduced cost keeps its sign; ties go to the larger |aᵣⱼ|. It returns
// -1 when no column qualifies.
func (w *Workspace) dualEntering(r int, toUpper bool) int {
	enter, best, bestAbs := -1, math.Inf(1), 0.0
	for j, v := range w.a[r*w.n : (r+1)*w.n] {
		// x_basic = tbᵣ − Σ aᵣⱼxⱼ: raising it takes aᵣⱼ < 0 on a column
		// that rises from its lower bound, aᵣⱼ > 0 on one that falls
		// from its upper bound; lowering it, the mirror.
		if toUpper {
			v = -v
		}
		var dj float64
		switch w.state[j] {
		case atLower:
			if v >= -pivTol {
				continue
			}
			dj = max(w.d[j], 0)
		case atUpper:
			if v <= pivTol {
				continue
			}
			dj = max(-w.d[j], 0)
		default:
			continue
		}
		abs := math.Abs(v)
		if ratio := dj / abs; ratio < best || ratio == best && abs > bestAbs {
			enter, best, bestAbs = j, ratio, abs
		}
	}
	return enter
}

// rowProvesInfeasible reports whether row r alone proves the problem
// infeasible: x_basic = tbᵣ − Σ aᵣⱼxⱼ over the nonbasic columns, and
// the supremum of that over every nonbasic column's box (the infimum,
// when the basic value sits above its upper bound) misses the bound by
// more than feasTol. The row is a combination of the problem's rows, so
// no point satisfies them all.
func (w *Workspace) rowProvesInfeasible(r int, toUpper bool) bool {
	k := w.basis[r]
	ext := w.tb[r] // the supremum, or the infimum when toUpper
	for j, v := range w.a[r*w.n : (r+1)*w.n] {
		if w.state[j] == basic || v == 0 {
			continue
		}
		// The sup takes each term aᵣⱼxⱼ at its smallest, the inf at its
		// largest: the low end of xⱼ's box when aᵣⱼ > 0 says the sup.
		atLo := v > 0 != toUpper
		if !atLo && w.up[j] == Inf {
			return false
		}
		if atLo {
			ext -= v * w.lo[j]
		} else {
			ext -= v * w.up[j]
		}
	}
	if toUpper {
		return ext > w.up[k]+feasTol
	}
	return ext < w.lo[k]-feasTol
}
