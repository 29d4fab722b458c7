package lp

import "math"

// Multiplier turns a solve's price for one row (Solution.Duals, in the
// problem's sense) into the row's multiplier for the maximizing form
// max sgn·cᵀx, sgn = −1 for a minimization: sgn·dual, clamped to the sign
// weak duality needs — y ≥ 0 on a ≤ row, y ≤ 0 on a ≥ row, free on an
// equality. Any clamped y gives a valid Lagrangian; the clamp only
// keeps a price the simplex's last bits put on the wrong side of zero
// from invalidating it.
func Multiplier(op Op, sense Sense, dual float64) float64 {
	y := dual
	if sense == Minimize {
		y = -dual
	}
	switch op {
	case LE:
		y = max(y, 0)
	case GE:
		y = min(y, 0)
	}
	return y
}

// Lagrangian accumulates a weak-duality certificate for the maximizing
// form of a problem over the box lo ≤ x ≤ up at multipliers y (see
// Multiplier):
//
//	L(y) = Σᵢ yᵢbᵢ + Σⱼ max(dⱼloⱼ, dⱼupⱼ),   dⱼ = sgn·cⱼ − Σᵢ yᵢaᵢⱼ,
//
// an upper bound on sgn·cᵀx over every x in the box that satisfies the
// rows, whatever y is. Bound pads the floating-point sum by 2·γ(K)·Terms,
// γ(k) = k·u/(1 − k·u) the relative rounding error of a k-term sum and
// Terms the magnitudes the sum and its dⱼ were computed from (Neumaier
// and Shcherbina 2004), so round-off cannot make it claim more than the
// exact L(y) does. The zero value is the empty sum.
type Lagrangian struct {
	// Sum is L(y) as computed, before the margin.
	Sum float64
	// Terms is the magnitude the rounding error scales with, and K the
	// number of terms; a caller that folds more floating-point work into
	// the comparison it makes (an incumbent's objective) adds its own.
	Terms float64
	K     int
	// open reports a column with dⱼ > 0 and upⱼ = +∞: L(y) is +∞ and
	// certifies nothing.
	open bool
}

// Row adds one row's term yᵢbᵢ.
func (g *Lagrangian) Row(y, rhs float64) {
	t := y * rhs
	g.Sum += t
	g.Terms += math.Abs(t)
	g.K++
}

// Column adds one column's best case max(d·lo, d·up) over its box. mag
// is Σ of the magnitudes d was computed from (|sgn·cⱼ| + Σᵢ|yᵢaᵢⱼ|).
func (g *Lagrangian) Column(d, mag, lo, up float64) {
	g.K++
	if math.IsInf(up, 1) {
		if d > 0 {
			g.open = true
			return
		}
		t := d * lo
		g.Sum += t
		g.Terms += math.Abs(t) + mag*math.Abs(lo)
		return
	}
	best := d * lo // max(d·lo, d·up), as lo ≤ up
	if d > 0 {
		best = d * up
	}
	g.Sum += best
	g.Terms += math.Abs(best) + mag*max(math.Abs(lo), math.Abs(up))
}

// Margin is 2·γ(K)·Terms, the most the computed Sum can fall short of
// the exact one.
func (g *Lagrangian) Margin() float64 {
	ku := float64(g.K) * 0x1p-53
	return 2 * ku / (1 - ku) * g.Terms
}

// Bound is Sum + Margin: an upper bound on the maximizing form's
// optimum, +∞ when a column with dⱼ > 0 is unbounded above.
func (g *Lagrangian) Bound() float64 {
	if g.open {
		return math.Inf(1)
	}
	return g.Sum + g.Margin()
}
