package lp

import (
	"math"
	"testing"
)

// TestMultiplierSigns: a row's multiplier for the maximizing form takes
// the sign weak duality needs whatever price it is given — ≥ 0 on a ≤
// row, ≤ 0 on a ≥ row, free on an equality — and a minimization's
// prices are negated first.
func TestMultiplierSigns(t *testing.T) {
	cases := []struct {
		op    Op
		sense Sense
		dual  float64
		want  float64
	}{
		{LE, Maximize, 2, 2}, {LE, Maximize, -2, 0},
		{GE, Maximize, -2, -2}, {GE, Maximize, 2, 0},
		{EQ, Maximize, -2, -2}, {EQ, Maximize, 2, 2},
		{LE, Minimize, -2, 2}, {LE, Minimize, 2, 0},
		{GE, Minimize, 2, -2}, {GE, Minimize, -2, 0},
		{EQ, Minimize, 2, -2},
	}
	for _, c := range cases {
		if got := Multiplier(c.op, c.sense, c.dual); got != c.want {
			t.Errorf("Multiplier(%v, %v, %g) = %g, want %g", c.op, c.sense, c.dual, got, c.want)
		}
	}
}

// TestLagrangianColumns: a column contributes its best case over its box
// — at up for d > 0, at lo otherwise — the margin pads the sum upward,
// and a column with d > 0 and no upper bound leaves nothing certified.
func TestLagrangianColumns(t *testing.T) {
	var g Lagrangian
	g.Row(2, 5)           // 10
	g.Column(3, 3, 0, 2)  // 6
	g.Column(-1, 1, 1, 4) // −1
	g.Column(-2, 2, 0, Inf)
	if g.Sum != 15 || g.K != 4 {
		t.Fatalf("sum %g over %d terms, want 15 over 4", g.Sum, g.K)
	}
	if b := g.Bound(); b <= 15 || b-15 > 1e-12 {
		t.Errorf("bound %g, want 15 padded by its margin", b)
	}
	g.Column(0.5, 0.5, 0, Inf)
	if b := g.Bound(); !math.IsInf(b, 1) {
		t.Errorf("an improving column without an upper bound gave %g, want +Inf", b)
	}
}
