package translate

import (
	"context"
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/lp"
)

// bnode is a negation-normal-form boolean tree over comparison atoms.
type bnode interface{ bnode() }

type bAnd struct{ kids []bnode }
type bOr struct{ kids []bnode }
type bAtom struct {
	// cmp holds L op R with negation already applied, or a constant
	// boolean (expr.Const).
	e expr.Expr
}

func (*bAnd) bnode()  {}
func (*bOr) bnode()   {}
func (*bAtom) bnode() {}

// nnf pushes negation down to comparisons and expands BETWEEN.
func nnf(e expr.Expr, neg bool) bnode {
	switch n := e.(type) {
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd:
			l, r := nnf(n.L, neg), nnf(n.R, neg)
			if neg {
				return &bOr{kids: []bnode{l, r}}
			}
			return &bAnd{kids: []bnode{l, r}}
		case expr.OpOr:
			l, r := nnf(n.L, neg), nnf(n.R, neg)
			if neg {
				return &bAnd{kids: []bnode{l, r}}
			}
			return &bOr{kids: []bnode{l, r}}
		}
		if n.Op.Comparison() && neg {
			nop, _ := n.Op.Negate()
			return &bAtom{e: &expr.Binary{Op: nop, L: n.L, R: n.R}}
		}
		return &bAtom{e: n}
	case *expr.Not:
		return nnf(n.X, !neg)
	case *expr.Between:
		eff := n.Invert != neg
		ge := &expr.Binary{Op: expr.OpGe, L: n.X, R: n.Lo}
		le := &expr.Binary{Op: expr.OpLe, L: n.X, R: n.Hi}
		if eff { // NOT BETWEEN: X < lo OR X > hi
			lt := &expr.Binary{Op: expr.OpLt, L: n.X, R: n.Lo}
			gt := &expr.Binary{Op: expr.OpGt, L: n.X, R: n.Hi}
			return &bOr{kids: []bnode{&bAtom{e: lt}, &bAtom{e: gt}}}
		}
		return &bAnd{kids: []bnode{&bAtom{e: ge}, &bAtom{e: le}}}
	}
	// constants and anything else: constBool reads the constants, and
	// lowerAtom refuses the rest, which is what makes a query non-linear
	if neg {
		return &bAtom{e: &expr.Not{X: e}}
	}
	return &bAtom{e: e}
}

// encodeFormula emits rows for node. ind == -1 means the node must hold
// unconditionally; otherwise its rows activate when indicator ind is 1.
func (m *Model) encodeFormula(ctx context.Context, node bnode, ind int, sels selections) error {
	switch n := node.(type) {
	case *bAnd:
		for _, k := range n.kids {
			if err := m.encodeFormula(ctx, k, ind, sels); err != nil {
				return err
			}
		}
		return nil
	case *bOr:
		var kidInds []lp.Coef
		for _, k := range n.kids {
			y, err := m.newIndicator()
			if err != nil {
				return err
			}
			kidInds = append(kidInds, lp.Coef{Var: y, Val: 1})
			if err := m.encodeFormula(ctx, k, y, sels); err != nil {
				return err
			}
		}
		if ind < 0 {
			// At least one branch holds.
			_, err := m.lpp.AddConstraint(kidInds, lp.GE, 1)
			return err
		}
		// y ≤ Σ y_k
		coefs := []lp.Coef{{Var: ind, Val: 1}}
		for _, c := range kidInds {
			coefs = append(coefs, lp.Coef{Var: c.Var, Val: -1})
		}
		_, err := m.lpp.AddConstraint(coefs, lp.LE, 0)
		return err
	case *bAtom:
		return m.encodeAtom(ctx, n.e, ind, sels)
	}
	return fmt.Errorf("translate: unknown formula node %T", node)
}

// encodeAtom emits rows for one comparison (or constant boolean). The
// constant case and addRow's indicator linking are the exact path's own;
// every other row is the shared lowering's, weighed over the candidates.
// An unconditional comparison has no rows here (Translate weighed it with
// its conjunction); one under an indicator keeps every row, guards too.
func (m *Model) encodeAtom(ctx context.Context, e expr.Expr, ind int, sels selections) error {
	// Constant TRUE/FALSE (possibly under NOT).
	if v, ok := constBool(e); ok {
		if v {
			return nil
		}
		if ind < 0 {
			// unconditionally false: infeasible row
			_, err := m.lpp.AddConstraint(nil, lp.GE, 1)
			return err
		}
		// indicator must stay off
		_, err := m.lpp.AddConstraint([]lp.Coef{{Var: ind, Val: 1}}, lp.LE, 0)
		return err
	}
	if ind < 0 {
		return nil
	}
	atoms, err := lowerAtom(e, sels)
	if err != nil {
		return atomError(e, err)
	}
	for _, at := range atoms {
		rows, err := at.Weigh(m.Candidates)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := m.addRow(row.W, row.Op, row.RHS, ind); err != nil {
				return err
			}
		}
	}
	return nil
}

func constBool(e expr.Expr) (bool, bool) {
	switch n := e.(type) {
	case *expr.Const:
		b, null := n.Val.Truthy()
		if null {
			return false, true // NULL formula is unsatisfied
		}
		return b, true
	case *expr.Not:
		b, ok := constBool(n.X)
		return !b, ok
	}
	return false, false
}

// specialAtom detects `AVG/MIN/MAX(arg) op const` (either orientation),
// returning the aggregate, the constant, and the op oriented with the
// aggregate on the left.
func specialAtom(b *expr.Binary) (*expr.Agg, float64, expr.BinOp, bool, error) {
	for _, side := range []struct {
		agg, other expr.Expr
		op         expr.BinOp
	}{{b.L, b.R, b.Op}, {b.R, b.L, b.Op.Flip()}} {
		if a, ok := side.agg.(*expr.Agg); ok && (a.Fn == "AVG" || a.Fn == "MIN" || a.Fn == "MAX") {
			c, err := constSide(side.other)
			return a, c, side.op, err == nil, err
		}
	}
	return nil, 0, 0, false, nil
}

func constSide(e expr.Expr) (float64, error) {
	f, err := affineForm(e)
	if err != nil {
		return 0, err
	}
	if !f.isConst() {
		return 0, fmt.Errorf("translate: %s must be constant opposite an AVG/MIN/MAX aggregate", e)
	}
	return f.konst, nil
}

// addRow emits Σ w·x (op) rhs, optionally big-M-linked to an indicator.
func (m *Model) addRow(w []float64, op lp.Op, rhs float64, ind int) error {
	var coefs []lp.Coef
	for i, wi := range w {
		if wi != 0 {
			coefs = append(coefs, lp.Coef{Var: i, Val: wi})
		}
	}
	if ind < 0 {
		_, err := m.lpp.AddConstraint(coefs, op, rhs)
		return err
	}
	if m.MaxMult <= 0 {
		return fmt.Errorf("translate: disjunctive constraints need bounded multiplicity (add REPEAT)")
	}
	M := math.Abs(rhs) + 1
	for _, c := range coefs {
		M += math.Abs(c.Val) * float64(m.MaxMult)
	}
	switch op {
	case lp.LE: // Σ w·x + M·y ≤ rhs + M
	case lp.GE: // Σ w·x − M·y ≥ rhs − M
		M = -M
	default: // an equality arrives as its LE and GE rows (linearRows)
		return fmt.Errorf("translate: unknown op %v", op)
	}
	_, err := m.lpp.AddConstraint(append(coefs, lp.Coef{Var: ind, Val: M}), op, rhs+M)
	return err
}

// newIndicator allocates a fresh 0/1 indicator variable.
func (m *Model) newIndicator() (int, error) {
	j := m.NumTupleVars + m.indicators
	if j >= m.lpp.NumVars() {
		return 0, fmt.Errorf("translate: indicator budget exhausted (internal error)")
	}
	if err := m.lpp.SetBounds(j, 0, 1); err != nil {
		return 0, err
	}
	m.MILP.SetInteger(j)
	m.indicators++
	return j, nil
}

// eps is the strict-inequality tolerance, scaled to the constant.
func eps(c float64) float64 { return 1e-6 * (1 + math.Abs(c)) }
