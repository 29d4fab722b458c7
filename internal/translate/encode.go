package translate

import (
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/lp"
	"repro/internal/paql"
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
	// constants and anything else (the analyzer rejects non-linear
	// shapes before translation)
	if neg {
		return &bAtom{e: &expr.Not{X: e}}
	}
	return &bAtom{e: e}
}

// encodeFormula emits rows for node. ind == -1 means the node must hold
// unconditionally; otherwise its rows activate when indicator ind is 1.
func (m *Model) encodeFormula(node bnode, ind int) error {
	switch n := node.(type) {
	case *bAnd:
		for _, k := range n.kids {
			if err := m.encodeFormula(k, ind); err != nil {
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
			if err := m.encodeFormula(k, y); err != nil {
				return err
			}
		}
		if ind < 0 {
			// At least one branch holds.
			_, err := m.lpp.AddConstraint(kidInds, lp.GE, 1)
			return err
		}
		// y ≤ Σ y_k
		coefs := append([]lp.Coef{{Var: ind, Val: 1}}, negate(kidInds)...)
		_, err := m.lpp.AddConstraint(coefs, lp.LE, 0)
		return err
	case *bAtom:
		return m.encodeAtom(n.e, ind)
	}
	return fmt.Errorf("translate: unknown formula node %T", node)
}

func negate(cs []lp.Coef) []lp.Coef {
	out := make([]lp.Coef, len(cs))
	for i, c := range cs {
		out[i] = lp.Coef{Var: c.Var, Val: -c.Val}
	}
	return out
}

// encodeAtom emits rows for one comparison (or constant boolean).
func (m *Model) encodeAtom(e expr.Expr, ind int) error {
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
	b, ok := e.(*expr.Binary)
	if !ok || !b.Op.Comparison() {
		return fmt.Errorf("translate: unsupported global atom %s", e)
	}
	// Special aggregate on one side vs a constant on the other?
	if agg, c, op, ok, err := m.specialAtom(b); err != nil {
		return err
	} else if ok {
		switch agg.Fn {
		case "AVG":
			return m.encodeAvg(agg, op, c, ind)
		case "MIN", "MAX":
			return m.encodeMinMax(agg, op, c, ind)
		}
	}
	// Affine comparison: L - R ⋛ 0.
	l, err := m.affineForm(b.L)
	if err != nil {
		return err
	}
	r, err := m.affineForm(b.R)
	if err != nil {
		return err
	}
	diff := newAffine()
	diff.addScaled(l, 1)
	diff.addScaled(r, -1)
	w := make([]float64, m.NumTupleVars)
	for key, coef := range diff.coeffs {
		if coef == 0 {
			continue
		}
		aw, err := m.aggWeights(diff.aggs[key])
		if err != nil {
			return err
		}
		for i, wi := range aw {
			w[i] += coef * wi
		}
	}
	rhs := -diff.konst // Σ w·x + konst ⋛ 0  →  Σ w·x ⋛ −konst
	switch b.Op {
	case expr.OpLe:
		return m.addRow(w, lp.LE, rhs, ind)
	case expr.OpLt:
		return m.addRow(w, lp.LE, rhs-eps(rhs), ind)
	case expr.OpGe:
		return m.addRow(w, lp.GE, rhs, ind)
	case expr.OpGt:
		return m.addRow(w, lp.GE, rhs+eps(rhs), ind)
	case expr.OpEq:
		if err := m.addRow(w, lp.LE, rhs, ind); err != nil {
			return err
		}
		return m.addRow(w, lp.GE, rhs, ind)
	case expr.OpNe:
		return fmt.Errorf("translate: <> over aggregates has no exact linear form")
	}
	return fmt.Errorf("translate: unsupported comparison %s", b.Op)
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
func (m *Model) specialAtom(b *expr.Binary) (*paql.Agg, float64, expr.BinOp, bool, error) {
	if a, ok := b.L.(*paql.Agg); ok && (a.Fn == "AVG" || a.Fn == "MIN" || a.Fn == "MAX") {
		c, err := m.constSide(b.R)
		if err != nil {
			return nil, 0, 0, false, err
		}
		return a, c, b.Op, true, nil
	}
	if a, ok := b.R.(*paql.Agg); ok && (a.Fn == "AVG" || a.Fn == "MIN" || a.Fn == "MAX") {
		c, err := m.constSide(b.L)
		if err != nil {
			return nil, 0, 0, false, err
		}
		return a, c, b.Op.Flip(), true, nil
	}
	return nil, 0, 0, false, nil
}

func (m *Model) constSide(e expr.Expr) (float64, error) {
	f, err := m.affineForm(e)
	if err != nil {
		return 0, err
	}
	if !f.isConst() {
		return 0, fmt.Errorf("translate: %s must be constant opposite an AVG/MIN/MAX aggregate", e)
	}
	return f.konst, nil
}

// encodeAvg emits SUM(arg·w) − c·N ⋛ 0 plus the non-empty guard N ≥ 1,
// where N counts tuples entering the average.
func (m *Model) encodeAvg(a *paql.Agg, op expr.BinOp, c float64, ind int) error {
	sum := &paql.Agg{Fn: "SUM", Arg: a.Arg, Filter: a.Filter}
	sw, err := m.aggWeights(sum)
	if err != nil {
		return err
	}
	cnt := &paql.Agg{Fn: "COUNT", Arg: a.Arg, Filter: a.Filter}
	cw, err := m.aggWeights(cnt)
	if err != nil {
		return err
	}
	w := make([]float64, m.NumTupleVars)
	for i := range w {
		w[i] = sw[i] - c*cw[i]
	}
	switch op {
	case expr.OpLe:
		err = m.addRow(w, lp.LE, 0, ind)
	case expr.OpLt:
		err = m.addRow(w, lp.LE, -eps(c), ind)
	case expr.OpGe:
		err = m.addRow(w, lp.GE, 0, ind)
	case expr.OpGt:
		err = m.addRow(w, lp.GE, eps(c), ind)
	default:
		return fmt.Errorf("translate: AVG %s has no exact linear form", op)
	}
	if err != nil {
		return err
	}
	// guard: the average exists
	return m.addRow(cw, lp.GE, 1, ind)
}

// encodeMinMax rewrites MIN/MAX comparisons into elimination and
// at-least-one rows (the package comment states the rewrite).
func (m *Model) encodeMinMax(a *paql.Agg, op expr.BinOp, c float64, ind int) error {
	// present_i: tuple contributes to the aggregate at all
	present, err := m.filterPresence(a)
	if err != nil {
		return err
	}
	vals := make([]float64, m.NumTupleVars)
	for i, row := range m.Candidates {
		if !present[i] {
			continue
		}
		v, err := a.Arg.Eval(row)
		if err != nil {
			return err
		}
		f, _ := v.AsFloat()
		vals[i] = f
	}
	selector := func(pred func(float64) bool) []float64 {
		w := make([]float64, m.NumTupleVars)
		for i := range w {
			if present[i] && pred(vals[i]) {
				w[i] = 1
			}
		}
		return w
	}
	presentW := selector(func(float64) bool { return true })

	isMin := a.Fn == "MIN"
	switch {
	case (isMin && (op == expr.OpGe || op == expr.OpGt)) || (!isMin && (op == expr.OpLe || op == expr.OpLt)):
		// Eliminate violating tuples; require a survivor.
		var bad []float64
		switch {
		case isMin && op == expr.OpGe:
			bad = selector(func(v float64) bool { return v < c })
		case isMin && op == expr.OpGt:
			bad = selector(func(v float64) bool { return v <= c })
		case !isMin && op == expr.OpLe:
			bad = selector(func(v float64) bool { return v > c })
		default: // MAX <
			bad = selector(func(v float64) bool { return v >= c })
		}
		if err := m.addRow(bad, lp.LE, 0, ind); err != nil {
			return err
		}
		return m.addRow(presentW, lp.GE, 1, ind)
	case (isMin && (op == expr.OpLe || op == expr.OpLt)) || (!isMin && (op == expr.OpGe || op == expr.OpGt)):
		// At least one tuple on the right side of the threshold.
		var good []float64
		switch {
		case isMin && op == expr.OpLe:
			good = selector(func(v float64) bool { return v <= c })
		case isMin && op == expr.OpLt:
			good = selector(func(v float64) bool { return v < c })
		case !isMin && op == expr.OpGe:
			good = selector(func(v float64) bool { return v >= c })
		default: // MAX >
			good = selector(func(v float64) bool { return v > c })
		}
		return m.addRow(good, lp.GE, 1, ind)
	}
	return fmt.Errorf("translate: %s %s has no exact linear form", a.Fn, op)
}

// filterPresence marks candidates whose argument is non-NULL and whose
// filter passes.
func (m *Model) filterPresence(a *paql.Agg) ([]bool, error) {
	out := make([]bool, m.NumTupleVars)
	for i, row := range m.Candidates {
		if a.Filter != nil {
			ok, err := expr.EvalBool(a.Filter, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if a.Arg != nil {
			v, err := a.Arg.Eval(row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
		}
		out[i] = true
	}
	return out, nil
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
	case lp.LE:
		coefs = append(coefs, lp.Coef{Var: ind, Val: M})
		_, err := m.lpp.AddConstraint(coefs, lp.LE, rhs+M)
		return err
	case lp.GE:
		coefs = append(coefs, lp.Coef{Var: ind, Val: -M})
		_, err := m.lpp.AddConstraint(coefs, lp.GE, rhs-M)
		return err
	case lp.EQ:
		le := append(append([]lp.Coef{}, coefs...), lp.Coef{Var: ind, Val: M})
		if _, err := m.lpp.AddConstraint(le, lp.LE, rhs+M); err != nil {
			return err
		}
		ge := append(coefs, lp.Coef{Var: ind, Val: -M})
		_, err := m.lpp.AddConstraint(ge, lp.GE, rhs-M)
		return err
	}
	return fmt.Errorf("translate: unknown op %v", op)
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
