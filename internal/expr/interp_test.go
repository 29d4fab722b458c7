package expr

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/value"
)

// interpret is the tree-walking interpreter evaluation ran before it
// compiled: one recursive call per node, a value.V built at each. It is
// kept here only as the oracle the compiled closures are held to, value,
// NULL-ness and error text alike. A node defined outside this package
// runs its own Eval, as it does compiled.
func interpret(e Expr, row schema.Row) (value.V, error) {
	switch n := e.(type) {
	case *Const:
		return n.Val, nil
	case *Col:
		if n.Idx < 0 {
			return value.Null(), fmt.Errorf("expr: unbound column %s", n.String())
		}
		if n.Idx >= len(row) {
			return value.Null(), fmt.Errorf("expr: column %s ordinal %d out of range for %d-wide row", n.String(), n.Idx, len(row))
		}
		return row[n.Idx], nil
	case *Binary:
		return interpretBinary(n, row)
	case *Not:
		v, err := interpret(n.X, row)
		if err != nil {
			return value.Null(), err
		}
		b, null := v.Truthy()
		if null {
			return value.Null(), nil
		}
		return value.Bool(!b), nil
	case *Neg:
		v, err := interpret(n.X, row)
		if err != nil {
			return value.Null(), err
		}
		return v.Neg()
	case *Between:
		ge := &Binary{Op: OpGe, L: n.X, R: n.Lo}
		le := &Binary{Op: OpLe, L: n.X, R: n.Hi}
		v, err := interpret(&Binary{Op: OpAnd, L: ge, R: le}, row)
		if err != nil {
			return value.Null(), err
		}
		if !n.Invert {
			return v, nil
		}
		t, null := v.Truthy()
		if null {
			return value.Null(), nil
		}
		return value.Bool(!t), nil
	case *InList:
		return interpretIn(n, row)
	case *IsNull:
		v, err := interpret(n.X, row)
		if err != nil {
			return value.Null(), err
		}
		if n.Invert {
			return value.Bool(!v.IsNull()), nil
		}
		return value.Bool(v.IsNull()), nil
	case *Like:
		x, err := interpret(n.X, row)
		if err != nil {
			return value.Null(), err
		}
		p, err := interpret(n.Pattern, row)
		if err != nil {
			return value.Null(), err
		}
		if x.IsNull() || p.IsNull() {
			return value.Null(), nil
		}
		if x.Kind() != value.KindString || p.Kind() != value.KindString {
			return value.Null(), fmt.Errorf("expr: LIKE requires string operands")
		}
		m := likeMatch([]rune(x.StrVal()), []rune(p.StrVal()))
		return value.Bool(m != n.Invert), nil
	case *Call:
		args := make([]value.V, len(n.Args))
		for i, a := range n.Args {
			v, err := interpret(a, row)
			if err != nil {
				return value.Null(), err
			}
			args[i] = v
		}
		return callBuiltin(n.Name, args)
	}
	return e.Eval(row)
}

func interpretBinary(b *Binary, row schema.Row) (value.V, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		return interpretLogic(b, row)
	}
	l, err := interpret(b.L, row)
	if err != nil {
		return value.Null(), err
	}
	r, err := interpret(b.R, row)
	if err != nil {
		return value.Null(), err
	}
	switch b.Op {
	case OpAdd:
		return l.Add(r)
	case OpSub:
		return l.Sub(r)
	case OpMul:
		return l.Mul(r)
	case OpDiv:
		return l.Div(r)
	case OpMod:
		return l.Mod(r)
	}
	cmp, null := l.Compare(r)
	if null {
		return value.Null(), nil
	}
	var res bool
	switch b.Op {
	case OpEq:
		res = cmp == 0
	case OpNe:
		res = cmp != 0
	case OpLt:
		res = cmp < 0
	case OpLe:
		res = cmp <= 0
	case OpGt:
		res = cmp > 0
	case OpGe:
		res = cmp >= 0
	default:
		return value.Null(), fmt.Errorf("expr: unknown operator %v", b.Op)
	}
	return value.Bool(res), nil
}

func interpretLogic(b *Binary, row schema.Row) (value.V, error) {
	l, err := interpret(b.L, row)
	if err != nil {
		return value.Null(), err
	}
	lv, lnull := l.Truthy()
	// Short-circuit where three-valued logic allows it.
	if b.Op == OpAnd && !lnull && !lv {
		return value.Bool(false), nil
	}
	if b.Op == OpOr && !lnull && lv {
		return value.Bool(true), nil
	}
	r, err := interpret(b.R, row)
	if err != nil {
		return value.Null(), err
	}
	rv, rnull := r.Truthy()
	if b.Op == OpAnd {
		switch {
		case !rnull && !rv:
			return value.Bool(false), nil
		case lnull || rnull:
			return value.Null(), nil
		default:
			return value.Bool(true), nil
		}
	}
	switch {
	case !rnull && rv:
		return value.Bool(true), nil
	case lnull || rnull:
		return value.Null(), nil
	default:
		return value.Bool(false), nil
	}
}

func interpretIn(in *InList, row schema.Row) (value.V, error) {
	x, err := interpret(in.X, row)
	if err != nil {
		return value.Null(), err
	}
	sawNull := x.IsNull()
	found := false
	if !sawNull {
		for _, e := range in.List {
			v, err := interpret(e, row)
			if err != nil {
				return value.Null(), err
			}
			cmp, null := x.Compare(v)
			if null {
				sawNull = true
				continue
			}
			if cmp == 0 {
				found = true
				break
			}
		}
	}
	switch {
	case found:
		return value.Bool(!in.Invert), nil
	case sawNull:
		return value.Null(), nil
	default:
		return value.Bool(in.Invert), nil
	}
}

// interpretWhere is a predicate under the interpreter: NULL (unknown)
// counts as false, per SQL WHERE semantics.
func interpretWhere(e Expr, row schema.Row) (bool, error) {
	v, err := interpret(e, row)
	if err != nil {
		return false, err
	}
	b, null := v.Truthy()
	return b && !null, nil
}

// interpretTerm is the aggregate's view of one tuple under the
// interpreter.
func interpretTerm(a *Agg, row schema.Row) (value.V, bool, error) {
	if a.Filter != nil {
		if ok, err := interpretWhere(a.Filter, row); err != nil || !ok {
			return value.Null(), false, err
		}
	}
	if a.Star {
		return value.Int(1), true, nil
	}
	v, err := interpret(a.Arg, row)
	return v, err == nil && !v.IsNull(), err
}
