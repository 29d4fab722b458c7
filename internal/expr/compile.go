package expr

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// valueFn is a compiled node read as a value.
type valueFn func(row schema.Row) (value.V, error)

// testFn is a compiled node read as a truth value: three-valued, val or
// null for unknown, without a value.V built for it. On an error val and
// null are false.
type testFn func(row schema.Row) (val, null bool, err error)

// CompileWhere turns a bound predicate into a closure that reports
// whether a row satisfies it. NULL (unknown) counts as false, per SQL
// WHERE semantics, and a nil predicate is satisfied by every row.
func CompileWhere(e Expr) func(row schema.Row) (bool, error) {
	if e == nil {
		return func(schema.Row) (bool, error) { return true, nil }
	}
	t := compileTest(e)
	return func(row schema.Row) (bool, error) {
		b, null, err := t(row)
		return b && !null, err
	}
}

// Compile turns a bound expression into a closure that evaluates it
// against one row. A loop over rows compiles once and calls the closure
// per row; the closure neither allocates for a boolean node nor calls
// through the Expr interface for a built-in one. It reads column
// ordinals as they are at compile time. A boolean node is compiled as a
// test and read as a Bool or NULL; a node defined outside this package
// (Agg included) runs its own Eval.
func Compile(e Expr) func(row schema.Row) (value.V, error) {
	switch n := e.(type) {
	case *Const:
		v := n.Val
		return func(schema.Row) (value.V, error) { return v, nil }
	case *Col:
		return compileCol(n)
	case *Binary:
		if arith := arithmetic(n.Op); arith != nil {
			l, r := Compile(n.L), Compile(n.R)
			return func(row schema.Row) (value.V, error) {
				lv, err := l(row)
				if err != nil {
					return value.Null(), err
				}
				rv, err := r(row)
				if err != nil {
					return value.Null(), err
				}
				return arith(lv, rv)
			}
		}
	case *Neg:
		x := Compile(n.X)
		return func(row schema.Row) (value.V, error) {
			v, err := x(row)
			if err != nil {
				return value.Null(), err
			}
			return v.Neg()
		}
	case *Call:
		args := make([]valueFn, len(n.Args))
		for i, a := range n.Args {
			args[i] = Compile(a)
		}
		name := n.Name
		return func(row schema.Row) (value.V, error) {
			vals := make([]value.V, len(args))
			for i, a := range args {
				v, err := a(row)
				if err != nil {
					return value.Null(), err
				}
				vals[i] = v
			}
			return callBuiltin(name, vals)
		}
	case *Not, *Between, *InList, *IsNull, *Like:
		// Boolean nodes, as are AND, OR and the comparisons: below.
	default:
		return e.Eval
	}
	t := compileTest(e)
	return func(row schema.Row) (value.V, error) {
		b, null, err := t(row)
		if err != nil || null {
			return value.Null(), err
		}
		return value.Bool(b), nil
	}
}

// compileTest builds the closure tree of e read as a truth value. A node
// that is no boolean is compiled as a value and read through Truthy.
func compileTest(e Expr) testFn {
	switch n := e.(type) {
	case *Const:
		b, null := n.Val.Truthy()
		return func(schema.Row) (bool, bool, error) { return b, null, nil }
	case *Binary:
		switch {
		case n.Op == OpAnd || n.Op == OpOr:
			var terms []testFn
			for _, x := range operands(n, n.Op, nil) {
				terms = append(terms, compileTest(x))
			}
			return compileLogic(n.Op == OpAnd, terms)
		case arithmetic(n.Op) == nil:
			return compileCompare(n)
		}
	case *Not:
		x := compileTest(n.X)
		return func(row schema.Row) (bool, bool, error) {
			b, null, err := x(row)
			if err != nil || null {
				return false, null, err
			}
			return !b, false, nil
		}
	case *Between:
		return compileBetween(n)
	case *InList:
		return compileIn(n)
	case *IsNull:
		x, invert := Compile(n.X), n.Invert
		return func(row schema.Row) (bool, bool, error) {
			v, err := x(row)
			if err != nil {
				return false, false, err
			}
			return v.IsNull() != invert, false, nil
		}
	case *Like:
		return compileLike(n)
	}
	ev := Compile(e)
	return func(row schema.Row) (bool, bool, error) {
		v, err := ev(row)
		if err != nil {
			return false, false, err
		}
		b, null := v.Truthy()
		return b, null, nil
	}
}

// arithmetic is the value helper of an arithmetic operator, nil for any
// other operator.
func arithmetic(op BinOp) func(value.V, value.V) (value.V, error) {
	switch op {
	case OpAdd:
		return value.V.Add
	case OpSub:
		return value.V.Sub
	case OpMul:
		return value.V.Mul
	case OpDiv:
		return value.V.Div
	case OpMod:
		return value.V.Mod
	}
	return nil
}

// compileCol reads the cell at the column's ordinal; an unbound column
// or a row too narrow for the ordinal is an error on every row it meets.
func compileCol(c *Col) valueFn {
	idx := c.Idx
	if idx < 0 {
		err := fmt.Errorf("expr: unbound column %s", c.String())
		return func(schema.Row) (value.V, error) { return value.Null(), err }
	}
	return func(row schema.Row) (value.V, error) {
		if idx >= len(row) {
			return value.Null(), c.rangeErr(row)
		}
		return row[idx], nil
	}
}

func (c *Col) rangeErr(row schema.Row) error {
	return fmt.Errorf("expr: column %s ordinal %d out of range for %d-wide row", c.String(), c.Idx, len(row))
}

// operands appends the operands of a chain of op (AND or OR) to out,
// left to right, however the chain nests.
func operands(e Expr, op BinOp, out []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == op {
		return operands(b.R, op, operands(b.L, op, out))
	}
	return append(out, e)
}

// compileLogic is Kleene's AND (and true) or OR (and false) over a chain
// of operands: the first operand that is definitely !and decides, and
// none after it is evaluated; else an unknown operand makes the result
// unknown. Nested two at a time the chain evaluates the same operands in
// the same order and stops at the same one, so it runs as one loop.
func compileLogic(and bool, terms []testFn) testFn {
	return func(row schema.Row) (bool, bool, error) {
		sawNull := false
		for _, t := range terms {
			v, null, err := t(row)
			if err != nil {
				return false, false, err
			}
			if !null && v != and {
				return !and, false, nil
			}
			sawNull = sawNull || null
		}
		if sawNull {
			return false, true, nil
		}
		return and, false, nil
	}
}

// outcomes is the set of Compare results, as bits less (1), equal (2) and
// greater (4), for which a comparison operator holds; ok is false for an
// operator that is no comparison.
func outcomes(op BinOp) (set uint8, ok bool) {
	switch op {
	case OpEq:
		return 2, true
	case OpNe:
		return 5, true
	case OpLt:
		return 1, true
	case OpLe:
		return 3, true
	case OpGt:
		return 4, true
	case OpGe:
		return 6, true
	}
	return 0, false
}

// holds reports whether a Compare result is in the set.
func holds(set uint8, cmp int) bool { return set>>(cmp+1)&1 != 0 }

// compileCompare compiles a comparison. A bound column against a constant
// reads the cell and compares it in place.
func compileCompare(b *Binary) testFn {
	set, ok := outcomes(b.Op)
	if ok {
		if t := compileColConst(b, set); t != nil {
			return t
		}
	}
	l, r := Compile(b.L), Compile(b.R)
	return func(row schema.Row) (bool, bool, error) {
		lv, err := l(row)
		if err != nil {
			return false, false, err
		}
		rv, err := r(row)
		if err != nil {
			return false, false, err
		}
		cmp, null := lv.Compare(rv)
		switch {
		case null:
			return false, true, nil
		case !ok:
			return false, false, fmt.Errorf("expr: unknown operator %v", b.Op)
		}
		return holds(set, cmp), false, nil
	}
}

// compileColConst is the comparison of a bound column with a constant,
// on either side, or nil for any other comparison.
func compileColConst(b *Binary, set uint8) testFn {
	col, colLeft := b.L.(*Col)
	k, constRight := b.R.(*Const)
	if !colLeft || !constRight {
		var colRight, constLeft bool
		col, colRight = b.R.(*Col)
		k, constLeft = b.L.(*Const)
		if !colRight || !constLeft {
			return nil
		}
	}
	idx := col.Idx
	if idx < 0 {
		return nil
	}
	kv := k.Val
	// Two strings, and a float with a number, are compared in place, with
	// the column on the left and the result negated when it is on the
	// right: both orders are antisymmetric. Equality with a string needs
	// no order, so two strings of unequal length are told apart without
	// reading their bytes. Every other pair is compared through Compare,
	// in the comparison's order.
	ks, kstr := kv.StrVal(), kv.Kind() == value.KindString
	kf, knum := kv.AsFloat()
	eqOnly := kstr && (b.Op == OpEq || b.Op == OpNe)
	return func(row schema.Row) (bool, bool, error) {
		if idx >= len(row) {
			return false, false, col.rangeErr(row)
		}
		cell := &row[idx]
		var cmp int
		switch kind := cell.Kind(); {
		case kind == value.KindString && eqOnly:
			if cell.StrVal() != ks {
				cmp = 1 // for = and <> any unequal outcome reads the same
			}
		case kind == value.KindString && kstr:
			cmp = strings.Compare(cell.StrVal(), ks)
		case kind == value.KindFloat && knum:
			cmp = value.Order(cell.FloatVal(), kf)
		default:
			var null bool
			if colLeft {
				cmp, null = cell.Compare(kv)
			} else {
				cmp, null = kv.Compare(*cell)
			}
			if null {
				return false, true, nil
			}
			return holds(set, cmp), false, nil
		}
		if !colLeft {
			cmp = -cmp
		}
		return holds(set, cmp), false, nil
	}
}

// compileBetween is x >= lo AND x <= hi, optionally negated: hi is not
// evaluated when x < lo decides.
func compileBetween(n *Between) testFn {
	x, lo, hi, invert := Compile(n.X), Compile(n.Lo), Compile(n.Hi), n.Invert
	return func(row schema.Row) (bool, bool, error) {
		xv, err := x(row)
		if err != nil {
			return false, false, err
		}
		lv, err := lo(row)
		if err != nil {
			return false, false, err
		}
		cmp, loNull := xv.Compare(lv)
		if !loNull && cmp < 0 {
			return invert, false, nil
		}
		hv, err := hi(row)
		if err != nil {
			return false, false, err
		}
		cmp, hiNull := xv.Compare(hv)
		switch {
		case !hiNull && cmp > 0:
			return invert, false, nil
		case loNull || hiNull:
			return false, true, nil
		}
		return !invert, false, nil
	}
}

// compileIn is IN with SQL NULL semantics: when no element matches but
// some comparison was NULL the result is NULL. The list is evaluated up
// to the first match.
func compileIn(n *InList) testFn {
	x, invert := Compile(n.X), n.Invert
	list := make([]valueFn, len(n.List))
	for i, e := range n.List {
		list[i] = Compile(e)
	}
	return func(row schema.Row) (bool, bool, error) {
		xv, err := x(row)
		if err != nil {
			return false, false, err
		}
		sawNull := xv.IsNull()
		if !sawNull {
			for _, e := range list {
				v, err := e(row)
				if err != nil {
					return false, false, err
				}
				cmp, null := xv.Compare(v)
				if null {
					sawNull = true
					continue
				}
				if cmp == 0 {
					return !invert, false, nil
				}
			}
		}
		if sawNull {
			return false, true, nil
		}
		return invert, false, nil
	}
}

// compileLike matches the pattern; NULL operands yield NULL and any other
// non-string operand is an error.
func compileLike(n *Like) testFn {
	x, p, invert := Compile(n.X), Compile(n.Pattern), n.Invert
	return func(row schema.Row) (bool, bool, error) {
		xv, err := x(row)
		if err != nil {
			return false, false, err
		}
		pv, err := p(row)
		if err != nil {
			return false, false, err
		}
		if xv.IsNull() || pv.IsNull() {
			return false, true, nil
		}
		if xv.Kind() != value.KindString || pv.Kind() != value.KindString {
			return false, false, fmt.Errorf("expr: LIKE requires string operands")
		}
		return likeMatch([]rune(xv.StrVal()), []rune(pv.StrVal())) != invert, false, nil
	}
}
