// Package expr implements the scalar expression language shared by the
// minidb SQL engine and the PaQL front-end: literals, column references,
// arithmetic, comparisons, three-valued boolean logic, BETWEEN/IN/LIKE/IS
// NULL, and a small set of scalar functions.
//
// Expressions are built by the parsers with unresolved column references
// and then bound to a schema with Bind, which fills in column ordinals.
// Eval evaluates a bound expression against a row. String renders the
// expression back to SQL text that the minidb parser accepts — the §4.2
// local-search strategy relies on this to generate its replacement
// queries.
package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// Expr is a scalar expression node.
type Expr interface {
	// Eval evaluates the expression against a row. Column references
	// must have been resolved with Bind first.
	Eval(row schema.Row) (value.V, error)
	// String renders SQL text for the expression.
	String() string
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// String returns the SQL spelling of the operator.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	}
	return fmt.Sprintf("BinOp(%d)", uint8(op))
}

// Comparison reports whether the operator is a comparison (=, <>, <, <=, >, >=).
func (op BinOp) Comparison() bool { return op >= OpEq && op <= OpGe }

// Arithmetic reports whether the operator is numeric arithmetic.
func (op BinOp) Arithmetic() bool { return op <= OpMod }

// Flip returns the comparison with sides exchanged (a < b  ==>  b > a).
func (op BinOp) Flip() BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// Negate returns the logical complement of a comparison (a < b ==> a >= b).
func (op BinOp) Negate() (BinOp, bool) {
	switch op {
	case OpEq:
		return OpNe, true
	case OpNe:
		return OpEq, true
	case OpLt:
		return OpGe, true
	case OpLe:
		return OpGt, true
	case OpGt:
		return OpLe, true
	case OpGe:
		return OpLt, true
	}
	return op, false
}

// Const is a literal datum.
type Const struct{ Val value.V }

// Eval returns the literal.
func (c *Const) Eval(schema.Row) (value.V, error) { return c.Val, nil }

// String renders the literal as SQL.
func (c *Const) String() string { return c.Val.SQLString() }

// Col is a (possibly qualified) column reference. Idx is -1 until Bind
// resolves it against a schema.
type Col struct {
	Table string
	Name  string
	Idx   int
}

// NewCol builds an unresolved column reference.
func NewCol(table, name string) *Col { return &Col{Table: table, Name: name, Idx: -1} }

// Eval returns the referenced datum from the row.
func (c *Col) Eval(row schema.Row) (value.V, error) {
	if c.Idx < 0 {
		return value.Null(), fmt.Errorf("expr: unbound column %s", c.String())
	}
	if c.Idx >= len(row) {
		return value.Null(), fmt.Errorf("expr: column %s ordinal %d out of range for %d-wide row", c.String(), c.Idx, len(row))
	}
	return row[c.Idx], nil
}

// String renders "table.name" or "name".
func (c *Col) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Eval applies the operator with SQL semantics: NULL propagates through
// arithmetic and comparisons; AND/OR use Kleene three-valued logic.
func (b *Binary) Eval(row schema.Row) (value.V, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		return b.evalLogic(row)
	}
	l, err := b.L.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	r, err := b.R.Eval(row)
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

func (b *Binary) evalLogic(row schema.Row) (value.V, error) {
	l, err := b.L.Eval(row)
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
	r, err := b.R.Eval(row)
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

// String renders the operation with parentheses that re-parse correctly.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Not is logical negation with three-valued semantics (NOT NULL = NULL).
type Not struct{ X Expr }

// Eval negates the operand.
func (n *Not) Eval(row schema.Row) (value.V, error) {
	v, err := n.X.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	b, null := v.Truthy()
	if null {
		return value.Null(), nil
	}
	return value.Bool(!b), nil
}

// String renders "NOT (x)".
func (n *Not) String() string { return "(NOT " + n.X.String() + ")" }

// Neg is arithmetic negation.
type Neg struct{ X Expr }

// Eval negates the numeric operand.
func (n *Neg) Eval(row schema.Row) (value.V, error) {
	v, err := n.X.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	return v.Neg()
}

// String renders "(-x)".
func (n *Neg) String() string { return "(-" + n.X.String() + ")" }

// Between is "x [NOT] BETWEEN lo AND hi" (inclusive on both ends).
type Between struct {
	X, Lo, Hi Expr
	Invert    bool
}

// Eval implements BETWEEN as (x >= lo AND x <= hi) with NULL semantics.
func (b *Between) Eval(row schema.Row) (value.V, error) {
	ge := &Binary{Op: OpGe, L: b.X, R: b.Lo}
	le := &Binary{Op: OpLe, L: b.X, R: b.Hi}
	v, err := (&Binary{Op: OpAnd, L: ge, R: le}).Eval(row)
	if err != nil {
		return value.Null(), err
	}
	if !b.Invert {
		return v, nil
	}
	t, null := v.Truthy()
	if null {
		return value.Null(), nil
	}
	return value.Bool(!t), nil
}

// String renders the BETWEEN form.
func (b *Between) String() string {
	not := ""
	if b.Invert {
		not = "NOT "
	}
	return "(" + b.X.String() + " " + not + "BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

// InList is "x [NOT] IN (e1, e2, ...)".
type InList struct {
	X      Expr
	List   []Expr
	Invert bool
}

// Eval implements IN with SQL NULL semantics: if no element matches but
// some comparison was NULL, the result is NULL.
func (in *InList) Eval(row schema.Row) (value.V, error) {
	x, err := in.X.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	sawNull := x.IsNull()
	found := false
	if !sawNull {
		for _, e := range in.List {
			v, err := e.Eval(row)
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

// String renders the IN form.
func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	not := ""
	if in.Invert {
		not = "NOT "
	}
	return "(" + in.X.String() + " " + not + "IN (" + strings.Join(parts, ", ") + "))"
}

// IsNull is "x IS [NOT] NULL".
type IsNull struct {
	X      Expr
	Invert bool
}

// Eval never returns NULL: IS NULL is a definite predicate.
func (is *IsNull) Eval(row schema.Row) (value.V, error) {
	v, err := is.X.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	if is.Invert {
		return value.Bool(!v.IsNull()), nil
	}
	return value.Bool(v.IsNull()), nil
}

// String renders the IS NULL form.
func (is *IsNull) String() string {
	if is.Invert {
		return "(" + is.X.String() + " IS NOT NULL)"
	}
	return "(" + is.X.String() + " IS NULL)"
}

// Like is "x [NOT] LIKE pattern" with % (any sequence) and _ (any rune).
type Like struct {
	X, Pattern Expr
	Invert     bool
}

// Eval matches the pattern; NULL operands yield NULL.
func (l *Like) Eval(row schema.Row) (value.V, error) {
	x, err := l.X.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	p, err := l.Pattern.Eval(row)
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
	return value.Bool(m != l.Invert), nil
}

func likeMatch(s, p []rune) bool {
	// Iterative wildcard matching with backtracking on the last %.
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// String renders the LIKE form.
func (l *Like) String() string {
	not := ""
	if l.Invert {
		not = "NOT "
	}
	return "(" + l.X.String() + " " + not + "LIKE " + l.Pattern.String() + ")"
}

// Call is a scalar function invocation.
type Call struct {
	Name string // canonical upper-case name
	Args []Expr
}

// Eval dispatches to the built-in function table.
func (c *Call) Eval(row schema.Row) (value.V, error) {
	args := make([]value.V, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(row)
		if err != nil {
			return value.Null(), err
		}
		args[i] = v
	}
	return callBuiltin(c.Name, args)
}

// String renders "NAME(arg, ...)".
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// KnownFunc reports whether name is a built-in scalar function.
func KnownFunc(name string) bool {
	switch strings.ToUpper(name) {
	case "ABS", "FLOOR", "CEIL", "ROUND", "SQRT", "POW", "EXP", "LN",
		"LOWER", "UPPER", "LENGTH", "COALESCE", "LEAST", "GREATEST":
		return true
	}
	return false
}

func callBuiltin(name string, args []value.V) (value.V, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("expr: %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	num := func(i int) (float64, bool, error) {
		if args[i].IsNull() {
			return 0, true, nil
		}
		f, ok := args[i].AsFloat()
		if !ok {
			return 0, false, fmt.Errorf("expr: %s expects numeric argument, got %s", name, args[i].Kind())
		}
		return f, false, nil
	}
	switch name {
	case "ABS":
		if err := need(1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		if args[0].Kind() == value.KindInt {
			i := args[0].IntVal()
			if i < 0 {
				i = -i
			}
			return value.Int(i), nil
		}
		f, _, err := num(0)
		if err != nil {
			return value.Null(), err
		}
		return value.Float(math.Abs(f)), nil
	case "FLOOR", "CEIL", "ROUND", "SQRT", "EXP", "LN":
		if err := need(1); err != nil {
			return value.Null(), err
		}
		f, null, err := num(0)
		if err != nil || null {
			return value.Null(), err
		}
		switch name {
		case "FLOOR":
			return value.Float(math.Floor(f)), nil
		case "CEIL":
			return value.Float(math.Ceil(f)), nil
		case "ROUND":
			return value.Float(math.Round(f)), nil
		case "SQRT":
			if f < 0 {
				return value.Null(), nil
			}
			return value.Float(math.Sqrt(f)), nil
		case "EXP":
			return value.Float(math.Exp(f)), nil
		default: // LN
			if f <= 0 {
				return value.Null(), nil
			}
			return value.Float(math.Log(f)), nil
		}
	case "POW":
		if err := need(2); err != nil {
			return value.Null(), err
		}
		a, n1, err := num(0)
		if err != nil {
			return value.Null(), err
		}
		b, n2, err := num(1)
		if err != nil {
			return value.Null(), err
		}
		if n1 || n2 {
			return value.Null(), nil
		}
		return value.Float(math.Pow(a, b)), nil
	case "LOWER", "UPPER", "LENGTH":
		if err := need(1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		if args[0].Kind() != value.KindString {
			return value.Null(), fmt.Errorf("expr: %s expects a string argument", name)
		}
		s := args[0].StrVal()
		switch name {
		case "LOWER":
			return value.Str(strings.ToLower(s)), nil
		case "UPPER":
			return value.Str(strings.ToUpper(s)), nil
		default:
			return value.Int(int64(len([]rune(s)))), nil
		}
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null(), nil
	case "LEAST", "GREATEST":
		best := value.Null()
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			if best.IsNull() {
				best = a
				continue
			}
			cmp, _ := a.Compare(best)
			if (name == "LEAST" && cmp < 0) || (name == "GREATEST" && cmp > 0) {
				best = a
			}
		}
		return best, nil
	}
	return value.Null(), fmt.Errorf("expr: unknown function %s", name)
}

// --- extension nodes ---------------------------------------------------------

// Container is implemented by expression nodes defined outside this
// package (aggregate calls, sub-queries). Walk descends into Children,
// and Clone rebuilds the node through CloneWith.
type Container interface {
	Expr
	// Children returns the node's direct sub-expressions.
	Children() []Expr
	// CloneWith returns a copy of the node with the given children
	// (same length and order as Children).
	CloneWith(children []Expr) Expr
}

// --- binding and traversal -------------------------------------------------

// Bind resolves every column reference in e against s, filling in
// ordinals. It returns the first resolution error encountered.
func Bind(e Expr, s schema.Schema) error {
	var firstErr error
	Walk(e, func(n Expr) {
		c, ok := n.(*Col)
		if !ok || firstErr != nil {
			return
		}
		idx, err := s.IndexOf(c.Table, c.Name)
		if err != nil {
			firstErr = err
			return
		}
		c.Idx = idx
	})
	return firstErr
}

// Walk visits every node of the expression tree in pre-order.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *Not:
		Walk(n.X, fn)
	case *Neg:
		Walk(n.X, fn)
	case *Between:
		Walk(n.X, fn)
		Walk(n.Lo, fn)
		Walk(n.Hi, fn)
	case *InList:
		Walk(n.X, fn)
		for _, it := range n.List {
			Walk(it, fn)
		}
	case *IsNull:
		Walk(n.X, fn)
	case *Like:
		Walk(n.X, fn)
		Walk(n.Pattern, fn)
	case *Call:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case Container:
		for _, c := range n.Children() {
			Walk(c, fn)
		}
	}
}

// Key renders the expression for use as a map key: its text, then the
// kind of every constant in walk order. The text alone does not tell two
// expressions apart — a float literal with an integral value renders as
// the integer ("2.0" prints "2") — and the two need not evaluate alike (%
// takes integers only, integer arithmetic wraps where floats round). Text
// is fully parenthesized and strings are quoted, so equal keys mean equal
// trees up to the spelling of column references.
func Key(e Expr) string {
	var b strings.Builder
	b.WriteString(e.String())
	b.WriteByte('|')
	Walk(e, func(n Expr) {
		if c, ok := n.(*Const); ok {
			b.WriteByte('0' + byte(c.Val.Kind()))
		}
	})
	return b.String()
}

// Columns returns the distinct column references in the expression, in
// first-appearance order.
func Columns(e Expr) []*Col {
	var out []*Col
	seen := map[string]bool{}
	Walk(e, func(n Expr) {
		if c, ok := n.(*Col); ok {
			key := strings.ToLower(c.Table) + "." + strings.ToLower(c.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
	})
	return out
}

// Clone deep-copies an expression tree (column bindings included).
func Clone(e Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *Const:
		c := *n
		return &c
	case *Col:
		c := *n
		return &c
	case *Binary:
		return &Binary{Op: n.Op, L: Clone(n.L), R: Clone(n.R)}
	case *Not:
		return &Not{X: Clone(n.X)}
	case *Neg:
		return &Neg{X: Clone(n.X)}
	case *Between:
		return &Between{X: Clone(n.X), Lo: Clone(n.Lo), Hi: Clone(n.Hi), Invert: n.Invert}
	case *InList:
		list := make([]Expr, len(n.List))
		for i, it := range n.List {
			list[i] = Clone(it)
		}
		return &InList{X: Clone(n.X), List: list, Invert: n.Invert}
	case *IsNull:
		return &IsNull{X: Clone(n.X), Invert: n.Invert}
	case *Like:
		return &Like{X: Clone(n.X), Pattern: Clone(n.Pattern), Invert: n.Invert}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Clone(a)
		}
		return &Call{Name: n.Name, Args: args}
	case Container:
		kids := n.Children()
		cloned := make([]Expr, len(kids))
		for i, k := range kids {
			cloned[i] = Clone(k)
		}
		return n.CloneWith(cloned)
	}
	panic(fmt.Sprintf("expr: Clone: unknown node %T", e))
}

// Transform rewrites an expression tree. fn is applied to each node in
// pre-order; returning a non-nil replacement substitutes that subtree
// without descending further, returning nil recurses into children.
// The input tree is not modified; untouched subtrees are shared.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := fn(e); r != nil {
		return r
	}
	switch n := e.(type) {
	case *Const, *Col:
		return e
	case *Binary:
		return &Binary{Op: n.Op, L: Transform(n.L, fn), R: Transform(n.R, fn)}
	case *Not:
		return &Not{X: Transform(n.X, fn)}
	case *Neg:
		return &Neg{X: Transform(n.X, fn)}
	case *Between:
		return &Between{X: Transform(n.X, fn), Lo: Transform(n.Lo, fn), Hi: Transform(n.Hi, fn), Invert: n.Invert}
	case *InList:
		list := make([]Expr, len(n.List))
		for i, it := range n.List {
			list[i] = Transform(it, fn)
		}
		return &InList{X: Transform(n.X, fn), List: list, Invert: n.Invert}
	case *IsNull:
		return &IsNull{X: Transform(n.X, fn), Invert: n.Invert}
	case *Like:
		return &Like{X: Transform(n.X, fn), Pattern: Transform(n.Pattern, fn), Invert: n.Invert}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Transform(a, fn)
		}
		return &Call{Name: n.Name, Args: args}
	case Container:
		kids := n.Children()
		out := make([]Expr, len(kids))
		for i, k := range kids {
			out[i] = Transform(k, fn)
		}
		return n.CloneWith(out)
	}
	panic(fmt.Sprintf("expr: Transform: unknown node %T", e))
}

// EvalBool evaluates a predicate; NULL (unknown) counts as false, per
// SQL WHERE semantics.
func EvalBool(e Expr, row schema.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	b, null := v.Truthy()
	return b && !null, nil
}

// AndAll conjoins expressions; nil for an empty list.
func AndAll(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}
