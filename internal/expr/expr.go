// Package expr implements the scalar expression language shared by the
// minidb SQL engine and the PaQL front-end: literals, column references,
// arithmetic, comparisons, three-valued boolean logic, BETWEEN/IN/LIKE/IS
// NULL, and a small set of scalar functions.
//
// Expressions are built by the parsers with unresolved column references
// and then bound to a schema with Bind, which fills in column ordinals.
// String renders the expression back to SQL text that the minidb parser
// accepts — the §4.2 local-search strategy relies on this to generate its
// replacement queries.
//
// Evaluation compiles once and then calls one closure per row. Compile
// (a value) and CompileWhere (a predicate) turn a bound expression into a
// tree of closures before a scan: a boolean node answers its truth and
// NULL-ness without building a value.V, a comparison of a bound column
// with a constant reads the cell in place, and every other node calls the
// value helpers (Compare, Add, Neg, ...). Agg.Term compiles an aggregate's
// view of one tuple the same way. NULL follows SQL: it propagates through
// arithmetic and comparisons, AND and OR are Kleene's three-valued logic
// and evaluate an operand only when the ones before it do not decide, and
// a WHERE counts NULL as false. An error — an unbound or out-of-range
// column, an operand of the wrong type, an unknown function — is raised
// by the row that meets it, with the same text on every such row, so a
// scan over no rows raises none. A node's Eval compiles the node and runs
// it, for one-off evaluation; a node defined outside this package is
// compiled as a call to its own Eval.
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
func (c *Col) Eval(row schema.Row) (value.V, error) { return Compile(c)(row) }

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
func (b *Binary) Eval(row schema.Row) (value.V, error) { return Compile(b)(row) }

// String renders the operation with parentheses that re-parse correctly.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Not is logical negation with three-valued semantics (NOT NULL = NULL).
type Not struct{ X Expr }

// Eval negates the operand.
func (n *Not) Eval(row schema.Row) (value.V, error) { return Compile(n)(row) }

// String renders "NOT (x)".
func (n *Not) String() string { return "(NOT " + n.X.String() + ")" }

// Neg is arithmetic negation.
type Neg struct{ X Expr }

// Eval negates the numeric operand.
func (n *Neg) Eval(row schema.Row) (value.V, error) { return Compile(n)(row) }

// String renders "(-x)".
func (n *Neg) String() string { return "(-" + n.X.String() + ")" }

// Between is "x [NOT] BETWEEN lo AND hi" (inclusive on both ends).
type Between struct {
	X, Lo, Hi Expr
	Invert    bool
}

// Eval implements BETWEEN as (x >= lo AND x <= hi) with NULL semantics.
func (b *Between) Eval(row schema.Row) (value.V, error) { return Compile(b)(row) }

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
func (in *InList) Eval(row schema.Row) (value.V, error) { return Compile(in)(row) }

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
func (is *IsNull) Eval(row schema.Row) (value.V, error) { return Compile(is)(row) }

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
func (l *Like) Eval(row schema.Row) (value.V, error) { return Compile(l)(row) }

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
func (c *Call) Eval(row schema.Row) (value.V, error) { return Compile(c)(row) }

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
	eachChild(e, func(c Expr) { Walk(c, fn) })
}

// Deeper reports whether the tree rooted at e is more than limit nodes
// tall. It stops descending at the limit, so it recurses at most limit
// deep itself however tall e is.
func Deeper(e Expr, limit int) bool {
	if e == nil {
		return false
	}
	if limit <= 0 {
		return true
	}
	deeper := false
	eachChild(e, func(c Expr) { deeper = deeper || Deeper(c, limit-1) })
	return deeper
}

// eachChild calls fn on each direct sub-expression of e, in order.
func eachChild(e Expr, fn func(Expr)) {
	switch n := e.(type) {
	case *Binary:
		fn(n.L)
		fn(n.R)
	case *Not:
		fn(n.X)
	case *Neg:
		fn(n.X)
	case *Between:
		fn(n.X)
		fn(n.Lo)
		fn(n.Hi)
	case *InList:
		fn(n.X)
		for _, it := range n.List {
			fn(it)
		}
	case *IsNull:
		fn(n.X)
	case *Like:
		fn(n.X)
		fn(n.Pattern)
	case *Call:
		for _, a := range n.Args {
			fn(a)
		}
	case Container:
		for _, c := range n.Children() {
			fn(c)
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
