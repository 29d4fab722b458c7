package expr

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// Rendering of every node type; re-parseability is covered by the parse
// package's round-trip test.
func TestStringAllNodes(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&Const{Val: value.Int(5)}, "5"},
		{&Const{Val: value.Str("a'b")}, "'a''b'"},
		{NewCol("t", "c"), "t.c"},
		{NewCol("", "c"), "c"},
		{&Binary{Op: OpAdd, L: NewCol("", "a"), R: &Const{Val: value.Int(1)}}, "(a + 1)"},
		{&Binary{Op: OpNe, L: NewCol("", "a"), R: &Const{Val: value.Int(1)}}, "(a <> 1)"},
		{&Binary{Op: OpMod, L: NewCol("", "a"), R: &Const{Val: value.Int(2)}}, "(a % 2)"},
		{&Not{X: &Const{Val: value.Bool(true)}}, "(NOT true)"},
		{&Neg{X: NewCol("", "a")}, "(-a)"},
		{&Between{X: NewCol("", "a"), Lo: &Const{Val: value.Int(1)}, Hi: &Const{Val: value.Int(2)}}, "(a BETWEEN 1 AND 2)"},
		{&Between{X: NewCol("", "a"), Lo: &Const{Val: value.Int(1)}, Hi: &Const{Val: value.Int(2)}, Invert: true}, "(a NOT BETWEEN 1 AND 2)"},
		{&InList{X: NewCol("", "a"), List: []Expr{&Const{Val: value.Int(1)}}}, "(a IN (1))"},
		{&InList{X: NewCol("", "a"), List: []Expr{&Const{Val: value.Int(1)}}, Invert: true}, "(a NOT IN (1))"},
		{&IsNull{X: NewCol("", "a")}, "(a IS NULL)"},
		{&IsNull{X: NewCol("", "a"), Invert: true}, "(a IS NOT NULL)"},
		{&Like{X: NewCol("", "a"), Pattern: &Const{Val: value.Str("x%")}}, "(a LIKE 'x%')"},
		{&Like{X: NewCol("", "a"), Pattern: &Const{Val: value.Str("x%")}, Invert: true}, "(a NOT LIKE 'x%')"},
		{&Call{Name: "ABS", Args: []Expr{NewCol("", "a")}}, "ABS(a)"},
		{&Call{Name: "POW", Args: []Expr{NewCol("", "a"), &Const{Val: value.Int(2)}}}, "POW(a, 2)"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestOpStringAll(t *testing.T) {
	want := map[BinOp]string{
		OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
		OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpAnd: "AND", OpOr: "OR",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if BinOp(99).String() == "" {
		t.Error("unknown op should still render")
	}
}

func TestFlipNegateAll(t *testing.T) {
	flips := map[BinOp]BinOp{
		OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe,
		OpEq: OpEq, OpNe: OpNe, OpAdd: OpAdd,
	}
	for op, want := range flips {
		if op.Flip() != want {
			t.Errorf("%v.Flip() = %v, want %v", op, op.Flip(), want)
		}
	}
	negs := map[BinOp]BinOp{
		OpEq: OpNe, OpNe: OpEq, OpLt: OpGe, OpLe: OpGt, OpGt: OpLe, OpGe: OpLt,
	}
	for op, want := range negs {
		got, ok := op.Negate()
		if !ok || got != want {
			t.Errorf("%v.Negate() = %v,%v", op, got, ok)
		}
	}
}

// fakeContainer exercises the Container extension paths in
// Walk/Clone/Transform.
type fakeContainer struct {
	kids []Expr
}

func (f *fakeContainer) Eval(schema.Row) (value.V, error) { return value.Int(7), nil }
func (f *fakeContainer) String() string                   { return "FAKE()" }
func (f *fakeContainer) Children() []Expr                 { return f.kids }
func (f *fakeContainer) CloneWith(kids []Expr) Expr       { return &fakeContainer{kids: kids} }

func TestContainerTraversal(t *testing.T) {
	inner := NewCol("t", "x")
	fc := &fakeContainer{kids: []Expr{inner}}
	root := &Binary{Op: OpAdd, L: fc, R: &Const{Val: value.Int(1)}}

	// Walk descends into container children.
	var cols []*Col
	Walk(root, func(n Expr) {
		if c, ok := n.(*Col); ok {
			cols = append(cols, c)
		}
	})
	if len(cols) != 1 || cols[0] != inner {
		t.Fatalf("Walk missed container child: %v", cols)
	}
	// Clone rebuilds via CloneWith without sharing children.
	c := Clone(root).(*Binary)
	cc := c.L.(*fakeContainer)
	if cc == fc || cc.kids[0] == Expr(inner) {
		t.Error("Clone shared container internals")
	}
	// Transform substitutes inside containers.
	out := Transform(root, func(n Expr) Expr {
		if _, ok := n.(*Col); ok {
			return &Const{Val: value.Int(41)}
		}
		return nil
	})
	v, err := out.Eval(nil)
	if err != nil || !v.Equal(value.Int(8)) { // FAKE()=7 + 1
		t.Errorf("transformed eval = %v, %v", v, err)
	}
	// the substituted tree holds the const
	kid := out.(*Binary).L.(*fakeContainer).kids[0]
	if _, ok := kid.(*Const); !ok {
		t.Errorf("Transform did not replace inside container: %T", kid)
	}
}

func TestAggNodeShape(t *testing.T) {
	// String/Children/CloneWith/Eval-error
	agg := &Agg{Fn: "SUM", Arg: NewCol("t", "x")}
	if agg.String() != "SUM(t.x)" {
		t.Errorf("agg string = %q", agg.String())
	}
	if len(agg.Children()) != 1 {
		t.Error("agg children")
	}
	clone := agg.CloneWith([]Expr{NewCol("u", "y")}).(*Agg)
	if clone.String() != "SUM(u.y)" {
		t.Errorf("clone = %q", clone.String())
	}
	if _, err := agg.Eval(nil); err == nil {
		t.Error("bare Agg.Eval must error")
	}
	star := &Agg{Fn: "COUNT", Star: true}
	if star.String() != "COUNT(*)" || len(star.Children()) != 0 {
		t.Error("star agg shape")
	}
	if star.CloneWith(nil).String() != "COUNT(*)" {
		t.Error("star clone")
	}
}

func TestTransformAllNodeTypes(t *testing.T) {
	src := &Binary{Op: OpOr,
		L: &Between{X: NewCol("", "a"), Lo: &Const{Val: value.Int(1)}, Hi: &Const{Val: value.Int(9)}},
		R: &Binary{Op: OpAnd,
			L: &InList{X: NewCol("", "b"), List: []Expr{&Const{Val: value.Int(2)}}},
			R: &Not{X: &Like{X: NewCol("", "s"), Pattern: &Const{Val: value.Str("%x")}}},
		},
	}
	extra := &Binary{Op: OpEq,
		L: &Neg{X: NewCol("", "n")},
		R: &Call{Name: "ABS", Args: []Expr{&IsNull{X: NewCol("", "z")}}},
	}
	for _, e := range []Expr{src, extra} {
		renamed := Transform(e, func(n Expr) Expr {
			if c, ok := n.(*Col); ok {
				return NewCol("q", c.Name)
			}
			return nil
		})
		// every column got qualified; original untouched
		Walk(renamed, func(n Expr) {
			if c, ok := n.(*Col); ok && c.Table != "q" {
				t.Errorf("column %s not rewritten", c)
			}
		})
		Walk(e, func(n Expr) {
			if c, ok := n.(*Col); ok && c.Table == "q" {
				t.Error("Transform mutated its input")
			}
		})
	}
	if Transform(nil, func(Expr) Expr { return nil }) != nil {
		t.Error("Transform(nil) should be nil")
	}
}

func TestCloneAllNodeTypes(t *testing.T) {
	nodes := []Expr{
		&Between{X: NewCol("", "a"), Lo: &Const{Val: value.Int(1)}, Hi: &Const{Val: value.Int(2)}, Invert: true},
		&InList{X: NewCol("", "a"), List: []Expr{NewCol("", "b")}, Invert: true},
		&IsNull{X: NewCol("", "a"), Invert: true},
		&Like{X: NewCol("", "a"), Pattern: &Const{Val: value.Str("%")}, Invert: true},
		&Call{Name: "LEAST", Args: []Expr{NewCol("", "a"), NewCol("", "b")}},
		&Neg{X: NewCol("", "a")},
		&Not{X: NewCol("", "a")},
	}
	for _, n := range nodes {
		c := Clone(n)
		if c.String() != n.String() {
			t.Errorf("clone mismatch: %s vs %s", c, n)
		}
		// bind the clone; the original must stay unbound
		s := schema.New(schema.Column{Name: "a", Type: schema.TInt}, schema.Column{Name: "b", Type: schema.TInt})
		_ = Bind(c, s)
		Walk(n, func(x Expr) {
			if col, ok := x.(*Col); ok && col.Idx != -1 {
				t.Errorf("Clone shares column %s", col)
			}
		})
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestColEvalOutOfRange(t *testing.T) {
	c := &Col{Name: "x", Idx: 5}
	if _, err := c.Eval(schema.Row{value.Int(1)}); err == nil {
		t.Error("out-of-range ordinal should error")
	}
}
