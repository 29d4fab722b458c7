package expr

import (
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
)

func testRowSchema() (schema.Schema, schema.Row) {
	s := schema.New(
		schema.Column{Table: "r", Name: "cal", Type: schema.TFloat},
		schema.Column{Table: "r", Name: "name", Type: schema.TString},
		schema.Column{Table: "r", Name: "gluten", Type: schema.TString},
		schema.Column{Table: "r", Name: "rank", Type: schema.TInt},
	)
	row := schema.Row{value.Float(350), value.Str("Pasta"), value.Str("free"), value.Int(3)}
	return s, row
}

func mustBind(t *testing.T, e Expr, s schema.Schema) Expr {
	t.Helper()
	if err := Bind(e, s); err != nil {
		t.Fatalf("bind: %v", err)
	}
	return e
}

// evalV evaluates e both ways, compiled (through Eval) and by the
// interpreter, and fails unless the two agree on a value.
func evalV(t *testing.T, e Expr, row schema.Row) value.V {
	t.Helper()
	v, err := e.Eval(row)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	want, err := interpret(e, row)
	if err != nil {
		t.Fatalf("interpret %s: %v", e, err)
	}
	if !v.Identical(want) {
		t.Fatalf("%s: compiled %v, interpreter %v", e, v, want)
	}
	return v
}

// evalErr evaluates e both ways and returns the error, failing unless
// both raise one with the same text.
func evalErr(t *testing.T, e Expr, row schema.Row) error {
	t.Helper()
	_, err := e.Eval(row)
	_, want := interpret(e, row)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("%s: compiled error %v, interpreter error %v", e, err, want)
	}
	return err
}

func TestConstAndCol(t *testing.T) {
	s, row := testRowSchema()
	c := &Const{Val: value.Int(5)}
	if v := evalV(t, c, row); !v.Equal(value.Int(5)) {
		t.Errorf("const = %v", v)
	}
	col := mustBind(t, NewCol("r", "cal"), s)
	if v := evalV(t, col, row); !v.Equal(value.Float(350)) {
		t.Errorf("col = %v", v)
	}
	// unbound column errors
	evalErr(t, NewCol("r", "cal"), row)
	evalErr(t, &Col{Name: "cal", Idx: 7}, row)
	// unknown column fails at bind
	if err := Bind(NewCol("r", "nope"), s); err == nil {
		t.Error("bind unknown column should fail")
	}
}

func TestArithmeticAndComparisons(t *testing.T) {
	s, row := testRowSchema()
	cal := func() Expr { return NewCol("r", "cal") }
	e := mustBind(t, &Binary{Op: OpAdd, L: cal(), R: &Const{Val: value.Float(50)}}, s)
	if v := evalV(t, e, row); !v.Equal(value.Float(400)) {
		t.Errorf("cal+50 = %v", v)
	}
	e = mustBind(t, &Binary{Op: OpLe, L: cal(), R: &Const{Val: value.Float(400)}}, s)
	if v := evalV(t, e, row); !v.Equal(value.Bool(true)) {
		t.Errorf("cal<=400 = %v", v)
	}
	e = mustBind(t, &Binary{Op: OpGt, L: cal(), R: &Const{Val: value.Float(400)}}, s)
	if v := evalV(t, e, row); !v.Equal(value.Bool(false)) {
		t.Errorf("cal>400 = %v", v)
	}
	e = mustBind(t, &Binary{Op: OpEq, L: NewCol("r", "gluten"), R: &Const{Val: value.Str("free")}}, s)
	if v := evalV(t, e, row); !v.Equal(value.Bool(true)) {
		t.Errorf("gluten='free' = %v", v)
	}
	// comparison against NULL is NULL
	e = &Binary{Op: OpEq, L: &Const{Val: value.Null()}, R: &Const{Val: value.Int(1)}}
	if v := evalV(t, e, nil); !v.IsNull() {
		t.Errorf("NULL = 1 -> %v", v)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	T := &Const{Val: value.Bool(true)}
	F := &Const{Val: value.Bool(false)}
	N := &Const{Val: value.Null()}
	cases := []struct {
		op   BinOp
		l, r Expr
		want value.V
	}{
		{OpAnd, T, T, value.Bool(true)},
		{OpAnd, T, F, value.Bool(false)},
		{OpAnd, F, N, value.Bool(false)}, // short-circuit
		{OpAnd, N, F, value.Bool(false)},
		{OpAnd, T, N, value.Null()},
		{OpAnd, N, N, value.Null()},
		{OpOr, F, F, value.Bool(false)},
		{OpOr, T, N, value.Bool(true)}, // short-circuit
		{OpOr, N, T, value.Bool(true)},
		{OpOr, F, N, value.Null()},
		{OpOr, N, N, value.Null()},
	}
	for _, tc := range cases {
		v := evalV(t, &Binary{Op: tc.op, L: tc.l, R: tc.r}, nil)
		if v.IsNull() != tc.want.IsNull() || (!v.IsNull() && !v.Equal(tc.want)) {
			t.Errorf("%s %v %s = %v, want %v", tc.l, tc.op, tc.r, v, tc.want)
		}
	}
}

func TestNotNegBetween(t *testing.T) {
	if v := evalV(t, &Not{X: &Const{Val: value.Bool(true)}}, nil); !v.Equal(value.Bool(false)) {
		t.Errorf("NOT true = %v", v)
	}
	if v := evalV(t, &Not{X: &Const{Val: value.Null()}}, nil); !v.IsNull() {
		t.Errorf("NOT NULL = %v", v)
	}
	if v := evalV(t, &Neg{X: &Const{Val: value.Int(4)}}, nil); !v.Equal(value.Int(-4)) {
		t.Errorf("-4 = %v", v)
	}
	b := &Between{X: &Const{Val: value.Int(5)}, Lo: &Const{Val: value.Int(1)}, Hi: &Const{Val: value.Int(10)}}
	if v := evalV(t, b, nil); !v.Equal(value.Bool(true)) {
		t.Errorf("5 BETWEEN 1 AND 10 = %v", v)
	}
	b.Invert = true
	if v := evalV(t, b, nil); !v.Equal(value.Bool(false)) {
		t.Errorf("5 NOT BETWEEN 1 AND 10 = %v", v)
	}
	b2 := &Between{X: &Const{Val: value.Int(11)}, Lo: &Const{Val: value.Int(1)}, Hi: &Const{Val: value.Int(10)}}
	if v := evalV(t, b2, nil); !v.Equal(value.Bool(false)) {
		t.Errorf("11 BETWEEN 1 AND 10 = %v", v)
	}
}

func TestInList(t *testing.T) {
	in := &InList{
		X:    &Const{Val: value.Str("b")},
		List: []Expr{&Const{Val: value.Str("a")}, &Const{Val: value.Str("b")}},
	}
	if v := evalV(t, in, nil); !v.Equal(value.Bool(true)) {
		t.Errorf("b IN (a,b) = %v", v)
	}
	in.Invert = true
	if v := evalV(t, in, nil); !v.Equal(value.Bool(false)) {
		t.Errorf("b NOT IN (a,b) = %v", v)
	}
	// no match + NULL element -> NULL
	in2 := &InList{
		X:    &Const{Val: value.Int(9)},
		List: []Expr{&Const{Val: value.Int(1)}, &Const{Val: value.Null()}},
	}
	if v := evalV(t, in2, nil); !v.IsNull() {
		t.Errorf("9 IN (1, NULL) = %v, want NULL", v)
	}
	// match wins over NULL
	in3 := &InList{
		X:    &Const{Val: value.Int(1)},
		List: []Expr{&Const{Val: value.Null()}, &Const{Val: value.Int(1)}},
	}
	if v := evalV(t, in3, nil); !v.Equal(value.Bool(true)) {
		t.Errorf("1 IN (NULL, 1) = %v", v)
	}
}

func TestIsNull(t *testing.T) {
	if v := evalV(t, &IsNull{X: &Const{Val: value.Null()}}, nil); !v.Equal(value.Bool(true)) {
		t.Errorf("NULL IS NULL = %v", v)
	}
	if v := evalV(t, &IsNull{X: &Const{Val: value.Int(1)}, Invert: true}, nil); !v.Equal(value.Bool(true)) {
		t.Errorf("1 IS NOT NULL = %v", v)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%lo", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hell", "h__lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"abc", "%d%", false},
		{"aXbXc", "a%b%c", true},
	}
	for _, tc := range cases {
		l := &Like{X: &Const{Val: value.Str(tc.s)}, Pattern: &Const{Val: value.Str(tc.p)}}
		if v := evalV(t, l, nil); !v.Equal(value.Bool(tc.want)) {
			t.Errorf("%q LIKE %q = %v, want %v", tc.s, tc.p, v, tc.want)
		}
	}
	l := &Like{X: &Const{Val: value.Null()}, Pattern: &Const{Val: value.Str("%")}}
	if v := evalV(t, l, nil); !v.IsNull() {
		t.Errorf("NULL LIKE %% = %v", v)
	}
	bad := &Like{X: &Const{Val: value.Int(3)}, Pattern: &Const{Val: value.Str("%")}}
	evalErr(t, bad, nil)
}

func TestCalls(t *testing.T) {
	eval1 := func(name string, args ...value.V) value.V {
		t.Helper()
		es := make([]Expr, len(args))
		for i, a := range args {
			es[i] = &Const{Val: a}
		}
		return evalV(t, &Call{Name: name, Args: es}, nil)
	}
	if v := eval1("ABS", value.Int(-3)); !v.Equal(value.Int(3)) {
		t.Errorf("ABS(-3) = %v", v)
	}
	if v := eval1("ABS", value.Float(-2.5)); !v.Equal(value.Float(2.5)) {
		t.Errorf("ABS(-2.5) = %v", v)
	}
	if v := eval1("FLOOR", value.Float(2.7)); !v.Equal(value.Float(2)) {
		t.Errorf("FLOOR = %v", v)
	}
	if v := eval1("CEIL", value.Float(2.1)); !v.Equal(value.Float(3)) {
		t.Errorf("CEIL = %v", v)
	}
	if v := eval1("ROUND", value.Float(2.5)); !v.Equal(value.Float(3)) {
		t.Errorf("ROUND = %v", v)
	}
	if v := eval1("SQRT", value.Float(9)); !v.Equal(value.Float(3)) {
		t.Errorf("SQRT = %v", v)
	}
	if v := eval1("SQRT", value.Float(-1)); !v.IsNull() {
		t.Errorf("SQRT(-1) = %v, want NULL", v)
	}
	if v := eval1("POW", value.Int(2), value.Int(10)); !v.Equal(value.Float(1024)) {
		t.Errorf("POW = %v", v)
	}
	if v := eval1("LOWER", value.Str("AbC")); !v.Equal(value.Str("abc")) {
		t.Errorf("LOWER = %v", v)
	}
	if v := eval1("UPPER", value.Str("AbC")); !v.Equal(value.Str("ABC")) {
		t.Errorf("UPPER = %v", v)
	}
	if v := eval1("LENGTH", value.Str("héllo")); !v.Equal(value.Int(5)) {
		t.Errorf("LENGTH = %v", v)
	}
	if v := eval1("COALESCE", value.Null(), value.Int(2), value.Int(3)); !v.Equal(value.Int(2)) {
		t.Errorf("COALESCE = %v", v)
	}
	if v := eval1("LEAST", value.Int(3), value.Int(1), value.Null()); !v.Equal(value.Int(1)) {
		t.Errorf("LEAST = %v", v)
	}
	if v := eval1("GREATEST", value.Int(3), value.Float(4.5)); !v.Equal(value.Float(4.5)) {
		t.Errorf("GREATEST = %v", v)
	}
	evalErr(t, &Call{Name: "NOPE"}, nil)
	evalErr(t, &Call{Name: "ABS"}, nil)
	if !KnownFunc("abs") || KnownFunc("nope") {
		t.Error("KnownFunc broken")
	}
}

func TestOpHelpers(t *testing.T) {
	if !OpEq.Comparison() || OpAdd.Comparison() {
		t.Error("Comparison() broken")
	}
	if OpLt.Flip() != OpGt || OpGe.Flip() != OpLe || OpEq.Flip() != OpEq {
		t.Error("Flip broken")
	}
	if n, ok := OpLt.Negate(); !ok || n != OpGe {
		t.Error("Negate broken")
	}
	if _, ok := OpAdd.Negate(); ok {
		t.Error("Negate of + should fail")
	}
}

func TestStringRendersReparseable(t *testing.T) {
	s, _ := testRowSchema()
	e := &Binary{Op: OpAnd,
		L: &Binary{Op: OpLe, L: NewCol("r", "cal"), R: &Const{Val: value.Float(400)}},
		R: &Binary{Op: OpEq, L: NewCol("r", "gluten"), R: &Const{Val: value.Str("free")}},
	}
	mustBind(t, e, s)
	want := "((r.cal <= 400) AND (r.gluten = 'free'))"
	if got := e.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestWalkColumnsClone(t *testing.T) {
	e := &Binary{Op: OpAnd,
		L: &Binary{Op: OpLe, L: NewCol("r", "cal"), R: &Const{Val: value.Float(400)}},
		R: &InList{X: NewCol("r", "name"), List: []Expr{&Const{Val: value.Str("x")}, NewCol("r", "cal")}},
	}
	cols := Columns(e)
	if len(cols) != 2 {
		t.Fatalf("Columns = %v (want cal, name deduped)", cols)
	}
	n := 0
	Walk(e, func(Expr) { n++ })
	if n < 7 {
		t.Errorf("Walk visited %d nodes", n)
	}
	// Clone isolates mutation.
	s, _ := testRowSchema()
	c := Clone(e)
	mustBind(t, c, s)
	if cols[0].Idx != -1 {
		t.Error("Clone must not share Col nodes with original")
	}
}

func TestCompileWhereAndAll(t *testing.T) {
	_, row := testRowSchema()
	for _, c := range []struct {
		e    Expr
		want bool
	}{{&Const{Val: value.Null()}, false}, {&Const{Val: value.Bool(true)}, true}, {&Const{Val: value.Int(1)}, false}} {
		b, err := CompileWhere(c.e)(row)
		want, werr := interpretWhere(c.e, row)
		if err != nil || werr != nil || b != c.want || want != c.want {
			t.Errorf("WHERE %s = %v, %v; interpreter %v, %v; want %v", c.e, b, err, want, werr, c.want)
		}
	}
	if b, err := CompileWhere(nil)(row); err != nil || !b {
		t.Errorf("WHERE with no predicate = %v, %v, want every row", b, err)
	}
	if AndAll() != nil {
		t.Error("AndAll() should be nil")
	}
	one := &Const{Val: value.Bool(true)}
	if AndAll(one) != one {
		t.Error("AndAll(x) should be x")
	}
	both := AndAll(one, &Const{Val: value.Bool(false)})
	if b, _ := CompileWhere(both)(nil); b {
		t.Error("true AND false should be false")
	}
	if AndAll(nil, one) != one {
		t.Error("AndAll skips nils")
	}
}

// Property: LIKE with pattern == the string itself (no wildcards in it)
// always matches; appending % still matches.
func TestPropLikeSelfMatch(t *testing.T) {
	f := func(raw string) bool {
		s := ""
		for _, r := range raw { // strip wildcards from the generated string
			if r != '%' && r != '_' {
				s += string(r)
			}
		}
		self := &Like{X: &Const{Val: value.Str(s)}, Pattern: &Const{Val: value.Str(s)}}
		v1, err1 := self.Eval(nil)
		w1, _ := interpret(self, nil)
		pre := &Like{X: &Const{Val: value.Str(s)}, Pattern: &Const{Val: value.Str(s + "%")}}
		v2, err2 := pre.Eval(nil)
		w2, _ := interpret(pre, nil)
		return err1 == nil && err2 == nil && v1.Equal(value.Bool(true)) && v2.Equal(value.Bool(true)) && w1.Identical(v1) && w2.Identical(v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan — NOT(a AND b) == (NOT a) OR (NOT b) under
// three-valued logic, for all 3x3 combinations.
func TestPropDeMorgan(t *testing.T) {
	vals := []value.V{value.Bool(true), value.Bool(false), value.Null()}
	for _, a := range vals {
		for _, b := range vals {
			lhs := evalV(t, &Not{X: &Binary{Op: OpAnd, L: &Const{Val: a}, R: &Const{Val: b}}}, nil)
			rhs := evalV(t, &Binary{Op: OpOr, L: &Not{X: &Const{Val: a}}, R: &Not{X: &Const{Val: b}}}, nil)
			if lhs.IsNull() != rhs.IsNull() || (!lhs.IsNull() && !lhs.Equal(rhs)) {
				t.Errorf("De Morgan fails for %v, %v: %v vs %v", a, b, lhs, rhs)
			}
		}
	}
}
