package parse

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a.b, 'it''s' <= 3.5e2 -- comment\n<> !=")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", "<=", "3.5e2", "<>", "<>", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[len(kinds)-1] != TEOF {
		t.Error("missing EOF")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("1 2.5 3e4 5.25e-2 6E+1 7.")
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{}
	for _, tok := range toks {
		if tok.Kind != TEOF {
			texts = append(texts, tok.Text)
		}
	}
	// "7." lexes as number 7 then punct "." (qualification dot).
	want := []string{"1", "2.5", "3e4", "5.25e-2", "6E+1", "7", "."}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("a # b"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestTokenKindString(t *testing.T) {
	for _, k := range []TokenKind{TEOF, TIdent, TNumber, TString, TPunct} {
		if k.String() == "token" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func evalConst(t *testing.T, src string) value.V {
	t.Helper()
	e, err := ParseExprString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := e.Eval(nil)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestExprArithmeticPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want value.V
	}{
		{"1 + 2 * 3", value.Int(7)},
		{"(1 + 2) * 3", value.Int(9)},
		{"10 - 4 - 3", value.Int(3)}, // left assoc
		{"7 / 2", value.Float(3.5)},
		{"7 % 4", value.Int(3)},
		{"-5 + 2", value.Int(-3)},
		{"-(5 + 2)", value.Int(-7)},
		{"2 * -3", value.Int(-6)},
		{"1.5 + 1", value.Float(2.5)},
		{"ABS(-4)", value.Int(4)},
		{"POW(2, 3)", value.Float(8)},
		{"COALESCE(NULL, 7)", value.Int(7)},
	}
	for _, tc := range cases {
		got := evalConst(t, tc.src)
		if !got.Equal(tc.want) {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestExprPredicates(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"3 >= 4", false},
		{"1 = 1", true},
		{"1 <> 2", true},
		{"1 != 2", true},
		{"5 BETWEEN 1 AND 10", true},
		{"5 NOT BETWEEN 1 AND 10", false},
		{"5 BETWEEN 6 AND 10", false},
		{"'b' IN ('a', 'b')", true},
		{"'c' NOT IN ('a', 'b')", true},
		{"'hello' LIKE 'h%'", true},
		{"'hello' NOT LIKE 'x%'", true},
		{"NULL IS NULL", true},
		{"1 IS NOT NULL", true},
		{"TRUE AND FALSE OR TRUE", true},
		{"TRUE AND (FALSE OR FALSE)", false},
		{"NOT FALSE", true},
		{"NOT 1 = 2", true}, // NOT binds looser than comparison
		{"1 + 1 = 2 AND 2 + 2 = 4", true},
	}
	for _, tc := range cases {
		got := evalConst(t, tc.src)
		b, null := got.Truthy()
		if null || b != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestExprColumnsBindEval(t *testing.T) {
	s := schema.New(
		schema.Column{Table: "r", Name: "cal", Type: schema.TFloat},
		schema.Column{Table: "r", Name: "gluten", Type: schema.TString},
	)
	row := schema.Row{value.Float(300), value.Str("free")}
	e, err := ParseExprString("r.cal <= 400 AND gluten = 'free'")
	if err != nil {
		t.Fatal(err)
	}
	if err := expr.Bind(e, s); err != nil {
		t.Fatal(err)
	}
	ok, err := expr.CompileWhere(e)(row)
	if err != nil || !ok {
		t.Errorf("predicate = %v, %v", ok, err)
	}
}

func TestExprRoundTripThroughString(t *testing.T) {
	srcs := []string{
		"(r.cal <= 400) AND (r.gluten = 'free')",
		"a + b * c - 2",
		"x BETWEEN 1 AND 10 OR y IN (1, 2, 3)",
		"NOT (name LIKE 'a%')",
		"price IS NOT NULL",
		"ABS(x) + POW(y, 2)",
	}
	for _, src := range srcs {
		e1, err := ParseExprString(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rendered := e1.String()
		e2, err := ParseExprString(rendered)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", rendered, src, err)
		}
		if e2.String() != rendered {
			t.Errorf("round-trip unstable: %q -> %q -> %q", src, rendered, e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1 + 2",
		"1 BETWEEN 2",
		"x IN (",
		"x IN ()",
		"x IS 3",
		"ABS(1,2,3) AND",
		"5 NOT 3",
		"1 2",
	}
	for _, src := range bad {
		if _, err := ParseExprString(src); err == nil {
			t.Errorf("ParseExprString(%q) should fail", src)
		}
	}
}

func TestParserHelpers(t *testing.T) {
	p, err := NewParser("FROM recipes R LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if !p.PeekKeyword("from") || !p.AcceptKeyword("FROM") {
		t.Fatal("keyword handling broken")
	}
	id, err := p.ParseIdent()
	if err != nil || id != "recipes" {
		t.Fatalf("ParseIdent = %q, %v", id, err)
	}
	if err := p.ExpectKeyword("WHERE"); err == nil {
		t.Error("ExpectKeyword should fail on R")
	}
	id, _ = p.ParseIdent()
	if id != "R" {
		t.Errorf("alias = %q", id)
	}
	if err := p.ExpectKeyword("LIMIT"); err != nil {
		t.Error(err)
	}
	n, err := p.ParseInt()
	if err != nil || n != 5 {
		t.Errorf("ParseInt = %d, %v", n, err)
	}
	if !p.AtEOF() {
		t.Error("should be at EOF")
	}
	// Next at EOF stays put.
	tok := p.Next()
	if tok.Kind != TEOF {
		t.Error("Next at EOF should return EOF")
	}
}

// magicHook reads the keyword MAGIC as 41.
func magicHook(p *Parser) (expr.Expr, bool, error) {
	if p.AcceptKeyword("MAGIC") {
		return &expr.Const{Val: value.Int(41)}, true, nil
	}
	return nil, false, nil
}

func TestPrimaryHook(t *testing.T) {
	p, err := NewParser("MAGIC + 1")
	if err != nil {
		t.Fatal(err)
	}
	p.PrimaryHook = magicHook
	e, err := p.ParseExpr()
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Eval(nil)
	if err != nil || !v.Equal(value.Int(42)) {
		t.Errorf("hooked expr = %v, %v", v, err)
	}
}

func TestKeywordsNotSwallowedByExpr(t *testing.T) {
	// Expression parsing must stop before statement keywords.
	p, err := NewParser("cal <= 400 FROM recipes")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ParseExpr(); err != nil {
		t.Fatal(err)
	}
	if !p.PeekKeyword("FROM") {
		t.Errorf("parser should stop at FROM, at %v", p.Peek())
	}
}

// TestNestingDepthIsCapped: past MaxDepth the parser answers ErrTooDeep —
// for its own recursion (parentheses, NOT, unary minus, function
// arguments) and for a returned tree that tall (a left-deep chain) — and
// at the cap it still parses.
func TestNestingDepthIsCapped(t *testing.T) {
	nest := func(open, core, close string, k int) string {
		return strings.Repeat(open, k) + core + strings.Repeat(close, k)
	}
	chain := func(op string, operands int) string {
		return strings.TrimSuffix(strings.Repeat("x = 1 "+op+" ", operands), " "+op+" ")
	}
	cases := []struct {
		name     string
		at, past string
	}{
		// ParseExpr counts its own level, so k parentheses take k+1.
		{"parentheses", nest("(", "x = 1", ")", MaxDepth-1), nest("(", "x = 1", ")", MaxDepth)},
		{"function arguments", nest("ABS(", "1", ")", MaxDepth-1), nest("ABS(", "1", ")", MaxDepth)},
		{"NOT", nest("NOT ", "x", "", MaxDepth-1), nest("NOT ", "x", "", MaxDepth)},
		{"unary minus", nest("- ", "1", "", MaxDepth-1), nest("- ", "1", "", MaxDepth)},
		// n operands x = 1 stand n+1 nodes tall.
		{"AND chain", chain("AND", MaxDepth-1), chain("AND", MaxDepth)},
		{"+ chain", strings.Repeat("1 + ", MaxDepth-1) + "1", strings.Repeat("1 + ", MaxDepth) + "1"},
	}
	for _, c := range cases {
		if _, err := ParseExprString(c.at); err != nil {
			t.Errorf("%s at the cap: %v", c.name, err)
		}
		if _, err := ParseExprString(c.past); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s past the cap: err %v, want ErrTooDeep", c.name, err)
		}
	}
	// A refusal leaves no level counted.
	p, err := NewParser(nest("(", "1", ")", 5*MaxDepth))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ParseExpr(); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("deep expression: err %v, want ErrTooDeep", err)
	}
	if p.depth != 0 {
		t.Fatalf("depth %d left counted after a refusal", p.depth)
	}
}
