package parse

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/value"
)

// MaxDepth caps how deeply an expression may nest. It bounds the parser's
// own recursion — parentheses, NOT, unary minus, function arguments — and
// the height of every tree ParseExpr returns, left-deep AND/OR/+/* chains
// included, so every later walk over a parsed expression (expr.Walk,
// translate's normal form and linearity verdict) recurses at most about
// this deep. The tallest query in the test corpora, the examples and the
// benchmark templates stands 9 nodes tall.
const MaxDepth = 1000

// ErrTooDeep is the error, under errors.Is, for an expression that nests
// past MaxDepth: the parser refuses it instead of recursing further.
var ErrTooDeep = errors.New("parse: expression nests too deeply")

// Parser is a token-stream cursor with the shared scalar-expression
// grammar. Statement-level grammars (SQL, PaQL) are built on top of it.
type Parser struct {
	src   string
	toks  []Token
	pos   int
	depth int // ParseExpr, NOT and unary-minus recursion in progress

	// PrimaryHook, when set, is consulted first in the primary
	// production. It lets a front-end inject productions: SQL and PaQL
	// share one, minidb.InstallHook (aggregate calls and scalar
	// sub-queries). Returning handled=false falls through to the
	// standard primaries.
	PrimaryHook func(p *Parser) (e expr.Expr, handled bool, err error)
}

// NewParser lexes src and returns a parser over its tokens.
func NewParser(src string) (*Parser, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return &Parser{src: src, toks: toks}, nil
}

// Src returns the original source text being parsed.
func (p *Parser) Src() string { return p.src }

// Peek returns the current token without consuming it.
func (p *Parser) Peek() Token { return p.toks[p.pos] }

// PeekAt returns the token n positions ahead (0 = current).
func (p *Parser) PeekAt(n int) Token {
	i := p.pos + n
	if i >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[i]
}

// Next consumes and returns the current token.
func (p *Parser) Next() Token {
	t := p.toks[p.pos]
	if t.Kind != TEOF {
		p.pos++
	}
	return t
}

// AtEOF reports whether all input has been consumed.
func (p *Parser) AtEOF() bool { return p.Peek().Kind == TEOF }

// Errf builds an error annotated with the current position.
func (p *Parser) Errf(format string, args ...any) error {
	t := p.Peek()
	ctx := t.Text
	if t.Kind == TEOF {
		ctx = "end of input"
	}
	return fmt.Errorf("parse: %s (at %q, offset %d)", fmt.Sprintf(format, args...), ctx, t.Pos)
}

// PeekKeyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *Parser) PeekKeyword(kw string) bool {
	t := p.Peek()
	return t.Kind == TIdent && strings.EqualFold(t.Text, kw)
}

// AcceptKeyword consumes the keyword if present.
func (p *Parser) AcceptKeyword(kw string) bool {
	if p.PeekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// ExpectKeyword consumes the keyword or errors.
func (p *Parser) ExpectKeyword(kw string) error {
	if !p.AcceptKeyword(kw) {
		return p.Errf("expected %s", strings.ToUpper(kw))
	}
	return nil
}

// PeekPunct reports whether the current token is the given symbol.
func (p *Parser) PeekPunct(sym string) bool {
	t := p.Peek()
	return t.Kind == TPunct && t.Text == sym
}

// AcceptPunct consumes the symbol if present.
func (p *Parser) AcceptPunct(sym string) bool {
	if p.PeekPunct(sym) {
		p.pos++
		return true
	}
	return false
}

// ExpectPunct consumes the symbol or errors.
func (p *Parser) ExpectPunct(sym string) error {
	if !p.AcceptPunct(sym) {
		return p.Errf("expected %q", sym)
	}
	return nil
}

// ParseIdent consumes an identifier and returns its text.
func (p *Parser) ParseIdent() (string, error) {
	t := p.Peek()
	if t.Kind != TIdent {
		return "", p.Errf("expected identifier")
	}
	p.pos++
	return t.Text, nil
}

// ParseInt consumes an integer literal.
func (p *Parser) ParseInt() (int64, error) {
	t := p.Peek()
	if t.Kind != TNumber {
		return 0, p.Errf("expected integer")
	}
	i, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.Errf("expected integer, got %q", t.Text)
	}
	p.pos++
	return i, nil
}

// --- expression grammar ----------------------------------------------------
//
//	expr      := orExpr
//	orExpr    := andExpr (OR andExpr)*
//	andExpr   := notExpr (AND notExpr)*
//	notExpr   := NOT notExpr | predicate
//	predicate := addExpr [ cmp addExpr
//	                     | [NOT] BETWEEN addExpr AND addExpr
//	                     | [NOT] IN '(' expr {',' expr} ')'
//	                     | [NOT] LIKE addExpr
//	                     | IS [NOT] NULL ]
//	addExpr   := mulExpr (('+'|'-') mulExpr)*
//	mulExpr   := unary (('*'|'/'|'%') unary)*
//	unary     := '-' unary | primary
//	primary   := hook | literal | func '(' args ')' | ident ['.' ident]
//	           | '(' expr ')'

// ParseExpr parses a full scalar expression, refusing with ErrTooDeep
// one that nests past MaxDepth.
func (p *Parser) ParseExpr() (expr.Expr, error) {
	defer p.leave()
	if err := p.enter(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err == nil && p.depth == 1 && expr.Deeper(e, MaxDepth) {
		return nil, p.tooDeep()
	}
	return e, err
}

// enter counts one level of recursion, refusing past MaxDepth; every
// enter is paired with a deferred leave.
func (p *Parser) enter() error {
	if p.depth++; p.depth > MaxDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

func (p *Parser) tooDeep() error {
	return fmt.Errorf("%w: more than %d levels (offset %d)", ErrTooDeep, MaxDepth, p.Peek().Pos)
}

func (p *Parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.AcceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: expr.OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.AcceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: expr.OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (expr.Expr, error) {
	if p.AcceptKeyword("NOT") {
		defer p.leave()
		if err := p.enter(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{X: x}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (expr.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	invert := false
	if p.PeekKeyword("NOT") {
		// Lookahead: NOT must be followed by BETWEEN/IN/LIKE to belong here.
		nxt := p.PeekAt(1)
		if nxt.Kind == TIdent && (strings.EqualFold(nxt.Text, "BETWEEN") ||
			strings.EqualFold(nxt.Text, "IN") || strings.EqualFold(nxt.Text, "LIKE")) {
			p.pos++
			invert = true
		}
	}
	switch {
	case p.AcceptKeyword("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &expr.Between{X: left, Lo: lo, Hi: hi, Invert: invert}, nil
	case p.AcceptKeyword("IN"):
		if err := p.ExpectPunct("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.AcceptPunct(",") {
				break
			}
		}
		if err := p.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return &expr.InList{X: left, List: list, Invert: invert}, nil
	case p.AcceptKeyword("LIKE"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &expr.Like{X: left, Pattern: pat, Invert: invert}, nil
	case p.AcceptKeyword("IS"):
		isNot := p.AcceptKeyword("NOT")
		if !p.AcceptKeyword("NULL") {
			return nil, p.Errf("expected NULL after IS")
		}
		return &expr.IsNull{X: left, Invert: isNot}, nil
	}
	if invert {
		return nil, p.Errf("expected BETWEEN, IN or LIKE after NOT")
	}
	// comparison?
	t := p.Peek()
	if t.Kind == TPunct {
		var op expr.BinOp
		ok := true
		switch t.Text {
		case "=":
			op = expr.OpEq
		case "<>":
			op = expr.OpNe
		case "<":
			op = expr.OpLt
		case "<=":
			op = expr.OpLe
		case ">":
			op = expr.OpGt
		case ">=":
			op = expr.OpGe
		default:
			ok = false
		}
		if ok {
			p.pos++
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &expr.Binary{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdd() (expr.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.BinOp
		switch {
		case p.AcceptPunct("+"):
			op = expr.OpAdd
		case p.AcceptPunct("-"):
			op = expr.OpSub
		default:
			return left, nil
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMul() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.BinOp
		switch {
		case p.AcceptPunct("*"):
			op = expr.OpMul
		case p.AcceptPunct("/"):
			op = expr.OpDiv
		case p.AcceptPunct("%"):
			op = expr.OpMod
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &expr.Binary{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (expr.Expr, error) {
	if p.AcceptPunct("-") {
		defer p.leave()
		if err := p.enter(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals so "-5" is a Const.
		if c, ok := x.(*expr.Const); ok && c.Val.IsNumeric() {
			v, err := c.Val.Neg()
			if err == nil {
				return &expr.Const{Val: v}, nil
			}
		}
		return &expr.Neg{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (expr.Expr, error) {
	if p.PrimaryHook != nil {
		e, handled, err := p.PrimaryHook(p)
		if err != nil {
			return nil, err
		}
		if handled {
			return e, nil
		}
	}
	t := p.Peek()
	switch t.Kind {
	case TNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.Errf("bad number %q", t.Text)
			}
			return &expr.Const{Val: value.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.Errf("bad integer %q", t.Text)
		}
		return &expr.Const{Val: value.Int(i)}, nil
	case TString:
		p.pos++
		return &expr.Const{Val: value.Str(t.Text)}, nil
	case TPunct:
		if t.Text == "(" {
			p.pos++
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TIdent:
		switch strings.ToUpper(t.Text) {
		case "TRUE":
			p.pos++
			return &expr.Const{Val: value.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &expr.Const{Val: value.Bool(false)}, nil
		case "NULL":
			p.pos++
			return &expr.Const{Val: value.Null()}, nil
		}
		// function call?
		if p.PeekAt(1).Kind == TPunct && p.PeekAt(1).Text == "(" && expr.KnownFunc(t.Text) {
			name := strings.ToUpper(t.Text)
			p.pos += 2 // ident and '('
			var args []expr.Expr
			if !p.PeekPunct(")") {
				for {
					a, err := p.ParseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.AcceptPunct(",") {
						break
					}
				}
			}
			if err := p.ExpectPunct(")"); err != nil {
				return nil, err
			}
			return &expr.Call{Name: name, Args: args}, nil
		}
		// column reference, possibly qualified
		p.pos++
		if p.PeekPunct(".") && p.PeekAt(1).Kind == TIdent {
			p.pos++
			name := p.Next().Text
			return expr.NewCol(t.Text, name), nil
		}
		return expr.NewCol("", t.Text), nil
	}
	return nil, p.Errf("expected expression")
}

// ParseExprString is a convenience that parses a standalone expression
// and requires all input to be consumed.
func ParseExprString(src string) (expr.Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if !p.AtEOF() {
		return nil, p.Errf("unexpected trailing input")
	}
	return e, nil
}
