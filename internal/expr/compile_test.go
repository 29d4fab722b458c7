package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// fuzzWidth is the width of the rows the differential generator builds.
const fuzzWidth = 4

// treeGen reads an expression tree and rows from fuzz bytes; past the
// end every read is 0, so any input is a tree.
type treeGen struct {
	b []byte
	i int
}

func (g *treeGen) next() int {
	if g.i >= len(g.b) {
		return 0
	}
	g.i++
	return int(g.b[g.i-1])
}

var fuzzStrings = []string{"", "a", "ab", "free", "a%", "%b", "_b", "%", "ABS", "héllo"}

// datum is a value of any kind: NULL, booleans, integers and floats of
// both signs (zero, -0.0 and NaN included) and strings, some of them LIKE
// patterns.
func (g *treeGen) datum() value.V {
	switch g.next() % 9 {
	case 0:
		return value.Null()
	case 1:
		return value.Bool(g.next()%2 == 1)
	case 2, 3:
		return value.Int(int64(g.next()) - 128)
	case 4, 5:
		return value.Float(float64(g.next()-128) / 4)
	case 6:
		return []value.V{value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Float(math.Inf(1)), value.Int(0)}[g.next()%4]
	}
	return value.Str(fuzzStrings[g.next()%len(fuzzStrings)])
}

var fuzzFuncs = []string{"ABS", "FLOOR", "CEIL", "ROUND", "SQRT", "POW", "EXP", "LN",
	"LOWER", "UPPER", "LENGTH", "COALESCE", "LEAST", "GREATEST", "NOPE"}

// expr is a tree at most depth levels tall over every node kind, an
// operator code past OpOr, unbound and out-of-range columns, aggregates
// (which err per row) and a foreign node included.
func (g *treeGen) expr(depth int) Expr {
	k := g.next()
	if depth <= 0 {
		k %= 3
	}
	switch k % 14 {
	case 0:
		return &Const{Val: g.datum()}
	case 1:
		idx := g.next() % fuzzWidth
		return &Col{Table: "r", Name: fmt.Sprintf("c%d", idx), Idx: idx}
	case 2:
		return &Col{Name: "odd", Idx: []int{-1, fuzzWidth, fuzzWidth + 3}[g.next()%3]}
	case 3:
		return &Binary{Op: BinOp(g.next() % 14), L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 4:
		return &Not{X: g.expr(depth - 1)}
	case 5:
		return &Neg{X: g.expr(depth - 1)}
	case 6:
		return &Between{X: g.expr(depth - 1), Lo: g.expr(depth - 1), Hi: g.expr(depth - 1), Invert: g.next()%2 == 1}
	case 7:
		in := &InList{X: g.expr(depth - 1), Invert: g.next()%2 == 1}
		for n := g.next() % 4; n > 0; n-- {
			in.List = append(in.List, g.expr(depth-1))
		}
		return in
	case 8:
		return &IsNull{X: g.expr(depth - 1), Invert: g.next()%2 == 1}
	case 9:
		return &Like{X: g.expr(depth - 1), Pattern: g.expr(depth - 1), Invert: g.next()%2 == 1}
	case 10:
		c := &Call{Name: fuzzFuncs[g.next()%len(fuzzFuncs)]}
		for n := g.next() % 4; n > 0; n-- {
			c.Args = append(c.Args, g.expr(depth-1))
		}
		return c
	case 11:
		return &Agg{Fn: "SUM", Arg: g.expr(depth - 1)}
	case 12:
		return &foreignCol{idx: g.next() % (fuzzWidth + 1)}
	}
	// A comparison of a column with a constant, either way round: the
	// compiled form's fast path.
	col := &Col{Table: "r", Name: "c", Idx: g.next() % (fuzzWidth + 1)}
	k2 := &Const{Val: g.datum()}
	op := OpEq + BinOp(g.next()%6)
	if g.next()%2 == 0 {
		return &Binary{Op: op, L: col, R: k2}
	}
	return &Binary{Op: op, L: k2, R: col}
}

func (g *treeGen) row() schema.Row {
	r := make(schema.Row, fuzzWidth)
	for i := range r {
		r[i] = g.datum()
	}
	return r
}

// foreignCol is an expression node this package does not define: it is
// compiled as a call to its own Eval.
type foreignCol struct{ idx int }

func (f *foreignCol) Eval(row schema.Row) (value.V, error) {
	if f.idx >= len(row) {
		return value.Null(), fmt.Errorf("foreign column %d out of range", f.idx)
	}
	return row[f.idx], nil
}

func (f *foreignCol) String() string { return fmt.Sprintf("foreign(%d)", f.idx) }

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// checkCompiled holds the compiled forms of the tree the bytes describe —
// the value, the WHERE predicate and an aggregate's term with it as
// argument and as filter — to the interpreter on the rows the bytes
// describe: the same value bit for bit, the same NULL-ness, the same
// error text.
func checkCompiled(t *testing.T, data []byte) {
	g := &treeGen{b: data}
	e := g.expr(5)
	filter := g.expr(3)
	rows := []schema.Row{g.row(), g.row(), g.row(), nil}
	eval, where := Compile(e), CompileWhere(e)
	terms := []*Agg{{Fn: "SUM", Arg: e}, {Fn: "COUNT", Star: true, Filter: e}, {Fn: "MAX", Arg: e, Filter: filter}}
	for _, row := range rows {
		v, err := eval(row)
		want, werr := interpret(e, row)
		if !v.Identical(want) || !sameErr(err, werr) {
			t.Fatalf("%s on %v: compiled %v, %v; interpreter %v, %v", e, row, v, err, want, werr)
		}
		ok, err := where(row)
		wok, werr := interpretWhere(e, row)
		if ok != wok || !sameErr(err, werr) {
			t.Fatalf("WHERE %s on %v: compiled %v, %v; interpreter %v, %v", e, row, ok, err, wok, werr)
		}
		for _, a := range terms {
			v, present, err := a.Term()(row)
			want, wpresent, werr := interpretTerm(a, row)
			if !v.Identical(want) || present != wpresent || !sameErr(err, werr) {
				t.Fatalf("term of %s on %v: compiled %v, %v, %v; interpreter %v, %v, %v", a, row, v, present, err, want, wpresent, werr)
			}
		}
	}
}

// FuzzCompiledMatchesInterpreter holds the compiled closures to the
// interpreter over random trees of every node kind, with erroring
// sub-trees on either side of AND and OR, on rows of mixed kinds with
// NULLs.
func FuzzCompiledMatchesInterpreter(f *testing.F) {
	rng := rand.New(rand.NewSource(48))
	for range 64 {
		seed := make([]byte, 24+rng.Intn(64))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkCompiled)
}

// TestCompiledMatchesInterpreterCorpus runs the fuzz target's check over
// a larger seeded corpus than the seeds the fuzz target carries.
func TestCompiledMatchesInterpreterCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for range n {
		data := make([]byte, 16+rng.Intn(96))
		rng.Read(data)
		checkCompiled(t, data)
	}
}

// TestCompiledShortCircuits pins the operands AND, OR and BETWEEN leave
// unevaluated: an erroring right side is not reached once the left
// decides, and is reached when it does not.
func TestCompiledShortCircuits(t *testing.T) {
	bad := &Col{Name: "missing", Idx: -1}
	T, F, N := &Const{Val: value.Bool(true)}, &Const{Val: value.Bool(false)}, &Const{Val: value.Null()}
	one, two := &Const{Val: value.Int(1)}, &Const{Val: value.Int(2)}
	for _, c := range []struct {
		e       Expr
		wantErr bool
	}{
		{&Binary{Op: OpAnd, L: F, R: bad}, false},
		{&Binary{Op: OpAnd, L: T, R: bad}, true},
		{&Binary{Op: OpAnd, L: N, R: bad}, true},
		{&Binary{Op: OpOr, L: T, R: bad}, false},
		{&Binary{Op: OpOr, L: F, R: bad}, true},
		{&Between{X: one, Lo: two, Hi: bad}, false},
		{&Between{X: two, Lo: one, Hi: bad}, true},
		{&InList{X: one, List: []Expr{one, bad}}, false},
		{&InList{X: N, List: []Expr{bad}}, false},
	} {
		_, err := Compile(c.e)(nil)
		_, werr := interpret(c.e, nil)
		if (err != nil) != c.wantErr || !sameErr(err, werr) {
			t.Errorf("%s: compiled error %v, interpreter %v, want an error: %v", c.e, err, werr, c.wantErr)
		}
	}
}
