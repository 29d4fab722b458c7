package paql

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// EvalAgg computes a single aggregate over the package's tuples (a
// multiset: repeated tuples appear once per multiplicity) by feeding
// each tuple's Term to the SQL accumulator minidb uses. Arguments and
// filters must be bound to the relation schema. What each function
// answers over nothing is the table in semantics_test.go.
func EvalAgg(a *expr.Agg, rows []schema.Row) (value.V, error) {
	return foldAgg(a, a.Term(), rows)
}

// foldAgg folds the aggregate's compiled Term over the rows.
func foldAgg(a *expr.Agg, term func(schema.Row) (value.V, bool, error), rows []schema.Row) (value.V, error) {
	st, err := expr.NewAggState(a.Fn, a.Star)
	if err != nil {
		return value.Null(), fmt.Errorf("paql: %w", err)
	}
	for _, row := range rows {
		v, present, err := term(row)
		if err != nil {
			return value.Null(), err
		}
		if !present {
			continue
		}
		if err := st.Add(v); err != nil {
			return value.Null(), fmt.Errorf("paql: %s: %w", a, err)
		}
	}
	return st.Result(), nil
}

// Global is a global expression (a SUCH THAT formula or an objective)
// compiled once for evaluation against many packages. Its distinct
// aggregates, told apart by rendered text, are slots: evaluation folds
// each slot's aggregate over the package rows, first seen first, and the
// expression, compiled with every aggregate read as its slot, runs over
// the slots. A nil *Global is the absent expression. A Global is
// immutable and safe for concurrent use.
type Global struct {
	src   expr.Expr
	slots []aggSlot
	eval  func(schema.Row) (value.V, error)
}

// aggSlot is one distinct aggregate of a Global, with its Term compiled.
type aggSlot struct {
	key  string
	agg  *expr.Agg
	term func(schema.Row) (value.V, bool, error)
}

// CompileGlobal compiles a global expression bound to the relation
// schema; a nil expression compiles to nil.
func CompileGlobal(e expr.Expr) *Global {
	if e == nil {
		return nil
	}
	g := &Global{src: e}
	slotted := expr.Transform(e, func(n expr.Expr) expr.Expr {
		a, ok := n.(*expr.Agg)
		if !ok {
			return nil
		}
		key := a.String()
		i := slices.IndexFunc(g.slots, func(s aggSlot) bool { return s.key == key })
		if i < 0 {
			i = len(g.slots)
			g.slots = append(g.slots, aggSlot{key, a, a.Term()})
		}
		return &expr.Col{Name: key, Idx: i}
	})
	g.eval = expr.Compile(slotted)
	return g
}

// Eval evaluates the expression against a concrete package. The first
// aggregate that fails to fold is the error.
func (g *Global) Eval(rows []schema.Row) (value.V, error) {
	vals := make(schema.Row, len(g.slots))
	for i, s := range g.slots {
		v, err := foldAgg(s.agg, s.term, rows)
		if err != nil {
			return value.Null(), err
		}
		vals[i] = v
	}
	return g.eval(vals)
}

// Holds reports whether a package satisfies the formula. A comparison
// with a NULL aggregate is unknown and unknown counts as false (the
// "atom" column of the table in semantics_test.go). The absent formula
// holds for every package.
func (g *Global) Holds(rows []schema.Row) (bool, error) {
	if g == nil {
		return true, nil
	}
	v, err := g.Eval(rows)
	if err != nil {
		return false, err
	}
	b, null := v.Truthy()
	return b && !null, nil
}

// Value evaluates an objective for a package; the absent objective
// yields 0 so packages compare equal. A NULL objective is an error: such
// a package is not an answer (the table's "objective" column), which
// every strategy lowers to a guard row.
func (g *Global) Value(rows []schema.Row) (float64, error) {
	if g == nil {
		return 0, nil
	}
	v, err := g.Eval(rows)
	if err != nil {
		return 0, err
	}
	f, ok := v.AsFloat()
	if !ok {
		if v.IsNull() {
			return 0, fmt.Errorf("paql: objective %s is NULL for this package", g.src)
		}
		return 0, fmt.Errorf("paql: objective %s is not numeric (%s)", g.src, v)
	}
	return f, nil
}

// Satisfies reports whether one package satisfies the SUCH THAT formula,
// compiled for this call, as Global.Holds does; a nil formula is
// satisfied by every package.
func Satisfies(f expr.Expr, rows []schema.Row) (bool, error) {
	return CompileGlobal(f).Holds(rows)
}

// ObjectiveValue evaluates the objective for one package, compiled for
// this call, as Global.Value does; a nil objective yields 0.
func ObjectiveValue(o *Objective, rows []schema.Row) (float64, error) {
	if o == nil {
		return 0, nil
	}
	return CompileGlobal(o.Expr).Value(rows)
}

// Better reports whether objective value a improves on b under the
// objective's sense. With a nil objective nothing improves.
func Better(o *Objective, a, b float64) bool {
	if o == nil {
		return false
	}
	if o.Sense == Maximize {
		return a > b+1e-12
	}
	return a < b-1e-12
}
