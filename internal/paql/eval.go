package paql

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// EvalAgg computes a single aggregate over the package's tuples (a
// multiset: repeated tuples appear once per multiplicity) by feeding
// each tuple's Term to the SQL accumulator minidb uses. Arguments and
// filters must be bound to the relation schema. What each function
// answers over nothing is the table in semantics_test.go.
func EvalAgg(a *Agg, rows []schema.Row) (value.V, error) {
	st, err := expr.NewAggState(a.Fn, a.Star)
	if err != nil {
		return value.Null(), fmt.Errorf("paql: %w", err)
	}
	for _, row := range rows {
		v, present, err := a.Term(row)
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

// EvalGlobal evaluates a global expression (a SUCH THAT formula or an
// objective) against a concrete package. Aggregates are computed over
// the package rows and memoized by rendered text within the call.
func EvalGlobal(e expr.Expr, rows []schema.Row) (value.V, error) {
	memo := map[string]value.V{}
	var evalErr error
	folded := expr.Transform(e, func(n expr.Expr) expr.Expr {
		a, ok := n.(*Agg)
		if !ok {
			return nil
		}
		key := a.String()
		v, have := memo[key]
		if !have {
			var err error
			v, err = EvalAgg(a, rows)
			if err != nil && evalErr == nil {
				evalErr = err
			}
			memo[key] = v
		}
		return &expr.Const{Val: v}
	})
	if evalErr != nil {
		return value.Null(), evalErr
	}
	return folded.Eval(nil)
}

// Satisfies reports whether a package satisfies the SUCH THAT formula.
// A comparison with a NULL aggregate is unknown and unknown counts as
// false (the "atom" column of the table in semantics_test.go). A nil
// formula is satisfied by every package.
func Satisfies(f expr.Expr, rows []schema.Row) (bool, error) {
	if f == nil {
		return true, nil
	}
	v, err := EvalGlobal(f, rows)
	if err != nil {
		return false, err
	}
	b, null := v.Truthy()
	return b && !null, nil
}

// ObjectiveValue evaluates the objective for a package; a nil objective
// yields 0 so packages compare equal. A NULL objective is an error: such
// a package is not an answer (the table's "objective" column), which
// every strategy lowers to a guard row.
func ObjectiveValue(o *Objective, rows []schema.Row) (float64, error) {
	if o == nil {
		return 0, nil
	}
	v, err := EvalGlobal(o.Expr, rows)
	if err != nil {
		return 0, err
	}
	f, ok := v.AsFloat()
	if !ok {
		if v.IsNull() {
			return 0, fmt.Errorf("paql: objective %s is NULL for this package", o.Expr)
		}
		return 0, fmt.Errorf("paql: objective %s is not numeric (%s)", o.Expr, v)
	}
	return f, nil
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
