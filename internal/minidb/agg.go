package minidb

import (
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// aggOp folds every aggregate over its whole input into exactly one
// output row, also when the input is empty.
type aggOp struct {
	child operator
	aggs  []*expr.Agg // args bound to child schema
	sch   schema.Schema

	row  schema.Row
	done bool
}

// newAggOp types each output column by the value expr.AggState returns:
// COUNT is an integer, AVG a float, SUM an integer over an integer
// argument and a float otherwise, and MIN and MAX take their argument's
// type.
func newAggOp(child operator, aggs []*expr.Agg) *aggOp {
	cols := make([]schema.Column, len(aggs))
	for i, a := range aggs {
		ty := schema.TFloat
		switch a.Fn {
		case "COUNT":
			ty = schema.TInt
		case "SUM":
			if typeOf(a.Arg, child.schema()) == schema.TInt {
				ty = schema.TInt
			}
		case "MIN", "MAX":
			ty = typeOf(a.Arg, child.schema())
		}
		cols[i] = schema.Column{Name: a.String(), Type: ty}
	}
	return &aggOp{child: child, aggs: aggs, sch: schema.Schema{Cols: cols}}
}

func (a *aggOp) schema() schema.Schema { return a.sch }

func (a *aggOp) open() error {
	states := make([]expr.AggState, len(a.aggs))
	for i, agg := range a.aggs {
		st, err := expr.NewAggState(agg.Fn, agg.Star)
		if err != nil {
			return err
		}
		states[i] = st
	}
	if err := a.child.open(); err != nil {
		return err
	}
	defer a.child.close()
	terms := make([]func(schema.Row) (value.V, bool, error), len(a.aggs))
	for i, agg := range a.aggs {
		terms[i] = agg.Term()
	}
	for {
		row, ok, err := a.child.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i, term := range terms {
			v, present, err := term(row)
			if err != nil {
				return err
			}
			if !present {
				continue
			}
			if err := states[i].Add(v); err != nil {
				return err
			}
		}
	}
	a.row = make(schema.Row, len(states))
	for i, st := range states {
		a.row[i] = st.Result()
	}
	a.done = false
	return nil
}

func (a *aggOp) next() (schema.Row, bool, error) {
	if a.done {
		return nil, false, nil
	}
	a.done = true
	return a.row, true, nil
}

func (a *aggOp) close() { a.row = nil }
