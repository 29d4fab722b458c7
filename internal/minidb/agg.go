package minidb

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/schema"
)

// aggOp computes hash aggregation. Output rows are
// [groupVals..., aggVals...]; with no GROUP BY there is exactly one
// output row (aggregates over the whole input, even when empty).
type aggOp struct {
	child   operator
	groupBy []expr.Expr // bound to child schema
	aggs    []*expr.Agg // args bound to child schema
	sch     schema.Schema

	out []schema.Row
	pos int
}

func newAggOp(child operator, groupBy []expr.Expr, aggs []*expr.Agg) *aggOp {
	cols := make([]schema.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		name := fmt.Sprintf("group%d", i)
		ty := schema.TFloat
		if c, ok := g.(*expr.Col); ok {
			name = c.Name
			if c.Idx >= 0 && c.Idx < child.schema().Len() {
				ty = child.schema().Cols[c.Idx].Type
			}
		}
		cols = append(cols, schema.Column{Table: "", Name: name, Type: ty})
	}
	for _, a := range aggs {
		ty := schema.TFloat
		if a.Fn == "COUNT" {
			ty = schema.TInt
		}
		cols = append(cols, schema.Column{Name: a.String(), Type: ty})
	}
	return &aggOp{child: child, groupBy: groupBy, aggs: aggs, sch: schema.Schema{Cols: cols}}
}

func (a *aggOp) schema() schema.Schema { return a.sch }

func (a *aggOp) open() error {
	if err := a.child.open(); err != nil {
		return err
	}
	defer a.child.close()
	type group struct {
		keys   schema.Row
		states []expr.AggState
	}
	groups := map[string]*group{}
	var order []string // deterministic output: first-seen order
	addGroup := func(k string, keys schema.Row) (*group, error) {
		grp := &group{keys: keys}
		for _, agg := range a.aggs {
			st, err := expr.NewAggState(agg.Fn, agg.Star)
			if err != nil {
				return nil, err
			}
			grp.states = append(grp.states, st)
		}
		groups[k] = grp
		order = append(order, k)
		return grp, nil
	}
	for {
		row, ok, err := a.child.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		keyVals := make(schema.Row, len(a.groupBy))
		var keyBytes []byte
		for i, g := range a.groupBy {
			v, err := g.Eval(row)
			if err != nil {
				return err
			}
			keyVals[i] = v
			keyBytes = v.EncodeKey(keyBytes)
		}
		k := string(keyBytes)
		grp := groups[k]
		if grp == nil {
			if grp, err = addGroup(k, keyVals); err != nil {
				return err
			}
		}
		for i, agg := range a.aggs {
			v, present, err := agg.Term(row)
			if err != nil {
				return err
			}
			if !present {
				continue
			}
			if err := grp.states[i].Add(v); err != nil {
				return err
			}
		}
	}
	// Global aggregation over empty input still yields one row.
	if len(a.groupBy) == 0 && len(groups) == 0 {
		if _, err := addGroup("", nil); err != nil {
			return err
		}
	}
	a.out = a.out[:0]
	for _, k := range order {
		grp := groups[k]
		row := make(schema.Row, 0, len(grp.keys)+len(grp.states))
		row = append(row, grp.keys...)
		for _, st := range grp.states {
			row = append(row, st.Result())
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
	return nil
}

func (a *aggOp) next() (schema.Row, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, true, nil
}

func (a *aggOp) close() { a.out = nil }
