package expr

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/value"
)

// Agg is an aggregate call, the one node SQL and PaQL share: COUNT(*),
// COUNT/SUM/AVG/MIN/MAX(arg), optionally with a per-tuple filter
// (COUNT(* WHERE pred), SUM(P.x WHERE pred)) that only PaQL evaluates.
// It cannot be evaluated per row: minidb's planner rewrites it into a
// column of its aggregation output, and PaQL folds it over a package.
// Traversal descends into Arg and Filter (Container).
type Agg struct {
	Fn     string // COUNT, SUM, AVG, MIN, MAX (canonical upper case)
	Star   bool   // COUNT(*)
	Arg    Expr   // nil when Star
	Filter Expr   // optional per-tuple predicate
}

// Eval reports an error: an aggregate has a value per group or package,
// never per row.
func (a *Agg) Eval(schema.Row) (value.V, error) {
	return value.Null(), fmt.Errorf("expr: aggregate %s used outside an aggregation context", a)
}

// Term compiles the aggregate's view of one tuple, the only place its
// filter, argument and NULL rule are applied: the closure's present
// reports that the filter passes and (COUNT(*) aside) the argument is not
// NULL — the tuple belongs to the aggregate's selection — and v is then
// the argument's value (1 for COUNT(*)). Every evaluator compiles it once
// and folds it over the rows.
func (a *Agg) Term() func(row schema.Row) (v value.V, present bool, err error) {
	pass := CompileWhere(a.Filter)
	var arg valueFn
	if !a.Star {
		arg = Compile(a.Arg)
	}
	return func(row schema.Row) (value.V, bool, error) {
		if ok, err := pass(row); err != nil || !ok {
			return value.Null(), false, err
		}
		if arg == nil {
			return value.Int(1), true, nil
		}
		v, err := arg(row)
		return v, err == nil && !v.IsNull(), err
	}
}

// String renders the aggregate: FN(arg), COUNT(*), FN(arg WHERE pred).
func (a *Agg) String() string {
	inner := "*"
	if !a.Star {
		inner = a.Arg.String()
	}
	if a.Filter != nil {
		inner += " WHERE " + a.Filter.String()
	}
	return a.Fn + "(" + inner + ")"
}

// Children implements Container.
func (a *Agg) Children() []Expr {
	var out []Expr
	if a.Arg != nil {
		out = append(out, a.Arg)
	}
	if a.Filter != nil {
		out = append(out, a.Filter)
	}
	return out
}

// CloneWith implements Container.
func (a *Agg) CloneWith(children []Expr) Expr {
	c := &Agg{Fn: a.Fn, Star: a.Star}
	i := 0
	if a.Arg != nil {
		c.Arg = children[i]
		i++
	}
	if a.Filter != nil {
		c.Filter = children[i]
	}
	return c
}

// Aggregates returns the distinct aggregates (by rendered text) in the
// expressions, in first-appearance order.
func Aggregates(es ...Expr) []*Agg {
	var out []*Agg
	seen := map[string]bool{}
	for _, e := range es {
		Walk(e, func(n Expr) {
			if a, ok := n.(*Agg); ok {
				if k := a.String(); !seen[k] {
					seen[k] = true
					out = append(out, a)
				}
			}
		})
	}
	return out
}

// AggState accumulates one SQL aggregate over one group of values: the
// single statement of what COUNT, SUM, AVG, MIN and MAX answer — NULL
// inputs are skipped, COUNT of nothing is 0 and every other aggregate of
// nothing is NULL — shared by minidb's aggregate queries and PaQL's
// packages.
type AggState interface {
	Add(v value.V) error
	Result() value.V
}

// NewAggState returns a fresh accumulator for the named aggregate; star
// marks COUNT(*), which counts NULLs too.
func NewAggState(fn string, star bool) (AggState, error) {
	switch fn {
	case "COUNT":
		return &countState{star: star}, nil
	case "SUM":
		return &sumState{}, nil
	case "AVG":
		return &sumState{avg: true}, nil
	case "MIN":
		return &minMaxState{}, nil
	case "MAX":
		return &minMaxState{max: true}, nil
	}
	return nil, fmt.Errorf("expr: unknown aggregate %q", fn)
}

type countState struct {
	star bool
	n    int64
}

func (s *countState) Add(v value.V) error {
	if s.star || !v.IsNull() {
		s.n++
	}
	return nil
}
func (s *countState) Result() value.V { return value.Int(s.n) }

// sumState is SUM and AVG: the same fold, divided at the end for AVG.
type sumState struct {
	avg   bool
	sum   float64
	n     int64
	isInt bool // every input so far was an integer: SUM keeps the type
}

func (s *sumState) Add(v value.V) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("expr: SUM or AVG over non-numeric value %s", v)
	}
	s.isInt = (s.n == 0 || s.isInt) && v.Kind() == value.KindInt
	s.sum += f
	s.n++
	return nil
}

func (s *sumState) Result() value.V {
	switch {
	case s.n == 0:
		return value.Null()
	case s.avg:
		return value.Float(s.sum / float64(s.n))
	case s.isInt:
		return value.Int(int64(s.sum))
	}
	return value.Float(s.sum)
}

type minMaxState struct {
	max  bool
	best value.V
}

func (s *minMaxState) Add(v value.V) error {
	if v.IsNull() {
		return nil
	}
	if cmp, _ := v.Compare(s.best); s.best.IsNull() || s.max && cmp > 0 || !s.max && cmp < 0 {
		s.best = v
	}
	return nil
}

func (s *minMaxState) Result() value.V { return s.best }
