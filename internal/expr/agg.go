package expr

import (
	"fmt"

	"repro/internal/value"
)

// AggState accumulates one SQL aggregate over one group of values: the
// single statement of what COUNT, SUM, AVG, MIN and MAX answer — NULL
// inputs are skipped, COUNT of nothing is 0 and every other aggregate of
// nothing is NULL — shared by minidb's GROUP BY and PaQL's packages.
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
