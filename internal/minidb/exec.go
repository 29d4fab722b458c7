package minidb

import (
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// operator is a volcano-style iterator. Schemas are fixed at plan time;
// open prepares state; next streams rows until ok=false.
type operator interface {
	schema() schema.Schema
	open() error
	next() (row schema.Row, ok bool, err error)
	close()
}

// --- scan -------------------------------------------------------------------

// scanOp reads a base table in heap order and applies a pushed-down
// filter, compiled when the scan opens.
type scanOp struct {
	table  *Table
	filter expr.Expr // bound to sch; may be nil
	sch    schema.Schema
	match  func(schema.Row) (bool, error)
	pos    int
}

func newScanOp(t *Table, binding string) *scanOp {
	return &scanOp{table: t, sch: t.Schema.WithQualifier(binding)}
}

func (s *scanOp) schema() schema.Schema { return s.sch }
func (s *scanOp) open() error {
	s.pos, s.match = 0, expr.CompileWhere(s.filter)
	return nil
}

func (s *scanOp) next() (schema.Row, bool, error) {
	for s.pos < len(s.table.Rows) {
		row := s.table.Rows[s.pos]
		s.pos++
		ok, err := s.match(row)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

func (s *scanOp) close() {}

// --- projection ---------------------------------------------------------------

type projectOp struct {
	child operator
	exprs []expr.Expr // bound to child schema
	sch   schema.Schema
	evals []func(schema.Row) (value.V, error) // exprs, compiled when the projection opens
}

func (p *projectOp) schema() schema.Schema { return p.sch }
func (p *projectOp) open() error {
	p.evals = make([]func(schema.Row) (value.V, error), len(p.exprs))
	for i, e := range p.exprs {
		p.evals[i] = expr.Compile(e)
	}
	return p.child.open()
}
func (p *projectOp) next() (schema.Row, bool, error) {
	row, ok, err := p.child.next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(schema.Row, len(p.evals))
	for i, eval := range p.evals {
		v, err := eval(row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}
func (p *projectOp) close() { p.child.close() }

// --- nested-loop join -----------------------------------------------------------

// nlJoinOp is an inner join that streams the left input and loops over a
// materialized right input, applying an optional condition. With a nil
// condition it is a cross join. It is the engine's one join: every join
// step, equi-join or theta join, is a nested loop over that step's
// conjuncts, and PackageBuilder's §4.2 replacement query streams through
// it.
type nlJoinOp struct {
	left, right operator
	cond        expr.Expr // bound to concat schema; may be nil
	sch         schema.Schema
	match       func(schema.Row) (bool, error) // cond, compiled when the join opens

	rightRows []schema.Row
	curLeft   schema.Row
	haveLeft  bool
	rpos      int
	scratch   schema.Row // condition-evaluation buffer; avoids allocating
	// a concat row for every rejected combination (the §4.2 replacement
	// joins reject almost everything)
}

func newNLJoin(l, r operator, cond expr.Expr) *nlJoinOp {
	return &nlJoinOp{left: l, right: r, cond: cond, sch: l.schema().Concat(r.schema())}
}

func (j *nlJoinOp) schema() schema.Schema { return j.sch }

func (j *nlJoinOp) open() error {
	if err := j.left.open(); err != nil {
		return err
	}
	if err := j.right.open(); err != nil {
		return err
	}
	j.rightRows = j.rightRows[:0]
	for {
		row, ok, err := j.right.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.rightRows = append(j.rightRows, row)
	}
	j.right.close()
	j.match = expr.CompileWhere(j.cond)
	j.haveLeft = false
	j.rpos = 0
	return nil
}

func (j *nlJoinOp) next() (schema.Row, bool, error) {
	for {
		if !j.haveLeft {
			row, ok, err := j.left.next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.curLeft = row
			j.haveLeft = true
			j.rpos = 0
			if j.cond != nil {
				if j.scratch == nil {
					j.scratch = make(schema.Row, j.sch.Len())
				}
				copy(j.scratch, row)
			}
		}
		lw := len(j.curLeft)
		for j.rpos < len(j.rightRows) {
			right := j.rightRows[j.rpos]
			j.rpos++
			if j.cond != nil {
				copy(j.scratch[lw:], right)
				pass, err := j.match(j.scratch)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return j.curLeft.Concat(right), true, nil
		}
		j.haveLeft = false
	}
}

func (j *nlJoinOp) close() {
	j.left.close()
	j.rightRows = nil
}

// --- limit ----------------------------------------------------------------------

// limitOp stops after limit rows, so a nested-loop join under it stops
// at its first qualifying combination when limit is 1.
type limitOp struct {
	child   operator
	limit   int64
	emitted int64
}

func (l *limitOp) schema() schema.Schema { return l.child.schema() }
func (l *limitOp) open() error {
	l.emitted = 0
	return l.child.open()
}
func (l *limitOp) next() (schema.Row, bool, error) {
	if l.emitted >= l.limit {
		return nil, false, nil
	}
	row, ok, err := l.child.next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.emitted++
	return row, true, nil
}
func (l *limitOp) close() { l.child.close() }
