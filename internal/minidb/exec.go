package minidb

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/schema"
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
// filter.
type scanOp struct {
	table  *Table
	filter expr.Expr // bound to sch; may be nil
	sch    schema.Schema
	pos    int
}

func newScanOp(t *Table, binding string) *scanOp {
	return &scanOp{table: t, sch: t.Schema.WithQualifier(binding)}
}

func (s *scanOp) schema() schema.Schema { return s.sch }
func (s *scanOp) open() error           { s.pos = 0; return nil }

func (s *scanOp) next() (schema.Row, bool, error) {
	for s.pos < len(s.table.Rows) {
		row := s.table.Rows[s.pos]
		s.pos++
		if s.filter != nil {
			ok, err := expr.EvalBool(s.filter, row)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
		}
		return row, true, nil
	}
	return nil, false, nil
}

func (s *scanOp) close() {}

// --- materialized rows (derived tables) --------------------------------------

type valuesOp struct {
	rows []schema.Row
	sch  schema.Schema
	pos  int
}

func (v *valuesOp) schema() schema.Schema { return v.sch }
func (v *valuesOp) open() error           { v.pos = 0; return nil }
func (v *valuesOp) next() (schema.Row, bool, error) {
	if v.pos >= len(v.rows) {
		return nil, false, nil
	}
	r := v.rows[v.pos]
	v.pos++
	return r, true, nil
}
func (v *valuesOp) close() {}

// --- filter ------------------------------------------------------------------

type filterOp struct {
	child operator
	pred  expr.Expr // bound to child schema
}

func (f *filterOp) schema() schema.Schema { return f.child.schema() }
func (f *filterOp) open() error           { return f.child.open() }
func (f *filterOp) next() (schema.Row, bool, error) {
	for {
		row, ok, err := f.child.next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := expr.EvalBool(f.pred, row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}
func (f *filterOp) close() { f.child.close() }

// --- projection ---------------------------------------------------------------

type projectOp struct {
	child operator
	exprs []expr.Expr // bound to child schema
	sch   schema.Schema
}

func (p *projectOp) schema() schema.Schema { return p.sch }
func (p *projectOp) open() error           { return p.child.open() }
func (p *projectOp) next() (schema.Row, bool, error) {
	row, ok, err := p.child.next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(schema.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(row)
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
				pass, err := expr.EvalBool(j.cond, j.scratch)
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

// --- sort, distinct, limit --------------------------------------------------------

type sortOp struct {
	child operator
	keys  []OrderItem // bound to child schema
	rows  []schema.Row
	pos   int
}

func (s *sortOp) schema() schema.Schema { return s.child.schema() }

func (s *sortOp) open() error {
	if err := s.child.open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	for {
		row, ok, err := s.child.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, row)
	}
	s.child.close()
	var evalErr error
	sort.SliceStable(s.rows, func(i, k int) bool {
		for _, key := range s.keys {
			a, err := key.E.Eval(s.rows[i])
			if err != nil && evalErr == nil {
				evalErr = err
			}
			b, err := key.E.Eval(s.rows[k])
			if err != nil && evalErr == nil {
				evalErr = err
			}
			if a.IsNull() && b.IsNull() {
				continue
			}
			less := a.SortLess(b)
			greater := b.SortLess(a)
			if !less && !greater {
				continue
			}
			if key.Desc {
				return greater
			}
			return less
		}
		return false
	})
	s.pos = 0
	return evalErr
}

func (s *sortOp) next() (schema.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *sortOp) close() { s.rows = nil }

type distinctOp struct {
	child operator
	seen  map[string]bool
}

func (d *distinctOp) schema() schema.Schema { return d.child.schema() }
func (d *distinctOp) open() error {
	d.seen = make(map[string]bool)
	return d.child.open()
}
func (d *distinctOp) next() (schema.Row, bool, error) {
	for {
		row, ok, err := d.child.next()
		if err != nil || !ok {
			return nil, false, err
		}
		var key []byte
		for _, v := range row {
			key = v.EncodeKey(key)
		}
		k := string(key)
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		return row, true, nil
	}
}
func (d *distinctOp) close() { d.child.close(); d.seen = nil }

type limitOp struct {
	child         operator
	limit, offset int64
	emitted       int64
	skipped       int64
}

func (l *limitOp) schema() schema.Schema { return l.child.schema() }
func (l *limitOp) open() error {
	l.emitted, l.skipped = 0, 0
	return l.child.open()
}
func (l *limitOp) next() (schema.Row, bool, error) {
	for {
		if l.limit >= 0 && l.emitted >= l.limit {
			return nil, false, nil
		}
		row, ok, err := l.child.next()
		if err != nil || !ok {
			return nil, false, err
		}
		if l.skipped < l.offset {
			l.skipped++
			continue
		}
		l.emitted++
		return row, true, nil
	}
}
func (l *limitOp) close() { l.child.close() }
