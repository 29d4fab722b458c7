package minidb

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// Result is the materialized output of a statement. For SELECT, Schema
// and Rows are populated; for DDL/DML, Affected counts changed rows.
type Result struct {
	Schema   schema.Schema
	Rows     []schema.Row
	Affected int
}

// Scalar reads a SELECT's result as the value of a scalar sub-query, the
// one rule SQL and PaQL sub-queries share: one column, at most one row,
// and zero rows fold to NULL.
func (r *Result) Scalar() (value.V, error) {
	if n := r.Schema.Len(); n != 1 {
		return value.Null(), fmt.Errorf("minidb: scalar sub-query must return one column, got %d", n)
	}
	switch len(r.Rows) {
	case 0:
		return value.Null(), nil
	case 1:
		return r.Rows[0][0], nil
	}
	return value.Null(), fmt.Errorf("minidb: scalar sub-query must return at most one row, got %d", len(r.Rows))
}

// Exec parses and runs a single SQL statement.
func (db *DB) Exec(sql string) (*Result, error) {
	st, err := ParseStmt(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.runSelect(s)
	case *CreateTableStmt:
		_, err := db.CreateTable(s.Name, s.Schema)
		return &Result{}, err
	case *InsertStmt:
		return db.runInsert(s)
	case *DeleteStmt:
		return db.runDelete(s)
	}
	return nil, fmt.Errorf("minidb: unsupported statement %T", st)
}

// Query is Exec restricted to SELECT statements.
func (db *DB) Query(sql string) (*Result, error) {
	st, err := ParseStmt(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("minidb: Query requires a SELECT statement")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.runSelect(sel)
}

// runSelect plans and drains a SELECT. Callers hold at least a read lock.
func (db *DB) runSelect(st *SelectStmt) (*Result, error) {
	op, err := db.planSelect(st)
	if err != nil {
		return nil, err
	}
	if err := op.open(); err != nil {
		return nil, err
	}
	defer op.close()
	res := &Result{Schema: op.schema()}
	for {
		row, ok, err := op.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (db *DB) runInsert(s *InsertStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("minidb: table %q does not exist", s.Table)
	}
	// Column list: default to schema order.
	ords := make([]int, 0, len(s.Cols))
	if len(s.Cols) > 0 {
		for _, c := range s.Cols {
			i, err := t.Schema.IndexOf("", c)
			if err != nil {
				return nil, fmt.Errorf("minidb: insert into %s: %w", s.Table, err)
			}
			ords = append(ords, i)
		}
	}
	rows := make([]schema.Row, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		want := len(ords)
		if want == 0 {
			want = t.Schema.Len()
		}
		if len(exprRow) != want {
			return nil, fmt.Errorf("minidb: insert into %s: %d values for %d columns", s.Table, len(exprRow), want)
		}
		row := make(schema.Row, t.Schema.Len())
		for i := range row {
			row[i] = value.Null()
		}
		for i, e := range exprRow {
			// A sub-query reads the table as it stands before the write.
			e, err := db.fold(e)
			if err != nil {
				return nil, err
			}
			if len(expr.Columns(e)) > 0 {
				return nil, fmt.Errorf("minidb: INSERT values must be constant expressions, got %s", e)
			}
			v, err := e.Eval(nil)
			if err != nil {
				return nil, err
			}
			ord := i
			if len(ords) > 0 {
				ord = ords[i]
			}
			row[ord] = v
		}
		rows = append(rows, row)
	}
	if err := t.insert(rows); err != nil {
		return nil, err
	}
	return &Result{Affected: len(rows)}, nil
}

func (db *DB) runDelete(s *DeleteStmt) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, fmt.Errorf("minidb: table %q does not exist", s.Table)
	}
	var pred expr.Expr
	if s.Where != nil {
		// A sub-query reads the table as it stands before the write.
		folded, err := db.fold(s.Where)
		if err != nil {
			return nil, err
		}
		pred = expr.Clone(folded)
		// Accept both bare and table-qualified column references.
		sch := t.Schema.WithQualifier(t.Name)
		if err := expr.Bind(pred, sch); err != nil {
			return nil, err
		}
	}
	match := expr.CompileWhere(pred)
	var deleted []int
	for pos, row := range t.Rows {
		del, err := match(row)
		if err != nil {
			return nil, err
		}
		if del {
			deleted = append(deleted, pos)
		}
	}
	// The survivors get an array of their own, never t.Rows's, which
	// readers may hold. It is allocated once, with a quarter more room
	// than they fill, as append would grow it: the next INSERT's rows fit
	// after them, and a DELETE of most rows shrinks the array.
	survivors := len(t.Rows) - len(deleted)
	kept := make([]schema.Row, 0, survivors+survivors/4)
	next := 0
	for pos, row := range t.Rows {
		if next < len(deleted) && deleted[next] == pos {
			next++
			continue
		}
		kept = append(kept, row)
	}
	t.Rows = kept
	if len(deleted) > 0 {
		t.logWrite(0, deleted)
	}
	return &Result{Affected: len(deleted)}, nil
}

// Format renders the result as an aligned text table.
func (r *Result) Format(w io.Writer) {
	if r.Schema.Len() == 0 {
		fmt.Fprintf(w, "OK (%d rows affected)\n", r.Affected)
		return
	}
	headers := make([]string, r.Schema.Len())
	widths := make([]int, r.Schema.Len())
	for i, c := range r.Schema.Cols {
		headers[i] = c.QualifiedName()
		widths[i] = len(headers[i])
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	line := func(parts []string) {
		for i, p := range parts {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], p)
		}
		fmt.Fprintln(w)
	}
	line(headers)
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range cells {
		line(row)
	}
	fmt.Fprintf(w, "(%d rows)\n", len(r.Rows))
}
