// Package minidb is the relational substrate PackageBuilder talks to.
// The paper's system is "an external module which communicates with the
// DBMS, where the data resides, via SQL"; minidb plays the DBMS role:
// an embedded, in-memory engine with the SQL subset its callers speak
// (CREATE TABLE, INSERT, DELETE, and SELECT with WHERE, comma joins,
// global aggregates, scalar sub-queries and LIMIT), a volcano-style
// streaming executor and predicate pushdown into heap scans. GROUP BY,
// HAVING, ORDER BY, DISTINCT, OFFSET, JOIN ... ON and derived tables are
// refused at parse time by name.
//
// The engine favours clarity over raw speed but is careful about the
// case PackageBuilder stresses: the §4.2 local-search replacement query
// is a k-way self-join under theta conditions, which streams through
// nested loops without materializing the cross product.
//
// minidb also owns the expression vocabulary SQL and PaQL share: the
// grammar extension for aggregate calls (expr.Agg) and scalar sub-queries
// (Subquery) is InstallHook, which PaQL's parser installs too, and
// DB.FoldSubqueries folds a PaQL clause's sub-queries as the planner
// folds SQL's.
package minidb

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/schema"
	"repro/internal/value"
)

// DB is an in-memory database: a catalog of named tables. All methods
// are safe for concurrent use; readers proceed in parallel.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New returns an empty database.
func New() *DB {
	return &DB{tables: map[string]*Table{}}
}

// Table is a heap of rows. The schema's columns are unqualified; scans
// qualify them with the table name or alias.
type Table struct {
	Name   string
	Schema schema.Schema
	Rows   []schema.Row

	// version and log implement the per-table write tracking DeltaSince
	// serves (see delta.go).
	version uint64
	log     []deltaEntry

	derivedOnce sync.Once
	derived     any
}

// Derived returns the table's one slot for state a higher layer derives
// from its rows and keys on its version — the engine's candidate
// snapshots — made by mk on first use. Hanging the state here, rather
// than in a map keyed by table, is what gives it the table's lifetime: a
// dropped table takes everything derived from it along. Safe for
// concurrent use.
func (t *Table) Derived(mk func() any) any {
	t.derivedOnce.Do(func() { t.derived = mk() })
	return t.derived
}

// CreateTable registers a new, empty table. Column qualifiers in the
// schema are cleared; names must be unique within the table.
func (db *DB) CreateTable(name string, sc schema.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("minidb: table %q already exists", name)
	}
	seen := map[string]bool{}
	cols := make([]schema.Column, len(sc.Cols))
	for i, c := range sc.Cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("minidb: duplicate column %q in table %q", c.Name, name)
		}
		seen[lc] = true
		cols[i] = schema.Column{Name: c.Name, Type: c.Type}
	}
	t := &Table{Name: name, Schema: schema.Schema{Cols: cols}}
	db.tables[key] = t
	return t, nil
}

// DropTable removes a table; dropping a missing table is an error.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("minidb: table %q does not exist", name)
	}
	delete(db.tables, key)
	return nil
}

// Table looks up a table by name (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames returns the catalog's table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// InsertRows validates and appends rows to a table. Rows are validated
// against the schema (ints widen to floats).
func (db *DB) InsertRows(table string, rows []schema.Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("minidb: table %q does not exist", table)
	}
	return t.insert(rows)
}

func (t *Table) insert(rows []schema.Row) error {
	// A validation failure can leave earlier rows of the batch appended;
	// the write log must record exactly what landed.
	appended := 0
	defer func() {
		if appended > 0 {
			t.logWrite(appended, nil)
		}
	}()
	for _, r := range rows {
		vr, err := t.Schema.Validate(r)
		if err != nil {
			return fmt.Errorf("minidb: insert into %s: %w", t.Name, err)
		}
		t.Rows = append(t.Rows, vr)
		appended++
	}
	return nil
}

// LoadCSV reads CSV with a header into a new table. Header cells may be
// "name" (type inferred from the data) or "name:type". An existing table
// with the same name is an error.
func (db *DB) LoadCSV(table string, r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("minidb: csv header: %w", err)
	}
	type colSpec struct {
		name  string
		typ   schema.Type
		typed bool
	}
	specs := make([]colSpec, len(header))
	for i, h := range header {
		name := strings.TrimSpace(h)
		if at := strings.IndexByte(name, ':'); at >= 0 {
			tn := strings.TrimSpace(name[at+1:])
			ty, err := schema.TypeFromName(tn)
			if err != nil {
				return 0, fmt.Errorf("minidb: csv header %q: %w", h, err)
			}
			specs[i] = colSpec{name: strings.TrimSpace(name[:at]), typ: ty, typed: true}
		} else {
			specs[i] = colSpec{name: name}
		}
	}
	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("minidb: csv: %w", err)
		}
		records = append(records, rec)
	}
	// Infer untyped columns: INT if all parse as ints, FLOAT if numeric,
	// BOOL if all booleans, else TEXT. Empty cells are NULL and don't vote.
	for i := range specs {
		if specs[i].typed {
			continue
		}
		specs[i].typ = inferType(records, i)
	}
	cols := make([]schema.Column, len(specs))
	for i, s := range specs {
		cols[i] = schema.Column{Name: s.name, Type: s.typ}
	}
	t, err := db.CreateTable(table, schema.Schema{Cols: cols})
	if err != nil {
		return 0, err
	}
	rows := make([]schema.Row, 0, len(records))
	for _, rec := range records {
		row := make(schema.Row, len(specs))
		for i := range specs {
			cell := ""
			if i < len(rec) {
				cell = strings.TrimSpace(rec[i])
			}
			v, err := value.ParseAs(cell, specs[i].typ.Kind())
			if err != nil {
				return 0, fmt.Errorf("minidb: csv %s column %s: %w", table, specs[i].name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(rows), t.insert(rows)
}

// LoadCSVFile is LoadCSV over a file path.
func (db *DB) LoadCSVFile(table, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return db.LoadCSV(table, f)
}

func inferType(records [][]string, col int) schema.Type {
	allInt, allFloat, allBool := true, true, true
	seen := false
	for _, rec := range records {
		if col >= len(rec) {
			continue
		}
		cell := strings.TrimSpace(rec[col])
		if cell == "" {
			continue
		}
		seen = true
		if _, err := value.ParseAs(cell, value.KindInt); err != nil {
			allInt = false
		}
		if _, err := value.ParseAs(cell, value.KindFloat); err != nil {
			allFloat = false
		}
		if _, err := value.ParseAs(cell, value.KindBool); err != nil {
			allBool = false
		}
	}
	switch {
	case !seen:
		return schema.TString
	case allInt:
		return schema.TInt
	case allFloat:
		return schema.TFloat
	case allBool:
		return schema.TBool
	}
	return schema.TString
}
