package minidb

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/value"
)

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name   string
	Schema schema.Schema
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (...), (...).
// Value expressions must be constant (no column references).
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]expr.Expr
}

// DeleteStmt is DELETE FROM table [WHERE pred].
type DeleteStmt struct {
	Table string
	Where expr.Expr
}

// SelectStmt is a SELECT query: items over a comma join of base tables,
// an optional WHERE and an optional LIMIT.
type SelectStmt struct {
	Items []SelectItem
	From  []TableRef
	Where expr.Expr
	Limit *int64
}

// SelectItem is one output column: either a star ("*" or "alias.*") or
// an expression with an optional alias.
type SelectItem struct {
	Star     bool
	StarQual string // non-empty for "alias.*"
	Expr     expr.Expr
	Alias    string
}

// TableRef is one FROM source: a base table with an optional alias.
// Comma-listed refs are cross joins constrained by WHERE.
type TableRef struct {
	Name  string
	Alias string
}

// Binding name for the ref ("alias" falling back to the table name).
func (r TableRef) Binding() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Name
}

func (*CreateTableStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// Subquery is an uncorrelated scalar sub-query in an expression, SQL's
// or PaQL's. It is evaluated once and replaced by its single value: by
// the planner in a SELECT, by INSERT and DELETE before they write, by
// FoldSubqueries for PaQL.
type Subquery struct {
	Stmt *SelectStmt
	Text string // original text, for rendering
}

// Eval reports an error: sub-queries are folded before evaluation.
func (s *Subquery) Eval(schema.Row) (value.V, error) {
	return value.Null(), fmt.Errorf("minidb: scalar sub-query used outside a planning context")
}

// String renders the original sub-query text.
func (s *Subquery) String() string { return "(" + strings.TrimSpace(s.Text) + ")" }

// Children implements expr.Container (no scalar children).
func (s *Subquery) Children() []expr.Expr { return nil }

// CloneWith implements expr.Container.
func (s *Subquery) CloneWith([]expr.Expr) expr.Expr { return &Subquery{Stmt: s.Stmt, Text: s.Text} }
