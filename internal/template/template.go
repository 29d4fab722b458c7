// Package template implements the paper's §3.1 package template: a
// structured, editable view of a package query — base-constraint slots,
// global-constraint slots, an objective slot, and a sample package
// rendered as a table. The template is deliberately "not as powerful as
// the PaQL language itself" but compiles back to PaQL, so the visual
// interface and the language stay interchangeable.
package template

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/paql"
	"repro/internal/parse"
	"repro/internal/schema"
	"repro/internal/value"
)

// Template is an editable package-query specification.
type Template struct {
	Table  string
	RelVar string
	PkgVar string
	Repeat int // 0 = no duplicates, k = up to k repeats

	Base    []string // base constraint slots (PaQL expressions over the relation)
	Globals []string // global constraint slots (aggregate comparisons)

	ObjectiveSense string // "", "MAXIMIZE" or "MINIMIZE"
	Objective      string // aggregate expression

	Limit int
}

// New starts an empty template over a relation.
func New(table, relVar string) *Template {
	if relVar == "" {
		relVar = "R"
	}
	return &Template{Table: table, RelVar: relVar, PkgVar: "P"}
}

// FromQuery decomposes a parsed query into template slots: the SUCH
// THAT formula splits at top-level ANDs, one slot per conjunct.
func FromQuery(q *paql.Query) *Template {
	t := &Template{
		Table: q.Table, RelVar: q.RelVar, PkgVar: q.PkgVar,
		Repeat: q.Repeat, Limit: q.Limit,
	}
	for _, c := range conjuncts(q.Where) {
		t.Base = append(t.Base, c.String())
	}
	for _, c := range conjuncts(q.SuchThat) {
		t.Globals = append(t.Globals, c.String())
	}
	if q.Objective != nil {
		t.ObjectiveSense = q.Objective.Sense.String()
		t.Objective = q.Objective.Expr.String()
	}
	return t
}

// FromText parses PaQL text into a template.
func FromText(text string) (*Template, error) {
	q, err := paql.Parse(text)
	if err != nil {
		return nil, err
	}
	return FromQuery(q), nil
}

func conjuncts(e expr.Expr) []expr.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

// AddBase validates and appends a base-constraint slot.
func (t *Template) AddBase(s string) error {
	if _, err := parse.ParseExprString(s); err != nil {
		return fmt.Errorf("template: base constraint: %w", err)
	}
	t.Base = append(t.Base, s)
	return nil
}

// AddGlobal validates and appends a global-constraint slot. Validation
// round-trips the fragment through the PaQL parser so aggregate syntax
// (including filtered aggregates) is accepted.
func (t *Template) AddGlobal(s string) error {
	probe := fmt.Sprintf("SELECT PACKAGE(%s) AS %s FROM %s %s SUCH THAT %s",
		t.RelVar, t.PkgVar, t.Table, t.RelVar, s)
	if _, err := paql.Parse(probe); err != nil {
		return fmt.Errorf("template: global constraint: %w", err)
	}
	t.Globals = append(t.Globals, s)
	return nil
}

// SetObjective validates and installs the objective slot.
func (t *Template) SetObjective(sense, exprText string) error {
	up := strings.ToUpper(strings.TrimSpace(sense))
	if up != "MAXIMIZE" && up != "MINIMIZE" {
		return fmt.Errorf("template: objective sense must be MAXIMIZE or MINIMIZE, got %q", sense)
	}
	probe := fmt.Sprintf("SELECT PACKAGE(%s) AS %s FROM %s %s %s %s",
		t.RelVar, t.PkgVar, t.Table, t.RelVar, up, exprText)
	if _, err := paql.Parse(probe); err != nil {
		return fmt.Errorf("template: objective: %w", err)
	}
	t.ObjectiveSense, t.Objective = up, exprText
	return nil
}

// ClearObjective removes the objective slot.
func (t *Template) ClearObjective() { t.ObjectiveSense, t.Objective = "", "" }

// RemoveBase deletes base slot i.
func (t *Template) RemoveBase(i int) error {
	if i < 0 || i >= len(t.Base) {
		return fmt.Errorf("template: base slot %d out of range", i)
	}
	t.Base = append(t.Base[:i], t.Base[i+1:]...)
	return nil
}

// RemoveGlobal deletes global slot i.
func (t *Template) RemoveGlobal(i int) error {
	if i < 0 || i >= len(t.Globals) {
		return fmt.Errorf("template: global slot %d out of range", i)
	}
	t.Globals = append(t.Globals[:i], t.Globals[i+1:]...)
	return nil
}

// ToPaQL compiles the template back to a PaQL query string.
func (t *Template) ToPaQL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT PACKAGE(%s) AS %s\nFROM %s %s", t.RelVar, t.PkgVar, t.Table, t.RelVar)
	if t.Repeat > 0 {
		fmt.Fprintf(&b, " REPEAT %d", t.Repeat)
	}
	if len(t.Base) > 0 {
		fmt.Fprintf(&b, "\nWHERE %s", strings.Join(t.Base, " AND "))
	}
	if len(t.Globals) > 0 {
		fmt.Fprintf(&b, "\nSUCH THAT %s", strings.Join(t.Globals, " AND "))
	}
	if t.ObjectiveSense != "" {
		fmt.Fprintf(&b, "\n%s %s", t.ObjectiveSense, t.Objective)
	}
	if t.Limit > 1 {
		fmt.Fprintf(&b, "\nLIMIT %d", t.Limit)
	}
	return b.String()
}

// Parse compiles and parses the template (a convenience that also
// validates slot composition).
func (t *Template) Parse() (*paql.Query, error) {
	return paql.Parse(t.ToPaQL())
}

// Render draws the template as the demo's tabular view: the sample
// package (when given), then the constraint slots and objective. cols
// limits which columns of the sample are shown (nil = all).
func (t *Template) Render(w io.Writer, sc schema.Schema, sample *core.Package, cols []string) {
	fmt.Fprintf(w, "Package template over %s (as %s)\n", t.Table, t.RelVar)
	fmt.Fprintln(w, strings.Repeat("=", 52))
	if sample != nil {
		ords := make([]int, 0, sc.Len())
		if cols == nil {
			for i := range sc.Cols {
				ords = append(ords, i)
			}
		} else {
			for _, name := range cols {
				if i, err := sc.IndexOf("", name); err == nil {
					ords = append(ords, i)
				}
			}
		}
		headers := make([]string, len(ords))
		widths := make([]int, len(ords))
		for i, o := range ords {
			headers[i] = sc.Cols[o].Name
			widths[i] = len(headers[i])
		}
		cells := make([][]string, len(sample.Rows))
		for r, row := range sample.Rows {
			cells[r] = make([]string, len(ords))
			for i, o := range ords {
				s := row[o].String()
				if len(s) > 24 {
					s = s[:21] + "..."
				}
				cells[r][i] = s
				if len(s) > widths[i] {
					widths[i] = len(s)
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
		fmt.Fprintln(w, "Sample package:")
		line(headers)
		for _, row := range cells {
			line(row)
		}
		fmt.Fprintln(w)
		if len(sample.AggValues) > 0 {
			fmt.Fprintln(w, "Aggregates:")
			for _, a := range sortedKeys(sample.AggValues) {
				fmt.Fprintf(w, "  %-36s %s\n", a, sample.AggValues[a])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "Base constraints (each tuple):")
	if len(t.Base) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for i, c := range t.Base {
		fmt.Fprintf(w, "  [b%d] %s\n", i, c)
	}
	fmt.Fprintln(w, "Global constraints (whole package):")
	if len(t.Globals) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for i, c := range t.Globals {
		fmt.Fprintf(w, "  [g%d] %s\n", i, c)
	}
	if t.ObjectiveSense != "" {
		fmt.Fprintf(w, "Objective: %s %s\n", t.ObjectiveSense, t.Objective)
	} else {
		fmt.Fprintln(w, "Objective: (none)")
	}
}

func sortedKeys(m map[string]value.V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
