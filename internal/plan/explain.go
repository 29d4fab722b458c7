package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan as the tree EXPLAIN prints: a header with
// the query, table statistics and atom mix, then one branch per
// decision with its value, forced marker and reason.
func (p *Plan) Explain() string {
	var b strings.Builder
	q := collapse(p.Query)
	if q != "" {
		fmt.Fprintf(&b, "plan for: %s\n", q)
	} else {
		b.WriteString("plan\n")
	}
	snapshot := "miss"
	if p.SnapshotHit {
		snapshot = "hit"
	}
	fmt.Fprintf(&b, "table %s: %d rows; %d rows scanned (candidate snapshot %s)\n",
		p.Table.Table, p.Table.Rows, p.RowsScanned, snapshot)
	fmt.Fprintf(&b, "atoms: %s\n", p.Mix.describe())
	for i, d := range p.Decisions {
		branch, cont := "├─", "│ "
		if i == len(p.Decisions)-1 {
			branch, cont = "└─", "  "
		}
		forced := ""
		if d.Forced {
			forced = "  [forced]"
		}
		fmt.Fprintf(&b, "%s %s = %s%s\n", branch, d.Name, d.Value, forced)
		fmt.Fprintf(&b, "%s     %s\n", cont, d.Reason)
	}
	return b.String()
}

// describe renders the atom mix one-liner for the EXPLAIN header.
func (m AtomMix) describe() string {
	var parts []string
	if m.SumCount > 0 {
		parts = append(parts, fmt.Sprintf("%d sum/count", m.SumCount))
	}
	if m.Avg > 0 {
		parts = append(parts, fmt.Sprintf("%d avg", m.Avg))
	}
	if m.MinMax > 0 {
		parts = append(parts, fmt.Sprintf("%d min/max", m.MinMax))
	}
	if len(parts) == 0 {
		parts = append(parts, "no aggregates")
	}
	kind := "linear"
	if !m.Linear {
		kind = fmt.Sprintf("non-linear (%s)", strings.Join(m.NonlinearReasons, "; "))
	}
	s := fmt.Sprintf("%s; %s", kind, strings.Join(parts, ", "))
	switch {
	case m.SketchOK && m.Branches > 1:
		s += fmt.Sprintf("; disjunctive (%d DNF branches)", m.Branches)
	case m.SketchOK:
		s += "; 1 branch"
	default:
		s += fmt.Sprintf("; sketch inapplicable (%s)", m.SketchErr)
	}
	return s
}

// collapse folds runs of whitespace (including newlines) into single
// spaces so a multi-line query prints as one EXPLAIN header line.
func collapse(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
