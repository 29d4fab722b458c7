// Package explore implements the paper's §3.3 adaptive exploration and
// §3.1 constraint suggestion. A Session wraps a prepared package query;
// the user pins tuples they like and asks for a replacement package
// that keeps the pinned tuples and swaps the rest ("Users can then
// select good tuples within the sample, and request a new sample that
// replaces the unselected tuples"). Suggest proposes constraints from
// highlighted cells, rows or columns, mirroring the Figure 1 side panel.
package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/search"
	"repro/internal/value"
)

// Session is an interactive exploration of one package query.
type Session struct {
	prep    *core.Prepared
	opts    core.Options
	current *core.Package
	pinned  map[int]bool // candidate indexes
	history []*core.Package
	stats   *core.Stats // last evaluation's statistics
}

// Stats returns the statistics of the most recent Refresh or Replace
// evaluation (nil before the first one).
func (s *Session) Stats() *core.Stats { return s.stats }

// NewSession prepares a query for exploration.
func NewSession(db *minidb.DB, queryText string, opts core.Options) (*Session, error) {
	return NewSessionContext(context.Background(), db, queryText, opts)
}

// NewSessionContext is NewSession under a context: the candidate scan
// checks for cancellation (see core.PrepareContext).
func NewSessionContext(ctx context.Context, db *minidb.DB, queryText string, opts core.Options) (*Session, error) {
	prep, err := core.PrepareContext(ctx, db, queryText)
	if err != nil {
		return nil, err
	}
	return &Session{prep: prep, opts: opts, pinned: map[int]bool{}}, nil
}

// Query returns the underlying PaQL query.
func (s *Session) Query() *paql.Query { return s.prep.Query }

// Prepared exposes the underlying prepared query (for viz/template).
func (s *Session) Prepared() *core.Prepared { return s.prep }

// Current returns the package on display (nil before Refresh).
func (s *Session) Current() *core.Package { return s.current }

// History returns all packages shown so far, oldest first.
func (s *Session) History() []*core.Package { return s.history }

// Pinned returns the pinned candidate indexes, sorted.
func (s *Session) Pinned() []int {
	out := make([]int, 0, len(s.pinned))
	for i := range s.pinned {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Refresh evaluates the query (respecting pins) and makes the best
// package current. Legacy surface: provable infeasibility comes back as
// the classic untyped message; RefreshContext keeps the typed error.
func (s *Session) Refresh() (*core.Package, error) {
	p, err := s.RefreshContext(context.Background())
	if err != nil && errors.Is(err, lifecycle.ErrInfeasible) {
		return nil, fmt.Errorf("explore: no package satisfies the query%s",
			pinSuffix(len(s.pinned)))
	}
	return p, err
}

// RefreshContext is Refresh under a context, with the RunContext error
// taxonomy: lifecycle.ErrInfeasible when the query (with the current
// pins) provably has no package, lifecycle.ErrCanceled /
// ErrBudgetExceeded on cancellation or budget refusal. A heuristic
// strategy finding nothing keeps the classic untyped "no package
// satisfies" error.
func (s *Session) RefreshContext(ctx context.Context) (*core.Package, error) {
	opts := s.opts
	opts.Require = s.Pinned()
	res, err := s.prep.RunContext(ctx, opts)
	if res != nil {
		s.stats = &res.Stats
	}
	if err != nil {
		return nil, err
	}
	if len(res.Packages) == 0 {
		return nil, fmt.Errorf("explore: no package satisfies the query%s",
			pinSuffix(len(opts.Require)))
	}
	s.current = res.Packages[0]
	s.history = append(s.history, s.current)
	return s.current, nil
}

func pinSuffix(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(" with %d pinned tuple(s)", n)
}

// Pin marks a candidate (by its position in the current package's
// candidate set) as kept across replacements.
func (s *Session) Pin(candidateIdx int) error {
	if candidateIdx < 0 || candidateIdx >= len(s.prep.Instance.Rows) {
		return fmt.Errorf("explore: candidate %d out of range", candidateIdx)
	}
	s.pinned[candidateIdx] = true
	return nil
}

// PinRowID pins by base-table row id.
func (s *Session) PinRowID(rowID int) error {
	for i, id := range s.prep.Instance.IDs {
		if id == rowID {
			return s.Pin(i)
		}
	}
	return fmt.Errorf("explore: row id %d is not a candidate (check base constraints)", rowID)
}

// Unpin releases a pinned candidate.
func (s *Session) Unpin(candidateIdx int) { delete(s.pinned, candidateIdx) }

// Replace finds a package that keeps every pinned tuple but differs
// from all packages shown so far (§3.3's "request a new sample that
// replaces the unselected tuples"). Legacy surface: provable
// infeasibility comes back as the classic untyped message;
// ReplaceContext keeps the typed error.
func (s *Session) Replace() (*core.Package, error) {
	p, err := s.ReplaceContext(context.Background())
	if err != nil && errors.Is(err, lifecycle.ErrInfeasible) {
		return nil, fmt.Errorf("explore: no further distinct package exists%s",
			pinSuffix(len(s.pinned)))
	}
	return p, err
}

// ReplaceContext is Replace under a context, with the RunContext error
// taxonomy (see RefreshContext).
func (s *Session) ReplaceContext(ctx context.Context) (*core.Package, error) {
	opts := s.opts
	opts.Require = s.Pinned()
	opts.Limit = len(s.history) + 3 // enough distinct packages to skip history
	res, err := s.prep.RunContext(ctx, opts)
	if res != nil {
		s.stats = &res.Stats
	}
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, h := range s.history {
		seen[search.Pkg{Mult: h.Mult}.Key()] = true
	}
	for _, p := range res.Packages {
		if !seen[search.Pkg{Mult: p.Mult}.Key()] {
			s.current = p
			s.history = append(s.history, p)
			return p, nil
		}
	}
	return nil, fmt.Errorf("explore: no further distinct package exists%s", pinSuffix(len(opts.Require)))
}

// Highlight describes what the user selected in the sample-package view.
type Highlight struct {
	Column string // column name; empty for a row-only highlight
	Row    int    // candidate index; -1 for a column-only highlight
}

// Suggestion is one proposed refinement.
type Suggestion struct {
	Kind string // "base" | "global" | "objective" | "action"
	Text string // PaQL fragment or action description
	Why  string
}

// Suggest proposes constraints for a highlight, following the paper's
// example: "when the user selects a cell within the 'fats' column, the
// system proposes several constraints that would restrict the amount of
// fat in each meal, and objectives that would minimize the total amount
// of fat".
func (s *Session) Suggest(h Highlight) ([]Suggestion, error) {
	inst := s.prep.Instance
	pv := s.prep.Query.PkgVar
	rv := s.prep.Query.RelVar
	if h.Column == "" {
		if h.Row < 0 || h.Row >= len(inst.Rows) {
			return nil, fmt.Errorf("explore: highlight names neither a column nor a valid row")
		}
		return []Suggestion{{
			Kind: "action",
			Text: fmt.Sprintf("PIN tuple %d", inst.IDs[h.Row]),
			Why:  "keep this tuple and replace the others (adaptive exploration)",
		}}, nil
	}
	ord, err := s.prep.Table.Schema.IndexOf("", h.Column)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	col := s.prep.Table.Schema.Cols[ord]
	var sugg []Suggestion
	if col.Type.Numeric() {
		stats := s.columnStats(ord)
		if h.Row >= 0 && h.Row < len(inst.Rows) {
			cell, _ := inst.Rows[h.Row][ord].AsFloat()
			sugg = append(sugg,
				Suggestion{Kind: "base", Text: fmt.Sprintf("%s.%s <= %g", rv, col.Name, cell),
					Why: "restrict every tuple to at most the highlighted value"},
				Suggestion{Kind: "global", Text: fmt.Sprintf("MAX(%s.%s) <= %g", pv, col.Name, cell),
					Why: "cap the package-wide maximum at the highlighted value"},
			)
		}
		sugg = append(sugg,
			Suggestion{Kind: "base", Text: fmt.Sprintf("%s.%s BETWEEN %g AND %g", rv, col.Name, stats.q1, stats.q3),
				Why: "keep tuples in the interquartile range of the candidates"},
			Suggestion{Kind: "global", Text: fmt.Sprintf("SUM(%s.%s) <= %g", pv, col.Name, round2(stats.median*float64(maxI(inst.Bounds.Lo, 1)*2))),
				Why: "bound the package total (twice the median times the minimum size)"},
			Suggestion{Kind: "global", Text: fmt.Sprintf("AVG(%s.%s) <= %g", pv, col.Name, round2(stats.median)),
				Why: "keep the package average at or below the candidate median"},
			Suggestion{Kind: "objective", Text: fmt.Sprintf("MINIMIZE SUM(%s.%s)", pv, col.Name),
				Why: "prefer packages with the least total " + col.Name},
			Suggestion{Kind: "objective", Text: fmt.Sprintf("MAXIMIZE SUM(%s.%s)", pv, col.Name),
				Why: "prefer packages with the most total " + col.Name},
		)
		return sugg, nil
	}
	// categorical column
	if h.Row >= 0 && h.Row < len(inst.Rows) {
		cell := inst.Rows[h.Row][ord]
		if cell.Kind() == value.KindString {
			v := cell.SQLString()
			sugg = append(sugg,
				Suggestion{Kind: "base", Text: fmt.Sprintf("%s.%s = %s", rv, col.Name, v),
					Why: "restrict every tuple to the highlighted category"},
				Suggestion{Kind: "global", Text: fmt.Sprintf("COUNT(* WHERE %s.%s = %s) >= 1", pv, col.Name, v),
					Why: "require at least one tuple of the highlighted category"},
			)
		}
	}
	for _, v := range s.topCategories(ord, 3) {
		sugg = append(sugg, Suggestion{
			Kind: "global",
			Text: fmt.Sprintf("COUNT(* WHERE %s.%s = %s) >= 1", pv, col.Name, v.SQLString()),
			Why:  "require representation of a frequent category",
		})
	}
	if len(sugg) == 0 {
		return nil, fmt.Errorf("explore: no suggestions for column %s", col.Name)
	}
	return sugg, nil
}

type colStats struct{ q1, median, q3 float64 }

func (s *Session) columnStats(ord int) colStats {
	var vals []float64
	for _, row := range s.prep.Instance.Rows {
		if f, ok := row[ord].AsFloat(); ok {
			vals = append(vals, f)
		}
	}
	if len(vals) == 0 {
		return colStats{}
	}
	sort.Float64s(vals)
	q := func(p float64) float64 {
		idx := p * float64(len(vals)-1)
		lo := int(math.Floor(idx))
		hi := int(math.Ceil(idx))
		frac := idx - float64(lo)
		return round2(vals[lo]*(1-frac) + vals[hi]*frac)
	}
	return colStats{q1: q(0.25), median: q(0.5), q3: q(0.75)}
}

func (s *Session) topCategories(ord, k int) []value.V {
	counts := map[string]int{}
	vals := map[string]value.V{}
	for _, row := range s.prep.Instance.Rows {
		v := row[ord]
		if v.IsNull() {
			continue
		}
		key := v.String()
		counts[key]++
		vals[key] = v
	}
	keys := make([]string, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	out := make([]value.V, len(keys))
	for i, key := range keys {
		out[i] = vals[key]
	}
	return out
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
