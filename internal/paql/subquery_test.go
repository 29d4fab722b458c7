package paql_test

import (
	"strings"
	"testing"

	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/template"
)

// TestParseRejectsMalformedSubquery: a sub-query inside PaQL is SQL, parsed
// by minidb's grammar while the PaQL text is, so a malformed one is a parse
// error of the query — the one SQL gives for the same text — on every
// surface that parses PaQL, and never waits for evaluation to surface.
func TestParseRejectsMalformedSubquery(t *testing.T) {
	const sub = "SELECT FROM WHERE"
	_, sqlErr := minidb.ParseStmt(sub)
	if sqlErr == nil {
		t.Fatalf("minidb.ParseStmt(%q) accepted it", sub)
	}
	want, _, _ := strings.Cut(sqlErr.Error(), " (at ") // the position differs
	text := "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= (" + sub + ")"
	_, parseErr := paql.Parse(text)
	_, tplErr := template.FromText(text)
	for _, c := range []struct {
		surface string
		err     error
	}{{"paql.Parse", parseErr}, {"template.FromText", tplErr}} {
		if c.err == nil || !strings.HasPrefix(c.err.Error(), want) {
			t.Errorf("%s: error %v; want minidb's %q", c.surface, c.err, want)
		}
	}
}
