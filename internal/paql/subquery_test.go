package paql_test

import (
	"strings"
	"testing"

	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/template"
)

// TestParseRejectsMalformedSubquery: a sub-query inside PaQL is SQL, parsed
// by minidb's grammar while the PaQL text is, so a malformed one — or one
// using a clause minidb refuses — is a parse error of the query, the one
// SQL gives for the same text, on every surface that parses PaQL, and
// never waits for evaluation to surface.
func TestParseRejectsMalformedSubquery(t *testing.T) {
	for _, c := range []struct{ sub, name string }{
		{"SELECT FROM WHERE", "expected"},
		{"SELECT calories FROM recipes ORDER BY calories LIMIT 1", "minidb does not support ORDER BY"},
	} {
		_, sqlErr := minidb.ParseStmt(c.sub)
		if sqlErr == nil || !strings.Contains(sqlErr.Error(), c.name) {
			t.Fatalf("minidb.ParseStmt(%q) = %v, want an error naming %q", c.sub, sqlErr, c.name)
		}
		want, _, _ := strings.Cut(sqlErr.Error(), " (at ") // the position differs
		text := "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= (" + c.sub + ")"
		_, parseErr := paql.Parse(text)
		_, tplErr := template.FromText(text)
		for _, s := range []struct {
			surface string
			err     error
		}{{"paql.Parse", parseErr}, {"template.FromText", tplErr}} {
			if s.err == nil || !strings.HasPrefix(s.err.Error(), want) {
				t.Errorf("%s: error %v; want minidb's %q", s.surface, s.err, want)
			}
		}
	}
}
