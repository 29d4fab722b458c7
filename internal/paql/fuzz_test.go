package paql

import (
	"strings"
	"testing"

	"repro/internal/parse"
)

// FuzzParse holds the parser to its contract on arbitrary text — PaQL
// arrives from the CLI, the REPL and HTTP bodies: an error or a query,
// never both, never neither, never a panic; and a query it accepts
// renders without panicking. Seeds: the corpora the unit tests above
// already read.
func FuzzParse(f *testing.F) {
	f.Add(mealQuery)
	for _, q := range badQueries {
		f.Add(q)
	}
	for _, c := range globalClauses {
		f.Add("SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 2 WHERE R.kind <> 'x' " + c + " MINIMIZE SUM(P.price) LIMIT 3")
	}
	f.Add("EXPLAIN SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) = (SELECT MAX(id) FROM t)")
	f.Add("SELECT PACKAGE(R) AS P FROM t R SUCH THAT SUM(P.x * (SELECT COUNT(*) FROM t) WHERE P.id > (SELECT MIN(id) FROM t)) <= 9")
	// One level past the parser's depth cap.
	f.Add("SELECT PACKAGE(R) AS P FROM t R SUCH THAT " + strings.Repeat("(", parse.MaxDepth) + "COUNT(*) = 1" + strings.Repeat(")", parse.MaxDepth))
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v", text, q, err)
		}
		if q != nil {
			_ = q.String()
		}
	})
}
