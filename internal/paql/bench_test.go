package paql_test

import (
	"testing"

	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/value"
)

// BenchmarkPackageCheck is the check of one answer, its formula and its
// objective, over a 3-tuple package: one-off, each compiled for the call
// (Satisfies, ObjectiveValue), and on Globals compiled once, as the
// engine checks every answer it returns.
func BenchmarkPackageCheck(b *testing.B) {
	a, err := analyzeSem(`SELECT PACKAGE(R) AS P FROM t R
		SUCH THAT COUNT(*) = 3 AND SUM(P.x) BETWEEN 10 AND 100 AND AVG(P.x) >= 5
		MAXIMIZE SUM(P.x)`)
	if err != nil {
		b.Fatal(err)
	}
	q := a.Query
	rows := []schema.Row{
		{value.Int(1), value.Float(12), value.Str("a"), value.Str("p")},
		{value.Int(2), value.Float(20), value.Str("b"), value.Str("q")},
		{value.Int(3), value.Float(31), value.Str("c"), value.Str("p")},
	}
	b.Run("per-call", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if ok, err := paql.Satisfies(q.SuchThat, rows); err != nil || !ok {
				b.Fatal(ok, err)
			}
			if _, err := paql.ObjectiveValue(q.Objective, rows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-once", func(b *testing.B) {
		suchThat, objective := paql.CompileGlobal(q.SuchThat), paql.CompileGlobal(q.Objective.Expr)
		b.ReportAllocs()
		for b.Loop() {
			if ok, err := suchThat.Holds(rows); err != nil || !ok {
				b.Fatal(ok, err)
			}
			if _, err := objective.Value(rows); err != nil {
				b.Fatal(err)
			}
		}
	})
}
