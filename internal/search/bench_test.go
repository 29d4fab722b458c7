package search

import (
	"testing"

	"repro/internal/schema"
)

// validateSrc is a query whose formula is not its top-level SUM/COUNT
// conjuncts alone (a disjunction over an AVG), so every package that
// survives pruning is validated against the full formula.
const validateSrc = `
	SELECT PACKAGE(R) AS P FROM Recipes R
	SUCH THAT COUNT(*) = 3 AND (SUM(P.calories) >= 1500 OR AVG(P.protein) >= 30)
	MAXIMIZE SUM(P.protein)`

// benchRows is n deterministic rows with spread calories and protein.
func benchRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		kind := "meal"
		if i%3 == 0 {
			kind = "snack"
		}
		rows[i] = mkRow(i, float64(150+(i*137)%700), float64(4+(i*29)%45), kind)
	}
	return rows
}

// BenchmarkPrunedEnumerateValidate enumerates 22 candidates (the most
// the planner enumerates) for a formula that validates each survivor.
func BenchmarkPrunedEnumerateValidate(b *testing.B) {
	inst := instance(b, validateSrc, benchRows(22))
	if inst.Pure {
		b.Fatal("the formula must need validation")
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := PrunedEnumerate(inst, Options{Limit: 1 << 30, NoObjBound: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalSearchValidate runs local search over 200 candidates for
// the same formula: every move it tries is validated.
func BenchmarkLocalSearchValidate(b *testing.B) {
	inst := instance(b, validateSrc, benchRows(200))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LocalSearch(inst, nil, Options{Seed: 1, Restarts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
