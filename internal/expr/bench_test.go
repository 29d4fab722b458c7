package expr_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/expr"
	"repro/internal/parse"
	"repro/internal/schema"
)

// BenchmarkWhereScan runs one WHERE over a recipe table, one op per scan:
// the benchmark's interactive-exact shape (three string equalities) over
// 14,000 rows and its sketch-cold shape (two numeric bounds) over 50,000,
// each compiled once per scan and, beside it, by the interpreter
// evaluation ran before.
func BenchmarkWhereScan(b *testing.B) {
	for _, c := range []struct {
		name, where string
		rows        int
	}{
		{"exact-14000", "R.gluten = 'free' AND R.cuisine = 'thai' AND R.mealtype = 'dinner'", 14000},
		{"cold-50000", "R.calories >= 420 AND R.price <= 12.50", 50000},
	} {
		rows := dataset.Recipes(dataset.RecipesConfig{N: c.rows, Seed: 42})
		where, err := parse.ParseExprString(c.where)
		if err != nil {
			b.Fatal(err)
		}
		if err := expr.Bind(where, dataset.RecipesSchema().WithQualifier("R")); err != nil {
			b.Fatal(err)
		}
		scan := func(b *testing.B, match func(schema.Row) (bool, error)) {
			n := 0
			for _, row := range rows {
				ok, err := match(row)
				if err != nil {
					b.Fatal(err)
				}
				if ok {
					n++
				}
			}
			if n == 0 || n == len(rows) {
				b.Fatalf("%d of %d rows match: the shape selects nothing", n, len(rows))
			}
		}
		b.Run(c.name+"/compiled", func(b *testing.B) {
			for range b.N {
				scan(b, expr.CompileWhere(where))
			}
		})
		b.Run(c.name+"/interpreted", func(b *testing.B) {
			for range b.N {
				scan(b, func(row schema.Row) (bool, error) { return expr.InterpretWhere(where, row) })
			}
		})
	}
}
