package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/value"
)

// BenchmarkImageAdvance50k is what one write-interleaved step adds to the
// next sketch query: a 200-row INSERT and a 100-row DELETE against a
// 50,000-row table, then the table's image advanced past both — the
// survivors' hashes and cells copied, the appended rows hashed and
// lowered. The writes themselves are not timed, nor is an untimed
// 100-row DELETE per op, advanced past on its own, that holds the table
// at 50,000 rows.
func BenchmarkImageAdvance50k(b *testing.B) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 50_000, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	tab, _ := db.Table("recipes")
	store := snapshotsOf(tab)
	if img, _, err := store.imageAt(nil, tab, tab.Version(), len(tab.Rows), nil, false); img == nil || err != nil {
		b.Fatalf("no image: %v", err)
	}
	batch := dataset.Recipes(dataset.RecipesConfig{N: 200, Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	del := func(lo int) {
		if _, err := db.Exec(fmt.Sprintf("DELETE FROM recipes WHERE id >= %d AND id < %d", lo, lo+100)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		del(200 * i) // ids slide: each op appends 200 and deletes the 200 oldest
		if img, _, err := store.imageAt(nil, tab, tab.Version(), len(tab.Rows), nil, false); img == nil || err != nil {
			b.Fatalf("no image: %v", err)
		}
		rows := make([]schema.Row, len(batch))
		for j, row := range batch {
			rows[j] = slices.Clone(row)
			rows[j][0] = value.Int(int64(50_000 + 200*i + j))
		}
		if err := db.InsertRows("recipes", rows); err != nil {
			b.Fatal(err)
		}
		del(200*i + 100)
		b.StartTimer()
		if img, _, err := store.imageAt(nil, tab, tab.Version(), len(tab.Rows), nil, false); img == nil || err != nil {
			b.Fatalf("no image: %v", err)
		}
	}
}

// BenchmarkSelectiveSketch100k is a selective sketch WHERE over a large
// table, the case imageShare is for: a 100,000-row table and a WHERE
// keeping about 5 % of it. Each op times what a sketch evaluation pays
// before its tree is touched — preparation, fingerprint, and its
// candidates as the columns a build or patch reads. "writes" runs a
// 200-row INSERT and a 100-row DELETE (not timed) before each op, as
// write-interleaved does; "cold" gives each op a WHERE of its own and
// writes nothing, as sketch-cold does. The candidates are under a quarter
// of the table, so neither makes an image: each op hashes and lowers its
// candidates.
func BenchmarkSelectiveSketch100k(b *testing.B) {
	const n, query = 100_000, `SELECT PACKAGE(R) AS P FROM recipes R WHERE R.price <= 2.9%s
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1000 AND 2000 MAXIMIZE SUM(P.protein)`
	batch := dataset.Recipes(dataset.RecipesConfig{N: 200, Seed: 7})
	for _, writes := range []bool{true, false} {
		name := "cold"
		if writes {
			name = "writes"
		}
		b.Run(name, func(b *testing.B) {
			db := minidb.New()
			if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
				b.Fatal(err)
			}
			memo := NewFingerprintMemo()
			evaluate := func(where string) {
				prep, err := Prepare(db, fmt.Sprintf(query, where))
				if err != nil {
					b.Fatal(err)
				}
				memo.Advance(prep)
				if cols, _ := prep.Instance.Lowered(context.Background()); cols == nil {
					b.Fatal("no columns")
				}
			}
			evaluate("")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !writes {
					evaluate(fmt.Sprintf(" AND R.id <> %d", -1-i))
					continue
				}
				b.StopTimer()
				rows := make([]schema.Row, len(batch))
				for j, row := range batch {
					rows[j] = slices.Clone(row)
					rows[j][0] = value.Int(int64(n + 200*i + j + 1))
				}
				if err := db.InsertRows("recipes", rows); err != nil {
					b.Fatal(err)
				}
				if _, err := db.Exec(fmt.Sprintf("DELETE FROM recipes WHERE id >= %d AND id < %d", 1+100*i, 101+100*i)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				evaluate("")
			}
		})
	}
}
