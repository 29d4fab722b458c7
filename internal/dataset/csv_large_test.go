package dataset_test

import (
	"strings"
	"testing"

	packagebuilder "repro"
	"repro/internal/dataset"
)

// TestWriteCSVLargeRoundTrip renders 100,000 recipe rows and loads them
// back through the public API. Rendering used to append to one string
// per cell, copying everything written so far each time: quadratic, and
// at this size it did not finish.
func TestWriteCSVLargeRoundTrip(t *testing.T) {
	const n = 100000
	rows := dataset.Recipes(dataset.RecipesConfig{N: n, Seed: 3})
	text := dataset.WriteCSV(dataset.RecipesSchema(), rows)
	if lines := strings.Count(text, "\n"); lines != n+1 {
		t.Fatalf("rendered %d lines, want a header and %d rows", lines, n)
	}
	sys := packagebuilder.New()
	loaded, err := sys.LoadCSV("recipes", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("loaded %d rows, want %d", loaded, n)
	}
	res, err := sys.ExecSQL(`SELECT COUNT(*), SUM(calories), SUM(price) FROM recipes`)
	if err != nil {
		t.Fatal(err)
	}
	var calories, price float64
	for _, r := range rows {
		c, _ := r[5].AsFloat()
		p, _ := r[9].AsFloat()
		calories += c
		price += p
	}
	gotN, _ := res.Rows[0][0].AsFloat()
	gotCal, _ := res.Rows[0][1].AsFloat()
	gotPrice, _ := res.Rows[0][2].AsFloat()
	if gotN != n || gotCal != calories || gotPrice != price {
		t.Errorf("round trip: count %g, calories %g, price %g; generated %d, %g, %g",
			gotN, gotCal, gotPrice, n, calories, price)
	}
}
