package packagebuilder_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	pb "repro"
	"repro/internal/dataset"
)

// TestScaleCorpus holds SketchRefine to a proven optimum at the scale
// its partition tree runs, where the small corpora never reach: 24
// seeded cases over 20,000 and 50,000 recipes with no WHERE — the five
// benchmark templates at random constants, one pinned tuple and one
// LIMIT 2 per table. The forced solver's answer, proven optimal
// (Stats.Exact), is the witness: the sketch's package may fall short of
// it, and the sketch's certificate may not.
func TestScaleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 70,000 recipes and solves 48 queries")
	}
	type scaleCase struct {
		tmpl, k int
		opts    []pb.Option
		what    string
	}
	var losses []float64
	ran := 0
	for ti, rows := range []int{20000, 50000} {
		sys := pb.New()
		if err := dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: rows, Seed: int64(ti + 1)}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(rows)))
		var cases []scaleCase
		for tmpl := 0; tmpl < 5; tmpl++ {
			for range 2 {
				cases = append(cases, scaleCase{tmpl: tmpl, k: rng.Intn(50)})
			}
		}
		cases = append(cases,
			scaleCase{tmpl: 0, k: rng.Intn(50), opts: []pb.Option{pb.WithRequire(rng.Intn(rows))}, what: " pin"},
			scaleCase{tmpl: 4, k: rng.Intn(50), opts: []pb.Option{pb.WithLimit(2)}, what: " LIMIT 2"})
		for _, c := range cases {
			q := templateQuery(c.tmpl, c.k, "")
			name := fmt.Sprintf("%d rows, T%d k=%d%s", rows, c.tmpl, c.k, c.what)
			ex, err := sys.Query(q, append([]pb.Option{pb.WithStrategy(pb.Solver)}, c.opts...)...)
			if err != nil {
				t.Fatalf("%s: solver: %v", name, err)
			}
			if !ex.Stats.Exact {
				t.Fatalf("%s: the solver proved nothing: %v", name, ex.Stats.Notes)
			}
			sk, err := sys.Query(q, append([]pb.Option{pb.WithStrategy(pb.SketchRefine), pb.WithSeed(1)}, c.opts...)...)
			if err != nil {
				t.Fatalf("%s: sketch: %v", name, err)
			}
			if sk.Stats.Strategy != pb.SketchRefine {
				t.Fatalf("%s: the sketch fell back to %v: %v", name, sk.Stats.Strategy, sk.Stats.Notes)
			}
			if len(ex.Packages) == 0 {
				if len(sk.Packages) > 0 {
					t.Fatalf("%s: the sketch answers a query the solver proved infeasible", name)
				}
				continue
			}
			ran++
			opt := ex.Packages[0].Objective
			tol := 1e-6 * (1 + math.Abs(opt))
			if sk.Stats.Certified && sk.Stats.BoundValue < opt-tol {
				t.Fatalf("%s: certificate %g below the proven optimum %g", name, sk.Stats.BoundValue, opt)
			}
			if len(sk.Packages) == 0 {
				losses = append(losses, 1)
				continue
			}
			found := sk.Packages[0].Objective
			if found > opt+tol {
				t.Fatalf("%s: the sketch's %g beats the proven optimum %g", name, found, opt)
			}
			losses = append(losses, (opt-found)/math.Max(1, math.Abs(opt)))
		}
	}
	if ran < 20 {
		t.Fatalf("only %d of 24 cases have a package to compare", ran)
	}
	slices.Sort(losses)
	q := func(f float64) float64 { return losses[int(f*float64(len(losses)-1))] }
	t.Logf("%d cases: sketch answer loss against the proven optimum p50 %.4f, p90 %.4f, max %.4f", ran, q(0.5), q(0.9), q(1))
}
