package packagebuilder_test

// End-to-end tests of the paper's three §1 motivating scenarios, run
// through the public API against seeded synthetic data. These are the
// same queries as examples/{mealplanner,vacation,portfolio}, with the
// paper's stated requirements asserted on the results.

import (
	"testing"

	pb "repro"
	"repro/internal/dataset"
)

// §1 Meal planner: "a high-protein set of three gluten-free meals for
// the day, having in total between 2,000 and 2,500 calories."
func TestScenarioMealPlanner(t *testing.T) {
	sys := pb.New()
	if err := dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: 300, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`
		SELECT PACKAGE(R) AS P
		FROM recipes R
		WHERE R.gluten = 'free'
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 {
		t.Fatalf("packages = %d", len(res.Packages))
	}
	p := res.Packages[0]
	if p.Size() != 3 {
		t.Errorf("meals = %d, want 3", p.Size())
	}
	cal, _ := p.AggValues["SUM(R.calories)"].AsFloat()
	if cal < 2000 || cal > 2500 {
		t.Errorf("total calories %g outside the daily budget", cal)
	}
	for _, row := range p.Rows {
		if row[4].StrVal() != "free" {
			t.Errorf("gluten meal slipped in: %v", row)
		}
	}
	if !res.Stats.Exact {
		t.Error("meal planner should solve exactly")
	}
}

// §1 Vacation planner: "no more than $2,000 on flights and hotels
// combined … walking distance from the beach, unless their budget can
// fit a rental car."
func TestScenarioVacationPlanner(t *testing.T) {
	sys := pb.New()
	err := dataset.LoadVacation(sys.DB(), "items", dataset.VacationConfig{
		Flights: 20, Hotels: 30, Cars: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`
		SELECT PACKAGE(V) AS P
		FROM items V
		SUCH THAT COUNT(* WHERE P.kind = 'flight') = 1
		      AND COUNT(* WHERE P.kind = 'hotel') = 1
		      AND COUNT(* WHERE P.kind = 'car') <= 1
		      AND COUNT(*) <= 3
		      AND SUM(P.price) <= 2000
		      AND (MAX(P.dist WHERE P.kind = 'hotel') <= 1.0
		           OR COUNT(* WHERE P.kind = 'car') >= 1)
		MINIMIZE SUM(P.price)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 {
		t.Fatalf("packages = %d", len(res.Packages))
	}
	p := res.Packages[0]
	var total float64
	kinds := map[string]int{}
	var hotelDist float64
	for _, row := range p.Rows {
		kinds[row[1].StrVal()]++
		price, _ := row[4].AsFloat()
		total += price
		if row[1].StrVal() == "hotel" {
			hotelDist, _ = row[5].AsFloat()
		}
	}
	if kinds["flight"] != 1 || kinds["hotel"] != 1 {
		t.Errorf("itinerary shape: %v", kinds)
	}
	if total > 2000 {
		t.Errorf("budget exceeded: $%g", total)
	}
	// the disjunction: near-beach hotel OR a rental car
	if hotelDist > 1.0 && kinds["car"] == 0 {
		t.Errorf("far hotel (%.2f km) without a car", hotelDist)
	}
}

// §1 Investment portfolio: "a budget of $50K, at least 30% of the
// assets in technology, and a balance of short-term and long-term
// options."
func TestScenarioInvestmentPortfolio(t *testing.T) {
	sys := pb.New()
	if err := dataset.LoadStocks(sys.DB(), "stocks", dataset.StocksConfig{N: 250, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`
		SELECT PACKAGE(S) AS P
		FROM stocks S
		WHERE S.risk <= 0.8
		SUCH THAT COUNT(*) BETWEEN 5 AND 12
		      AND SUM(P.price) <= 50000
		      AND SUM(P.price WHERE P.sector = 'technology') - 0.3 * SUM(P.price) >= 0
		      AND COUNT(* WHERE P.horizon = 'short') >= 2
		      AND COUNT(* WHERE P.horizon = 'long') >= 2
		MAXIMIZE SUM(P.price * P.expret)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 {
		t.Fatalf("packages = %d", len(res.Packages))
	}
	p := res.Packages[0]
	var total, tech float64
	horizons := map[string]int{}
	for _, row := range p.Rows {
		price, _ := row[3].AsFloat()
		total += price
		if row[2].StrVal() == "technology" {
			tech += price
		}
		horizons[row[6].StrVal()]++
		risk, _ := row[5].AsFloat()
		if risk > 0.8 {
			t.Errorf("base constraint violated: risk %g", risk)
		}
	}
	if total > 50000 {
		t.Errorf("budget exceeded: $%g", total)
	}
	if tech < 0.3*total-1e-6 {
		t.Errorf("technology share %.1f%% below 30%%", 100*tech/total)
	}
	if horizons["short"] < 2 || horizons["long"] < 2 {
		t.Errorf("horizon balance: %v", horizons)
	}
	if p.Size() < 5 || p.Size() > 12 {
		t.Errorf("portfolio size %d", p.Size())
	}
}

// The investment objective SUM(P.price * P.expret) multiplies two
// columns inside one aggregate — still linear per tuple. Verify the
// analyzer treats it as such (the solver handled it above).
func TestPerTupleProductIsLinear(t *testing.T) {
	sys := pb.New()
	if err := dataset.LoadStocks(sys.DB(), "stocks", dataset.StocksConfig{N: 40, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`
		SELECT PACKAGE(S) AS P FROM stocks S
		SUCH THAT COUNT(*) = 3
		MAXIMIZE SUM(P.price * P.expret)`, pb.WithStrategy(pb.Solver))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Linear || !res.Stats.Exact {
		t.Errorf("per-tuple products should stay solver-friendly: linear=%v exact=%v",
			res.Stats.Linear, res.Stats.Exact)
	}
}

// TestScenarioAtomStrategyMatrix is the full grammar × strategy ×
// multiplicity grid: every PaQL atom kind the engines support runs
// end-to-end through the public API under the exact solver, under
// SketchRefine, and under Auto — plain, with REPEAT, and with a pinned
// tuple — so each newly supported atom has system-level coverage, not
// just unit tests. SketchRefine combinations additionally assert the
// query stayed on the sketch path (no silent fallback to exact).
func TestScenarioAtomStrategyMatrix(t *testing.T) {
	sys := pb.New()
	if err := dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: 300, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	// A pinnable tuple admissible under every atom clause below
	// (protein >= 6, calories <= 800). With no WHERE clause, candidate
	// indexes equal table row indexes.
	tab, _ := sys.DB().Table("recipes")
	pin := -1
	for i, row := range tab.Rows {
		cal, _ := row[5].AsFloat()
		prot, _ := row[6].AsFloat()
		if prot >= 6 && cal <= 800 {
			pin = i
			break
		}
	}
	if pin < 0 {
		t.Fatal("no pinnable recipe in the dataset")
	}

	atoms := []struct{ name, clause string }{
		{"sum", "SUM(P.calories) BETWEEN 1200 AND 2600"},
		{"count-filter", "COUNT(* WHERE P.gluten = 'free') >= 1"},
		{"avg", "AVG(P.calories) <= 820"},
		{"min", "MIN(P.protein) >= 5"},
		{"max", "MAX(P.calories) <= 980"},
		{"disjunction", "(AVG(P.calories) <= 700 OR SUM(P.calories) <= 2600)"},
	}
	strategies := []struct {
		name string
		st   pb.Strategy
	}{
		{"solver", pb.Solver},
		{"sketch", pb.SketchRefine},
		{"auto", pb.Auto},
	}
	modes := []struct {
		name   string
		repeat string
		opts   []pb.Option
	}{
		{"plain", "", nil},
		{"repeat", " REPEAT 1", nil},
		{"require", "", []pb.Option{pb.WithRequire(pin)}},
	}
	for _, atom := range atoms {
		for _, strat := range strategies {
			for _, mode := range modes {
				name := atom.name + "/" + strat.name + "/" + mode.name
				t.Run(name, func(t *testing.T) {
					query := `SELECT PACKAGE(R) AS P FROM recipes R` + mode.repeat + `
						SUCH THAT COUNT(*) = 3 AND ` + atom.clause + `
						MAXIMIZE SUM(P.protein)`
					opts := append([]pb.Option{pb.WithStrategy(strat.st), pb.WithSeed(1)}, mode.opts...)
					res, err := sys.Query(query, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Packages) == 0 {
						t.Fatalf("no package (notes: %v)", res.Stats.Notes)
					}
					p := res.Packages[0]
					if p.Size() != 3 {
						t.Errorf("package size %d, want 3", p.Size())
					}
					if strat.st == pb.SketchRefine {
						if res.Stats.Strategy != pb.SketchRefine {
							t.Fatalf("sketch fell back to %v (notes: %v)", res.Stats.Strategy, res.Stats.Notes)
						}
						if res.Stats.Sketch.Levels < 1 {
							t.Errorf("SketchLevels = %d, want >= 1", res.Stats.Sketch.Levels)
						}
					}
					if mode.name == "require" && p.Mult[pin] < 1 {
						t.Errorf("pinned candidate %d missing from the package", pin)
					}
					if mode.name == "repeat" {
						for i, m := range p.Mult {
							if m > 2 {
								t.Errorf("candidate %d multiplicity %d exceeds REPEAT 1", i, m)
							}
						}
					}
				})
			}
		}
	}
}
