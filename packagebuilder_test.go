package packagebuilder_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	pb "repro"
	"repro/internal/dataset"
	"repro/internal/explore"
)

func newSystem(t *testing.T, n int) *pb.System {
	t.Helper()
	sys := pb.New()
	if err := dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return sys
}

const mealQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func TestPublicAPIQuery(t *testing.T) {
	sys := newSystem(t, 200)
	res, err := sys.Query(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 {
		t.Fatalf("packages = %d", len(res.Packages))
	}
	p := res.Packages[0]
	if p.Size() != 3 {
		t.Errorf("size = %d", p.Size())
	}
	cal, _ := p.AggValues["SUM(R.calories)"].AsFloat()
	if cal < 2000 || cal > 2500 {
		t.Errorf("calories = %g outside [2000, 2500]", cal)
	}
	for _, row := range p.Rows {
		if row[4].StrVal() != "free" {
			t.Errorf("base constraint violated: %v", row)
		}
	}
}

func TestPublicAPIOptions(t *testing.T) {
	sys := newSystem(t, 60)
	res, err := sys.Query(mealQuery, pb.With(pb.Options{Strategy: pb.LocalSearch, Seed: 3, Restarts: 6,
		Limit: 2, Timeout: 5 * time.Second, SketchIncremental: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != pb.LocalSearch {
		t.Errorf("strategy = %v", res.Stats.Strategy)
	}
	if len(res.Packages) == 0 || len(res.Packages) > 2 {
		t.Errorf("packages = %d", len(res.Packages))
	}
	// exact strategies agree through the public API
	solver, err := sys.Query(mealQuery, pb.WithStrategy(pb.Solver))
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := sys.Query(mealQuery, pb.WithStrategy(pb.PrunedEnum))
	if err != nil {
		t.Fatal(err)
	}
	if solver.Packages[0].Objective != pruned.Packages[0].Objective {
		t.Errorf("solver %g != pruned %g",
			solver.Packages[0].Objective, pruned.Packages[0].Objective)
	}
	// diverse option
	div, err := sys.Query(mealQuery, pb.WithLimit(3), pb.WithDiverse())
	if err != nil {
		t.Fatal(err)
	}
	if len(div.Packages) == 0 {
		t.Error("diverse query found nothing")
	}
}

func TestPublicAPISQLAndCSV(t *testing.T) {
	sys := pb.New()
	csv := "id:int,x:float\n1,10\n2,20\n3,30\n"
	if n, err := sys.LoadCSV("t", strings.NewReader(csv)); err != nil || n != 3 {
		t.Fatalf("LoadCSV = %d, %v", n, err)
	}
	res, err := sys.ExecSQL(`SELECT SUM(x) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := res.Rows[0][0].AsFloat(); f != 60 {
		t.Errorf("sum = %g", f)
	}
	q, err := sys.Parse(`SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 2`)
	if err != nil || q.Table != "t" {
		t.Errorf("Parse = %v, %v", q, err)
	}
	pkg, err := sys.Query(`SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 2 AND SUM(P.x) <= 30 MAXIMIZE SUM(P.x)`)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Packages[0].Objective != 30 {
		t.Errorf("objective = %g, want 30 (10+20)", pkg.Packages[0].Objective)
	}
}

func TestPublicAPIExploreAndTemplate(t *testing.T) {
	sys := newSystem(t, 100)
	ses, err := sys.Explore(mealQuery, pb.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := ses.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range first.Mult {
		if m > 0 {
			if err := ses.Pin(i); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	next, err := ses.Replace()
	if err != nil {
		t.Fatal(err)
	}
	if next.Size() != 3 {
		t.Errorf("replacement size = %d", next.Size())
	}
	sugg, err := ses.Suggest(explore.Highlight{Column: "fat", Row: -1})
	if err != nil || len(sugg) == 0 {
		t.Errorf("Suggest = %v, %v", sugg, err)
	}
	tpl, err := sys.Template(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpl.Globals) != 2 {
		t.Errorf("template globals = %v", tpl.Globals)
	}
	// summary over several packages
	prep, err := sys.Prepare(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(mealQuery, pb.WithLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sys.Summarize(prep, res.Packages, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Points) != len(res.Packages) {
		t.Errorf("summary points = %d", len(sum.Points))
	}
}

// TestPublicAPIExplain drives the planner through the library surface:
// System.Explain returns the decision trail without executing, and an
// EXPLAIN-prefixed Query plans but returns no packages.
func TestPublicAPIExplain(t *testing.T) {
	sys := newSystem(t, 200)
	qp, err := sys.Explain(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if qp.Strategy == "" || qp.Decision("strategy") == nil {
		t.Fatalf("plan missing strategy: %+v", qp)
	}
	if qp.Candidates == 0 {
		t.Errorf("plan candidates = 0")
	}
	text := qp.Explain()
	for _, want := range []string{"plan for:", "strategy = "} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain() missing %q:\n%s", want, text)
		}
	}
	// Catalog stats flow into the plan.
	if qp.Table.Rows != 200 {
		t.Errorf("plan table rows = %d, want 200", qp.Table.Rows)
	}

	// EXPLAIN-prefixed query: planned, not executed.
	res, err := sys.Query("EXPLAIN " + mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 0 {
		t.Errorf("EXPLAIN executed the query: %d packages", len(res.Packages))
	}
	if res.Stats.Plan == nil {
		t.Error("EXPLAIN result has no plan")
	}
	found := false
	for _, n := range res.Stats.Notes {
		if strings.Contains(n, "EXPLAIN") {
			found = true
		}
	}
	if !found {
		t.Errorf("EXPLAIN note missing: %v", res.Stats.Notes)
	}

	// Plain queries also carry the plan in stats.
	res2, err := sys.Query(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Plan == nil || res2.Stats.Plan.Strategy == "" {
		t.Error("executed query missing stats plan")
	}
}

// TestPublicAPIExplainForcedOptions is the library-surface forced-flags
// regression: every explicit knob option overrides the planner and is
// marked forced in the plan.
func TestPublicAPIExplainForcedOptions(t *testing.T) {
	sys := newSystem(t, 200)
	qp, err := sys.Explain(mealQuery,
		pb.WithStrategy(pb.SketchRefine), pb.WithSketchPartitionSize(32),
		pb.WithSketchDepth(2), pb.WithSketchIncremental(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"strategy", "tau", "depth", "maintenance"} {
		d := qp.Decision(name)
		if d == nil || !d.Forced {
			t.Errorf("decision %s not forced: %+v", name, d)
		}
	}
	if d := qp.Decision("parallelism"); d == nil || d.Forced {
		t.Errorf("parallelism must be the planner's own decision: %+v", d)
	}
	if qp.Strategy != "sketch-refine" || qp.Tau != 32 || qp.Depth != 2 {
		t.Errorf("forced knobs not honored: %+v", qp)
	}
	if d := qp.Decision("maintenance"); d == nil || d.Value != "rebuild" || qp.Incremental {
		t.Errorf("WithSketchIncremental(false) not forced: maintenance=%+v incremental=%v",
			d, qp.Incremental)
	}
}

// TestNoCacheRunSkipsPreparedTiers: WithSketchCache(false) opts a run out
// of the fingerprint memo as well as the tree cache, even for a query
// System.Prepare handed both — nothing of its candidates is hashed into
// or looked up in the shared tiers.
func TestNoCacheRunSkipsPreparedTiers(t *testing.T) {
	sys := newSystem(t, 200)
	prep, err := sys.Prepare(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	memo, cache := sys.SketchMemo().Stats(), sys.SketchCache().Stats()
	res, err := sys.RunContext(context.Background(), prep, pb.WithStrategy(pb.SketchRefine), pb.WithSketchCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != pb.SketchRefine {
		t.Fatalf("ran %v, want a forced sketch-refine run", res.Stats.Strategy)
	}
	if got := sys.SketchMemo().Stats(); got.Lookups != memo.Lookups {
		t.Errorf("memo lookups %d → %d under WithSketchCache(false)", memo.Lookups, got.Lookups)
	}
	if got := sys.SketchCache().Stats(); got != cache {
		t.Errorf("tree cache %+v → %+v under WithSketchCache(false)", cache, got)
	}
}

// TestCatalogView: System.Catalog is a stateless view over the tables,
// so every read reflects the table as it is now.
func TestCatalogView(t *testing.T) {
	newT := func(t *testing.T, n int) *pb.System {
		t.Helper()
		sys := pb.New()
		mustSQL(t, sys, "CREATE TABLE t (id INTEGER, v FLOAT)")
		for i := 0; i < n; i++ {
			mustSQL(t, sys, fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5)", i, i))
		}
		return sys
	}
	t.Run("case-insensitive", func(t *testing.T) {
		sys := newT(t, 30)
		ts, ok := sys.Catalog().Stats("T")
		tab, _ := sys.DB().Table("t")
		if !ok || ts.Table != "t" || ts.Rows != 30 || ts.Version != tab.Version() {
			t.Fatalf("Stats(\"T\") = %+v, %v (table at version %d)", ts, ok, tab.Version())
		}
	})
	t.Run("unknown-table", func(t *testing.T) {
		if _, ok := pb.New().Catalog().Stats("nope"); ok {
			t.Fatal("an unknown table reported ok")
		}
	})
	t.Run("follows-writes", func(t *testing.T) {
		sys := newT(t, 20)
		before, _ := sys.Catalog().Stats("t")
		mustSQL(t, sys, "INSERT INTO t VALUES (100, 999.5)")
		after, _ := sys.Catalog().Stats("t")
		if after.Rows != 21 || after.Version != before.Version+1 {
			t.Fatalf("after insert: %+v (before %+v)", after, before)
		}
		mustSQL(t, sys, "DELETE FROM t WHERE id >= 10")
		gone, _ := sys.Catalog().Stats("t")
		if gone.Rows != 10 || gone.Version != after.Version+1 {
			t.Fatalf("after delete: %+v (before %+v)", gone, after)
		}
	})
	t.Run("dropped-table", func(t *testing.T) {
		sys := newT(t, 3)
		sys.Catalog().Stats("t")
		if err := sys.DB().DropTable("t"); err != nil {
			t.Fatal(err)
		}
		if _, ok := sys.Catalog().Stats("t"); ok {
			t.Fatal("a dropped table reported ok")
		}
	})
}

func mustSQL(t *testing.T, sys *pb.System, sql string) {
	t.Helper()
	if _, err := sys.ExecSQL(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func TestFormatResultOutput(t *testing.T) {
	sys := newSystem(t, 80)
	res, err := sys.Query(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	pb.FormatResult(&sb, sys, res)
	out := sb.String()
	for _, want := range []string{"package 1 of 1", "MAXIMIZE", "COUNT(*)", "strategy=", "search space"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatResult missing %q:\n%s", want, out)
		}
	}
	// empty result
	empty, err := sys.Query(`SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND COUNT(*) = 3`)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	pb.FormatResult(&sb, sys, empty)
	if !strings.Contains(sb.String(), "no package") {
		t.Error("empty-result message missing")
	}
}

// TestPaperRunningExampleEndToEnd is the paper's §2 query, verified
// end-to-end across all strategies on a fixed dataset.
func TestPaperRunningExampleEndToEnd(t *testing.T) {
	sys := newSystem(t, 150)
	var objectives []float64
	for _, st := range []pb.Strategy{pb.Solver, pb.PrunedEnum} {
		res, err := sys.Query(mealQuery, pb.WithStrategy(st))
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if !res.Stats.Exact {
			t.Errorf("%v not exact", st)
		}
		objectives = append(objectives, res.Packages[0].Objective)
	}
	if objectives[0] != objectives[1] {
		t.Errorf("exact strategies disagree: %v", objectives)
	}
	heur, err := sys.Query(mealQuery, pb.WithStrategy(pb.LocalSearch), pb.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(heur.Packages) > 0 && heur.Packages[0].Objective > objectives[0] {
		t.Error("heuristic exceeded the proven optimum")
	}
}
