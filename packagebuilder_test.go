package packagebuilder_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
		Limit: 2, Timeout: 5 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != pb.LocalSearch {
		t.Errorf("strategy = %v", res.Stats.Strategy)
	}
	if len(res.Packages) == 0 || len(res.Packages) > 2 {
		t.Errorf("packages = %d", len(res.Packages))
	}
	// exact strategies agree through the public API, on a table small
	// enough (20 candidates) for the forced enumeration to run
	small := newSystem(t, 30)
	solver, err := small.Query(mealQuery, pb.WithStrategy(pb.Solver))
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := small.Query(mealQuery, pb.WithStrategy(pb.PrunedEnum))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Stats.Strategy != pb.PrunedEnum {
		t.Fatalf("strategy = %v, want the forced pruned-enum", pruned.Stats.Strategy)
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

// TestLocalSearchLeavesTheCallersTablesAlone: local search runs its §4.2
// joins over scratch tables of its own, so a caller's table that shares
// a scratch table's name cannot fail the query, and the caller's
// database holds the same tables before and after. The names cover the
// scratch tables' current spelling and the sequence-numbered one a
// query used to create in the caller's database, where a
// "pb_cand_2" failed a process's second local-search query with "table
// already exists".
func TestLocalSearchLeavesTheCallersTablesAlone(t *testing.T) {
	sys := newSystem(t, 60)
	names := []string{"cand", "pkg"}
	for i := 1; i <= 64; i++ {
		names = append(names, fmt.Sprintf("pb_cand_%d", i), fmt.Sprintf("pb_cand_%d_pkg1", i))
	}
	for _, name := range names {
		mustSQL(t, sys, "CREATE TABLE "+name+" (id INTEGER)")
	}
	before := sys.DB().TableNames()
	for seed := int64(1); seed <= 3; seed++ {
		res, err := sys.Query(mealQuery, pb.With(pb.Options{Strategy: pb.LocalSearch, Seed: seed, Restarts: 2}))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stats.SQLQueries == 0 {
			t.Fatalf("seed %d: local search issued no replacement query", seed)
		}
	}
	if after := sys.DB().TableNames(); !slices.Equal(before, after) {
		t.Fatalf("caller's tables changed across local-search queries:\nbefore %v\nafter  %v", before, after)
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

// TestPublicHelpersDoWhatTheyName: one row per exported helper, each
// showing the helper change the plan line, Stats field, file or error it
// names.
func TestPublicHelpersDoWhatTheyName(t *testing.T) {
	cases := []struct {
		helper string
		check  func(t *testing.T, sys *pb.System)
	}{
		{"WithTimeout", func(t *testing.T, sys *pb.System) {
			res, err := sys.Query(mealQuery, pb.WithStrategy(pb.Solver), pb.WithTimeout(time.Nanosecond))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Packages) != 0 || !slices.Contains(res.Stats.Notes, "solver hit its limits without an incumbent") {
				t.Fatalf("a spent budget answered %d packages, notes %q", len(res.Packages), res.Stats.Notes)
			}
			if res, err := sys.Query(mealQuery, pb.WithStrategy(pb.Solver)); err != nil || len(res.Packages) != 1 {
				t.Fatalf("without the timeout: %v, %v", res, err)
			}
		}},
		{"WithMemoryBudget", func(t *testing.T, sys *pb.System) {
			res, err := sys.QueryContext(context.Background(), mealQuery, pb.WithMemoryBudget(1))
			if !errors.Is(err, pb.ErrBudgetExceeded) {
				t.Fatalf("a 1-byte budget: err %v, want ErrBudgetExceeded", err)
			}
			if res == nil || res.Stats.Plan.MemoryBytes <= 1 {
				t.Fatalf("refusal carries no estimate past the budget: %+v", res)
			}
		}},
		{"WithSketchPersistDir", func(t *testing.T, sys *pb.System) {
			dir := t.TempDir()
			if _, err := sys.Query(mealQuery, pb.WithStrategy(pb.SketchRefine), pb.WithSketchPersistDir(dir)); err != nil {
				t.Fatal(err)
			}
			if trees, _ := filepath.Glob(filepath.Join(dir, "*.pbtree")); len(trees) == 0 {
				t.Fatal("persist dir holds no tree file")
			}
			// A new system over the same rows, as a new process would be,
			// loads the tree instead of building it.
			res, err := newSystem(t, 200).Query(mealQuery, pb.WithStrategy(pb.SketchRefine), pb.WithSketchPersistDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Sketch == nil || !res.Stats.Sketch.TreeLoaded {
				t.Fatalf("a fresh system did not load the persisted tree: %+v", res.Stats.Sketch)
			}
		}},
		{"SweepSketchDir", func(t *testing.T, sys *pb.System) {
			dir := t.TempDir()
			orphan := filepath.Join(dir, ".pbtree-123456789")
			if err := os.WriteFile(orphan, []byte("half a tree"), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, want := sys.SweepSketchDir(dir), "swept 1 orphaned temp file(s) from "+dir; got != want {
				t.Fatalf("sweep line %q, want %q", got, want)
			}
			if _, err := os.Stat(orphan); !os.IsNotExist(err) {
				t.Fatalf("orphan survived the sweep: %v", err)
			}
			if got := sys.SweepSketchDir(t.TempDir()); got != "" {
				t.Fatalf("a clean directory's sweep line %q, want none", got)
			}
		}},
		{"LoadCSVFile", func(t *testing.T, sys *pb.System) {
			path := filepath.Join(t.TempDir(), "t.csv")
			if err := os.WriteFile(path, []byte("id:int,x:float\n1,10\n2,20\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if n, err := sys.LoadCSVFile("fromfile", path); err != nil || n != 2 {
				t.Fatalf("LoadCSVFile = %d, %v", n, err)
			}
			res, err := sys.ExecSQL("SELECT SUM(x) FROM fromfile")
			if err != nil {
				t.Fatal(err)
			}
			if f, _ := res.Rows[0][0].AsFloat(); f != 30 {
				t.Fatalf("sum over the loaded file = %g, want 30", f)
			}
		}},
		{"ExecSQLContext", func(t *testing.T, sys *pb.System) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := sys.ExecSQLContext(ctx, "CREATE TABLE never (id INTEGER)"); !errors.Is(err, pb.ErrCanceled) {
				t.Fatalf("dead context: err %v, want ErrCanceled", err)
			}
			if slices.Contains(sys.DB().TableNames(), "never") {
				t.Fatal("a dead context touched the database")
			}
			if _, err := sys.ExecSQLContext(context.Background(), "CREATE TABLE live (id INTEGER)"); err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(sys.DB().TableNames(), "live") {
				t.Fatal("a live context's statement did not run")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.helper, func(t *testing.T) { c.check(t, newSystem(t, 200)) })
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
// an EXPLAIN statement sent down the ordinary query path returns the
// decision trail without executing — through Query, QueryContext and
// RunContext alike, even when the bounds alone would prove the query
// infeasible — and the strategy every result reports is its plan's.
func TestPublicAPIExplain(t *testing.T) {
	sys := newSystem(t, 200)
	res, err := sys.Query("EXPLAIN " + mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 0 {
		t.Errorf("EXPLAIN executed the query: %d packages", len(res.Packages))
	}
	qp := res.Stats.Plan
	if qp == nil || qp.Strategy == "" || qp.Decision("strategy") == nil {
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
	// The table's statistics flow into the plan.
	if qp.Table.Rows != 200 {
		t.Errorf("plan table rows = %d, want 200", qp.Table.Rows)
	}
	if !slices.ContainsFunc(res.Stats.Notes, func(n string) bool { return strings.Contains(n, "EXPLAIN") }) {
		t.Errorf("EXPLAIN note missing: %v", res.Stats.Notes)
	}

	// Contradictory bounds: the plan is still the answer, with no
	// packages and no error, on every door.
	const contradictory = `SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) >= 5 AND COUNT(*) <= 3 MAXIMIZE SUM(P.protein)`
	prep, err := sys.Prepare("EXPLAIN " + contradictory)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for door, run := range map[string]func() (*pb.Result, error){
		"Query":        func() (*pb.Result, error) { return sys.Query("EXPLAIN " + contradictory) },
		"QueryContext": func() (*pb.Result, error) { return sys.QueryContext(ctx, "EXPLAIN "+contradictory) },
		"RunContext":   func() (*pb.Result, error) { return sys.RunContext(ctx, prep) },
	} {
		res, err := run()
		if err != nil || res == nil || res.Stats.Plan == nil || len(res.Packages) != 0 {
			t.Errorf("%s(EXPLAIN contradictory): err %v, result %+v; want the plan alone", door, err, res)
			continue
		}
		if got := res.Stats.Plan.Explain(); !strings.HasPrefix(got, "plan for:") {
			t.Errorf("%s: not a plan:\n%s", door, got)
		}
	}

	// Every result's strategy is its plan's, executed or explained,
	// feasible or not, planner-picked or forced.
	for _, strategy := range []pb.Strategy{pb.Auto, pb.Solver, pb.PrunedEnum, pb.LocalSearch, pb.SketchRefine} {
		for _, q := range []string{mealQuery, contradictory, "EXPLAIN " + mealQuery, "EXPLAIN " + contradictory} {
			res, err := sys.QueryContext(ctx, q, pb.WithStrategy(strategy), pb.WithSeed(1))
			if err != nil && !errors.Is(err, pb.ErrInfeasible) {
				t.Fatalf("%s: %v", strategy, err)
			}
			if res.Stats.Strategy.String() != res.Stats.Plan.Strategy {
				t.Errorf("-strategy %s, %.40q: Stats.Strategy %s, plan %s", strategy, q, res.Stats.Strategy, res.Stats.Plan.Strategy)
			}
		}
	}
}

// TestPublicAPIExplainForcedOptions is the library-surface forced-flags
// regression: every explicit knob option overrides the planner and is
// marked forced in an EXPLAIN statement's plan.
func TestPublicAPIExplainForcedOptions(t *testing.T) {
	sys := newSystem(t, 200)
	res, err := sys.Query("EXPLAIN "+mealQuery,
		pb.WithStrategy(pb.SketchRefine), pb.WithSketchPartitionSize(32),
		pb.WithSketchDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	qp := res.Stats.Plan
	for _, name := range []string{"strategy", "tau", "depth"} {
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

// TestFormatResultAbbreviatesLargeSpaces: a space past 15 digits prints
// as a mantissa, an exponent and its digit count. 3,204 candidates make
// 2^3204 packages, 965 digits in full; COUNT(*) = 3 keeps C(3204, 3).
func TestFormatResultAbbreviatesLargeSpaces(t *testing.T) {
	sys := newSystem(t, 3204)
	res, err := sys.Query(`SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 3204 {
		t.Fatalf("%d candidates, want 3204", res.Stats.Candidates)
	}
	var sb strings.Builder
	pb.FormatResult(&sb, sys, res)
	const want = "search space: 5476707204 of 3.163e+964 (965 digits) candidate packages after §4.1 pruning\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("FormatResult lacks %q:\n%s", want, sb.String())
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if len(line) > 200 {
			t.Errorf("a %d-byte line: %.80s…", len(line), line)
		}
	}
}

// TestFormatResultRendersExplain: System.Query plans an EXPLAIN statement
// without executing it, and FormatResult prints that plan and nothing
// else — no empty answer, no statistics footer.
func TestFormatResultRendersExplain(t *testing.T) {
	sys := newSystem(t, 80)
	res, err := sys.Query("EXPLAIN " + mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan == nil {
		t.Fatal("an EXPLAIN statement's result carries no plan")
	}
	var sb strings.Builder
	pb.FormatResult(&sb, sys, res)
	out := sb.String()
	if out != res.Stats.Plan.Explain()+"\n" {
		t.Errorf("FormatResult of an EXPLAIN statement prints more or less than its plan:\n%s", out)
	}
}

// TestPaperRunningExampleEndToEnd is the paper's §2 query, verified
// end-to-end across all strategies on a fixed dataset, small enough
// (20 candidates) for exact enumeration to run.
func TestPaperRunningExampleEndToEnd(t *testing.T) {
	sys := newSystem(t, 30)
	var objectives []float64
	for _, st := range []pb.Strategy{pb.Solver, pb.PrunedEnum} {
		res, err := sys.Query(mealQuery, pb.WithStrategy(st))
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if res.Stats.Strategy != st {
			t.Fatalf("strategy = %v, want the forced %v", res.Stats.Strategy, st)
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
