package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/sketch"
)

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		Auto: "auto", PrunedEnum: "pruned-enum", LocalSearchStrategy: "local-search",
		Solver: "solver", SketchRefineStrategy: "sketch-refine",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
	if !strings.Contains(Strategy(42).String(), "42") {
		t.Error("unknown strategy should render its number")
	}
}

func TestAutoPicksLocalSearchForLargeNonlinear(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 120, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	// A non-linear constraint over far more candidates than the exact
	// enumeration threshold: Auto must fall back to local search.
	res, err := Evaluate(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) * SUM(P.protein) >= 100000
		      AND SUM(P.calories) <= 3000
		MAXIMIZE SUM(P.protein)`, Options{Seed: 3, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != LocalSearchStrategy {
		t.Errorf("auto chose %v for large non-linear query", res.Stats.Strategy)
	}
	// any returned package must genuinely satisfy the non-linear formula
	for _, p := range res.Packages {
		cal, _ := p.AggValues["SUM(R.calories)"].AsFloat()
		prot, _ := p.AggValues["SUM(R.protein)"].AsFloat()
		if cal*prot < 100000-1e-6 || cal > 3000 {
			t.Errorf("non-linear constraint violated: %g * %g, cal %g", cal, prot, cal)
		}
	}
}

func TestTimeoutIsRespected(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 22, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	// An enumeration with a tiny budget must return promptly and be
	// flagged inexact. The 22 rows are at most ExactEnumMax candidates,
	// so the forced enumeration is the strategy that runs.
	res, err := Evaluate(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 500 AND 5000
		MAXIMIZE SUM(P.protein)`, Options{Strategy: PrunedEnum, Timeout: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != PrunedEnum {
		t.Fatalf("strategy = %v, want the forced pruned-enum", res.Stats.Strategy)
	}
	if res.Stats.Exact {
		t.Error("budget-starved enumeration must not claim exactness")
	}
}

// TestLimitSharesOneDeadline: Timeout bounds the whole evaluation, so
// the exact solver's LIMIT and DIVERSE over-fetch solves share one
// deadline instead of each getting the full budget. Every solve of this
// knapsack runs past the budget — every weight 2·calories is even and
// the budget odd, so the relaxation's bound sits at the budget, which no
// package reaches, and no search over the 1,500 columns can close the
// gap — so a solver that restarted its clock per package would overrun
// it about threefold under Run, and under RunContext the hard backstop,
// not the budget, would stop it.
func TestLimitSharesOneDeadline(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 1500, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	const timeout = 300 * time.Millisecond
	const query = `SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 12 AND SUM(P.calories * 2) <= 14001
		MAXIMIZE SUM(P.calories * 2) `
	for _, c := range []struct {
		limit   string
		diverse bool
	}{{"LIMIT 3", false}, {"LIMIT 1", true}} {
		prep, err := Prepare(db, query+c.limit)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Strategy: Solver, Timeout: timeout, Diverse: c.diverse}
		start := time.Now()
		res, err := prep.Run(opts)
		if elapsed := time.Since(start); elapsed > 2*timeout {
			t.Errorf("%s (diverse %v): Run took %v under a %v budget", c.limit, c.diverse, elapsed, timeout)
		}
		if err != nil || len(res.Packages) == 0 {
			t.Fatalf("%s (diverse %v): Run returned %d packages, err %v", c.limit, c.diverse, len(res.Packages), err)
		}
		res, err = prep.RunContext(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s (diverse %v): RunContext: %v", c.limit, c.diverse, err)
		}
		if slices.Contains(res.Stats.Notes, "deadline exceeded; best-effort packages returned") {
			t.Errorf("%s (diverse %v): the hard backstop stopped RunContext before the budget did: %q",
				c.limit, c.diverse, res.Stats.Notes)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"":              Auto,
		"auto":          Auto,
		"solver":        Solver,
		"milp":          Solver,
		"sketch":        SketchRefineStrategy,
		"Sketch-Refine": SketchRefineStrategy,
		"pruned":        PrunedEnum,
		"local-search":  LocalSearchStrategy,
	}
	for name, want := range cases {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("quantum"); err == nil {
		t.Error("ParseStrategy should reject unknown names")
	}
}

// TestStrategyTextRoundTrip: a Strategy read back from its own text, or
// from any alias ParseStrategy accepts, is the same Strategy — what the
// -strategy flag and pbserver's "strategy" field rely on.
func TestStrategyTextRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Auto, PrunedEnum, LocalSearchStrategy, Solver, SketchRefineStrategy} {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Strategy
		if err := got.UnmarshalText(text); err != nil || got != s {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, got, err, s)
		}
	}
	aliases := map[string]Strategy{
		"": Auto, "auto": Auto, "pruned-enum": PrunedEnum, "pruned": PrunedEnum,
		"local-search": LocalSearchStrategy, "local": LocalSearchStrategy, "solver": Solver, "milp": Solver,
		"sketch-refine": SketchRefineStrategy, "sketch": SketchRefineStrategy, " Sketch ": SketchRefineStrategy,
	}
	for name, want := range aliases {
		var got Strategy
		if err := got.UnmarshalText([]byte(name)); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", name, got, err, want)
		}
		text, _ := got.MarshalText()
		var again Strategy
		if err := again.UnmarshalText(text); err != nil || again != want {
			t.Errorf("round trip of alias %q through %q = %v, %v", name, text, again, err)
		}
	}
	var s Strategy
	if err := s.UnmarshalText([]byte("warp-drive")); err == nil {
		t.Error("UnmarshalText should reject unknown names")
	}
}

func TestSketchStrategyThroughEngine(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT PACKAGE(R) AS P FROM recipes R
	      SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	      MAXIMIZE SUM(P.protein)`
	res, err := Evaluate(db, q, Options{Strategy: SketchRefineStrategy, Seed: 1, SketchPartitionSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != SketchRefineStrategy {
		t.Fatalf("strategy = %v", res.Stats.Strategy)
	}
	if res.Stats.Sketch.Partitions == 0 {
		t.Error("stats should report the partition count")
	}
	if len(res.Packages) != 1 {
		t.Fatalf("got %d packages", len(res.Packages))
	}
	exact, err := Evaluate(db, q, Options{Strategy: Solver, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := exact.Packages[0].Objective
	got := res.Packages[0].Objective
	if got > opt+1e-6 {
		t.Fatalf("sketch objective %.3f beats proven optimum %.3f", got, opt)
	}
	if gap := (opt - got) / opt; gap > 0.25 {
		t.Errorf("objective gap %.1f%% > 25%%", gap*100)
	}
}

func TestAutoSelectsSketchAboveThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >4096-tuple relation")
	}
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: plan.SketchThreshold + 500, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT PACKAGE(R) AS P FROM recipes R
	      SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	      MAXIMIZE SUM(P.protein)`
	res, err := Evaluate(db, q, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != SketchRefineStrategy {
		t.Fatalf("auto chose %v for %d candidates", res.Stats.Strategy, res.Stats.Candidates)
	}
	if len(res.Packages) == 0 {
		t.Fatal("no package returned")
	}
	// Require pins stay on the sketch path: the pinned tuple's leaf
	// partition is forced into every sketch level.
	pinned, err := Evaluate(db, q, Options{Seed: 1, Strategy: SketchRefineStrategy, Require: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Stats.Strategy != SketchRefineStrategy {
		t.Fatalf("Require should stay on sketch-refine, got %v", pinned.Stats.Strategy)
	}
	if len(pinned.Packages) == 0 {
		t.Fatal("no package returned with a pinned tuple")
	}
	if pinned.Packages[0].Mult[0] < 1 {
		t.Errorf("pinned candidate 0 missing from the package (mult %d)", pinned.Packages[0].Mult[0])
	}
}

// TestSketchMultiplePackages covers adaptive exploration's Replace on
// the sketch path: asking for several packages must yield distinct
// multiplicity vectors (via exclusion cuts in sketch space — the query
// has no REPEAT), best-first.
func TestSketchMultiplePackages(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(db, `SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`,
		Options{Strategy: SketchRefineStrategy, Seed: 1, Limit: 3, SketchPartitionSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) < 2 {
		t.Fatalf("got %d packages, want >= 2 distinct", len(res.Packages))
	}
	seen := map[string]bool{}
	for i, p := range res.Packages {
		k := search.Pkg{Mult: p.Mult}.Key()
		if seen[k] {
			t.Fatalf("package %d duplicates an earlier one", i)
		}
		seen[k] = true
		if i > 0 && p.Objective > res.Packages[i-1].Objective+1e-9 {
			t.Fatalf("packages not best-first: %g after %g", p.Objective, res.Packages[i-1].Objective)
		}
	}
}

// TestSketchMultiplePackagesRepeat covers the other multi-package
// branch: REPEAT blocks exclusion cuts, so distinct packages come from
// partition-size/seed perturbation.
func TestSketchMultiplePackagesRepeat(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(db, `SELECT PACKAGE(R) AS P FROM recipes R REPEAT 1
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`,
		Options{Strategy: SketchRefineStrategy, Seed: 1, Limit: 3, SketchPartitionSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) == 0 {
		t.Fatal("no packages returned")
	}
	seen := map[string]bool{}
	for i, p := range res.Packages {
		k := search.Pkg{Mult: p.Mult}.Key()
		if seen[k] {
			t.Fatalf("package %d duplicates an earlier one", i)
		}
		seen[k] = true
	}
	found := false
	for _, n := range res.Stats.Notes {
		if strings.Contains(n, "partition perturbation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("REPEAT query should use the perturbation path, notes: %v", res.Stats.Notes)
	}
}

// TestSketchCoversAvgMinMaxNoFallback pins the full-grammar contract:
// AVG/MIN/MAX atoms and 2-branch disjunctions run under the sketch
// strategy without falling back to the exact solver, proven by the
// sketch-specific stats being populated.
func TestSketchCoversAvgMinMaxNoFallback(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 60, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		tail         string
		wantBranches int
		wantRewrites int
	}{
		{`SUCH THAT COUNT(*) = 3 AND AVG(P.calories) <= 900 MAXIMIZE SUM(P.protein)`, 1, 1},
		{`SUCH THAT COUNT(*) = 3 AND MIN(P.protein) >= 5 MAXIMIZE SUM(P.protein)`, 1, 1},
		{`SUCH THAT COUNT(*) = 3 AND MAX(P.calories) <= 950 MAXIMIZE SUM(P.protein)`, 1, 1},
		{`SUCH THAT COUNT(*) = 3 AND (AVG(P.calories) <= 900 OR SUM(P.calories) <= 2000) MAXIMIZE SUM(P.protein)`, 2, 1},
	}
	for _, q := range queries {
		res, err := Evaluate(db, "SELECT PACKAGE(R) AS P FROM recipes R "+q.tail,
			Options{Strategy: SketchRefineStrategy, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", q.tail, err)
		}
		if res.Stats.Strategy != SketchRefineStrategy {
			t.Fatalf("%s: fell back to %v", q.tail, res.Stats.Strategy)
		}
		if res.Stats.Sketch.Levels < 1 {
			t.Errorf("%s: SketchLevels = %d, want >= 1 (the sketch really ran)", q.tail, res.Stats.Sketch.Levels)
		}
		if res.Stats.Sketch.Branches != q.wantBranches {
			t.Errorf("%s: SketchBranches = %d, want %d", q.tail, res.Stats.Sketch.Branches, q.wantBranches)
		}
		if res.Stats.Sketch.AtomRewrites != q.wantRewrites {
			t.Errorf("%s: SketchAtomRewrites = %d, want %d", q.tail, res.Stats.Sketch.AtomRewrites, q.wantRewrites)
		}
		if len(res.Packages) == 0 {
			t.Fatalf("%s: no package", q.tail)
		}
	}
}

// TestSketchRequestedForUnsupportedFallsBack keeps the fallback path
// honest for what the sketch engine still cannot lower: a DNF blow-up
// past the branch cap routes to the exact solver, with a note naming
// the obstruction.
func TestSketchRequestedForUnsupportedFallsBack(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 25, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT (COUNT(*) = 1 OR COUNT(*) = 2 OR COUNT(*) = 3)
		      AND (SUM(P.calories) >= 0 OR SUM(P.protein) >= 0)
		      AND (SUM(P.fat) >= 0 OR SUM(P.carbs) >= 0)`,
		Options{Strategy: SketchRefineStrategy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != Solver {
		t.Fatalf("12-branch DNF should fall back to the solver, got %v", res.Stats.Strategy)
	}
	found := false
	for _, n := range res.Stats.Notes {
		if strings.Contains(n, "disjunctive branches") {
			found = true
		}
	}
	if !found {
		t.Errorf("fallback note should explain the DNF cap, got %v", res.Stats.Notes)
	}
	if len(res.Packages) == 0 {
		t.Fatal("fallback returned no package")
	}
}

// TestStatsSketchIsTheSolversRecord: Stats.Sketch is the record the
// solver wrote, not a copy of some of it. The run's record equals, field
// for field and unexported ones included, what the same compiled query
// solved under the plan's knobs returns — so a field added to
// sketch.Result reaches every surface without a line here — and the one
// field kept beside it agrees with it.
func TestStatsSketchIsTheSolversRecord(t *testing.T) {
	prep, err := Prepare(lcDB(t, 6000), lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(Options{Strategy: SketchRefineStrategy, Seed: 1, SketchNoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	st, qp := res.Stats, res.Stats.Plan
	if st.Sketch == nil {
		t.Fatal("a sketch-refine run left no Stats.Sketch")
	}
	want, err := prep.Sketch.Solve(sketch.Options{Ctx: context.Background(), MaxPartitionSize: qp.Tau,
		Depth: qp.Depth, Parallelism: qp.Parallelism, BoundMode: qp.Bound, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := *st.Sketch
	got.BoundTime, want.BoundTime = 0, 0
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("Stats.Sketch = %+v\nthe solver returns %+v", got, *want)
	}
	if got.Partitions == 0 || got.Refined == 0 || !got.Certified || got.BoundRounds == 0 || got.Nodes == 0 {
		t.Errorf("the record is missing what the solve did: %+v", got)
	}
	if st.SketchTreePatched != got.TreePatched || st.BoundValue != got.Bound || st.BoundStage != got.BoundStage || st.Nodes != got.Nodes {
		t.Errorf("Stats disagrees with its own sketch record: %+v beside %+v", st, got)
	}
	if line := st.CertifiedLine(got.Objective); !strings.Contains(line, fmt.Sprintf("via %s, %d pricing round(s)", got.BoundStage, got.BoundRounds)) ||
		!slices.ContainsFunc(st.Notes, func(n string) bool { return strings.HasSuffix(n, "; certified "+line) }) {
		t.Errorf("the note does not end in the certificate line %q: %v", line, st.Notes)
	}
	if solver, err := prep.Run(Options{Strategy: Solver}); err != nil || solver.Stats.Sketch != nil {
		t.Errorf("a solver run carries a sketch record (err %v)", err)
	}
}

// TestOutOfRangePinFailsUnderEveryStrategy: a pin outside the candidate
// set is refused with one error whichever strategy the plan runs. The
// enumerators used to drop it and answer a package without the pin.
func TestOutOfRangePinFailsUnderEveryStrategy(t *testing.T) {
	prep, err := Prepare(lcDB(t, 20), lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	n := len(prep.Instance.Rows)
	for _, strat := range []Strategy{PrunedEnum, LocalSearchStrategy, Solver, SketchRefineStrategy} {
		for _, pin := range []int{-1, n, n + 7} {
			_, err := prep.Run(Options{Seed: 1, Strategy: strat, Require: []int{0, pin}})
			if want := fmt.Sprintf("core: pinned candidate %d out of range [0,%d)", pin, n); err == nil || err.Error() != want {
				t.Errorf("%s, pin %d: err %v, want %q", strat, pin, err, want)
			}
		}
	}
}
