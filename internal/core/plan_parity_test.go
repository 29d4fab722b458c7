package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sketch"
)

// optionDecision says, for every field of Options, which plan decision
// setting it forces. The empty string marks what the planner does not
// decide: the handles an evaluation runs against (SketchCache, SketchMemo,
// Require, Limit), the Catalog and SketchIncremental nothing reads, and
// the budgets, seeds, ablations and tier settings that pass straight to
// the runners. A new Options field has to be entered here — and, when it
// names a decision, in parityCases below — before TestExecutionFollowsPlan
// passes again.
var optionDecision = map[string]string{
	"Strategy":            "strategy",
	"SketchPartitionSize": "tau",
	"SketchDepth":         "depth",

	"Catalog": "", "SketchIncremental": "", "SketchCache": "", "SketchMemo": "", "Require": "", "Limit": "",

	"Timeout": "", "MemoryBudget": "", "Seed": "", "Restarts": "", "Diverse": "",
	"SketchNoCache": "", "SketchPersistDir": "",
}

type parityCase struct {
	field string
	set   func(*Options)
}

// parityCases force one Options field each (none, for the planner's own
// choices) to a value the planner would not pick over 6,000 candidates
// (τ 64, depth 2).
var parityCases = []parityCase{
	{"", func(*Options) {}},
	{"Strategy", func(o *Options) { o.Strategy = SketchRefineStrategy }},
	{"SketchPartitionSize", func(o *Options) { o.SketchPartitionSize = 40 }},
	{"SketchDepth", func(o *Options) { o.SketchDepth = 1 }},
}

// ruledOutCases force a strategy the query rules out — by its atom mix,
// or pruned enumeration by its candidate count: the plan must already
// name the strategy that runs, decided as the unforced query would be,
// with nothing marked forced.
var ruledOutCases = []struct {
	name   string
	forced Strategy
	rows   int
	query  string
	want   Strategy
	reason []string // fragments the strategy reason must carry
}{
	{"solver/non-linear-small", Solver, 10, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) * SUM(P.protein) <= 500000
		MAXIMIZE SUM(P.protein)`,
		PrunedEnum, []string{"forced solver unavailable (non-linear: "}},
	{"solver/non-linear-large", Solver, 120, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) * SUM(P.protein) >= 100000
		MAXIMIZE SUM(P.protein)`,
		LocalSearchStrategy, []string{"forced solver unavailable (non-linear: "}},
	{"sketch/12-branch-dnf", SketchRefineStrategy, 25, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT (COUNT(*) = 1 OR COUNT(*) = 2 OR COUNT(*) = 3)
		      AND (SUM(P.calories) >= 0 OR SUM(P.protein) >= 0)
		      AND (SUM(P.fat) >= 0 OR SUM(P.carbs) >= 0)
		MAXIMIZE SUM(P.protein)`,
		Solver, []string{"forced sketch-refine unavailable; ", "disjunctive branches"}},
	{"sketch/non-linear", SketchRefineStrategy, 10, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) * SUM(P.protein) <= 500000
		MAXIMIZE SUM(P.protein)`,
		PrunedEnum, []string{"forced sketch-refine unavailable (non-linear: "}},
	{"pruned-enum/linear-large", PrunedEnum, 120, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1500 AND 2000
		MAXIMIZE SUM(P.protein)`,
		Solver, []string{"forced pruned-enum unavailable (120 candidates > 22); ", "exact MILP is affordable"}},
	{"pruned-enum/non-linear-large", PrunedEnum, 120, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) * SUM(P.protein) >= 100000
		MAXIMIZE SUM(P.protein)`,
		LocalSearchStrategy, []string{"forced pruned-enum unavailable (120 candidates > 22); ", "local search"}},
}

// boundStageOrder ranks the sketch path's bound stages, shallowest first.
var boundStageOrder = []string{plan.BoundNone, plan.BoundRawLP, plan.BoundTreeLP, plan.BoundTreeLPTighten}

// TestExecutionFollowsPlan pins the seam between the options and the
// strategy runners: whatever the planner chose or the user forced, the
// values the execution reports are the ones in Stats.Plan, and [forced]
// marks exactly the decisions the options pinned.
func TestExecutionFollowsPlan(t *testing.T) {
	rt := reflect.TypeOf(Options{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		decision, ok := optionDecision[name]
		if !ok {
			t.Errorf("Options.%s is not in optionDecision: say which plan decision it forces, or \"\" if the planner does not decide it", name)
		}
		if decision != "" && !slices.ContainsFunc(parityCases, func(c parityCase) bool { return c.field == name }) {
			t.Errorf("Options.%s forces the %q decision but has no parityCases row", name, decision)
		}
	}
	if len(optionDecision) != rt.NumField() {
		t.Errorf("optionDecision lists %d fields, Options has %d: drop the stale entry", len(optionDecision), rt.NumField())
	}

	const solverQuery = `
		SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free'
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
		MAXIMIZE SUM(P.protein)`
	for _, c := range parityCases {
		name := c.field
		if name == "" {
			name = "planner"
		}
		t.Run(name, func(t *testing.T) {
			db := lcDB(t, 6000)
			opts := Options{Seed: 1, SketchCache: sketch.NewCache(0), SketchMemo: NewFingerprintMemo()}
			c.set(&opts)
			forced := map[string]bool{}
			if c.field != "" {
				forced[optionDecision[c.field]] = true
			}
			run := func(shape, query, wantSource string) *Result {
				t.Helper()
				prep, err := Prepare(db, query)
				if err != nil {
					t.Fatal(err)
				}
				res, err := prep.Run(opts)
				if err != nil {
					t.Fatalf("%s: %v", shape, err)
				}
				if len(res.Packages) == 0 {
					t.Fatalf("%s: no package: %v", shape, res.Stats.Notes)
				}
				checkFollowsPlan(t, shape, res, forced, wantSource)
				return res
			}
			// Under 4,096 candidates the planner answers exactly unless the
			// strategy is forced; over them it sketches: cold, then warm,
			// then after a write, then after many.
			run("solver", solverQuery, "")
			run("sketch-cold", lcQuery, "build")
			run("sketch-warm", lcQuery, "cache")
			if _, err := db.Exec("INSERT INTO recipes VALUES (90001, 'x', 'fusion', 'dinner', 'free', 700, 30, 10, 50, 9.5, 4.5)"); err != nil {
				t.Fatal(err)
			}
			run("post-write", lcQuery, "patch")
			// After many writes: three 10 % batches. Each leaves the tree
			// 10 % stale, but the third would take its drift since the last
			// full build past the 25 % budget: ApplyDelta refuses it, the
			// run notes why, and the tree is built.
			drift := 1
			for i := 0; i < 3; i++ {
				writeBatch(t, db, 100_000+400*i, 400, 1+200*i, 200)
				shape := fmt.Sprintf("post-write-after-many-writes/%d", i+1)
				if plan.PatchFits(drift, 600, 6001+200*(i+1)) {
					run(shape, lcQuery, "patch")
					drift += 600
					continue
				}
				if res := run(shape, lcQuery, "build"); budgetNote(res.Stats.Notes) == "" {
					t.Errorf("%s: a 10%% step on %d drift rebuilt without the budget note: %q", shape, drift, res.Stats.Notes)
				}
				drift = 0
			}
		})
	}

	for _, c := range ruledOutCases {
		t.Run("ruled-out/"+c.name, func(t *testing.T) {
			prep, err := Prepare(lcDB(t, c.rows), c.query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prep.Run(Options{Seed: 3, Strategy: c.forced})
			if err != nil {
				t.Fatal(err)
			}
			checkFollowsPlan(t, c.name, res, nil, "")
			qp := res.Stats.Plan
			if res.Stats.Strategy != c.want {
				t.Errorf("ran %s, want %s\n%s", res.Stats.Strategy, c.want, qp.Explain())
			}
			for _, frag := range c.reason {
				if d := qp.Decision("strategy"); !strings.Contains(d.Reason, frag) {
					t.Errorf("strategy reason %q does not contain %q", d.Reason, frag)
				}
			}
			// Every later decision is made for the strategy that runs:
			// no sketch knobs, that strategy's bound and memory estimate.
			for _, name := range []string{"tau", "depth", "parallelism"} {
				if d := qp.Decision(name); d != nil {
					t.Errorf("%s plan carries a %s decision (%s)\n%s", qp.Strategy, name, d.Value, qp.Explain())
				}
			}
			wantBound := plan.BoundMILPDual
			if c.want == LocalSearchStrategy {
				wantBound = plan.BoundNone
			}
			atoms := qp.Mix.SumCount + qp.Mix.Avg + qp.Mix.MinMax
			wantMem := plan.MemoryEstimate(qp.Strategy, res.Stats.Candidates, 0, atoms)
			if qp.Bound != wantBound || qp.MemoryBytes != wantMem {
				t.Errorf("bound %s, memory %d B; want %s, %d B\n%s",
					qp.Bound, qp.MemoryBytes, wantBound, wantMem, qp.Explain())
			}
		})
	}
}

// checkFollowsPlan compares what one evaluation reports having done
// with the plan it carries, and where its partition tree came from — the
// run's record, which no plan predicts — with wantSource.
func checkFollowsPlan(t *testing.T, shape string, res *Result, forced map[string]bool, wantSource string) {
	t.Helper()
	st, qp := res.Stats, res.Stats.Plan
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s: %s\n%s", shape, fmt.Sprintf(format, args...), qp.Explain())
	}
	if st.Strategy.String() != qp.Strategy {
		fail("ran %s, planned %s", st.Strategy, qp.Strategy)
	}
	sketched := qp.Strategy == plan.StrategySketch
	if wantSource != "" && !sketched {
		fail("planned %s over %d candidates, want sketch-refine", qp.Strategy, st.Candidates)
	}
	var got, want []string
	for _, d := range qp.Decisions {
		if d.Forced {
			got = append(got, d.Name)
		}
	}
	for name := range forced {
		want = append(want, name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		fail("forced decisions %v, want %v", got, want)
	}
	sk := st.Sketch
	if !sketched {
		if sk != nil {
			fail("sketch stats on a %s run: %d partitions, %d levels", qp.Strategy, sk.Partitions, sk.Levels)
		}
		return
	}
	if sk == nil {
		fail("a sketch-refine run left no sketch record")
		return
	}
	if sk.Levels != qp.Depth {
		fail("descended %d levels, planned depth %d", sk.Levels, qp.Depth)
	}
	if sk.Workers != qp.Parallelism {
		fail("%d workers, planned %d", sk.Workers, qp.Parallelism)
	}
	// Median splits leave every leaf between τ/2 and τ tuples.
	if least := (st.Candidates + qp.Tau - 1) / qp.Tau; sk.Partitions < least || sk.Partitions > 2*least+1 {
		fail("%d leaf partitions over %d candidates do not fit τ = %d", sk.Partitions, st.Candidates, qp.Tau)
	}
	if !st.Certified || slices.Index(boundStageOrder, st.BoundStage) > slices.Index(boundStageOrder, qp.Bound) {
		fail("certified=%v at stage %q, planned %q", st.Certified, st.BoundStage, qp.Bound)
	}
	if st.SketchTreePatched != sk.TreePatched {
		fail("Stats.SketchTreePatched = %v beside a record that says %v", st.SketchTreePatched, sk.TreePatched)
	}
	if wantSource == "" {
		return
	}
	source := "build"
	switch {
	case sk.CacheHit:
		source = "cache"
	case sk.TreeLoaded:
		source = "disk"
	case st.SketchTreePatched:
		source = "patch"
	}
	if source != wantSource {
		fail("tree came from %s, want %s", source, wantSource)
	}
}

// TestSketchLimitKBoundsOnce: the certificate belongs to the first
// package, so the exclusion-cut re-solves behind LIMIT k run no bound
// pass — k packages build exactly as many bound relaxations as one —
// and the packages are the ones the full-pipeline re-solves returned.
func TestSketchLimitKBoundsOnce(t *testing.T) {
	db := lcDB(t, 6000)
	prep, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prep.Instance.Rows); n <= 4096 {
		t.Fatalf("%d candidates: need > 4096 so the bound takes the tree path", n)
	}
	run := func(limit int) (*Result, int64) {
		t.Helper()
		// No rules: the injector only counts site visits.
		inj := fault.NewInjector(1)
		restore := fault.Enable(inj)
		defer restore()
		res, err := prep.Run(Options{Strategy: SketchRefineStrategy, Seed: 1, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		return res, inj.Coverage()["bound.relax"].Visits
	}
	one, oneVisits := run(1)
	five, fiveVisits := run(5)
	if oneVisits == 0 || fiveVisits != oneVisits {
		t.Errorf("LIMIT 5 built %d bound relaxations, LIMIT 1 built %d: the re-solves must build none", fiveVisits, oneVisits)
	}
	if !five.Stats.Certified || five.Stats.BoundValue != one.Stats.BoundValue || five.Stats.BoundStage != one.Stats.BoundStage {
		t.Errorf("LIMIT 5 certificate (%v, %v, %s) differs from LIMIT 1's (%v, %v, %s)",
			five.Stats.Certified, five.Stats.BoundValue, five.Stats.BoundStage,
			one.Stats.Certified, one.Stats.BoundValue, one.Stats.BoundStage)
	}
	// The packages and their objectives. The last four tie at 140, so
	// their order is the sub-MILPs' tie choice: it was re-recorded when
	// branch-and-bound nodes began restarting from their parent's basis
	// (the objectives did not move).
	golden := [][]int{{2511, 3348, 5112}, {2511, 2800, 3348}, {2511, 3348, 4452}, {417, 2511, 3348}, {1155, 2511, 3348}}
	goldenObj := []float64{141, 140, 140, 140, 140}
	var got [][]int
	var gotObj []float64
	for _, p := range five.Packages {
		got = append(got, p.TupleIDs())
		gotObj = append(gotObj, p.Objective)
	}
	if !reflect.DeepEqual(got, golden) || !reflect.DeepEqual(gotObj, goldenObj) {
		t.Errorf("LIMIT 5 packages = %v with objectives %v, want %v with %v", got, gotObj, golden, goldenObj)
	}
}

// TestPlanRebuildsExactlyWhenApplyDeltaRefuses holds the benchmark's
// frozen trace to the engine: over appends that walk a tree's drift up to
// the budget exactly and one tuple past it, the trace's spelled-out
// acquisition — plan, Advance, the base tree out of the cache,
// ApplyDelta, else a build — patches on exactly the steps a query through
// the engine patches, and both answer the same package. Each side runs
// over a table of its own, since a table carries its fingerprint lineage.
func TestPlanRebuildsExactlyWhenApplyDeltaRefuses(t *testing.T) {
	engineDB, traceDB := lcDB(t, 6000), lcDB(t, 6000)
	opts := Options{Seed: 1, SketchCache: sketch.NewCache(0), SketchMemo: NewFingerprintMemo()}
	cache, memo := sketch.NewCache(0), NewFingerprintMemo()
	// 6,000 → 7,000 → 8,000 rows: 1,000 + 1,000 is 25 % of 8,000 exactly,
	// one row more is past it, and the rebuilt tree patches again.
	nextID := 100_000
	for i, step := range []struct {
		appends int
		patched bool
	}{{0, false}, {1000, true}, {1000, true}, {1, false}, {1, true}} {
		if step.appends > 0 {
			writeBatch(t, engineDB, nextID, step.appends, 0, 0)
			writeBatch(t, traceDB, nextID, step.appends, 0, 0)
			nextID += step.appends
		}
		res, err := Evaluate(engineDB, lcQuery, opts)
		if err != nil || len(res.Packages) == 0 {
			t.Fatalf("step %d: engine query: err %v, no package", i, err)
		}

		prep, err := Prepare(traceDB, lcQuery)
		if err != nil {
			t.Fatal(err)
		}
		qp := prep.Plan(Options{Seed: 1, SketchCache: cache, SketchMemo: memo})
		if qp.Strategy != plan.StrategySketch || !qp.Incremental {
			t.Fatalf("step %d planned %s, incremental %v", i, qp.Strategy, qp.Incremental)
		}
		fp, patch := memo.Advance(prep)
		so := sketch.Options{MaxPartitionSize: qp.Tau, Depth: qp.Depth, Parallelism: qp.Parallelism,
			BoundMode: qp.Bound, Seed: 1, Cache: cache, Fingerprint: &fp, Patch: patch}
		key := sketch.KeyFor(prep.Instance, so)
		tree, cached := cache.Peek(key)
		patched := false
		if !cached && patch != nil {
			baseKey := key
			baseKey.Fingerprint = patch.BaseFingerprint
			base, ok := cache.Get(baseKey)
			if !ok {
				t.Fatalf("step %d: the lineage names a base tree the cache does not hold", i)
			}
			tree, patched = base.ApplyDelta(prep.Instance.Rows, patch.Remap, so)
			cached = patched
		}
		if !cached {
			tree = sketch.BuildTree(prep.Instance, so)
		}
		cache.Put(key, tree)
		sres, err := sketch.Solve(prep.Instance, so)
		if err != nil || !sres.CacheHit || !sres.Feasible {
			t.Fatalf("step %d: trace solve: err %v, cache hit %v, feasible %v", i, err, sres.CacheHit, sres.Feasible)
		}

		if patched != res.Stats.SketchTreePatched || patched != step.patched {
			t.Fatalf("step %d (%d candidates): the trace patched=%v, the engine %v, want %v",
				i, len(prep.Instance.Rows), patched, res.Stats.SketchTreePatched, step.patched)
		}
		if !slices.Equal(sres.Mult, res.Packages[0].Mult) {
			t.Fatalf("step %d: the trace answered %v, the engine %v", i, sres.Mult, res.Packages[0].Mult)
		}
	}
}

// TestForcedDepthPastMaxDepthPlansTheBuiltTree: a forced depth past
// plan.MaxDepth (a pbserver request may send sketchDepth 50) is planned
// at the depth the sketch engine clamps it to, so Stats.Plan, EXPLAIN and
// the memory estimate admission reads describe the tree that is built.
func TestForcedDepthPastMaxDepthPlansTheBuiltTree(t *testing.T) {
	prep, err := Prepare(lcDB(t, 6000), lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(Options{Seed: 1, SketchDepth: 50})
	if err != nil {
		t.Fatal(err)
	}
	qp, sk := res.Stats.Plan, res.Stats.Sketch
	if qp.Depth != plan.MaxDepth || sk == nil || sk.Levels > plan.MaxDepth {
		t.Fatalf("planned depth %d, built %+v; want %d planned and at most %d built\n%s", qp.Depth, sk, plan.MaxDepth, plan.MaxDepth, qp.Explain())
	}
	atoms := qp.Mix.SumCount + qp.Mix.Avg + qp.Mix.MinMax
	if want := plan.MemoryEstimate(plan.StrategySketch, res.Stats.Candidates, plan.MaxDepth, atoms); res.Stats.Plan.MemoryBytes != want {
		t.Fatalf("memory estimate %d B, want %d B for %d levels", res.Stats.Plan.MemoryBytes, want, plan.MaxDepth)
	}
}
