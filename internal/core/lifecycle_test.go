package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

func lcDB(t *testing.T, n int) *minidb.DB {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return db
}

const lcQuery = `
	SELECT PACKAGE(R) AS P FROM recipes R
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func TestRunContextCanceledBeforeStart(t *testing.T) {
	db := lcDB(t, 100)
	prep, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prep.RunContext(ctx, Options{}); !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("RunContext on dead ctx = %v, want ErrCanceled", err)
	}
	// The cause survives the wrap.
	if _, err := prep.RunContext(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cause lost: %v", err)
	}
	// The same Prepared still works afterwards.
	if res, err := prep.RunContext(context.Background(), Options{}); err != nil || len(res.Packages) == 0 {
		t.Fatalf("follow-up query: packages=%d err=%v", len(res.Packages), err)
	}
}

func TestPrepareContextCanceled(t *testing.T) {
	db := lcDB(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareContext(ctx, db, lcQuery); !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("PrepareContext on dead ctx = %v, want ErrCanceled", err)
	}
	if _, err := EvaluateContext(ctx, db, lcQuery, Options{}); !errors.Is(err, lifecycle.ErrCanceled) {
		t.Fatalf("EvaluateContext on dead ctx = %v, want ErrCanceled", err)
	}
}

func TestRunContextInfeasibleTyped(t *testing.T) {
	db := lcDB(t, 30)
	// Contradictory cardinality bounds: provably no package.
	prep, err := Prepare(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) >= 5 AND COUNT(*) <= 2`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.RunContext(context.Background(), Options{})
	if !errors.Is(err, lifecycle.ErrInfeasible) {
		t.Fatalf("contradictory bounds = %v, want ErrInfeasible", err)
	}
	if res == nil || res.Stats.Plan == nil {
		t.Fatal("infeasible result should still carry the plan for diagnostics")
	}
	// The legacy surface keeps its answer-not-error contract.
	lres, err := prep.Run(Options{})
	if err != nil || lres == nil || len(lres.Packages) != 0 {
		t.Fatalf("legacy Run: res=%v err=%v, want empty result and nil error", lres, err)
	}

	// An exact strategy completing empty is also provably infeasible.
	// Calories are integer-valued, so a fractional SUM target has no
	// solution — but the cardinality bounds cannot see that, so the
	// verdict must come from the solver itself.
	prep2, err := Prepare(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) = 1000.5`)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := prep2.RunContext(context.Background(), Options{Strategy: Solver})
	if !errors.Is(err, lifecycle.ErrInfeasible) {
		t.Fatalf("exact-solver empty = %v, want ErrInfeasible", err)
	}
	if res2 == nil || !res2.Stats.Exact {
		t.Fatal("the infeasibility verdict must come from an exact run")
	}
}

func TestRunContextHeuristicEmptyIsNotInfeasible(t *testing.T) {
	db := lcDB(t, 5000)
	// Unsatisfiable (integer calories, fractional target), but
	// sketch-refine cannot prove it: the contract keeps this an answer
	// (no packages, note) rather than a verdict.
	prep, err := Prepare(db, `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 2 AND SUM(P.calories) = 1000.5`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.RunContext(context.Background(), Options{Strategy: SketchRefineStrategy})
	if err != nil {
		t.Fatalf("heuristic empty answer should not be an error: %v", err)
	}
	if len(res.Packages) != 0 || res.Stats.Exact {
		t.Fatalf("packages=%d exact=%v", len(res.Packages), res.Stats.Exact)
	}
}

func TestRunContextMemoryBudget(t *testing.T) {
	db := lcDB(t, 200)
	prep, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	// One byte of budget refuses everything, before any solve work.
	res, err := prep.RunContext(context.Background(), Options{MemoryBudget: 1})
	if !errors.Is(err, lifecycle.ErrBudgetExceeded) {
		t.Fatalf("budget 1B = %v, want ErrBudgetExceeded", err)
	}
	if res == nil || res.Stats.MemoryEstimate <= 0 {
		t.Fatal("refusal should report the estimate that tripped it")
	}
	// A generous budget admits the query; the estimate is still reported.
	res, err = prep.RunContext(context.Background(), Options{MemoryBudget: 1 << 30})
	if err != nil || len(res.Packages) == 0 {
		t.Fatalf("generous budget: packages=%d err=%v", len(res.Packages), err)
	}
	if res.Stats.MemoryEstimate <= 0 || res.Stats.MemoryEstimate >= 1<<30 {
		t.Fatalf("estimate = %d", res.Stats.MemoryEstimate)
	}
	// The legacy surface enforces the (new) knob too — it predates only
	// the cancellation and infeasibility parts of the taxonomy.
	if _, err := prep.Run(Options{MemoryBudget: 1}); !errors.Is(err, lifecycle.ErrBudgetExceeded) {
		t.Fatalf("legacy Run with budget = %v, want ErrBudgetExceeded", err)
	}
}

func TestRunContextDeadlineKeepsPackages(t *testing.T) {
	db := lcDB(t, 100)
	prep, err := Prepare(db, lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	// A deadline generous enough for this tiny solve: packages come back
	// clean even though the context carries a deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := prep.RunContext(ctx, Options{})
	if err != nil || len(res.Packages) == 0 {
		t.Fatalf("packages=%d err=%v", len(res.Packages), err)
	}
	// The context deadline became the soft budget: the strategies saw a
	// bounded Timeout even though the caller set none.
	if res.Stats.Elapsed > 30*time.Second {
		t.Fatal("elapsed exceeds the deadline")
	}
}

func TestErrorsAreExclusive(t *testing.T) {
	// The taxonomy's sentinels never alias: one outcome, one category.
	errs := []error{
		lifecycle.Infeasible("x"),
		lifecycle.Canceled(context.Canceled),
		lifecycle.BudgetExceeded(10, 1),
		lifecycle.Shed("full"),
	}
	sentinels := []error{
		lifecycle.ErrInfeasible, lifecycle.ErrCanceled,
		lifecycle.ErrBudgetExceeded, lifecycle.ErrAdmission,
	}
	for i, e := range errs {
		for j, s := range sentinels {
			if got := errors.Is(e, s); got != (i == j) {
				t.Errorf("errors.Is(%v, %v) = %v", e, s, got)
			}
		}
	}
}

// TestPanickedAcquisitionReleasesItsKey: a panic inside tree acquisition
// (here the publish after a build) is typed by the solve's recovery, and
// the next query of the same key builds and answers. Before the flight
// ended in a defer, it stayed open: the next query waited out its whole
// deadline on it, and without one waited forever.
func TestPanickedAcquisitionReleasesItsKey(t *testing.T) {
	prep, err := Prepare(lcDB(t, 300), lcQuery)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: SketchRefineStrategy, Seed: 1, SketchIncremental: true,
		SketchCache: sketch.NewCache(0), SketchMemo: NewFingerprintMemo()}
	restore := fault.Enable(fault.NewInjector(1, fault.Rule{Site: "sketch.cache.put", Kind: fault.KindPanic, Limit: 1}))
	_, err = prep.Run(opts)
	restore()
	if !errors.Is(err, lifecycle.ErrInternal) {
		t.Fatalf("panicking publish = %v, want ErrInternal", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	res, err := prep.RunContext(ctx, opts)
	if err != nil || len(res.Packages) == 0 {
		t.Fatalf("query after the panic: err %v after %v", err, time.Since(start))
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("query after the panic took %v", el)
	}
}
