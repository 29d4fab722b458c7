package sketch_test

// The bound pass never changes what is searched: a disjunctive descent
// visits every branch and still returns a certified interval, and the
// pass's clock holds the pass alone.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/minidb"
	"repro/internal/plan"
	"repro/internal/sketch"
)

const anytimeQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	SUCH THAT COUNT(*) = 3 AND (SUM(P.protein) >= 0 OR SUM(P.calories) <= 2500)
	MAXIMIZE SUM(P.protein)`

func anytimePrep(t *testing.T, n int) *core.Prepared {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(db, anytimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestAnytimeOffDescendsAllBranches: the control run — tolerance zero
// must descend every DNF branch and still report a certified interval,
// proving the bound pass alone never changes what is searched.
func TestAnytimeOffDescendsAllBranches(t *testing.T) {
	prep := anytimePrep(t, 400)
	res, err := sketch.Solve(prep.Instance, sketch.Options{
		MaxPartitionSize: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("query must be feasible")
	}
	if res.Branches != 2 {
		t.Fatalf("descended %d branches, want both", res.Branches)
	}
	if !res.Certified {
		t.Fatalf("full descent of a certified query must certify: %+v", res)
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "anytime:") {
			t.Fatalf("tolerance 0 must never early-exit: %v", res.Notes)
		}
	}
}

// TestBoundTimeHoldsOnlyThePass: Result.BoundTime clocks the certified-
// bound pass and nothing else. Acquiring the partition tree — here a
// cache probe slowed by 300 ms — is tree time, and must stay off the
// bound clock. The query is a disjunctive band shape over more
// candidates than the raw-candidate cap, so the pass reads the tree; it
// bounds after each descent, which acquires the tree first.
func TestBoundTimeHoldsOnlyThePass(t *testing.T) {
	const latency = 300 * time.Millisecond
	const query = `
		SELECT PACKAGE(R) AS P
		FROM recipes R
		SUCH THAT COUNT(*) = 3 AND (SUM(P.protein) >= 0 OR SUM(P.calories) BETWEEN 2000 AND 2500)
		MAXIMIZE SUM(P.protein)`
	prep := boundPrep(t, 5000, query)
	if n := len(prep.Instance.Rows); n <= plan.SketchThreshold {
		t.Fatalf("%d candidates: need > %d so the bound pass reads the tree", n, plan.SketchThreshold)
	}
	t.Run("tolerance=0", func(t *testing.T) {
		inj := fault.NewInjector(1, fault.Rule{Site: "sketch.cache.get", Kind: fault.KindLatency, Latency: latency})
		restore := fault.Enable(inj)
		res, err := prep.Sketch.Solve(sketch.Options{Seed: 1, Cache: sketch.NewCache(0)})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if inj.Coverage()["sketch.cache.get"].Fires == 0 {
			t.Fatal("the tree acquisition never probed the cache: no latency was injected")
		}
		if !res.Feasible || !res.Certified {
			t.Fatalf("want a certified package: feasible=%v certified=%v", res.Feasible, res.Certified)
		}
		if res.BoundTime >= latency {
			t.Errorf("BoundTime %v includes the %v tree acquisition", res.BoundTime, latency)
		}
	})
}
