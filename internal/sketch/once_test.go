package sketch_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

// TestSolveWeighsEachBranchOnce: however many times a prepared query is
// solved — the anytime pre-bound and the descent of one solve, the
// parity pass after a patched tree fails, the exclusion-cut re-solves
// behind LIMIT k — every solve reads the Prepared's one Compiled, and
// that Compiled has weighed each DNF branch exactly once.
func TestSolveWeighsEachBranchOnce(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 600, Seed: 7}); err != nil {
		t.Fatal(err)
	}

	t.Run("pre-bound and descent", func(t *testing.T) {
		prep, err := core.Prepare(db, `SELECT PACKAGE(R) AS P FROM recipes R
			SUCH THAT COUNT(*) = 3 AND (SUM(P.protein) >= 0 OR SUM(P.calories) BETWEEN 2000 AND 2500)
			MAXIMIZE SUM(P.protein)`)
		if err != nil {
			t.Fatal(err)
		}
		if prep.Sketch.Weighed() != 0 {
			t.Fatalf("Prepare weighed %d branches; weighing is lazy", prep.Sketch.Weighed())
		}
		res, err := prep.Sketch.Solve(sketch.Options{Seed: 1, GapTolerance: 0.5})
		if err != nil || !res.Feasible {
			t.Fatalf("solve: feasible=%v err=%v", res != nil && res.Feasible, err)
		}
		if !slices.ContainsFunc(res.Notes, func(n string) bool { return strings.HasPrefix(n, "anytime: ") }) {
			t.Fatalf("the pre-bound did not run to an early exit; notes: %v", res.Notes)
		}
		if got := prep.Sketch.Weighed(); got != 2 {
			t.Errorf("%d branches weighed, want both (the pre-bound reads every branch)", got)
		}
	})

	t.Run("concurrent solves", func(t *testing.T) {
		prep, err := core.Prepare(db, `SELECT PACKAGE(R) AS P FROM recipes R
			SUCH THAT COUNT(*) = 3 AND (AVG(P.calories) <= 700 OR MIN(P.protein) >= 20)
			MAXIMIZE SUM(P.protein)`)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*sketch.Result, 8)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], _ = prep.Sketch.Solve(sketch.Options{Seed: 1, Parallelism: 1})
			}()
		}
		wg.Wait()
		for i, res := range results {
			if res == nil || !res.Feasible || !slices.Equal(res.Mult, results[0].Mult) {
				t.Fatalf("solve %d of 8 concurrent ones diverged: %+v", i, res)
			}
		}
		if got := prep.Sketch.Weighed(); got != 2 {
			t.Errorf("%d branch weighings under 8 concurrent solves, want 2", got)
		}
	})

	t.Run("parity pass", func(t *testing.T) {
		// A patched-born tree in the cache that holds no feasible package
		// (TestPatchedProvenanceTriggersRebuildRetry's fixture).
		prep := lyingPrep(t)
		opts := sketch.Options{MaxPartitionSize: 2, Seed: 1, Cache: sketch.NewCache(0)}
		opts.Cache.Put(sketch.KeyFor(prep.Instance, opts), lyingTree(1))
		res, err := prep.Sketch.Solve(opts)
		if err != nil || !res.Feasible {
			t.Fatalf("solve: feasible=%v err=%v", res != nil && res.Feasible, err)
		}
		if !slices.ContainsFunc(res.Notes, func(n string) bool { return strings.Contains(n, "rebuilding from scratch and retrying") }) {
			t.Fatalf("the parity pass did not run; notes: %v", res.Notes)
		}
		if got := prep.Sketch.Weighed(); got != 1 {
			t.Errorf("%d branches weighed over two passes, want 1", got)
		}
	})

	t.Run("across queries", func(t *testing.T) {
		// Three queries of one shape that differ in a constant, over one
		// table version. The first scans and folds for itself; the second
		// is the snapshot's promotion, and folds into the store it makes;
		// the third weighs its branch once, like the others, and folds
		// nothing: every selection it names is already in the store.
		shape := `SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free'
			SUCH THAT COUNT(*) = 3 AND AVG(P.fat) <= %d AND SUM(P.calories) BETWEEN 2000 AND 2500
			MAXIMIZE SUM(P.protein)`
		var preps []*core.Prepared
		for _, c := range []int{40, 45, 50} {
			prep, err := core.Prepare(db, fmt.Sprintf(shape, c))
			if err != nil {
				t.Fatal(err)
			}
			before := prep.Instance.Passes.Folds()
			if res, err := prep.Sketch.Solve(sketch.Options{Seed: 1}); err != nil || !res.Feasible {
				t.Fatalf("solve: feasible=%v err=%v", res != nil && res.Feasible, err)
			}
			if got := prep.Sketch.Weighed(); got != 1 {
				t.Errorf("constant %d: %d branches weighed, want 1", c, got)
			}
			if len(preps) == 2 {
				if prep.Instance.Passes != preps[1].Instance.Passes {
					t.Fatal("the third query did not get the snapshot's pass store")
				}
				if before != preps[1].Instance.Passes.Folds() || prep.Instance.Passes.Folds() != before {
					t.Errorf("the third query of the shape folded: %d folds in the store before its prepare, %d after its solve",
						preps[1].Instance.Passes.Folds(), prep.Instance.Passes.Folds())
				}
			}
			preps = append(preps, prep)
		}
		// calories, protein and fat, once each, by the second query alone.
		if got := preps[1].Instance.Passes.Folds(); got != 3 {
			t.Errorf("the snapshot's store made %d folds for three selections", got)
		}
		if !preps[2].SnapshotHit || preps[2].RowsScanned != 0 {
			t.Errorf("third prepare: SnapshotHit=%v RowsScanned=%d", preps[2].SnapshotHit, preps[2].RowsScanned)
		}
	})

	t.Run("LIMIT 3", func(t *testing.T) {
		prep, err := core.Prepare(db, `SELECT PACKAGE(R) AS P FROM recipes R
			SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein) LIMIT 3`)
		if err != nil {
			t.Fatal(err)
		}
		compiled := prep.Sketch
		if branches, err := compiled.Applicable(); err != nil || branches != 1 {
			t.Fatalf("Applicable = %d, %v", branches, err)
		}
		res, err := prep.Run(core.Options{Strategy: core.SketchRefineStrategy, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Packages) != 3 {
			t.Fatalf("%d packages, want 3 (one solve and two exclusion-cut re-solves); notes: %v", len(res.Packages), res.Stats.Notes)
		}
		if prep.Sketch != compiled {
			t.Error("Run replaced the Prepared's compiled query")
		}
		// Had any of the three solves compiled for itself, this Compiled
		// would have weighed nothing.
		if got := compiled.Weighed(); got != 1 {
			t.Errorf("%d branches weighed through the Prepared's compiled query over three solves, want 1", got)
		}
	})
}
