package sketch_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/explore"
	"repro/internal/minidb"
	"repro/internal/sketch"
	"repro/internal/translate"
)

// shapeQuery is the benchmark's T0 with constant k, over 6,000 recipes
// and no WHERE.
func shapeQuery(k int) string {
	return fmt.Sprintf(`SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d MAXIMIZE SUM(P.protein)`, 900+10*k, 1400+10*k)
}

func shapeDB(t *testing.T) *minidb.DB {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 6000, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return db
}

// solveShape prepares and solves shapeQuery(k) over the cache and returns
// the Prepared and the tree the solve descended.
func solveShape(db *minidb.DB, k int, opts sketch.Options) (*core.Prepared, *sketch.Tree, error) {
	prep, err := core.Prepare(db, shapeQuery(k))
	if err != nil {
		return nil, nil, err
	}
	res, err := prep.Sketch.Solve(opts)
	if err != nil {
		return nil, nil, err
	}
	if !res.Feasible || !res.Certified || res.BoundStage != "raw-lp" {
		return nil, nil, fmt.Errorf("k=%d: feasible=%v certified=%v stage=%q", k, res.Feasible, res.Certified, res.BoundStage)
	}
	tree, ok := opts.Cache.Peek(sketch.KeyFor(prep.Instance, opts))
	if !ok {
		return nil, nil, fmt.Errorf("k=%d: the solve's tree is not in the cache", k)
	}
	return prep, tree, nil
}

// TestWarmShapeWeighsAndSortsNothing: what a query of one shape computes
// that no constant of it reaches — the weight vectors — is computed once
// per candidate snapshot. The first query scans and weighs into its own
// store; the second — the snapshot's promotion — weighs into the store
// every later query shares; the third and fourth weigh nothing. The bound
// pass reads the weight vectors and no per-tree order, so there is
// nothing of the tree's to sort.
func TestWarmShapeWeighsAndSortsNothing(t *testing.T) {
	db := shapeDB(t)
	opts := sketch.Options{Seed: 1, Cache: sketch.NewCache(0)}
	var weighs []int
	for k := 0; k < 4; k++ {
		prep, _, err := solveShape(db, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		weighs = append(weighs, prep.Instance.Passes.Weighed())
	}
	// COUNT(*), SUM(calories) and the objective SUM(protein): three forms.
	if want := []int{3, 3, 3, 3}; !slices.Equal(weighs, want) {
		t.Errorf("weight vectors in each query's store: %v, want %v (one store per scan, then the snapshot's)", weighs, want)
	}
}

// TestConcurrentWarmQueriesSortAndWeighOnce: eight queries of one shape
// arriving together at a snapshot seen once share one promotion: one
// weighing per form, and the one cached tree.
func TestConcurrentWarmQueriesSortAndWeighOnce(t *testing.T) {
	db := shapeDB(t)
	opts := sketch.Options{Seed: 1, Cache: sketch.NewCache(0), Parallelism: 1}
	_, tree, err := solveShape(db, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	preps := make([]*core.Prepared, 8)
	trees := make([]*sketch.Tree, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range preps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			preps[i], trees[i], errs[i] = solveShape(db, 1+i, opts)
		}()
	}
	wg.Wait()
	for i := range preps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	for i := range preps {
		if preps[i].Instance.Passes != preps[0].Instance.Passes || trees[i] != tree {
			t.Fatalf("query %d did not share the snapshot's store and the cached tree", i)
		}
	}
	if got := preps[0].Instance.Passes.Weighed(); got != 3 {
		t.Errorf("8 concurrent queries composed %d weight vectors, want one per form (3)", got)
	}
}

// TestSharedVectorsAndOrdersAreReadOnly: the vectors a snapshot keeps are
// read by every later query, so none may write to them — not the
// exclusion cuts of LIMIT 3, not the pins and history of an explore
// session's Replace.
func TestSharedVectorsAndOrdersAreReadOnly(t *testing.T) {
	db := shapeDB(t)
	cache := sketch.NewCache(0)
	opts := core.Options{Strategy: core.SketchRefineStrategy, Seed: 1, SketchCache: cache, SketchPartitionSize: 64, SketchDepth: 2}
	var prep *core.Prepared
	for k := 0; k < 3; k++ {
		var err error
		if prep, err = core.Prepare(db, shapeQuery(k)); err != nil {
			t.Fatal(err)
		}
		if _, err := prep.Run(opts); err != nil {
			t.Fatal(err)
		}
	}
	if len(prep.Instance.Atoms) == 0 {
		t.Fatal("nothing to guard: no atoms")
	}
	digest := func() uint64 {
		h := fnv.New64a()
		put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
		for _, w := range prep.Instance.ObjW {
			put(math.Float64bits(w))
		}
		for _, at := range prep.Instance.Atoms {
			for _, w := range at.W {
				put(math.Float64bits(w))
			}
		}
		return h.Sum64()
	}
	// What they hold must also be what a cold query computes — a write
	// that repeats itself on every query leaves the digest alone.
	cold := func(when string) {
		_, _, objW, _, err := translate.NewPasses(prep.Instance.Rows).ConjunctiveAtoms(nil, prep.Analysis)
		if err != nil || !slices.Equal(objW, prep.Instance.ObjW) {
			t.Fatalf("%s: the kept objective weights are not a cold query's (err %v)", when, err)
		}
	}
	cold("warm")
	before := digest()

	limit3, err := core.Prepare(db, shapeQuery(3)+" LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := limit3.Run(opts)
	if err != nil || len(res.Packages) != 3 {
		t.Fatalf("LIMIT 3: %v", err)
	}
	ses, err := explore.NewSession(db, shapeQuery(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ses.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range cur.Mult {
		if m > 0 {
			if err := ses.Pin(i); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if _, err := ses.Replace(); err != nil {
		t.Fatal(err)
	}
	if ses.Prepared().Instance.Passes != prep.Instance.Passes || ses.Stats().Sketch == nil || !ses.Stats().Certified {
		t.Fatal("the session did not run a certified sketch solve over the shared store")
	}
	if after := digest(); after != before {
		t.Errorf("a shared weight vector changed under LIMIT 3 and a Replace: %x → %x", before, after)
	}
	cold("after LIMIT 3 and a Replace")
}
