package sketch_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

// TestTreeInvariants checks the partition-tree shape: every level
// covers every candidate exactly once (a node's tuples gathered from its
// leaves), only the leaves hold tuples, every node below the roots has
// exactly one parent, every node a representative, and level sizes
// shrink root-ward.
func TestTreeInvariants(t *testing.T) {
	prep := recipesPrep(t, 2000)
	tree := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 3, Seed: 7})
	if tree.Depth < 2 || tree.Depth > 3 {
		t.Fatalf("depth = %d, want 2..3", tree.Depth)
	}
	if len(tree.Levels) != tree.Depth {
		t.Fatalf("%d levels for depth %d", len(tree.Levels), tree.Depth)
	}
	checkTree(t, tree, prep.Instance.Rows)
	for l, nodes := range tree.Levels {
		for _, nd := range nodes {
			if nd.Rep == nil {
				t.Fatalf("level %d node without representative", l)
			}
		}
		if l > 0 && len(nodes) < len(tree.Levels[l-1]) {
			t.Fatalf("level %d (%d nodes) smaller than level %d (%d nodes)",
				l, len(nodes), l-1, len(tree.Levels[l-1]))
		}
	}
}

// TestDepthClampedAndFlat checks that an absurd depth still builds
// (early-stopping once another level cannot shrink the top) and that
// depth 0/1 stays flat.
func TestDepthClampedAndFlat(t *testing.T) {
	prep := recipesPrep(t, 200)
	tree := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 8, Depth: 100, Seed: 1})
	if tree.Depth > 8 {
		t.Fatalf("depth %d not clamped", tree.Depth)
	}
	flat := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 8, Seed: 1})
	if flat.Depth != 1 {
		t.Fatalf("default depth = %d, want 1", flat.Depth)
	}
}

// TestHierarchicalDepth2 runs the meal query with a two-level sketch:
// the result must stay feasible, never beat the proven optimum, and the
// top-level MILP must stay around the square root of the leaf count.
func TestHierarchicalDepth2(t *testing.T) {
	prep := recipesPrep(t, 2000)
	exact, err := prep.Run(core.Options{Strategy: core.Solver, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("hierarchical sketch found no feasible package: %v", res.Notes)
	}
	if res.Levels != 2 {
		t.Fatalf("levels = %d, want 2", res.Levels)
	}
	maxTop := int(math.Ceil(math.Sqrt(float64(res.Partitions)))) + 1
	if res.TopVars > maxTop {
		t.Fatalf("top-level MILP has %d vars for %d leaves (want <= ~√P = %d)",
			res.TopVars, res.Partitions, maxTop)
	}
	opt := exact.Packages[0].Objective
	if res.Objective > opt+1e-6 {
		t.Fatalf("sketch objective %.3f beats proven optimum %.3f", res.Objective, opt)
	}
}

// TestHierarchical1MWithin5Percent is the scale acceptance check: on a
// 1M-tuple synthetic workload a depth-2 sketch must return a feasible
// package with an objective within 5% of flat SketchRefine while its
// top-level MILP stays at ≤ √(#partitions) variables, and a warm
// partition-cache hit must skip partitioning entirely (verified by the
// stats counters).
func TestHierarchical1MWithin5Percent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1M-tuple relation")
	}
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 1000000, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Feasible {
		t.Fatalf("flat sketch infeasible at 1M: %v", flat.Notes)
	}
	cache := sketch.NewCache(0)
	hier, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 256, Depth: 2, Seed: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !hier.Feasible {
		t.Fatalf("hierarchical sketch infeasible at 1M: %v", hier.Notes)
	}
	if hier.Levels < 2 {
		t.Fatalf("levels = %d, want >= 2", hier.Levels)
	}
	if maxTop := int(math.Ceil(math.Sqrt(float64(hier.Partitions)))); hier.TopVars > maxTop {
		t.Fatalf("top-level MILP has %d vars for %d leaves (want <= √P = %d)",
			hier.TopVars, hier.Partitions, maxTop)
	}
	if gap := (flat.Objective - hier.Objective) / math.Abs(flat.Objective); gap > 0.05 {
		t.Fatalf("hierarchical objective %.1f is %.1f%% below flat %.1f (want <= 5%%)",
			hier.Objective, gap*100, flat.Objective)
	}
	if hier.CacheHit {
		t.Fatal("cold run must not report a cache hit")
	}
	warm, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 256, Depth: 2, Seed: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("warm run must hit the partition cache")
	}
	if !warm.Feasible {
		t.Fatalf("warm run infeasible: %v", warm.Notes)
	}
	cs := cache.Stats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %v, want 1 hit / 1 miss", cs)
	}
}

// TestPartitionCacheHitAndInvalidation verifies the cache contract on a
// small workload: a repeat evaluation hits, and changing the backing
// rows changes the fingerprint so the stale tree is never served.
func TestPartitionCacheHitAndInvalidation(t *testing.T) {
	cache := sketch.NewCache(0)
	prep := recipesPrep(t, 300)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1, Cache: cache}
	cold, err := sketch.Solve(prep.Instance, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first evaluation must miss")
	}
	afterCold := cache.Stats()
	if afterCold.Hits != 0 || afterCold.Misses == 0 {
		t.Fatalf("cold stats = %v, want 0 hits and >0 misses", afterCold)
	}
	warm, err := sketch.Solve(prep.Instance, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second evaluation must hit")
	}
	if warm.Partitions != cold.Partitions || warm.Objective != cold.Objective {
		t.Fatalf("cached run diverged: %+v vs %+v", warm, cold)
	}
	afterWarm := cache.Stats()
	// A warm repeat hits for every tree the cold run built: no new
	// misses means partitioning was skipped entirely.
	if afterWarm.Misses != afterCold.Misses || afterWarm.Hits == 0 {
		t.Fatalf("warm stats = %v (cold %v), want hits only", afterWarm, afterCold)
	}
	// Write to the backing table: the candidate fingerprint changes, so
	// the next evaluation must rebuild instead of serving a stale tree.
	db := prep.DB
	if _, err := db.Exec("INSERT INTO recipes VALUES (99999, 'new', 'fusion', 'dinner', 'free', 2100, 99, 10, 50, 9.5, 4.5)"); err != nil {
		t.Fatal(err)
	}
	prep2, err := core.Prepare(db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	after, err := sketch.Solve(prep2.Instance, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("evaluation after a write must not hit the stale tree")
	}
	afterWrite := cache.Stats()
	if afterWrite.Misses <= afterWarm.Misses || afterWrite.Hits != afterWarm.Hits {
		t.Fatalf("post-write stats = %v (pre-write %v), want new misses and no new hits", afterWrite, afterWarm)
	}
}

// TestCacheLRUEviction exercises the bound directly.
func TestCacheLRUEviction(t *testing.T) {
	c := sketch.NewCache(2)
	mk := func(seed int64) (sketch.Key, *sketch.Tree) {
		return sketch.Key{Fingerprint: uint64(seed), Tau: 8, Depth: 1, Seed: seed}, &sketch.Tree{Tau: 8, Depth: 1}
	}
	k1, t1 := mk(1)
	k2, t2 := mk(2)
	k3, t3 := mk(3)
	c.Put(k1, t1)
	c.Put(k2, t2)
	if _, ok := c.Get(k1); !ok { // k1 is now most recently used
		t.Fatal("k1 should be cached")
	}
	c.Put(k3, t3) // evicts k2, the least recently used
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("k1 should have survived eviction")
	}
	cs := c.Stats()
	if cs.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", cs.Evictions)
	}
}

// TestSketchHonorsPinnedTuples pins the candidate the objective likes
// least; the sketch must force its leaf partition into every level and
// return a feasible package containing it, at depth 1 and 2 alike.
func TestSketchHonorsPinnedTuples(t *testing.T) {
	prep := recipesPrep(t, 400)
	inst := prep.Instance
	// The lowest-protein candidate: MAXIMIZE SUM(protein) would never
	// pick it on its own.
	pin, worst := -1, math.Inf(1)
	for i, w := range inst.ObjW {
		if w < worst {
			pin, worst = i, w
		}
	}
	for _, depth := range []int{1, 2} {
		res, err := sketch.Solve(inst, sketch.Options{MaxPartitionSize: 16, Depth: depth, Seed: 1, Require: []int{pin}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("depth %d: no feasible package with pinned tuple %d: %v", depth, pin, res.Notes)
		}
		if res.Mult[pin] < 1 {
			t.Fatalf("depth %d: pinned candidate %d has multiplicity %d", depth, pin, res.Mult[pin])
		}
		if ok, err := inst.Validate(res.Mult); err != nil || !ok {
			t.Fatalf("depth %d: pinned package invalid (%v, %v)", depth, ok, err)
		}
	}
	// Out-of-range pins are an error, not a silent drop.
	if _, err := sketch.Solve(inst, sketch.Options{Require: []int{len(inst.Rows)}}); err == nil {
		t.Fatal("out-of-range pin should be rejected")
	}
}

// TestSketchExclusionCuts asks for successive packages, each excluding
// the ones before: every result must be feasible, distinct from all
// excluded vectors, and the cuts must be enforced exactly (not just at
// the representative level).
func TestSketchExclusionCuts(t *testing.T) {
	prep := recipesPrep(t, 400)
	inst := prep.Instance
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1}
	var exclude [][]int
	for round := 0; round < 3; round++ {
		o := opts
		o.Exclude = exclude
		res, err := sketch.Solve(inst, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("round %d: no feasible package: %v", round, res.Notes)
		}
		for ei, ex := range exclude {
			same := true
			for i := range ex {
				if (ex[i] > 0) != (res.Mult[i] > 0) {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("round %d returned the package excluded in round %d", round, ei)
			}
		}
		exclude = append(exclude, res.Mult)
	}
	// Exclusion cuts require 0/1 multiplicities.
	db := minidb.New()
	for _, s := range []string{"CREATE TABLE t (x INT)", "INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	rp, err := core.Prepare(db, `SELECT PACKAGE(T) AS P FROM t T REPEAT 2 SUCH THAT SUM(P.x) <= 10`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sketch.Solve(rp.Instance, sketch.Options{Exclude: [][]int{{1, 0}}}); err == nil {
		t.Fatal("exclusion cuts with REPEAT should be rejected")
	}
}
