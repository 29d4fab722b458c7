package sketch_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sketch"
	"repro/internal/value"
)

// deltaFixture builds a prepared meal query over n recipes, returning
// the db and prep for follow-up writes.
func deltaFixture(t *testing.T, n int) (*minidb.DB, *core.Prepared) {
	t.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	return db, prep
}

// remapByID matches old candidates to new ones through the unique id
// column — the ground-truth lineage the fingerprint memo derives from
// the delta log.
func remapByID(oldRows, newRows []schema.Row) []int {
	pos := map[string]int{}
	for j, row := range newRows {
		pos[row[0].String()] = j
	}
	remap := make([]int, len(oldRows))
	for i, row := range oldRows {
		if j, ok := pos[row[0].String()]; ok {
			remap[i] = j
		} else {
			remap[i] = -1
		}
	}
	return remap
}

// checkTree verifies the structural invariants a patched tree must
// keep: exact coverage at every level, children partitioning parents,
// leaf sizes within τ, and exact leaf envelopes.
func checkTree(t *testing.T, tree *sketch.Tree, rows []schema.Row) {
	t.Helper()
	n := len(rows)
	for l, nodes := range tree.Levels {
		seen := map[int]bool{}
		for ni := range nodes {
			nd := &nodes[ni]
			if len(nd.Tuples) == 0 {
				t.Fatalf("level %d node %d empty", l, ni)
			}
			prev := -1
			for _, i := range nd.Tuples {
				if i <= prev {
					t.Fatalf("level %d node %d tuples not strictly ascending", l, ni)
				}
				prev = i
				if i < 0 || i >= n {
					t.Fatalf("level %d node %d tuple %d outside [0,%d)", l, ni, i, n)
				}
				if seen[i] {
					t.Fatalf("level %d covers tuple %d twice", l, i)
				}
				seen[i] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("level %d covers %d of %d candidates", l, len(seen), n)
		}
	}
	for l := 0; l < tree.Depth-1; l++ {
		for ni := range tree.Levels[l] {
			covered := 0
			for _, ci := range tree.Levels[l][ni].Children {
				covered += len(tree.Levels[l+1][ci].Tuples)
			}
			if covered != len(tree.Levels[l][ni].Tuples) {
				t.Fatalf("level %d node %d: %d tuples vs %d under children",
					l, ni, len(tree.Levels[l][ni].Tuples), covered)
			}
		}
	}
	for li := range tree.Leaves() {
		leaf := &tree.Leaves()[li]
		if len(leaf.Tuples) > tree.Tau {
			t.Fatalf("leaf %d holds %d tuples, τ = %d", li, len(leaf.Tuples), tree.Tau)
		}
	}
}

func TestApplyDeltaInsertAndDelete(t *testing.T) {
	db, prep := deltaFixture(t, 600)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1}
	base := sketch.BuildTree(prep.Instance, opts)

	// Mixed batch: delete a slice of candidates, insert gluten-free
	// rows (which enter the candidate set) and one gluten-full row
	// (which does not).
	if _, err := db.Exec("DELETE FROM recipes WHERE id >= 40 AND id < 55"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		stmt := fmt.Sprintf("INSERT INTO recipes VALUES (%d, 'new%d', 'fusion', 'dinner', 'free', %d, %d, 10, 50, 9.5, 4.5)",
			90000+i, i, 600+40*i, 20+i)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("INSERT INTO recipes VALUES (99999, 'full', 'fusion', 'dinner', 'full', 700, 30, 10, 50, 9.5, 4.5)"); err != nil {
		t.Fatal(err)
	}
	prep2, err := core.Prepare(db, mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	remap := remapByID(prep.Instance.Rows, prep2.Instance.Rows)

	patched, ok := base.ApplyDelta(prep2.Instance.Rows, remap, opts)
	if !ok {
		t.Fatal("ApplyDelta rejected a small mixed batch")
	}
	if patched.Depth != base.Depth || patched.Tau != base.Tau {
		t.Fatalf("patched shape %d/%d, want %d/%d", patched.Depth, patched.Tau, base.Depth, base.Tau)
	}
	step := (&sketch.PatchSpec{Remap: remap}).DeltaSize(len(prep2.Instance.Rows))
	if patched.Drift != step || base.Drift != 0 {
		t.Fatalf("drift: patched %d (want the %d-tuple step), base %d (want 0)", patched.Drift, step, base.Drift)
	}
	checkTree(t, patched, prep2.Instance.Rows)

	// The patched tree must answer the query like a rebuilt one.
	cache := sketch.NewCache(0)
	fp := sketch.Fingerprint(prep2.Instance.Rows)
	baseFP := sketch.Fingerprint(prep.Instance.Rows)
	warm := opts
	warm.Cache = cache
	// Seed the cache with the base tree under the base fingerprint,
	// then solve with lineage: the engine must patch, not rebuild.
	bres, err := sketch.Solve(prep.Instance, warm)
	if err != nil {
		t.Fatal(err)
	}
	if bres.TreePatched {
		t.Fatal("cold solve cannot patch")
	}
	warm.Fingerprint = &fp
	warm.Patch = &sketch.PatchSpec{BaseFingerprint: baseFP, Remap: remap}
	pres, err := sketch.Solve(prep2.Instance, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !pres.TreePatched {
		t.Fatalf("solve did not patch the stale tree: %+v", pres.Notes)
	}
	if pres.DeltaApplied == 0 {
		t.Fatal("DeltaApplied not reported")
	}
	rres, err := sketch.Solve(prep2.Instance, opts) // rebuild from scratch
	if err != nil {
		t.Fatal(err)
	}
	if pres.Feasible != rres.Feasible {
		t.Fatalf("feasibility diverged: patched %v vs rebuilt %v", pres.Feasible, rres.Feasible)
	}
	if pres.Feasible {
		if ok, err := prep2.Instance.Validate(pres.Mult); err != nil || !ok {
			t.Fatalf("patched package invalid (ok=%v err=%v)", ok, err)
		}
	}
}

func TestApplyDeltaRoutesInsertsToLeaves(t *testing.T) {
	_, prep := deltaFixture(t, 400)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 3}
	base := sketch.BuildTree(prep.Instance, opts)
	nOld := len(prep.Instance.Rows)

	// Pure appends: clone the candidate rows and add copies of an
	// existing tuple — they must land in some leaf, splitting it if τ
	// overflows, with every other leaf untouched.
	rows := append([]schema.Row{}, prep.Instance.Rows...)
	for i := 0; i < 40; i++ {
		rows = append(rows, prep.Instance.Rows[i%7])
	}
	remap := make([]int, nOld)
	for i := range remap {
		remap[i] = i
	}
	patched, ok := base.ApplyDelta(rows, remap, opts)
	if !ok {
		t.Fatal("ApplyDelta rejected a pure append batch")
	}
	checkTree(t, patched, rows)
	if len(patched.Leaves()) < len(base.Leaves()) {
		t.Fatalf("leaf count shrank: %d -> %d", len(base.Leaves()), len(patched.Leaves()))
	}
	// The base tree must be untouched (it is shared in caches).
	checkTree(t, base, prep.Instance.Rows)
	total := 0
	for li := range base.Leaves() {
		total += len(base.Leaves()[li].Tuples)
	}
	if total != nOld {
		t.Fatalf("base tree mutated: covers %d of %d", total, nOld)
	}
}

func TestApplyDeltaRejectsOversizedDelta(t *testing.T) {
	_, prep := deltaFixture(t, 200)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1}
	base := sketch.BuildTree(prep.Instance, opts)
	n := len(prep.Instance.Rows)
	// Delete half the candidates: far past plan.PatchMaxFrac.
	rows := prep.Instance.Rows[:n/2]
	remap := make([]int, n)
	for i := range remap {
		if i < n/2 {
			remap[i] = i
		} else {
			remap[i] = -1
		}
	}
	if _, ok := base.ApplyDelta(rows, remap, opts); ok {
		t.Fatal("ApplyDelta absorbed a 50% delta; it must rebuild")
	}
}

// TestPatchChainRebuildsPastTheBudget: a tree patched batch after batch
// carries the sum of the batches as its drift, and the batch that would
// take that drift past plan.PatchMaxFrac of the candidates — each batch
// alone far inside it — is a rebuild, whose tree starts over at drift 0.
func TestPatchChainRebuildsPastTheBudget(t *testing.T) {
	db, prev := deltaFixture(t, 800)
	cache := sketch.NewCache(0)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1, Cache: cache}
	if _, err := sketch.Solve(prev.Instance, opts); err != nil {
		t.Fatal(err)
	}
	drift, patches := 0, 0
	for step := 1; ; step++ {
		if step > 20 {
			t.Fatalf("20 batches of ~5%% and the tree never rebuilt (drift %d)", drift)
		}
		// ~5 % of the candidates per batch: 16 inserted, 6 deleted.
		for i := 0; i < 16; i++ {
			id := 90000 + 100*step + i
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO recipes VALUES (%d, 'c%d', 'fusion', 'dinner', 'free', %d, %d, 10, 50, 9.5, 4.5)",
				id, id, 500+40*i, 20+i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Exec(fmt.Sprintf("DELETE FROM recipes WHERE id >= %d AND id < %d", 10*step, 10*step+6)); err != nil {
			t.Fatal(err)
		}
		next, err := core.Prepare(db, mealQuery)
		if err != nil {
			t.Fatal(err)
		}
		n := len(next.Instance.Rows)
		o := opts
		fp := sketch.Fingerprint(next.Instance.Rows)
		o.Fingerprint = &fp
		o.Patch = &sketch.PatchSpec{BaseFingerprint: sketch.Fingerprint(prev.Instance.Rows), Remap: remapByID(prev.Instance.Rows, next.Instance.Rows)}
		res, err := sketch.Solve(next.Instance, o)
		if err != nil {
			t.Fatal(err)
		}
		delta := o.Patch.DeltaSize(n)
		fits := plan.PatchFits(drift, delta, n)
		if res.TreePatched != fits {
			t.Fatalf("batch %d (delta %d, drift %d, %d candidates): patched=%v, budget says %v", step, delta, drift, n, res.TreePatched, fits)
		}
		tree, ok := cache.Peek(sketch.KeyFor(next.Instance, o))
		if !ok {
			t.Fatalf("batch %d: no tree cached under the new fingerprint", step)
		}
		if !fits {
			if tree.Drift != 0 || patches < 2 {
				t.Fatalf("rebuilt at batch %d after %d patches: drift %d, want 0 after at least 2 patches", step, patches, tree.Drift)
			}
			// The refusal is the run's record, with both numbers it weighed.
			note := fmt.Sprintf("stale partition tree past its drift budget (delta %.1f%% + drift %.1f%% since the last full build > 25%%); rebuilding",
				100*float64(delta)/float64(n), 100*float64(drift)/float64(n))
			if !slices.Contains(res.Notes, note) {
				t.Fatalf("batch %d: no budget note %q in %q", step, note, res.Notes)
			}
			t.Logf("rebuilt at batch %d: drift %d + delta %d over %d candidates", step, drift, delta, n)
			return
		}
		drift += delta
		patches++
		if tree.Drift != drift {
			t.Fatalf("batch %d: patched tree drift %d, want %d", step, tree.Drift, drift)
		}
		prev = next
	}
}

// lyingPrep is the six-row query whose only package is {60, 40}, and
// lyingTree a τ = 2 tree over its candidates that lies: its
// representatives promise a sum its real tuples cannot deliver, and it
// omits the only feasible pair, so a descent over it refines into an
// invalid package and only a rebuild finds the answer.
func lyingPrep(t *testing.T) *core.Prepared {
	t.Helper()
	db := minidb.New()
	for _, stmt := range []string{
		"CREATE TABLE t (a INT)",
		"INSERT INTO t VALUES (60), (40), (10), (11), (12), (13)",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	prep, err := core.Prepare(db, `
		SELECT PACKAGE(T) AS P FROM t T
		SUCH THAT COUNT(*) = 2 AND SUM(P.a) = 100`)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

func lyingTree(drift int) *sketch.Tree {
	rep := schema.Row{value.Float(50)}
	return &sketch.Tree{Attrs: []int{0}, Tau: 2, Depth: 1, Drift: drift,
		Levels: [][]sketch.Node{{
			{Tuples: []int{2, 3}, Rep: rep, Lo: []float64{10}, Hi: []float64{11}, NonNull: []int{2}},
			{Tuples: []int{4, 5}, Rep: rep, Lo: []float64{12}, Hi: []float64{13}, NonNull: []int{2}},
		}}}
}

// TestPatchedProvenanceTriggersRebuildRetry pins the safety net across
// solves: a patched-born tree served from the CACHE (not patched in
// this call) that yields no feasible package must still trigger the
// rebuild-from-scratch retry — the drift since the last full build
// travels with the tree. The fixture tree lies: its representatives promise a
// sum its real tuples cannot deliver, and it omits the only feasible
// pair, so the descent refines into an invalid package; only a rebuild
// finds {60, 40}.
func TestPatchedProvenanceTriggersRebuildRetry(t *testing.T) {
	prep := lyingPrep(t)
	opts := sketch.Options{MaxPartitionSize: 2, Seed: 1}

	// Patched provenance: the cache-served tree fails, the engine must
	// rebuild and find the package.
	cache := sketch.NewCache(0)
	cache.Put(sketch.KeyFor(prep.Instance, opts), lyingTree(1))
	withCache := opts
	withCache.Cache = cache
	res, err := sketch.Solve(prep.Instance, withCache)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("patched-born cached tree lost the only package; notes: %v", res.Notes)
	}
	if res.Mult[0] != 1 || res.Mult[1] != 1 {
		t.Fatalf("mult = %v, want the {60, 40} pair", res.Mult)
	}

	// Same lying tree with no drift: no retry, documenting that a drift
	// above 0 is what arms the safety net.
	cache2 := sketch.NewCache(0)
	cache2.Put(sketch.KeyFor(prep.Instance, opts), lyingTree(0))
	withCache.Cache = cache2
	res2, err := sketch.Solve(prep.Instance, withCache)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Feasible {
		t.Fatal("unpatched lying tree unexpectedly recovered; the fixture no longer isolates the retry")
	}
}

func TestApplyDeltaEmptyingTreeRebuilds(t *testing.T) {
	_, prep := deltaFixture(t, 50)
	opts := sketch.Options{MaxPartitionSize: 8, Seed: 1}
	base := sketch.BuildTree(prep.Instance, opts)
	remap := make([]int, len(prep.Instance.Rows))
	for i := range remap {
		remap[i] = -1
	}
	if _, ok := base.ApplyDelta(nil, remap, opts); ok {
		t.Fatal("deleting every candidate must force a rebuild")
	}
}
