package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

const incrQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func incrOptions(cache *sketch.Cache, memo *FingerprintMemo) Options {
	return Options{
		Strategy:            SketchRefineStrategy,
		Seed:                1,
		SketchPartitionSize: 16,
		SketchDepth:         2,
		SketchCache:         cache,
		SketchMemo:          memo,
		SketchIncremental:   true,
	}
}

// TestWarmEvaluationHashesNothing pins the fingerprint-memo contract:
// a repeat evaluation over an unchanged table performs zero candidate
// hashing — the O(n)-per-query rehash the memo exists to kill.
func TestWarmEvaluationHashesNothing(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 400, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)

	run := func() *Result {
		t.Helper()
		prep, err := Prepare(db, incrQuery)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := run()
	afterCold := memo.Stats()
	if afterCold.RowsHashed != int64(cold.Stats.Candidates) {
		t.Fatalf("cold run hashed %d rows for %d candidates", afterCold.RowsHashed, cold.Stats.Candidates)
	}
	warm := run()
	if !warm.Stats.SketchCacheHit {
		t.Fatal("warm run must hit the tree cache")
	}
	afterWarm := memo.Stats()
	if afterWarm.RowsHashed != afterCold.RowsHashed {
		t.Fatalf("warm run hashed %d extra candidate rows; want zero",
			afterWarm.RowsHashed-afterCold.RowsHashed)
	}
	if afterWarm.Hits != afterCold.Hits+1 {
		t.Fatalf("memo hits = %d, want %d", afterWarm.Hits, afterCold.Hits+1)
	}
}

// TestIncrementalInsertPatchesTree drives an INSERT batch through
// minidb → core → sketch: the write must invalidate the exact cache
// key, hash only the appended candidates, and patch the stale tree in
// place instead of rebuilding.
func TestIncrementalInsertPatchesTree(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 500, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)

	prep, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(opts); err != nil {
		t.Fatal(err)
	}
	before := memo.Stats()

	inserted := 5
	for i := 0; i < inserted; i++ {
		stmt := fmt.Sprintf("INSERT INTO recipes VALUES (%d, 'delta%d', 'fusion', 'dinner', 'free', %d, %d, 10, 50, 9.5, 4.5)",
			80000+i, i, 650+i*10, 30+i)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	prep2, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep2.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SketchCacheHit {
		t.Fatal("stale tree served after a write")
	}
	if !res.Stats.SketchTreePatched {
		t.Fatalf("tree was rebuilt, not patched; notes: %v", res.Stats.Notes)
	}
	if res.Stats.SketchDeltaApplied != inserted {
		t.Fatalf("DeltaApplied = %d, want %d", res.Stats.SketchDeltaApplied, inserted)
	}
	after := memo.Stats()
	if hashed := after.RowsHashed - before.RowsHashed; hashed != int64(inserted) {
		t.Fatalf("write of %d rows hashed %d candidates; want delta-only hashing", inserted, hashed)
	}
	if len(res.Packages) == 0 {
		t.Fatal("no package after the write")
	}
}

// TestIncrementalDeletePatchesTree is the DELETE mirror: tombstoned
// candidates must invalidate the cache, renumber the survivors, and
// patch — covering the delete path end to end through minidb's delta
// log, the memo's remap, and the sketch engine.
func TestIncrementalDeletePatchesTree(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 500, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)

	prep, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := prep.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := memo.Stats()

	res0, err := db.Exec("DELETE FROM recipes WHERE id >= 100 AND id < 120")
	if err != nil {
		t.Fatal(err)
	}
	if res0.Affected == 0 {
		t.Fatal("delete removed nothing; fixture broken")
	}
	prep2, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	removed := cold.Stats.Candidates - len(prep2.Instance.Rows)
	if removed <= 0 {
		t.Fatalf("delete removed no candidates (%d -> %d)", cold.Stats.Candidates, len(prep2.Instance.Rows))
	}
	res, err := prep2.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SketchCacheHit {
		t.Fatal("stale tree served after a delete")
	}
	if !res.Stats.SketchTreePatched {
		t.Fatalf("tree was rebuilt, not patched; notes: %v", res.Stats.Notes)
	}
	if res.Stats.SketchDeltaApplied != removed {
		t.Fatalf("DeltaApplied = %d, want %d", res.Stats.SketchDeltaApplied, removed)
	}
	after := memo.Stats()
	if after.RowsHashed != before.RowsHashed {
		t.Fatalf("delete hashed %d candidate rows; deletions need none", after.RowsHashed-before.RowsHashed)
	}
	if len(res.Packages) == 0 {
		t.Fatal("no package after the delete")
	}
	// And the next evaluation over the patched state is warm again.
	prep3, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := prep3.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.SketchCacheHit {
		t.Fatal("patched tree not cached under the new fingerprint")
	}
	if memo.Stats().RowsHashed != after.RowsHashed {
		t.Fatal("warm run after the delete rehashed candidates")
	}
}

// TestIncrementalDisabledRebuilds pins the ablation: with
// SketchIncremental off the memo still kills rehashing, but a write
// forces a full rebuild (no patching).
func TestIncrementalDisabledRebuilds(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)
	// "Off" is forced: it must survive the planner's patch-vs-rebuild
	// decision.
	opts.SketchIncremental = false

	prep, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO recipes VALUES (80000, 'x', 'fusion', 'dinner', 'free', 700, 30, 10, 50, 9.5, 4.5)"); err != nil {
		t.Fatal(err)
	}
	prep2, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep2.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SketchTreePatched {
		t.Fatal("patching ran with SketchIncremental disabled")
	}
	if res.Stats.SketchCacheHit {
		t.Fatal("stale tree served")
	}
}
