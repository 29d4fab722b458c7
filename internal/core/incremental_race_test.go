package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

// TestConcurrentInvalidationRacingDeltaPatch races the two sides of a
// write landing in the incremental stack: solves prepared *before* the
// write (which publish trees under the old fingerprint and advance the
// shared memo from stale lineage) against solves prepared *after* it
// (which patch the stale tree via ApplyDelta and publish under the new
// fingerprint), all over one shared cache + memo. Writes themselves are
// barriered between generations — minidb serializes writers against
// readers at the DB layer, not against a solve in flight — but within a
// generation the stale and fresh evaluations run fully concurrently,
// which is exactly the window where a patch could be published under
// the wrong key.
//
// The invariant under test: a tree is never published under a stale
// fingerprint. Detection is sharp on both ends — core hard-errors any
// package that fails validation against its own prepared instance, and
// the post-barrier warm run must serve a cached tree whose answer is
// identical to one the concurrent fresh solves computed (a tree from
// the pre-write snapshot has a different candidate count, so a
// cross-published tree cannot reproduce either answer). Run under
// -race this also sweeps the cache/memo synchronization itself.
func TestConcurrentInvalidationRacingDeltaPatch(t *testing.T) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	cache := sketch.NewCache(0)
	memo := NewFingerprintMemo()
	opts := incrOptions(cache, memo)

	prevPrep, err := Prepare(db, incrQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prevPrep.Run(opts); err != nil {
		t.Fatal(err)
	}

	generations := 8
	if testing.Short() {
		generations = 3
	}
	for gen := 0; gen < generations; gen++ {
		// One write batch per generation, alternating growth and decay
		// so the delta log sees both appends and tombstones.
		if gen%2 == 0 {
			for i := 0; i < 4; i++ {
				stmt := fmt.Sprintf("INSERT INTO recipes VALUES (%d, 'race%d_%d', 'fusion', 'dinner', 'free', %d, %d, 10, 50, 9.5, 4.5)",
					90000+gen*10+i, gen, i, 600+i*17, 25+i)
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			if _, err := db.Exec(fmt.Sprintf("DELETE FROM recipes WHERE id >= %d AND id < %d", 20+gen*3, 23+gen*3)); err != nil {
				t.Fatal(err)
			}
		}
		curPrep, err := Prepare(db, incrQuery)
		if err != nil {
			t.Fatal(err)
		}

		// Two stale solves and two fresh solves, concurrently, over the
		// shared stack. The stale pair republishes old-fingerprint
		// trees and races the fresh pair's patch + invalidation.
		var wg sync.WaitGroup
		errs := make([]error, 4)
		fresh := make([]*Result, 2)
		for i := 0; i < 2; i++ {
			wg.Add(2)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = prevPrep.Run(opts)
			}(i)
			go func(i int) {
				defer wg.Done()
				fresh[i], errs[2+i] = curPrep.Run(opts)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("gen %d solve %d: %v", gen, i, err)
			}
		}

		// The warm run after the storm must serve the tree published
		// under the *current* fingerprint and reproduce a fresh solve's
		// answer exactly.
		warm, err := curPrep.Run(opts)
		if err != nil {
			t.Fatalf("gen %d warm verify: %v", gen, err)
		}
		if !warm.Stats.Sketch.CacheHit {
			t.Fatalf("gen %d: no tree cached under the post-write fingerprint", gen)
		}
		match := false
		for _, f := range fresh {
			if f == nil || len(f.Packages) != len(warm.Packages) {
				continue
			}
			if len(warm.Packages) == 0 ||
				slices.Equal(warm.Packages[0].Mult, f.Packages[0].Mult) {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("gen %d: warm answer matches neither concurrent fresh solve — cached tree is not theirs", gen)
		}
		prevPrep = curPrep
	}
}
