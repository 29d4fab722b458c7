package sketch_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sketch"
)

// TestPersistRoundTrip saves a tree and loads it back byte-exact, its
// drift since the last full build included: the patch budget holds
// across a restart.
func TestPersistRoundTrip(t *testing.T) {
	prep := recipesPrep(t, 2000)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 3, Seed: 7}
	tree := sketch.BuildTree(prep.Instance, opts)
	tree.Drift = 437
	key := sketch.Key{
		Fingerprint: sketch.Fingerprint(prep.Instance.Rows),
		Attrs:       "1,2", Tau: 16, Depth: 3, Seed: 7,
	}
	store := sketch.NewStore(t.TempDir())
	if err := store.Save(key, tree); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree, loaded) {
		t.Fatal("loaded tree differs from saved tree")
	}
	// A key the store never saw is a clean miss, not an error.
	other := key
	other.Fingerprint++
	if tr, err := store.Load(other); tr != nil || err != nil {
		t.Fatalf("unknown key: got (%v, %v), want clean miss", tr, err)
	}
}

// TestPersistSaveOnBuildLoadOnMiss drives persistence through Solve:
// the first evaluation builds and writes the tree, a later evaluation
// with a cold in-memory cache loads it from disk instead of rebuilding,
// and a warm in-memory cache still wins over the disk tier.
func TestPersistSaveOnBuildLoadOnMiss(t *testing.T) {
	prep := recipesPrep(t, 2000)
	dir := t.TempDir()
	base := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1, PersistDir: dir}

	cold, err := sketch.Solve(prep.Instance, base)
	if err != nil {
		t.Fatal(err)
	}
	if cold.TreeLoaded || cold.CacheHit {
		t.Fatalf("first run must build: TreeLoaded=%v CacheHit=%v", cold.TreeLoaded, cold.CacheHit)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("save-on-build wrote %d files, want 1", len(files))
	}

	// "Restart": no in-memory state survives, only the directory.
	cache := sketch.NewCache(0)
	o := base
	o.Cache = cache
	warm, err := sketch.Solve(prep.Instance, o)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.TreeLoaded {
		t.Fatalf("disk-warm run must load the persisted tree: %v", warm.Notes)
	}
	if warm.CacheHit {
		t.Fatal("disk-warm run must not report an in-memory hit")
	}
	if !reflect.DeepEqual(cold.Mult, warm.Mult) {
		t.Fatal("disk-loaded tree produced a different package")
	}

	// The loaded tree was promoted into the memory tier: next time the
	// cache answers before the disk is touched.
	hot, err := sketch.Solve(prep.Instance, o)
	if err != nil {
		t.Fatal(err)
	}
	if !hot.CacheHit || hot.TreeLoaded {
		t.Fatalf("memory tier should win: CacheHit=%v TreeLoaded=%v", hot.CacheHit, hot.TreeLoaded)
	}
}

// corrupt rewrites a persisted tree file through fn, recomputing the
// trailing checksum so the corruption under test — not the checksum —
// is what the loader trips on.
func corrupt(t *testing.T, path string, fixCRC bool, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = fn(data)
	if fixCRC && len(data) >= 4 {
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPersistCorruptionFallsBackToRebuild damages the persisted file in
// every way the loader guards against — truncation, a foreign format
// version, a stale fingerprint — and checks each one falls back to a
// clean rebuild with the same package, never a panic or a wrong tree.
func TestPersistCorruptionFallsBackToRebuild(t *testing.T) {
	prep := recipesPrep(t, 1000)
	cases := []struct {
		name   string
		fixCRC bool
		fn     func([]byte) []byte
	}{
		{"truncated", false, func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", false, func(b []byte) []byte { return nil }},
		{"version-mismatch", true, func(b []byte) []byte {
			b[6] = 99 // the version uvarint follows the 6-byte magic
			return b
		}},
		{"fingerprint-mismatch", true, func(b []byte) []byte {
			b[7] ^= 0xff // first byte of the stored fingerprint
			return b
		}},
		{"bit-flip", false, func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1, PersistDir: dir}
			want, err := sketch.Solve(prep.Instance, opts)
			if err != nil {
				t.Fatal(err)
			}
			files, err := os.ReadDir(dir)
			if err != nil || len(files) != 1 {
				t.Fatalf("expected one persisted file, got %d (%v)", len(files), err)
			}
			path := dir + "/" + files[0].Name()
			corrupt(t, path, tc.fixCRC, tc.fn)
			got, err := sketch.Solve(prep.Instance, opts)
			if err != nil {
				t.Fatalf("corrupted store must rebuild, not fail: %v", err)
			}
			if got.TreeLoaded {
				t.Fatal("corrupted tree must not be loaded")
			}
			if !reflect.DeepEqual(want.Mult, got.Mult) {
				t.Fatal("rebuild after corruption produced a different package")
			}
			// The rebuild overwrote the damaged file: the next run loads
			// cleanly again.
			again, err := sketch.Solve(prep.Instance, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !again.TreeLoaded {
				t.Fatalf("store not repaired after rebuild: %v", again.Notes)
			}
		})
	}
}

// TestPersistForeignTreeRejected simulates a fingerprint collision: a
// structurally valid tree built for a bigger relation lands under a
// smaller instance's key. The solver must reject it against the
// instance (out-of-range tuple indexes would panic a sub-MILP) and
// rebuild, not load it.
func TestPersistForeignTreeRejected(t *testing.T) {
	big := recipesPrep(t, 1000)
	small := recipesPrep(t, 300)
	dir := t.TempDir()
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1, PersistDir: dir}
	foreign := sketch.BuildTree(big.Instance, opts)
	smallKey := sketch.Key{
		Fingerprint: sketch.Fingerprint(small.Instance.Rows),
		Attrs:       "5,6", // the meal query's calories/protein ordinals
		Tau:         16, Depth: 2, Seed: 1,
	}
	if err := sketch.NewStore(dir).Save(smallKey, foreign); err != nil {
		t.Fatal(err)
	}
	res, err := sketch.Solve(small.Instance, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeLoaded {
		t.Fatal("foreign tree must be rejected, not loaded")
	}
	if !res.Feasible {
		t.Fatalf("rebuild after rejecting a foreign tree failed: %v", res.Notes)
	}
	// The rejection must actually have happened — if the hand-built key
	// no longer matches acquireTree's, this test would pass vacuously.
	rejected := false
	for _, n := range res.Notes {
		if strings.Contains(n, "persisted partition tree unusable") {
			rejected = true
		}
	}
	if !rejected {
		t.Fatalf("expected a rejection note (did the store key drift?): %v", res.Notes)
	}
}

// TestCorePersistTreeLoadedStat drives persistence through the engine:
// a cold start (fresh Prepared, no in-memory cache, same persist
// directory) must load the tree from disk instead of rebuilding,
// surfaced via the SketchTreeLoaded stat, with an identical package.
func TestCorePersistTreeLoadedStat(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Strategy: core.SketchRefineStrategy, Seed: 1,
		SketchPartitionSize: 16, SketchDepth: 2, SketchPersistDir: dir}

	first := recipesPrep(t, 1500)
	cold, err := first.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Sketch.TreeLoaded {
		t.Fatal("cold start must build, not load")
	}
	if len(cold.Packages) == 0 {
		t.Fatalf("no package: %v", cold.Stats.Notes)
	}

	// A fresh preparation simulates a new process: no cache, only disk.
	second := recipesPrep(t, 1500)
	warm, err := second.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Sketch.TreeLoaded {
		t.Fatalf("disk-warm cold start must load the tree: %v", warm.Stats.Notes)
	}
	if warm.Stats.Sketch.CacheHit {
		t.Fatal("no in-memory cache was configured")
	}
	if !reflect.DeepEqual(cold.Packages[0].Mult, warm.Packages[0].Mult) {
		t.Fatal("disk-loaded tree produced a different package")
	}
}

// TestPersistConcurrentBuildLoad hammers one store key from many
// goroutines with no in-memory cache: every evaluation either builds or
// loads the same deterministic tree, so all packages agree and the file
// stays readable throughout. Run under -race in CI.
func TestPersistConcurrentBuildLoad(t *testing.T) {
	prep := recipesPrep(t, 1000)
	dir := t.TempDir()
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 1, PersistDir: dir}
	want, err := sketch.Solve(prep.Instance, opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	mults := make([][]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sketch.Solve(prep.Instance, opts)
			if err != nil {
				errs <- err
				return
			}
			mults[i] = res.Mult
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, m := range mults {
		if !reflect.DeepEqual(want.Mult, m) {
			t.Fatalf("goroutine %d diverged", i)
		}
	}
}
