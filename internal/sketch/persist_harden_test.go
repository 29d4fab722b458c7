package sketch_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sketch"
)

// hardenFixture saves one tree and returns the store, key, and the
// persisted file's path.
func hardenFixture(t *testing.T) (*sketch.Store, sketch.Key, string) {
	t.Helper()
	prep := recipesPrep(t, 500)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 3}
	tree := sketch.BuildTree(prep.Instance, opts)
	key := sketch.Key{
		Fingerprint: sketch.Fingerprint(prep.Instance.Rows),
		Attrs:       "5,6", Tau: 16, Depth: 2, Seed: 3,
	}
	store := sketch.NewStore(t.TempDir())
	if err := store.Save(key, tree); err != nil {
		t.Fatal(err)
	}
	return store, key, store.Path(key)
}

// TestQuarantineCorruptFile checks a corrupt store file is moved aside
// with a reason file on first load, so the next miss on the key is
// clean instead of re-reading the same bad bytes forever.
func TestQuarantineCorruptFile(t *testing.T) {
	store, key, path := hardenFixture(t)
	corrupt(t, path, false, func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b })

	if _, err := store.Load(key); err == nil {
		t.Fatal("corrupt file loaded without error")
	} else if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("load error does not mention quarantine: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still at original path: %v", err)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	reason, err := os.ReadFile(path + ".quarantine.reason")
	if err != nil {
		t.Fatalf("reason file missing: %v", err)
	}
	if !strings.Contains(string(reason), "cause:") {
		t.Fatalf("reason file lacks a cause: %q", reason)
	}
	// The key now misses cleanly — the degraded query was a one-off.
	if tr, err := store.Load(key); tr != nil || err != nil {
		t.Fatalf("post-quarantine load: got (%v, %v), want clean miss", tr, err)
	}
	// And a fresh save reclaims the original path.
	prep := recipesPrep(t, 500)
	tree := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 3})
	if err := store.Save(key, tree); err != nil {
		t.Fatal(err)
	}
	if loaded, err := store.Load(key); err != nil || loaded == nil {
		t.Fatalf("reload after re-save: (%v, %v)", loaded, err)
	}
}

// TestOrphanSweepOnNewStore plants crash debris — an orphaned save temp
// — and checks the first NewStore for the directory removes it while
// leaving real tree files (and quarantined files) alone.
func TestOrphanSweepOnNewStore(t *testing.T) {
	store, key, path := hardenFixture(t)
	dir := store.Dir()
	orphan := filepath.Join(dir, ".pbtree-123456789")
	if err := os.WriteFile(orphan, []byte("half a tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	keepQ := path + ".quarantine"
	if err := os.WriteFile(keepQ, []byte("evidence"), 0o644); err != nil {
		t.Fatal(err)
	}

	sketch.ResetSweepForTest(dir)
	fresh := sketch.NewStore(dir)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp survived the sweep: %v", err)
	}
	if _, err := os.Stat(keepQ); err != nil {
		t.Fatalf("sweep removed quarantined evidence: %v", err)
	}
	if loaded, err := fresh.Load(key); err != nil || loaded == nil {
		t.Fatalf("sweep damaged the real tree file: (%v, %v)", loaded, err)
	}
}

// TestCrashInterruptedSaveNeverBlocksLaterSaves simulates a save that
// dies between writing the temp and the rename (the temp survives, the
// process does not): later saves in a new "process" must still succeed
// and the startup sweep must clear the debris.
func TestCrashInterruptedSaveNeverBlocksLaterSaves(t *testing.T) {
	store, key, _ := hardenFixture(t)
	dir := store.Dir()

	// Crash mid-save: the rename never happens and nothing cleans up.
	restore := sketch.SetRenameHook(func(tmp, dst string) error {
		panic("simulated crash before rename")
	})
	prep := recipesPrep(t, 500)
	tree := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 3})
	func() {
		defer func() { recover() }()
		store.Save(key, tree)
	}()
	restore()

	orphans := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".pbtree-") {
			orphans++
		}
	}
	if orphans == 0 {
		t.Fatal("crash simulation left no orphan; the test is vacuous")
	}

	// "Restart": the sweep clears the debris and saving works again.
	sketch.ResetSweepForTest(dir)
	fresh := sketch.NewStore(dir)
	if err := fresh.Save(key, tree); err != nil {
		t.Fatalf("save after crash debris: %v", err)
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".pbtree-") {
			t.Fatalf("orphan %s survived restart sweep", e.Name())
		}
	}
	if loaded, err := fresh.Load(key); err != nil || loaded == nil {
		t.Fatalf("tree unreadable after crash recovery: (%v, %v)", loaded, err)
	}
}

// TestStoreRetriesTransientErrors checks one-off injected I/O errors on
// load and save are absorbed by the backoff loop, while persistent ones
// surface after the attempts are exhausted.
func TestStoreRetriesTransientErrors(t *testing.T) {
	defer sketch.SetStoreRetryForTest(3, time.Millisecond, 2*time.Millisecond)()
	store, key, _ := hardenFixture(t)

	// One transient load fault: absorbed.
	restoreInj := fault.Enable(fault.NewInjector(1,
		fault.Rule{Site: "sketch.store.load", Kind: fault.KindError, Limit: 1}))
	loaded, err := store.Load(key)
	restoreInj()
	if err != nil || loaded == nil {
		t.Fatalf("transient load fault not retried: (%v, %v)", loaded, err)
	}

	// Persistent load faults: surfaced after retries.
	inj := fault.NewInjector(2, fault.Rule{Site: "sketch.store.load", Kind: fault.KindError})
	restoreInj = fault.Enable(inj)
	_, err = store.Load(key)
	restoreInj()
	if !fault.Injected(err) {
		t.Fatalf("persistent load fault not surfaced: %v", err)
	}
	if v := inj.Coverage()["sketch.store.load"].Visits; v != 3 {
		t.Fatalf("load visited %d times, want 3 attempts", v)
	}

	// One transient save fault: absorbed, file intact afterwards.
	prep := recipesPrep(t, 500)
	tree := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 3})
	restoreInj = fault.Enable(fault.NewInjector(3,
		fault.Rule{Site: "sketch.store.save", Kind: fault.KindError, Limit: 1}))
	err = store.Save(key, tree)
	restoreInj()
	if err != nil {
		t.Fatalf("transient save fault not retried: %v", err)
	}
	if loaded, err := store.Load(key); err != nil || loaded == nil {
		t.Fatalf("file damaged by retried save: (%v, %v)", loaded, err)
	}
}

// TestSaveRetriesPartialWrite tears the first save attempt mid-write;
// the retry must land a complete, loadable file and leave no temp
// debris behind.
func TestSaveRetriesPartialWrite(t *testing.T) {
	defer sketch.SetStoreRetryForTest(3, time.Millisecond, 2*time.Millisecond)()
	prep := recipesPrep(t, 500)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 3}
	tree := sketch.BuildTree(prep.Instance, opts)
	key := sketch.Key{
		Fingerprint: sketch.Fingerprint(prep.Instance.Rows),
		Attrs:       "5,6", Tau: 16, Depth: 2, Seed: 3,
	}
	dir := t.TempDir()

	restoreInj := fault.Enable(fault.NewInjector(4,
		fault.Rule{Site: "sketch.store.fs.write", Kind: fault.KindPartialWrite, Limit: 1}))
	defer restoreInj()
	sketch.ResetSweepForTest(dir)
	store := sketch.NewStore(dir) // constructed while enabled: FS is injected
	if err := store.Save(key, tree); err != nil {
		t.Fatalf("torn first write not retried: %v", err)
	}
	restoreInj()

	loaded, err := store.Load(key)
	if err != nil || loaded == nil {
		t.Fatalf("file after retried save: (%v, %v)", loaded, err)
	}
	if !reflect.DeepEqual(tree, loaded) {
		t.Fatal("retried save round-trip differs")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".pbtree-") {
			t.Fatalf("failed attempt leaked temp %s", e.Name())
		}
	}
}
