package sketch_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sketch"
)

// TestPersistOldVersionTriggersRebuild rewrites a persisted tree as a
// format-version-1 file (the pre-envelope encoding) and as a version-3
// file (a patched flag where v4 keeps the drift), and checks the loader
// reports each as unusable — the caller rebuilds — rather than misreading
// it.
func TestPersistOldVersionTriggersRebuild(t *testing.T) {
	prep := recipesPrep(t, 1000)
	dir := t.TempDir()
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 3, PersistDir: dir}
	fresh, err := sketch.Solve(prep.Instance, opts)
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one persisted file, got %d (%v)", len(files), err)
	}
	path := filepath.Join(dir, files[0].Name())
	for _, old := range []byte{1, 3} {
		// The version uvarint follows the 6-byte magic.
		corrupt(t, path, true, func(b []byte) []byte {
			b[6] = old
			return b
		})
		res, err := sketch.Solve(prep.Instance, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.TreeLoaded {
			t.Fatalf("a version-%d file must not be loaded", old)
		}
		found := false
		for _, n := range res.Notes {
			if strings.Contains(n, fmt.Sprintf("format version %d", old)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("notes should report the version mismatch, got %v", res.Notes)
		}
		if !reflect.DeepEqual(fresh.Mult, res.Mult) {
			t.Fatal("rebuild after version mismatch produced a different package")
		}
		// The rebuild overwrote the file with the current version; the next
		// cold start loads it.
		again, err := sketch.Solve(prep.Instance, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !again.TreeLoaded {
			t.Fatal("rebuild should have replaced the old-version file")
		}
	}
}

// TestPersistEnvelopeRoundTripBitForBit proves the per-node envelopes
// survive save/load exactly: same float bits, same counts, at every
// level of a depth-3 tree.
func TestPersistEnvelopeRoundTripBitForBit(t *testing.T) {
	prep := recipesPrep(t, 3000)
	tree := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 3, Seed: 11})
	key := sketch.Key{
		Fingerprint: sketch.Fingerprint(prep.Instance.Rows),
		Attrs:       "1,2", Tau: 16, Depth: 3, Seed: 11,
	}
	store := sketch.NewStore(t.TempDir())
	if err := store.Save(key, tree); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil {
		t.Fatal("saved tree did not load")
	}
	envelopes := 0
	for l, nodes := range tree.Levels {
		for i := range nodes {
			got, want := &loaded.Levels[l][i], &nodes[i]
			if len(want.Lo) == 0 {
				t.Fatalf("level %d node %d has no envelope to round-trip", l, i)
			}
			for ai := range want.Lo {
				if math.Float64bits(got.Lo[ai]) != math.Float64bits(want.Lo[ai]) ||
					math.Float64bits(got.Hi[ai]) != math.Float64bits(want.Hi[ai]) {
					t.Fatalf("level %d node %d attr %d: envelope bits changed: (%g,%g) != (%g,%g)",
						l, i, ai, got.Lo[ai], got.Hi[ai], want.Lo[ai], want.Hi[ai])
				}
				if got.NonNull[ai] != want.NonNull[ai] {
					t.Fatalf("level %d node %d attr %d: NonNull %d != %d", l, i, ai, got.NonNull[ai], want.NonNull[ai])
				}
				envelopes++
			}
		}
	}
	if envelopes == 0 {
		t.Fatal("no envelopes compared")
	}
}

// TestPersistEnvelopeBitFlip flips a bit inside the envelope section
// (the trailing bytes of the last node record) and checks the checksum
// catches it; a structurally inconsistent envelope that re-checksums
// cleanly is caught by the structure validator instead.
func TestPersistEnvelopeBitFlip(t *testing.T) {
	prep := recipesPrep(t, 500)
	key := sketch.Key{
		Fingerprint: sketch.Fingerprint(prep.Instance.Rows),
		Attrs:       "1,2", Tau: 16, Depth: 2, Seed: 5,
	}
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 5}

	t.Run("checksum-catches-flip", func(t *testing.T) {
		store := sketch.NewStore(t.TempDir())
		if err := store.Save(key, sketch.BuildTree(prep.Instance, opts)); err != nil {
			t.Fatal(err)
		}
		// The last payload bytes before the 4-byte CRC belong to the
		// final node's envelope triple.
		corrupt(t, store.Path(key), false, func(b []byte) []byte {
			b[len(b)-5] ^= 0x10
			return b
		})
		if _, err := store.Load(key); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flipped envelope bit should fail the checksum, got %v", err)
		}
	})

	t.Run("validator-catches-inverted-envelope", func(t *testing.T) {
		store := sketch.NewStore(t.TempDir())
		tree := sketch.BuildTree(prep.Instance, opts)
		bad := *tree // shallow copy; deep-copy the node we tamper with
		bad.Levels = append([][]sketch.Node{}, tree.Levels...)
		bad.Levels[0] = append([]sketch.Node{}, tree.Levels[0]...)
		n := bad.Levels[0][0]
		n.Lo = append([]float64{}, n.Lo...)
		n.Lo[0] = n.Hi[0] + 5 // lo above hi with NonNull > 0
		bad.Levels[0][0] = n
		if err := store.Save(key, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(key); err == nil || !strings.Contains(err.Error(), "envelope") {
			t.Fatalf("inverted envelope should fail structure validation, got %v", err)
		}
	})

	t.Run("validator-catches-overcount", func(t *testing.T) {
		store := sketch.NewStore(t.TempDir())
		tree := sketch.BuildTree(prep.Instance, opts)
		bad := *tree
		bad.Levels = append([][]sketch.Node{}, tree.Levels...)
		bad.Levels[0] = append([]sketch.Node{}, tree.Levels[0]...)
		n := bad.Levels[0][0]
		n.NonNull = append([]int{}, n.NonNull...)
		n.NonNull[0] = len(n.Tuples) + 1
		bad.Levels[0][0] = n
		if err := store.Save(key, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(key); err == nil || !strings.Contains(err.Error(), "non-NULL") {
			t.Fatalf("implausible NonNull should fail structure validation, got %v", err)
		}
	})
}
