package sketch_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sketch"
)

// TestPersistOldVersionTriggersRebuild rewrites a persisted tree as a
// format-version-1 file (the pre-envelope encoding), a version-3 file (a
// patched flag where later versions keep the drift) and a version-4 file
// (tuple lists on every node and per-node envelopes), and checks the
// loader reports each as unusable — the caller rebuilds — rather than
// misreading it.
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
	for _, old := range []byte{1, 3, 4} {
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

// TestPersistRoundTripBitForBit proves a depth-3 tree survives save/load
// exactly: every representative cell re-encodes to the same bytes (float
// bits included, which reflect.DeepEqual cannot tell apart for NaN or
// −0), every leaf keeps its tuples and every internal node its children,
// and no node above the leaves comes back holding tuples.
func TestPersistRoundTripBitForBit(t *testing.T) {
	prep := recipesPrep(t, 3000)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 3, Seed: 11}
	tree := sketch.BuildTree(prep.Instance, opts)
	key := sketch.KeyFor(prep.Instance, opts)
	store := sketch.NewStore(t.TempDir())
	if err := store.Save(key, tree); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || loaded.Depth != 3 {
		t.Fatalf("saved depth-3 tree did not load as one: %v", loaded)
	}
	cells := 0
	for l, nodes := range tree.Levels {
		for i := range nodes {
			got, want := &loaded.Levels[l][i], &nodes[i]
			if !slices.Equal(got.Tuples, want.Tuples) || !slices.Equal(got.Children, want.Children) {
				t.Fatalf("level %d node %d: tuples or children changed", l, i)
			}
			if l < loaded.Depth-1 && got.Tuples != nil {
				t.Fatalf("level %d node %d above the leaves came back holding tuples", l, i)
			}
			if len(got.Rep) != len(want.Rep) {
				t.Fatalf("level %d node %d: representative width %d != %d", l, i, len(got.Rep), len(want.Rep))
			}
			for c := range want.Rep {
				if !bytes.Equal(got.Rep[c].EncodeKey(nil), want.Rep[c].EncodeKey(nil)) {
					t.Fatalf("level %d node %d column %d: representative %v != %v", l, i, c, got.Rep[c], want.Rep[c])
				}
				cells++
			}
		}
	}
	if cells == 0 {
		t.Fatal("no representative cells compared")
	}
}

// TestPersistEnvelopeBitFlip damages the last node records of a
// persisted tree: a flipped bit fails the checksum, and a structurally
// inconsistent tree that re-checksums cleanly — a node listed by two
// parents, or by none — is caught by the structure validator instead.
func TestPersistEnvelopeBitFlip(t *testing.T) {
	prep := recipesPrep(t, 500)
	opts := sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 5}
	key := sketch.KeyFor(prep.Instance, opts)

	t.Run("checksum-catches-flip", func(t *testing.T) {
		store := sketch.NewStore(t.TempDir())
		if err := store.Save(key, sketch.BuildTree(prep.Instance, opts)); err != nil {
			t.Fatal(err)
		}
		// The last payload bytes before the 4-byte CRC belong to the
		// final leaf's representative.
		corrupt(t, store.Path(key), false, func(b []byte) []byte {
			b[len(b)-5] ^= 0x10
			return b
		})
		if _, err := store.Load(key); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flipped bit should fail the checksum, got %v", err)
		}
	})

	// tampered saves a copy of the tree whose top level tamper altered.
	tampered := func(t *testing.T, tamper func(top []sketch.Node)) error {
		store := sketch.NewStore(t.TempDir())
		tree := sketch.BuildTree(prep.Instance, opts)
		if tree.Depth != 2 || len(tree.Levels[0]) < 2 {
			t.Fatalf("want a depth-2 tree with two roots or more, got depth %d", tree.Depth)
		}
		bad := *tree
		bad.Levels = slices.Clone(tree.Levels)
		bad.Levels[0] = slices.Clone(tree.Levels[0])
		for i := range bad.Levels[0] {
			bad.Levels[0][i].Children = slices.Clone(bad.Levels[0][i].Children)
		}
		tamper(bad.Levels[0])
		if err := store.Save(key, &bad); err != nil {
			t.Fatal(err)
		}
		_, err := store.Load(key)
		return err
	}
	t.Run("validator-catches-second-parent", func(t *testing.T) {
		err := tampered(t, func(top []sketch.Node) { top[0].Children = append(top[0].Children, top[1].Children[0]) })
		if err == nil || !strings.Contains(err.Error(), "2 parents") {
			t.Fatalf("a node listed by two parents should fail structure validation, got %v", err)
		}
	})
	t.Run("validator-catches-orphan", func(t *testing.T) {
		err := tampered(t, func(top []sketch.Node) {
			for i := range top {
				if len(top[i].Children) > 1 {
					top[i].Children = top[i].Children[:len(top[i].Children)-1]
					return
				}
			}
		})
		if err == nil || !strings.Contains(err.Error(), "0 parents") {
			t.Fatalf("a node no parent lists should fail structure validation, got %v", err)
		}
	})
}
