package sketch_test

import (
	"math/rand"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/sketch"
)

// treePayloads are real trees — flat, hierarchical, patched — in their
// persisted form, checksum aside: what the decoder tests start from. The
// last one has drifted by more tuples than it covers, which only makes
// its next patch a rebuild.
func treePayloads(t testing.TB) [][]byte {
	prep := recipesPrep(t, 60)
	var out [][]byte
	for _, opts := range []sketch.Options{
		{MaxPartitionSize: 16, Seed: 3},
		{MaxPartitionSize: 8, Depth: 3, Seed: 1},
		{MaxPartitionSize: 64, Depth: 2, Seed: 7},
	} {
		tree := sketch.BuildTree(prep.Instance, opts)
		out = append(out, sketch.EncodePayloadForTest(sketch.KeyFor(prep.Instance, opts), tree))
		tree.Drift = 9
		out = append(out, sketch.EncodePayloadForTest(sketch.KeyFor(prep.Instance, opts), tree))
		tree.Drift = 1000 * len(prep.Instance.Rows)
		if opts.Depth == 2 {
			out = append(out, sketch.EncodePayloadForTest(sketch.KeyFor(prep.Instance, opts), tree))
		}
	}
	return out
}

// FuzzDecodeTree holds the persisted-tree decoder to its contract on
// arbitrary bytes — a tree file is whatever is on the disk: an error, or
// a tree that passes validateStructure (nothing Load returns may panic
// the solver downstream) and holds no more elements than the file has
// bytes; never a panic. A decoded tree that also fits the seeds'
// candidates (validateAgainst) must survive the next write's patch: one
// ApplyDelta step that deletes a candidate returns within 2 s without a
// panic. The harness re-checksums every mutation and reads the key off
// its header, so mutations reach the decoder proper.
// What a decode allocates on the way to an error is measured by
// TestDecodeAllocatesNoMoreThanTheFileBacks instead: the heap counters
// are the process's, and under the fuzzing engine its own goroutines
// allocate beside the decode (a 758 KB "decode" of 300 bytes, once).
// The seeds are small trees because the engine minimizes every input
// that finds new coverage, a byte at a time.
func FuzzDecodeTree(f *testing.F) {
	for _, p := range treePayloads(f) {
		f.Add(p)
	}
	f.Add([]byte("PBTREE"))
	f.Add([]byte{})
	rows := recipesPrep(f, 60).Instance.Rows
	remap := make([]int, len(rows)) // the first candidate deleted
	for i := range remap {
		remap[i] = i - 1
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		tree, invalid, err := sketch.DecodePayloadForTest(payload)
		if (tree == nil) == (err == nil) {
			t.Fatalf("decode = %v, %v", tree, err)
		}
		if invalid != nil {
			t.Fatalf("decoded a tree that fails validateStructure: %v", invalid)
		}
		if tree == nil {
			return
		}
		elems := len(tree.Attrs)
		for _, nodes := range tree.Levels {
			for i := range nodes {
				elems += 1 + len(nodes[i].Children) + len(nodes[i].Tuples) + len(nodes[i].Rep)
			}
		}
		if elems > len(payload) {
			t.Fatalf("decoded %d elements out of %d bytes", elems, len(payload))
		}
		if sketch.ValidateAgainstForTest(tree, rows) != nil {
			return
		}
		panicked := make(chan any, 1)
		go func() {
			defer func() { panicked <- recover() }()
			tree.ApplyDelta(rows[1:], remap, sketch.Options{Seed: 1})
		}()
		select {
		case p := <-panicked:
			if p != nil {
				t.Fatalf("ApplyDelta over a decoded tree panicked: %v", p)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("ApplyDelta over a decoded tree did not return within 2 s")
		}
	})
}

// TestDecodeAllocatesNoMoreThanTheFileBacks: no length prefix sizes an
// allocation before it is checked against the bytes that remain, so one
// decode allocates a small multiple of the file however its counts lie —
// held here over every seed tree with a maximal uvarint written at every
// offset a count could sit at, and over random byte damage.
func TestDecodeAllocatesNoMoreThanTheFileBacks(t *testing.T) {
	heap := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	decodeCost := func(p []byte) uint64 {
		// The counter is the process's; the least of two identical
		// decodes leaves a stray background allocation out.
		least := ^uint64(0)
		for range 2 {
			metrics.Read(heap)
			before := heap[0].Value.Uint64()
			sketch.DecodePayloadForTest(p)
			metrics.Read(heap)
			least = min(least, heap[0].Value.Uint64()-before)
		}
		return least
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^63 − 1
	rng := rand.New(rand.NewSource(1))
	for _, seed := range treePayloads(t) {
		most := uint64(1<<16 + 512*len(seed))
		check := func(what string, p []byte) {
			if got := decodeCost(p); got > most {
				t.Fatalf("%s: decoding %d bytes allocated %d, more than %d", what, len(p), got, most)
			}
		}
		check("intact", seed)
		for off := 0; off+len(huge) <= len(seed); off += 1 + len(seed)/400 {
			p := append([]byte(nil), seed...)
			copy(p[off:], huge)
			check("huge count", p)
		}
		for i := 0; i < 500; i++ {
			p := append([]byte(nil), seed...)
			for k := 0; k <= rng.Intn(4); k++ {
				p[rng.Intn(len(p))] = byte(rng.Intn(256))
			}
			check("byte damage", p[:len(p)-rng.Intn(2)*rng.Intn(len(p))])
		}
	}
}
