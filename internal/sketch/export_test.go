package sketch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"time"

	"repro/internal/bound"
	"repro/internal/search"
)

// ParallelForTest exposes the scheduling helper to the external test
// package.
var ParallelForTest = parallelFor

// RawLPBoundForTest computes the exact LP-relaxation bound over the raw
// candidates of the instance's first DNF branch, sidestepping
// plan.SketchThreshold — the tightness yardstick the bound tests compare the
// tree pipeline against.
func RawLPBoundForTest(inst *search.Instance) (bound.Outcome, error) {
	q := Compile(inst)
	if q.err != nil {
		return bound.Outcome{}, q.err
	}
	ba, err := q.branch(nil, 0)
	if err != nil {
		return bound.Outcome{}, err
	}
	groups := bound.Candidates(len(inst.Rows), inst.MaxMult, nil)
	p, err := bound.Relax(ba.tuple, inst.ObjW, objSense(inst), groups)
	if err != nil {
		return bound.Outcome{}, err
	}
	return bound.Solve(nil, p, inst.ObjK), nil
}

// KeptOrdersForTest returns the leaf orders the tree keeps, by objective
// key; an objective asked for once, or whose sort failed, has none.
func KeptOrdersForTest(t *Tree) map[string][][]int {
	kept := map[string][][]int{}
	if t.orders == nil {
		return kept
	}
	t.orders.mu.Lock()
	slots := maps.Clone(t.orders.slots)
	t.orders.mu.Unlock()
	for key, slot := range slots {
		if slot == nil {
			continue
		}
		if o, err := slot.Get(nil, func() (*[][]int, error) { return nil, errors.New("not kept") }); err == nil {
			kept[key] = *o
		}
	}
	return kept
}

// SetRenameHook swaps the store's rename step for fault injection
// (crash-mid-resave tests); it returns a restore function.
func SetRenameHook(fn func(tmp, dst string) error) (restore func()) {
	old := renameFile
	renameFile = fn
	return func() { renameFile = old }
}

// ResetSweepForTest forgets that dir was already swept, so the next
// NewStore sweeps it again.
func ResetSweepForTest(dir string) { sweptDirs.Delete(dir) }

// SetStoreRetryForTest overrides the transient-I/O retry policy and
// returns a restore function (the chaos harness shrinks the backoff).
func SetStoreRetryForTest(attempts int, base, cap time.Duration) (restore func()) {
	oa, ob, oc := storeRetryAttempts, storeRetryBase, storeRetryCap
	storeRetryAttempts, storeRetryBase, storeRetryCap = attempts, base, cap
	return func() { storeRetryAttempts, storeRetryBase, storeRetryCap = oa, ob, oc }
}

// EncodePayloadForTest is the persisted form of t under k without its
// trailing checksum: the bytes FuzzDecodeTree mutates.
func EncodePayloadForTest(k Key, t *Tree) []byte {
	var buf bytes.Buffer
	enc := &treeEncoder{w: bufio.NewWriter(&buf)}
	enc.encode(k, t)
	if err := enc.flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// DecodePayloadForTest checksums a payload and decodes it under whatever
// key its own header names, so a fuzzer's mutations get past the two
// cheap rejections — checksum and key — and into the decoder proper. The
// tree it returns has passed validateStructure; the second result says
// whether it still does.
func DecodePayloadForTest(payload []byte) (*Tree, error, error) {
	var k Key
	d := &treeDecoder{data: payload}
	if _, err := d.bytes(len(persistMagic)); err == nil {
		d.uvarint()
		if fp, err := d.bytes(8); err == nil {
			k.Fingerprint = binary.LittleEndian.Uint64(fp)
		}
		n, _ := d.count()
		attrs, _ := d.bytes(n)
		tau, _ := d.uvarint()
		depth, _ := d.uvarint()
		k.Attrs, k.Tau, k.Depth = string(attrs), int(tau), int(depth)
		k.Seed, _ = d.varint()
	}
	t, err := decodeTree(binary.LittleEndian.AppendUint32(payload[:len(payload):len(payload)], crc32.ChecksumIEEE(payload)), k)
	if err != nil {
		return nil, nil, err
	}
	return t, t.validateStructure(), nil
}
