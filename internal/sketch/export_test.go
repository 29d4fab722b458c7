package sketch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"time"

	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/translate"
)

// BranchForTest returns what the bound pass certifies for the instance's
// first DNF branch: its rows and each tuple's multiplicity cap (0 for an
// eliminated tuple).
func BranchForTest(inst *search.Instance) ([]*translate.LinearAtom, func(int) float64, error) {
	q := Compile(inst)
	if q.err != nil {
		return nil, nil, q.err
	}
	ba, err := q.branch(nil, 0)
	if err != nil {
		return nil, nil, err
	}
	return ba.tuple, func(i int) float64 {
		if ba.eliminated != nil && ba.eliminated[i] {
			return 0
		}
		return float64(inst.MaxMult)
	}, nil
}

// ParallelForTest exposes the scheduling helper to the external test
// package.
var ParallelForTest = parallelFor

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

// ValidateAgainstForTest is the check a loaded tree passes before it
// serves the instance whose candidates are rows.
func ValidateAgainstForTest(t *Tree, rows []schema.Row) error { return t.validateAgainst(rows) }

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
