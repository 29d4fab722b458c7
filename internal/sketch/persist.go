package sketch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
)

// persistMagic and persistVersion identify the on-disk partition-tree
// format. Bump the version whenever the encoding changes: old files
// then fail the header check and are rebuilt, never misread.
//
// Version history:
//
//	1  children/tuples + representative row per node
//	2  adds the per-attribute min/max envelope (Lo/Hi/NonNull) each
//	   node carries for MIN/MAX atom pruning
//	3  the key fingerprint switched to the per-row-hash composition
//	   (RowHash/CombineRowHashes) incremental maintenance recombines
//	   (a v2 file's fingerprint was computed under the old mixing
//	   order, so matching it against a v3 key could only ever be a
//	   collision — old files fail the version check and rebuild
//	   cleanly instead), and the tree header gains the Patched
//	   provenance flag ApplyDelta sets
//	4  the flag byte becomes a uvarint Drift (tuples inserted plus
//	   deleted since the last full build), so the patch budget holds
//	   across a restart
const (
	persistMagic   = "PBTREE"
	persistVersion = 4
)

// Store is the on-disk tier of the partition-tree cache: one file per
// Key under a directory, written atomically (temp file + rename) after
// every build and read on an in-memory miss. Files carry the full key
// — fingerprint included — plus a trailing checksum, so a stale,
// truncated, or corrupted file is detected and reported as a miss
// (the caller rebuilds and overwrites); a load never yields a tree
// that does not match the requested key byte for byte.
//
// The rename-based write makes concurrent use safe: readers only ever
// see complete files, and the last concurrent builder of the same key
// wins with an identical tree (builds are deterministic).
//
// Failure handling (the storage rungs of the degradation ladder):
//
//   - Transient I/O errors on load and save are retried with capped
//     exponential backoff plus jitter; a missing file is never retried
//     (it is a clean miss).
//   - A file that decodes as corrupt is quarantined — renamed to
//     <name>.quarantine with a sibling .reason file — so the next miss
//     on that key is clean instead of re-reading the same bad bytes on
//     every query.
//   - Orphaned temp files (".pbtree-*", left by a crash between write
//     and rename) are swept once per directory per process, on the
//     first NewStore for that directory.
type Store struct {
	dir string
	fs  fault.FS
}

// sweepState guards the once-per-process-per-directory orphan sweep
// and records its outcome so serving front ends can log what the first
// NewStore for their directory actually removed.
type sweepState struct {
	once    sync.Once
	removed int
	err     error
}

var sweptDirs sync.Map // dir -> *sweepState

// NewStore returns a store rooted at dir. The directory is created on
// the first Save; the first NewStore for a directory sweeps any
// orphaned temp files a previous crashed process left behind.
func NewStore(dir string) *Store {
	s := &Store{dir: dir, fs: fault.FSFor("sketch.store.fs")}
	v, _ := sweptDirs.LoadOrStore(dir, new(sweepState))
	st := v.(*sweepState)
	st.once.Do(func() { st.removed, st.err = s.SweepOrphans() })
	return s
}

// SweepResult reports what the once-per-process startup sweep for the
// store's directory removed (0, nil before any NewStore for it ran).
func (s *Store) SweepResult() (removed int, err error) {
	if v, ok := sweptDirs.Load(s.dir); ok {
		st := v.(*sweepState)
		return st.removed, st.err
	}
	return 0, nil
}

// SweepOrphans removes leftover ".pbtree-*" temp files from the store
// directory — debris from a save that crashed between writing the
// payload and the atomic rename. It returns how many files it removed.
// A missing directory is a clean no-op. Sweeping runs automatically on
// the first NewStore per directory; serving front ends may also call it
// explicitly at startup.
func (s *Store) SweepOrphans() (removed int, err error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		if s.fs.Remove(filepath.Join(s.dir, name)) == nil {
			removed++
		}
	}
	return removed, nil
}

// tmpPattern names save temp files; tmpPrefix is what SweepOrphans
// matches against.
const (
	tmpPattern = ".pbtree-*"
	tmpPrefix  = ".pbtree-"
)

// renameFile publishes a finished temp file; tests swap it via
// SetRenameHook to inject a crash between writing the payload and the
// atomic rename (the window where both the old file and the orphaned
// temp exist). When nil, the store's own FS performs the rename.
var renameFile func(tmp, dst string) error

// Retry policy for transient load/save I/O errors: capped exponential
// backoff with jitter. Variables so the chaos harness can shrink the
// delays.
var (
	storeRetryAttempts = 3
	storeRetryBase     = 2 * time.Millisecond
	storeRetryCap      = 16 * time.Millisecond
)

// retryIO runs op up to storeRetryAttempts times, sleeping an
// exponentially growing, jittered backoff between attempts. A missing
// file is returned immediately — absence is a fact, not a fault.
func retryIO(op func() error) error {
	var err error
	for i := 0; ; i++ {
		err = op()
		if err == nil || os.IsNotExist(err) || i+1 >= storeRetryAttempts {
			return err
		}
		d := storeRetryBase << i
		if d > storeRetryCap {
			d = storeRetryCap
		}
		// Full jitter over the upper half of the window decorrelates
		// concurrent retriers hammering the same device.
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		time.Sleep(d)
	}
}

// Dir reports the directory backing the store.
func (s *Store) Dir() string { return s.dir }

// Path returns the file a key persists to: the row fingerprint plus a
// digest of the remaining knobs, so distinct keys never collide on a
// name and a data change switches files instead of overwriting a tree
// another dataset still uses.
func (s *Store) Path(k Key) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d", k.Attrs, k.Tau, k.Depth, k.Seed)
	return filepath.Join(s.dir, fmt.Sprintf("%016x-%016x.pbtree", k.Fingerprint, h.Sum64()))
}

// Save writes the tree for the key, atomically replacing any previous
// file. Transient I/O errors retry the whole write (each attempt uses a
// fresh temp file; a failed attempt removes its own temp so crashed
// saves never accumulate debris that blocks later ones).
func (s *Store) Save(k Key, t *Tree) error {
	return retryIO(func() error {
		if err := fault.Check("sketch.store.save"); err != nil {
			return err
		}
		return s.saveOnce(k, t)
	})
}

// saveOnce performs one atomic write attempt.
func (s *Store) saveOnce(k Key, t *Tree) error {
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	f, err := s.fs.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	crc := crc32.NewIEEE()
	enc := &treeEncoder{w: bufio.NewWriter(io.MultiWriter(f, crc))}
	enc.encode(k, t)
	err = enc.flush()
	if err == nil {
		// The checksum trails the payload so it can be computed while
		// streaming; once the payload is flushed it is final, and goes
		// straight to the file (bypassing the hash writer).
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
		_, err = f.Write(sum[:])
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		rn := renameFile
		if rn == nil {
			rn = s.fs.Rename
		}
		err = rn(tmp, s.Path(k))
	}
	if err != nil {
		s.fs.Remove(tmp)
	}
	return err
}

// Load reads the tree persisted for the key. A missing file is a clean
// miss (nil, nil); transient read errors are retried with backoff; a
// file that is truncated, corrupted, carries another format version, or
// was written for a different key — a stale fingerprint after a data
// change, say — is quarantined and returns an error the caller should
// treat as "rebuild", never as fatal. Quarantining (rename to
// <name>.quarantine plus a .reason file) turns a persistently corrupt
// file into exactly one degraded query: the next miss on the key is
// clean and the rebuilt tree re-persists under the original name.
func (s *Store) Load(k Key) (*Tree, error) {
	path := s.Path(k)
	var data []byte
	err := retryIO(func() error {
		if err := fault.Check("sketch.store.load"); err != nil {
			return err
		}
		var rerr error
		data, rerr = s.fs.ReadFile(path)
		return rerr
	})
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	t, err := decodeTree(data, k)
	if err != nil {
		if qerr := s.quarantine(path, err); qerr == nil {
			err = fmt.Errorf("%w (file quarantined)", err)
		}
		return nil, err
	}
	return t, nil
}

// quarantine moves a corrupt store file out of the key's path and
// records why, preserving the bytes for post-mortem instead of letting
// the next save silently overwrite the evidence.
func (s *Store) quarantine(path string, cause error) error {
	qpath := path + ".quarantine"
	if err := s.fs.Rename(path, qpath); err != nil {
		return err
	}
	reason := fmt.Sprintf("quarantined: %s\ntime: %s\ncause: %v\n",
		filepath.Base(path), time.Now().UTC().Format(time.RFC3339), cause)
	// Best effort: the quarantine itself succeeded even if the note
	// cannot be written.
	s.fs.WriteFile(qpath+".reason", []byte(reason), 0o644)
	return nil
}

// treeEncoder streams the versioned binary encoding: magic, version,
// the full key, then the tree — per level, per node: children and
// tuples as delta-compressed uvarints (both are sorted ascending) and
// the representative row via value.EncodeKey.
type treeEncoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *treeEncoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *treeEncoder) uvarint(u uint64) {
	n := binary.PutUvarint(e.buf[:], u)
	e.bytes(e.buf[:n])
}

func (e *treeEncoder) varint(i int64) {
	n := binary.PutVarint(e.buf[:], i)
	e.bytes(e.buf[:n])
}

// deltaInts writes a sorted int slice as count + first + deltas (the
// arithmetic wraps through uint64, so even an unsorted slice — a bug,
// not a format — would still round-trip exactly).
func (e *treeEncoder) deltaInts(xs []int) {
	e.uvarint(uint64(len(xs)))
	prev := 0
	for _, x := range xs {
		e.uvarint(uint64(x - prev))
		prev = x
	}
}

func (e *treeEncoder) row(r schema.Row) {
	e.uvarint(uint64(len(r)))
	var buf []byte
	for _, v := range r {
		buf = v.EncodeKey(buf[:0])
		e.bytes(buf)
	}
}

func (e *treeEncoder) encode(k Key, t *Tree) {
	e.bytes([]byte(persistMagic))
	e.uvarint(persistVersion)
	var fp [8]byte
	binary.LittleEndian.PutUint64(fp[:], k.Fingerprint)
	e.bytes(fp[:])
	e.uvarint(uint64(len(k.Attrs)))
	e.bytes([]byte(k.Attrs))
	e.uvarint(uint64(k.Tau))
	e.uvarint(uint64(k.Depth))
	e.varint(k.Seed)
	e.deltaInts(t.Attrs)
	e.uvarint(uint64(t.Tau))
	e.uvarint(uint64(t.Depth))
	e.uvarint(uint64(t.Drift))
	for _, nodes := range t.Levels {
		e.uvarint(uint64(len(nodes)))
		for i := range nodes {
			e.deltaInts(nodes[i].Children)
			e.deltaInts(nodes[i].Tuples)
			e.row(nodes[i].Rep)
			e.envelope(&nodes[i], len(t.Attrs))
		}
	}
}

// envelope writes a node's per-attribute min/max envelope: Lo and Hi as
// raw float64 bits (bit-for-bit round-trip, no text formatting loss)
// and NonNull as a uvarint, one triple per split attribute.
func (e *treeEncoder) envelope(n *Node, nAttrs int) {
	for ai := 0; ai < nAttrs; ai++ {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(n.Lo[ai]))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(n.Hi[ai]))
		e.bytes(b[:])
		e.uvarint(uint64(n.NonNull[ai]))
	}
}

func (e *treeEncoder) flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// treeDecoder validates as it reads: every count is checked against the
// bytes remaining before allocation, so a corrupted header cannot
// trigger a huge allocation, and any overrun surfaces as an error.
type treeDecoder struct {
	data []byte
	off  int
}

func (d *treeDecoder) remaining() int { return len(d.data) - d.off }

func (d *treeDecoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, fmt.Errorf("truncated (%d bytes wanted, %d left)", n, d.remaining())
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *treeDecoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", d.off)
	}
	d.off += n
	return u, nil
}

func (d *treeDecoder) varint() (int64, error) {
	i, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", d.off)
	}
	d.off += n
	return i, nil
}

// count reads a length prefix, rejecting any value no payload of the
// remaining size could hold (each element takes at least one byte).
func (d *treeDecoder) count() (int, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(d.remaining()) {
		return 0, fmt.Errorf("count %d exceeds remaining %d bytes", u, d.remaining())
	}
	return int(u), nil
}

func (d *treeDecoder) deltaInts() ([]int, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	xs := make([]int, n)
	prev := uint64(0)
	for i := range xs {
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		prev += u
		xs[i] = int(prev)
	}
	return xs, nil
}

func (d *treeDecoder) row() (schema.Row, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	r := make(schema.Row, n)
	rest := d.data[d.off:]
	for i := range r {
		var v value.V
		v, rest, err = value.DecodeKey(rest)
		if err != nil {
			return nil, err
		}
		r[i] = v
	}
	d.off = len(d.data) - len(rest)
	return r, nil
}

// envelope reads a node's per-attribute min/max envelope (the inverse
// of treeEncoder.envelope).
func (d *treeDecoder) envelope(n *Node, nAttrs int) error {
	n.Lo = make([]float64, nAttrs)
	n.Hi = make([]float64, nAttrs)
	n.NonNull = make([]int, nAttrs)
	for ai := 0; ai < nAttrs; ai++ {
		b, err := d.bytes(16)
		if err != nil {
			return err
		}
		n.Lo[ai] = math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))
		n.Hi[ai] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		n.NonNull[ai] = int(u)
	}
	return nil
}

// decodeTree parses and verifies one persisted tree against the key the
// caller asked for.
func decodeTree(data []byte, k Key) (*Tree, error) {
	if len(data) < len(persistMagic)+4 {
		return nil, fmt.Errorf("sketch: persisted tree: file too short (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum) {
		return nil, fmt.Errorf("sketch: persisted tree: checksum mismatch (truncated or corrupted file)")
	}
	d := &treeDecoder{data: payload}
	magic, err := d.bytes(len(persistMagic))
	if err != nil || string(magic) != persistMagic {
		return nil, fmt.Errorf("sketch: persisted tree: bad magic")
	}
	version, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	if version != persistVersion {
		return nil, fmt.Errorf("sketch: persisted tree: format version %d (want %d)", version, persistVersion)
	}
	fpBytes, err := d.bytes(8)
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	got := Key{Fingerprint: binary.LittleEndian.Uint64(fpBytes)}
	attrsLen, err := d.count()
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	attrs, err := d.bytes(attrsLen)
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	got.Attrs = string(attrs)
	tau, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	got.Tau = int(tau)
	depth, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	got.Depth = int(depth)
	if got.Seed, err = d.varint(); err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	if got != k {
		return nil, fmt.Errorf("sketch: persisted tree is for another key (stale fingerprint or knobs): have %+v, want %+v", got, k)
	}
	t := &Tree{orders: new(leafOrders)}
	if t.Attrs, err = d.deltaInts(); err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: attrs: %w", err)
	}
	treeTau, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	t.Tau = int(treeTau)
	treeDepth, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	t.Depth = int(treeDepth)
	if t.Depth < 1 || t.Depth > plan.MaxDepth {
		return nil, fmt.Errorf("sketch: persisted tree: implausible depth %d", t.Depth)
	}
	drift, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	// A drift past the candidates only makes the next patch a rebuild;
	// one past int32 could overflow the budget's sum into a negative.
	if drift > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: persisted tree: implausible drift %d", drift)
	}
	t.Drift = int(drift)
	t.Levels = make([][]Node, t.Depth)
	for l := range t.Levels {
		n, err := d.count()
		if err != nil {
			return nil, fmt.Errorf("sketch: persisted tree: level %d: %w", l, err)
		}
		nodes := make([]Node, n)
		for i := range nodes {
			if nodes[i].Children, err = d.deltaInts(); err != nil {
				return nil, fmt.Errorf("sketch: persisted tree: level %d node %d children: %w", l, i, err)
			}
			if nodes[i].Tuples, err = d.deltaInts(); err != nil {
				return nil, fmt.Errorf("sketch: persisted tree: level %d node %d tuples: %w", l, i, err)
			}
			if nodes[i].Rep, err = d.row(); err != nil {
				return nil, fmt.Errorf("sketch: persisted tree: level %d node %d rep: %w", l, i, err)
			}
			if err = d.envelope(&nodes[i], len(t.Attrs)); err != nil {
				return nil, fmt.Errorf("sketch: persisted tree: level %d node %d envelope: %w", l, i, err)
			}
		}
		t.Levels[l] = nodes
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("sketch: persisted tree: %d trailing bytes", d.remaining())
	}
	if err := t.validateStructure(); err != nil {
		return nil, fmt.Errorf("sketch: persisted tree: %w", err)
	}
	return t, nil
}

// validateStructure rejects trees that decoded cleanly but are
// internally inconsistent — the checksum guards against accidental
// damage, this guards against files whose payload was altered and
// re-checksummed (or a fingerprint collision): nothing a Load returns
// may panic the solver downstream. Instance-dependent checks (tuple
// indexes vs the candidate count, attrs vs the row width) live in
// validateAgainst.
func (t *Tree) validateStructure() error {
	if t.Depth != len(t.Levels) {
		return fmt.Errorf("depth %d but %d levels", t.Depth, len(t.Levels))
	}
	for _, a := range t.Attrs {
		if a < 0 {
			return fmt.Errorf("negative attribute ordinal %d", a)
		}
	}
	for l, nodes := range t.Levels {
		if len(nodes) == 0 {
			return fmt.Errorf("level %d is empty", l)
		}
		for i := range nodes {
			if len(nodes[i].Tuples) == 0 {
				return fmt.Errorf("level %d node %d covers no tuples", l, i)
			}
			for _, x := range nodes[i].Tuples {
				if x < 0 {
					return fmt.Errorf("level %d node %d: negative tuple index %d", l, i, x)
				}
			}
			if nodes[i].Rep == nil {
				return fmt.Errorf("level %d node %d has no representative", l, i)
			}
			if len(nodes[i].Lo) != len(t.Attrs) || len(nodes[i].Hi) != len(t.Attrs) || len(nodes[i].NonNull) != len(t.Attrs) {
				return fmt.Errorf("level %d node %d: envelope covers %d/%d/%d of %d attributes",
					l, i, len(nodes[i].Lo), len(nodes[i].Hi), len(nodes[i].NonNull), len(t.Attrs))
			}
			for ai := range t.Attrs {
				if nodes[i].NonNull[ai] < 0 || nodes[i].NonNull[ai] > len(nodes[i].Tuples) {
					return fmt.Errorf("level %d node %d attr %d: %d non-NULL values for %d tuples",
						l, i, ai, nodes[i].NonNull[ai], len(nodes[i].Tuples))
				}
				if nodes[i].NonNull[ai] > 0 && !(nodes[i].Lo[ai] <= nodes[i].Hi[ai]) {
					return fmt.Errorf("level %d node %d attr %d: envelope lo %g above hi %g",
						l, i, ai, nodes[i].Lo[ai], nodes[i].Hi[ai])
				}
			}
			if l == t.Depth-1 {
				if len(nodes[i].Children) != 0 {
					return fmt.Errorf("leaf node %d has children", i)
				}
				continue
			}
			below := len(t.Levels[l+1])
			for _, ci := range nodes[i].Children {
				if ci < 0 || ci >= below {
					return fmt.Errorf("level %d node %d: child index %d outside level %d (%d nodes)", l, i, ci, l+1, below)
				}
			}
		}
	}
	return nil
}

// validateAgainst checks the tree fits the instance it is about to
// serve: every leaf tuple index in range and covered exactly once, and
// every split attribute a real column. The partition cache key should
// make a mismatch impossible; this is the backstop that turns a
// fingerprint collision or a tampered store file into a rebuild
// instead of an out-of-range panic inside a solve.
func (t *Tree) validateAgainst(rows []schema.Row) error {
	n, width := len(rows), 0
	if n > 0 {
		width = len(rows[0])
	}
	for _, a := range t.Attrs {
		if a >= width {
			return fmt.Errorf("attribute ordinal %d outside %d-column rows", a, width)
		}
	}
	seen := make([]bool, n)
	covered := 0
	for i := range t.Leaves() {
		for _, x := range t.Leaves()[i].Tuples {
			if x >= n {
				return fmt.Errorf("leaf %d: tuple index %d outside %d candidates", i, x, n)
			}
			if seen[x] {
				return fmt.Errorf("tuple %d covered by two leaves", x)
			}
			seen[x] = true
			covered++
		}
	}
	if covered != n {
		return fmt.Errorf("leaves cover %d of %d candidates", covered, n)
	}
	return nil
}
