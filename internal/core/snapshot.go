package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/translate"
)

// candidateStore is one table's candidate snapshots, one per WHERE, and
// its image: the single owner of "the candidates of (table, WHERE) at
// version v" and of everything computed from them or from the table that
// no constant of a query changes. It hangs off the table
// (minidb.Table.Derived), so every path that resolves the table —
// System.Query, pbserver, the benchmark's trace — reaches the same store,
// and a dropped table or a discarded System takes it along; nothing here
// is package-level.
//
// Three tiers answer a package query before any solver runs, in this
// order: this snapshot (whose tuples pass WHERE, and their selection
// passes), the fingerprint lineage it carries per tree shape for
// FingerprintMemo (which tree those tuples hash to, and which earlier
// tree of that shape a patch starts from), and sketch.Cache (the tree).
// The image serves the last two: fingerprints combine its row hashes, and
// tree builds and patches read its columns.
type candidateStore struct {
	mu      sync.Mutex
	entries map[string]*snapshot // by whereKey
	clock   uint64               // ticks once per use; the least recently used entry is evicted first
	img     *image               // the newest image; nil until a sketch evaluation asked, and once idle
	imgRead uint64               // the clock when a sketch evaluation last read img
	imgStep *imageStep           // the making of the next, if any
}

// memoMaxEntries bounds a store's entry count and memoMaxRows what its
// entries pin in total, counted in candidate-length slots (snapshot.size):
// an id per candidate at first sight; a promoted entry also a row header
// per candidate and one slot per candidate for each vector its pass store
// keeps; an entry a fingerprint hashed without an image also a hash per
// candidate. Entries the table has moved past keep theirs until asked again
// or evicted.
//
// The image is the table's, one per store, and not counted there: its
// size follows the table, not the candidates. Two bounds hold it instead.
// Only an evaluation whose candidates are at least 1/imageShare of the
// table's rows makes or advances it, so making it costs at most imageShare
// times the hashing and lowering that evaluation would have done over its
// own candidates; a selective WHERE over a large table lowers its
// candidates for each build, as a preparation without a table does, keeps
// their hashes on its snapshot (candidateHashes), and reads an image only
// when one already stands at its version. And an image no
// sketch evaluation has read for imageMaxIdle uses of the store is
// dropped (touch), so a table whose sketch traffic stopped lets it go.
const (
	memoMaxEntries = 32
	memoMaxRows    = 4 << 20
	imageShare     = 4
	imageMaxIdle   = 2 * memoMaxEntries
)

// snapshot is what one (table, WHERE) pair keeps. It is made at first
// sight with what costs two words a candidate — a WHERE nobody repeats
// leaves nothing else behind — and promoted to hold the candidate rows
// and their pass store when the same pair comes in again: from then on a
// preparation evaluates no predicate and folds no selection an earlier one
// folded. A write moves the table's version; the next preparation of the
// pair advances the entry along the table's delta log (advance), which
// evaluates the predicate on the appended rows only and carries every
// fold. The fingerprint half keeps a version per tree shape, which is what
// lets FingerprintMemo replay the delta between each shape's version and
// now.
type snapshot struct {
	used    uint64
	sighted bool   // a scan has filled version and ids in
	version uint64 // table version ids, rows and passes were taken at
	ids     []int  // candidate row ids (positions) at that version
	rows    []schema.Row
	passes  *translate.Passes // over rows; nil until promoted
	// hashes holds the RowHash of the first len(hashes) candidates, for
	// fingerprints without an image (candidateHashes): nil until one
	// asked, and carried across writes for the survivors only, so an
	// advance hashes nothing and the next fingerprint the appended rows.
	hashes []uint64
	next   *advance // the advance in flight to a newer version, if any
	// lineage is FingerprintMemo's half: one record per tree shape
	// (sketch.AttrsOf), empty until a sketch evaluation asked.
	lineage map[string]*fingerprint
}

// advance moves one snapshot from its version to a newer one along the
// table's delta log: the survivors of its candidates, shifted down by the
// deletions before them (survivors), followed by the appended rows that
// pass WHERE, with the pass store carried (translate.Passes.Advance) — or,
// for an entry that held ids only, made: a second sight at any version the
// log reaches promotes. Concurrent preparations at the target version
// share one; a failed one, a canceled one included, is not kept.
type advance struct {
	e        *snapshot
	from, to uint64
	ids      []int
	hashes   []uint64                   // the entry's, a prefix of ids'
	passes   *translate.Passes          // nil: the entry is promoted by this advance
	once     lifecycle.Once[candidates] // scanned: the appended rows the predicate was evaluated on
}

// errNoDelta reports that the delta log cannot take a snapshot to the
// table's version — it aged out, or its read failed — so the candidates
// are scanned for.
var errNoDelta = errors.New("engine: the delta log does not reach the snapshot's version")

// fingerprint is one tree shape's write lineage: the candidates and their
// fingerprint at the version that shape's trees were last advanced to,
// which trails the snapshot's by the writes its Advance has not replayed
// yet. A record is never changed — an advance makes a new one — so a
// shape first seen where a sibling stands holds the sibling's record.
type fingerprint struct {
	version uint64
	ids     []int  // candidate row ids at that version
	fp      uint64 // the fingerprint of those rows
}

// image is the table at one version, hashed and lowered once for every
// sketch evaluation at that version: one sketch.RowHash per row, which
// fingerprints combine at their candidates' ids, and the rows as columns
// with one table-wide dictionary per text column, which tree builds and
// patches read by tuple id (search.Instance.Image). The store keeps the
// newest. It is made at the first sketch evaluation over a large enough
// share of the table that needs it — an exact-only workload never makes
// one — and advanced along the delta log after writes: the survivors'
// hashes and cells are copied, only appended rows are hashed and lowered.
// A published image is never written.
type image struct {
	version uint64
	hashes  []uint64        // RowHash per table row
	cols    *search.Columns // the rows lowered
	hashed  int             // rows its making hashed: the table, or the appended rows
}

// imageStep makes the store's image at one version, from the image
// before it when the delta log reaches that one. Concurrent evaluations
// at the version share it; a failed build, a canceled one, is not kept.
type imageStep struct {
	from *image
	to   uint64
	once lifecycle.Once[image]
}

// snapshotsOf returns the table's candidate store.
func snapshotsOf(t *minidb.Table) *candidateStore {
	return t.Derived(func() any { return &candidateStore{entries: map[string]*snapshot{}} }).(*candidateStore)
}

// whereKey renders the base predicate into the snapshot key. The store
// serves candidates under it, so two predicates that select different
// tuples must never share one (expr.Key); two spellings of one predicate
// may, and merely keep a snapshot each.
func whereKey(q *paql.Query) string {
	if q == nil || q.Where == nil {
		return ""
	}
	return expr.Key(q.Where)
}

// candidates is one preparation's view of a snapshot.
type candidates struct {
	passes  *translate.Passes // over the candidate rows
	ids     []int
	hashes  []uint64 // an advance's: the survivors' kept hashes
	scanned int      // table rows the base constraints were evaluated on
	hit     bool     // served by the snapshot: no predicate evaluated
}

// candidatesOf returns the tuples of the table that satisfy the query's
// base constraints, at the table's current version: from the snapshot of
// (table, WHERE) when it stands at that version, advanced to it when it
// trails, else by a scan, which leaves the snapshot its ids. Like every
// read of Table.Rows it must not race a write.
func candidatesOf(ctx context.Context, table *minidb.Table, q *paql.Query) (candidates, error) {
	store, key, version := snapshotsOf(table), whereKey(q), table.Version()
	c, step, ok := store.lookup(key, version, table.Rows)
	if ok {
		return c, nil
	}
	if step != nil {
		c, err := step.once.Get(ctx, func() (*candidates, error) { return step.run(ctx, table, q.Where) })
		if err == nil {
			store.install(key, step, c)
			return *c, nil
		}
		if !errors.Is(err, errNoDelta) {
			return candidates{}, err
		}
	}
	ids, err := matching(ctx, q.Where, table.Rows, 0, nil)
	if err != nil {
		return candidates{}, err
	}
	store.sight(key, version, ids)
	return candidates{passes: translate.NewPasses(gather(table.Rows, ids)), ids: ids, scanned: len(table.Rows)}, nil
}

// matching appends to ids the positions, counted from first, of the rows
// that satisfy where (every row when there is none), looking at ctx every
// PollRows rows. where is compiled once for the rows.
func matching(ctx context.Context, where expr.Expr, rows []schema.Row, first int, ids []int) ([]int, error) {
	match := expr.CompileWhere(where)
	for i, row := range rows {
		if i%translate.PollRows == 0 {
			if err := lifecycle.ContextErr(ctx); err != nil {
				return nil, err
			}
		}
		ok, err := match(row)
		if err != nil {
			return nil, fmt.Errorf("engine: base constraint: %w", err)
		}
		if ok {
			ids = append(ids, first+i)
		}
	}
	return ids, nil
}

// lookup serves the candidates of key at version from its snapshot,
// promoting it on second sight: the rows are gathered by id, not scanned
// for, and get the pass store every later preparation will share. A
// snapshot that trails version is not served: lookup hands back the
// advance that takes it there, the one in flight when there is one.
func (s *candidateStore) lookup(key string, version uint64, table []schema.Row) (candidates, *advance, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil || !e.sighted || e.version > version {
		return candidates{}, nil, false
	}
	s.touch(e)
	if e.version < version {
		if e.next == nil || e.next.to != version {
			e.next = &advance{e: e, from: e.version, to: version, ids: e.ids, hashes: e.hashes, passes: e.passes}
		}
		return candidates{}, e.next, false
	}
	if e.passes == nil {
		e.rows = gather(table, e.ids)
		e.passes = translate.NewPasses(e.rows)
	}
	return candidates{passes: e.passes, ids: e.ids, hit: true}, nil, true
}

// run reads the table's delta log from the advance's version to the
// table's and replays it on the candidates. The caller holds the table
// still, as for a scan.
func (a *advance) run(ctx context.Context, table *minidb.Table, where expr.Expr) (*candidates, error) {
	delta, ok := table.DeltaSince(a.from)
	if !ok || delta.Current != a.to {
		return nil, errNoDelta
	}
	appended := table.Rows[delta.AppendedStart:]
	remap, ids := survivors(a.ids, delta.Deleted, len(appended))
	ids, err := matching(ctx, where, appended, delta.AppendedStart, ids)
	if err != nil {
		return nil, err
	}
	got, rows := &candidates{ids: ids, scanned: len(appended)}, gather(table.Rows, ids)
	if a.hashes != nil {
		got.hashes = make([]uint64, 0, len(ids))
		for i, h := range a.hashes {
			if remap[i] >= 0 {
				got.hashes = append(got.hashes, h)
			}
		}
	}
	if a.passes == nil {
		got.passes = translate.NewPasses(rows)
		return got, nil
	}
	if got.passes, err = a.passes.Advance(ctx, rows, remap); err != nil {
		return nil, err
	}
	return got, nil
}

// install moves the advance's entry to what it found, unless the entry was
// evicted meanwhile or already stands at (or past) its version.
func (s *candidateStore) install(key string, a *advance, got *candidates) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := a.e
	if e.next == a {
		e.next = nil
	}
	if s.entries[key] != e || e.version >= a.to {
		return
	}
	e.version, e.ids, e.rows, e.passes, e.hashes = a.to, got.ids, got.passes.Rows(), got.passes, got.hashes
	s.evict(e)
}

// survivors replays a delta's deletions on the candidate ids of its base
// version: deleted holds the table positions gone since, ascending, in that
// version's coordinates (minidb.TableDelta.Deleted). remap[i] is candidate
// i's index among the survivors, or −1 when it was deleted, and kept holds
// the survivors' ids now — each shifted down by the deletions before it —
// with room to append more. The candidate snapshot advances by it, and
// every fingerprint lineage record relates its candidates to the next
// version's by it.
func survivors(ids, deleted []int, room int) (remap, kept []int) {
	remap = make([]int, len(ids))
	kept = make([]int, 0, len(ids)+room)
	di := 0
	for i, id := range ids {
		for di < len(deleted) && deleted[di] < id {
			di++
		}
		if di < len(deleted) && deleted[di] == id {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		kept = append(kept, id-di)
	}
	return remap, kept
}

// gather returns the table's rows at ids, nil for none.
func gather(table []schema.Row, ids []int) []schema.Row {
	if len(ids) == 0 {
		return nil
	}
	rows := make([]schema.Row, len(ids))
	for i, id := range ids {
		rows[i] = table[id]
	}
	return rows
}

// sight records what a scan found: the first sight of key, or its first
// at a version the entry had no advance to. A concurrent preparation that
// got there first stands.
func (s *candidateStore) sight(key string, version uint64, ids []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(key)
	if !e.sighted || e.version < version {
		e.sighted, e.version, e.ids, e.rows, e.passes, e.hashes, e.next = true, version, ids, nil, nil, nil, nil
	}
	s.evict(e)
}

// entry returns key's snapshot, an empty one when there is none, marked
// used.
func (s *candidateStore) entry(key string) *snapshot {
	e := s.entries[key]
	if e == nil {
		e = &snapshot{}
		s.entries[key] = e
	}
	s.touch(e)
	return e
}

// touch marks e used, and drops an image no sketch evaluation has read for
// imageMaxIdle uses.
func (s *candidateStore) touch(e *snapshot) {
	s.clock++
	e.used = s.clock
	if s.img != nil && s.clock-s.imgRead > imageMaxIdle {
		s.img = nil
	}
}

// evict drops least recently used entries until the store is within its
// bounds, sparing keep, the caller's own: a snapshot that keeps being hit
// outlives any stream of WHEREs nobody repeats, and a wrong eviction costs
// one scan and one rehash.
func (s *candidateStore) evict(keep *snapshot) {
	for {
		total, victim := 0, ""
		var oldest *snapshot
		for k, e := range s.entries {
			total += e.size()
			if e != keep && (oldest == nil || e.used < oldest.used) {
				victim, oldest = k, e
			}
		}
		if oldest == nil || (len(s.entries) <= memoMaxEntries && total <= memoMaxRows) {
			return
		}
		delete(s.entries, victim)
	}
}

// size is what the entry pins, in candidate-length slots: its ids, its
// candidates' hashes and, promoted, a row header and one slot per vector
// its pass store keeps for each candidate. Lineage records hold ids the
// snapshot held and a fingerprint.
func (e *snapshot) size() int {
	n := len(e.ids) + len(e.hashes)
	if e.passes != nil {
		n += len(e.rows) * (1 + e.passes.Kept())
	}
	return n
}

// lineageFor returns shape's lineage record, or for a shape not seen yet
// the newest a sibling shape holds, which it starts from: at the same
// version that hashes nothing, behind it only the writes in between.
func (e *snapshot) lineageFor(shape string) *fingerprint {
	if f := e.lineage[shape]; f != nil {
		return f
	}
	var newest *fingerprint
	for _, f := range e.lineage {
		if newest == nil || f.version > newest.version {
			newest = f
		}
	}
	return newest
}

// retained counts what the store holds beyond ids: candidate row headers
// and pass stores.
func (s *candidateStore) retained() (rows, stores int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		rows += len(e.rows)
		if e.passes != nil {
			stores++
		}
	}
	return rows, stores
}

// candidateHashes returns a RowHash per candidate of prep, which has no
// image to read, and the rows it hashed: the ones the snapshot of key
// keeps at prep's version, the rest — the rows appended since the
// snapshot last kept them, or every row at first — hashed here and kept.
// A selective WHERE's fingerprint thus hashes its candidates once, and
// after a write only the candidates the write appended.
func (s *candidateStore) candidateHashes(key string, prep *Prepared) ([]uint64, int) {
	rows := prep.Instance.Rows
	s.mu.Lock()
	e := s.entries[key]
	var kept []uint64
	if e != nil && e.version == prep.TableVersion && len(e.ids) == len(rows) {
		kept = e.hashes
	}
	s.mu.Unlock()
	if kept != nil && len(kept) == len(rows) {
		return kept, 0
	}
	hs := make([]uint64, len(rows))
	copy(hs, kept)
	for i := len(kept); i < len(rows); i++ {
		hs[i] = sketch.RowHash(rows[i])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e != nil && s.entries[key] == e && e.version == prep.TableVersion && len(e.ids) == len(rows) && len(e.hashes) < len(hs) {
		e.hashes = hs
		s.evict(e)
	}
	return hs, len(rows) - len(kept)
}

// imageAt returns the table's image at version to a caller reading n of
// its rows, with the rows its making hashed when this call made it: the
// store's, or one made from it and the table as it stands now. nil (and
// no error) when the store keeps none at version and the caller may not
// make one: the table has moved past version — the rows at version are
// gone — or n is under 1/imageShare of the table's rows. Neither the build
// nor the advance runs under the store's lock. ctx, which may be nil,
// cancels a build from scratch; an advance runs to its end. delta, when
// not nil, is the caller's read of the delta log since delta.Base and ok
// its success, which an advance from there takes instead of reading the
// log again.
func (s *candidateStore) imageAt(ctx context.Context, t *minidb.Table, version uint64, n int, delta *minidb.TableDelta, ok bool) (*image, int, error) {
	s.mu.Lock()
	if img := s.img; img != nil && img.version == version {
		s.imgRead = s.clock
		s.mu.Unlock()
		return img, 0, nil
	}
	if t.Version() != version || n*imageShare < len(t.Rows) {
		s.mu.Unlock()
		return nil, 0, nil
	}
	step := s.imgStep
	if step == nil || step.to != version {
		step = &imageStep{from: s.img, to: version}
		s.imgStep = step
	}
	s.mu.Unlock()
	made := false
	img, err := step.once.Get(ctx, func() (*image, error) {
		made = true
		return step.run(ctx, t, delta, ok)
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.imgStep == step {
		s.imgStep = nil // a failed step is not kept either: it would pin the image it started from
	}
	if err != nil {
		return nil, 0, err
	}
	if s.img == nil || s.img.version < img.version {
		s.img = img
	}
	s.imgRead = s.clock
	if !made {
		return img, 0, nil
	}
	return img, img.hashed, nil
}

// run makes the step's image from the table, which stands at the step's
// version: advanced from the image before it along the delta log, or,
// when the log cannot explain the gap (aged out, or its read failing) or
// the columns cannot be advanced (search.Columns.Advance), built afresh.
// delta and ok are imageAt's.
func (st *imageStep) run(ctx context.Context, t *minidb.Table, delta *minidb.TableDelta, ok bool) (*image, error) {
	if f := st.from; f != nil {
		if delta == nil || delta.Base != f.version {
			d, dok := t.DeltaSince(f.version)
			delta, ok = &d, dok
		}
		if ok && delta.Current == st.to {
			if cols := f.cols.Advance(t.Rows, delta.Deleted); cols != nil {
				hs := search.Compacted(f.hashes, delta.Deleted, len(t.Rows))
				for i := delta.AppendedStart; i < len(hs); i++ {
					hs[i] = sketch.RowHash(t.Rows[i])
				}
				return &image{version: st.to, hashes: hs, cols: cols, hashed: len(hs) - delta.AppendedStart}, nil
			}
		}
	}
	stop := lifecycle.Poll(ctx)
	hs := make([]uint64, len(t.Rows))
	for i, row := range t.Rows {
		if i%translate.PollRows == 0 {
			if err := lifecycle.ContextErr(ctx); err != nil {
				return nil, err
			}
		}
		hs[i] = sketch.RowHash(row)
	}
	cols := search.Lower(t.Rows, nil, stop)
	if cols == nil {
		return nil, lifecycle.ContextErr(ctx)
	}
	cols.Trim()
	return &image{version: st.to, hashes: hs, cols: cols, hashed: len(hs)}, nil
}
