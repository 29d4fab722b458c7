package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/expr"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/translate"
)

// candidateStore is one table's candidate snapshots, one per WHERE: the
// single owner of "the candidates of (table, WHERE) at version v" and of
// everything computed from them that no constant of a query changes. It
// hangs off the table (minidb.Table.Derived), so every path that resolves
// the table — System.Query, pbserver, the benchmark's trace — reaches
// the same store, and a dropped table or a discarded System takes it
// along; nothing here is package-level.
//
// Three tiers answer a package query before any solver runs, in this
// order: this snapshot (whose tuples pass WHERE, and their selection
// passes), the fingerprint lineage it carries per tree shape for
// FingerprintMemo (which tree those tuples hash to, and which earlier
// tree of that shape a patch starts from), and sketch.Cache (the tree).
type candidateStore struct {
	mu      sync.Mutex
	entries map[string]*snapshot // by whereKey
	clock   uint64               // ticks once per use; the least recently used entry is evicted first
}

// memoMaxEntries bounds a store's entry count and memoMaxRows what its
// entries pin in total, counted in candidate-length slots (snapshot.size):
// an id per candidate at first sight and, once a sketch evaluation asked, a
// row hash — one more per tree shape whose lineage has diverged from its
// siblings'; a promoted entry also a row header per candidate and one slot
// per candidate for each vector its pass store keeps. Entries the table
// has moved past keep theirs until asked again or evicted.
const (
	memoMaxEntries = 32
	memoMaxRows    = 4 << 20
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
	next    *advance          // the advance in flight to a newer version, if any
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
	passes   *translate.Passes          // nil: the entry is promoted by this advance
	once     lifecycle.Once[candidates] // scanned: the appended rows the predicate was evaluated on
}

// errNoDelta reports that the delta log cannot take a snapshot to the
// table's version — it aged out, or its read failed — so the candidates
// are scanned for.
var errNoDelta = errors.New("engine: the delta log does not reach the snapshot's version")

// fingerprint is one tree shape's write lineage: the candidates' row
// hashes at the version that shape's trees were last advanced to, which
// trails the snapshot's by the writes its Advance has not replayed yet.
// A record never changes its slices — an advance makes a new one — so a
// shape first seen where a sibling stands holds the sibling's record.
type fingerprint struct {
	version   uint64
	ids       []int    // candidate row ids at that version
	rowHashes []uint64 // RowHash per candidate, parallel to ids
	fp        uint64   // CombineRowHashes(rowHashes)
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
	scanned int  // table rows the base constraints were evaluated on
	hit     bool // served by the snapshot: no predicate evaluated
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
			e.next = &advance{e: e, from: e.version, to: version, ids: e.ids, passes: e.passes}
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
	e.version, e.ids, e.rows, e.passes = a.to, got.ids, got.passes.Rows(), got.passes
	s.evict(e)
}

// survivors replays a delta's deletions on the candidate ids of its base
// version: deleted holds the table positions gone since, ascending, in that
// version's coordinates (minidb.TableDelta.Deleted). remap[i] is candidate
// i's index among the survivors, or −1 when it was deleted, and kept holds
// the survivors' ids now — each shifted down by the deletions before it —
// with room to append more. The candidate snapshot and every fingerprint
// lineage record advance by it.
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
		e.sighted, e.version, e.ids, e.rows, e.passes, e.next = true, version, ids, nil, nil, nil
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

func (s *candidateStore) touch(e *snapshot) {
	s.clock++
	e.used = s.clock
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

// size is what the entry pins, in candidate-length slots: its ids, the row
// hashes its lineage holds — a hash slice several records share counted
// once — and, promoted, a row header and one slot per vector its pass
// store keeps for each candidate.
func (e *snapshot) size() int {
	var seen []*uint64 // first element of each slice counted; a shape or two
	n := len(e.ids)
	for _, f := range e.lineage {
		if hs := f.rowHashes; len(hs) > 0 && !slices.Contains(seen, &hs[0]) {
			seen = append(seen, &hs[0])
			n += len(hs)
		}
	}
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

// retained counts what the store holds beyond ids and hashes: candidate
// row headers and pass stores.
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
