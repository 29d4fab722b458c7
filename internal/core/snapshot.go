package core

import (
	"context"
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
	seen    uint64               // newest table version a preparation has come in at
}

// memoMaxEntries bounds a store's entry count and memoMaxRows the
// candidates its entries describe in total. An entry costs two machine
// words per candidate at first sight (an id and, once a sketch evaluation
// asked, a row hash — one more per tree shape whose lineage has diverged
// from its siblings'); a promoted one also holds a row header and a number
// and a flag per selection folded.
const (
	memoMaxEntries = 32
	memoMaxRows    = 4 << 20
)

// snapshot is what one (table, WHERE) pair keeps. It is made at first
// sight with what costs two words a candidate — a WHERE nobody repeats
// leaves nothing else behind — and promoted to hold the candidate rows
// and their pass store when the same pair comes in again at the same
// version: from then on a preparation evaluates no predicate and folds no
// selection an earlier one folded. A write moves the table's version, and
// the first preparation to notice drops every entry's rows and passes; the
// fingerprint half keeps a version per tree shape, which is what lets
// FingerprintMemo replay the delta between each shape's version and now.
type snapshot struct {
	used    uint64
	sighted bool   // a scan has filled version and ids in
	version uint64 // table version ids, rows and passes were taken at
	ids     []int  // candidate row ids (positions) at that version
	rows    []schema.Row
	passes  *translate.Passes // over rows; nil until promoted
	// lineage is FingerprintMemo's half: one record per tree shape
	// (sketch.AttrsOf), empty until a sketch evaluation asked.
	lineage map[string]*fingerprint
}

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
	probed    *replay  // Probe's replay of this record to a newer version, for Advance to commit
}

// replay is what the table's delta log says happened to a lineage
// record's candidates up to a newer version: which positions were
// deleted, how many of them were candidates, and — the rest of the
// candidates at that version — what was appended. It is the delta alone,
// read without walking the record, so Probe can keep one beside the
// record for Advance to apply.
type replay struct {
	version  uint64
	ids      []int // candidate row ids at version
	deleted  []int // the table positions deleted since the record's version, ascending
	dropped  int   // how many of them were the record's candidates
	appended int   // candidates at version past the survivors: the rows to hash
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
// (table, WHERE) when it stands at that version, else by a scan, which
// leaves the snapshot its ids. Like every read of Table.Rows it must not
// race a write.
func candidatesOf(ctx context.Context, table *minidb.Table, q *paql.Query) (candidates, error) {
	store, key, version := snapshotsOf(table), whereKey(q), table.Version()
	if c, ok := store.lookup(key, version, table.Rows); ok {
		return c, nil
	}
	var rows []schema.Row
	var ids []int
	for rid, row := range table.Rows {
		if rid%translate.PollRows == 0 {
			if err := lifecycle.ContextErr(ctx); err != nil {
				return candidates{}, err
			}
		}
		if q.Where != nil {
			ok, err := expr.EvalBool(q.Where, row)
			if err != nil {
				return candidates{}, fmt.Errorf("engine: base constraint: %w", err)
			}
			if !ok {
				continue
			}
		}
		rows = append(rows, row)
		ids = append(ids, rid)
	}
	store.sight(key, version, ids)
	return candidates{passes: translate.NewPasses(rows), ids: ids, scanned: len(table.Rows)}, nil
}

// lookup serves the candidates of key at version from its snapshot,
// promoting it on second sight: the rows are gathered by id, not scanned
// for, and get the pass store every later preparation will share.
func (s *candidateStore) lookup(key string, version uint64, table []schema.Row) (candidates, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(version)
	e := s.entries[key]
	if e == nil || !e.sighted || e.version != version {
		return candidates{}, false
	}
	s.touch(e)
	if e.passes == nil {
		if len(e.ids) > 0 {
			e.rows = make([]schema.Row, len(e.ids))
			for i, id := range e.ids {
				e.rows[i] = table[id]
			}
		}
		e.passes = translate.NewPasses(e.rows)
	}
	return candidates{passes: e.passes, ids: e.ids, hit: true}, true
}

// sight records what a scan found: the first sight of key, or its first
// since a write. A concurrent preparation that got there first stands.
func (s *candidateStore) sight(key string, version uint64, ids []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(version)
	e := s.entry(key)
	if !e.sighted || e.version != version {
		e.sighted, e.version, e.ids, e.rows, e.passes = true, version, ids, nil, nil
	}
	s.evict(e)
}

// advance notes the table version a preparation came in at; the first one
// past a write drops the rows and passes every entry holds for the old
// version, whether or not its WHERE is ever asked again.
func (s *candidateStore) advance(version uint64) {
	if version <= s.seen {
		return
	}
	s.seen = version
	for _, e := range s.entries {
		e.rows, e.passes = nil, nil
	}
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

// size is the number of candidates the entry describes: its ids, or the
// row hashes its lineage holds when they are more, a hash slice that
// several records share counted once.
func (e *snapshot) size() int {
	var seen []*uint64 // first element of each slice counted; a shape or two
	hashes := 0
	for _, f := range e.lineage {
		if hs := f.rowHashes; len(hs) > 0 && !slices.Contains(seen, &hs[0]) {
			seen = append(seen, &hs[0])
			hashes += len(hs)
		}
	}
	return max(len(e.ids), hashes)
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
