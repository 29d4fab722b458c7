package core

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/sketch"
)

// FingerprintMemo makes the SketchRefine candidate fingerprint
// incremental. The sketch cache keys on a hash of every candidate
// cell, so a naive evaluation pays an O(n) rehash even on a fully warm
// cache. The table's candidate snapshot of a (table, WHERE) pair
// (candidateStore) carries, once a sketch evaluation has asked, one
// lineage record per tree shape (sketch.AttrsOf — the partition
// attributes a tree is keyed by): the table version that shape's
// fingerprint was last advanced to together with one RowHash per
// candidate. On the next evaluation of that shape Advance asks minidb for
// the delta since *its* version and:
//
//   - unchanged table → the kept fingerprint is returned outright,
//     with zero candidate hashing;
//   - small write batch → only the appended rows are hashed, deleted
//     candidates are dropped from the kept hash list, and the
//     fingerprint is recombined from per-row hashes (never re-reading
//     a cell) — along with a sketch.PatchSpec relating the new
//     candidates to the old fingerprint, the lineage the sketch engine
//     uses to patch its cached partition tree in place;
//   - anything the delta log cannot explain → full rehash, as before.
//
// Shapes that alternate over one table therefore each patch their own
// tree: one shape advancing never strands another's lineage. A shape seen
// for the first time starts from the newest sibling record — at the same
// version it shares the sibling's slices and hashes nothing.
//
// The memo itself is a view: it holds the counters of the evaluations
// that went through it and no state of its own, so two memos over one
// table see the same snapshots. Safe for concurrent use. Share one memo
// per System/server, next to the partition-tree cache.
type FingerprintMemo struct {
	lookups    atomic.Int64
	hits       atomic.Int64
	rowsHashed atomic.Int64
}

// NewFingerprintMemo returns a memo with its counters at zero.
func NewFingerprintMemo() *FingerprintMemo { return &FingerprintMemo{} }

// FingerprintMemoStats snapshots memo effectiveness: Hits counts
// evaluations that returned a fingerprint with zero hashing, and
// RowsHashed the candidate rows whose cells were actually hashed
// across all lookups (the quantity incremental maintenance drives
// toward the write volume, away from n per query).
type FingerprintMemoStats struct {
	Lookups    int64
	Hits       int64
	RowsHashed int64
}

// Stats snapshots the lookup/hit/hash counters.
func (m *FingerprintMemo) Stats() FingerprintMemoStats {
	return FingerprintMemoStats{Lookups: m.lookups.Load(), Hits: m.hits.Load(), RowsHashed: m.rowsHashed.Load()}
}

// Advance returns the fingerprint of prep's candidate rows, hashing only
// what changed since the lineage of this (table, WHERE) pair and tree
// shape was last advanced, and moves that lineage to prep's version. When
// the candidates evolved from the shape's previous fingerprint by a
// log-explained delta, the returned PatchSpec carries the lineage for
// in-place partition-tree patching (nil when nothing changed or no lineage
// exists): its base is the fingerprint this shape's tree was last built or
// patched at, whatever other shapes have advanced in between.
func (m *FingerprintMemo) Advance(prep *Prepared) (uint64, *sketch.PatchSpec) {
	if prep.Table == nil {
		return sketch.Fingerprint(prep.Instance.Rows), nil
	}
	store := snapshotsOf(prep.Table)
	store.mu.Lock()
	defer store.mu.Unlock()
	m.lookups.Add(1)
	e := store.entry(whereKey(prep.Query))
	defer store.evict(e)
	if e.lineage == nil {
		e.lineage = map[string]*fingerprint{}
	}
	shape := sketch.AttrsOf(prep.Instance)
	if f := e.lineageFor(shape); f != nil {
		if f.at(prep) {
			m.hits.Add(1)
			e.lineage[shape] = f
			return f.fp, nil
		}
		if r, ok := f.advance(prep); ok {
			if next, patch, ok := r.apply(f, prep.Instance.Rows); ok {
				m.rowsHashed.Add(int64(r.appended))
				if patch == nil {
					m.hits.Add(1) // writes missed the candidates entirely: still zero-rehash warm
				}
				e.lineage[shape] = next
				return next.fp, patch
			}
		}
	}
	// Cold, aged-out, or inexplicable: hash every candidate once and
	// snapshot.
	hs := make([]uint64, len(prep.Instance.Rows))
	for i, row := range prep.Instance.Rows {
		hs[i] = sketch.RowHash(row)
	}
	m.rowsHashed.Add(int64(len(hs)))
	f := &fingerprint{version: prep.TableVersion, ids: prep.Instance.IDs, rowHashes: hs, fp: sketch.CombineRowHashes(hs)}
	e.lineage[shape] = f
	return f.fp, nil
}

// at reports that the record stands at prep's version: its fingerprint is
// prep's, with nothing to hash.
func (f *fingerprint) at(prep *Prepared) bool {
	return f.version == prep.TableVersion && len(f.ids) == len(prep.Instance.IDs)
}

// advance reads the table's delta log against the record up to prep's
// version — or hands back the replay Probe kept for that version, so a
// planned query reads its delta once.
func (f *fingerprint) advance(prep *Prepared) (*replay, bool) {
	if r := f.probed; r != nil && r.version == prep.TableVersion && len(r.ids) == len(prep.Instance.IDs) {
		return r, true
	}
	return replayDelta(f, prep)
}

// replayDelta reads the table's delta log against a lineage record: the
// positions deleted since its version and how many of them were its
// candidates, found by search, not by walking the record. ok is false when
// the delta aged out of the log or the candidates at the new version
// cannot be the survivors followed by appended rows.
func replayDelta(f *fingerprint, prep *Prepared) (*replay, bool) {
	delta, ok := prep.Table.DeltaSince(f.version)
	if !ok || delta.Current != prep.TableVersion {
		return nil, false
	}
	r := &replay{version: prep.TableVersion, ids: prep.Instance.IDs, deleted: delta.Deleted}
	for _, pos := range delta.Deleted {
		if k := sort.SearchInts(f.ids, pos); k < len(f.ids) && f.ids[k] == pos {
			r.dropped++
		}
	}
	kept := len(f.ids) - r.dropped
	if kept > len(r.ids) {
		return nil, false
	}
	for _, id := range r.ids[kept:] {
		if id < delta.AppendedStart {
			return nil, false // a "new" candidate from the base region: not append-only
		}
	}
	r.appended = len(r.ids) - kept
	return r, true
}

// apply advances the record by the replay, rows being the candidates at
// its version: the survivor remap the candidate snapshot advances by
// (survivors) drops deleted candidates out of the hash list, appended ones
// are the only rows hashed, the fingerprint is refolded from the hashes
// (never re-reading any other cell), and the remap becomes the patch spec
// — nil when the fingerprint did not move. ok is false when the candidates
// contradict the log: every survivor must sit where the deletions before
// it shifted it.
func (r *replay) apply(f *fingerprint, rows []schema.Row) (*fingerprint, *sketch.PatchSpec, bool) {
	remap, kept := survivors(f.ids, r.deleted, 0)
	if len(kept) > len(r.ids) || !slices.Equal(kept, r.ids[:len(kept)]) {
		return nil, nil, false
	}
	hs := make([]uint64, len(kept), len(r.ids))
	for i, j := range remap {
		if j >= 0 {
			hs[j] = f.rowHashes[i]
		}
	}
	for _, row := range rows[len(hs):] {
		hs = append(hs, sketch.RowHash(row))
	}
	next := &fingerprint{version: r.version, ids: r.ids, rowHashes: hs, fp: sketch.CombineRowHashes(hs)}
	if next.fp == f.fp {
		// Candidates unchanged (the writes missed them, or rows came back
		// exactly as they were): the record's hashes stand, the tree fits.
		next.rowHashes = f.rowHashes
		return next, nil, true
	}
	return next, &sketch.PatchSpec{BaseFingerprint: f.fp, Remap: remap}, true
}

// ProbeResult is Probe's read-only view of what Advance would return.
type ProbeResult struct {
	// Fingerprint is the candidate fingerprint Advance would resolve when
	// the candidates are the ones of the lineage's version; 0 when they
	// changed (Patchable): Advance folds it, and no tree is keyed by it
	// unless the candidates returned exactly to an earlier state.
	Fingerprint uint64
	// Base is the fingerprint this tree shape was last advanced to, which
	// a tree patch would start from (0 when no patch lineage exists).
	Base uint64
	// Patchable reports that a patch spec relating Base to Fingerprint
	// exists.
	Patchable bool
	// Delta is the changed-candidate count (deleted + appended) behind
	// that patch: the step Tree.ApplyDelta adds to the base tree's drift.
	Delta int
	// Known reports the memo could resolve the fingerprint from its
	// snapshot (possibly hashing only the delta); false means Advance
	// would fall back to a full O(n) rehash — as it also does, Known or
	// not, should the candidate scan contradict the log.
	Known bool
}

// Probe reports the fingerprint and patch lineage Advance would resolve
// for prep's tree shape, WITHOUT committing it, bumping the lookup/hit
// counters, or consuming the patch spec. The planner uses it to predict
// the tree source of a sketch run it has not started. The replay it makes
// reads the log, not the record — a search per deleted position, so a plan
// costs no pass over the candidates — and is kept beside the record it
// started from, never committed: the run's Advance at the same version
// applies it instead of reading the log a second time, and walks the
// survivors then, as it must to build the new hash list.
func (m *FingerprintMemo) Probe(prep *Prepared) ProbeResult {
	if prep.Table == nil {
		return ProbeResult{}
	}
	store := snapshotsOf(prep.Table)
	store.mu.Lock()
	defer store.mu.Unlock()
	snap := store.entries[whereKey(prep.Query)]
	if snap == nil {
		return ProbeResult{}
	}
	f := snap.lineageFor(sketch.AttrsOf(prep.Instance))
	if f == nil {
		return ProbeResult{}
	}
	if f.at(prep) {
		return ProbeResult{Fingerprint: f.fp, Known: true}
	}
	r, ok := f.advance(prep)
	if !ok {
		return ProbeResult{}
	}
	f.probed = r
	delta := r.dropped + r.appended
	if delta == 0 {
		return ProbeResult{Fingerprint: f.fp, Known: true}
	}
	return ProbeResult{Base: f.fp, Patchable: true, Delta: delta, Known: true}
}
