package core

import (
	"slices"
	"sync/atomic"

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
		if next, patch, ok := m.replay(f, prep); ok {
			if patch == nil {
				m.hits.Add(1) // writes missed the candidates entirely: still zero-rehash warm
			}
			e.lineage[shape] = next
			return next.fp, patch
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

// replay advances a lineage record to prep's version along the table's
// delta log: the survivor remap the candidate snapshot advances by
// (survivors) drops deleted candidates out of the hash list, appended ones
// are the only rows hashed, the fingerprint is refolded from the hashes
// (never re-reading any other cell), and the remap becomes the patch spec
// — nil when the fingerprint did not move. ok is false when the delta aged
// out of the log or the candidates contradict it: every survivor must sit
// where the deletions before it shifted it, and every other candidate must
// have been appended.
func (m *FingerprintMemo) replay(f *fingerprint, prep *Prepared) (*fingerprint, *sketch.PatchSpec, bool) {
	delta, ok := prep.Table.DeltaSince(f.version)
	if !ok || delta.Current != prep.TableVersion {
		return nil, nil, false
	}
	ids := prep.Instance.IDs
	remap, kept := survivors(f.ids, delta.Deleted, 0)
	if len(kept) > len(ids) || !slices.Equal(kept, ids[:len(kept)]) {
		return nil, nil, false
	}
	for _, id := range ids[len(kept):] {
		if id < delta.AppendedStart {
			return nil, nil, false // a "new" candidate from the base region: not append-only
		}
	}
	hs := make([]uint64, len(kept), len(ids))
	for i, j := range remap {
		if j >= 0 {
			hs[j] = f.rowHashes[i]
		}
	}
	for _, row := range prep.Instance.Rows[len(hs):] {
		hs = append(hs, sketch.RowHash(row))
	}
	m.rowsHashed.Add(int64(len(ids) - len(kept)))
	next := &fingerprint{version: prep.TableVersion, ids: ids, rowHashes: hs, fp: sketch.CombineRowHashes(hs)}
	if next.fp == f.fp {
		// Candidates unchanged (the writes missed them, or rows came back
		// exactly as they were): the record's hashes stand, the tree fits.
		next.rowHashes = f.rowHashes
		return next, nil, true
	}
	return next, &sketch.PatchSpec{BaseFingerprint: f.fp, Remap: remap}, true
}
