package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/minidb"
	"repro/internal/sketch"
)

// FingerprintMemo makes the SketchRefine candidate fingerprint
// incremental. The sketch cache keys on a hash of every candidate
// cell; the engine pays it once per table row, not once per query: the
// table's image (candidateStore) keeps one RowHash per row, made the
// first time a sketch evaluation needs it and advanced along the table's
// delta log — only appended rows are hashed — and a fingerprint combines
// the kept hashes at its candidates' ids. Candidates too few of the
// table's rows to make or advance the image (imageShare) read it only
// where one stands at their version; otherwise their snapshot keeps their
// hashes, carried across writes for the survivors, so a fingerprint
// hashes only the candidates a write appended.
//
// The candidate snapshot of a (table, WHERE) pair carries, once a
// sketch evaluation has asked, one lineage record per tree shape
// (sketch.AttrsOf — the partition attributes a tree is keyed by): the
// table version that shape's fingerprint was last advanced to, with its
// candidates' ids and fingerprint. On the next evaluation of that shape
// Advance asks minidb for the delta since *its* version and:
//
//   - unchanged table → the kept fingerprint is returned outright;
//   - small write batch → the fingerprint is recombined from the image,
//     along with a sketch.PatchSpec relating the new candidates to the
//     old fingerprint, the lineage the sketch engine uses to patch its
//     cached partition tree in place;
//   - anything the delta log cannot explain → the fingerprint is
//     recombined and no patch is offered.
//
// Shapes that alternate over one table therefore each patch their own
// tree: one shape advancing never strands another's lineage. A shape seen
// for the first time starts from the newest sibling record — at the same
// version it shares the sibling's record.
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
// evaluations whose shape's lineage stood where the candidates do — at
// their version, or moved by writes that missed them — and RowsHashed
// the rows whose cells were hashed for the lookups: a table's whole
// image once, then the rows writes appended; a selective WHERE's
// candidates once, then the candidates writes appended; and the
// candidates of a preparation the table has moved past.
type FingerprintMemoStats struct {
	Lookups    int64
	Hits       int64
	RowsHashed int64
}

// Stats snapshots the lookup/hit/hash counters.
func (m *FingerprintMemo) Stats() FingerprintMemoStats {
	return FingerprintMemoStats{Lookups: m.lookups.Load(), Hits: m.hits.Load(), RowsHashed: m.rowsHashed.Load()}
}

// Advance returns the fingerprint of prep's candidate rows and moves the
// lineage of this (table, WHERE) pair and tree shape to prep's version.
// When the candidates evolved from the shape's previous fingerprint by a
// log-explained delta, the returned PatchSpec carries the lineage for
// in-place partition-tree patching (nil when nothing changed or no lineage
// exists): its base is the fingerprint this shape's tree was last built or
// patched at, whatever other shapes have advanced in between. The store's
// lock is not held while the table is imaged.
func (m *FingerprintMemo) Advance(prep *Prepared) (uint64, *sketch.PatchSpec) {
	if prep.Table == nil {
		return sketch.Fingerprint(prep.Instance.Rows), nil
	}
	m.lookups.Add(1)
	store, key, shape := snapshotsOf(prep.Table), whereKey(prep.Query), sketch.AttrsOf(prep.Instance)
	store.mu.Lock()
	f := store.entry(key).lineageFor(shape)
	store.mu.Unlock()

	next, patch, warm := f, (*sketch.PatchSpec)(nil), true
	if f == nil || !f.at(prep) {
		var delta *minidb.TableDelta // since f, read once for the lineage and the image
		ok := false
		if f != nil {
			d, dok := prep.Table.DeltaSince(f.version)
			delta, ok = &d, dok
		}
		next = &fingerprint{version: prep.TableVersion, ids: prep.Instance.IDs, fp: m.combine(store, key, prep, delta, ok)}
		patch, warm = replay(f, next, prep, delta, ok)
	}
	if warm {
		m.hits.Add(1)
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	e := store.entry(key)
	if e.lineage == nil {
		e.lineage = map[string]*fingerprint{}
	}
	e.lineage[shape] = next
	store.evict(e)
	return next.fp, patch
}

// combine is the fingerprint of prep's candidates: their row hashes in
// the table's image at prep's version, combined. Without an image — the
// candidates are too few of the table's rows to make one (imageAt) — the
// candidates' own hashes, which the snapshot of key keeps
// (candidateHashes), are combined.
func (m *FingerprintMemo) combine(store *candidateStore, key string, prep *Prepared, delta *minidb.TableDelta, ok bool) uint64 {
	ids := prep.Instance.IDs
	img, hashed, _ := store.imageAt(nil, prep.Table, prep.TableVersion, len(ids), delta, ok) // no context: nothing cancels it
	if img == nil {
		hs, hashed := store.candidateHashes(key, prep)
		m.rowsHashed.Add(int64(hashed))
		return sketch.CombineRowHashes(hs)
	}
	m.rowsHashed.Add(int64(hashed))
	return sketch.CombineRowHashesAt(img.hashes, ids)
}

// at reports that the record stands at prep's version: its fingerprint is
// prep's.
func (f *fingerprint) at(prep *Prepared) bool {
	return f.version == prep.TableVersion && len(f.ids) == len(prep.Instance.IDs)
}

// replay relates next, prep's record, to f, the shape's record at an
// earlier version, along delta, the table's delta log read since f (ok its
// success; nil when there is no f): the survivor
// remap the candidate snapshot advances by (survivors) becomes the patch
// spec — nil when the fingerprint did not move, which is warm. Both are
// nil and false when there is no earlier record, the delta aged out of
// the log, or the candidates contradict it: every survivor must sit where
// the deletions before it shifted it, and every other candidate must have
// been appended.
func replay(f, next *fingerprint, prep *Prepared, delta *minidb.TableDelta, ok bool) (patch *sketch.PatchSpec, warm bool) {
	if f == nil || !ok || delta.Current != prep.TableVersion {
		return nil, false
	}
	ids := prep.Instance.IDs
	remap, kept := survivors(f.ids, delta.Deleted, 0)
	if len(kept) > len(ids) || !slices.Equal(kept, ids[:len(kept)]) {
		return nil, false
	}
	for _, id := range ids[len(kept):] {
		if id < delta.AppendedStart {
			return nil, false // a "new" candidate from the base region: not append-only
		}
	}
	if next.fp == f.fp {
		// Candidates unchanged (the writes missed them, or rows came back
		// exactly as they were): the tree fits.
		return nil, true
	}
	return &sketch.PatchSpec{BaseFingerprint: f.fp, Remap: remap}, false
}
