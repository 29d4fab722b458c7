package core

import (
	"sync/atomic"

	"repro/internal/sketch"
)

// FingerprintMemo makes the SketchRefine candidate fingerprint
// incremental. The sketch cache keys on a hash of every candidate
// cell, so a naive evaluation pays an O(n) rehash even on a fully warm
// cache. The table's candidate snapshot of a (table, WHERE) pair
// (candidateStore) carries, once a sketch evaluation has asked, the table
// version the fingerprint was last advanced to together with one RowHash
// per candidate; on the next evaluation Advance asks minidb for the delta
// since that version and:
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

// Advance returns the fingerprint of prep's candidate rows, hashing
// only what changed since the snapshot of this (table, WHERE) pair was
// last advanced, and moves its fingerprint to prep's version. When the
// candidates evolved from the previous fingerprint by a log-explained
// delta, the returned PatchSpec carries the lineage for in-place
// partition-tree patching (nil when nothing changed or no lineage exists).
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
	if e.fp != nil {
		if e.fp.version == prep.TableVersion && len(e.fp.ids) == len(prep.Instance.IDs) {
			m.hits.Add(1)
			return e.fp.fp, nil
		}
		if fp, patch, ok := m.step(e.fp, prep); ok {
			return fp, patch
		}
	}
	// Cold, aged-out, or inexplicable: hash every candidate once and
	// snapshot.
	hs := make([]uint64, len(prep.Instance.Rows))
	for i, row := range prep.Instance.Rows {
		hs[i] = sketch.RowHash(row)
	}
	m.rowsHashed.Add(int64(len(hs)))
	e.fp = &fingerprint{version: prep.TableVersion, ids: prep.Instance.IDs, rowHashes: hs, fp: sketch.CombineRowHashes(hs)}
	return e.fp.fp, nil
}

// step advances an existing snapshot by the table's delta log and
// commits the replayed state into the entry. ok is false when the
// delta aged out of the log or the observed candidates contradict the
// replayed delta (the caller falls back to a full rehash).
func (m *FingerprintMemo) step(e *fingerprint, prep *Prepared) (uint64, *sketch.PatchSpec, bool) {
	fp, newHashes, patch, hashed, ok := replayDelta(e, prep)
	if !ok {
		return 0, nil, false
	}
	m.rowsHashed.Add(int64(hashed))
	if patch == nil {
		m.hits.Add(1) // writes missed the candidates entirely: still zero-rehash warm
	}
	e.version = prep.TableVersion
	e.ids = prep.Instance.IDs
	e.rowHashes = newHashes
	e.fp = fp
	return fp, patch, true
}

// replayDelta replays the table's delta log over an existing snapshot
// without mutating it: deleted candidates drop out of the hash list,
// appended candidates are the only rows hashed, and the remap tying old
// candidate indexes to new ones becomes the patch spec (nil when the
// candidates are unchanged). ok is false when the delta aged out of the
// log or the observed candidates contradict the replayed delta. Shared
// by step (which commits the result) and Probe (which discards it).
func replayDelta(e *fingerprint, prep *Prepared) (fp uint64, newHashes []uint64, patch *sketch.PatchSpec, hashed int, ok bool) {
	delta, dok := prep.Table.DeltaSince(e.version)
	if !dok || delta.Current != prep.TableVersion {
		return 0, nil, nil, 0, false
	}
	inst := prep.Instance
	remap := make([]int, len(e.ids))
	newHashes = make([]uint64, 0, len(inst.IDs))
	di, surv := 0, 0
	for i, id := range e.ids {
		for di < len(delta.Deleted) && delta.Deleted[di] < id {
			di++
		}
		if di < len(delta.Deleted) && delta.Deleted[di] == id {
			remap[i] = -1
			continue
		}
		// Survivors shift down by the deletions before them; the fresh
		// candidate scan must agree, or the delta model does not apply.
		if surv >= len(inst.IDs) || inst.IDs[surv] != id-di {
			return 0, nil, nil, 0, false
		}
		remap[i] = surv
		newHashes = append(newHashes, e.rowHashes[i])
		surv++
	}
	for k := surv; k < len(inst.IDs); k++ {
		if inst.IDs[k] < delta.AppendedStart {
			return 0, nil, nil, 0, false // a "new" candidate from the base region: not append-only
		}
		newHashes = append(newHashes, sketch.RowHash(inst.Rows[k]))
	}
	hashed = len(inst.IDs) - surv
	fp = sketch.CombineRowHashes(newHashes)
	if fp != e.fp {
		patch = &sketch.PatchSpec{BaseFingerprint: e.fp, Remap: remap}
	}
	return fp, newHashes, patch, hashed, true
}

// ProbeResult is Probe's read-only view of what Advance would return.
type ProbeResult struct {
	// Fingerprint is the candidate fingerprint Advance would resolve.
	Fingerprint uint64
	// Base is the previous snapshot's fingerprint a tree patch would
	// start from (0 when no patch lineage exists).
	Base uint64
	// Patchable reports that a patch spec relating Base to Fingerprint
	// exists.
	Patchable bool
	// DeltaFrac is the changed-candidate fraction (deleted + appended
	// over the current candidate count) behind that patch.
	DeltaFrac float64
	// Known reports the memo could resolve the fingerprint from its
	// snapshot (possibly hashing only the delta); false means Advance
	// would fall back to a full O(n) rehash.
	Known bool
}

// Probe reports the fingerprint and patch lineage Advance would
// resolve, WITHOUT committing the new snapshot, bumping the
// lookup/hit counters, or consuming the patch spec. The planner uses
// it to predict the tree source of a sketch run it has not started —
// the actual run's Advance still sees the same lineage.
func (m *FingerprintMemo) Probe(prep *Prepared) ProbeResult {
	if prep.Table == nil {
		return ProbeResult{}
	}
	store := snapshotsOf(prep.Table)
	store.mu.Lock()
	defer store.mu.Unlock()
	var e *fingerprint
	if snap := store.entries[whereKey(prep.Query)]; snap != nil {
		e = snap.fp
	}
	if e == nil {
		return ProbeResult{}
	}
	if e.version == prep.TableVersion && len(e.ids) == len(prep.Instance.IDs) {
		return ProbeResult{Fingerprint: e.fp, Known: true}
	}
	fp, _, patch, _, ok := replayDelta(e, prep)
	if !ok {
		return ProbeResult{}
	}
	pr := ProbeResult{Fingerprint: fp, Known: true}
	if patch != nil {
		deleted := 0
		for _, r := range patch.Remap {
			if r < 0 {
				deleted++
			}
		}
		appended := len(prep.Instance.IDs) - (len(patch.Remap) - deleted)
		pr.Base = e.fp
		pr.Patchable = true
		if n := len(prep.Instance.IDs); n > 0 {
			pr.DeltaFrac = float64(deleted+appended) / float64(n)
		}
	}
	return pr
}
