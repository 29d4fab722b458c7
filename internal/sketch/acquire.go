package sketch

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/search"
)

// origin says where the partition tree a solve descended came from. It
// describes the last acquisition of the run: a retry that rebuilds
// replaces what an earlier attempt recorded.
type origin struct {
	CacheHit     bool `json:"sketchCacheHit"`     // partition tree served from the cache
	TreeLoaded   bool `json:"sketchTreeLoaded"`   // partition tree loaded from the on-disk store
	TreePatched  bool `json:"sketchTreePatched"`  // stale tree patched in place via ApplyDelta
	Coalesced    bool `json:"sketchCoalesced"`    // tree acquisition joined another solve's in-flight build
	DeltaApplied int  `json:"sketchDeltaApplied"` // tuples the patch inserted plus deleted
}

// tree memoizes partition-tree acquisition across the branch descents
// and bound passes of one run: every DNF branch shares the same
// candidates and split attributes, so one (τ, depth) tree serves them
// all, and the record's origin reflects real acquisitions, never
// intra-run reuse.
func (s *solver) tree(tau, depth int) (*Tree, error) {
	k := [2]int{tau, depth}
	if t, ok := s.trees[k]; ok {
		return t, nil
	}
	o := s.opts
	o.MaxPartitionSize, o.Depth = tau, depth
	t, from, err := s.acquire(o)
	if err != nil {
		return nil, err
	}
	s.res.origin = from
	// Patched provenance is sticky across acquisitions — whether
	// ApplyDelta ran here or a patched-born tree arrived via the cache or
	// the store — because the parity retry keys on it.
	s.patchedAny = s.patchedAny || t.Drift > 0
	if s.trees == nil {
		s.trees = map[[2]int]*Tree{}
	}
	s.trees[k] = t
	return t, nil
}

// acquire fetches the partition tree for o's (τ, depth) from the
// in-memory cache, then from the on-disk store, then — when
// Options.Patch supplies lineage — by patching the previous dataset's
// tree in place, and only then builds it (populating both tiers). The
// key fingerprints the candidate rows, so any change to the backing data
// misses in both tiers; with a Patch the stale tree is repaired via
// ApplyDelta and re-persisted, without one a rebuild overwrites it.
//
// Concurrent misses on the same key coalesce onto one acquisition (see
// Cache.do): joiners share the winner's tree and report Coalesced. A
// canceled acquisition returns a lifecycle.ErrCanceled wrap and writes
// nothing to either cache tier — the incomplete tree a canceled build
// returns is discarded here, never published.
func (s *solver) acquire(o Options) (*Tree, origin, error) {
	var from origin
	var store *Store
	if o.PersistDir != "" {
		store = NewStore(o.PersistDir)
	}
	if o.Cache == nil && store == nil {
		t, err := s.buildFresh(o, nil, Key{})
		return t, from, err
	}
	key, err := keyForCtx(s.inst, o)
	if err != nil {
		return nil, from, err
	}
	if s.rebuild {
		t, err := s.buildFresh(o, store, key)
		return t, from, err
	}
	// Cache rung of the degradation ladder: a failed probe bypasses the
	// in-memory tier for this acquisition (disk, patch, and build still
	// run) rather than failing the query.
	cacheOK := o.Cache != nil
	if cacheOK {
		if ferr := fault.Check("sketch.cache.get"); ferr != nil {
			cacheOK = false
			s.res.degrade("cache", fmt.Sprintf("probe failed (%v); bypassed for this query", ferr))
		}
	}
	if cacheOK {
		if t, ok := o.Cache.Get(key); ok {
			from.CacheHit = true
			return t, from, nil
		}
	}
	miss := func() (*Tree, error) {
		// The flight's winner may have populated the cache between this
		// caller's miss and its grant; re-check before doing real work.
		// Peek, not Get: the one recorded miss already describes this
		// acquisition, a second lookup must not skew the counters.
		if cacheOK {
			if t, ok := o.Cache.Peek(key); ok {
				from.CacheHit = true
				return t, nil
			}
		}
		if store != nil {
			t, err := store.Load(key)
			if err == nil && t != nil {
				err = t.validateAgainst(s.inst.Rows)
			}
			switch {
			case err != nil:
				// Corrupt, truncated, stale, or instance-mismatched files are
				// a rebuild, never a failure: the build below overwrites them.
				s.note("persisted partition tree unusable (%v); rebuilding", err)
				s.res.degrade("store", fmt.Sprintf("persisted tree unusable (%v); rebuilt", err))
			case t != nil:
				from.TreeLoaded = true
				if cacheOK {
					s.publish(o.Cache, key, t)
				}
				return t, nil
			}
		}
		if t, delta := s.patchStale(o, key, store); t != nil {
			from.TreePatched, from.DeltaApplied = true, delta
			return t, nil
		}
		return s.buildFresh(o, store, key)
	}
	if o.Cache == nil {
		t, err := miss()
		return t, from, err
	}
	t, coalesced, err := o.Cache.do(o.Ctx, key, miss)
	if err != nil {
		if o.Ctx != nil && o.Ctx.Err() != nil {
			err = lifecycle.Canceled(o.Ctx.Err())
		}
		return nil, from, err
	}
	from.Coalesced = coalesced
	return t, from, nil
}

// buildFresh runs the offline build and publishes the result to both
// cache tiers — unless the context was canceled mid-build, in which
// case the incomplete tree is dropped on the floor and an error
// returned, keeping cache and store consistent.
func (s *solver) buildFresh(o Options, store *Store, key Key) (*Tree, error) {
	t := BuildTree(s.inst, o)
	if err := lifecycle.ContextErr(o.Ctx); err != nil {
		return nil, err
	}
	s.publish(o.Cache, key, t)
	if store != nil {
		if err := store.Save(key, t); err != nil {
			s.note("could not persist partition tree: %v", err)
			s.res.degrade("store", fmt.Sprintf("tree not persisted (%v); disk tier cold for this key", err))
		}
	}
	return t, nil
}

// publish puts a tree in the in-memory tier unless the publish fault
// site fires; publication is optional, so a failure only degrades (the
// tree still serves this query and the disk tier).
func (s *solver) publish(c *Cache, key Key, t *Tree) {
	if c == nil {
		return
	}
	if ferr := fault.Check("sketch.cache.put"); ferr != nil {
		s.res.degrade("cache", fmt.Sprintf("publish failed (%v); tree not cached", ferr))
		return
	}
	c.Put(key, t)
}

// patchStale attempts incremental maintenance on an exact-key miss: the
// tree cached (or persisted) for the pre-write dataset — the base
// fingerprint in Options.Patch — is patched to cover the current
// candidates (ApplyDelta over the instance's pass store, whose folds
// give the insert router its scales), stored under the new key, and re-persisted
// atomically. Returns the patched tree and the tuples the patch touched,
// or nil when there is no lineage, no base tree, or the patch refuses —
// past the tree's drift budget, or a delta it cannot absorb locally — and
// the caller then rebuilds. A refusal is noted with its reason: this is
// the one place patch-vs-rebuild is decided, so the note is the record.
//
// Patching is the first rung above a rebuild, so every failure mode —
// an injected fault, or a panic out of ApplyDelta on a tree that
// decoded cleanly but trips an invariant — degrades to "no patch" and
// lets the caller rebuild from scratch, never fails the query.
func (s *solver) patchStale(o Options, key Key, store *Store) (t *Tree, delta int) {
	defer func() {
		if r := recover(); r != nil {
			s.res.degrade("patch", fmt.Sprintf("delta patch panicked (%v); rebuilding from scratch", r))
			t = nil
		}
	}()
	if o.Patch == nil || key.Fingerprint == o.Patch.BaseFingerprint {
		return nil, 0
	}
	if o.stopped() {
		// A canceled solve must not publish a patched tree; report "no
		// patch" and let the build path surface the cancellation.
		return nil, 0
	}
	if ferr := fault.Check("sketch.tree.patch"); ferr != nil {
		s.res.degrade("patch", fmt.Sprintf("delta patch failed (%v); rebuilding from scratch", ferr))
		return nil, 0
	}
	baseKey := key
	baseKey.Fingerprint = o.Patch.BaseFingerprint
	var base *Tree
	if o.Cache != nil {
		// Peek, not Get: the base is an input to the patch, not the tree
		// this query is served; the acquisition's one miss already counted.
		base, _ = o.Cache.Peek(baseKey)
	}
	if base == nil && store != nil {
		base, _ = store.Load(baseKey)
	}
	if base == nil {
		return nil, 0
	}
	patched, err := base.patch(s.inst, o.Patch.Remap, o)
	if err != nil {
		s.note("stale partition tree %v; rebuilding", err)
		return nil, 0
	}
	s.publish(o.Cache, key, patched)
	if store != nil {
		if err := store.Save(key, patched); err != nil {
			s.note("could not persist patched partition tree: %v", err)
			s.res.degrade("store", fmt.Sprintf("patched tree not persisted (%v)", err))
		}
	}
	return patched, o.Patch.DeltaSize(len(s.inst.Rows))
}

// KeyFor resolves the cache/store key an evaluation with these options
// uses for the instance: the candidate fingerprint (Options.Fingerprint
// when precomputed) plus every knob that shapes the tree. Exported for
// benchmarks and tooling that pre-seed the cache.
func KeyFor(inst *search.Instance, opts Options) Key {
	opts.Ctx = nil // tool callers want the key, not a cancellation point
	key, _ := keyForCtx(inst, opts)
	return key
}

// keyForCtx is KeyFor with the solve's context threaded into the O(n)
// fingerprint hash, so a canceled evaluation bails out of the hash
// instead of finishing it (the dominant per-solve cost at 1M rows when
// no memo precomputes the fingerprint).
func keyForCtx(inst *search.Instance, opts Options) (Key, error) {
	fp := uint64(0)
	if opts.Fingerprint != nil {
		fp = *opts.Fingerprint
	} else {
		var err error
		if fp, err = fingerprintCtx(opts.Ctx, inst.Rows); err != nil {
			return Key{}, err
		}
	}
	return Key{
		Fingerprint: fp,
		Attrs:       AttrsOf(inst),
		Tau:         opts.tau(),
		Depth:       opts.depth(),
		Seed:        opts.Seed,
	}, nil
}

// AttrsOf is the shape of the trees built over inst: its partition
// attributes, encoded as Key.Attrs. core's fingerprint memo keeps one
// write lineage per shape, so each tree walks the writes since its own
// version.
func AttrsOf(inst *search.Instance) string { return joinAttrs(partitionAttrs(inst)) }

// joinAttrs renders split attributes as Key.Attrs: comma-joined ordinals.
func joinAttrs(attrs []int) string {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = strconv.Itoa(a)
	}
	return strings.Join(parts, ",")
}
