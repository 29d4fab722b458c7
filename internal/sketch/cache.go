package sketch

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/lifecycle"
	"repro/internal/schema"
)

// DefaultCacheCapacity bounds a Cache when the caller passes no
// capacity of their own.
const DefaultCacheCapacity = 32

// Key identifies one partition tree in the cache: the dataset
// fingerprint plus every knob that shapes the tree. Two evaluations
// share a tree only when they agree on all of them; a write to the
// backing rows changes the fingerprint, so stale trees are never
// served and age out of the LRU instead.
type Key struct {
	Fingerprint uint64 // Fingerprint of the candidate rows
	Attrs       string // partition attributes, comma-joined ordinals
	Tau         int    // leaf size bound
	Depth       int    // tree depth
	Seed        int64  // tie-break seed
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, u uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (u >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// RowHash hashes one candidate row (its width and every cell). The
// fingerprint memo in core caches one RowHash per candidate so
// incremental evaluations rehash only rows a write actually touched —
// CombineRowHashes folds the cached hashes back into a Fingerprint
// without ever re-reading a cell.
func RowHash(row schema.Row) uint64 {
	h := fnvMix(uint64(fnvOffset64), uint64(len(row)))
	for _, v := range row {
		h = fnvMix(h, v.Hash())
	}
	return h
}

// CombineRowHashes folds per-row hashes into the order-sensitive
// dataset fingerprint: Fingerprint(rows) ==
// CombineRowHashes(map(RowHash, rows)) by construction.
func CombineRowHashes(hs []uint64) uint64 {
	h := fnvMix(uint64(fnvOffset64), uint64(len(hs)))
	for _, rh := range hs {
		h = fnvMix(h, rh)
	}
	return h
}

// Fingerprint hashes the candidate rows (order-sensitive, every cell)
// into the cache key. It is linear in the data and not cheap beside the
// build a cache hit skips — byte-serial FNV-1a over every cell's key
// encoding runs at under 4M rows/s on 11-column rows, half the time of
// the columnar tree build over the same candidates — so callers on the
// warm path avoid it by memoizing RowHash per row and recombining (see
// core's fingerprint memo), and only a never-seen WHERE pays it in full.
func Fingerprint(rows []schema.Row) uint64 {
	fp, _ := fingerprintCtx(nil, rows)
	return fp
}

// fingerprintCtx is Fingerprint with a cooperative cancellation check
// every few thousand rows: without the memo this hash runs on every
// solve and is the longest uninterruptible stretch at 1M candidates
// (hundreds of milliseconds), so a canceled query must be able to bail
// out of it. A nil context never errors.
func fingerprintCtx(ctx context.Context, rows []schema.Row) (uint64, error) {
	hs := make([]uint64, len(rows))
	for i, row := range rows {
		if i&8191 == 0 && ctx != nil {
			if err := lifecycle.ContextErr(ctx); err != nil {
				return 0, err
			}
		}
		hs[i] = RowHash(row)
	}
	return CombineRowHashes(hs), nil
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Coalesced int64 // callers served by joining another caller's in-flight build
	Entries   int
}

// String renders the counters in the compact k=v form logs use.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d coalesced=%d entries=%d",
		s.Hits, s.Misses, s.Evictions, s.Coalesced, s.Entries)
}

// Cache is an LRU of partition trees shared across queries (and, in
// pbserver, across requests): repeated workloads over unchanged data
// skip the offline partitioning step entirely. Trees are immutable, so
// a cached tree may be used by many evaluations concurrently. Safe for
// concurrent use.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *cacheEntry
	entries   map[Key]*list.Element
	flights   map[Key]*flight // in-flight tree acquisitions, for coalescing
	hits      int64
	misses    int64
	evictions int64
	coalesced int64
}

// flight is one in-progress tree acquisition other callers can join.
type flight struct {
	done chan struct{} // closed once tree/err are set
	tree *Tree
	err  error
}

// errFlightPanicked is a flight's error until its acquisition returns: a
// builder that panics leaves it, so its joiners retry rather than share
// a tree that does not exist.
var errFlightPanicked = errors.New("sketch: tree acquisition panicked")

type cacheEntry struct {
	key  Key
	tree *Tree
}

// NewCache creates a cache bounded at capacity trees (<=0 uses
// DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		entries:  map[Key]*list.Element{},
	}
}

// Get returns the cached tree for the key, marking it most recently
// used. Every lookup counts toward the hit/miss statistics.
func (c *Cache) Get(k Key) (*Tree, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).tree, true
}

// Peek returns the cached tree for the key without touching the hit/miss
// counters or the LRU order. Acquisition reads a patch's base tree and
// re-checks a coalesced miss with it: a lookup that does not serve the
// query must not masquerade as cache traffic or promote an entry nobody
// used.
func (c *Cache) Peek(k Key) (*Tree, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).tree, true
}

// Put stores a tree, evicting the least recently used entry beyond
// capacity.
func (c *Cache) Put(k Key, t *Tree) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).tree = t
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, tree: t})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len reports the number of cached trees.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Coalesced: c.coalesced, Entries: c.order.Len()}
}

// do coalesces concurrent acquisitions of the same key onto one fn
// call: the first caller becomes the builder and runs fn; the rest
// park on the flight and share its tree. A joiner's context can cancel
// its wait without affecting the builder. When the builder fails (for
// example its own context was canceled), waiting joiners loop and the
// next one retries as the builder — one caller's cancellation never
// poisons another's query. Returns the tree, whether this caller
// joined someone else's flight, and the error.
func (c *Cache) do(ctx context.Context, k Key, fn func() (*Tree, error)) (*Tree, bool, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for {
		c.mu.Lock()
		if c.flights == nil {
			c.flights = map[Key]*flight{}
		}
		if f, ok := c.flights[k]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					c.mu.Lock()
					c.coalesced++
					c.mu.Unlock()
					return f.tree, true, nil
				}
				if ctx != nil && ctx.Err() != nil {
					return nil, false, ctx.Err()
				}
				continue // builder failed; retry, possibly as builder
			case <-ctxDone:
				return nil, false, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{}), err: errFlightPanicked}
		c.flights[k] = f
		c.mu.Unlock()
		defer func() {
			c.mu.Lock()
			delete(c.flights, k)
			c.mu.Unlock()
			close(f.done)
		}()
		f.tree, f.err = fn()
		return f.tree, false, f.err
	}
}
