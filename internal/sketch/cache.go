package sketch

import (
	"container/list"
	"context"
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

// RowHash hashes one candidate row (its width and every cell). core's
// table image keeps one RowHash per table row, hashing only the rows a
// write appends — CombineRowHashesAt folds the kept hashes of any
// candidate set into its Fingerprint without ever re-reading a cell.
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

// CombineRowHashesAt is CombineRowHashes over hs[ids[0]], hs[ids[1]],
// …: the fingerprint of a table's rows at ids, from one RowHash per row
// of the table.
func CombineRowHashesAt(hs []uint64, ids []int) uint64 {
	h := fnvMix(uint64(fnvOffset64), uint64(len(ids)))
	for _, id := range ids {
		h = fnvMix(h, hs[id])
	}
	return h
}

// Fingerprint hashes the candidate rows (order-sensitive, every cell)
// into the cache key. It is linear in the data and not cheap beside the
// build a cache hit skips — byte-serial FNV-1a over every cell's key
// encoding runs at under 4M rows/s on 11-column rows, half the time of
// the columnar tree build over the same candidates — so the engine
// combines the RowHash its table image keeps per row instead (see core's
// fingerprint memo), and only an instance without a table pays it.
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
	flights   map[Key]*lifecycle.Once[Tree] // in-flight tree acquisitions, for coalescing
	hits      int64
	misses    int64
	evictions int64
	coalesced int64
}

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

// do coalesces concurrent acquisitions of the same key onto one fn call,
// on a lifecycle.Once per key in flight: the first caller runs fn and the
// rest share its tree, each waiting only as long as its own context lasts.
// A failed or panicking fn keeps nothing, so a waiter starts it over — one
// caller's cancellation never poisons another's query. The key's Once
// leaves the map when its fn returns, so a later acquisition looks at the
// cache tiers again. Returns the tree, whether this caller joined someone
// else's flight, and the error.
func (c *Cache) do(ctx context.Context, k Key, fn func() (*Tree, error)) (*Tree, bool, error) {
	c.mu.Lock()
	if c.flights == nil {
		c.flights = map[Key]*lifecycle.Once[Tree]{}
	}
	f := c.flights[k]
	if f == nil {
		f = new(lifecycle.Once[Tree])
		c.flights[k] = f
	}
	c.mu.Unlock()
	built := false
	t, err := f.Get(ctx, func() (*Tree, error) {
		built = true
		defer func() {
			c.mu.Lock()
			if c.flights[k] == f {
				delete(c.flights, k)
			}
			c.mu.Unlock()
		}()
		return fn()
	})
	if err != nil {
		return nil, false, err
	}
	if !built {
		c.mu.Lock()
		c.coalesced++
		c.mu.Unlock()
	}
	return t, !built, nil
}
