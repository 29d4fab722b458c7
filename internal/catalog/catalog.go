// Package catalog keeps what the planner reads about a table without
// touching its rows: the row count, the delta-log version it was read at,
// and a write rate derived from how that version moves. A probe costs a
// length and a version read; there are no per-attribute statistics
// because no decision reads any.
//
// The catalog is the planner's "query planner binds against the
// catalog" half of a classic planner split: it answers "how big is this
// table and how hot is it".
package catalog

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/minidb"
)

// writeRateWindow bounds how far back the write-rate estimate looks:
// version observations older than the window are dropped, so a table
// that went quiet decays toward a zero rate instead of remembering a
// burst forever.
const writeRateWindow = 5 * time.Minute

// TableStats is one table's statistics snapshot.
type TableStats struct {
	// Table is the table's declared name.
	Table string `json:"table"`
	// Rows is the current row count.
	Rows int `json:"rows"`
	// Version is the table's delta-log version the snapshot describes.
	Version uint64 `json:"version"`
	// WriteRate estimates write statements per second over the recent
	// observation window (0 when the table looks read-only).
	WriteRate float64 `json:"writeRate"`
}

// entry is the cached per-table state.
type entry struct {
	version uint64 // table version the stats describe
	rows    int
	samples []sample
}

// sample is one (time, version) observation for the write-rate estimate.
type sample struct {
	t time.Time
	v uint64
}

// Catalog caches statistics for the tables of one DB. It is safe for
// concurrent use.
type Catalog struct {
	mu     sync.Mutex
	db     *minidb.DB
	tables map[string]*entry
	now    func() time.Time
}

// New builds an empty catalog over db. Statistics are computed lazily,
// on first Stats probe per table.
func New(db *minidb.DB) *Catalog {
	return &Catalog{db: db, tables: make(map[string]*entry), now: time.Now}
}

// SetClock replaces the catalog's time source; tests use it to make
// write-rate estimates deterministic.
func (c *Catalog) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Stats returns a fresh statistics snapshot for the named table
// (case-insensitive). ok is false for unknown tables.
func (c *Catalog) Stats(table string) (TableStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.db.Table(table)
	if !ok {
		delete(c.tables, strings.ToLower(table))
		return TableStats{}, false
	}
	key := strings.ToLower(t.Name)
	e := c.tables[key]
	if fault.Check("catalog.refresh") != nil {
		// Refresh rung: statistics advise the planner, they never gate
		// correctness — a failed refresh serves the stale snapshot when
		// one exists and reports "no stats" otherwise (the planner then
		// falls back to a minimal row-count snapshot).
		if e == nil {
			return TableStats{}, false
		}
		e.observe(c.now())
		return e.snapshot(t.Name), true
	}
	if e == nil {
		e = &entry{}
		c.tables[key] = e
	}
	e.version, e.rows = t.Version(), len(t.Rows)
	e.observe(c.now())
	return e.snapshot(t.Name), true
}

// All returns snapshots for every table in the DB, sorted by name.
func (c *Catalog) All() []TableStats {
	names := c.db.TableNames()
	sort.Strings(names)
	out := make([]TableStats, 0, len(names))
	for _, n := range names {
		if ts, ok := c.Stats(n); ok {
			out = append(out, ts)
		}
	}
	return out
}

// observe appends a (now, version) sample for the write-rate estimate
// and drops samples older than the window.
func (e *entry) observe(now time.Time) {
	if n := len(e.samples); n > 0 && e.samples[n-1].v == e.version && now.Sub(e.samples[n-1].t) < time.Second {
		return
	}
	e.samples = append(e.samples, sample{t: now, v: e.version})
	cut := 0
	for cut < len(e.samples)-1 && now.Sub(e.samples[cut].t) > writeRateWindow {
		cut++
	}
	if cut > 0 {
		e.samples = append([]sample(nil), e.samples[cut:]...)
	}
}

// writeRate estimates write statements per second from the sample ring:
// version delta over elapsed time between the oldest retained sample
// and now.
func (e *entry) writeRate(now time.Time) float64 {
	if len(e.samples) == 0 {
		return 0
	}
	first := e.samples[0]
	elapsed := now.Sub(first.t).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(e.version-first.v) / elapsed
}

// snapshot renders the public view of the entry.
func (e *entry) snapshot(name string) TableStats {
	ts := TableStats{Table: name, Rows: e.rows, Version: e.version}
	if n := len(e.samples); n > 0 {
		ts.WriteRate = e.writeRate(e.samples[n-1].t)
	}
	return ts
}
