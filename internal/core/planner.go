package core

import (
	"runtime"

	"repro/internal/fault"
	"repro/internal/minidb"
	"repro/internal/plan"
	"repro/internal/sketch"
)

// This file is the one resolve step between a query's options and its
// execution: it snapshots a Prepared query plus its Options into a
// plan.Input (the table's size and version, atom mix from the query
// planner, forced knobs from explicit options, cache state from a live
// probe). The resulting plan.Plan is what the strategy runners execute —
// decided knobs never travel back into Options.

// Plan runs the cost-based planner over the prepared query under the
// given options and returns the decision trail — without executing
// anything. EXPLAIN on every surface bottoms out here.
func (p *Prepared) Plan(opts Options) *plan.Plan {
	return plan.New(p.planInput(opts))
}

// planInput snapshots everything the execution planner looks at.
func (p *Prepared) planInput(opts Options) plan.Input {
	branches, sketchErr := p.Sketch.Applicable()
	in := plan.Input{
		Table:       tableStats(p.Table),
		N:           len(p.Instance.Rows),
		RowsScanned: p.RowsScanned,
		SnapshotHit: p.SnapshotHit,
		MaxMult:     p.Instance.MaxMult,
		Mix:         plan.AnalyzeAtoms(p.Analysis, branches, sketchErr),
		Procs:       runtime.GOMAXPROCS(0),
		Forced:      opts.forcedKnobs(),
		Probe:       p.cacheProbe(opts),
	}
	if p.Query != nil {
		in.Query = p.Query.Raw
	}
	return in
}

// tableStats is what the planner echoes about a table: its declared
// name, row count and delta-log version — a length and a version read.
func tableStats(t *minidb.Table) plan.TableStats {
	return plan.TableStats{Table: t.Name, Rows: len(t.Rows), Version: t.Version()}
}

// Catalog is a stateless view of a database's table statistics, kept as
// the signature the benchmark's layer trace calls. The engine reads
// Prepared.Table instead and never consults Options.Catalog.
type Catalog struct{ DB *minidb.DB }

// Stats returns the named table's statistics (case-insensitive); ok is
// false for an unknown table.
func (c *Catalog) Stats(name string) (plan.TableStats, bool) {
	t, ok := c.DB.Table(name)
	if !ok {
		return plan.TableStats{}, false
	}
	return tableStats(t), true
}

// forcedKnobs lifts explicitly-set options into the plan's forced set,
// so the planner echoes them back marked "forced" instead of deciding.
func (o Options) forcedKnobs() plan.Forced {
	f := plan.Forced{
		Tau:          o.SketchPartitionSize,
		Depth:        o.SketchDepth,
		Rebuild:      !o.SketchIncremental, // on leaves the choice to the planner
		GapTolerance: o.GapTolerance,
	}
	if o.Strategy != Auto {
		f.Strategy = o.Strategy.String()
	}
	return f
}

// sketchTiers resolves the partition-tree cache and fingerprint memo an
// evaluation uses: the options' own, else the Prepared's defaults, with
// SketchNoCache suppressing both — the one place that opt-out is
// honoured. The cache probe and the sketch runner both resolve through
// here, so the plan is made against the tiers the execution reads.
func (p *Prepared) sketchTiers(opts Options) (*sketch.Cache, *FingerprintMemo) {
	if opts.SketchNoCache {
		return nil, nil
	}
	cache, memo := opts.SketchCache, opts.SketchMemo
	if cache == nil {
		cache = p.SketchCache
	}
	if memo == nil {
		memo = p.SketchMemo
	}
	return cache, memo
}

// cacheProbe builds the planner's cache-state probe: given the (τ,
// depth) the planner intends, report whether a tree for the resulting
// key is warm in memory, persisted on disk, or patchable from lineage.
// Nil (assume cold) when no cache, store, or memo is in play — without
// a memoized fingerprint the probe would cost an O(n) hash, which a
// plan must never do.
func (p *Prepared) cacheProbe(opts Options) func(tau, depth int) plan.CacheState {
	cache, memo := p.sketchTiers(opts)
	if memo == nil || (cache == nil && opts.SketchPersistDir == "") {
		return nil
	}
	probe := func(tau, depth int) plan.CacheState {
		var cs plan.CacheState
		pr := memo.Probe(p)
		if !pr.Known {
			return cs
		}
		// Changed candidates have no fingerprint yet (Advance folds it), so
		// the key probed is the base tree's, the one a patch starts from.
		fp := pr.Fingerprint
		if pr.Patchable {
			fp = pr.Base
		}
		key := sketch.KeyFor(p.Instance, sketch.Options{
			MaxPartitionSize: tau,
			Depth:            depth,
			Seed:             opts.Seed,
			Fingerprint:      &fp,
		})
		var store *sketch.Store
		if opts.SketchPersistDir != "" {
			store = sketch.NewStore(opts.SketchPersistDir)
		}
		var warm *sketch.Tree
		if cache != nil {
			warm, _ = cache.Peek(key)
		}
		onDisk := func() bool { return store != nil && store.Contains(key) }
		switch {
		case !pr.Patchable:
			cs.InCache = warm != nil
			cs.OnDisk = !cs.InCache && onDisk()
		case warm != nil || onDisk():
			// A base only on disk is not read for its drift: the plan
			// predicts a patch, and ApplyDelta still refuses past the budget.
			cs.Patchable, cs.Delta = true, pr.Delta
			if warm != nil {
				cs.Drift = warm.Drift
			}
		}
		return cs
	}
	// Probe rung of the degradation ladder: a probe that fails (or
	// panics) yields "assume cold" — the plan degrades to predicting a
	// full build, the query itself is untouched.
	return func(tau, depth int) (cs plan.CacheState) {
		defer func() {
			if recover() != nil {
				cs = plan.CacheState{ProbeFailed: true}
			}
		}()
		if fault.Check("plan.probe") != nil {
			return plan.CacheState{ProbeFailed: true}
		}
		return probe(tau, depth)
	}
}
