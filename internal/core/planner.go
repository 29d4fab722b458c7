package core

import (
	"runtime"

	"repro/internal/minidb"
	"repro/internal/plan"
)

// This file is the one resolve step between a query's options and its
// execution: it reads a Prepared query plus its Options into a plan.Input
// (the candidate count, the table's size and version, atom mix from the
// query planner, forced knobs from explicit options) — values only, no
// look at the tree tiers. The resulting plan.Plan is what the strategy
// runners execute — decided knobs never travel back into Options — and
// where the partition tree came from is the run's to record
// (sketch.Result), not the plan's to predict.

// Plan runs the rule-based planner over the prepared query under the
// given options and returns the decision trail — without executing
// anything. EXPLAIN on every surface bottoms out here.
func (p *Prepared) Plan(opts Options) *plan.Plan {
	return plan.New(p.planInput(opts))
}

// planInput reads everything the execution planner looks at.
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
		Rebuild:      !o.SketchIncremental, // on leaves the choice to tree acquisition
		GapTolerance: o.GapTolerance,
	}
	if o.Strategy != Auto {
		f.Strategy = o.Strategy.String()
	}
	return f
}
