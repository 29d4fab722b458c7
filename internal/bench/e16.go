package bench

// E16 measures the certified bound on a BETWEEN-heavy workload — the
// band rows (GE/LE pairs over one weight vector) a grouped relaxation was
// loosest on. One cell per size runs the band query under sketch and
// reports the certified gap of the one certificate there is, the LP
// relaxation over the raw candidates (raw-lp), and the size of the pass
// that found it. It must reach a ≤5% certified gap at the largest
// full-mode size and stay within its counted caps at every size: at most
// bound.MaxColumns master columns and bound.MaxRounds pricing rounds.
// The share of the solve the pass takes is printed, not gated: it is a
// ratio of two clocks.

import (
	"fmt"
	"time"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/search"
	"repro/internal/sketch"
)

// E16Query is the BETWEEN-heavy meal workload: two band constraints on
// correlated columns on top of the COUNT pin. Each band lowers to a
// GE/LE row pair.
const E16Query = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	SUCH THAT COUNT(*) = 3
		AND SUM(P.calories) BETWEEN 2000 AND 2500
		AND SUM(P.fat) BETWEEN 20 AND 200
	MAXIMIZE SUM(P.protein)`

// e16FullTau and e16FullDepth are the partitioning knobs the full-size
// cells run under (E10's too): τ=256 depth-2 trees, so the descent the
// bound is measured against is the coarse one.
const (
	e16FullTau   = 256
	e16FullDepth = 2
)

// RunE16 runs one cell per size. It fails if a pass outgrows its column
// or round cap, or if the largest full-mode cell misses the ≤5% gap.
func RunE16(cfg Config) error {
	sizes := []int{100000, 1000000}
	full := true
	if cfg.Quick {
		sizes = []int{5000, 20000}
		full = false
	}
	fmt.Fprintln(cfg.Out, "== E16: the certified bound on a band query — one LP certificate at every size ==")
	tw := newTable(cfg.Out, "n", "cell", "time", "objective", "bound", "gap", "stage", "rounds", "columns", "bound-share")
	for _, n := range sizes {
		gate := full && n == sizes[len(sizes)-1]
		if err := runE16Cell(cfg, tw, n, full, gate); err != nil {
			tw.Flush() // show the measured rows alongside the gate failure
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "(claim check: every pass within %d master columns and %d pricing rounds; gap ≤ 5%% at the largest full-mode size)\n",
		bound.MaxColumns, bound.MaxRounds)
	return nil
}

// runE16Cell answers the band query at one size and enforces the pass's
// caps (and, when gate is set, the ≤5% gap).
func runE16Cell(cfg Config, tw interface{ Write([]byte) (int, error) }, n int, full, gate bool) error {
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	prep, err := core.Prepare(db, E16Query)
	if err != nil {
		return err
	}
	o := sketch.Options{Seed: cfg.seed()}
	if full {
		o.MaxPartitionSize = e16FullTau
		o.Depth = e16FullDepth
	}
	start := time.Now()
	res, err := prep.Sketch.Solve(o)
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("e16: n=%d: %w", n, err)
	}
	if !res.Feasible || !res.Certified {
		return fmt.Errorf("e16: n=%d: no certified package (feasible=%v certified=%v)", n, res.Feasible, res.Certified)
	}
	// What keeps the pass a small part of the solve at any n is its size,
	// not a clock: a master of a bounded number of columns, and a bounded
	// number of rounds that are each one master solve and one pass over
	// the tuples.
	pr, err := boundPass(prep.Instance)
	if err != nil {
		return fmt.Errorf("e16: n=%d: bound pass: %w", n, err)
	}
	fmt.Fprintf(tw, "%d\tbound/%s\t%s\t%.0f\t%.0f\t%.2f%%\t%s\t%d\t%d\t%.1f%%\n",
		n, res.BoundStage, ms(elapsed), res.Objective, res.Bound, 100*res.Gap,
		res.BoundStage, pr.Rounds, pr.Columns, 100*float64(res.BoundTime)/float64(elapsed))
	if pr.Columns > bound.MaxColumns || pr.Rounds > bound.MaxRounds {
		return fmt.Errorf("e16: n=%d: the bound pass ran %d rounds over %d master columns (caps: %d rounds, %d columns)",
			n, pr.Rounds, pr.Columns, bound.MaxRounds, bound.MaxColumns)
	}
	if gate && res.Gap > 0.05 {
		return fmt.Errorf("e16: n=%d: certified gap %.2f%% exceeds the 5%% acceptance gate", n, 100*res.Gap)
	}
	return nil
}

// boundPass runs the band query's bound pass from outside, as
// sketch.Solve runs it inside, for the rounds and master size the
// engine's stats fold away.
func boundPass(inst *search.Instance) (bound.PipelineResult, error) {
	return bound.Certify(bound.PipelineOptions{
		Atoms: inst.Atoms, ObjW: inst.ObjW, Konst: inst.ObjK, Sense: lp.Maximize,
		TupleHi: func(int) float64 { return float64(inst.MaxMult) },
	})
}
