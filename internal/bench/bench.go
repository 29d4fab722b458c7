// Package bench is the experiment harness behind cmd/pbench and the
// root-level Go benchmarks. The 2014 demo paper contains one figure
// (the interface) and no numeric tables, so — per DESIGN.md §4 — each
// experiment reproduces one quantitative claim from the paper's text:
//
//	F1  §Fig.1  the interface: template, suggestions, 2-D summary
//	E1  §4.1    cardinality pruning shrinks 2^n to Σ C(n,k), losslessly
//	E2  §4,7    strategy runtimes and their crossovers
//	E3  §4.2    k-replacement SQL joins blow up with k
//	E4  §5      m packages need m re-solves with exclusion cuts
//	E5  §4.2    local search trades optimality for speed
//	E6  §2      REPEAT changes feasibility and cost
//	E7  §5      diverse package results beat top-k on distance
//	E8  follow-up  SketchRefine: partitioned MILP vs exact at scale
//	E9  follow-up  hierarchical SketchRefine + cross-query partition cache
//	E10 follow-up  parallel SketchRefine pipeline + on-disk partition trees
//	E11 follow-up  full-grammar SketchRefine: AVG/MIN/MAX + disjunctions vs exact
//	E12 follow-up  incremental tree maintenance: full rebuild vs ApplyDelta per write batch
//	E13 follow-up  cost-based planner: planner-chosen strategy/knobs vs hand-set defaults
//	E14 follow-up  query lifecycle under load: QPS and p50/p95/p99 behind admission control
//	E15 follow-up  certified dual bounds: LP bound-pass overhead + anytime early-exit savings
//	E16 follow-up  band-aware bound tightening: stage-1 tree-lp vs the tightened pipeline on BETWEEN-heavy queries
//
// Each Run* prints an aligned table to cfg.Out; EXPERIMENTS.md records
// the measured shapes against the paper's claims.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/minidb"
)

// Config parameterizes a harness run.
type Config struct {
	Out   io.Writer
	Quick bool  // smaller sweeps for CI / -short
	Seed  int64 // dataset seed
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 42
	}
	return c.Seed
}

// MealQuery is the paper's running example, used across experiments.
const MealQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

// recipesDB builds a database with n recipes.
func recipesDB(n int, seed int64) (*minidb.DB, error) {
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: seed}); err != nil {
		return nil, err
	}
	return db, nil
}

func newTable(out io.Writer, headers ...string) *tabwriter.Writer {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	for i, h := range headers {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	return tw
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// RunAll executes every experiment in order.
func RunAll(cfg Config) error {
	steps := []struct {
		name string
		fn   func(Config) error
	}{
		{"F1", RunF1}, {"E1", RunE1}, {"E2", RunE2}, {"E3", RunE3},
		{"E4", RunE4}, {"E5", RunE5}, {"E6", RunE6}, {"E7", RunE7},
		{"E8", RunE8}, {"E9", RunE9}, {"E10", RunE10}, {"E11", RunE11},
		{"E12", RunE12}, {"E13", RunE13}, {"E14", RunE14}, {"E15", RunE15},
		{"E16", RunE16},
	}
	for _, s := range steps {
		if err := s.fn(cfg); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Run dispatches one experiment by id (e.g. "e3", "F1", "all").
func Run(id string, cfg Config) error {
	switch id {
	case "all", "ALL", "":
		return RunAll(cfg)
	case "f1", "F1":
		return RunF1(cfg)
	case "e1", "E1":
		return RunE1(cfg)
	case "e2", "E2":
		return RunE2(cfg)
	case "e3", "E3":
		return RunE3(cfg)
	case "e4", "E4":
		return RunE4(cfg)
	case "e5", "E5":
		return RunE5(cfg)
	case "e6", "E6":
		return RunE6(cfg)
	case "e7", "E7":
		return RunE7(cfg)
	case "e8", "E8":
		return RunE8(cfg)
	case "e9", "E9":
		return RunE9(cfg)
	case "e10", "E10":
		return RunE10(cfg)
	case "e11", "E11":
		return RunE11(cfg)
	case "e12", "E12":
		return RunE12(cfg)
	case "e13", "E13":
		return RunE13(cfg)
	case "e14", "E14":
		return RunE14(cfg)
	case "e15", "E15":
		return RunE15(cfg)
	case "e16", "E16":
		return RunE16(cfg)
	}
	return fmt.Errorf("bench: unknown experiment %q (f1, e1..e16, all)", id)
}

// evalTimed runs a query under options and reports elapsed wall time.
func evalTimed(db *minidb.DB, query string, opts core.Options) (*core.Result, time.Duration, error) {
	start := time.Now()
	res, err := core.Evaluate(db, query, opts)
	return res, time.Since(start), err
}
