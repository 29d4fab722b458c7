// Package bench is the experiment harness behind cmd/pbench. The 2014
// demo paper contains one figure (the interface) and no numeric tables,
// so each of F1 and E1–E7 reproduces one quantitative claim from the
// paper's text. The follow-up rows that remain (E10, E14, E16) drive a
// subsystem that no workload of the repository benchmark (benchmark/,
// BENCHMARK.json) turns on; what those workloads measure has no row
// here. The experiments table below is the one list of what exists:
// Run, RunAll, the unknown-id error, cmd/pbench's usage text and the
// quick-mode test all read it.
//
// Each Run* prints an aligned table to cfg.Out.
package bench

import (
	"fmt"
	"io"
	"strings"
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

// experiment is one row of the suite: the id cmd/pbench selects it by,
// the claim or subsystem it covers, and its runner.
type experiment struct {
	id, title string
	run       func(Config) error
}

// experiments declares the suite, in the order RunAll runs it.
var experiments = []experiment{
	{"f1", "§Fig.1 the interface: template, suggestions, 2-D summary", RunF1},
	{"e1", "§4.1 cardinality pruning shrinks 2^n to Σ C(n,k), losslessly", RunE1},
	{"e2", "§4,7 strategy runtimes and their crossovers", RunE2},
	{"e3", "§4.2 k-replacement SQL joins blow up with k", RunE3},
	{"e4", "§5 m packages need m re-solves with exclusion cuts", RunE4},
	{"e5", "§4.2 local search trades optimality for speed", RunE5},
	{"e6", "§2 REPEAT changes feasibility and cost", RunE6},
	{"e7", "§5 diverse package results beat top-k on distance", RunE7},
	{"e10", "worker fan-out and the on-disk tree tier at 1M–10M rows", RunE10},
	{"e14", "admission control under concurrent clients: QPS and p50/p95/p99", RunE14},
	{"e16", "the certified bound on a band query at 1M rows", RunE16},
}

// List renders the experiments table, one "id  title" line each, for
// cmd/pbench's usage text.
func List() string {
	var b strings.Builder
	for _, e := range experiments {
		fmt.Fprintf(&b, "  %-4s %s\n", e.id, e.title)
	}
	return b.String()
}

// RunAll executes every experiment in table order.
func RunAll(cfg Config) error {
	for _, e := range experiments {
		if err := e.run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Run dispatches one experiment by id, in either case (e.g. "e3",
// "F1"); "all" or "" runs the whole table.
func Run(id string, cfg Config) error {
	key := strings.ToLower(id)
	if key == "all" || key == "" {
		return RunAll(cfg)
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		if e.id == key {
			return e.run(cfg)
		}
		ids[i] = e.id
	}
	return fmt.Errorf("bench: unknown experiment %q (%s, all)", id, strings.Join(ids, ", "))
}

// evalTimed runs a query under options and reports elapsed wall time.
func evalTimed(db *minidb.DB, query string, opts core.Options) (*core.Result, time.Duration, error) {
	start := time.Now()
	res, err := core.Evaluate(db, query, opts)
	return res, time.Since(start), err
}
