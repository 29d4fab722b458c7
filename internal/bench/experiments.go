package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/template"
	"repro/internal/translate"
	"repro/internal/viz"
)

// RunF1 reproduces Figure 1: the package template with a sample
// package, constraint suggestions for a highlighted column, and the 2-D
// visual summary of the package space.
func RunF1(cfg Config) error {
	n := 500
	if cfg.Quick {
		n = 100
	}
	fmt.Fprintf(cfg.Out, "== F1: the PackageBuilder interface (Figure 1), %d recipes ==\n", n)
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	ses, err := explore.NewSession(db, MealQuery, core.Options{Seed: cfg.seed()})
	if err != nil {
		return err
	}
	if _, err := ses.Refresh(); err != nil {
		return err
	}
	tpl, err := template.FromText(MealQuery)
	if err != nil {
		return err
	}
	tab, _ := db.Table("recipes")
	start := time.Now()
	tpl.Render(cfg.Out, tab.Schema, ses.Current(), []string{"name", "gluten", "calories", "protein", "fat"})
	sugg, err := ses.Suggest(explore.Highlight{Column: "fat", Row: -1})
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nSuggestions for highlighted column \"fat\":")
	for _, sg := range sugg {
		fmt.Fprintf(cfg.Out, "  [%-9s] %-46s — %s\n", sg.Kind, sg.Text, sg.Why)
	}
	// Package space: several packages laid out on two dimensions.
	prep := ses.Prepared()
	res, err := prep.Run(core.Options{Limit: 8, Seed: cfg.seed()})
	if err != nil {
		return err
	}
	sum, err := viz.Summarize(prep, res.Packages, 0, false)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nPackage-space summary (@ = current, o = other packages):")
	sum.RenderASCII(cfg.Out, 56, 12)
	fmt.Fprintf(cfg.Out, "interface render time: %s\n", ms(time.Since(start)))
	return nil
}

// RunE1 reproduces the §4.1 claim: cardinality bounds shrink the search
// space from 2^n to Σ_{k=l..u} C(n,k) without losing any valid package.
func RunE1(cfg Config) error {
	sizes := []int{10, 14, 18, 22}
	if cfg.Quick {
		sizes = []int{10, 14}
	}
	fmt.Fprintln(cfg.Out, "== E1: §4.1 cardinality pruning — search-space reduction, no lost solutions ==")
	tw := newTable(cfg.Out, "n", "bounds", "2^n", "pruned-space", "reduction", "brute-nodes", "pruned-nodes", "packages", "lossless")
	for _, n := range sizes {
		db, err := recipesDB(n, cfg.seed())
		if err != nil {
			return err
		}
		prep, err := core.Prepare(db, MealQuery)
		if err != nil {
			return err
		}
		inst := prep.Instance
		brute, err := search.BruteForce(inst, search.Options{Limit: 1 << 30})
		if err != nil {
			return err
		}
		pruned, err := search.PrunedEnumerate(inst, search.Options{Limit: 1 << 30, NoObjBound: true})
		if err != nil {
			return err
		}
		lossless := len(brute.Packages) == len(pruned.Packages)
		bk := map[string]bool{}
		for _, p := range brute.Packages {
			bk[p.Key()] = true
		}
		for _, p := range pruned.Packages {
			if !bk[p.Key()] {
				lossless = false
			}
		}
		sp, full := res2space(prep)
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%.1fx\t%d\t%d\t%d\t%v\n",
			len(inst.Rows), inst.Bounds, full, sp,
			bigRatio(full, sp), brute.Examined, pruned.Examined,
			len(pruned.Packages), lossless)
	}
	return tw.Flush()
}

func res2space(prep *core.Prepared) (pruned, full string) {
	// reuse prune.SpaceSize through a tiny evaluation
	res, err := prep.Run(core.Options{Strategy: core.PrunedEnum, Limit: 1})
	if err != nil || res.Stats.SpaceFull == nil {
		return "?", "?"
	}
	return res.Stats.SpacePruned.String(), res.Stats.SpaceFull.String()
}

func bigRatio(fullS, prunedS string) float64 {
	var full, pruned float64
	fmt.Sscanf(fullS, "%g", &full)
	fmt.Sscanf(prunedS, "%g", &pruned)
	if pruned == 0 {
		return math.Inf(1)
	}
	return full / pruned
}

// RunE2 compares the evaluation strategies across data sizes: brute
// force collapses quickly, pruned enumeration extends the exact range
// up to plan.ExactEnumMax candidates (past it the planner re-plans a
// forced enumeration, so the row is skipped), the MILP solver scales to thousands of tuples, and local search stays
// fast but gives no optimality guarantee. Brute force is no engine
// strategy: the row calls the search package's 2^n oracle directly.
func RunE2(cfg Config) error {
	sizes := []int{12, 16, 20, 100, 1000, 5000}
	if cfg.Quick {
		sizes = []int{12, 16, 100}
	}
	fmt.Fprintln(cfg.Out, "== E2: strategy runtimes across n (meal query) ==")
	tw := newTable(cfg.Out, "n", "strategy", "time", "objective", "exact", "nodes")
	row := func(n int, name string, elapsed time.Duration, obj float64, exact bool, nodes int64) {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%v\t%d\n", n, name, ms(elapsed), obj, exact, nodes)
	}
	for _, n := range sizes {
		db, err := recipesDB(n, cfg.seed())
		if err != nil {
			return err
		}
		prep, err := core.Prepare(db, MealQuery)
		if err != nil {
			return err
		}
		cands := len(prep.Instance.Rows)
		if n <= 20 {
			brute, err := search.BruteForce(prep.Instance, search.Options{})
			if err != nil {
				return fmt.Errorf("n=%d brute-force: %w", n, err)
			}
			obj := math.NaN()
			if len(brute.Packages) > 0 {
				obj = brute.Packages[0].Obj
			}
			row(n, "brute-force", brute.Elapsed, obj, brute.Complete, brute.Examined)
		} else {
			fmt.Fprintf(tw, "%d\tbrute-force\t-\t-\t-\t- (skipped: intractable)\n", n)
		}
		for _, st := range []core.Strategy{core.PrunedEnum, core.Solver, core.LocalSearchStrategy} {
			if st == core.PrunedEnum && cands > plan.ExactEnumMax {
				// The planner runs no enumeration this large, forced or not.
				fmt.Fprintf(tw, "%d\t%s\t-\t-\t-\t- (skipped: %d candidates > %d)\n", n, st, cands, plan.ExactEnumMax)
				continue
			}
			res, elapsed, err := evalTimed(db, MealQuery, core.Options{
				Strategy: st, Seed: cfg.seed(), Restarts: 4,
			})
			if err != nil {
				return fmt.Errorf("n=%d %s: %w", n, st, err)
			}
			obj := math.NaN()
			if len(res.Packages) > 0 {
				obj = res.Packages[0].Objective
			}
			row(n, st.String(), elapsed, obj, res.Stats.Exact, res.Stats.Nodes)
		}
	}
	return tw.Flush()
}

// RunE3 measures the §4.2 replacement query: the neighbourhood of k
// simultaneous swaps is one SQL query joining the package against the
// candidate relation k times each — a 2k-way join whose cost explodes
// with k.
func RunE3(cfg Config) error {
	type point struct{ n, k int }
	points := []point{
		{100, 1}, {100, 2}, {100, 3},
		{500, 1}, {500, 2},
		{1000, 1}, {1000, 2},
	}
	if cfg.Quick {
		points = []point{{100, 1}, {100, 2}, {300, 1}, {300, 2}}
	}
	fmt.Fprintln(cfg.Out, "== E3: §4.2 k-replacement neighbourhood via SQL (2k-way join) ==")
	tw := newTable(cfg.Out, "n", "k", "join-width", "neighbourhood", "time")
	for _, pt := range points {
		db, err := recipesDB(pt.n, cfg.seed())
		if err != nil {
			return err
		}
		prep, err := core.Prepare(db, MealQuery)
		if err != nil {
			return err
		}
		inst := prep.Instance
		// P0: the three heaviest candidates (almost surely violates the
		// 2500-calorie cap, so swaps that repair it exist).
		mult := make([]int, len(inst.Rows))
		heavy := topCaloriesIdx(inst, 3)
		for _, i := range heavy {
			mult[i] = 1
		}
		_, neigh, elapsed, err := search.ReplacementProbe(inst, mult, pt.k)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%d-way\t%d\t%s\n", pt.n, pt.k, 2*pt.k, neigh, ms(elapsed))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(shape check: time grows roughly ×n per +1 in k — the paper's intractability claim)")
	return nil
}

func topCaloriesIdx(inst *search.Instance, k int) []int {
	type pair struct {
		idx int
		cal float64
	}
	var ps []pair
	calOrd := 5 // calories column in the recipes schema
	for i, row := range inst.Rows {
		c, _ := row[calOrd].AsFloat()
		ps = append(ps, pair{i, c})
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].cal > ps[j-1].cal; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	var out []int
	for i := 0; i < k && i < len(ps); i++ {
		out = append(out, ps[i].idx)
	}
	return out
}

// RunE4 reproduces the §5 "solver limitations" claim: a constraint
// solver returns one package; the m-th distinct package costs an m-th
// re-solve with an exclusion cut.
func RunE4(cfg Config) error {
	n, m := 1000, 10
	if cfg.Quick {
		n, m = 200, 5
	}
	fmt.Fprintf(cfg.Out, "== E4: §5 multiple packages via exclusion cuts (n=%d) ==\n", n)
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	prep, err := core.Prepare(db, MealQuery)
	if err != nil {
		return err
	}
	model, err := translate.Translate(prep.Analysis, prep.Instance.Rows, prep.Instance.IDs)
	if err != nil {
		return err
	}
	tw := newTable(cfg.Out, "package#", "solve-time", "cumulative", "objective", "distinct")
	seen := map[string]bool{}
	cumulative := time.Duration(0)
	for i := 1; i <= m; i++ {
		start := time.Now()
		res, err := model.Solve()
		solveTime := time.Since(start)
		cumulative += solveTime
		if err != nil {
			return err
		}
		if res.Solution.X == nil {
			fmt.Fprintf(tw, "%d\t%s\t%s\t(no more packages)\t-\n", i, ms(solveTime), ms(cumulative))
			break
		}
		key := fmt.Sprint(res.Multiplicities)
		distinct := !seen[key]
		seen[key] = true
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%v\n",
			i, ms(solveTime), ms(cumulative), res.Solution.Objective, distinct)
		if err := model.AddExclusionCut(res.Multiplicities); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// RunE5 quantifies the §4.2 caveat: local search is fast but "there is
// no guarantee that all valid solutions will be found" — its objective
// approaches the exact optimum as restarts grow.
func RunE5(cfg Config) error {
	n := 200
	restarts := []int{1, 4, 16}
	if cfg.Quick {
		n = 100
		restarts = []int{1, 4}
	}
	fmt.Fprintf(cfg.Out, "== E5: local-search quality vs exact optimum (n=%d) ==\n", n)
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	exact, exactTime, err := evalTimed(db, MealQuery, core.Options{Strategy: core.Solver, Seed: cfg.seed()})
	if err != nil {
		return err
	}
	if len(exact.Packages) == 0 {
		return fmt.Errorf("bench: E5 instance infeasible")
	}
	opt := exact.Packages[0].Objective
	tw := newTable(cfg.Out, "method", "restarts", "time", "objective", "ratio")
	fmt.Fprintf(tw, "solver (exact)\t-\t%s\t%.0f\t1.000\n", ms(exactTime), opt)
	for _, r := range restarts {
		res, elapsed, err := evalTimed(db, MealQuery, core.Options{
			Strategy: core.LocalSearchStrategy, Restarts: r, Seed: cfg.seed(),
		})
		if err != nil {
			return err
		}
		obj := 0.0
		if len(res.Packages) > 0 {
			obj = res.Packages[0].Objective
		}
		fmt.Fprintf(tw, "local search\t%d\t%s\t%.0f\t%.3f\n", r, ms(elapsed), obj, obj/opt)
	}
	return tw.Flush()
}

// RunE6 exercises §2's REPEAT: raising the multiplicity bound turns
// infeasible queries feasible and improves objectives, at growing
// search cost.
func RunE6(cfg Config) error {
	n := 30
	if cfg.Quick {
		n = 20
	}
	fmt.Fprintf(cfg.Out, "== E6: REPEAT semantics (n=%d, COUNT(*)=5, demanding protein total) ==\n", n)
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	// Find a protein demand between "top-5 distinct" and "5 x best", so
	// repetition visibly changes feasibility.
	prep, err := core.Prepare(db, `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 5 MAXIMIZE SUM(P.protein)`)
	if err != nil {
		return err
	}
	best5, err := prep.Run(core.Options{Strategy: core.Solver})
	if err != nil {
		return err
	}
	demand := math.Floor(best5.Packages[0].Objective + 10)
	tw := newTable(cfg.Out, "REPEAT", "max-mult", "feasible", "objective", "time", "B&B-nodes")
	for _, repeat := range []int{0, 1, 2, 4} {
		q := fmt.Sprintf(`
			SELECT PACKAGE(R) AS P FROM recipes R REPEAT %d
			SUCH THAT COUNT(*) = 5 AND SUM(P.protein) >= %g
			MAXIMIZE SUM(P.protein)`, repeat, demand)
		if repeat == 0 {
			q = strings.Replace(q, " REPEAT 0", "", 1)
		}
		res, elapsed, err := evalTimed(db, q, core.Options{Strategy: core.Solver, Seed: cfg.seed()})
		if err != nil {
			return err
		}
		if len(res.Packages) == 0 {
			fmt.Fprintf(tw, "%d\t%d\tno\t-\t%s\t%d\n", repeat, repeat+1, ms(elapsed), res.Stats.Nodes)
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\tyes\t%.0f\t%s\t%d\n",
			repeat, repeat+1, res.Packages[0].Objective, ms(elapsed), res.Stats.Nodes)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "(protein demand %.0f sits above the best distinct-5 package of %.0f)\n",
		demand, best5.Packages[0].Objective)
	return nil
}

// RunE7 implements the §5 future-work direction "diverse package
// results": greedy max-min selection versus plain top-k.
func RunE7(cfg Config) error {
	n, k := 500, 5
	if cfg.Quick {
		n = 120
	}
	fmt.Fprintf(cfg.Out, "== E7: diverse package results (n=%d, k=%d) ==\n", n, k)
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	tw := newTable(cfg.Out, "selection", "time", "min-distance", "mean-distance", "best-objective")
	for _, diverse := range []bool{false, true} {
		res, elapsed, err := evalTimed(db, MealQuery, core.Options{
			Strategy: core.Solver, Limit: k, Diverse: diverse, Seed: cfg.seed(),
		})
		if err != nil {
			return err
		}
		var mults [][]int
		for _, p := range res.Packages {
			mults = append(mults, p.Mult)
		}
		name := "top-k"
		if diverse {
			name = "diverse (max-min)"
		}
		best := math.NaN()
		if len(res.Packages) > 0 {
			best = res.Packages[0].Objective
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.0f\n",
			name, ms(elapsed), core.MinPairwiseDistance(mults), core.MeanPairwiseDistance(mults), best)
	}
	return tw.Flush()
}

// RunE10 measures the parallelized SketchRefine pipeline and the
// on-disk partition-tree store: the same build + descend + refine run
// fully serial and with one worker per CPU (identical packages — the
// workers only divide the work), then with persistence on, where a
// cold start in a fresh engine loads the tree from disk instead of
// re-running the offline partitioning.
func RunE10(cfg Config) error {
	sizes := []int{1000000, 10000000}
	tau := 256
	if cfg.Quick {
		sizes = []int{20000, 50000}
		tau = 64
	}
	workers := runtime.GOMAXPROCS(0)
	fmt.Fprintf(cfg.Out, "== E10: parallel SketchRefine + on-disk partition trees (meal query, τ=%d, depth 2, %d CPUs) ==\n", tau, workers)
	tw := newTable(cfg.Out, "n", "variant", "time", "objective", "workers", "tree", "speedup-vs-serial")
	for _, n := range sizes {
		if err := runE10Size(cfg, tw, n, tau, workers); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(claim check: parallel build+refine returns the identical package at a fraction of the serial time, and the disk-warm run loads the tree instead of rebuilding)")
	return nil
}

// runE10Size runs the E10 variants at one relation size with its own
// temporary tree store.
func runE10Size(cfg Config, tw io.Writer, n, tau, workers int) error {
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	prep, err := core.Prepare(db, MealQuery)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "pbench-e10-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed(),
		SketchPartitionSize: tau, SketchDepth: 2}
	// The serial arm runs under GOMAXPROCS(1), the one way to bound the
	// planner's worker count; procs 0 leaves the scheduler as it is.
	type variant struct {
		name  string
		procs int
		opts  core.Options
	}
	persisted := base
	persisted.SketchPersistDir = dir
	variants := []variant{
		{"serial", 1, base},
		{fmt.Sprintf("parallel ×%d", workers), 0, base},
		{"parallel + persist (cold)", 0, persisted},
		{"disk-warm cold start", 0, persisted},
	}
	var serialTime time.Duration
	var serialMult []int
	for _, v := range variants {
		prev := runtime.GOMAXPROCS(v.procs)
		start := time.Now()
		res, err := prep.Run(v.opts)
		elapsed := time.Since(start)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return fmt.Errorf("n=%d %s: %w", n, v.name, err)
		}
		if len(res.Packages) == 0 {
			fmt.Fprintf(tw, "%d\t%s\t%s\t(no package)\t%d\t-\t-\n",
				n, v.name, ms(elapsed), res.Stats.Sketch.Workers)
			continue
		}
		if v.name == "serial" {
			serialTime = elapsed
			serialMult = res.Packages[0].Mult
		} else if serialMult != nil && !slices.Equal(serialMult, res.Packages[0].Mult) {
			return fmt.Errorf("n=%d %s: package diverged from serial", n, v.name)
		}
		tree := "built"
		if res.Stats.Sketch.TreeLoaded {
			tree = "loaded"
		}
		speedup := "-"
		if serialTime > 0 && elapsed > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(serialTime)/float64(elapsed))
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%d\t%s\t%s\n",
			n, v.name, ms(elapsed), res.Packages[0].Objective,
			res.Stats.Sketch.Workers, tree, speedup)
	}
	return nil
}
