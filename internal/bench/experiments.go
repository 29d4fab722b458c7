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

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/explore"
	"repro/internal/minidb"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/template"
	"repro/internal/translate"
	"repro/internal/value"
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
// force collapses quickly, pruned enumeration extends the exact range,
// the MILP solver scales to thousands of tuples, and local search stays
// fast but gives no optimality guarantee.
func RunE2(cfg Config) error {
	sizes := []int{12, 16, 20, 100, 1000, 5000}
	if cfg.Quick {
		sizes = []int{12, 16, 100}
	}
	fmt.Fprintln(cfg.Out, "== E2: strategy runtimes across n (meal query) ==")
	tw := newTable(cfg.Out, "n", "strategy", "time", "objective", "exact", "nodes")
	for _, n := range sizes {
		db, err := recipesDB(n, cfg.seed())
		if err != nil {
			return err
		}
		type run struct {
			st core.Strategy
			ok bool
		}
		runs := []run{
			{core.BruteForceStrategy, n <= 20},
			{core.PrunedEnum, n <= 200},
			{core.Solver, true},
			{core.LocalSearchStrategy, true},
		}
		for _, r := range runs {
			if !r.ok {
				fmt.Fprintf(tw, "%d\t%s\t-\t-\t-\t- (skipped: intractable)\n", n, r.st)
				continue
			}
			res, elapsed, err := evalTimed(db, MealQuery, core.Options{
				Strategy: r.st, Seed: cfg.seed(), Restarts: 4,
			})
			if err != nil {
				return fmt.Errorf("n=%d %s: %w", n, r.st, err)
			}
			obj := math.NaN()
			if len(res.Packages) > 0 {
				obj = res.Packages[0].Objective
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%v\t%d\n",
				n, r.st, ms(elapsed), obj, res.Stats.Exact, res.Stats.Nodes)
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
		_, neigh, elapsed, err := search.ReplacementProbe(inst, db, mult, pt.k)
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

// RunE8 measures the follow-up papers' SketchRefine strategy (PVLDB
// 2016 "Scalable Package Queries") against the exact MILP solver as the
// relation grows: partition offline, solve a sketch over partition
// representatives, refine per partition. Exactness is traded for
// latency; the table reports the objective gap alongside the speedup.
func RunE8(cfg Config) error {
	sizes := []int{1000, 10000, 100000}
	if cfg.Quick {
		sizes = []int{1000, 5000}
	}
	fmt.Fprintln(cfg.Out, "== E8: SketchRefine vs exact MILP (meal query, partition size 64) ==")
	tw := newTable(cfg.Out, "n", "strategy", "time", "objective", "gap", "speedup", "partitions", "repaired")
	for _, n := range sizes {
		db, err := recipesDB(n, cfg.seed())
		if err != nil {
			return err
		}
		prep, err := core.Prepare(db, MealQuery)
		if err != nil {
			return err
		}
		exactStart := time.Now()
		exact, err := prep.Run(core.Options{Strategy: core.Solver, Seed: cfg.seed()})
		exactTime := time.Since(exactStart)
		if err != nil {
			return fmt.Errorf("n=%d solver: %w", n, err)
		}
		if len(exact.Packages) == 0 {
			fmt.Fprintf(tw, "%d\tsolver (exact)\t%s\t(infeasible)\t-\t-\t-\t-\n", n, ms(exactTime))
			continue
		}
		opt := exact.Packages[0].Objective
		fmt.Fprintf(tw, "%d\tsolver (exact)\t%s\t%.0f\t0.0%%\t1.0x\t-\t-\n", n, ms(exactTime), opt)
		skStart := time.Now()
		sk, err := prep.Run(core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed()})
		skTime := time.Since(skStart)
		if err != nil {
			return fmt.Errorf("n=%d sketch: %w", n, err)
		}
		if len(sk.Packages) == 0 {
			fmt.Fprintf(tw, "%d\tsketch-refine\t%s\t(no package)\t-\t-\t%d\t%d\n",
				n, ms(skTime), sk.Stats.Partitions, sk.Stats.Repaired)
			continue
		}
		obj := sk.Packages[0].Objective
		gap := (opt - obj) / opt * 100
		fmt.Fprintf(tw, "%d\tsketch-refine\t%s\t%.0f\t%.1f%%\t%.1fx\t%d\t%d\n",
			n, ms(skTime), obj, gap, float64(exactTime)/float64(skTime),
			sk.Stats.Partitions, sk.Stats.Repaired)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(claim check: gap stays small while the speedup grows with n — one huge MILP becomes many tiny ones)")
	return nil
}

// RunE9 measures the PVLDB 2023 follow-up's hierarchical SketchRefine
// against the flat variant as the relation reaches 10⁶ tuples, plus a
// warm run against the cross-query partition cache: flat solves one
// sketch MILP with a variable per partition, the partition tree keeps
// the top-level MILP at about the square root of that, and a cache hit
// skips the offline partitioning step entirely.
func RunE9(cfg Config) error {
	sizes := []int{100000, 1000000}
	tau := 256
	if cfg.Quick {
		sizes = []int{20000, 50000}
		tau = 64
	}
	fmt.Fprintf(cfg.Out, "== E9: hierarchical SketchRefine + partition cache (meal query, τ=%d) ==\n", tau)
	tw := newTable(cfg.Out, "n", "variant", "time", "objective", "gap-vs-flat", "partitions", "top-vars", "cache")
	for _, n := range sizes {
		db, err := recipesDB(n, cfg.seed())
		if err != nil {
			return err
		}
		prep, err := core.Prepare(db, MealQuery)
		if err != nil {
			return err
		}
		cache := sketch.NewCache(0)
		type variant struct {
			name string
			opts core.Options
		}
		variants := []variant{
			{"flat", core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed(), SketchPartitionSize: tau}},
			{"hierarchical d=2", core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed(), SketchPartitionSize: tau, SketchDepth: 2, SketchCache: cache}},
			{"hier d=2 + warm cache", core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed(), SketchPartitionSize: tau, SketchDepth: 2, SketchCache: cache}},
		}
		flatObj := math.NaN()
		for _, v := range variants {
			start := time.Now()
			res, err := prep.Run(v.opts)
			elapsed := time.Since(start)
			if err != nil {
				return fmt.Errorf("n=%d %s: %w", n, v.name, err)
			}
			if len(res.Packages) == 0 {
				fmt.Fprintf(tw, "%d\t%s\t%s\t(no package)\t-\t%d\t%d\t%v\n",
					n, v.name, ms(elapsed), res.Stats.Partitions, res.Stats.SketchTopVars, res.Stats.SketchCacheHit)
				continue
			}
			obj := res.Packages[0].Objective
			if v.name == "flat" {
				flatObj = obj
			}
			gap := "-"
			if !math.IsNaN(flatObj) {
				gap = fmt.Sprintf("%.1f%%", (flatObj-obj)/flatObj*100)
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%s\t%d\t%d\t%v\n",
				n, v.name, ms(elapsed), obj, gap,
				res.Stats.Partitions, res.Stats.SketchTopVars, res.Stats.SketchCacheHit)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(claim check: the top-level MILP shrinks to ~√P variables with a small gap, and the warm-cache run drops the offline partitioning cost)")
	return nil
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
	type variant struct {
		name string
		opts core.Options
	}
	serial, parallel, cold, warm := base, base, base, base
	serial.SketchParallelism = 1
	cold.SketchPersistDir = dir
	warm.SketchPersistDir = dir
	variants := []variant{
		{"serial", serial},
		{fmt.Sprintf("parallel ×%d", workers), parallel},
		{"parallel + persist (cold)", cold},
		{"disk-warm cold start", warm},
	}
	var serialTime time.Duration
	var serialMult []int
	for _, v := range variants {
		start := time.Now()
		res, err := prep.Run(v.opts)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("n=%d %s: %w", n, v.name, err)
		}
		if len(res.Packages) == 0 {
			fmt.Fprintf(tw, "%d\t%s\t%s\t(no package)\t%d\t-\t-\n",
				n, v.name, ms(elapsed), res.Stats.SketchWorkers)
			continue
		}
		if v.name == "serial" {
			serialTime = elapsed
			serialMult = res.Packages[0].Mult
		} else if serialMult != nil && !slices.Equal(serialMult, res.Packages[0].Mult) {
			return fmt.Errorf("n=%d %s: package diverged from serial", n, v.name)
		}
		tree := "built"
		if res.Stats.SketchTreeLoaded {
			tree = "loaded"
		}
		speedup := "-"
		if serialTime > 0 && elapsed > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(serialTime)/float64(elapsed))
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f\t%d\t%s\t%s\n",
			n, v.name, ms(elapsed), res.Packages[0].Objective,
			res.Stats.SketchWorkers, tree, speedup)
	}
	return nil
}

// RunE12 measures incremental partition-tree maintenance: at each
// relation size, a base tree is built once, a write batch (inserts
// plus deletes, at 0.1%, 1%, and 10% of the relation) is applied
// through minidb, and tree readiness is timed both ways — a full
// rebuild over the new candidates versus Tree.ApplyDelta patching the
// base tree in place through the real lineage pipeline (delta log →
// fingerprint memo → remap). The claim is a >=10x readiness speedup
// for batches at or below 1% of N at 1M tuples, with the patched tree
// answering the meal query at the same feasibility and a comparable
// objective.
func RunE12(cfg Config) error {
	sizes := []int{100000, 1000000}
	tau := 256
	fracs := []float64{0.001, 0.01, 0.10}
	if cfg.Quick {
		sizes = []int{20000, 50000}
		tau = 64
		fracs = []float64{0.01, 0.10}
	}
	fmt.Fprintf(cfg.Out, "== E12: incremental tree maintenance — full rebuild vs ApplyDelta (meal query, τ=%d, depth 2) ==\n", tau)
	tw := newTable(cfg.Out, "n", "batch", "rebuild", "patch", "speedup", "objective-rebuild", "objective-patched")
	for _, n := range sizes {
		for _, frac := range fracs {
			if err := runE12Point(cfg, tw, n, tau, frac); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(claim check: tree readiness via ApplyDelta is >=10x faster than a cold rebuild for write batches <=1% of N, with equivalent packages)")
	return nil
}

// runE12Point measures one (size, batch-fraction) cell.
func runE12Point(cfg Config, tw io.Writer, n, tau int, frac float64) error {
	db, err := recipesDB(n, cfg.seed())
	if err != nil {
		return err
	}
	prep, err := core.Prepare(db, MealQuery)
	if err != nil {
		return err
	}
	opts := sketch.Options{MaxPartitionSize: tau, Depth: 2, Seed: cfg.seed()}
	memo := core.NewFingerprintMemo()
	memo.Advance(prep) // snapshot the base candidates
	base := sketch.BuildTree(prep.Instance, opts)

	// The write batch: ~80% inserts (fresh synthetic recipes), ~20%
	// deletes (an id range), applied through the engine so the delta
	// log records them exactly as production writes would.
	batch := int(frac * float64(n))
	if batch < 2 {
		batch = 2
	}
	ins, del := batch-batch/5, batch/5
	rows := dataset.Recipes(dataset.RecipesConfig{N: ins, Seed: cfg.seed() + 1})
	for i := range rows {
		rows[i][0] = value.Int(int64(n + 1000000 + i)) // ids beyond the base range
	}
	if err := db.InsertRows("recipes", rows); err != nil {
		return err
	}
	if del > 0 {
		if _, err := db.Exec(fmt.Sprintf("DELETE FROM recipes WHERE id > %d AND id <= %d", n/2, n/2+del)); err != nil {
			return err
		}
	}
	prep2, err := core.Prepare(db, MealQuery)
	if err != nil {
		return err
	}
	_, patch := memo.Advance(prep2)
	if patch == nil {
		return fmt.Errorf("e12: n=%d frac=%g: no patch lineage", n, frac)
	}

	rebuildStart := time.Now()
	rebuilt := sketch.BuildTree(prep2.Instance, opts)
	rebuildTime := time.Since(rebuildStart)

	wide := opts
	wide.DeltaMaxFrac = 0.5 // admit the 10% batch point
	patchStart := time.Now()
	patched, ok := base.ApplyDelta(prep2.Instance.Rows, patch.Remap, wide)
	patchTime := time.Since(patchStart)
	if !ok {
		fmt.Fprintf(tw, "%d\t%.1f%%\t%s\t(rebuild forced)\t-\t-\t-\n", n, 100*frac, ms(rebuildTime))
		return nil
	}

	// Both trees must answer the query equivalently: solve each through
	// a pre-seeded cache so the offline step is excluded.
	objective := func(t *sketch.Tree) (string, error) {
		cache := sketch.NewCache(0)
		cache.Put(sketch.KeyFor(prep2.Instance, opts), t)
		o := opts
		o.Cache = cache
		res, err := sketch.Solve(prep2.Instance, o)
		if err != nil {
			return "", err
		}
		if !res.Feasible {
			return "(no package)", nil
		}
		return fmt.Sprintf("%.0f", res.Objective), nil
	}
	objR, err := objective(rebuilt)
	if err != nil {
		return err
	}
	objP, err := objective(patched)
	if err != nil {
		return err
	}
	speedup := "-"
	if patchTime > 0 {
		speedup = fmt.Sprintf("%.1fx", float64(rebuildTime)/float64(patchTime))
	}
	fmt.Fprintf(tw, "%d\t%.1f%%\t%s\t%s\t%s\t%s\t%s\n",
		n, 100*frac, ms(rebuildTime), ms(patchTime), speedup, objR, objP)
	return nil
}

// E11Queries are the full-atom-grammar workloads E11 measures: an AVG
// rewrite, a MIN/MAX envelope workload, and a two-branch disjunction,
// all over the recipes relation.
var E11Queries = []struct {
	Name  string
	Query string
}{
	{"avg", `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 5 AND AVG(P.calories) <= 650
		MAXIMIZE SUM(P.protein)`},
	{"min+max", `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 5 AND MIN(P.protein) >= 5 AND MAX(P.calories) <= 900
		      AND SUM(P.calories) BETWEEN 2500 AND 3500
		MAXIMIZE SUM(P.protein)`},
	{"disjunction", `
		SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 5 AND (AVG(P.calories) <= 650 OR SUM(P.calories) <= 3000)
		MAXIMIZE SUM(P.protein)`},
}

// RunE11 measures SketchRefine over the full PaQL atom grammar —
// AVG/MIN/MAX atoms and disjunctions, the workloads that used to fall
// back to the exact solver — against the exact MILP at growing scale:
// the claim is a small objective gap at 100k tuples and an
// order-of-magnitude speedup at 1M, with the sketch path really used
// (levels > 0, branches/rewrites reported). The exact side runs under a
// wall-clock budget at the largest size; when it returns an incumbent
// without proof the reported speedup is a lower bound.
func RunE11(cfg Config) error {
	sizes := []int{100000, 1000000}
	tau := 256
	exactBudget := 10 * time.Minute
	if cfg.Quick {
		sizes = []int{20000, 50000}
		tau = 64
		exactBudget = time.Minute
	}
	fmt.Fprintf(cfg.Out, "== E11: full-grammar SketchRefine — AVG/MIN/MAX + disjunctions vs exact (τ=%d, depth 2) ==\n", tau)
	tw := newTable(cfg.Out, "n", "query", "strategy", "time", "objective", "gap", "speedup", "levels", "branches", "rewrites")
	for _, n := range sizes {
		db, err := recipesDB(n, cfg.seed())
		if err != nil {
			return err
		}
		for _, q := range E11Queries {
			prep, err := core.Prepare(db, q.Query)
			if err != nil {
				return err
			}
			exactStart := time.Now()
			exact, err := prep.Run(core.Options{Strategy: core.Solver, Seed: cfg.seed(), Timeout: exactBudget})
			exactTime := time.Since(exactStart)
			if err != nil {
				return fmt.Errorf("n=%d %s solver: %w", n, q.Name, err)
			}
			if len(exact.Packages) == 0 {
				fmt.Fprintf(tw, "%d\t%s\tsolver (exact)\t%s\t(no package)\t-\t-\t-\t-\t-\n", n, q.Name, ms(exactTime))
				continue
			}
			opt := exact.Packages[0].Objective
			proof := ""
			if !exact.Stats.Exact {
				proof = " (budget hit)"
			}
			fmt.Fprintf(tw, "%d\t%s\tsolver (exact)%s\t%s\t%.0f\t0.0%%\t1.0x\t-\t-\t-\n", n, q.Name, proof, ms(exactTime), opt)

			skStart := time.Now()
			sk, err := prep.Run(core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed(),
				SketchPartitionSize: tau, SketchDepth: 2})
			skTime := time.Since(skStart)
			if err != nil {
				return fmt.Errorf("n=%d %s sketch: %w", n, q.Name, err)
			}
			if sk.Stats.Strategy != core.SketchRefineStrategy {
				return fmt.Errorf("n=%d %s: fell back to %v", n, q.Name, sk.Stats.Strategy)
			}
			if sk.Stats.SketchLevels < 1 {
				return fmt.Errorf("n=%d %s: sketch did not run (levels=0)", n, q.Name)
			}
			if len(sk.Packages) == 0 {
				fmt.Fprintf(tw, "%d\t%s\tsketch-refine\t%s\t(no package)\t-\t-\t%d\t%d\t%d\n",
					n, q.Name, ms(skTime), sk.Stats.SketchLevels, sk.Stats.SketchBranches, sk.Stats.SketchAtomRewrites)
				continue
			}
			obj := sk.Packages[0].Objective
			gap := (opt - obj) / opt * 100
			fmt.Fprintf(tw, "%d\t%s\tsketch-refine\t%s\t%.0f\t%.1f%%\t%.1fx\t%d\t%d\t%d\n",
				n, q.Name, ms(skTime), obj, gap, float64(exactTime)/float64(skTime),
				sk.Stats.SketchLevels, sk.Stats.SketchBranches, sk.Stats.SketchAtomRewrites)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(claim check: AVG/MIN/MAX and disjunctive queries stay on the sketch path — small gap at 100k, >=10x speedup at 1M)")
	return nil
}

// e13Workloads are the mixed cells E13 sweeps: the planner must adapt
// strategy and knobs per cell — exact MILP where affordable,
// hierarchical parallel sketch at scale, depth capped under MIN/MAX
// atoms, patch-based maintenance after writes — while the hand-set
// baseline runs every cell with the same flat, serial, rebuild-on-write
// sketch configuration.
var e13Workloads = []struct {
	Name   string
	Query  string
	Writes bool
}{
	{"linear read-only", MealQuery, false},
	{"min-max read-only", E11Queries[1].Query, false},
	{"linear write-heavy", MealQuery, true},
}

// RunE13 pits the cost-based planner (strategy, τ, depth, parallelism
// and maintenance all chosen from catalog statistics) against hand-set
// defaults (flat τ=64 sketch, serial, rebuild after writes) across the
// mixed workload above. The claim: planner-chosen knobs match or beat
// the hand-set defaults on every cell without per-query tuning, with
// the write-heavy cells surfacing the patch-vs-rebuild win.
func RunE13(cfg Config) error {
	sizes := []int{100000, 1000000}
	if cfg.Quick {
		sizes = []int{5000, 20000}
	}
	fmt.Fprintln(cfg.Out, "== E13: cost-based planner vs hand-set defaults (mixed workload) ==")
	tw := newTable(cfg.Out, "n", "workload", "variant", "strategy", "partitions", "levels", "workers", "time", "objective", "speedup-vs-hand-set")
	for _, n := range sizes {
		for _, wl := range e13Workloads {
			if err := runE13Point(cfg, tw, n, wl.Name, wl.Query, wl.Writes); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(claim check: the planner adapts per cell — exact MILP with the provably best objective where affordable, hierarchical parallel sketch at scale, patched trees after writes for the readiness win)")
	return nil
}

// runE13Point measures one (size, workload) cell under both variants.
// Each variant gets its own freshly generated database (same seed, so
// identical data) because the write-heavy cells mutate it.
func runE13Point(cfg Config, tw io.Writer, n int, name, query string, writes bool) error {
	var handTime time.Duration
	for _, variant := range []string{"hand-set", "planner"} {
		db, err := recipesDB(n, cfg.seed())
		if err != nil {
			return err
		}
		cache := sketch.NewCache(0)
		memo := core.NewFingerprintMemo()
		var opts core.Options
		if variant == "hand-set" {
			// The pre-planner defaults: always sketch, flat tree, τ=64,
			// serial, full rebuild after any write.
			opts = core.Options{Strategy: core.SketchRefineStrategy, Seed: cfg.seed(),
				SketchPartitionSize: 64, SketchDepth: 1, SketchParallelism: 1,
				SketchCache: cache, SketchMemo: memo}
		} else {
			opts = core.Options{Seed: cfg.seed(), SketchIncremental: true,
				SketchCache: cache, SketchMemo: memo, Catalog: catalog.New(db)}
		}
		prep, err := core.Prepare(db, query)
		if err != nil {
			return err
		}
		if writes {
			// Warm the tree on the base data, then push a ~1% write batch
			// through the engine so the timed run sees a stale tree plus
			// real delta lineage.
			if _, err := prep.Run(opts); err != nil {
				return err
			}
			if err := e13WriteBatch(db, n, cfg.seed()); err != nil {
				return err
			}
			if prep, err = core.Prepare(db, query); err != nil {
				return err
			}
		}
		start := time.Now()
		res, err := prep.Run(opts)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("e13: n=%d %s %s: %w", n, name, variant, err)
		}
		obj := "(no package)"
		if len(res.Packages) > 0 {
			obj = fmt.Sprintf("%.0f", res.Packages[0].Objective)
		}
		speedup := "-"
		if variant == "hand-set" {
			handTime = elapsed
		} else if elapsed > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(handTime)/float64(elapsed))
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%d\t%s\t%s\t%s\n",
			n, name, variant, res.Stats.Strategy, res.Stats.Partitions,
			res.Stats.SketchLevels, res.Stats.SketchWorkers, ms(elapsed), obj, speedup)
	}
	return nil
}

// e13WriteBatch applies a ~1% write batch (80% inserts, 20% deletes)
// through the engine so the delta log records real lineage.
func e13WriteBatch(db *minidb.DB, n int, seed int64) error {
	batch := n / 100
	if batch < 2 {
		batch = 2
	}
	ins, del := batch-batch/5, batch/5
	rows := dataset.Recipes(dataset.RecipesConfig{N: ins, Seed: seed + 1})
	for i := range rows {
		rows[i][0] = value.Int(int64(n + 1000000 + i))
	}
	if err := db.InsertRows("recipes", rows); err != nil {
		return err
	}
	if del > 0 {
		if _, err := db.Exec(fmt.Sprintf("DELETE FROM recipes WHERE id > %d AND id <= %d", n/2, n/2+del)); err != nil {
			return err
		}
	}
	return nil
}
