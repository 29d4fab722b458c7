// Benchmarks: one per experiment in EXPERIMENTS.md (the paper's
// Figure 1 plus the quantitative claims E1-E7 from §4 and §5). Run
//
//	go test -bench=. -benchmem
//
// cmd/pbench prints the corresponding row-level tables.
package packagebuilder

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/bound"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/explore"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/translate"
	"repro/internal/value"
	"repro/internal/viz"
)

const benchMealQuery = `
	SELECT PACKAGE(R) AS P
	FROM recipes R
	WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

func benchDB(b *testing.B, n int) *minidb.DB {
	b.Helper()
	db := minidb.New()
	if err := dataset.LoadRecipes(db, "recipes", dataset.RecipesConfig{N: n, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchPrep(b *testing.B, n int) *core.Prepared {
	b.Helper()
	prep, err := core.Prepare(benchDB(b, n), benchMealQuery)
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

// BenchmarkF1_SummaryRender measures the Figure 1 interface pipeline:
// evaluate several packages, choose 2 display dimensions, lay out and
// render the package-space summary.
func BenchmarkF1_SummaryRender(b *testing.B) {
	db := benchDB(b, 500)
	ses, err := explore.NewSession(db, benchMealQuery, core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prep := ses.Prepared()
	res, err := prep.Run(core.Options{Limit: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := viz.Summarize(prep, res.Packages, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		sum.RenderASCII(io.Discard, 56, 12)
	}
}

// BenchmarkE1_PrunedVsBrute compares complete enumeration with and
// without §4.1 cardinality pruning (same answers, fewer nodes).
func BenchmarkE1_PrunedVsBrute(b *testing.B) {
	for _, n := range []int{14, 18} {
		prep := benchPrep(b, n)
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.BruteForce(prep.Instance, search.Options{Limit: 1 << 30}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pruned/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.PrunedEnumerate(prep.Instance, search.Options{Limit: 1 << 30, NoObjBound: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_Strategies times each evaluation strategy on the meal
// query at sizes where it is viable.
func BenchmarkE2_Strategies(b *testing.B) {
	type cfg struct {
		strategy core.Strategy
		sizes    []int
	}
	cases := []cfg{
		{core.BruteForceStrategy, []int{16, 20}},
		{core.PrunedEnum, []int{16, 20, 100}},
		{core.Solver, []int{100, 1000, 5000}},
		{core.LocalSearchStrategy, []int{100, 1000, 5000}},
	}
	for _, c := range cases {
		for _, n := range c.sizes {
			prep := benchPrep(b, n)
			b.Run(fmt.Sprintf("%s/n=%d", c.strategy, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := prep.Run(core.Options{Strategy: c.strategy, Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE3_KReplacement times the §4.2 replacement neighbourhood
// query (a 2k-way SQL join) for k = 1, 2.
func BenchmarkE3_KReplacement(b *testing.B) {
	for _, n := range []int{100, 500} {
		db := benchDB(b, n)
		prep, err := core.Prepare(db, benchMealQuery)
		if err != nil {
			b.Fatal(err)
		}
		inst := prep.Instance
		mult := make([]int, len(inst.Rows))
		placed := 0
		for i := range mult {
			if placed < 3 {
				mult[i] = 1
				placed++
			}
		}
		for _, k := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, _, err := search.ReplacementProbe(inst, db, mult, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE4_MultiPackage measures retrieving m packages through
// repeated MILP solves with exclusion cuts (§5 solver limitations).
func BenchmarkE4_MultiPackage(b *testing.B) {
	prep := benchPrep(b, 500)
	for _, m := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model, err := translate.Translate(prep.Analysis, prep.Instance.Rows, prep.Instance.IDs)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < m; k++ {
					res, err := model.Solve()
					if err != nil {
						b.Fatal(err)
					}
					if res.Solution.X == nil {
						break
					}
					if k+1 < m {
						if err := model.AddExclusionCut(res.Multiplicities); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkE5_Quality times local search at increasing restart budgets
// (the quality numbers are in cmd/pbench -exp e5).
func BenchmarkE5_Quality(b *testing.B) {
	db := benchDB(b, 200)
	prep, err := core.Prepare(db, benchMealQuery)
	if err != nil {
		b.Fatal(err)
	}
	for _, restarts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("restarts=%d", restarts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := search.LocalSearch(prep.Instance, db, search.Options{
					Restarts: restarts, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_Repeat measures solver cost as REPEAT widens multiplicity.
func BenchmarkE6_Repeat(b *testing.B) {
	db := benchDB(b, 30)
	for _, repeat := range []int{0, 2, 4} {
		q := fmt.Sprintf(`
			SELECT PACKAGE(R) AS P FROM recipes R REPEAT %d
			SUCH THAT COUNT(*) = 5 AND SUM(P.protein) >= 150
			MAXIMIZE SUM(P.protein)`, repeat)
		b.Run(fmt.Sprintf("repeat=%d", repeat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Evaluate(db, q, core.Options{Strategy: core.Solver}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_Diversity compares top-k retrieval with diverse selection.
func BenchmarkE7_Diversity(b *testing.B) {
	prep := benchPrep(b, 300)
	for _, diverse := range []bool{false, true} {
		name := "topk"
		if diverse {
			name = "diverse"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := prep.Run(core.Options{
					Strategy: core.Solver, Limit: 5, Diverse: diverse, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_SketchRefine compares the partition-based SketchRefine
// strategy against the exact MILP solver as the relation grows (the
// follow-up papers' scalability claim). cmd/pbench -exp e8 prints the
// matching objective-gap table, including the N=100k point.
func BenchmarkE8_SketchRefine(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		prep := benchPrep(b, n)
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prep.Run(core.Options{Strategy: core.Solver, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sketch/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prep.Run(core.Options{Strategy: core.SketchRefineStrategy, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9_HierarchicalSketch compares flat SketchRefine against the
// depth-2 partition tree and against a warm cross-query partition
// cache. cmd/pbench -exp e9 prints the matching table with the N=1M
// point.
func BenchmarkE9_HierarchicalSketch(b *testing.B) {
	n := 20000
	prep := benchPrep(b, n)
	b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(core.Options{Strategy: core.SketchRefineStrategy, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("hier-d2/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(core.Options{Strategy: core.SketchRefineStrategy, Seed: 1, SketchDepth: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("hier-d2-cached/n=%d", n), func(b *testing.B) {
		cache := sketch.NewCache(0)
		opts := core.Options{Strategy: core.SketchRefineStrategy, Seed: 1, SketchDepth: 2, SketchCache: cache}
		if _, err := prep.Run(opts); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10_ParallelPersist compares the serial SketchRefine
// pipeline against the parallel one (identical results, divided work)
// and against a disk-warm cold start that loads the partition tree from
// the on-disk store instead of rebuilding. cmd/pbench -exp e10 prints
// the matching table with the 1M and 10M points.
func BenchmarkE10_ParallelPersist(b *testing.B) {
	n := 20000
	prep := benchPrep(b, n)
	base := core.Options{Strategy: core.SketchRefineStrategy, Seed: 1, SketchDepth: 2}
	b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
		opts := base
		opts.SketchParallelism = 1
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("parallel/n=%d/workers=%d", n, runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("disk-warm/n=%d", n), func(b *testing.B) {
		opts := base
		opts.SketchPersistDir = b.TempDir()
		if _, err := prep.Run(opts); err != nil { // cold run writes the tree
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11_FullGrammarSketch runs the full-atom-grammar workloads —
// an AVG rewrite, a MIN/MAX envelope query, and a two-branch
// disjunction — under SketchRefine, the queries that used to fall back
// to the exact solver. cmd/pbench -exp e11 prints the matching
// sketch-vs-exact table with the 100k and 1M points.
func BenchmarkE11_FullGrammarSketch(b *testing.B) {
	n := 20000
	db := benchDB(b, n)
	for _, q := range bench.E11Queries {
		prep, err := core.Prepare(db, q.Query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/n=%d", q.Name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := prep.Run(core.Options{Strategy: core.SketchRefineStrategy, Seed: 1, SketchDepth: 2})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Strategy != core.SketchRefineStrategy || res.Stats.SketchLevels < 1 {
					b.Fatalf("fell off the sketch path: strategy=%v levels=%d",
						res.Stats.Strategy, res.Stats.SketchLevels)
				}
			}
		})
	}
}

// BenchmarkE12_IncrementalMaintenance compares tree readiness after a
// 1% write batch: a full rebuild of the partition tree versus
// Tree.ApplyDelta patching the stale tree through the real lineage
// pipeline (minidb delta log → fingerprint memo → remap). cmd/pbench
// -exp e12 prints the matching table with the 100k/1M points and the
// 0.1%/1%/10% batch sweep.
func BenchmarkE12_IncrementalMaintenance(b *testing.B) {
	n := 20000
	db := benchDB(b, n)
	prep, err := core.Prepare(db, benchMealQuery)
	if err != nil {
		b.Fatal(err)
	}
	opts := sketch.Options{MaxPartitionSize: 64, Depth: 2, Seed: 1}
	memo := core.NewFingerprintMemo()
	memo.Advance(prep)
	base := sketch.BuildTree(prep.Instance, opts)

	batch := n / 100
	rows := dataset.Recipes(dataset.RecipesConfig{N: batch, Seed: 7})
	for i := range rows {
		rows[i][0] = value.Int(int64(n + 1000000 + i))
	}
	if err := db.InsertRows("recipes", rows); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(fmt.Sprintf("DELETE FROM recipes WHERE id > %d AND id <= %d", n/2, n/2+batch/5)); err != nil {
		b.Fatal(err)
	}
	prep2, err := core.Prepare(db, benchMealQuery)
	if err != nil {
		b.Fatal(err)
	}
	_, patch := memo.Advance(prep2)
	if patch == nil {
		b.Fatal("no patch lineage")
	}
	b.Run(fmt.Sprintf("rebuild/n=%d/batch=1%%", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if tree := sketch.BuildTree(prep2.Instance, opts); len(tree.Leaves()) == 0 {
				b.Fatal("empty tree")
			}
		}
	})
	b.Run(fmt.Sprintf("apply-delta/n=%d/batch=1%%", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			patched, ok := base.ApplyDelta(prep2.Instance.Rows, patch.Remap, opts)
			if !ok || len(patched.Leaves()) == 0 {
				b.Fatal("patch failed")
			}
		}
	})
}

// BenchmarkE13_PlannerVsHandSet compares the cost-based planner
// (strategy and every sketch knob chosen from catalog statistics)
// against the pre-planner hand-set defaults (flat τ=64 sketch, serial,
// rebuild after writes) on a read-only and a write-heavy cell.
// cmd/pbench -exp e13 prints the matching table with the 100k/1M mixed
// workload.
func BenchmarkE13_PlannerVsHandSet(b *testing.B) {
	n := 20000
	handOpts := func(db *minidb.DB) core.Options {
		return core.Options{Strategy: core.SketchRefineStrategy, Seed: 1,
			SketchPartitionSize: 64, SketchDepth: 1, SketchParallelism: 1,
			SketchCache: sketch.NewCache(0), SketchMemo: core.NewFingerprintMemo()}
	}
	planOpts := func(db *minidb.DB) core.Options {
		return core.Options{Seed: 1, SketchIncremental: true, SketchCache: sketch.NewCache(0),
			SketchMemo: core.NewFingerprintMemo(), Catalog: catalog.New(db)}
	}
	for _, v := range []struct {
		name string
		opts func(*minidb.DB) core.Options
	}{{"hand-set", handOpts}, {"planner", planOpts}} {
		b.Run(fmt.Sprintf("read-only/%s/n=%d", v.name, n), func(b *testing.B) {
			db := benchDB(b, n)
			opts := v.opts(db)
			prep, err := core.Prepare(db, benchMealQuery)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("write-heavy/%s/n=%d", v.name, n), func(b *testing.B) {
			db := benchDB(b, n)
			opts := v.opts(db)
			prep, err := core.Prepare(db, benchMealQuery)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := prep.Run(opts); err != nil { // warm the tree
				b.Fatal(err)
			}
			batch := n / 100
			rows := dataset.Recipes(dataset.RecipesConfig{N: batch, Seed: 7})
			for i := range rows {
				rows[i][0] = value.Int(int64(n + 1000000 + i))
			}
			if err := db.InsertRows("recipes", rows); err != nil {
				b.Fatal(err)
			}
			if prep, err = core.Prepare(db, benchMealQuery); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE15_CertifiedBounds times the certified-interval machinery:
// the meal query with the planner-chosen bound pass (every answer must
// ship a certificate), and the two-branch disjunctive query with
// GapTolerance=5% (the anytime exit must certify after fewer branches
// than the tolerance-off control). cmd/pbench -exp e15 prints the
// matching table with the 100k/1M points and the standalone bound-LP
// overhead.
func BenchmarkE15_CertifiedBounds(b *testing.B) {
	n := 20000
	b.Run(fmt.Sprintf("certified/n=%d", n), func(b *testing.B) {
		db := benchDB(b, n)
		prep, err := core.Prepare(db, benchMealQuery)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{Seed: 1, SketchCache: sketch.NewCache(0),
			SketchMemo: core.NewFingerprintMemo(), Catalog: catalog.New(db)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := prep.Run(opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.Certified {
				b.Fatalf("no certificate: %+v", res.Stats)
			}
		}
	})
	b.Run(fmt.Sprintf("anytime-gap5/n=%d", n), func(b *testing.B) {
		db := benchDB(b, n)
		prep, err := core.Prepare(db, bench.E15Disjunctive)
		if err != nil {
			b.Fatal(err)
		}
		control, err := prep.Run(core.Options{Strategy: core.SketchRefineStrategy, Seed: 1,
			SketchCache: sketch.NewCache(0), SketchMemo: core.NewFingerprintMemo()})
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{Strategy: core.SketchRefineStrategy, Seed: 1,
			SketchCache: sketch.NewCache(0), SketchMemo: core.NewFingerprintMemo(),
			GapTolerance: 0.05}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := prep.Run(opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.Certified {
				b.Fatalf("anytime run lost the certificate: %+v", res.Stats)
			}
			if res.Stats.SketchBranches >= control.Stats.SketchBranches {
				b.Fatalf("no early exit: %d branches with tolerance vs %d without",
					res.Stats.SketchBranches, control.Stats.SketchBranches)
			}
		}
	})
}

// BenchmarkE16_BandTightening times the full bound pipeline against its
// own stage 1 (segmented tree-lp, no tightening) on the BETWEEN-heavy
// band query, and asserts the pipeline's certified gap is no looser —
// the tightening stages' whole point. cmd/pbench -exp e16 prints the
// matching table with the 100k/1M points, bound-pass share, and the
// anytime early-exit cell.
func BenchmarkE16_BandTightening(b *testing.B) {
	n := 20000
	db := benchDB(b, n)
	prep, err := core.Prepare(db, bench.E16Query)
	if err != nil {
		b.Fatal(err)
	}
	solve := func(b *testing.B, mode string) *sketch.Result {
		res, err := sketch.Solve(prep.Instance, sketch.Options{Seed: 1, BoundMode: mode})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible || !res.Certified {
			b.Fatalf("mode %q: no certified package: %+v", mode, res)
		}
		return res
	}
	stage1Gap := solve(b, bound.StageTreeLP).Gap
	b.Run(fmt.Sprintf("tree-lp/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve(b, bound.StageTreeLP)
		}
	})
	b.Run(fmt.Sprintf("pipeline/n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := solve(b, ""); res.Gap > stage1Gap {
				b.Fatalf("pipeline gap %.2f%% is looser than the tree-lp gap %.2f%%",
					100*res.Gap, 100*stage1Gap)
			}
		}
	})
}

// BenchmarkSketchPartition isolates the offline partitioning step.
func BenchmarkSketchPartition(b *testing.B) {
	prep := benchPrep(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := sketch.Partition(prep.Instance, sketch.Options{MaxPartitionSize: 64, Seed: 1})
		if len(part.Groups) == 0 {
			b.Fatal("no partitions")
		}
	}
}

// BenchmarkE14_LifecycleLoad pushes concurrent clients through the
// admission controller over a warmed partition tree — the Go-bench
// twin of cmd/pbench -exp e14's QPS/p50/p95/p99 table. Each iteration
// is one admitted query (acquire, solve, release) racing b.RunParallel
// workers for the controller's 4 slots.
func BenchmarkE14_LifecycleLoad(b *testing.B) {
	db := benchDB(b, 20000)
	cache := sketch.NewCache(0)
	opts := core.Options{Strategy: core.SketchRefineStrategy, Seed: 1,
		SketchCache: cache, SketchMemo: core.NewFingerprintMemo()}
	prep, err := core.Prepare(db, benchMealQuery)
	if err != nil {
		b.Fatal(err)
	}
	prep.SketchCache = cache
	if _, err := prep.Run(opts); err != nil {
		b.Fatal(err) // warm the tree outside the timed region
	}
	adm := lifecycle.NewController(4, 1<<20)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			release, err := adm.Acquire(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			_, rerr := prep.RunContext(context.Background(), opts)
			release()
			if rerr != nil {
				b.Fatal(rerr)
			}
		}
	})
}
