package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/paql"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/sketch"
	"repro/internal/translate"
)

// The traced run replays a workload's first ops, but instead of one
// System.Query call it makes the engine's own sequence of calls into
// the layers' public functions itself and records a span around each.
// No file outside benchmark/ carries a span or a counter: tracing
// inside the engine is a later change (ROADMAP item 1).

// span is one timed call into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1: an op's root span, or a probe
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Probe  bool    `json:"probe,omitempty"` // measured beside the op, not part of it
}

func (s span) ms() float64 { return (s.End - s.Start) / 1000 }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // ids of the spans begun and not yet ended, innermost last
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// tail records a child of the innermost open span covering its last d:
// how a duration the layer itself reports (sketch.Result.BoundTime)
// enters the span tree.
func (t *tracer) tail(name string, d time.Duration) {
	end := t.now()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.open[len(t.open)-1], Op: t.op, Name: name,
		Start: end - float64(d)/float64(time.Microsecond), End: end})
}

// probe times fn beside the op: a layer call the engine makes only
// deep inside another layer, repeated here on the same inputs.
func (t *tracer) probe(name string, fn func()) {
	s := span{ID: len(t.spans), Parent: -1, Op: t.op, Name: name, Start: t.now(), Probe: true}
	fn()
	s.End = t.now()
	t.spans = append(t.spans, s)
}

// durations lists each span's duration in ms, by span name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.ms())
	}
	return out
}

// selfTimes sums, by span name, each span's duration minus the part its
// child spans cover. Probes stand outside the ops and are left out.
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if !s.Probe {
			out[s.Name] += self[i]
		}
	}
	return out
}

// rootSpan names an op's root span; its self time is harness glue, not
// a layer.
const rootSpan = "op"

// layerCounts sum, over the traced ops, the work counts the layers
// report at the traced boundaries.
type layerCounts struct {
	rowsScanned, milpNodes, lpIters                                   float64
	sketchNodes, sketchIters, refined, repaired, topVars, boundRounds float64
	buildRows                                                         float64 // candidates partitioned by sketch.BuildTree
	rootIters                                                         float64 // simplex iterations of the root-relaxation probes
}

// tracedOp runs one op layer by layer under a root span, then the
// probes beside it. It returns an answer shaped like System.Query's, so
// the same validator judges it.
func (e *env) tracedOp(tr *tracer, o op, lc *layerCounts) (*core.Result, error) {
	tr.begin(rootSpan)
	res, probes, err := e.layers(tr, o, lc)
	tr.end()
	for _, p := range probes {
		tr.probe(p.name, p.fn)
	}
	return res, err
}

// probe is a layer call to time beside an op, once the op is over.
type probe struct {
	name string
	fn   func()
}

// layers makes the engine's sequence of layer calls for one op, a span
// around each, and returns the probes to run once the op is over.
func (e *env) layers(tr *tracer, o op, lc *layerCounts) (*core.Result, []probe, error) {
	ctx := context.Background()
	db, cache, memo := e.sys.DB(), e.sys.SketchCache(), e.sys.SketchMemo()
	var probes []probe
	if e.w.writes {
		tr.begin("minidb.insert")
		_, err := db.Exec(o.insert)
		tr.end()
		if err != nil {
			return nil, nil, fmt.Errorf("insert: %w", err)
		}
		e.added = append(e.added, o.inserted...)
		tr.begin("minidb.delete")
		_, err = db.Exec(o.delete)
		tr.end()
		if err != nil {
			return nil, nil, fmt.Errorf("delete: %w", err)
		}
		e.deleted += deleteBatch
	}

	tr.begin("paql.parse")
	q, err := paql.Parse(o.query())
	if err == nil {
		// PrepareQueryContext analyzes again; the analysis is microseconds
		// and idempotent, and timing it here keeps parse+analyze one figure.
		tab, _ := db.Table(q.Table)
		_, err = paql.Analyze(q, tab.Schema)
	}
	tr.end()
	if err != nil {
		return nil, nil, err
	}

	tr.begin("core.prepare")
	prep, err := core.PrepareQueryContext(ctx, db, q)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	prep.SketchCache, prep.SketchMemo = cache, memo
	inst := prep.Instance
	lc.rowsScanned += float64(len(prep.Table.Rows))

	// The planner reads the catalog, which folds in the write batch on
	// its first read after a write; timing that read apart leaves
	// plan.plan the planning itself.
	tr.begin("catalog.refresh")
	e.sys.Catalog().Stats(tableName(o.table))
	tr.end()
	opts := core.Options{SketchIncremental: true, SketchCache: cache, SketchMemo: memo, Catalog: e.sys.Catalog()}
	tr.begin("plan.plan")
	qp := prep.Plan(opts)
	tr.end()

	res := &core.Result{Query: q}
	res.Stats.Candidates = len(inst.Rows)
	var mult []int
	switch qp.Strategy {
	case plan.StrategySolver:
		res.Stats.Strategy = core.Solver
		tr.begin("translate.model")
		model, err := translate.Translate(prep.Analysis, inst.Rows, inst.IDs)
		tr.end()
		if err != nil {
			return nil, nil, err
		}
		// The engine warm-starts branch-and-bound with a local-search
		// incumbent under these very options.
		mopts := milp.Options{Ctx: ctx}
		tr.begin("search.seed")
		ls, err := search.LocalSearch(inst, db, search.Options{Ctx: ctx, Limit: 1, Restarts: 2, MaxK: 1, Timeout: 200 * time.Millisecond})
		tr.end()
		if err == nil && len(ls.Packages) > 0 {
			mopts.InitialIncumbent = make([]float64, model.MILP.LP.NumVars())
			for i, m := range ls.Packages[0].Mult {
				mopts.InitialIncumbent[i] = float64(m)
			}
		}
		tr.begin("milp.solve")
		sol := milp.Solve(model.MILP, mopts)
		tr.end()
		if sol.Status != milp.StatusOptimal {
			return nil, nil, fmt.Errorf("milp: %v", sol.Status)
		}
		lc.milpNodes += float64(sol.Nodes)
		lc.lpIters += float64(sol.LPIters)
		mult = model.Multiplicities(sol.X)
		res.Stats.Exact, res.Stats.Certified = true, true
		res.Stats.BoundValue = sol.Objective + inst.ObjK
		probes = []probe{{"lp.root", func() { lc.rootIters += float64(lp.Solve(model.MILP.LP).Iterations) }}}

	case plan.StrategySketch:
		res.Stats.Strategy = core.SketchRefineStrategy
		tr.begin("core.fingerprint")
		fp, patch := memo.Advance(prep)
		tr.end()
		so := sketch.Options{Ctx: ctx, MaxPartitionSize: qp.Tau, Depth: qp.Depth, Parallelism: qp.Parallelism,
			Cache: cache, Fingerprint: &fp}
		switch qp.Bound {
		case plan.BoundRawLP, plan.BoundTreeLP, plan.BoundTreeLPTighten, plan.BoundDescend1:
			so.BoundMode = qp.Bound
		}
		if qp.Incremental {
			so.Patch = patch
		}
		// The engine's tree acquisition, spelled out: cache, else patch
		// the stale tree the write lineage names, else build.
		key := sketch.KeyFor(inst, so)
		tree, cached := cache.Peek(key)
		if !cached && so.Patch != nil {
			baseKey := key
			baseKey.Fingerprint = so.Patch.BaseFingerprint
			if base, ok := cache.Get(baseKey); ok {
				tr.begin("sketch.patch")
				tree, cached = base.ApplyDelta(inst.Rows, so.Patch.Remap, so)
				tr.end()
				res.Stats.SketchTreePatched = cached
			}
		}
		if !cached {
			tr.begin("sketch.build")
			tree = sketch.BuildTree(inst, so)
			tr.end()
			lc.buildRows += float64(len(inst.Rows))
		}
		cache.Put(key, tree)
		tr.begin("sketch.solve")
		sres, err := sketch.Solve(inst, so)
		if err == nil {
			tr.tail("bound.pass", sres.BoundTime)
		}
		tr.end()
		if err != nil {
			return nil, nil, err
		}
		if !sres.CacheHit {
			return nil, nil, fmt.Errorf("sketch.Solve did not find the tree the harness cached")
		}
		if !sres.Feasible {
			return nil, nil, fmt.Errorf("sketch-refine found no feasible package")
		}
		lc.sketchNodes += float64(sres.Nodes)
		lc.sketchIters += float64(sres.LPIters)
		lc.refined += float64(sres.Refined)
		lc.repaired += float64(sres.Repaired)
		lc.topVars += float64(sres.TopVars)
		lc.boundRounds += float64(sres.BoundRounds)
		mult = sres.Mult
		res.Stats.Certified, res.Stats.BoundValue = sres.Certified, sres.Bound

		probes = []probe{
			{"translate.weigh", func() { weigh(prep) }},
			{"bound.pipeline", func() { boundPipeline(ctx, inst, tree, so.BoundMode) }},
		}

	default:
		return nil, nil, fmt.Errorf("planner chose %q", qp.Strategy)
	}

	tr.begin("core.package")
	rows := inst.Materialize(mult)
	ok, err := paql.Satisfies(q.SuchThat, rows)
	var obj float64
	if err == nil {
		obj, err = paql.ObjectiveValue(q.Objective, rows)
	}
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, fmt.Errorf("package fails SUCH THAT")
	}
	res.Packages = []*core.Package{{Mult: mult, CandidateIDs: inst.IDs, Rows: rows, Objective: obj}}
	return res, probes, nil
}

// weigh repeats the per-candidate weighing the sketch path does before
// any solve: lower the formula, weigh every atom and the objective over
// all candidates.
func weigh(prep *core.Prepared) {
	// sketch.Solve has already lowered and weighed this very query, so
	// none of these calls can fail here.
	branches, _, _ := translate.CompileSketch(prep.Analysis, sketch.MaxBranches)
	for _, br := range branches {
		for _, at := range br.Atoms {
			_, _ = at.Weigh(prep.Instance.Rows)
		}
	}
	_, _, _ = translate.ObjectiveWeights(prep.Analysis, prep.Instance.Rows)
}

// boundPipeline repeats the certified-bound pass from outside: one
// group per leaf, segmented, then the staged pipeline as deep as the
// plan's bound decision allows. It cross-checks bound.pass, which
// sketch.Solve reports about itself.
func boundPipeline(ctx context.Context, inst *search.Instance, tree *sketch.Tree, mode string) {
	leaves := tree.Leaves()
	groups := make([]bound.Group, len(leaves))
	for g := range leaves {
		groups[g] = bound.Group{Tuples: leaves[g].Tuples, Hi: float64(len(leaves[g].Tuples) * inst.MaxMult)}
	}
	tupleHi := func(int) float64 { return float64(inst.MaxMult) }
	const maxVars, descendBudget = 8192, 4096 // sketch's maxBoundVars and boundDescendBudget
	po := bound.PipelineOptions{Ctx: ctx, Atoms: inst.Atoms, ObjW: inst.ObjW, Konst: inst.ObjK, Sense: lp.Maximize,
		MaxStage: bound.StageDescend, TightenRounds: bound.DefaultTightenRounds, DescendBudget: descendBudget, TupleHi: tupleHi}
	switch mode {
	case bound.StageRawLP, bound.StageTreeLP:
		po.MaxStage, po.TightenRounds, po.DescendBudget = bound.StageTreeLP, 0, 0
	case bound.StageTightened:
		po.MaxStage, po.DescendBudget = bound.StageTightened, 0
	}
	bound.RunPipeline(bound.SplitGroups(groups, inst.ObjW, lp.Maximize, maxVars, nil, tupleHi), po)
}

// traced measures the workload's per-layer metrics: a reference pass
// through System.Query gives the counts the public stats carry and the
// latencies the spans must add up to; a second, identically set-up
// system then runs the same ops layer by layer.
func traced(w workload, seed int64) (result, error) {
	ref, err := setup(w, seed, w.traceOps)
	if err != nil {
		return result{}, err
	}
	c0, m0 := ref.sys.SketchCache().Stats(), ref.sys.SketchMemo().Stats()
	rp := ref.run(ref.ops)
	c1, m1 := ref.sys.SketchCache().Stats(), ref.sys.SketchMemo().Stats()
	if rp.failed > 0 {
		return result{}, fmt.Errorf("reference pass: %d ops failed: %s", rp.failed, rp.firstFailure)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	loadMS := ref.loadMS
	ref = nil

	e, err := setup(w, seed, w.traceOps)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	tr := &tracer{t0: time.Now()}
	var lc layerCounts
	failed, firstFailure, patched := 0, "", 0
	for i, o := range e.ops {
		tr.op = i
		res, err := e.tracedOp(tr, o, &lc)
		if err == nil {
			_, err = validate(o, w.exact, e.live(o.table), res)
		}
		if err == nil && math.Abs(res.Packages[0].Objective-rp.objective[i]) > tol {
			err = fmt.Errorf("traced objective %g, System.Query answered %g", res.Packages[0].Objective, rp.objective[i])
		}
		if err != nil {
			failed++
			if firstFailure == "" {
				firstFailure = fmt.Sprintf("op %d (T%d): %v", i, o.tmpl, err)
			}
			continue
		}
		if res.Stats.SketchTreePatched {
			patched++
		}
	}
	if failed > 0 {
		fmt.Printf("first failure: %s\n", firstFailure)
	}
	if patched != rp.patched {
		return result{}, fmt.Errorf("traced pass patched %d trees, System.Query patched %d", patched, rp.patched)
	}
	if err := writeTrace(w, seed, tr); err != nil {
		return result{}, err
	}

	n := float64(len(e.ops))
	dur := tr.durations()
	self := tr.selfTimes()
	layerSelf := 0.0
	for name, v := range self {
		if name != rootSpan {
			layerSelf += v
		}
	}
	printSelfTimes(self, dur)

	// A layer that is idle on this workload has no spans and reports 0.
	orZero := func(stat func([]float64) float64, xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return stat(xs)
	}
	p50 := func(name string, scale float64) float64 { return orZero(median, dur[name]) * scale }
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	descent := make([]float64, len(dur["sketch.solve"]))
	for i := range descent {
		descent[i] = dur["sketch.solve"][i] - dur["bound.pass"][i]
	}
	lookups := float64(c1.Hits - c0.Hits + c1.Misses - c0.Misses)
	values := map[string]float64{
		"paql.parse_us_p50":                      p50("paql.parse", 1000),
		"core.prepare_ms_p50":                    p50("core.prepare", 1),
		"core.prepare.rows_scanned_per_query":    lc.rowsScanned / n,
		"core.prepare.candidates_per_query":      mean(rp.candidates),
		"plan.plan_us_p50":                       p50("plan.plan", 1000),
		"catalog.refresh_ms_p50":                 p50("catalog.refresh", 1),
		"translate.model_ms_p50":                 p50("translate.model", 1),
		"translate.weigh_ms_p50":                 p50("translate.weigh", 1),
		"search.seed_ms_p50":                     p50("search.seed", 1),
		"milp.solve_ms_p50":                      p50("milp.solve", 1),
		"milp.solve_ms_p90":                      orZero(func(xs []float64) float64 { return percentile(xs, 0.9) }, dur["milp.solve"]),
		"milp.nodes_per_query":                   lc.milpNodes / n,
		"lp.iters_per_query":                     lc.lpIters / n,
		"lp.root_ms_p50":                         p50("lp.root", 1),
		"lp.us_per_iter":                         share(sum(dur["lp.root"])*1000, lc.rootIters),
		"core.fingerprint_ms_p50":                p50("core.fingerprint", 1),
		"core.fingerprint.rows_hashed_per_query": float64(m1.RowsHashed-m0.RowsHashed) / n,
		"core.fingerprint.hit_share":             share(float64(m1.Hits-m0.Hits), float64(m1.Lookups-m0.Lookups)),
		"sketch.build_ms_p50":                    p50("sketch.build", 1),
		"sketch.build.krows_per_s":               share(lc.buildRows, sum(dur["sketch.build"])),
		"sketch.patch_ms_p50":                    p50("sketch.patch", 1),
		"sketch.patch_share":                     float64(rp.patched) / n,
		"sketch.cache.hit_share":                 share(float64(c1.Hits-c0.Hits), lookups),
		"sketch.cache.evictions":                 float64(c1.Evictions - c0.Evictions),
		"sketch.solve_ms_p50":                    p50("sketch.solve", 1),
		"sketch.descent_ms_p50":                  orZero(median, descent),
		"bound.pass_ms_p50":                      p50("bound.pass", 1),
		"bound.pass_share":                       share(sum(dur["bound.pass"]), sum(dur["sketch.solve"])),
		"bound.pipeline_ms_p50":                  p50("bound.pipeline", 1),
		"bound.rounds_per_query":                 lc.boundRounds / n,
		"sketch.nodes_per_query":                 lc.sketchNodes / n,
		"sketch.lp_iters_per_query":              lc.sketchIters / n,
		"sketch.leaves_refined_per_query":        lc.refined / n,
		"sketch.leaves_repaired_per_query":       lc.repaired / n,
		"sketch.top_vars":                        lc.topVars / n,
		"core.package_us_p50":                    p50("core.package", 1000),
		"minidb.load_ms":                         loadMS,
		"minidb.insert_ms_p50":                   p50("minidb.insert", 1),
		"minidb.delete_ms_p50":                   p50("minidb.delete", 1),
		"go.gc_cycles_per_query":                 float64(rp.gcCycles) / n,
		"go.heap_live_mb":                        float64(mem.HeapAlloc) / (1 << 20),
		"trace.coverage":                         layerSelf / sum(rp.opMS),
	}
	return report(perLayerMetrics, values, len(e.ops), failed)
}

// printSelfTimes prints the per-layer self-time table, largest first.
func printSelfTimes(self map[string]float64, dur map[string][]float64) {
	names := make([]string, 0, len(self))
	total := 0.0
	for name, v := range self {
		names = append(names, name)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("%-18s %6s %12s %7s\n", "layer", "spans", "self ms", "share")
	for _, name := range names {
		fmt.Printf("%-18s %6d %12.2f %6.1f%%\n", name, len(dur[name]), self[name], 100*self[name]/total)
	}
}

// outDir is where the traced run leaves its spans and the noise mode
// its report, relative to the directory the benchmark is run from (the
// root of the checkout).
const outDir = "benchmark/out"

func writeTrace(w workload, seed int64, tr *tracer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), data, 0o644)
}
