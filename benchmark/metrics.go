package main

// metricDef names one metric exactly as BENCHMARK.json does.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the parent's median it may worsen by
	// count marks a per-layer metric the program counts rather than
	// times: it must repeat exactly for a seed.
	count bool
}

// endToEndMetrics are what a user at the paper's interface would see.
// Every workload reports all of them from the untraced run.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_query", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "tightness_mean", Unit: "ratio", Better: "higher", Bound: 0.06},
	{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.001},
}

// perLayerMetrics come from the traced run. README.md tabulates which
// end-to-end metric each should move, and on which workload.
var perLayerMetrics = []metricDef{
	{Name: "paql.parse_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.prepare_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.prepare.rows_scanned_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "core.prepare.candidates_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "plan.plan_us_p50", Unit: "us", Better: "lower"},
	{Name: "catalog.refresh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "translate.model_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "translate.weigh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "search.seed_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "milp.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "milp.solve_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "milp.nodes_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "lp.iters_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "lp.root_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "lp.us_per_iter", Unit: "us", Better: "lower"},
	{Name: "core.fingerprint_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.fingerprint.rows_hashed_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "core.fingerprint.hit_share", Unit: "ratio", Better: "higher", count: true},
	{Name: "sketch.build_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sketch.build.krows_per_s", Unit: "krows/s", Better: "higher"},
	{Name: "sketch.patch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sketch.patch_share", Unit: "ratio", Better: "higher", count: true},
	{Name: "sketch.cache.hit_share", Unit: "ratio", Better: "higher", count: true},
	{Name: "sketch.cache.evictions", Unit: "count", Better: "lower", count: true},
	{Name: "sketch.solve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sketch.descent_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bound.pass_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bound.pass_share", Unit: "ratio", Better: "lower"},
	{Name: "bound.pipeline_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bound.rounds_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "sketch.nodes_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "sketch.lp_iters_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "sketch.leaves_refined_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "sketch.leaves_repaired_per_query", Unit: "count", Better: "lower", count: true},
	{Name: "sketch.top_vars", Unit: "count", Better: "lower", count: true},
	{Name: "core.package_us_p50", Unit: "us", Better: "lower"},
	{Name: "minidb.load_ms", Unit: "ms", Better: "lower"},
	{Name: "minidb.insert_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "minidb.delete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cycles_per_query", Unit: "count", Better: "lower"},
	{Name: "go.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}
