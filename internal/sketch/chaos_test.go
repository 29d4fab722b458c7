package sketch_test

// Chaos harness: the fault-injection acceptance test for the
// graceful-degradation ladder. Every corpus case is the same randomized
// query + write workload the differential harnesses use, evaluated
// three ways — a clean run through the full incremental stack (cache +
// memo + on-disk store), a from-scratch rebuild, and a run under
// injected faults — and the faulted run is held to the ladder's
// contract:
//
//  1. no single subsystem failure fails the query: a faulted run must
//     either return an answer or a *typed* error (lifecycle.ErrInternal
//     from the solve-path fault sites). Any other error is a harness
//     failure;
//  2. a faulted answer is a correct answer: every degradation rung
//     swaps one deterministic tree source for another (patched → the
//     clean run's tree, anything else → the rebuilt tree), so the
//     faulted objective must equal the clean or rebuilt objective, and
//     a certified interval must not be beaten by either reference;
//  3. every registered fault site is exercised (visit + fire counters)
//     and every degradation rung that reports a reason (cache, store,
//     patch, bound) is observed at least once;
//  4. a fully healthy run is byte-identical to the engine without any
//     of this machinery: degraded=false and the same multiplicity
//     vector a bare sketch.Solve produces.
//
// Set CHAOS_SUMMARY=/path/to/file to write the aggregated fault-site
// coverage table (the artifact the CI chaos-smoke job uploads).

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lifecycle"
	"repro/internal/minidb"
	"repro/internal/sketch"
)

// chaosRuleSets cycles one deterministic fault profile per corpus case:
// first every registered site in isolation (persistent and transient
// variants where the distinction matters), then mixed storms.
//
// KindPanic rules may only target sites checked on the solve's own
// goroutine — core.solve and sketch.tree.patch. Parallel build workers
// never check panic sites, so a panic rule elsewhere would escape the
// recovery rungs and kill the test process.
func chaosRuleSets() [][]fault.Rule {
	return [][]fault.Rule{
		{{Site: "sketch.cache.get", Kind: fault.KindError}},
		{{Site: "sketch.cache.put", Kind: fault.KindError}},
		{{Site: "sketch.store.load", Kind: fault.KindError}},
		{{Site: "sketch.store.load", Kind: fault.KindError, Limit: 1}},
		{{Site: "sketch.store.save", Kind: fault.KindError}},
		{{Site: "sketch.store.fs.*", Kind: fault.KindError, Prob: 0.5}},
		{{Site: "sketch.store.fs.write", Kind: fault.KindPartialWrite, Limit: 1}},
		{{Site: "sketch.store.fs.rename", Kind: fault.KindError, Limit: 1}},
		{{Site: "sketch.tree.patch", Kind: fault.KindError}},
		{{Site: "sketch.tree.patch", Kind: fault.KindPanic, Limit: 1}},
		{{Site: "bound.relax", Kind: fault.KindError}},
		{{Site: "minidb.delta", Kind: fault.KindError}},
		{{Site: "core.solve", Kind: fault.KindError, Limit: 1}},
		{{Site: "core.solve", Kind: fault.KindPanic, Limit: 1}},
		// Storms: several subsystems failing probabilistically at once,
		// plus latency-only noise that must change nothing.
		{
			{Site: "sketch.*", Kind: fault.KindError, Prob: 0.4},
			{Site: "minidb.delta", Kind: fault.KindError, Prob: 0.5},
		},
		{
			{Site: "sketch.store.*", Kind: fault.KindLatency, Latency: 10 * time.Microsecond},
			{Site: "sketch.cache.*", Kind: fault.KindError, Prob: 0.5},
			{Site: "bound.relax", Kind: fault.KindError, Prob: 0.5},
		},
	}
}

// chaosStats aggregates the corpus for the closing assertions.
type chaosStats struct {
	cases      int // faulted runs executed
	withWrites int // cases whose faulted run saw a patched-lineage table
	answers    int // faulted runs that returned an answer
	typedErrs  int // faulted runs that returned lifecycle.ErrInternal
	degraded   int // faulted answers that reported at least one rung
}

// chaosStack is one full incremental evaluation stack over a database of
// its own; the clean and faulted runs each get one, loaded and written
// alike, so the faulted run's lineage is an exact replica of the clean
// run's. (A table's candidate snapshot carries the fingerprint lineage,
// so two stacks over one table would share it: whichever ran first after
// a write would take the patch and leave the other a rebuild.)
type chaosStack struct {
	db   *minidb.DB
	opts core.Options
}

// chaosDB loads one replica of a generated table.
func chaosDB(t *testing.T, ddl []string) *minidb.DB {
	t.Helper()
	db := minidb.New()
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("ddl %q: %v", stmt, err)
		}
	}
	return db
}

func newChaosStack(t *testing.T, db *minidb.DB, tau, depth int, seed int64) *chaosStack {
	t.Helper()
	return &chaosStack{db: db, opts: core.Options{
		Strategy:            core.SketchRefineStrategy,
		Seed:                seed,
		SketchPartitionSize: tau,
		SketchDepth:         depth,
		SketchCache:         sketch.NewCache(0),
		SketchMemo:          core.NewFingerprintMemo(),
		SketchIncremental:   true,
		SketchPersistDir:    t.TempDir(),
	}}
}

// chaosClose reports a ≈ b under the harness's relative tolerance.
func chaosClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// mergeCoverage folds one injector's counters into the corpus total.
func mergeCoverage(total fault.Coverage, c fault.Coverage) {
	for site, s := range c {
		agg := total[site]
		agg.Visits += s.Visits
		agg.Fires += s.Fires
		total[site] = agg
	}
}

// chaosOne runs a single corpus case. Returns false when the generated
// query never reached a faulted evaluation (not applicable, empty
// table, or the empty-package quirk).
func chaosOne(t *testing.T, g *qgen, rules []fault.Rule, seed int64,
	cs *chaosStats, cov fault.Coverage, rungs map[string]int) bool {
	t.Helper()
	ddl, gc := genQuery(g)
	db := chaosDB(t, ddl)
	prep, err := core.Prepare(db, gc.queryText)
	if err != nil {
		return false
	}
	if _, err := prep.Sketch.Applicable(); err != nil {
		return false
	}
	tau := 4 + g.intn(8)
	depth := 1 + g.intn(2)
	clean := newChaosStack(t, db, tau, depth, seed)
	faulty := newChaosStack(t, chaosDB(t, ddl), tau, depth, seed)
	fprep, err := core.Prepare(faulty.db, gc.queryText)
	if err != nil {
		t.Fatalf("prepare on the faulted stack's replica: %v\n%s", err, gc.queryText)
	}

	// Healthy warm-up on both stacks (identical by determinism), plus
	// the byte-identical gate: the full stack with no faults must
	// produce exactly what a bare sketch.Solve produces, undegraded.
	warm, err := prep.Run(clean.opts)
	if err != nil {
		t.Fatalf("healthy warm-up: %v\n%s", err, gc.queryText)
	}
	noLensSplit(t, warm.Stats.Notes, gc.queryText)
	if warm.Stats.Degraded || len(warm.Stats.DegradedReasons) != 0 {
		t.Fatalf("healthy run reported degraded (%v)\n%s", warm.Stats.DegradedReasons, gc.queryText)
	}
	bare, err := sketch.Solve(prep.Instance, sketch.Options{
		MaxPartitionSize: tau, Depth: depth, Seed: seed,
	})
	if err != nil {
		t.Fatalf("bare solve: %v\n%s", err, gc.queryText)
	}
	if (len(warm.Packages) > 0) != bare.Feasible {
		t.Fatalf("healthy run feasibility (%v) differs from bare solve (%v)\n%s",
			len(warm.Packages) > 0, bare.Feasible, gc.queryText)
	}
	if len(warm.Packages) > 0 && !slices.Equal(warm.Packages[0].Mult, bare.Mult) {
		t.Fatalf("healthy run multiplicities differ from bare solve\n full=%v\n bare=%v\n%s",
			warm.Packages[0].Mult, bare.Mult, gc.queryText)
	}
	if _, err := fprep.Run(faulty.opts); err != nil {
		t.Fatalf("faulted-stack warm-up (no injector yet): %v\n%s", err, gc.queryText)
	}

	// Interleave a write batch so the faulted run has patch lineage;
	// cases whose batch comes up empty still run (the patch sites just
	// stay cold for them).
	writes := incrWrite(g, db)
	if len(writes) > 0 {
		for _, stmt := range writes {
			if _, err := faulty.db.Exec(stmt); err != nil {
				t.Fatalf("replaying %q on the faulted stack's replica: %v", stmt, err)
			}
		}
		prep, err = core.Prepare(db, gc.queryText)
		if err != nil {
			t.Fatalf("re-prepare after %v: %v", writes, err)
		}
		if len(prep.Instance.Rows) == 0 {
			return false
		}
		if fprep, err = core.Prepare(faulty.db, gc.queryText); err != nil {
			t.Fatalf("re-prepare on the faulted stack's replica after %v: %v", writes, err)
		}
	}
	ctx := fmt.Sprintf("%s\nwrites=%v rules=%+v seed=%d", gc.queryText, writes, rules, seed)

	// Reference answers: the clean incremental stack (patched path) and
	// a from-scratch rebuild. Every ladder rung lands on one of these
	// two trees, so they bracket all acceptable faulted outcomes.
	cres, err := prep.Run(clean.opts)
	if err != nil {
		t.Fatalf("clean reference: %v\n%s", err, ctx)
	}
	noLensSplit(t, cres.Stats.Notes, ctx)
	rres, err := sketch.Solve(prep.Instance, sketch.Options{
		MaxPartitionSize: tau, Depth: depth, Seed: seed,
	})
	if err != nil {
		t.Fatalf("rebuilt reference: %v\n%s", err, ctx)
	}
	noLensSplit(t, rres.Notes, ctx)
	cleanFeas := len(cres.Packages) > 0

	inj := fault.NewInjector(seed, rules...)
	restore := fault.Enable(inj)
	fres, ferr := fprep.Run(faulty.opts)
	restore()
	mergeCoverage(cov, inj.Coverage())

	cs.cases++
	if len(writes) > 0 {
		cs.withWrites++
	}
	if ferr != nil {
		switch {
		case errors.Is(ferr, lifecycle.ErrInternal):
			cs.typedErrs++
		default:
			t.Fatalf("UNTYPED ERROR under faults: %v\n%s", ferr, ctx)
		}
		return true
	}
	cs.answers++
	noLensSplit(t, fres.Stats.Notes, ctx)
	for _, reason := range fres.Stats.DegradedReasons {
		sub, _, ok := strings.Cut(reason, ": ")
		if !ok || sub == "" {
			t.Fatalf("malformed degraded reason %q\n%s", reason, ctx)
		}
		rungs[sub]++
	}
	if fres.Stats.Degraded != (len(fres.Stats.DegradedReasons) > 0) {
		t.Fatalf("Degraded=%v with %d reasons\n%s", fres.Stats.Degraded, len(fres.Stats.DegradedReasons), ctx)
	}
	if fres.Stats.Degraded {
		cs.degraded++
	}

	fFeas := len(fres.Packages) > 0
	if !fFeas && cleanFeas && rres.Feasible {
		t.Fatalf("WRONG ANSWER: faulted run lost a package both references found\n%s", ctx)
	}
	if fFeas && prep.Query.Objective != nil {
		fObj := fres.Packages[0].Objective
		okClean := cleanFeas && chaosClose(fObj, cres.Packages[0].Objective)
		okRebuilt := rres.Feasible && chaosClose(fObj, rres.Objective)
		if !okClean && !okRebuilt {
			cObj := math.NaN()
			if cleanFeas {
				cObj = cres.Packages[0].Objective
			}
			t.Fatalf("WRONG ANSWER: faulted objective %g matches neither clean %g nor rebuilt %g (feasible=%v/%v)\n%s",
				fObj, cObj, rres.Objective, cleanFeas, rres.Feasible, ctx)
		}
		// A certified interval must stay sound against every reference
		// answer we hold: a degraded-but-certified bound that either
		// reference beats is a ladder bug, not an approximation.
		if fres.Stats.Certified {
			best := fObj
			if cleanFeas && prep.Instance.Better(cres.Packages[0].Objective, best) {
				best = cres.Packages[0].Objective
			}
			if rres.Feasible && prep.Instance.Better(rres.Objective, best) {
				best = rres.Objective
			}
			tol := 1e-6 * (1 + math.Abs(best))
			if prep.Instance.Better(best, fres.Stats.BoundValue) && math.Abs(best-fres.Stats.BoundValue) > tol {
				t.Fatalf("BOUND VIOLATION under faults: objective %g beats certified bound %g\n%s",
					best, fres.Stats.BoundValue, ctx)
			}
		}
	}
	return true
}

// TestChaosFaultedCorpus is the acceptance run: ≥250 randomized cases
// (fewer under -short) under faults at every registered site, zero
// wrong answers, zero untyped errors, every reason-reporting rung
// observed.
func TestChaosFaultedCorpus(t *testing.T) {
	target := 250
	if testing.Short() {
		target = 60
	}
	// Real backoff delays would dominate the corpus; keep the retry
	// structure, shrink the clock.
	defer sketch.SetStoreRetryForTest(3, 50*time.Microsecond, 200*time.Microsecond)()

	rng := rand.New(rand.NewSource(20260808))
	ruleSets := chaosRuleSets()
	cs := &chaosStats{}
	cov := fault.Coverage{}
	rungs := map[string]int{}
	data := make([]byte, 96)
	for attempts := 0; cs.cases < target; attempts++ {
		if attempts >= target*60 {
			t.Fatalf("only %d/%d chaos cases after %d attempts", cs.cases, target, attempts)
		}
		rng.Read(data)
		g := &qgen{data: append([]byte(nil), data...)}
		rules := ruleSets[cs.cases%len(ruleSets)]
		chaosOne(t, g, rules, int64(attempts+1), cs, cov, rungs)
	}

	t.Logf("chaos corpus: %d cases (%d with writes), %d answers (%d degraded), %d typed internal errors",
		cs.cases, cs.withWrites, cs.answers, cs.degraded, cs.typedErrs)
	t.Logf("rungs observed: %v", rungs)

	// Site coverage: every registered fault site must have been both
	// visited and fired at least once across the corpus. scripts/lint.sh
	// holds this list to the fault.Check sites in the code.
	required := []string{
		"core.solve",
		"sketch.cache.get", "sketch.cache.put",
		"sketch.store.load", "sketch.store.save",
		"sketch.tree.patch",
		"bound.relax", "minidb.delta",
	}
	for _, site := range required {
		if s := cov[site]; s.Visits == 0 || s.Fires == 0 {
			t.Errorf("fault site %s not exercised: visits=%d fires=%d", site, s.Visits, s.Fires)
		}
	}
	// The FS sites are registered as a family behind the store; require
	// the hot ops individually and at least one fire across the family.
	var fsFires int64
	for site, s := range cov {
		if strings.HasPrefix(site, "sketch.store.fs.") {
			fsFires += s.Fires
		}
	}
	for _, op := range []string{"read", "create", "write", "rename"} {
		if s := cov["sketch.store.fs."+op]; s.Visits == 0 {
			t.Errorf("fault site sketch.store.fs.%s never visited", op)
		}
	}
	if fsFires == 0 {
		t.Error("no fault ever fired at an FS site")
	}

	// Rung coverage: every degradation rung that reports a reason.
	for _, rung := range []string{"cache", "store", "patch", "bound"} {
		if rungs[rung] == 0 {
			t.Errorf("degradation rung %q never observed", rung)
		}
	}
	if cs.typedErrs == 0 {
		t.Error("no faulted run surfaced a typed lifecycle.ErrInternal (solve-path rung untested)")
	}
	if cs.answers == 0 || cs.degraded == 0 {
		t.Errorf("corpus produced %d answers, %d degraded — ladder never took a rung with an answer", cs.answers, cs.degraded)
	}

	if path := os.Getenv("CHAOS_SUMMARY"); path != "" {
		if err := os.WriteFile(path, []byte(cov.Summary()), 0o644); err != nil {
			t.Errorf("write CHAOS_SUMMARY: %v", err)
		} else {
			t.Logf("fault-site coverage written to %s", path)
		}
	}
}
