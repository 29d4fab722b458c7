package sketch_test

// Write-interleaved differential fuzzing: the incremental-maintenance
// pipeline (minidb delta log → fingerprint memo → Tree.ApplyDelta) is
// held to the same standard as a from-scratch rebuild. Each case
// generates a random table and query (the same generator the main
// harness uses), evaluates once to warm the tree cache, then applies
// 1-3 random INSERT/DELETE batches — or, in the chain corpus, a dozen
// one-row batches, so a tree is patched batch after batch until its drift
// reaches the budget and it is rebuilt; after every batch the query is
// evaluated twice — through the shared cache+memo with incremental
// maintenance on (the patched path) and by rebuilding the partition
// tree from scratch — and both are cross-checked against the exact
// MILP:
//
//  1. incremental maintenance must never lose a package: a round where
//     the rebuilt tree finds a feasible package and the patched path
//     does not is a disagreement, zero tolerated (the engine enforces
//     this structurally — a patched-tree descent that ends infeasible
//     rebuilds from scratch and retries, converging to the exact same
//     evaluation as the rebuilt side). The opposite direction — the
//     patched tree finding a validated package the fresh heuristic
//     misses — is the approximation out-recalling the rebuild; it is
//     counted and bounded, not fatal;
//  2. a feasible patched package must validate under paql.Satisfies
//     (core enforces this on materialization) and must never exist for
//     an instance the exact solver proved infeasible, nor beat a
//     proven optimum;
//  3. patched objective gaps must track rebuilt gaps (quantile-gated,
//     like the main harness — patched trees carry approximate internal
//     representatives, so per-case equality is not expected, but the
//     distribution must not degrade).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/minidb"
	"repro/internal/sketch"
	"repro/internal/translate"
)

// incrStats aggregates one interleaved-write differential run.
type incrStats struct {
	cases, rounds, patched int
	feasible               int
	bonus                  int       // patched feasible where the rebuilt heuristic missed
	gapPatched, gapRebuilt []float64 // parallel, per proven optimum with both sides feasible
	worse                  int       // rounds where the patched gap exceeded rebuilt by >25 points
	certPatched            int       // certified intervals computed from patched envelopes
	certRebuilt            int       // certified intervals from from-scratch rebuilds
	longest                int       // most consecutive patched rounds of one case
	budgetRebuilds         int       // rounds whose patch refused for the drift budget, by the run's note
}

// noLensSplit fails the case when a result carries refine's own tripwire:
// a branch's rows accepted a package the validator rejects (or the
// reverse), i.e. some lowering and paql.Satisfies read an aggregate
// differently. Every corpus asserts it on every solve.
func noLensSplit(t *testing.T, notes []string, ctx string) {
	t.Helper()
	for _, n := range notes {
		if strings.Contains(n, "atom check and full validation disagree") {
			t.Fatalf("LENS/ORACLE SPLIT: %s\n%s", n, ctx)
		}
	}
}

// incrWrite applies one random write batch to table t, returning the
// statements executed (for failure reports).
func incrWrite(g *qgen, db *minidb.DB) []string {
	var stmts []string
	exec := func(s string) {
		// Generated writes are valid by construction; an error here is
		// a bug in the generator, surfaced by the zero-rows guard.
		if _, err := db.Exec(s); err != nil {
			panic(fmt.Sprintf("generated write %q: %v", s, err))
		}
		stmts = append(stmts, s)
	}
	for i, n := 0, g.intn(4); i < n; i++ {
		c := fmt.Sprintf("%d", g.intn(100)-10)
		if g.intn(12) == 0 {
			c = "NULL"
		}
		exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %s)", g.intn(100)-10, g.intn(60), c))
	}
	switch g.intn(4) {
	case 0:
		lo := g.intn(90) - 10
		exec(fmt.Sprintf("DELETE FROM t WHERE a >= %d AND a < %d", lo, lo+2+g.intn(3)))
	case 1:
		lo := g.intn(55)
		exec(fmt.Sprintf("DELETE FROM t WHERE b = %d", lo))
	}
	return stmts
}

// chainWrite is one small batch of a chain: an INSERT, and every third
// round a DELETE of the rows holding one value of a.
func chainWrite(g *qgen, db *minidb.DB, round int) []string {
	stmts := []string{fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", g.intn(100)-10, g.intn(60), g.intn(100)-10)}
	if round%3 == 2 {
		stmts = append(stmts, fmt.Sprintf("DELETE FROM t WHERE a = %d", g.intn(100)-10))
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			panic(fmt.Sprintf("generated write %q: %v", s, err))
		}
	}
	return stmts
}

// incrOne runs one interleaved-write differential case: 1-3 random
// batches, or — chain > 0 — chain one-row batches. It reports false when
// the generated query never reached a head-to-head round.
func incrOne(t *testing.T, g *qgen, st *incrStats, chain int) bool {
	t.Helper()
	ddl, gc := genQuery(g)
	db := minidb.New()
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("ddl %q: %v", stmt, err)
		}
	}
	prep, err := core.Prepare(db, gc.queryText)
	if err != nil {
		return false
	}
	if _, err := prep.Sketch.Applicable(); err != nil {
		return false
	}
	tau := 4 + g.intn(8)
	depth := 1 + g.intn(2)
	copts := core.Options{
		Strategy:            core.SketchRefineStrategy,
		Seed:                int64(g.intn(1000)),
		SketchPartitionSize: tau,
		SketchDepth:         depth,
		SketchCache:         sketch.NewCache(0),
		SketchMemo:          core.NewFingerprintMemo(),
		SketchIncremental:   true,
	}
	if _, err := prep.Run(copts); err != nil {
		t.Fatalf("warm-up eval: %v\n%s", err, gc.queryText)
	}

	ran, run := false, 0
	rounds := chain
	if chain == 0 {
		rounds = 1 + g.intn(3)
	}
	for round := 0; round < rounds; round++ {
		var writes []string
		if chain > 0 {
			writes = chainWrite(g, db, round)
		} else if writes = incrWrite(g, db); len(writes) == 0 {
			continue
		}
		prep, err = core.Prepare(db, gc.queryText)
		if err != nil {
			t.Fatalf("re-prepare after %v: %v", writes, err)
		}
		if len(prep.Instance.Rows) == 0 {
			break // writes emptied the table; nothing to compare
		}
		ctx := fmt.Sprintf("%s\nwrites=%v round=%d", gc.queryText, writes, round)

		// Patched path: shared cache + memo, incremental on. core
		// hard-errors if a claimed-feasible package fails validation.
		pres, err := prep.Run(copts)
		if err != nil {
			t.Fatalf("patched eval: %v\n%s", err, ctx)
		}
		noLensSplit(t, pres.Stats.Notes, ctx)
		if pres.Stats.Strategy != core.SketchRefineStrategy {
			break // fell back (e.g. applicability changed); next case
		}
		// Rebuilt path: same knobs, no cache, no lineage.
		rres, err := sketch.Solve(prep.Instance, sketch.Options{
			MaxPartitionSize: tau, Depth: depth, Seed: copts.Seed,
		})
		if err != nil {
			t.Fatalf("rebuilt eval: %v\n%s", err, ctx)
		}
		noLensSplit(t, rres.Notes, ctx)
		st.rounds++
		ran = true
		if pres.Stats.SketchTreePatched {
			st.patched++
			run++
			st.longest = max(st.longest, run)
		} else {
			run = 0
		}
		if slices.ContainsFunc(pres.Stats.Notes, func(n string) bool { return strings.Contains(n, "past its drift budget") }) {
			st.budgetRebuilds++
		}
		pFeasible := len(pres.Packages) > 0
		if !pFeasible && rres.Feasible {
			t.Fatalf("FEASIBILITY DISAGREEMENT: rebuilt found a package the patched path lost (tree patched=%v)\n%s",
				pres.Stats.SketchTreePatched, ctx)
		}
		if pFeasible && !rres.Feasible {
			st.bonus++ // patched out-recalled the rebuild; bounded below
		}
		if pFeasible {
			st.feasible++
		}

		// Exact side: soundness oracle.
		model, err := translate.Translate(prep.Analysis, prep.Instance.Rows, prep.Instance.IDs)
		if err != nil {
			t.Fatalf("translate: %v\n%s", err, ctx)
		}
		sol := milp.Solve(model.MILP, milp.Options{MaxNodes: 300000})
		if pFeasible && sol.Status == milp.StatusInfeasible {
			t.Fatalf("FEASIBILITY DISAGREEMENT: exact proved infeasible, patched found a package\n%s", ctx)
		}
		if pFeasible && rres.Feasible && sol.Status == milp.StatusOptimal && sol.X != nil && prep.Query.Objective != nil {
			exactObj, err := prep.Instance.Objective(model.Multiplicities(sol.X))
			if err != nil {
				continue
			}
			pObj := pres.Packages[0].Objective
			if prep.Instance.Better(pObj, exactObj) && math.Abs(pObj-exactObj) > 1e-6*(1+math.Abs(exactObj)) {
				t.Fatalf("OPTIMALITY DISAGREEMENT: patched %g beats proven optimum %g\n%s", pObj, exactObj, ctx)
			}
			denom := math.Max(1, math.Abs(exactObj))
			gp := math.Abs(pObj-exactObj) / denom
			gr := math.Abs(rres.Objective-exactObj) / denom
			st.gapPatched = append(st.gapPatched, gp)
			st.gapRebuilt = append(st.gapRebuilt, gr)
			if gp > gr+0.25 {
				st.worse++
			}
			// Bound soundness under writes: a certified interval whose
			// envelopes came from ApplyDelta patches must remain valid
			// against the post-write exact optimum, exactly like one
			// from a from-scratch rebuild.
			tol := 1e-6 * (1 + math.Abs(exactObj))
			if pres.Stats.Certified {
				st.certPatched++
				if prep.Instance.Better(exactObj, pres.Stats.BoundValue) && math.Abs(exactObj-pres.Stats.BoundValue) > tol {
					t.Fatalf("BOUND VIOLATION (patched tree): exact optimum %g beats certified bound %g\n%s",
						exactObj, pres.Stats.BoundValue, ctx)
				}
			}
			if rres.Certified {
				st.certRebuilt++
				if prep.Instance.Better(exactObj, rres.Bound) && math.Abs(exactObj-rres.Bound) > tol {
					t.Fatalf("BOUND VIOLATION (rebuilt tree): exact optimum %g beats certified bound %g\n%s",
						exactObj, rres.Bound, ctx)
				}
			}
		}
	}
	if ran {
		st.cases++
	}
	return ran
}

// FuzzIncrementalSketchVsExact is the byte-driven entry point for the
// write-interleaved harness; the seed corpus covers the write shapes
// (append-only, delete-only, mixed, emptying).
func FuzzIncrementalSketchVsExact(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("append-only batches"))
	f.Add([]byte("delete the world"))
	f.Add([]byte("mixed insert delete interleave"))
	f.Add([]byte{3, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64})
	f.Add([]byte{255, 0, 255, 0, 17, 34, 51, 68, 85})
	f.Fuzz(func(t *testing.T, data []byte) {
		var st incrStats
		incrOne(t, &qgen{data: data}, &st, 0)
	})
}

// TestIncrementalVsRebuildCorpus replays a fixed pseudo-random corpus
// of write-interleaved cases — zero feasibility or optimality
// disagreements allowed, real patch coverage required, and the patched
// gap distribution must track the rebuilt one.
//
// The two distribution gates (≥ 80 % of patched gaps within 25 %, ≤ 10 %
// worse than rebuilt) are statistics of the full 250-case corpus: the
// 50-case -short slice yields some 58 optima, too few for a percentage
// gate to mean anything (it sits at 76 %), so -short logs them and
// enforces only the zero-disagreement and coverage assertions.
func TestIncrementalVsRebuildCorpus(t *testing.T) {
	target := 250
	if testing.Short() {
		target = 50
	}
	st := incrCorpus(t, 20260729, target, 0)
	checkIncrCorpus(t, st, target)
}

// TestIncrementalVsRebuildChains is the corpus of patch chains: twelve
// one-row batches per case over tables of 12-41 rows, so a tree is
// patched batch after batch — each step far inside the budget — until
// the drift since its last full build reaches plan.PatchMaxFrac and the
// patch refuses — the run's note says so — and the tree is rebuilt. Every
// round of a chain is held to the single-step
// corpus's standards: no lost package, no unsound bound, the same gap
// gates.
func TestIncrementalVsRebuildChains(t *testing.T) {
	target := 60
	if testing.Short() {
		target = 20
	}
	st := incrCorpus(t, 20261015, target, 12)
	if st.longest < 4 {
		t.Errorf("the longest chain of patched rounds is %d; the corpus no longer chains patches", st.longest)
	}
	if st.budgetRebuilds == 0 {
		t.Error("no chain reached the drift budget; the rebuild it forces went untested")
	}
	checkIncrCorpus(t, st, target)
}

// incrCorpus replays target cases drawn from seed through incrOne.
func incrCorpus(t *testing.T, seed int64, target, chain int) incrStats {
	var st incrStats
	rng := rand.New(rand.NewSource(seed))
	for attempts := 0; st.cases < target && attempts < 6*target; attempts++ {
		data := make([]byte, 96)
		rng.Read(data)
		incrOne(t, &qgen{data: data}, &st, chain)
	}
	t.Logf("cases=%d rounds=%d patched=%d feasible=%d bonus=%d optima=%d worse-than-rebuilt=%d cert-patched=%d cert-rebuilt=%d longest-chain=%d budget-rebuilds=%d",
		st.cases, st.rounds, st.patched, st.feasible, st.bonus, len(st.gapPatched), st.worse, st.certPatched, st.certRebuilt, st.longest, st.budgetRebuilds)
	return st
}

// checkIncrCorpus holds a corpus to the patched-vs-rebuilt standards.
func checkIncrCorpus(t *testing.T, st incrStats, target int) {
	t.Helper()
	if st.certPatched == 0 {
		t.Error("no certified interval ever came from a patched tree; write-path bound coverage is gone")
	}
	if st.certRebuilt == 0 {
		t.Error("no certified interval ever came from a rebuilt tree")
	}
	if st.rounds > 0 && float64(st.bonus)/float64(st.rounds) > 0.10 {
		t.Errorf("patched trees out-recalled rebuilds in %d/%d rounds; the comparison is no longer apples-to-apples", st.bonus, st.rounds)
	}
	if st.cases < target {
		t.Fatalf("only %d of %d cases reached a head-to-head round", st.cases, target)
	}
	if st.patched == 0 {
		t.Fatal("no round exercised tree patching; the harness lost its purpose")
	}
	if st.feasible == 0 {
		t.Fatal("no feasible package across the corpus; the harness is not exercising the engine")
	}
	if n := len(st.gapPatched); n > 0 {
		within25 := 0
		for _, g := range st.gapPatched {
			if g <= 0.25 {
				within25++
			}
		}
		within, worse := float64(within25)/float64(n), float64(st.worse)/float64(n)
		if testing.Short() {
			t.Logf("-short: %.0f%% of patched gaps within 25%%, %.0f%% worse than rebuilt (gated on the full corpus only)", 100*within, 100*worse)
			return
		}
		if within < 0.80 {
			t.Errorf("only %.0f%% of patched gaps within 25%% (want >= 80%%)", 100*within)
		}
		if worse > 0.10 {
			t.Errorf("patched gap exceeded rebuilt by >25 points in %.0f%% of optima (want <= 10%%)", 100*worse)
		}
	}
}
