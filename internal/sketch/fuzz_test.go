package sketch_test

// Differential fuzz harness: random PaQL queries over small synthetic
// tables are evaluated by both the exact MILP translation and
// SketchRefine, and the two answers are cross-checked on every theorem
// the engines share:
//
//  1. a package SketchRefine reports Feasible must satisfy the full
//     SUCH THAT formula under the independent paql.Satisfies evaluator
//     (and respect REPEAT bounds and pinned tuples);
//  2. SketchRefine must never produce a feasible package for an
//     instance the exact solver proved infeasible;
//  3. when the exact solver proves an optimum, SketchRefine's objective
//     must not beat it.
//
// The generator covers the whole atom grammar the sketch engine claims
// — SUM/COUNT/AVG/MIN/MAX atoms, BETWEEN bands, filtered aggregates,
// disjunctions, REPEAT, NULLs, and pins — so any lowering bug that
// breaks soundness shows up as a feasibility disagreement here. FuzzSketchVsExact
// explores byte-driven mutations; TestDifferentialSketchVsExact1000
// replays a fixed pseudo-random corpus (≥1000 queries in full runs) so
// CI exercises the same checks deterministically on every push.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/minidb"
	"repro/internal/sketch"
	"repro/internal/translate"
)

// qgen turns a byte stream into query-generation decisions. The stream
// cycles, so any non-empty fuzz input yields a full query.
type qgen struct {
	data []byte
	pos  int
}

func (g *qgen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[g.pos%len(g.data)]
	g.pos++
	return b
}

func (g *qgen) intn(n int) int {
	if n <= 0 {
		return 0
	}
	// Two bytes per draw keep small moduli reasonably uniform.
	v := int(g.next())<<8 | int(g.next())
	return v % n
}

// genCase is one generated differential instance.
type genCase struct {
	queryText string
	kinds     map[string]bool // atom kinds used: sum, count, avg, min, max, or, filter, band
	repeat    int
	pin       bool
}

// genQuery draws a random table and PaQL query. Tables are 3 int
// columns a, b, c with occasional NULLs in c; formulas combine 1-3
// atoms over the full grammar with optional disjunction.
func genQuery(g *qgen) (ddl []string, gc genCase) {
	gc.kinds = map[string]bool{}
	n := 12 + g.intn(30)
	ddl = append(ddl, "CREATE TABLE t (a INT, b INT, c INT)")
	for i := 0; i < n; i++ {
		c := fmt.Sprintf("%d", g.intn(100)-10)
		if g.intn(20) == 0 {
			c = "NULL"
		}
		ddl = append(ddl, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %s)",
			g.intn(100)-10, g.intn(60), c))
	}

	atom := func() string {
		ops := []string{"<=", ">=", "<", ">"}
		switch g.intn(10) {
		case 0:
			gc.kinds["count"] = true
			return fmt.Sprintf("COUNT(*) %s %d", []string{"<=", ">=", "="}[g.intn(3)], 1+g.intn(5))
		case 1:
			gc.kinds["sum"] = true
			return fmt.Sprintf("SUM(P.a) %s %d", []string{"<=", ">=", "=", "<", ">"}[g.intn(5)], g.intn(260)-40)
		case 2:
			gc.kinds["sum"] = true
			gc.kinds["filter"] = true
			return fmt.Sprintf("SUM(P.a WHERE P.c >= %d) %s %d", g.intn(60), ops[g.intn(4)], g.intn(160)-40)
		case 3:
			gc.kinds["avg"] = true
			return fmt.Sprintf("AVG(P.%s) %s %d", []string{"a", "c"}[g.intn(2)], ops[g.intn(4)], g.intn(80)-10)
		case 4:
			gc.kinds["min"] = true
			return fmt.Sprintf("MIN(P.%s) %s %d", []string{"a", "c"}[g.intn(2)], ops[g.intn(4)], g.intn(70)-15)
		case 5:
			gc.kinds["max"] = true
			return fmt.Sprintf("MAX(P.%s) %s %d", []string{"a", "b"}[g.intn(2)], ops[g.intn(4)], g.intn(90)-10)
		case 6:
			gc.kinds["count"] = true
			gc.kinds["filter"] = true
			return fmt.Sprintf("COUNT(* WHERE P.b >= %d) %s %d", g.intn(40), []string{"<=", ">="}[g.intn(2)], g.intn(4))
		case 7:
			// A band on a signed sum: the atom shape the tightening
			// pipeline targets (lowered to a GE/LE pair over one weight
			// vector).
			gc.kinds["band"] = true
			lo := g.intn(160) - 40
			return fmt.Sprintf("SUM(P.a) BETWEEN %d AND %d", lo, lo+20+g.intn(120))
		case 8:
			gc.kinds["band"] = true
			lo := 1 + g.intn(3)
			return fmt.Sprintf("COUNT(*) BETWEEN %d AND %d", lo, lo+g.intn(4))
		default:
			gc.kinds["sum"] = true
			return fmt.Sprintf("SUM(P.b) %s %d", ops[g.intn(4)], g.intn(200))
		}
	}

	var formula string
	switch g.intn(5) {
	case 0:
		formula = atom()
	case 1:
		formula = atom() + " AND " + atom()
	case 2:
		gc.kinds["or"] = true
		formula = "(" + atom() + " OR " + atom() + ")"
	case 3:
		gc.kinds["or"] = true
		formula = atom() + " AND (" + atom() + " OR " + atom() + ")"
	default:
		formula = atom() + " AND " + atom() + " AND " + atom()
	}

	gc.repeat = []int{0, 0, 0, 1, 2}[g.intn(5)]
	gc.pin = g.intn(6) == 0
	objective := ""
	switch g.intn(3) {
	case 0:
		objective = "\nMAXIMIZE SUM(P.b)"
	case 1:
		objective = "\nMINIMIZE SUM(P.a)"
	}
	gc.queryText = fmt.Sprintf(
		"SELECT PACKAGE(T) AS P\nFROM t T REPEAT %d\nSUCH THAT %s%s", gc.repeat, formula, objective)
	return ddl, gc
}

// diffStats aggregates one differential run for reporting.
type diffStats struct {
	ran, skFeasible, exFeasible int
	skMissed                    int       // exact feasible, sketch not
	gaps                        []float64 // relative objective gap per proven optimum
	certified                   int       // results carrying a certified interval
	certGaps                    []float64 // certified relative gap per certified result
}

// diffOne generates one case and cross-checks sketch vs exact. It
// reports false when the query was rejected before both engines ran
// (non-linear, not sketch-applicable, …) — those cases still fuzz the
// compiler front end.
func diffOne(t *testing.T, g *qgen, st *diffStats) (*genCase, bool) {
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
		return &gc, false // e.g. analyzer rejections; nothing to compare
	}
	inst := prep.Instance
	if _, err := sketch.Compile(inst).Applicable(); err != nil {
		return &gc, false
	}
	var pins []int
	if gc.pin && len(inst.Rows) > 0 {
		pins = []int{g.intn(len(inst.Rows))}
	}

	// Exact side: the MILP translation, pinned the same way.
	model, err := translate.Translate(prep.Analysis, inst.Rows, inst.IDs)
	if err != nil {
		t.Fatalf("translate (linear query!): %v\n%s", err, gc.queryText)
	}
	for _, i := range pins {
		if err := model.RequireTuple(i); err != nil {
			t.Fatal(err)
		}
	}
	sol := milp.Solve(model.MILP, milp.Options{MaxNodes: 300000})
	exactProvenInfeasible := sol.Status == milp.StatusInfeasible
	exactOptimal := sol.Status == milp.StatusOptimal && sol.X != nil

	skres, err := sketch.Solve(inst, sketch.Options{
		MaxPartitionSize: 4 + g.intn(8),
		Depth:            1 + g.intn(2),
		Seed:             int64(g.intn(1000)),
		Require:          pins,
	})
	if err != nil {
		t.Fatalf("sketch.Solve: %v\n%s", err, gc.queryText)
	}
	noLensSplit(t, skres.Notes, gc.queryText)
	st.ran++
	if exactOptimal || sol.Status == milp.StatusFeasible {
		st.exFeasible++
	}

	if skres.Feasible {
		st.skFeasible++
		// (1) The claimed package must really satisfy the formula.
		ok, verr := inst.Validate(skres.Mult)
		if verr != nil || !ok {
			t.Fatalf("FEASIBILITY DISAGREEMENT: sketch package fails validation (ok=%v err=%v)\n%s\nmult=%v",
				ok, verr, gc.queryText, skres.Mult)
		}
		for i, m := range skres.Mult {
			if m < 0 || (inst.MaxMult > 0 && m > inst.MaxMult) {
				t.Fatalf("multiplicity %d of tuple %d outside [0, %d]\n%s", m, i, inst.MaxMult, gc.queryText)
			}
		}
		for _, p := range pins {
			if skres.Mult[p] < 1 {
				t.Fatalf("pinned tuple %d missing\n%s", p, gc.queryText)
			}
		}
		// (2) Sketch cannot out-prove the exact solver.
		if exactProvenInfeasible {
			t.Fatalf("FEASIBILITY DISAGREEMENT: exact proved infeasible, sketch found a valid package\n%s\nmult=%v",
				gc.queryText, skres.Mult)
		}
		// (3) Nor beat a proven optimum.
		if exactOptimal && prep.Query.Objective != nil {
			exactObj, err := inst.Objective(model.Multiplicities(sol.X))
			if err == nil {
				if inst.Better(skres.Objective, exactObj) && math.Abs(skres.Objective-exactObj) > 1e-6*(1+math.Abs(exactObj)) {
					t.Fatalf("OPTIMALITY DISAGREEMENT: sketch %g beats proven optimum %g\n%s",
						skres.Objective, exactObj, gc.queryText)
				}
				denom := math.Max(1, math.Abs(exactObj))
				st.gaps = append(st.gaps, math.Abs(skres.Objective-exactObj)/denom)
				// (4) A certified interval must bracket the proven
				// optimum: by weak duality the dual bound may never be
				// beaten by it, in either sense.
				if skres.Certified {
					tol := 1e-6 * (1 + math.Abs(exactObj))
					if inst.Better(exactObj, skres.Bound) && math.Abs(exactObj-skres.Bound) > tol {
						t.Fatalf("BOUND VIOLATION: exact optimum %g beats certified bound %g\n%s",
							exactObj, skres.Bound, gc.queryText)
					}
					if inst.Better(skres.Objective, skres.Bound) && math.Abs(skres.Objective-skres.Bound) > tol {
						t.Fatalf("certified interval inverted: found %g beats bound %g\n%s",
							skres.Objective, skres.Bound, gc.queryText)
					}
				}
			}
		}
		if skres.Certified {
			st.certified++
			st.certGaps = append(st.certGaps, skres.Gap)
		}
	} else if exactOptimal {
		st.skMissed++
	}
	return &gc, true
}

// FuzzSketchVsExact is the byte-driven entry point: every mutated input
// becomes a fresh table + query pair and runs the full differential
// check. The seed corpus pins one representative input per grammar
// feature; `go test` replays it on every run, including CI's -short
// race leg.
func FuzzSketchVsExact(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("avg-atoms"))
	f.Add([]byte("min/max envelopes"))
	f.Add([]byte("disjunctive descent"))
	f.Add([]byte{7, 31, 2, 254, 13, 64, 99, 101, 3, 3, 57})
	f.Add([]byte{255, 254, 253, 1, 0, 17, 33, 129, 42, 8})
	f.Add([]byte{9, 9, 9, 200, 180, 160, 140, 120, 100, 80, 60, 40})
	f.Add([]byte("repeat-and-pins"))
	f.Add([]byte{128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte("sum where filter over nulls"))
	f.Add([]byte("between bands on sums"))
	f.Add([]byte{0, 7, 0, 7, 0, 8, 0, 7, 0, 8, 11, 215, 96, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		var st diffStats
		diffOne(t, &qgen{data: data}, &st)
	})
}

// TestDifferentialSketchVsExact1000 replays a fixed corpus of generated
// queries — at least 1000 evaluated head-to-head in full runs (a
// smaller slice under -short) — and demands zero feasibility or
// optimality disagreements, plus real coverage of every atom kind and a
// sane aggregate objective gap.
func TestDifferentialSketchVsExact1000(t *testing.T) {
	target := 1000
	if testing.Short() {
		target = 150
	}
	var st diffStats
	kinds := map[string]int{}
	certKinds := map[string]int{}
	rng := rand.New(rand.NewSource(20260728))
	attempts := 0
	for st.ran < target && attempts < 4*target {
		attempts++
		data := make([]byte, 64)
		rng.Read(data)
		before := st.certified
		gc, ran := diffOne(t, &qgen{data: data}, &st)
		if ran {
			for k := range gc.kinds {
				kinds[k]++
				if st.certified > before {
					certKinds[k]++
				}
			}
		}
	}
	if st.ran < target {
		t.Fatalf("only %d of %d generated queries ran head-to-head (%d attempts)", st.ran, target, attempts)
	}
	for _, k := range []string{"sum", "count", "avg", "min", "max", "or", "filter", "band"} {
		if kinds[k] == 0 {
			t.Errorf("atom kind %q never survived to a head-to-head run", k)
		}
	}
	if st.skFeasible == 0 {
		t.Fatal("sketch never produced a feasible package; the harness is not exercising the engine")
	}
	// Quality gate on robust quantiles: the long tail holds toy
	// instances whose optima sit near zero (any absolute error explodes
	// the relative gap), so the mean is not a signal — the shape of the
	// distribution is.
	within5, within25 := 0, 0
	for _, g := range st.gaps {
		if g <= 0.05 {
			within5++
		}
		if g <= 0.25 {
			within25++
		}
	}
	t.Logf("ran=%d sketch-feasible=%d exact-feasible=%d sketch-missed=%d gaps: %d optima, %d within 5%%, %d within 25%% kinds=%v",
		st.ran, st.skFeasible, st.exFeasible, st.skMissed, len(st.gaps), within5, within25, kinds)
	if n := len(st.gaps); n > 0 {
		if frac := float64(within5) / float64(n); frac < 0.60 {
			t.Errorf("only %.0f%% of proven optima within a 5%% gap (want >= 60%%): sketch quality regressed", 100*frac)
		}
		if frac := float64(within25) / float64(n); frac < 0.80 {
			t.Errorf("only %.0f%% of proven optima within a 25%% gap (want >= 80%%): sketch quality regressed", 100*frac)
		}
	}
	if st.exFeasible > 0 {
		missRate := float64(st.skMissed) / float64(st.exFeasible)
		if missRate > 0.5 {
			t.Errorf("sketch missed %.0f%% of exactly-feasible instances: recall regressed", 100*missRate)
		}
	}
	// Certified-interval gates: enough objective-carrying results must
	// come back with a proof, spanning every atom kind, and the proven
	// gaps must stay in a sane band (the soundness of each proof is
	// checked per case in diffOne).
	t.Logf("certified=%d certKinds=%v", st.certified, certKinds)
	if st.certified == 0 {
		t.Fatal("no result carried a certified interval; the bound engine never engaged")
	}
	for _, k := range []string{"sum", "count", "avg", "min", "max", "or", "filter", "band"} {
		if certKinds[k] == 0 {
			t.Errorf("atom kind %q never produced a certified interval", k)
		}
	}
	if n := len(st.certGaps); n > 0 {
		within25, within100 := 0, 0
		for _, g := range st.certGaps {
			if g <= 0.25 {
				within25++
			}
			if g <= 1.0 {
				within100++
			}
		}
		t.Logf("certified gaps: %d total, %d within 25%%, %d within 100%%", n, within25, within100)
		if frac := float64(within100) / float64(n); frac < 0.60 {
			t.Errorf("only %.0f%% of certified gaps within 100%% (want >= 60%%): bounds got uselessly loose", 100*frac)
		}
		if frac := float64(within25) / float64(n); frac < 0.50 {
			t.Errorf("only %.0f%% of certified gaps within 25%% (want >= 50%%): certificate tightness regressed", 100*frac)
		}
	}
}
