package plan

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/paql"
	"repro/internal/schema"
	"repro/internal/translate"
)

func linearMix() AtomMix {
	return AtomMix{Linear: true, SketchOK: true, Branches: 1, SumCount: 2, Objective: true}
}

func baseInput(n int) Input {
	return Input{
		Query: "SELECT PACKAGE(R) FROM t R SUCH THAT SUM(v) <= 10 MAXIMIZE SUM(v)",
		Table: TableStats{Table: "t", Rows: n},
		N:     n,
		Mix:   linearMix(),
		Procs: 8,
	}
}

func nonlinearMix() AtomMix {
	return AtomMix{Linear: false, NonlinearReasons: []string{"objective multiplies aggregates"},
		SketchErr: "sketch: query is not linear", SumCount: 2, Objective: true}
}

// TestDecisionMatrix is the size × atom-mix matrix: every input
// dimension must flip at least one decision relative to its row's
// neighbor. The writes/ and cache/ rows are a stale tree's write lineage,
// which reaches no plan decision: its delta and drift meet the budget in
// Tree.ApplyDelta when the query runs (PatchFits, checked here at the
// cell), and no plan carries a maintenance line. The forced/ rows are
// the strategies the atom mix rules out: each must plan exactly what its
// unforced neighbor plans, with the override named in the reason.
func TestDecisionMatrix(t *testing.T) {
	cases := []struct {
		name    string
		in      Input
		want    map[string]string // decision name → value; "" = must be absent
		lineage *lineageCell      // a stale tree's delta and drift over in.N, and whether it patches
	}{
		// --- size axis ---
		{"size/small-linear", baseInput(100),
			map[string]string{"strategy": StrategySolver}, nil},
		{"size/large-linear", baseInput(100_000),
			map[string]string{"strategy": StrategySketch, "tau": "64", "depth": "2", "parallelism": "8"}, nil},
		{"size/huge-linear", baseInput(1_000_000),
			map[string]string{"strategy": StrategySketch, "tau": "256", "depth": "2"}, nil},
		{"size/borderline-serial", func() Input {
			in := baseInput(5000)
			return in
		}(), map[string]string{"strategy": StrategySketch, "depth": "2", "parallelism": "8"}, nil},
		{"size/tiny-parallelism", func() Input {
			in := baseInput(100)
			in.Forced.Strategy = StrategySketch // pin sketch so knob decisions surface
			return in
		}(), map[string]string{"parallelism": "1", "depth": "1"}, nil},

		// --- atom-mix axis ---
		{"mix/nonlinear-small", func() Input {
			in := baseInput(10)
			in.Mix = AtomMix{Linear: false, NonlinearReasons: []string{"objective multiplies aggregates"}}
			return in
		}(), map[string]string{"strategy": StrategyPrunedEnum}, nil},
		{"mix/nonlinear-large", func() Input {
			in := baseInput(1000)
			in.Mix = AtomMix{Linear: false, NonlinearReasons: []string{"objective multiplies aggregates"}}
			return in
		}(), map[string]string{"strategy": StrategyLocalSearch}, nil},
		{"mix/sketch-inapplicable", func() Input {
			in := baseInput(100_000)
			in.Mix.SketchOK = false
			in.Mix.SketchErr = "subquery atom"
			return in
		}(), map[string]string{"strategy": StrategySolver}, nil},
		{"mix/minmax-caps-depth", func() Input {
			in := baseInput(3_000_000) // τ=256 → 11719 leaves → depth 3 if unconstrained
			in.Mix.MinMax = 1
			return in
		}(), map[string]string{"strategy": StrategySketch, "depth": "2"}, nil},
		{"mix/linear-deep", func() Input {
			in := baseInput(3_000_000)
			return in
		}(), map[string]string{"depth": "3"}, nil},

		// --- write-lineage axis: the stale tree's own delta, which the
		// engine weighs and the plan does not ---
		{"writes/read-only", baseInput(100_000), map[string]string{"maintenance": ""}, nil},
		{"writes/modest", baseInput(100_000), map[string]string{"maintenance": ""},
			&lineageCell{delta: 1_000, fits: true}},
		{"writes/heavy", baseInput(100_000), map[string]string{"maintenance": ""},
			&lineageCell{delta: 40_000}},
		{"writes/drift-at-budget", baseInput(100_000), map[string]string{"maintenance": ""},
			&lineageCell{delta: 1_000, drift: 24_000, fits: true}}, // 1 % + 24 % = 25 %: still inside
		{"writes/drifted", baseInput(100_000), map[string]string{"maintenance": ""},
			&lineageCell{delta: 1_000, drift: 24_001}}, // a 1 % step past a chain of small ones

		// --- cache-state axis: where the tree comes from is the run's
		// record, never a plan line ---
		{"cache/cold", baseInput(100_000), map[string]string{"strategy": StrategySketch, "maintenance": ""}, nil},
		{"cache/patchable", baseInput(100_000), map[string]string{"maintenance": ""},
			&lineageCell{delta: 100, fits: true}},
		{"cache/patchable-but-rebuilding", baseInput(100_000), map[string]string{"maintenance": ""},
			&lineageCell{delta: 50_000}},

		// --- forced strategy × the atom mix that rules it out ---
		{"forced/solver-nonlinear-small", func() Input {
			in := baseInput(10)
			in.Mix = nonlinearMix()
			in.Forced.Strategy = StrategySolver
			return in
		}(), map[string]string{"strategy": StrategyPrunedEnum, "bound": BoundMILPDual}, nil},
		{"forced/solver-nonlinear-large", func() Input {
			in := baseInput(1000)
			in.Mix = nonlinearMix()
			in.Forced.Strategy = StrategySolver
			return in
		}(), map[string]string{"strategy": StrategyLocalSearch, "bound": BoundNone}, nil},
		{"forced/sketch-inapplicable", func() Input {
			in := baseInput(100_000)
			in.Mix.SketchOK = false
			in.Mix.SketchErr = "subquery atom"
			in.Forced.Strategy = StrategySketch
			return in
		}(), map[string]string{"strategy": StrategySolver, "bound": BoundMILPDual,
			"tau": "", "depth": "", "parallelism": "", "maintenance": ""}, nil},
		{"forced/sketch-nonlinear", func() Input {
			in := baseInput(10)
			in.Mix = nonlinearMix()
			in.Forced.Strategy = StrategySketch
			return in
		}(), map[string]string{"strategy": StrategyPrunedEnum, "bound": BoundMILPDual,
			"tau": "", "depth": "", "maintenance": ""}, nil},
		{"forced/pruned-enum-at-limit", func() Input {
			in := baseInput(ExactEnumMax)
			in.Forced.Strategy = StrategyPrunedEnum
			return in
		}(), map[string]string{"strategy": StrategyPrunedEnum, "bound": BoundMILPDual}, nil},
		{"forced/pruned-enum-linear-large", func() Input {
			in := baseInput(ExactEnumMax + 1)
			in.Forced.Strategy = StrategyPrunedEnum
			return in
		}(), map[string]string{"strategy": StrategySolver, "bound": BoundMILPDual}, nil},
		{"forced/pruned-enum-nonlinear-large", func() Input {
			in := baseInput(1000)
			in.Mix = nonlinearMix()
			in.Forced.Strategy = StrategyPrunedEnum
			return in
		}(), map[string]string{"strategy": StrategyLocalSearch, "bound": BoundNone}, nil},
		{"forced/pruned-enum-sketch-size", func() Input {
			in := baseInput(100_000)
			in.Forced.Strategy = StrategyPrunedEnum
			return in
		}(), map[string]string{"strategy": StrategySketch}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.in)
			if forced := tc.in.Forced.Strategy; forced != "" && forced != p.Strategy {
				checkOverride(t, tc.in, p)
			}
			if l := tc.lineage; l != nil && PatchFits(l.drift, l.delta, tc.in.N) != l.fits {
				t.Fatalf("PatchFits(drift %d, delta %d, %d candidates) != %v", l.drift, l.delta, tc.in.N, l.fits)
			}
			if !p.Incremental {
				t.Fatal("Incremental = false: every plan leaves patch-vs-rebuild to tree acquisition")
			}
			for name, want := range tc.want {
				d := p.Decision(name)
				if want == "" {
					if d != nil {
						t.Fatalf("decision %q = %q, want none; plan:\n%s", name, d.Value, p.Explain())
					}
					continue
				}
				if d == nil {
					t.Fatalf("decision %q missing; plan:\n%s", name, p.Explain())
				}
				if d.Value != want {
					t.Fatalf("decision %q = %q, want %q; plan:\n%s", name, d.Value, want, p.Explain())
				}
				if d.Reason == "" {
					t.Fatalf("decision %q has no reason", name)
				}
			}
		})
	}
}

// checkOverride holds a plan whose forced strategy was ruled out to the
// unforced plan of the same input: the same decisions and the same
// memory estimate, nothing marked forced, and a strategy reason that is
// the unforced one behind a clause naming what was overridden.
func checkOverride(t *testing.T, in Input, got *Plan) {
	t.Helper()
	forced := in.Forced.Strategy
	in.Forced.Strategy = ""
	free := New(in)
	if decisionValues(got) != decisionValues(free) || got.MemoryBytes != free.MemoryBytes {
		t.Fatalf("forced %s planned differently from the unforced query:\n%s\n--- unforced ---\n%s", forced, got.Explain(), free.Explain())
	}
	d := got.Decision("strategy")
	if d.Forced {
		t.Fatalf("overridden strategy still marked forced:\n%s", got.Explain())
	}
	prefix := "forced " + forced + " unavailable"
	if forced == StrategyPrunedEnum {
		prefix += fmt.Sprintf(" (%d candidates > %d)", in.N, ExactEnumMax)
	} else if !in.Mix.Linear {
		prefix += " (non-linear: " + strings.Join(in.Mix.NonlinearReasons, "; ") + ")"
	}
	if want := prefix + "; falling back: " + free.Decision("strategy").Reason; d.Reason != want {
		t.Fatalf("strategy reason = %q, want %q", d.Reason, want)
	}
}

// lineageCell is a stale tree's write lineage over a matrix cell's
// candidates: the delta since it was built or last patched, the drift it
// carries since its last full build, and whether a patch fits the budget.
type lineageCell struct {
	delta, drift int
	fits         bool
}

// TestEachInputChangesADecision pins the acceptance criterion directly:
// flipping any one input dimension of a reference cell changes at
// least one decision value.
func TestEachInputChangesADecision(t *testing.T) {
	refPlan := New(baseInput(100_000))
	flips := []struct {
		name string
		mut  func(*Input)
	}{
		{"size", func(in *Input) { in.N = 100; in.Table.Rows = 100 }},
		{"atom-mix", func(in *Input) {
			in.Mix = AtomMix{Linear: false, NonlinearReasons: []string{"nonlinear"}}
		}},
	}
	for _, f := range flips {
		t.Run(f.name, func(t *testing.T) {
			in := baseInput(100_000)
			f.mut(&in)
			got := New(in)
			if decisionValues(refPlan) == decisionValues(got) {
				t.Fatalf("flipping %s changed no decision:\n%s", f.name, got.Explain())
			}
		})
	}
}

func decisionValues(p *Plan) string {
	var b strings.Builder
	for _, d := range p.Decisions {
		b.WriteString(d.Name + "=" + d.Value + ";")
	}
	return b.String()
}

// TestForcedKnobsWin pins the satellite regression: every explicit knob
// overrides the planner and is marked forced.
func TestForcedKnobsWin(t *testing.T) {
	in := baseInput(100) // planner alone would pick solver/serial here
	in.Forced = Forced{
		Strategy: StrategySketch,
		Tau:      32,
		Depth:    4,
	}
	p := New(in)
	want := map[string]string{
		"strategy": StrategySketch,
		"tau":      "32",
		"depth":    "4",
	}
	for name, val := range want {
		d := p.Decision(name)
		if d == nil || d.Value != val || !d.Forced {
			t.Fatalf("decision %q = %+v, want forced %q", name, d, val)
		}
	}
	if d := p.Decision("parallelism"); d == nil || d.Value != "1" || d.Forced {
		t.Fatalf("parallelism = %+v, want the planner's unforced 1", d)
	}
	if p.Tau != 32 || p.Depth != 4 || p.Parallelism != 1 {
		t.Fatalf("plan knobs: %+v", p)
	}
	out := p.Explain()
	if strings.Count(out, "[forced]") != 3 {
		t.Fatalf("expected 3 [forced] markers:\n%s", out)
	}
}

// TestForcedKnobSurvivesSolverPlan: a forced knob shows up in the trail
// even when the chosen strategy ignores it.
func TestForcedKnobSurvivesSolverPlan(t *testing.T) {
	in := baseInput(100)
	in.Forced.Depth = 4
	p := New(in)
	if p.Strategy != StrategySolver {
		t.Fatalf("strategy=%s", p.Strategy)
	}
	d := p.Decision("depth")
	if d == nil || !d.Forced || d.Value != "4" {
		t.Fatalf("forced depth missing from solver plan: %+v", d)
	}
	if p.Decision("tau") != nil {
		t.Fatal("unforced tau should be dropped from a solver plan")
	}
}

// TestGoldenExplain pins the EXPLAIN text format, one plan per
// strategy. Together they pin that a knob line appears only when its knob
// runs or was forced: the solver plan keeps its forced τ and depth, the
// enumeration and local search plans carry no knob lines at all.
func TestGoldenExplain(t *testing.T) {
	sketchIn := Input{
		Query: "SELECT PACKAGE(R) FROM t R\n  SUCH THAT SUM(v) <= 10 MAXIMIZE SUM(v)",
		Table: TableStats{Table: "t", Rows: 100_000, Version: 7},
		N:     100_000,
		Mix:   linearMix(),
		Procs: 8,

		RowsScanned: 100_000,
	}
	solverIn := baseInput(100)
	solverIn.SnapshotHit = true
	solverIn.Forced = Forced{Tau: 32, Depth: 4}
	enumIn := baseInput(10)
	enumIn.Mix = nonlinearMix()
	localIn := baseInput(1000)
	localIn.Mix = nonlinearMix()
	cases := []struct {
		name string
		in   Input
		want string
	}{
		{"sketch", sketchIn, `plan for: SELECT PACKAGE(R) FROM t R SUCH THAT SUM(v) <= 10 MAXIMIZE SUM(v)
table t: 100000 rows; 100000 rows scanned (candidate snapshot miss)
atoms: linear; 2 sum/count; 1 branch
├─ strategy = sketch-refine
│      linear query, 100000 candidates > 4096: partitioned sketch is cheapest
├─ tau = 64
│      100000 candidates ≤ 100000: default leaf size
├─ depth = 2
│      1563 leaves > 64 top-level vars: 2 levels keep the root small
├─ parallelism = 8
│      100000 candidates ≥ 2048: fan out across 8 workers
├─ bound = tree-lp
│      LP relaxation over ~1563 partition leaves (objective-sorted segments), 1 branch(es); no band atoms to tighten
└─ memory = 3.1 MB
       predicted peak working set for sketch-refine over 100000 candidates (2 atoms)
`},
		{"solver-forced-knobs", solverIn, `plan for: SELECT PACKAGE(R) FROM t R SUCH THAT SUM(v) <= 10 MAXIMIZE SUM(v)
table t: 100 rows; 0 rows scanned (candidate snapshot hit)
atoms: linear; 2 sum/count; 1 branch
├─ strategy = solver
│      linear query, 100 candidates ≤ 4096: exact MILP is affordable
├─ tau = 32  [forced]
│      explicit partition-size flag
├─ depth = 4  [forced]
│      explicit depth flag
├─ bound = milp-dual
│      exact strategy: the search proves its own dual bound (gap 0 at optimality)
└─ memory = 10.9 KB
       predicted peak working set for solver over 100 candidates (2 atoms)
`},
		{"pruned-enum", enumIn, `plan for: SELECT PACKAGE(R) FROM t R SUCH THAT SUM(v) <= 10 MAXIMIZE SUM(v)
table t: 10 rows; 0 rows scanned (candidate snapshot miss)
atoms: non-linear (objective multiplies aggregates); 2 sum/count; sketch inapplicable (sketch: query is not linear)
├─ strategy = pruned-enum
│      non-linear query, 10 candidates ≤ 22: exact pruned enumeration is affordable
├─ bound = milp-dual
│      exact strategy: the search proves its own dual bound (gap 0 at optimality)
└─ memory = 320 B
       predicted peak working set for pruned-enum over 10 candidates (2 atoms)
`},
		{"local-search", localIn, `plan for: SELECT PACKAGE(R) FROM t R SUCH THAT SUM(v) <= 10 MAXIMIZE SUM(v)
table t: 1000 rows; 0 rows scanned (candidate snapshot miss)
atoms: non-linear (objective multiplies aggregates); 2 sum/count; sketch inapplicable (sketch: query is not linear)
├─ strategy = local-search
│      non-linear query (1000 candidates > 22): local search is the only tractable option
├─ bound = none
│      local-search has no relaxation to certify against: gap stays unproven
└─ memory = 31.2 KB
       predicted peak working set for local-search over 1000 candidates (2 atoms)
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := New(tc.in).Explain(); got != tc.want {
				t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, tc.want)
			}
		})
	}
}

// TestAnalyzeAtoms drives the query-planner half through real parsed
// queries.
func TestAnalyzeAtoms(t *testing.T) {
	sc := schema.New(
		schema.Column{Table: "R", Name: "v", Type: schema.TFloat},
		schema.Column{Table: "R", Name: "w", Type: schema.TFloat},
	)
	parse := func(src string) *paql.Analysis {
		q, err := paql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		a, err := paql.Analyze(q, sc)
		if err != nil {
			t.Fatalf("analyze %q: %v", src, err)
		}
		return a
	}
	// The branch count arrives with the sketch engine's verdict; here the
	// test lowers the formula the way the engine does.
	analyze := func(src string, sketchErr error) AtomMix {
		a := parse(src)
		br, _, err := translate.CompileSketch(a, translate.DefaultMaxSketchBranches)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		return AnalyzeAtoms(a, translate.Nonlinear(a), len(br), sketchErr)
	}
	lin := analyze("SELECT PACKAGE(R) FROM t R REPEAT 0 SUCH THAT SUM(v) <= 10 MAXIMIZE SUM(w)", nil)
	if !lin.Linear || !lin.SketchOK || lin.SumCount != 2 || lin.Branches != 1 {
		t.Fatalf("linear mix: %+v", lin)
	}
	mixed := analyze("SELECT PACKAGE(R) FROM t R REPEAT 0 SUCH THAT AVG(v) >= 1 AND (MIN(w) >= 0 OR MAX(w) <= 9) MAXIMIZE COUNT(*)", nil)
	if mixed.Avg != 1 || mixed.MinMax != 2 || mixed.SumCount != 1 {
		t.Fatalf("mixed mix: %+v", mixed)
	}
	if mixed.Branches < 2 {
		t.Fatalf("disjunction should expand branches: %+v", mixed)
	}
	inapp := analyze("SELECT PACKAGE(R) FROM t R REPEAT 0 SUCH THAT SUM(v) <= 10 MAXIMIZE SUM(w)", errors.New("no dice"))
	if inapp.SketchOK || inapp.SketchErr != "no dice" || inapp.Branches != 0 {
		t.Fatalf("inapplicable mix: %+v", inapp)
	}
}

// TestPlanJSONRoundTrip: pbserver serves plans as JSON; the typed plan
// must survive a round trip, and it carries values and reasons only — no
// cost estimates, rejected alternatives, maintenance field or the
// constant Incremental, which the decoded plan gets back as false.
func TestPlanJSONRoundTrip(t *testing.T) {
	p := New(baseInput(100_000))
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Incremental {
		t.Fatal("Incremental came back over the wire")
	}
	back.Incremental = true
	if !reflect.DeepEqual(&back, p) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", back, *p)
	}
	for _, key := range []string{`"cost":`, `"alternatives":`, `"maintenance":`, `"incremental":`} {
		if strings.Contains(string(raw), key) {
			t.Errorf("plan JSON carries %s: %s", key, raw)
		}
	}
}

// TestStrategyRule holds the strategy decision to the rule the planner
// states: a non-linear query enumerates exactly at n ≤ ExactEnumMax and
// local-searches otherwise; a linear one runs the exact MILP when the
// sketch cannot lower it or n ≤ SketchThreshold, and SketchRefine
// beyond. The sweep crosses both thresholds' edges with every leaf bound
// and DNF branch count the sketch compiler admits, and checks that a knob
// line appears only for a sketch plan or when forced, that no plan
// carries a maintenance line, and that the lines come in display order.
func TestStrategyRule(t *testing.T) {
	order := []string{"strategy", "tau", "depth", "parallelism", "bound", "memory"}
	for _, n := range []int{0, ExactEnumMax, ExactEnumMax + 1, SketchThreshold - 1, SketchThreshold, SketchThreshold + 1, 1_000_000} {
		for _, linear := range []bool{true, false} {
			for _, sketchOK := range []bool{true, false} {
				want := StrategySketch
				switch {
				case !linear && n <= ExactEnumMax:
					want = StrategyPrunedEnum
				case !linear:
					want = StrategyLocalSearch
				case !sketchOK || n <= SketchThreshold:
					want = StrategySolver
				}
				for _, tau := range []int{0, 1, 2, 16, DefaultTau, LargeTau, SketchThreshold, n} {
					for branches := 1; branches <= translate.DefaultMaxSketchBranches; branches++ {
						in := baseInput(n)
						in.Mix.Linear, in.Mix.SketchOK, in.Mix.Branches = linear, sketchOK, branches
						in.Forced.Tau = tau
						p := New(in)
						cell := fmt.Sprintf("n=%d linear=%v sketchOK=%v τ=%d branches=%d", n, linear, sketchOK, tau, branches)
						if p.Strategy != want {
							t.Fatalf("%s: planned %s, want %s", cell, p.Strategy, want)
						}
						sketchy := want == StrategySketch
						present := map[string]bool{
							"tau": sketchy || tau > 0, "depth": sketchy, "parallelism": sketchy, "maintenance": false,
						}
						for name, on := range present {
							if (p.Decision(name) != nil) != on {
								t.Fatalf("%s: %s line present = %v, want %v:\n%s", cell, name, !on, on, p.Explain())
							}
						}
						next := 0
						for _, d := range p.Decisions {
							for next < len(order) && order[next] != d.Name {
								next++
							}
							if next == len(order) {
								t.Fatalf("%s: decisions out of display order:\n%s", cell, p.Explain())
							}
						}
					}
				}
			}
		}
	}
}

// TestForcedDepthIsClamped: a forced depth past MaxDepth plans the tree
// the sketch engine builds — MaxDepth levels, still marked forced, with
// the memory estimate sized for it — and says so in the reason.
func TestForcedDepthIsClamped(t *testing.T) {
	in := baseInput(100_000)
	in.Forced.Depth = 50
	p := New(in)
	d := p.Decision("depth")
	if p.Depth != MaxDepth || d == nil || d.Value != strconv.Itoa(MaxDepth) || !d.Forced {
		t.Fatalf("forced depth 50 planned as %d (%+v), want %d forced", p.Depth, d, MaxDepth)
	}
	if !strings.Contains(d.Reason, "50") || !strings.Contains(d.Reason, "clamped") {
		t.Fatalf("depth reason %q does not name the clamp", d.Reason)
	}
	if want := MemoryEstimate(StrategySketch, in.N, MaxDepth, 2); p.MemoryBytes != want {
		t.Fatalf("memory %d B, want %d B for %d levels", p.MemoryBytes, want, MaxDepth)
	}
	in.Forced.Depth = MaxDepth
	if d := New(in).Decision("depth"); d.Reason != "explicit depth flag" {
		t.Fatalf("depth at the cap reads %q", d.Reason)
	}
}

// TestMemoryEstimate pins the admission-control memory model: every
// plan carries a strategy-matched estimate, and the formulas scale with
// the variables the real allocations depend on.
func TestMemoryEstimate(t *testing.T) {
	if got := MemoryEstimate(StrategySolver, 1000, 0, 3); got != 1000*5*16+1000*48 {
		t.Fatalf("solver estimate = %d", got)
	}
	if got := MemoryEstimate(StrategySketch, 1000, 3, 3); got != 1000*3*8+1000*16 {
		t.Fatalf("sketch estimate = %d", got)
	}
	// depth 0 is treated as a flat (depth-1) tree.
	if MemoryEstimate(StrategySketch, 1000, 0, 3) != MemoryEstimate(StrategySketch, 1000, 1, 3) {
		t.Fatal("depth 0 and depth 1 should match")
	}
	if got := MemoryEstimate(StrategyLocalSearch, 1000, 0, 3); got != 32000 {
		t.Fatalf("linear-strategy estimate = %d", got)
	}
	if MemoryEstimate(StrategySolver, 0, 0, 3) != 0 {
		t.Fatal("no candidates, no memory")
	}

	// Every plan, sketch or solver, records the decision and the field.
	for _, n := range []int{100, 100_000} {
		p := New(baseInput(n))
		d := p.Decision("memory")
		if d == nil || p.MemoryBytes <= 0 {
			t.Fatalf("n=%d: memory decision missing (plan %+v)", n, p)
		}
		if d != &p.Decisions[len(p.Decisions)-1] {
			t.Fatalf("n=%d: memory should order last in the trail", n)
		}
	}
}
