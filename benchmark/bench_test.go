package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	packagebuilder "repro"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %g, want 50.5", got)
	}
	if got := median(xs[:99]); got != 51 {
		t.Errorf("median of 99 = %g, want 51", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("percentile(0.9) = %g, want 90", got)
	}
	if got, err := p90(xs); err != nil || got != 90 {
		t.Errorf("p90 of 100 samples = %g, %v; want 90", got, err)
	}
	if _, err := p90(xs[:99]); err == nil {
		t.Error("p90 of 99 samples has nine beyond it and must be refused")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g; want 1, 4", q1, q3)
	}
}

// recipe builds a row of the recipes schema.
func recipe(id int, calories, protein, fat, price, rating float64) schema.Row {
	return schema.Row{value.Int(int64(id)), value.Str("r"), value.Str("thai"), value.Str("lunch"), value.Str("free"),
		value.Float(calories), value.Float(protein), value.Float(fat), value.Float(0), value.Float(price), value.Float(rating)}
}

func TestValidator(t *testing.T) {
	base := []schema.Row{
		recipe(1, 400, 30, 10, 5, 4), recipe(2, 500, 40, 20, 6, 4.5), recipe(3, 600, 50, 30, 7, 5), recipe(4, 900, 60, 40, 8, 3),
	}
	e := &env{base: [][]schema.Row{base}}
	o := op{tmpl: 0, k: 1400, where: where{cuisine: "thai", mealtype: "lunch"}} // SUM(calories) in [1400, 1900]
	answer := func(ids ...int) *packagebuilder.Result {
		var rows []schema.Row
		protein := 0.0
		for _, id := range ids {
			rows = append(rows, base[id-1])
			protein += num(base[id-1], colProtein)
		}
		res := &core.Result{Packages: []*core.Package{{Rows: rows, Objective: protein}}}
		res.Stats.Strategy, res.Stats.Exact = core.Solver, true
		res.Stats.Certified, res.Stats.BoundValue = true, protein
		return res
	}
	good := answer(1, 2, 3)
	if tight, err := validate(o, true, e.live(0), good); err != nil || tight != 1 {
		t.Fatalf("good package: tightness %g, %v", tight, err)
	}
	loose := answer(1, 2, 3)
	loose.Stats.BoundValue = 150
	if tight, err := validate(o, true, e.live(0), loose); err != nil || tight != 0.8 {
		t.Errorf("bound 150 over found 120: tightness %g, %v; want 0.8", tight, err)
	}
	uncertified := answer(1, 2, 3)
	uncertified.Stats.Certified = false
	if tight, err := validate(o, true, e.live(0), uncertified); err != nil || tight != 0 {
		t.Errorf("uncertified: tightness %g, %v; want 0", tight, err)
	}

	bad := map[string]*packagebuilder.Result{
		"empty answer":           {},
		"SUM(calories) too high": answer(2, 3, 4),
		"COUNT(*) too low":       answer(2, 4),
		"row repeated":           answer(1, 1, 4),
		"row not in the table":   answer(1, 2, 3),
		"row differs":            answer(1, 2, 3),
		"row fails WHERE":        answer(1, 2, 3),
		"objective misreported":  answer(1, 2, 3),
		"objective beats bound":  answer(1, 2, 3),
		"not exact":              answer(1, 2, 3),
		"wrong strategy":         answer(1, 2, 3),
	}
	bad["row not in the table"].Packages[0].Rows[2] = recipe(9, 600, 50, 30, 7, 5)
	bad["row differs"].Packages[0].Rows[2] = recipe(3, 600, 50, 31, 7, 5)
	bad["objective misreported"].Packages[0].Objective = 121
	bad["objective beats bound"].Stats.BoundValue = 119
	bad["not exact"].Stats.Exact = false
	bad["wrong strategy"].Stats.Strategy = core.SketchRefineStrategy
	for name, res := range bad {
		op := o
		if name == "row fails WHERE" {
			op.where.cuisine = "french"
		}
		if _, err := validate(op, true, e.live(0), res); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A deleted row is not in the table; a later inserted one is.
	e.added, e.deleted = []schema.Row{recipe(5, 500, 40, 20, 6, 4), recipe(6, 500, 40, 20, 6, 4)}, 1
	if _, ok := e.live(0)(5); ok {
		t.Error("deleted row 5 is live")
	}
	if _, ok := e.live(0)(6); !ok {
		t.Error("inserted row 6 is not live")
	}
}

// digest hashes a workload's CSV and op list for a seed.
func digest(w workload, seed int64) string {
	h := sha256.New()
	for _, rows := range genRows(w, seed) {
		h.Write([]byte(renderCSV(rows)))
	}
	for _, o := range genOps(w, seed, 20) {
		h.Write([]byte(o.insert + "\n" + o.delete + "\n" + o.query() + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestDeterminism(t *testing.T) {
	golden := map[string]string{
		"interactive-exact": "c3e2bf95037c80228de35df5bd08be8d4551f658bf8419013473cab88f9827ec",
		"sketch-warm":       "35b1048d5b3c1894ce037cd544ac94aee3e5cb1ac9b482e955903b2c077276bf",
		"sketch-cold":       "82b41ddfca89a0b4e33d4650d35f584d73d2d6885ebacbe53ec5e740a8424737",
		"write-interleaved": "01353721165a10b5dda3ef502ed67b0a81b9f26c7c9407abc30fd8ce089ffa2f",
	}
	for _, w := range workloads {
		w.rows = 1000
		got := digest(w, 42)
		if got != digest(w, 42) {
			t.Errorf("%s: seed 42 generated two different inputs", w.name)
		}
		if got != golden[w.name] {
			t.Errorf("%s: seed 42 digest %s, golden %s", w.name, got, golden[w.name])
		}
		if got == digest(w, 43) {
			t.Errorf("%s: seeds 42 and 43 generated the same inputs", w.name)
		}
		a, b := genOps(w, 42, 20), genOps(w, 43, 20)
		same := 0
		for i := range a {
			if a[i].k == b[i].k {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 42 and 43 drew the same constants", w.name)
		}
	}
}

func TestWorkloadPromises(t *testing.T) {
	const seconds = 20
	for _, w := range workloads {
		n := w.ops(seconds)
		if n < 100 || n%numTemplates != 0 {
			t.Errorf("%s: %d ops, want at least 100 in whole template cycles", w.name, n)
		}
		if w.traceOps > n {
			t.Errorf("%s: traces %d ops of %d", w.name, w.traceOps, n)
		}
		ops := genOps(w, 42, w.warmup+n)
		shares := make([]int, numTemplates)
		for _, o := range ops[w.warmup:] {
			shares[o.tmpl]++
		}
		if w.writes {
			if shares[0] != 4*shares[3] || shares[0]+shares[3] != n {
				t.Errorf("%s: template shares %v, want T0:T3 = 4:1", w.name, shares)
			}
		} else {
			for tmpl, c := range shares {
				if c != n/numTemplates {
					t.Errorf("%s: T%d has %d of %d ops, want equal shares", w.name, tmpl, c, n)
				}
			}
		}
		tables := genRows(w, 42)
		seen := map[where]bool{}
		for i, o := range ops {
			switch w.filter {
			case filterExact:
				// Above 4,096 candidates the planner leaves the exact solver.
				c := 0
				for _, r := range tables[o.table] {
					if o.where.match(r) {
						c++
					}
				}
				if c > 4096 || c < 100 {
					t.Fatalf("%s: op %d has %d candidates", w.name, i, c)
				}
			case filterCold:
				if seen[o.where] {
					t.Fatalf("%s: op %d repeats WHERE %s", w.name, i, o.where.sql())
				}
				seen[o.where] = true
			}
		}
	}
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload scaled down, untraced and traced, and
// holds what it reports against BENCHMARK.json — so a renamed public
// function or metric breaks a test, not the next benchmark run.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(got), kind, len(want))
		}
		for i := range want {
			want[i].count = false
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", c.EndToEnd, append([]metricDef(nil), endToEndMetrics...))
	same("per_layer", c.PerLayer, append([]metricDef(nil), perLayerMetrics...))

	t.Chdir(t.TempDir()) // the traced run writes benchmark/out/ under the working directory
	// Small tables that keep each workload on its strategy: sketch-refine
	// needs more than 4,096 candidates, the exact solver more than 22.
	rows := map[string]int{"interactive-exact": 4000, "sketch-warm": 6000, "sketch-cold": 20000, "write-interleaved": 6000}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, c.Workloads[i].Name, w.name)
		}
		w.rows, w.traceOps = rows[w.name], 5
		check := func(r result, err error, defs []metricDef, attempted int) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted != attempted {
				t.Errorf("%s: correct=%v failed=%d attempted=%d, want %d clean ops", w.name, r.Correct, r.Failed, r.Attempted, attempted)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics reported, want %d", w.name, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %+v (reported: %v)", w.name, d.Name, m, ok)
				}
			}
		}
		r, err := endToEnd(w, 42, 100)
		check(r, err, endToEndMetrics, 100)
		r, err = traced(w, 42)
		check(r, err, perLayerMetrics, w.traceOps)
		if _, err := os.Stat(outDir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
