package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	packagebuilder "repro"
	"repro/internal/schema"
)

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median, so one slow page-fault storm does not decide it.
const setupRepeats = 3

// env is one set-up system plus what the validator must remember about
// the table's contents.
type env struct {
	w       workload
	sys     *packagebuilder.System
	base    [][]schema.Row // generated rows per table; ids 1..len(base[t]), never deleted
	added   []schema.Row   // rows INSERTed so far (single-table workloads), ids following base
	deleted int            // how many of added (always the earliest) are deleted
	ops     []op           // measured ops; the warm-up ops are already spent
	loadMS  float64        // System.LoadCSV, all tables
}

// live returns the resolver from a row id of the given table to the
// harness's copy of the row.
func (e *env) live(table int) func(id int) (schema.Row, bool) {
	base := e.base[table]
	return func(id int) (schema.Row, bool) {
		switch {
		case id >= 1 && id <= len(base):
			return base[id-1], true
		case id > len(base)+e.deleted && id <= len(base)+len(e.added):
			return e.added[id-len(base)-1], true
		}
		return nil, false
	}
}

// write applies an op's INSERT and DELETE through System.ExecSQL.
func (e *env) write(o op) error {
	if _, err := e.sys.ExecSQL(o.insert); err != nil {
		return fmt.Errorf("insert: %w", err)
	}
	e.added = append(e.added, o.inserted...)
	res, err := e.sys.ExecSQL(o.delete)
	if err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	if res.Affected != deleteBatch {
		return fmt.Errorf("delete removed %d rows, want %d", res.Affected, deleteBatch)
	}
	e.deleted += deleteBatch
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setup builds a fresh system for the workload: generate rows from the
// seed, render CSV, LoadCSV, catalog statistics, then an untimed warm-up
// drawn from the same op stream as the measured ops (the heap reaches
// its steady state and the warm trees get built).
func setup(w workload, seed int64, nOps int) (*env, error) {
	e := &env{w: w, sys: packagebuilder.New(), base: genRows(w, seed)}
	for i, rows := range e.base {
		csv := renderCSV(rows)
		t := time.Now()
		n, err := e.sys.LoadCSV(tableName(i), strings.NewReader(csv))
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		e.loadMS += ms(time.Since(t))
		if n != w.rows {
			return nil, fmt.Errorf("loaded %d rows, want %d", n, w.rows)
		}
		if _, ok := e.sys.Catalog().Stats(tableName(i)); !ok {
			return nil, fmt.Errorf("catalog has no statistics for %s", tableName(i))
		}
	}
	ops := genOps(w, seed, w.warmup+nOps)
	warm := e.run(ops[:w.warmup])
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %s", warm.failed, w.warmup, warm.firstFailure)
	}
	e.ops = ops[w.warmup:]
	return e, nil
}

// pass is what one untraced run over a list of ops observed.
type pass struct {
	queryMS      []float64 // System.Query latency per op
	opMS         []float64 // the whole step: writes plus query
	tightness    []float64
	objective    []float64
	candidates   []float64
	patched      int // answers whose partition tree was patched in place
	failed       int
	firstFailure string
	wall         time.Duration
	allocBytes   uint64 // MemStats.TotalAlloc delta
	gcCycles     uint32 // MemStats.NumGC delta
}

// run drives the ops through System's public API from one closed-loop
// client: the next op starts only when the previous one has returned
// and been validated.
func (e *env) run(ops []op) pass {
	var p pass
	fail := func(i int, err error) {
		p.failed++
		if p.firstFailure == "" {
			p.firstFailure = fmt.Sprintf("op %d (T%d): %v", i, ops[i].tmpl, err)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, o := range ops {
		opStart := time.Now()
		if e.w.writes {
			if err := e.write(o); err != nil {
				fail(i, err)
				continue
			}
		}
		t := time.Now()
		res, err := e.sys.Query(o.query())
		end := time.Now()
		p.queryMS = append(p.queryMS, ms(end.Sub(t)))
		p.opMS = append(p.opMS, ms(end.Sub(opStart)))
		if err != nil {
			fail(i, err)
			continue
		}
		tight, err := validate(o, e.w.exact, e.live(o.table), res)
		if err != nil {
			fail(i, err)
			continue
		}
		p.tightness = append(p.tightness, tight)
		p.objective = append(p.objective, res.Packages[0].Objective)
		p.candidates = append(p.candidates, float64(res.Stats.Candidates))
		if res.Stats.SketchTreePatched {
			p.patched++
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	return p
}

// result is what one invocation reports: the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd measures the workload's end-to-end metrics with tracing off.
func endToEnd(w workload, seed int64, nOps int) (result, error) {
	var e *env
	setups := make([]float64, setupRepeats)
	for i := range setups {
		e = nil
		runtime.GC() // the previous set-up's system is garbage now
		t := time.Now()
		var err error
		if e, err = setup(w, seed, nOps); err != nil {
			return result{}, err
		}
		setups[i] = time.Since(t).Seconds()
	}
	p := e.run(e.ops)
	if p.failed > 0 {
		fmt.Printf("first failure: %s\n", p.firstFailure)
	}
	tail, err := p90(p.queryMS)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	n := float64(len(e.ops))
	values := map[string]float64{
		"setup_s":            median(setups),
		"query_ms_p50":       median(p.queryMS),
		"query_ms_p90":       tail,
		"queries_per_s":      n / p.wall.Seconds(),
		"alloc_mb_per_query": float64(p.allocBytes) / (1 << 20) / n,
		"peak_rss_mb":        rss,
		"tightness_mean":     mean(p.tightness),
		"ok_share":           (n - float64(p.failed)) / n,
	}
	fmt.Printf("samples: query_ms n=%d (%d beyond p90), setup_s n=%d, tightness n=%d\n",
		len(p.queryMS), beyondP90(len(p.queryMS)), len(setups), len(p.tightness))
	return report(endToEndMetrics, values, len(e.ops), p.failed)
}

// report prints every metric by name with its unit and packs them into
// the contract's result; a metric the run did not produce is an error.
func report(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Printf("%-44s %14.4f %s\n", d.Name, v, d.Unit)
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
