package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// The noise mode (-aa N) measures the benchmark against itself: N
// back-to-back sets of every workload's untraced and traced run on the
// same code and seed, each run in its own process so peak_rss_mb means
// what it means in a single run.

// series is one metric of one workload across the sets.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Range is (max − min) ÷ median: how far the two sets furthest apart
	// disagree.
	Range float64 `json:"range"`
	Bound float64 `json:"bound,omitempty"`
}

// noiseReport is what -aa writes to benchmark/out and what
// baseline/BENCH_0.json holds.
type noiseReport struct {
	Seed      int64                        `json:"seed"`
	Seconds   int                          `json:"seconds"`
	Sets      int                          `json:"sets"`
	Go        string                       `json:"go"`
	Procs     int                          `json:"gomaxprocs"`
	Workloads map[string]map[string]series `json:"workloads"`
}

func noise(sets int, seed int64, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := noiseReport{Seed: seed, Seconds: seconds, Sets: sets, Go: runtime.Version(), Procs: procs,
		Workloads: map[string]map[string]series{}}
	for set := 1; set <= sets; set++ {
		for _, w := range workloads {
			if rep.Workloads[w.name] == nil {
				rep.Workloads[w.name] = map[string]series{}
			}
			for trace := 0; trace <= 1; trace++ {
				fmt.Fprintf(os.Stderr, "set %d/%d: %s trace=%d\n", set, sets, w.name, trace)
				r, err := runSelf(exe, w.name, seed, seconds, trace)
				if err != nil {
					return fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
				}
				if !r.Correct {
					return fmt.Errorf("%s trace=%d: %d of %d ops failed", w.name, trace, r.Failed, r.Attempted)
				}
				for name, m := range r.Metrics {
					s := rep.Workloads[w.name][name]
					s.Unit = m.Unit
					s.Values = append(s.Values, m.Value)
					rep.Workloads[w.name][name] = s
				}
			}
		}
	}

	var broken []string
	for _, w := range workloads {
		fmt.Printf("\n%s\n%-44s %-8s %12s %12s %12s %8s %6s\n", w.name, "metric", "unit", "median", "q1", "q3", "range", "bound")
		for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
			s := rep.Workloads[w.name][d.Name]
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			asc := sorted(s.Values)
			lo, hi := asc[0], asc[len(asc)-1]
			if s.Median != 0 {
				s.Range = (hi - lo) / s.Median
			}
			s.Bound = d.Bound
			rep.Workloads[w.name][d.Name] = s
			verdict := ""
			switch {
			case d.Bound > 0 && s.Range > d.Bound:
				verdict = "  sets disagree by more than the bound"
			case d.count && hi != lo:
				verdict = "  count does not repeat"
			}
			if verdict != "" {
				broken = append(broken, w.name+"/"+d.Name)
			}
			bound := ""
			if d.Bound > 0 {
				bound = strconv.FormatFloat(d.Bound, 'g', -1, 64)
			}
			fmt.Printf("%-44s %-8s %12.4f %12.4f %12.4f %8.4f %6s%s\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.Range, bound, verdict)
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("aa-seed%d.json", seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	if len(broken) > 0 {
		return fmt.Errorf("%d metrics do not repeat: %v", len(broken), broken)
	}
	return nil
}

// runSelf runs one workload in a child process of this same binary,
// waits for it, and parses the result on its last line.
func runSelf(exe, name string, seed int64, seconds, trace int) (result, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}
