package bench

import (
	"strconv"
	"strings"
	"testing"
)

// Each experiment must run in quick mode and emit its table header —
// this is the integration test that keeps cmd/pbench honest.
func TestExperimentsQuick(t *testing.T) {
	cases := []struct {
		id   string
		want []string
	}{
		{"f1", []string{"Package template", "Suggestions", "Package-space summary", "MINIMIZE SUM(P.fat)"}},
		{"e1", []string{"pruned-space", "lossless", "true"}},
		{"e2", []string{"strategy", "solver", "local-search", "skipped: intractable"}},
		{"e3", []string{"join-width", "2-way", "4-way", "neighbourhood"}},
		{"e4", []string{"package#", "cumulative", "distinct"}},
		{"e5", []string{"restarts", "ratio", "solver (exact)"}},
		{"e6", []string{"REPEAT", "max-mult", "feasible"}},
		{"e7", []string{"selection", "min-distance", "diverse"}},
		{"e9", []string{"hierarchical", "top-vars", "warm cache", "true"}},
		{"e10", []string{"parallel", "speedup-vs-serial", "disk-warm cold start", "loaded"}},
		{"e12", []string{"incremental tree maintenance", "rebuild", "patch", "speedup"}},
		{"e13", []string{"cost-based planner", "hand-set", "planner", "speedup-vs-hand-set"}},
		{"e14", []string{"query lifecycle under load", "clients", "shed", "p99", "sheds instead of queueing"}},
		{"e16", []string{"band-aware bound tightening", "bound/tree-lp", "bound/pipeline", "anytime/gap5", "early exit"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder
			if err := Run(tc.id, Config{Out: &sb, Quick: true, Seed: 42}); err != nil {
				t.Fatalf("%s: %v", tc.id, err)
			}
			out := sb.String()
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("%s output missing %q:\n%s", tc.id, w, out)
				}
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := Run("e99", Config{Out: &sb}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// E1's lossless column must read true on every row — a regression here
// means pruning lost solutions.
func TestE1AlwaysLossless(t *testing.T) {
	var sb strings.Builder
	if err := RunE1(Config{Out: &sb, Quick: true, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "false") {
			t.Errorf("lossless=false in E1 output: %s", line)
		}
	}
}

// E5's ratio column must never exceed 1.0 (heuristic cannot beat the
// proven optimum).
func TestE5RatioAtMostOne(t *testing.T) {
	var sb strings.Builder
	if err := RunE5(Config{Out: &sb, Quick: true, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "local" {
			continue
		}
		ratio := fields[len(fields)-1]
		var r float64
		if _, err := fmtSscan(ratio, &r); err == nil && r > 1.0001 {
			t.Errorf("heuristic ratio %s > 1: %s", ratio, line)
		}
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	*v = f
	return 1, nil
}
