package bench

import (
	"strconv"
	"strings"
	"testing"
)

// quickWant lists, per experiment id, strings its quick-mode output must
// contain: the table header and the cells that carry its claim.
var quickWant = map[string][]string{
	"f1":  {"Package template", "Suggestions", "Package-space summary", "MINIMIZE SUM(P.fat)"},
	"e1":  {"pruned-space", "lossless", "true"},
	"e2":  {"strategy", "brute-force", "solver", "local-search", "skipped: intractable"},
	"e3":  {"join-width", "2-way", "4-way", "neighbourhood"},
	"e4":  {"package#", "cumulative", "distinct"},
	"e5":  {"restarts", "ratio", "solver (exact)"},
	"e6":  {"REPEAT", "max-mult", "feasible"},
	"e7":  {"selection", "min-distance", "diverse"},
	"e10": {"parallel", "speedup-vs-serial", "disk-warm cold start", "loaded"},
	"e14": {"query lifecycle under load", "clients", "shed", "p99", "1/0", "sheds instead of queueing"},
	"e16": {"band-aware bound tightening", "bound/tree-lp", "bound/pipeline", "anytime/gap5", "early exit"},
}

// Every experiment in the table must run in quick mode and emit its
// claim cells — this is the integration test that keeps cmd/pbench
// honest. A new table row fails here until quickWant names its strings.
func TestExperimentsQuick(t *testing.T) {
	if len(quickWant) != len(experiments) {
		t.Errorf("quickWant lists %d ids, the table has %d", len(quickWant), len(experiments))
	}
	for _, e := range experiments {
		want := quickWant[e.id]
		t.Run(e.id, func(t *testing.T) {
			t.Parallel()
			if len(want) == 0 {
				t.Fatalf("no quickWant strings for %s", e.id)
			}
			var sb strings.Builder
			if err := Run(e.id, Config{Out: &sb, Quick: true, Seed: 42}); err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			out := sb.String()
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("%s output missing %q:\n%s", e.id, w, out)
				}
			}
		})
	}
}

// The unknown-id error lists exactly the table's ids.
func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	err := Run("e99", Config{Out: &sb})
	if err == nil {
		t.Fatal("unknown experiment should fail")
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	if want := "(" + strings.Join(ids, ", ") + ", all)"; !strings.HasSuffix(err.Error(), want) {
		t.Errorf("error %q does not end in %q", err, want)
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
