package sketch_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/sketch"
)

// TestParallelForCoversEveryIndexOnce exercises the scheduling helper
// directly: every index must run exactly once at any worker count,
// including degenerate ones.
func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 3, 100} {
			counts := make([]int32, n)
			sketch.ParallelForTest(workers, n, func(i int) { counts[i]++ })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestParallelBuildDeterministic builds the same partition tree serially
// and with many workers: the trees must be deeply equal — parallelism
// divides the work, never the outcome.
func TestParallelBuildDeterministic(t *testing.T) {
	prep := recipesPrep(t, 5000)
	serial := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 7, Parallelism: 1})
	parallel := sketch.BuildTree(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: 2, Seed: 7, Parallelism: 8})
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel tree build diverged from serial")
	}
}

// TestParallelSolveByteIdentical runs the full sketch pipeline serially
// and with many workers at depths 1 and 2: the packages must be
// byte-identical under the fixed seed (the acceptance bar for the
// parallel pipeline), along with the objective and the refine stats.
func TestParallelSolveByteIdentical(t *testing.T) {
	prep := recipesPrep(t, 5000)
	for _, depth := range []int{1, 2} {
		serial, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: depth, Seed: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 16, Depth: depth, Seed: 1, Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Feasible || !parallel.Feasible {
			t.Fatalf("depth %d: infeasible (serial %v, parallel %v)", depth, serial.Feasible, parallel.Feasible)
		}
		if !reflect.DeepEqual(serial.Mult, parallel.Mult) {
			t.Fatalf("depth %d: parallel package diverged from serial", depth)
		}
		if serial.Objective != parallel.Objective {
			t.Fatalf("depth %d: objective %v (serial) vs %v (parallel)", depth, serial.Objective, parallel.Objective)
		}
		if serial.Refined != parallel.Refined || serial.Repaired != parallel.Repaired {
			t.Fatalf("depth %d: refine stats diverged: serial %d/%d, parallel %d/%d",
				depth, serial.Refined, serial.Repaired, parallel.Refined, parallel.Repaired)
		}
		if parallel.Workers != 8 || serial.Workers != 1 {
			t.Fatalf("depth %d: workers stat = %d/%d, want 1/8", depth, serial.Workers, parallel.Workers)
		}
	}
}

// TestParallelByteIdentical1M is the scale check for the parallel
// pipeline: at 1M rows, four workers build, descend, refine and certify
// exactly what one worker does — the same package, objective, interval,
// tree shape and solver work. It holds on any core count (four workers
// on fewer cores still interleave). The speedup is logged, never gated:
// it measures the machine, not the code.
func TestParallelByteIdentical1M(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1M-tuple relation")
	}
	prep := recipesPrep(t, 1000000)
	run := func(par int) (sketch.Result, time.Duration) {
		start := time.Now()
		res, err := sketch.Solve(prep.Instance, sketch.Options{MaxPartitionSize: 256, Depth: 2, Seed: 1, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if res.Workers != par {
			t.Fatalf("Parallelism %d ran %d workers", par, res.Workers)
		}
		res.Workers, res.BoundTime = 0, 0
		return *res, elapsed
	}
	serial, serialTime := run(1)
	parallel, parallelTime := run(4)
	if !serial.Feasible {
		t.Fatal("infeasible at 1M")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("four workers diverged from one at 1M: objective %v / %v, bound %v / %v, nodes %d / %d, packages equal %v",
			serial.Objective, parallel.Objective, serial.Bound, parallel.Bound, serial.Nodes, parallel.Nodes,
			reflect.DeepEqual(serial.Mult, parallel.Mult))
	}
	t.Logf("serial %v, 4 workers %v on %d CPUs: %.2fx", serialTime, parallelTime,
		runtime.GOMAXPROCS(0), float64(serialTime)/float64(parallelTime))
}
