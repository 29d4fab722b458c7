// Command benchmark is the repository's benchmark: it generates a table
// and a list of PaQL queries from a seed, drives packagebuilder.System
// through its public API from one closed-loop client, validates every
// answer with its own arithmetic, and prints every metric by name with
// its unit. README.md defines the workloads and the metrics.
//
//	bash benchmark/run.sh --workload sketch-warm --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload sketch-warm --seed 42 --seconds 20 --trace 1
//	bash benchmark/run.sh --aa 3 --seed 42 --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// procs pins GOMAXPROCS: the planner's parallelism decision and every
// latency depend on it, so it must not follow the machine's core count.
const procs = 2

func main() {
	name := flag.String("workload", "", "workload to run: interactive-exact, sketch-warm, sketch-cold or write-interleaved")
	seed := flag.Int64("seed", 42, "seed the table and the queries are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured phase the op count is sized for")
	trace := flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics; 0: the end-to-end metrics")
	aa := flag.Int("aa", 0, "noise mode: run this many back-to-back sets of all workloads and compare them")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	if *aa > 0 {
		if err := noise(*aa, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var r result
	var err error
	if *trace == 1 {
		r, err = traced(w, *seed)
	} else {
		r, err = endToEnd(w, *seed, w.ops(*seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
