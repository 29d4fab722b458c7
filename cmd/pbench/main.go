// Command pbench runs the experiment suite of internal/bench: the
// Figure 1 interface reproduction (F1), the quantitative claims of the
// paper's §2, §4 and §5 (E1–E7), and the follow-up rows that drive what
// the repository benchmark (benchmark/) does not. pbench -h lists them.
//
// Usage:
//
//	pbench                 # run everything
//	pbench -exp e3         # one experiment
//	pbench -quick          # smaller sweeps
//	pbench -seed 7         # different synthetic data
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, or one of\n"+bench.List())
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	seed := flag.Int64("seed", 42, "synthetic dataset seed")
	flag.Parse()

	cfg := bench.Config{Out: os.Stdout, Quick: *quick, Seed: *seed}
	if err := bench.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
}
