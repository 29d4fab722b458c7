package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	pb "repro"
	"repro/internal/dataset"
)

func testSystem(t *testing.T) *pb.System {
	t.Helper()
	sys := pb.New()
	if err := dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: 200, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestIsExplain(t *testing.T) {
	cases := []struct {
		text string
		want bool
	}{
		{"EXPLAIN SELECT PACKAGE(R) AS P FROM recipes R", true},
		{"  explain\nSELECT PACKAGE(R) AS P FROM recipes R", true},
		{"SELECT PACKAGE(R) AS P FROM recipes R", false},
		{"EXPLAINX SELECT", false},
		{"", false},
	}
	for _, c := range cases {
		if got := isExplain(c.text); got != c.want {
			t.Errorf("isExplain(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

// TestRunExplainPrintsPlan drives the CLI explain path end-to-end: an
// EXPLAIN-prefixed statement prints the planner's decision trail and
// does not execute the query.
func TestRunExplainPrintsPlan(t *testing.T) {
	sys := testSystem(t)
	cli := cliOpts{Options: pb.Options{Seed: 1}}
	var buf strings.Builder
	err := runExplain(context.Background(), sys, &buf, `EXPLAIN SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 MAXIMIZE SUM(P.protein)`, cli)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"plan for:", "table recipes: 200 rows", "strategy = "} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "EXPLAIN") {
		t.Errorf("plan header kept the EXPLAIN prefix:\n%s", out)
	}
}

// TestOutcomeParity pins the documented exit-code ↔ error taxonomy in
// one place: the one-shot exit path and the REPL error lines both
// classify through outcome(), so every errors.Is pairing — including
// code 4 ↔ ErrBudgetExceeded, which the REPL used to drop — must map
// the same on both surfaces, and --help must document each code.
func TestOutcomeParity(t *testing.T) {
	cases := []struct {
		err   error
		code  int
		label string
	}{
		{pb.ErrInfeasible, 2, "infeasible"},
		{pb.ErrCanceled, 3, "canceled"},
		{pb.ErrBudgetExceeded, 4, "budget"},
		{errors.New("parse error"), 1, "error"},
		{fmt.Errorf("wrapped: %w", pb.ErrBudgetExceeded), 4, "budget"},
	}
	for _, c := range cases {
		code, label := outcome(c.err)
		if code != c.code || label != c.label {
			t.Errorf("outcome(%v) = (%d, %q), want (%d, %q)", c.err, code, label, c.code, c.label)
		}
		if !strings.Contains(exitCodeTable, fmt.Sprintf("%d  %s", c.code, c.label)) {
			t.Errorf("--help exit-code table missing %d/%s:\n%s", c.code, c.label, exitCodeTable)
		}
	}
}

// TestTypeErrorExitsOne: a numeric comparison over a text column is
// refused by the analyzer, naming the atom, before any strategy runs —
// exit code 1 under every -strategy (pruned-enum used to answer it while
// the solver proved it infeasible).
func TestTypeErrorExitsOne(t *testing.T) {
	sys := testSystem(t)
	for _, strategy := range []pb.Strategy{pb.Auto, pb.Solver, pb.PrunedEnum, pb.LocalSearch, pb.SketchRefine} {
		cli := cliOpts{Options: pb.Options{Strategy: strategy, Seed: 1}}
		_, qerr := sys.QueryContext(context.Background(), `SELECT PACKAGE(R) AS P FROM recipes R
			SUCH THAT COUNT(*) = 2 AND MIN(P.name) >= 1`, pb.With(cli.Options))
		if qerr == nil || !strings.Contains(qerr.Error(), "MIN(R.name) >= 1") {
			t.Fatalf("-strategy %s: %v, want an error naming the atom", strategy, qerr)
		}
		if code, label := outcome(qerr); code != 1 || label != "error" {
			t.Fatalf("-strategy %s would report (%d, %q), want (1, \"error\")", strategy, code, label)
		}
	}
}

// TestReplBudgetErrorLabeled drives the real REPL statement path under a
// tiny memory budget: the failure must surface with the same "budget"
// label the one-shot path exits 4 on.
func TestReplBudgetErrorLabeled(t *testing.T) {
	sys := testSystem(t)
	cli := cliOpts{Options: pb.Options{Seed: 1, MemoryBudget: 1}}
	_, qerr := sys.QueryContext(context.Background(), `SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 MAXIMIZE SUM(P.protein)`, pb.With(cli.Options))
	if !errors.Is(qerr, pb.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded under a 1-byte budget, got %v", qerr)
	}
	if code, label := outcome(qerr); code != 4 || label != "budget" {
		t.Fatalf("REPL would report (%d, %q), want (4, \"budget\")", code, label)
	}
}

// TestRunExplainForcedFlags checks explicit CLI knobs surface as forced
// decisions in the plan instead of planner picks.
func TestRunExplainForcedFlags(t *testing.T) {
	sys := testSystem(t)
	cli := cliOpts{Options: pb.Options{Strategy: pb.SketchRefine, Seed: 1, SketchPartitionSize: 32, SketchDepth: 2}}
	var buf strings.Builder
	err := runExplain(context.Background(), sys, &buf, `SELECT PACKAGE(R) AS P FROM recipes R
		SUCH THAT COUNT(*) = 3 MAXIMIZE SUM(P.protein)`, cli)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "[forced]"); n != 3 {
		t.Errorf("want 3 forced decisions (strategy, tau, depth), got %d:\n%s", n, out)
	}
	// With those three marked, the parallelism decision is the planner's.
	for _, want := range []string{"strategy = sketch-refine  [forced]", "tau = 32  [forced]",
		"depth = 2  [forced]", "parallelism = "} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}
