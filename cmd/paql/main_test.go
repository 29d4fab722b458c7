package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// runCLI runs the command in-process over stdin, returning its exit code
// and what it wrote to stdout and stderr.
func runCLI(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

const mealQuery = `SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free'
	SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
	MAXIMIZE SUM(P.protein)`

// TestRunExitCodes drives the whole command in-process: flag errors exit
// 2 with the usage, load errors 1, a one-shot answer 0 and a provably
// infeasible query 2, each with what it prints.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csvPath, []byte("id:int,x:float\n1,10\n2,20\n3,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	queryPath := filepath.Join(dir, "q.paql")
	if err := os.WriteFile(queryPath, []byte(`SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(P.x)`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		args      []string
		code      int
		stdout    []string
		stderr    []string
		notStdout []string
	}{
		{name: "unknown flag", args: []string{"-nope"}, code: 2,
			stderr: []string{"flag provided but not defined: -nope", "usage: paql [flags]", "4  budget"}},
		{name: "-sketch-incr is gone", args: []string{"-sketch-incr=false", "-gen", "recipes:200:1", "-q", mealQuery}, code: 2,
			stderr: []string{"flag provided but not defined: -sketch-incr", "usage: paql [flags]"}},
		{name: "-max-gap is gone", args: []string{"-max-gap", "0.05", "-gen", "recipes:200:1", "-q", mealQuery}, code: 2,
			stderr: []string{"flag provided but not defined: -max-gap", "usage: paql [flags]"}},
		{name: "unknown strategy", args: []string{"-strategy", "magic"}, code: 2,
			stderr: []string{`invalid value "magic" for flag -strategy`}},
		{name: "help", args: []string{"-h"}, code: 0, stderr: []string{"usage: paql [flags]", "exit codes"}},
		{name: "one-shot answer", args: []string{"-gen", "recipes:200:1", "-q", mealQuery}, code: 0,
			stdout: []string{"strategy=solver", "certified:"}},
		{name: "provably infeasible", args: []string{"-gen", "recipes:200:1", "-q",
			`SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) >= 5 AND COUNT(*) <= 2`}, code: 2,
			stderr: []string{"paql: infeasible: "}},
		{name: "over budget", args: []string{"-gen", "recipes:200:1", "-mem-budget", "1", "-q", mealQuery}, code: 4,
			stderr: []string{"paql: budget: "}},
		{name: "-explain", args: []string{"-gen", "recipes:200:1", "-explain", "-strategy", "sketch-refine", "-q", mealQuery}, code: 0,
			stdout: []string{"plan for:", "table recipes: 200 rows", "strategy = sketch-refine  [forced]"}, notStdout: []string{"certified:"}},
		{name: "-csv and -f", args: []string{"-csv", "t=" + csvPath, "-f", queryPath}, code: 0,
			stdout: []string{"objective"}, stderr: []string{"loaded 3 rows into t"}},
		{name: "-sketch-dir", args: []string{"-gen", "recipes:200:1", "-strategy", "sketch-refine", "-sketch-dir", dir, "-q", mealQuery}, code: 0,
			stdout: []string{"strategy=sketch-refine"}},
		{name: "bad -csv", args: []string{"-csv", "t"}, code: 1, stderr: []string{`paql: bad -csv "t" (want table=path.csv)`}},
		{name: "missing -csv file", args: []string{"-csv", "t=" + filepath.Join(dir, "none.csv")}, code: 1, stderr: []string{"paql: load t="}},
		{name: "missing -f file", args: []string{"-f", filepath.Join(dir, "none.paql")}, code: 1, stderr: []string{"none.paql"}},
		{name: "unknown -gen kind", args: []string{"-gen", "planets"}, code: 1, stderr: []string{`unknown kind "planets" (recipes, vacation, stocks)`}},
		{name: "bad -gen size", args: []string{"-gen", "recipes:many"}, code: 1, stderr: []string{`bad size "many"`}},
		{name: "bad -gen seed", args: []string{"-gen", "recipes:10:x"}, code: 1, stderr: []string{`bad seed "x"`}},
		{name: "every -gen kind", args: []string{"-gen", "vacation:30:1", "-gen", "stocks:30:1", "-gen", "recipes",
			"-q", "SELECT PACKAGE(S) AS P FROM stocks S SUCH THAT COUNT(*) = 2"}, code: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, "", c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout, stderr)
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout)
				}
			}
			for _, want := range c.notStdout {
				if strings.Contains(stdout, want) {
					t.Errorf("stdout has %q:\n%s", want, stdout)
				}
			}
			for _, want := range c.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr)
				}
			}
		})
	}
}

// TestREPLSession reads a whole session from stdin: SQL and PaQL
// statements interleaved, one spread over two lines, an EXPLAIN, a
// failing statement that leaves the session running, and \q.
func TestREPLSession(t *testing.T) {
	session := strings.Join([]string{
		"SELECT COUNT(*) FROM recipes;",
		mealQuery + ";",
		"INSERT INTO recipes VALUES (99001, 'x', 'fusion', 'dinner', 'free', 820, 45, 10, 50, 9.5, 4.5);",
		"SELECT name FROM recipes",
		"  WHERE id = 99001;",
		"EXPLAIN " + mealQuery + ";",
		"SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) >= 5 AND COUNT(*) <= 2;",
		"SELECT nothing FROM nowhere;",
		";",
		`\q`,
		"SELECT id FROM recipes WHERE id = 99001;",
	}, "\n")
	code, stdout, stderr := runCLI(t, session, "-gen", "recipes:200:1")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{"PackageBuilder REPL", "paql> ", "   -> ", "200", "strategy=solver", "x", "plan for:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if n := strings.Count(stdout, "paql> "); n != 9 {
		t.Errorf("%d prompts, want 9 (one per statement, the blank one included, and the first):\n%s", n, stdout)
	}
	for _, want := range []string{"paql: infeasible: ", "paql: error: "} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	if strings.Contains(stdout, "99001") {
		t.Errorf("a statement after \\q ran:\n%s", stdout)
	}
}
