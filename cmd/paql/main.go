// Command paql evaluates PaQL package queries from the command line.
//
// Data sources (choose one or more):
//
//	-csv table=path.csv     load a CSV file as a table (repeatable)
//	-gen recipes:500:42     generate a synthetic table kind:n:seed
//	                        (kinds: recipes, vacation, stocks)
//
// The query comes from -q or -f; with neither, an interactive REPL
// reads PaQL or SQL statements from stdin (terminate each with ';').
//
// Examples:
//
//	paql -gen recipes:500:1 -q "SELECT PACKAGE(R) AS P FROM recipes R
//	     WHERE R.gluten = 'free'
//	     SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500
//	     MAXIMIZE SUM(P.protein)"
//	paql -gen recipes:1000:1 -strategy local-search -limit 3 -q "..."
//	paql -gen recipes:100000:1 -strategy sketch -sketch-size 128 -q "..."
//	paql -gen recipes:1000000:1 -strategy sketch -sketch-depth 2 -q "..."
//	paql -gen recipes:1000000:1 -strategy sketch -sketch-depth 2 \
//	     -sketch-dir trees -q "..."     # re-run loads the partition tree from disk
//	paql -gen recipes:100000:1 -strategy sketch -q "SELECT PACKAGE(R) AS P FROM recipes R
//	     SUCH THAT COUNT(*) = 5 AND AVG(P.calories) <= 650
//	           AND (MIN(P.protein) >= 5 OR SUM(P.protein) >= 80)
//	     MAXIMIZE SUM(P.protein)"      # full atom grammar stays on the sketch path
//
// SketchRefine covers the full PaQL atom grammar: AVG atoms are
// linearized, MIN/MAX atoms prune partition nodes by how many of their
// leaves' tuples qualify, and disjunctions descend one DNF branch each
// (the result notes report the branch and rewrite counts).
//
// In the REPL, INSERT/DELETE statements between package queries patch
// the cached partition tree in place while its drift since the last full
// build fits the budget, and rebuild it past that; repeat queries over
// unchanged tables skip candidate fingerprint hashing entirely.
//
// With no explicit strategy or knob flags, a rule-based planner picks
// the strategy, partition size, tree depth and parallelism per query
// from the candidate count and the atom mix (exact MILP up to 4,096
// linear candidates, SketchRefine beyond); whether a stale tree is
// patched or rebuilt is decided when the query runs, and the result
// notes say which. Prefix a query with EXPLAIN (or pass -explain) to
// print the decision trail without executing:
//
//	paql -gen recipes:100000:1 -q "EXPLAIN SELECT PACKAGE(R) AS P FROM recipes R
//	     SUCH THAT COUNT(*) = 3 MAXIMIZE SUM(P.protein)"
//
// Lifecycle controls: -timeout sets a per-query soft time budget (the
// best package found so far is returned at expiry), -mem-budget
// refuses queries whose planner-predicted working set exceeds the
// given bytes, and Ctrl-C cancels the in-flight solve cooperatively.
// One-shot runs exit with distinct codes per outcome so scripts can
// branch: 2 provably infeasible, 3 canceled, 4 over budget, 1 other
// errors. The REPL classifies failures identically — each error line
// carries the same outcome label ("paql: budget: ...") the one-shot
// exit code would report — and --help prints the full pairing.
//
// Objective queries come back with a certificate: the result footer
// prints "certified: objective ∈ [bound, found]" with the proven
// relative gap.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	pb "repro"
	"repro/internal/dataset"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, loads the data, and answers
// one query or a REPL session read from stdin, returning the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("paql", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var csvs, gens multiFlag
	flags.Var(&csvs, "csv", "table=path.csv (repeatable)")
	flags.Var(&gens, "gen", "kind:n:seed synthetic table (kinds: recipes, vacation, stocks)")
	query := flags.String("q", "", "PaQL query text")
	file := flags.String("f", "", "file containing the PaQL query")
	var cli cliOpts
	flags.TextVar(&cli.Strategy, "strategy", pb.Auto, "auto | solver | sketch-refine | pruned-enum | local-search")
	flags.IntVar(&cli.Limit, "limit", 0, "number of packages (overrides query LIMIT)")
	flags.BoolVar(&cli.Diverse, "diverse", false, "return diverse packages instead of top-k")
	flags.Int64Var(&cli.Seed, "seed", 1, "randomized strategy seed")
	flags.IntVar(&cli.SketchPartitionSize, "sketch-size", 0, "sketch-refine partition size bound (0 = default)")
	flags.IntVar(&cli.SketchDepth, "sketch-depth", 0, "sketch-refine partition-tree depth (0/1 = flat, >=2 hierarchical)")
	sketchCache := flags.Bool("sketch-cache", true, "cache sketch-refine partition trees across REPL queries (one-shot runs never cache)")
	flags.StringVar(&cli.SketchPersistDir, "sketch-dir", "", "persist sketch-refine partition trees to this directory (cold starts load instead of rebuilding)")
	flags.BoolVar(&cli.explain, "explain", false, "plan the query — print the strategy and knob decisions — without executing it")
	flags.DurationVar(&cli.Timeout, "timeout", 0, "per-query time budget over every package the query, -limit or -diverse asks for; best-effort packages at expiry (0 = none)")
	flags.Int64Var(&cli.MemoryBudget, "mem-budget", 0, "per-query memory budget in bytes, enforced at solve admission (0 = unlimited)")
	flags.Usage = func() {
		fmt.Fprintln(stderr, "usage: paql [flags]")
		flags.PrintDefaults()
		fmt.Fprint(stderr, exitCodeTable)
	}
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cli.SketchNoCache = !*sketchCache
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "paql: "+format+"\n", a...)
		return 1
	}

	sys := pb.New()
	for _, spec := range csvs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fail("bad -csv %q (want table=path.csv)", spec)
		}
		n, err := sys.LoadCSVFile(name, path)
		if err != nil {
			return fail("load %s: %v", spec, err)
		}
		fmt.Fprintf(stderr, "loaded %d rows into %s\n", n, name)
	}
	for _, spec := range gens {
		if err := generate(sys, spec); err != nil {
			return fail("generate %s: %v", spec, err)
		}
	}

	if cli.SketchPersistDir != "" {
		if msg := sys.SweepSketchDir(cli.SketchPersistDir); msg != "" {
			fmt.Fprintf(stderr, "paql: %s\n", msg)
		}
	}

	text := *query
	if *file != "" {
		raw, err := os.ReadFile(*file)
		if err != nil {
			return fail("%v", err)
		}
		text = string(raw)
	}
	if text == "" {
		repl(sys, cli, stdin, stdout, stderr)
		return 0
	}
	// One-shot runs exit after a single query: fingerprinting and
	// storing a partition tree would be pure overhead, and writing tree
	// files to disk as a side effect of a single CLI invocation would
	// surprise. Both stay off — except persistence when the user named
	// a directory with -sketch-dir, which is exactly the ask to reuse
	// the tree across one-shot runs.
	cli.SketchNoCache = true
	// Ctrl-C / SIGTERM cancels the solve cooperatively: partial work is
	// discarded and the process exits with the canceled exit code (3).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	answer := runQuery
	if cli.explain || isExplain(text) {
		answer = runExplain
	}
	if err := answer(ctx, sys, stdout, text, cli); err != nil {
		return reportErr(stderr, err)
	}
	return 0
}

// cliOpts carries the evaluation flags shared by one-shot and REPL use:
// main binds each flag straight into the options record, and every
// query passes it whole (pb.With).
type cliOpts struct {
	pb.Options
	explain bool
}

// runQuery evaluates a PaQL query and prints its packages.
func runQuery(ctx context.Context, sys *pb.System, w io.Writer, text string, cli cliOpts) error {
	res, err := sys.QueryContext(ctx, text, pb.With(cli.Options))
	if err != nil {
		return err
	}
	pb.FormatResult(w, sys, res)
	return nil
}

// exitCodeTable is the one-shot outcome → exit-code pairing appended to
// --help; the REPL prints the same labels on its error lines instead of
// exiting.
const exitCodeTable = `
exit codes (one-shot; REPL error lines carry the same labels):
  0  ok
  1  error       anything not classified below
  2  infeasible  provably no package satisfies the query
  3  canceled    Ctrl-C, or the deadline expired empty-handed
  4  budget      -mem-budget refused the query at admission
  5  internal    the solve failed unexpectedly (recovered panic)
`

// outcome maps an evaluation error onto the CLI's documented outcome
// label and exit code. One-shot runs exit with the code; the REPL
// prints the label and keeps going — one classification for both
// surfaces, so scripts and humans read a single taxonomy.
func outcome(err error) (int, string) {
	switch {
	case errors.Is(err, pb.ErrInfeasible):
		return 2, "infeasible"
	case errors.Is(err, pb.ErrCanceled):
		return 3, "canceled"
	case errors.Is(err, pb.ErrBudgetExceeded):
		return 4, "budget"
	case errors.Is(err, pb.ErrInternal):
		return 5, "internal"
	}
	return 1, "error"
}

// reportErr prints a failed statement's error under its outcome label
// and returns the label's exit code: a one-shot run exits with it, the
// REPL prints the same line and keeps going.
func reportErr(w io.Writer, err error) int {
	code, label := outcome(err)
	fmt.Fprintf(w, "paql: %s: %v\n", label, err)
	return code
}

// isExplain reports whether the statement starts with the EXPLAIN
// keyword (the parser also accepts and strips it).
func isExplain(text string) bool {
	f := strings.Fields(strings.ToUpper(text))
	return len(f) > 0 && f[0] == "EXPLAIN"
}

// runExplain plans the query without executing it and prints the
// planner's decision trail.
func runExplain(ctx context.Context, sys *pb.System, w io.Writer, text string, cli cliOpts) error {
	qp, err := sys.ExplainContext(ctx, text, pb.With(cli.Options))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, qp.Explain())
	return nil
}

func generate(sys *pb.System, spec string) error {
	parts := strings.Split(spec, ":")
	kind := parts[0]
	n := 500
	var seed int64 = 1
	if len(parts) > 1 {
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("bad size %q", parts[1])
		}
		n = v
	}
	if len(parts) > 2 {
		v, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", parts[2])
		}
		seed = v
	}
	switch kind {
	case "recipes":
		return dataset.LoadRecipes(sys.DB(), "recipes", dataset.RecipesConfig{N: n, Seed: seed})
	case "vacation":
		return dataset.LoadVacation(sys.DB(), "items", dataset.VacationConfig{
			Flights: n / 3, Hotels: n / 3, Cars: n - 2*(n/3), Seed: seed})
	case "stocks":
		return dataset.LoadStocks(sys.DB(), "stocks", dataset.StocksConfig{N: n, Seed: seed})
	}
	return fmt.Errorf("unknown kind %q (recipes, vacation, stocks)", kind)
}

// repl reads ';'-terminated statements from in: PaQL (SELECT
// PACKAGE...), EXPLAIN, or SQL.
func repl(sys *pb.System, cli cliOpts, in io.Reader, out, errOut io.Writer) {
	fmt.Fprintln(out, "PackageBuilder REPL — PaQL or SQL, ';' terminated, \\q to quit")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Fprint(out, "paql> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		if strings.TrimSpace(line) == `\q` {
			return
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Fprint(out, "   -> ")
			continue
		}
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
		buf.Reset()
		if stmt != "" {
			if err := execStmt(sys, out, stmt, cli); err != nil {
				reportErr(errOut, err)
			}
		}
		prompt()
	}
}

// execStmt runs one REPL statement, writing its answer to w.
func execStmt(sys *pb.System, w io.Writer, stmt string, cli cliOpts) error {
	// Arm a per-statement signal context: Ctrl-C during a long solve
	// cancels just that query (the REPL prints the error and prompts
	// again); at the prompt the default handler still quits the REPL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if isExplain(stmt) {
		return runExplain(ctx, sys, w, stmt, cli)
	}
	if strings.HasPrefix(strings.ToUpper(stmt), "SELECT PACKAGE") {
		return runQuery(ctx, sys, w, stmt, cli)
	}
	res, err := sys.ExecSQLContext(ctx, stmt)
	if err != nil {
		return err
	}
	res.Format(w)
	return nil
}
