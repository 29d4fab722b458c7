#!/usr/bin/env bash
# The repository's lint, one script for CI's lint job and the dev
# container: gofmt, go vet, staticcheck when it is installed and
# otherwise the check PRs 19-20 ran by hand in its place — an unexported
# function whose name appears nowhere but in its own declaration is dead
# code — then that the chaos corpus requires exactly the fault sites the
# code checks, that no package under internal/ but lifecycle polls a
# context by hand, that no layer below core takes a duration budget, that
# the expression grammar has one extension, that no forced-rebuild knob
# grows back, nor the anytime mode or its descent stage, that EXPLAIN has
# one door and Stats no copy of a plan field, that minidb's refused
# clauses do not grow back, that expressions are not interpreted per row
# again, that the trace-only surface has not grown, that no tracked
# file but a measurement record is over 1 MB, and the shape of those
# records.
set -euo pipefail
# A step that fails without a message of its own still names itself.
trap 'echo "lint: failed at line $LINENO: $BASH_COMMAND" >&2' ERR
cd "$(dirname "$0")/.."

out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "files need gofmt:" && echo "$out" && exit 1
fi

go vet ./...

if command -v staticcheck > /dev/null; then
  staticcheck ./...
else
  echo "staticcheck not installed: grepping for uncalled unexported functions instead"
  # Every identifier in the tree with its number of occurrences, against
  # the unexported functions and methods the non-test files declare. One
  # occurrence is the declaration itself. main and init are called by
  # the runtime.
  dead=$(
    grep -rhoE --include='*.go' '[A-Za-z_][A-Za-z0-9_]*' . | sort | uniq -c |
      awk 'NR == FNR { seen[$2] = $1; next } seen[$1] < 2 && $1 != "main" && $1 != "init"' - <(
        grep -rhoE --include='*.go' --exclude='*_test.go' '^func (\([^)]*\) )?[a-z][A-Za-z0-9_]*' . |
          sed -E 's/^func (\([^)]*\) )?//' | sort -u
      )
  )
  if [ -n "$dead" ]; then
    echo "unexported functions nothing calls:" && echo "$dead" && exit 1
  fi
fi

# The chaos corpus (TestChaosFaultedCorpus) must require exactly the fault
# sites the code checks: a rung added without a corpus entry goes
# unexercised, and a deleted one leaves the corpus asking for a site
# nothing visits. The sketch.store.fs.* family is registered through
# fault.FSFor, not fault.Check, and the corpus checks it by operation.
sites=$(grep -rhoE --include='*.go' --exclude='*_test.go' 'fault\.Check\("[^"]+"\)' . |
  sed -E 's/^fault\.Check\("(.*)"\)$/\1/' | grep -v '^sketch\.store\.fs\.' | sort -u)
required=$(awk '/required := \[\]string\{/ { on = 1; next } on && /^\t\}/ { exit } on' internal/sketch/chaos_test.go |
  grep -oE '"[^"]+"' | tr -d '"' | grep -v '^sketch\.store\.fs\.' | sort -u)
if [ -z "$sites" ] || [ "$sites" != "$required" ]; then
  echo "fault.Check sites in the code differ from the chaos corpus's required list (< code, > corpus):"
  diff <(echo "$sites") <(echo "$required") || true
  exit 1
fi

# A context has one poll, lifecycle.Poll (one Done() call per poll, nil
# for a nil context), and one wait, lifecycle.Once: a `case <-….Done():`
# or any ctx.Done() / Ctx.Done() reference — a channel kept in a variable
# for a select to read later included — anywhere else under internal/ is a
# second copy growing back.
polls=$(grep -rnE --include='*.go' 'case <-[A-Za-z_.]*Done\(\):|[cC]tx\.Done\(\)' internal | grep -v '^internal/lifecycle/' || true)
if [ -n "$polls" ]; then
  echo "context polls or waits outside internal/lifecycle (call lifecycle.Poll or use lifecycle.Once instead):" && echo "$polls" && exit 1
fi

# A query has one deadline: core fixes the instant once from the user's
# Options.Timeout (internal/core/engine.go), and every solve below it
# reads that instant. A TimeLimit or a `Timeout time.Duration` field
# anywhere else under internal/ is a layer restarting its own clock.
# search.Options keeps its Timeout because the frozen benchmark trace sets
# it; core hands it the time left before the deadline.
budgets=$(grep -rnE --include='*.go' '\bTimeLimit\b|^[[:space:]]*Timeout[[:space:]]+time\.Duration' internal |
  grep -vE '^internal/(core/engine|search/search)\.go:' || true)
if [ -n "$budgets" ]; then
  echo "duration budgets below core (take a deadline, time.Time, instead):" && echo "$budgets" && exit 1
fi

# SQL and PaQL share one expression vocabulary, so the shared grammar has
# one extension: minidb.InstallHook, whose aggregate and sub-query
# productions PaQL installs too. A `PrimaryHook = func` literal anywhere
# else under internal/ is a second dialect growing back.
hooks=$(grep -rnE --include='*.go' 'PrimaryHook[[:space:]]*=[[:space:]]*func' internal | grep -v '^internal/minidb/parser\.go:' || true)
if [ -n "$hooks" ]; then
  echo "grammar hooks outside internal/minidb/parser.go (install minidb.InstallHook instead):" && echo "$hooks" && exit 1
fi

# Tree maintenance has one decider: tree acquisition patches a stale tree
# while its drift fits plan.PatchFits and rebuilds it past that. The
# forced-rebuild knob that used to override it (plan's Forced.Rebuild and
# MaintainRebuild, the -sketch-incr flags, pbserver's sketchIncr field)
# must not grow back, and core.Options.SketchIncremental, kept only as a
# field the frozen benchmark trace sets, is named nowhere outside
# benchmark/ but at its declaration.
knob=$(grep -rnE --include='*.go' --exclude='*_test.go' 'SketchIncremental|Forced\.Rebuild|MaintainRebuild|sketch-incr|sketchIncr' . |
  grep -v '^\./benchmark/' | grep -vE '^\./internal/core/engine\.go:[0-9]+:[[:space:]]*(// )?SketchIncremental[[:space:]]' || true)
if [ -n "$knob" ]; then
  echo "the forced-rebuild knob outside its one vestigial declaration:" && echo "$knob" && exit 1
fi

# The bound pass runs the stage the planner picks. The anytime mode (a
# gap tolerance on every surface, the pipeline's gap target, the sketch
# pre-pass) and the one-level descent stage only it planned must not grow
# back, and bound.StageDescend, plan.BoundDescend1 and
# bound.PipelineOptions.DescendBudget, kept only as names the frozen
# benchmark trace compiles against, are named nowhere outside benchmark/
# but at their declarations.
anytime=$(grep -rnE --include='*.go' --exclude='*_test.go' 'GapTolerance|GapTarget|withinTarget|descendWorst|max-gap|prebound' . |
  grep -v '^\./benchmark/' || true)
descend=$(grep -rnE --include='*.go' --exclude='*_test.go' 'StageDescend|BoundDescend1|DescendBudget' . | grep -v '^\./benchmark/' |
  grep -vE '^\./internal/bound/tighten\.go:[0-9]+:[[:space:]]*(// )?(StageDescend|DescendBudget)[[:space:]]' |
  grep -vE '^\./internal/plan/plan\.go:[0-9]+:[[:space:]]*(// )?BoundDescend1[[:space:]]' || true)
if [ -n "$anytime$descend" ]; then
  echo "the anytime mode or the descent stage outside the trace's vestigial declarations:"
  printf '%s\n' "$anytime" "$descend" | sed '/^$/d' && exit 1
fi

# EXPLAIN has one door: the engine's run answers an EXPLAIN statement
# right after planning, and every front end sends `EXPLAIN …` text down
# its ordinary query path and reads Stats.Plan, the one record of what
# the engine decided. The second doors (the library's Explain and
# ExplainContext, paql's -explain with isExplain and runExplain,
# pbserver's explain field and plannedStrategy key) must not grow back,
# and no Stats field copies a plan field again.
doors=$(grep -rnE --include='*.go' --exclude='*_test.go' 'ExplainContext|runExplain|isExplain|plannedStrategy|PlannedStrategy' . |
  grep -v '^\./benchmark/' || true)
copies=$(grep -rnE --include='*.go' 'Stats\.(RowsScanned|SnapshotHit|Linear|MemoryEstimate)\b' . | grep -v '^\./benchmark/' || true)
if [ -n "$doors$copies" ]; then
  echo "a second EXPLAIN door, or a Stats copy of a plan field (read Stats.Plan instead):"
  printf '%s\n' "$doors" "$copies" | sed '/^$/d' && exit 1
fi

# minidb keeps the grammar its traffic speaks: CREATE TABLE, INSERT,
# DELETE, and SELECT with WHERE, comma joins, global aggregates, scalar
# sub-queries and LIMIT. GROUP BY/HAVING, ORDER BY, DISTINCT, OFFSET,
# JOIN ... ON and derived tables are parse errors that name the clause;
# their statement fields and the operators only they built must not grow
# back in minidb's non-test code.
grammar=$(grep -rnwE --include='*.go' --exclude='*_test.go' \
  'GroupBy|OrderBy|Having|Offset|Distinct|JoinCond|OrderItem|sortOp|distinctOp|valuesOp|filterOp|resolveOrderBy' internal/minidb || true)
if [ -n "$grammar" ]; then
  echo "a refused SQL clause growing back in internal/minidb (it is a parse error by name):" && echo "$grammar" && exit 1
fi

# Evaluation compiles once per scan: expr.Compile and expr.CompileWhere
# build a closure tree that every per-row loop then calls, and each node's
# Eval runs its compiled form. EvalBool, the per-row interpreter entry,
# must not grow back in non-test Go; the interpreter lives on only as the
# oracle in internal/expr's tests.
interp=$(grep -rnw --include='*.go' --exclude='*_test.go' 'EvalBool' . || true)
if [ -n "$interp" ]; then
  echo "the per-row interpreter entry EvalBool outside tests (compile once with expr.CompileWhere instead):" && echo "$interp" && exit 1
fi

# ROADMAP item 17(a): the exported surface that only benchmark/ and
# internal/bench call from outside its package is held to the baseline in
# scripts/trace_only_surface.txt, so no change adds trace-only surface
# unnoticed. The check type-checks both modules with the standard library
# alone; on failure it prints the list as it stands.
go test -count=1 -run '^TestTraceOnlySurface$' ./scripts

# A build product committed by accident (PR 22's 7.7 MB sketch.test) rides
# along in every clone from then on. The measurement records are the one
# kind of large file that belongs in the tree. A tracked file deleted from
# the work tree has no size to check.
big=$(git ls-files -z | while IFS= read -r -d '' f; do
  if [ -f "$f" ] && [[ ! $f =~ ^BENCH_[^/]*\.json$ ]]; then
    size=$(stat -c %s -- "$f")
    if [ "$size" -gt 1048576 ]; then echo "$f ($size bytes)"; fi
  fi
done)
if [ -n "$big" ]; then
  echo "tracked files over 1 MB that are not BENCH_*.json:" && echo "$big" && exit 1
fi

# ROADMAP house rule (i): a PR that claims a number commits its runs. A
# record that does not parse, or lacks what a reader needs to check the
# claim (who against whom, what was claimed, the medians, every run),
# fails here rather than in review.
if command -v jq > /dev/null; then
  for f in BENCH_*.json; do
    jq -e 'has("pr") and has("parent") and has("claim") and has("end_to_end") and has("runs")' "$f" > /dev/null ||
      { echo "$f: not JSON, or missing one of pr, parent, claim, end_to_end, runs"; exit 1; }
  done
else
  echo "jq not installed: BENCH_*.json records not checked"
fi
echo "lint ok"
