#!/usr/bin/env bash
# The repository's lint, one script for CI's lint job and the dev
# container: gofmt, go vet, staticcheck when it is installed and
# otherwise the check PRs 19-20 ran by hand in its place — an unexported
# function whose name appears nowhere but in its own declaration is dead
# code — then that the chaos corpus requires exactly the fault sites the
# code checks, that the trace-only surface has not grown, that no tracked
# file but a measurement record is over 1 MB, and the shape of those
# records.
set -euo pipefail
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

# ROADMAP item 17(a): the exported surface that only benchmark/ and
# internal/bench call from outside its package is held to the baseline in
# scripts/trace_only_surface.txt, so no change adds trace-only surface
# unnoticed. The check type-checks both modules with the standard library
# alone; on failure it prints the list as it stands.
go test -count=1 -run '^TestTraceOnlySurface$' ./scripts

# A build product committed by accident (PR 22's 7.7 MB sketch.test) rides
# along in every clone from then on. The measurement records are the one
# kind of large file that belongs in the tree.
big=$(git ls-files -z | xargs -0 -r ls -l 2> /dev/null |
  awk '$5 > 1048576 && $NF !~ /^BENCH_[^\/]*\.json$/ { print $NF " (" $5 " bytes)" }')
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
