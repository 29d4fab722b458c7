#!/usr/bin/env bash
# The coverage census and its floor, for CI's coverage job.
#
#   bash scripts/coverage.sh [check|write] [profile]
#   bash scripts/coverage.sh traffic
#
# The census is `go test -count=1 -coverpkg=./... ./...`: a statement
# counts as reached when the tests of any package reach it, so a CLI's
# in-process tests count for the engine code they drive. Given a profile
# written that way, the script reads it instead of running the census.
#
# check (the default) compares each package's statement coverage with
# the record in scripts/coverage.txt and fails when a package is more
# than one point below its recorded share and the last line of
# CHANGES.md — the line the change appends — does not name the package
# (e.g. internal/sketch, or packagebuilder for the root package). write
# rewrites the record from the census.
#
# traffic runs the census one package's tests at a time and prints, per
# package, the share of its statements that the tests of other packages
# reach: code only its own tests reach is code no caller drives. It
# reports and never fails on a share; CI does not run it.
set -euo pipefail
trap 'echo "coverage: failed at line $LINENO: $BASH_COMMAND" >&2' ERR
cd "$(dirname "$0")/.."

mode=${1:-check}
profile=${2:-}
record=scripts/coverage.txt
case $mode in
check | write) ;;
traffic)
  dir=$(mktemp -d)
  trap 'rm -rf "$dir"' EXIT
  # One profile per test binary, each line tagged with the package whose
  # tests wrote it.
  go list ./... | while read -r pkg; do
    out="$dir/$(tr / _ <<<"$pkg").out"
    go test -count=1 -coverpkg=./... -coverprofile="$out" "$pkg" > /dev/null
    [ -f "$out" ] || continue # no test files
    awk -v p="$pkg" 'NR > 1 { print p, $0 }' "$out" >> "$dir/all"
  done
  awk '
    {
      n[$2] = $3
      pkg = $2; sub(/:.*/, "", pkg); sub(/\/[^\/]*$/, "", pkg); owner[$2] = pkg
      if ($4 > 0 && $1 != pkg) other[$2] = 1
    }
    END {
      for (b in n) {
        total[owner[b]] += n[b]; all += n[b]
        if (b in other) { reached[owner[b]] += n[b]; hit += n[b] }
      }
      for (p in total) printf "%s %.1f%% (%d of %d statements)\n", p, 100 * reached[p] / total[p], reached[p], total[p]
      printf "module %.1f%% (%d of %d statements)\n", 100 * hit / all, hit, all
    }' "$dir/all" | sort
  exit 0
  ;;
*)
  echo "usage: bash scripts/coverage.sh [check|write] [profile] | traffic" >&2
  exit 2
  ;;
esac
if [ -z "$profile" ]; then
  profile=$(mktemp)
  trap 'rm -f "$profile"' EXIT
  go test -count=1 -coverpkg=./... -coverprofile="$profile" ./... > /dev/null
fi

# One line per package: import path, then the share of its statements
# reached. Each test binary writes every block of the module once, so a
# block is reached when any of its lines counts above zero.
census=$(awk '
  NR > 1 { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
  END {
    for (b in n) {
      pkg = b; sub(/:.*/, "", pkg); sub(/\/[^\/]*$/, "", pkg)
      total[pkg] += n[b]; if (b in hit) reached[pkg] += n[b]
    }
    for (p in total) printf "%s %.1f\n", p, 100 * reached[p] / total[p]
  }' "$profile" | sort)

case $mode in
write)
  {
    echo "# Statement coverage per package under the census (scripts/coverage.sh)."
    echo "$census"
  } > "$record"
  echo "wrote $record"
  ;;
check)
  named=$(grep -v '^[[:space:]]*$' CHANGES.md | tail -n 1)
  fail=0
  while read -r pkg floor; do
    now=$(awk -v p="$pkg" '$1 == p { print $2 }' <<<"$census")
    [ -n "$now" ] || continue # a package the change deleted
    if awk -v n="$now" -v f="$floor" 'BEGIN { exit (n + 1 >= f) ? 0 : 1 }'; then
      continue
    fi
    short=${pkg#repro/}
    [ "$short" != repro ] || short=packagebuilder # the root package
    if grep -qF -- "$short" <<<"$named"; then
      echo "$short: ${now}% against ${floor}% recorded; CHANGES.md names it"
    else
      echo "$short: ${now}% against ${floor}% recorded, and the last CHANGES.md line does not name it"
      fail=1
    fi
  done < <(grep -v '^#' "$record")
  [ "$fail" = 0 ] && echo "coverage ok"
  exit "$fail"
  ;;
esac
