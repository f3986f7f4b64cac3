#!/usr/bin/env bash
# Tests of the exact judge in tests/moved.sh, on made-up declarations and
# `benchmark compare` tables (no build, well under a second). tests/lint.sh
# runs it.
#
#   ./tests/moved_test.sh

set -euo pipefail
cd "$(dirname "$0")/.."
source tests/moved.sh
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
failures=0
expect() { # what got
  if [[ "$1" != "$2" ]]; then
    printf 'moved_test: expected %q, got %q\n' "$1" "$2" >&2
    failures=$((failures + 1))
  fi
}

parent=1111111111111111111111111111111111111111
printf 'parent\t%s\n' "$parent" >"$work/moved.tsv"
printf 'sc98_12h\t1998\tevents=5 units=4\t93848.527\t75.166136\n' >>"$work/moved.tsv"
printf 'mega_rpc\t1998\tevents=9 units=2\t100\t100\n' >>"$work/moved.tsv"
row=$'events=5 units=4\t93848.527\t75.166136'

# The declared values pass; any other value fails.
expect declared "$(moved_verdict "$work/moved.tsv" "$parent" sc98_12h 1998 "$row")"
expect differs "$(moved_verdict "$work/moved.tsv" "$parent" sc98_12h 1998 "${row%75.166136}75.166137")"
expect differs "$(moved_verdict "$work/moved.tsv" "$parent" sc98_12h 1998 "${row/events=5/events=6}")"
# A seed, workload or parent the file does not declare is judged as before.
expect undeclared "$(moved_verdict "$work/moved.tsv" "$parent" sc98_12h 1999 "$row")"
expect undeclared "$(moved_verdict "$work/moved.tsv" "$parent" bulk_flow 1998 "$row")"
expect undeclared "$(moved_verdict "$work/moved.tsv" 2222222222222222222222222222222222222222 sc98_12h 1998 "$row")"
expect $'sc98_12h\nmega_rpc' "$(moved_workloads "$work/moved.tsv" "$parent" 1998)"
expect "" "$(moved_workloads "$work/moved.tsv" 2222222222222222222222222222222222222222 1998)"

# Three pairs of compare rows: an A/A run has nothing worse in all three.
table() { # finished_pct verdict, wall_s verdict
  printf '%-12s %-16s %14s %14s %9s %7s  %s\n' \
    sc98_12h finished_pct 75.166136 75.166136 +0.00% exact "$1" \
    sc98_12h wall_s 1.5 1.6 +6.67% 25% "$2" \
    sc98_12h fingerprint "" differs "" "" worse
}
for pair in 1 2 3; do table same same; done >"$work/aa.txt"
expect "" "$(always_worse "$work/aa.txt")"
expect "" "$(always_worse "$work/aa.txt" sc98_12h)"
# A lower finished_pct in all three pairs is worse unless it is declared;
# a declaration exempts no other metric.
for pair in 1 2 3; do table worse worse; done >"$work/moved.txt"
expect $'sc98_12h finished_pct\nsc98_12h wall_s' "$(always_worse "$work/moved.txt")"
expect "sc98_12h wall_s" "$(always_worse "$work/moved.txt" mega_rpc sc98_12h)"
# Worse in two pairs of three is noise.
{ table worse worse; table same same; table worse worse; } >"$work/two.txt"
expect "" "$(always_worse "$work/two.txt")"

((failures == 0)) || exit 1
echo "moved_test: OK"
