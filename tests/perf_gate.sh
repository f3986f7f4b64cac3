#!/usr/bin/env bash
# Perf gate: the unchanged `benchmark all --seconds 5`, base against head,
# on this machine, minutes apart. No committed baseline and no floor file.
#
#   ./tests/perf_gate.sh <base-sha>
#
# Three alternating base/head pairs, each judged by `benchmark compare`.
# Exit 1 only if some (workload, end-to-end metric) is `worse` in every
# pair: a shared host moves wall_s by 50 % in bursts, so one pair alone
# flags an A/A run (EXPERIMENTS.md, "CI perf gate"). Fingerprint drift is
# printed but is the determinism suite's verdict, not this script's.
# A golden move is declared in `tests/moved.tsv` (format in tests/moved.sh).
# When that file is keyed to <base-sha>, each workload it declares at seed
# 1998 must print exactly the declared fingerprint, `sim_work_units` and
# `finished_pct` in every pair (exit 1 otherwise), and those two metrics of
# those workloads are not read as `worse`. Any other `worse` row still
# counts. A file keyed to another commit is ignored.
# CI runs this script verbatim.

set -euo pipefail
cd "$(dirname "$0")/.."
base_sha="${1:?usage: tests/perf_gate.sh <base-sha>}"
source tests/moved.sh
moved=tests/moved.tsv
base="$(git rev-parse "$base_sha^{commit}")"
declared=()
[ -f "$moved" ] && mapfile -t declared < <(moved_workloads "$moved" "$base" 1998)
echo "declared moves at seed 1998: ${declared[*]:-none}"
work="$(mktemp -d)"
trap 'git worktree remove --force "$work/base" 2>/dev/null; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/base" "$base_sha"
declare -A tree=([base]="$work/base" [head]="$PWD")
for side in base head; do
  CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
    --manifest-path "${tree[$side]}/benchmark/Cargo.toml"
done
run() { # side pair
  "$work/target-$1/release/benchmark" all --seed 1998 --seconds 5 >"$work/$1.$2.out"
  cp "${tree[$1]}/benchmark/out/results.json" "$work/$1.$2.json"
}
moved_ok=1
# Each declared workload's end-to-end section of one head run, judged exactly.
check_declared() { # pair
  local w got verdict
  for w in "${declared[@]}"; do
    got="$(awk -v w="$w" '
      /^== / { on = $0 == "== " w ": end to end (tracing off)"; next }
      on && $1 ~ /^(sim_work_units|finished_pct)$/ { v[$1] = $2 }
      on && /^# info / { match($0, /"fingerprint":"[^"]*"/); fp = substr($0, RSTART + 15, RLENGTH - 16) }
      END { printf "%s\t%s\t%s", fp, v["sim_work_units"], v["finished_pct"] }' "$work/head.$1.out")"
    verdict="$(moved_verdict "$moved" "$base" "$w" 1998 "$got")"
    echo "$w: $verdict in pair $1"
    [ "$verdict" = declared ] || moved_ok=0
  done
}
for pair in 1 2 3; do
  if ((pair % 2)); then run base $pair; run head $pair; else run head $pair; run base $pair; fi
  echo "== pair $pair of 3 (A = $base_sha, B = working tree)"
  "$work/target-head/release/benchmark" compare "$work/base.$pair.json" "$work/head.$pair.json" |
    tee -a "$work/tables.txt" || true
  check_declared $pair
done
always="$(always_worse "$work/tables.txt" "${declared[@]}")"
((moved_ok)) || { echo "perf gate: a declared workload is not what $moved declares"; exit 1; }
[ -z "$always" ] && { echo "perf gate: OK (nothing worse in all three pairs)"; exit 0; }
echo "perf gate: worse in all three pairs:"; echo "$always"; exit 1
