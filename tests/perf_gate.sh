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
# CI runs this script verbatim.

set -euo pipefail
cd "$(dirname "$0")/.."
base_sha="${1:?usage: tests/perf_gate.sh <base-sha>}"
work="$(mktemp -d)"
trap 'git worktree remove --force "$work/base" 2>/dev/null; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/base" "$base_sha"
declare -A tree=([base]="$work/base" [head]="$PWD")
for side in base head; do
  CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
    --manifest-path "${tree[$side]}/benchmark/Cargo.toml"
done
run() { # side pair
  "$work/target-$1/release/benchmark" all --seconds 5 >/dev/null
  cp "${tree[$1]}/benchmark/out/results.json" "$work/$1.$2.json"
}
for pair in 1 2 3; do
  if ((pair % 2)); then run base $pair; run head $pair; else run head $pair; run base $pair; fi
  echo "== pair $pair of 3 (A = $base_sha, B = working tree)"
  "$work/target-head/release/benchmark" compare "$work/base.$pair.json" "$work/head.$pair.json" |
    tee -a "$work/tables.txt" || true
done
always="$(awk 'NF > 2 && $NF == "worse" && $2 != "fingerprint" { print $1, $2 }' "$work/tables.txt" |
  sort | uniq -c | awk '$1 == 3 { print $2, $3 }')"
[ -z "$always" ] && { echo "perf gate: OK (nothing worse in all three pairs)"; exit 0; }
echo "perf gate: worse in all three pairs:"; echo "$always"; exit 1
