#!/usr/bin/env bash
# Parent-against-change measurement of one workload: the ROADMAP's measuring
# rule as a script.
#
#   ./tests/ab.sh <workload> <parent-rev> [--pairs N] [--seconds S] [--seed-base B]
#                 [--metric wall_s|setup_s|peak_rss_mib]
#
# Unpacks <parent-rev> with `git archive` and builds its `benchmark/` and the
# working tree's, each into its own target directory under a scratch
# directory (set TMPDIR to choose where). Then runs N pairs of `--workload W
# --seed B+i --seconds S --trace 0` (defaults: 10 pairs, 8 s, seeds from
# 1001), one seed per pair, the side that runs first alternating, and prints
# each pair's two readings of `wall_s`, `setup_s` and `peak_rss_mib` with
# their ratios, the judged metric (`--metric`, default `wall_s`) marked `*`.
# Exits 1 if the fingerprint, `sim_work_units` or `finished_pct` differ at a
# seed, or a run failed a check. When `tests/moved.tsv` (a golden move's
# declaration, see tests/moved.sh) is keyed to <parent-rev>, a seed it declares
# is judged against it instead: the change must print exactly the declared
# values. A file keyed to another commit is ignored, as tests/perf_gate.sh
# ignores it.
# Ends with each side's medians and quartiles of `wall_s`, `setup_s` and
# `peak_rss_mib`, how often the change read lower, and the verdict on the
# judged metric: "claim met" when the change reads lower in at least 90 % of
# the pairs and the medians differ by more than the parent's inter-quartile
# distance, otherwise "unresolved". The builds take minutes, so
# `tests/lint.sh` only parses this script.

set -euo pipefail
cd "$(dirname "$0")/.."
usage='usage: tests/ab.sh <workload> <parent-rev> [--pairs N] [--seconds S] [--seed-base B] [--metric wall_s|setup_s|peak_rss_mib]'
workload="${1:?$usage}"
rev="${2:?$usage}"
shift 2
pairs=10 seconds=8 seed_base=1001 metric=wall_s
while (($#)); do
  case "$1" in
    --pairs) pairs="${2:?--pairs needs a value}" ;;
    --seconds) seconds="${2:?--seconds needs a value}" ;;
    --seed-base) seed_base="${2:?--seed-base needs a value}" ;;
    --metric) metric="${2:?--metric needs a value}" ;;
    *) echo "ab: unknown option $1" >&2; echo "$usage" >&2; exit 2 ;;
  esac
  shift 2
done
# The column of the judged metric among the three that are compared.
case "$metric" in
  wall_s) judged=0 ;;
  setup_s) judged=1 ;;
  peak_rss_mib) judged=2 ;;
  *) echo "ab: --metric must be wall_s, setup_s or peak_rss_mib, not $metric" >&2; exit 2 ;;
esac
source tests/moved.sh
moved=tests/moved.tsv
sha="$(git rev-parse "$rev^{commit}")"
# Every offline build rewrites a stale `benchmark/Cargo.lock`, so the lock
# file alone does not make the instrument differ.
git diff --quiet "$rev" -- benchmark BENCHMARK.json ':!benchmark/Cargo.lock' ||
  echo "ab: benchmark/ differs from $rev, so the two sides run different instruments" >&2
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$rev" | tar -x -C "$work/parent"
declare -A tree=([parent]="$work/parent" [change]="$PWD")
for side in parent change; do
  CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
    --manifest-path "${tree[$side]}/benchmark/Cargo.toml"
done

# One run; prints `wall_s`, `setup_s`, `peak_rss_mib`, then what must not
# differ: fingerprint, `sim_work_units`, `finished_pct` and the failed-check
# count, tab-separated.
run() { # side seed
  "$work/target-$1/release/benchmark" --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0 | awk '
      $1 ~ /^(wall_s|setup_s|peak_rss_mib|sim_work_units|finished_pct)$/ { v[$1] = $2 }
      /^# info / { match($0, /"fingerprint":"[^"]*"/); fp = substr($0, RSTART + 15, RLENGTH - 16) }
      /^\{"correct"/ { match($0, /"failed":[0-9]+/); failed = substr($0, RSTART + 9, RLENGTH - 9) }
      END {
        printf "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", v["wall_s"], v["setup_s"], v["peak_rss_mib"],
          fp, v["sim_work_units"], v["finished_pct"], failed
      }'
}

status=0
echo "judged: $metric (marked *)"
printf '%-6s' seed
for _ in 1 2 3; do printf '  %-13s %9s %9s %9s' metric parent change ratio; done
echo
for ((i = 0; i < pairs; i++)); do
  seed=$((seed_base + i))
  if ((i % 2 == 0)); then
    p="$(run parent "$seed")" c="$(run change "$seed")"
  else
    c="$(run change "$seed")" p="$(run parent "$seed")"
  fi
  IFS=$'\t' read -r p_wall p_setup p_rss p_same <<<"$p"
  IFS=$'\t' read -r c_wall c_setup c_rss c_same <<<"$c"
  vals=("$p_wall" "$c_wall" "$p_setup" "$c_setup" "$p_rss" "$c_rss")
  echo "${vals[*]}" >>"$work/pairs"
  awk -v s="$seed" -v judged="$judged" -v vals="${vals[*]}" 'BEGIN {
    split(vals, v, " "); split("wall_s setup_s peak_rss_mib", name, " ")
    printf "%-6s", s
    for (m = 0; m < 3; m++)
      printf "  %-13s %9.4f %9.4f %+7.1f %%", name[m + 1] (m == judged ? "*" : ""),
        v[2 * m + 1], v[2 * m + 2], 100 * (v[2 * m + 2] / v[2 * m + 1] - 1)
    printf "\n"
  }'
  verdict=undeclared
  [[ -f "$moved" ]] && verdict="$(moved_verdict "$moved" "$sha" "$workload" "$seed" "${c_same%$'\t'*}")"
  if [[ "$verdict" != undeclared ]]; then
    if [[ "$verdict" != declared || "${c_same##*$'\t'}" != 0 ]]; then
      printf 'ab: seed %s is not what %s declares (fingerprint, work, finished %%, failed):\n  change %s\n' \
        "$seed" "$moved" "$c_same" >&2
      status=1
    fi
  elif [[ "$p_same" != "$c_same" ]]; then
    printf 'ab: seed %s differs (fingerprint, work, finished %%, failed):\n  parent %s\n  change %s\n' \
      "$seed" "$p_same" "$c_same" >&2
    status=1
  elif [[ "${p_same##*$'\t'}" != 0 ]]; then
    echo "ab: seed $seed failed ${p_same##*$'\t'} checks on both sides" >&2
    status=1
  fi
done
awk -v judged="$judged" '
  function sort(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
  }
  function q(a, n, p,   pos, lo) { # linear interpolation between order statistics
    pos = (n - 1) * p; lo = int(pos)
    return lo + 1 < n ? a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1]) : a[n]
  }
  function column(from, m, to,   i) { for (i = 1; i <= n; i++) to[i] = from[m, i]; sort(to, n) }
  { n++; for (m = 0; m < 3; m++) { p[m, n] = $(2 * m + 1); c[m, n] = $(2 * m + 2); lower[m] += c[m, n] < p[m, n] } }
  END {
    split("wall_s setup_s peak_rss_mib", name, " ")
    for (m = 0; m < 3; m++) {
      column(p, m, a); column(c, m, b)
      printf "%-12s parent %.5g (q1 %.5g, q3 %.5g), change %.5g (q1 %.5g, q3 %.5g): %+.1f %% on the medians, change lower in %d/%d\n",
        name[m + 1], q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75), q(b, n, 0.5), q(b, n, 0.25), q(b, n, 0.75),
        100 * (q(b, n, 0.5) / q(a, n, 0.5) - 1), lower[m], n
      if (m == judged) { gap = q(a, n, 0.5) - q(b, n, 0.5); iqr = q(a, n, 0.75) - q(a, n, 0.25) }
    }
    printf "%s median gap %.4g, parent quartile distance %.4g\n", name[judged + 1], gap, iqr
    print "verdict on " name[judged + 1] ": " (lower[judged] >= 0.9 * n && gap > iqr ? "claim met" : "unresolved")
  }' "$work/pairs"
exit "$status"
