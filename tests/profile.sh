#!/usr/bin/env bash
# Sampling profile of one workload of the unchanged `benchmark/`: the
# instrument behind "profile before sizing" (ROADMAP working rules, DESIGN
# §7.4). Needs `cc` and `addr2line`; with either missing it says so and
# exits 0. `tests/lint.sh` runs it on `bulk_flow` for one second and checks
# the exit status and both tables.
#
#   ./tests/profile.sh <workload> [--seed N] [--seconds S]
#
# Builds tests/support/sigprof.c (SIGPROF every 1 ms of CPU time,
# backtrace() per sample) and `benchmark/` with debug info into a scratch
# directory (set TMPDIR to choose where), runs one `--trace 0` run under the
# shim, and prints the sample count and the top 40 functions by inclusive
# share (below the workload's entry point) and by self share, inlined frames
# resolved.

set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: tests/profile.sh <workload> [--seed N] [--seconds S]}"
shift
seed=1998 seconds=10
while (($#)); do
  case "$1" in
    --seed) seed="${2:?--seed needs a value}" ;;
    --seconds) seconds="${2:?--seconds needs a value}" ;;
    *) echo "profile: unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done
for tool in cc addr2line; do
  command -v "$tool" >/dev/null || { echo "profile: no $tool on this box, nothing measured"; exit 0; }
done
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/sigprof.so" tests/support/sigprof.c
CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR="$work/target" cargo build --release \
  --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$work/target/release/benchmark"
SIGPROF_OUT="$work/stacks" LD_PRELOAD="$work/sigprof.so" \
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | grep '^# info'

# addr2line -a prints each address, then (function, file:line) pairs:
# innermost inlined frame first, the enclosing function last.
tr ' ' '\n' <"$work/stacks" | grep . | sort -u >"$work/addrs"
addr2line -a -i -f -C -e "$bin" <"$work/addrs" >"$work/symbols"
awk '
  pass == 1 { addr[++known] = $0; next }
  pass == 2 && /^0x[0-9a-f]+$/ { at = addr[++seen_addrs]; odd = 0; next }
  pass == 2 { if (odd = !odd) { sub(/::h[0-9a-f]+$/, ""); names[at] = names[at] $0 "\n" } next }
  NF {
    samples++
    split("", counted)
    # Inclusive shares are taken below the workload entry point: the frames
    # from `benchmark::workloads::*` outward (`_start`, `lang_start`,
    # `catch_unwind`, ...) hold ~100 % each and say nothing.
    below = NF
    for (f = NF; f >= 1; f--) if (names[$f] ~ /(^|\n)benchmark::workloads::/) { below = f - 1; break }
    if (split(names[$1], name, "\n") > 1) self[name[1]]++
    for (f = 1; f <= below; f++) {
      inlined = split(names[$f], name, "\n") - 1
      for (j = 1; j <= inlined; j++)
        if (name[j] != "??" && !(name[j] in counted)) { counted[name[j]]; incl[name[j]]++ }
    }
  }
  END {
    for (n in incl) printf "inclusive\t%d\t%.1f %%\t%s\n", incl[n], 100 * incl[n] / samples, n
    for (n in self) printf "self\t%d\t%.1f %%\t%s\n", self[n], 100 * self[n] / samples, n
  }
' pass=1 "$work/addrs" pass=2 "$work/symbols" pass=3 "$work/stacks" >"$work/shares"
echo "$(grep -c . "$work/stacks") samples, $workload seed $seed (?? = outside the executable)"
# `awk 'NR <= 40'` reads its whole input; `head -n 40` closes the pipe early
# and, under pipefail, a `sort` still writing dies of SIGPIPE (exit 141).
for kind in inclusive self; do
  echo "== top $kind shares: samples, share, function"
  grep "^$kind" "$work/shares" | sort -t "$(printf '\t')" -k2,2nr | awk 'NR <= 40' | cut -f2-
done
