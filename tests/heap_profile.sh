#!/usr/bin/env bash
# Heap profile of one workload of the unchanged `benchmark/`: the
# per-holder instrument behind `peak_rss_mib` (DESIGN "Telemetry memory"),
# beside tests/profile.sh and built the same way. Needs `cc` and
# `addr2line`; with either missing it says so and exits 0. `tests/lint.sh`
# runs it on `bulk_flow` for one second and checks the exit status and all
# three tables.
#
#   ./tests/heap_profile.sh <workload> [--seed N] [--seconds S]
#
# Builds tests/support/heapprof.c (an LD_PRELOAD shim over malloc, calloc,
# realloc and free that sizes blocks with malloc_usable_size) and
# `benchmark/` with debug info into a scratch directory (set TMPDIR to
# choose where), runs one `--trace 0` run under the shim, and prints the
# peak live heap, the live bytes by block size at the peak, and for blocks
# of 512 B or more (usable size, as malloc rounds it; low enough to reach
# the forecaster blocks) the 20 call sites (the innermost frame outside the
# allocator, so every stack through one function is one row) and the 40
# stacks that held most at the peak, inlined frames resolved.

set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: tests/heap_profile.sh <workload> [--seed N] [--seconds S]}"
shift
seed=1998 seconds=10
while (($#)); do
  case "$1" in
    --seed) seed="${2:?--seed needs a value}" ;;
    --seconds) seconds="${2:?--seconds needs a value}" ;;
    *) echo "heap_profile: unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done
for tool in cc addr2line; do
  command -v "$tool" >/dev/null || { echo "heap_profile: no $tool on this box, nothing measured"; exit 0; }
done
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/heapprof.so" tests/support/heapprof.c
CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR="$work/target" cargo build --release \
  --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$work/target/release/benchmark"
HEAPPROF_OUT="$work/heap" LD_PRELOAD="$work/heapprof.so" \
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | grep '^# info'

# addr2line -a prints each address, then (function, file:line) pairs:
# innermost inlined frame first, the enclosing function last.
awk '$1 == "site" { for (f = 5; f <= NF; f++) if ($f != "0") print "0x" $f }' "$work/heap" \
  | sort -u >"$work/addrs"
if [[ -s "$work/addrs" ]]; then
  addr2line -a -i -f -C -e "$bin" <"$work/addrs" >"$work/symbols"
else
  : >"$work/symbols"
fi
awk '
  function size(b) {
    if (b >= 1048576) return sprintf("%.1f MiB", b / 1048576)
    if (b >= 1024) return sprintf("%.1f KiB", b / 1024)
    return sprintf("%d B", b)
  }
  pass == 1 && /^0x[0-9a-f]+$/ { sub(/^0x0*/, ""); at = $0; odd = 0; next }
  pass == 1 { if (odd = !odd) { sub(/::h[0-9a-f]+$/, ""); names[at] = names[at] $0 "\n" } next }
  $1 == "peak" { peak = $2; next }
  $1 == "table" { table = $2; next }
  $1 == "untracked" { untracked = $2; next }
  $1 == "class" { classes[++n_classes] = $0; next }
  $1 == "site" {
    # The call site: the first few frames outside the allocator plumbing
    # (`hashbrown` is the table inside a std `HashMap`; `<T as
    # alloc::...>::f` is a std trait impl, such as the `from_elem` behind
    # `vec!`).
    site = ""; shown = 0
    for (f = 5; f <= NF && shown < 4; f++) {
      k = $f; sub(/^0*/, "", k)
      inlined = split(names[k], name, "\n") - 1
      for (j = 1; j <= inlined && shown < 4; j++) {
        if (name[j] ~ /^(<?(alloc|core|std|hashbrown)::|<[^ ]+ as (alloc|core|std)::|__rust|__rdl|__rg_|\?\?)/) continue
        site = site (shown++ ? " < " : "") name[j]
      }
    }
    if (site == "") site = "??"
    sites[++n_sites] = sprintf("%d\t%d\t%d\t%s\t%s\t%s", $4, $3, $2, size($3), size($4), site)
    caller = site; sub(/ < .*/, "", caller)
    caller_live[caller] += $4; caller_stacks[caller]++
  }
  END {
    printf "peak live heap %s (%d B); tables taken at %s, within 64 KiB of it\n", size(peak), peak, size(table)
    if (untracked) printf "warning: %d blocks of 512 B or more found the shim'"'"'s tables full; the call-site tables undercount\n", untracked
    print "== live bytes by block size at the peak: size, blocks, bytes, share"
    for (i = 1; i <= n_classes; i++) {
      split(classes[i], c, " ")
      printf "[%s, %s)\t%d\t%d\t%.1f %%\n", size(2 ^ c[2]), size(2 ^ (c[2] + 1)), c[3], c[4], 100 * c[4] / table
    }
    # `awk NR <= k` reads all its input; `head` would close the pipe early
    # and a `sort` still writing would die of SIGPIPE.
    print "== live bytes at the peak by call site (blocks of 512 B or more): live, share, stacks, call site"
    if (!n_sites) print "(none)"
    fflush()
    by_live = "sort -t \"\t\" -k1,1nr | awk \"NR <= 20\" | cut -f2-"
    for (who in caller_live)
      printf "%d\t%s\t%.1f %%\t%d\t%s\n", caller_live[who], size(caller_live[who]), 100 * caller_live[who] / table, caller_stacks[who], who | by_live
    close(by_live)
    print "== allocation stacks of 512 B or more: allocations, largest, live at the peak, call site"
    if (!n_sites) print "(none)"
    # Largest holders at the peak first, then the largest blocks.
    fflush()
    by_live = "sort -t \"\t\" -k1,1nr -k2,2nr | awk \"NR <= 40\" | cut -f3-"
    for (i = 1; i <= n_sites; i++) print sites[i] | by_live
    close(by_live)
  }
' pass=1 "$work/symbols" pass=2 "$work/heap"
