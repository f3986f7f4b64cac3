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
# backtrace() per sample, frames outside the executable named by dladdr:
# an exported symbol such as `malloc`, else the object such as
# `libc.so.6`) and `benchmark/` with debug info into a scratch
# directory (set TMPDIR to choose where), runs one `--trace 0` run under the
# shim, and prints the sample and repetition counts and the top 40
# functions (samples, samples per repetition, share) by inclusive
# share (below the workload's entry point) and by self share, inlined frames
# resolved.
#
#   ./tests/profile.sh <workload> ... --focus FRAME
#
# also prints FRAME's inclusive share and how its samples split among its
# nearest named callers and among its callees ("(self)" when FRAME itself
# was running). FRAME names a function by a `::`-separated suffix of its
# path, e.g. `Sim::run_until`; generic arguments are dropped before the
# test (`EventQueue<T>::pop_run_upto` answers to `EventQueue::pop_run_upto`)
# and a trait method `<T as Trait>::f` answers to `T::f`; every function
# with that suffix counts.

set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: tests/profile.sh <workload> [--seed N] [--seconds S] [--focus FRAME]}"
shift
seed=1998 seconds=10 focus=
while (($#)); do
  case "$1" in
    --seed) seed="${2:?--seed needs a value}" ;;
    --seconds) seconds="${2:?--seconds needs a value}" ;;
    --focus) focus="${2:?--focus needs a frame}" ;;
    *) echo "profile: unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done
for tool in cc addr2line; do
  command -v "$tool" >/dev/null || { echo "profile: no $tool on this box, nothing measured"; exit 0; }
done
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/sigprof.so" tests/support/sigprof.c -ldl
CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR="$work/target" cargo build --release \
  --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$work/target/release/benchmark"
info="$(SIGPROF_OUT="$work/stacks" LD_PRELOAD="$work/sigprof.so" \
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | grep '^# info')"
echo "$info"
# The run repeats the workload `reps` times; per-repetition counts compare
# runs of different lengths.
reps="$(sed -E 's/.*"reps":([0-9]+).*/\1/' <<<"$info")"

# addr2line -a prints each address, then (function, file:line) pairs:
# innermost inlined frame first, the enclosing function last. Only the
# executable's offsets go through it; an `@name` frame is named already.
tr ' ' '\n' <"$work/stacks" | { grep -E '^[0-9a-f]+$' || true; } | sort -u >"$work/addrs"
addr2line -a -i -f -C -e "$bin" <"$work/addrs" >"$work/symbols"
awk -v reps="$reps" -v focus="$focus" '
  # A function path ending in `focus` at a `::` boundary (or equal to it).
  function ends_in_focus(n) {
    return n == focus || substr(n, length(n) - length(focus) - 1) == "::" focus
  }
  # The path without generic arguments: innermost `<...>` groups go until
  # none is left, except a `<T as Trait>` group, which is kept.
  function strip_generics(n,    g) {
    while (match(n, /<[^<>]*>/)) {
      g = substr(n, RSTART, RLENGTH)
      g = index(g, " as ") ? "\001" substr(g, 2, RLENGTH - 2) "\002" : ""
      n = substr(n, 1, RSTART - 1) g substr(n, RSTART + RLENGTH)
    }
    gsub(/\001/, "<", n); gsub(/\002/, ">", n)
    return n
  }
  # A generic `T<A>::f` also answers to `T::f`, and a trait method
  # `<T as Trait>::f` to `T::f`. Memoised: it runs for every frame.
  function is_focus(n,    bare, plain) {
    if (n in focus_memo) return focus_memo[n]
    bare = plain = strip_generics(n)
    if (match(bare, /^<[^ <>]+ as [^<>]+>::/))
      plain = substr(bare, 2, index(bare, " as ") - 2) "::" substr(bare, RLENGTH + 1)
    return focus_memo[n] = ends_in_focus(n) || ends_in_focus(bare) || ends_in_focus(plain)
  }
  pass == 1 { addr[++known] = $0; next }
  pass == 2 && /^0x[0-9a-f]+$/ { at = addr[++seen_addrs]; odd = 0; next }
  pass == 2 { if (odd = !odd) { sub(/::h[0-9a-f]+$/, ""); names[at] = names[at] $0 "\n" } next }
  NF {
    samples++
    for (f = 1; f <= NF; f++) if (!($f in names) && substr($f, 1, 1) == "@") names[$f] = substr($f, 2) "\n"
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
    if (focus == "") next
    # The stack as one name per (inlined) frame, innermost first. The
    # focus must sit below the workload entry point, like an inclusive
    # share; its caller may be the entry point itself.
    depth = inner = outer = 0
    for (f = 1; f <= NF; f++) {
      inlined = split(names[$f], name, "\n") - 1
      for (j = 1; j <= inlined; j++) {
        seq[++depth] = name[j]
        if (f <= below && is_focus(name[j])) { if (!inner) inner = depth; outer = depth }
      }
    }
    if (!inner) next
    focused++
    # Callee: the frame just inside the innermost occurrence (recursion
    # counts once). Caller: the first named frame outside the outermost.
    callees[inner > 1 ? seq[inner - 1] : "(self)"]++
    caller = "(none)"
    for (d = outer + 1; d <= depth; d++) if (seq[d] != "??" && !is_focus(seq[d])) { caller = seq[d]; break }
    callers[caller]++
  }
  END {
    for (n in incl) printf "inclusive\t%d\t%.1f\t%.1f %%\t%s\n", incl[n], incl[n] / reps, 100 * incl[n] / samples, n
    for (n in self) printf "self\t%d\t%.1f\t%.1f %%\t%s\n", self[n], self[n] / reps, 100 * self[n] / samples, n
    if (focus == "") exit
    printf "focus\t%d\t%.1f\t%.1f %%\n", focused, focused / reps, 100 * focused / samples
    for (n in callers) printf "callers\t%d\t%.1f\t%.1f %%\t%s\n", callers[n], callers[n] / reps, 100 * callers[n] / focused, n
    for (n in callees) printf "callees\t%d\t%.1f\t%.1f %%\t%s\n", callees[n], callees[n] / reps, 100 * callees[n] / focused, n
  }
' pass=1 "$work/addrs" pass=2 "$work/symbols" pass=3 "$work/stacks" >"$work/shares"
samples="$(grep -c . "$work/stacks")"
echo "$samples samples over $reps repetitions ($((samples / reps)) per repetition), $workload seed $seed (?? = unresolved)"
# `awk 'NR <= 40'` reads its whole input; `head -n 40` closes the pipe early
# and, under pipefail, a `sort` still writing dies of SIGPIPE (exit 141).
for kind in inclusive self; do
  echo "== top $kind shares: samples, per repetition, share, function"
  grep "^$kind" "$work/shares" | sort -t "$(printf '\t')" -k2,2nr | awk 'NR <= 40' | cut -f2-
done
[[ -n $focus ]] || exit 0
IFS=$'\t' read -r _ held per share < <(grep '^focus' "$work/shares")
echo "== focus $focus: $held samples, $per per repetition, $share inclusive"
for side in callers callees; do
  echo "== focus $side: samples, per repetition, share of the focus, function"
  # `|| true`: a frame no sample holds has no rows, and grep exits 1.
  { grep "^$side" "$work/shares" || true; } | sort -t "$(printf '\t')" -k2,2nr | awk 'NR <= 20' | cut -f2-
done
