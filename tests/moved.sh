# The exact judge for a declared move; sourced by tests/ab.sh and
# tests/perf_gate.sh, tested by tests/moved_test.sh.
#
# A change that moves a simulated outcome on purpose (a golden move) declares
# the values it moves to in a declaration file, `tests/moved.tsv`. Its first
# line is `parent<TAB><sha>`: the full sha of the commit the change was
# measured against. Each further line is
#
#   workload<TAB>seed<TAB>fingerprint<TAB>sim_work_units<TAB>finished_pct
#
# with the three values exactly as `benchmark --workload W --seed S` prints
# them for the change. A file keyed to any other commit declares nothing, so
# a stale declaration cannot hide a later move.

# moved_verdict FILE SHA WORKLOAD SEED GOT
#   GOT is the change's "fingerprint<TAB>sim_work_units<TAB>finished_pct" at
#   (WORKLOAD, SEED). Prints `declared` when FILE, keyed to SHA, declares
#   exactly GOT for them, `differs` when it declares something else, and
#   `undeclared` when it declares nothing for them.
moved_verdict() {
  awk -F'\t' -v sha="$2" -v w="$3" -v s="$4" -v got="$5" '
    NR == 1 { keyed = $1 == "parent" && $2 == sha; next }
    keyed && $1 == w && $2 == s { row = $3 "\t" $4 "\t" $5; found = 1 }
    END { print !found ? "undeclared" : row == got ? "declared" : "differs" }' "$1"
}

# moved_workloads FILE SHA SEED
#   The workloads FILE, keyed to SHA, declares a row for at SEED, one a line.
moved_workloads() {
  awk -F'\t' -v sha="$2" -v s="$3" '
    NR == 1 { keyed = $1 == "parent" && $2 == sha; next }
    keyed && $2 == s { print $1 }' "$1"
}

# always_worse TABLES [WORKLOAD...]
#   TABLES holds the `benchmark compare` tables of three pairs. Prints each
#   (workload, metric) that is `worse` in all three, fingerprints aside (the
#   determinism suite judges those), and `sim_work_units` / `finished_pct`
#   aside for the WORKLOADs given: their declared rows are judged exactly
#   instead.
always_worse() {
  local tables="$1"
  shift
  awk -v exempt="$*" '
    BEGIN { n = split(exempt, list, " "); for (i = 1; i <= n; i++) skip[list[i]] = 1 }
    NF > 2 && $NF == "worse" && $2 != "fingerprint" &&
      !(($1 in skip) && ($2 == "sim_work_units" || $2 == "finished_pct")) { print $1, $2 }' \
    "$tables" | sort | uniq -c | awk '$1 == 3 { print $2, $3 }'
}
