#!/usr/bin/env bash
# Lint gate: formatting and clippy, both offline-friendly.
#
#   ./tests/lint.sh
#
# Everything runs with --offline where cargo accepts it; the workspace
# vendors its own registry stand-ins (crates/compat), so no step needs
# the network. CI runs this script verbatim.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The application contract is the API other crates build on; gate it
# explicitly so a workspace-level exclusion can never silently drop it.
echo "== cargo clippy -p ew-workload (warnings are errors)"
cargo clippy -p ew-workload --all-targets --offline -- -D warnings

# A SipHash map on a simulator-side hot path is a perf bug no compiler
# warning reports (the Ramsey tabu map was 41 % of real_search for 19 PRs).
echo "== no SipHash collections in the simulator-side crates"
if grep -rnE 'collections::(\{[^}]*)?Hash(Map|Set)' \
    crates/{sim,proto,forecast,sched,ramsey}/src \
    | grep -vE '^crates/(sim/src/hashers\.rs|proto/src/tcp\.rs):'; then
    # Allowlist: hashers.rs defines the alias; tcp.rs keys by real socket
    # addresses (outside input keeps SipHash's collision resistance).
    echo "error: use ew_sim::hashers::FxHashMap, or a dense index when the" >&2
    echo "       key is a small integer (see ew-ramsey's tenure table)" >&2
    exit 1
fi

# One client-side RPC stack: services embed ew_proto::RpcClient, never its
# parts (two private copies of tracker + policy + retry layer + deferred
# queue lived beside the "unified" layer from PR 3 to PR 20).
echo "== the retry layer is embedded only through RpcClient"
if grep -rnE 'AdaptiveRetry|begin_capped' crates/*/src | grep -v '^crates/proto/src/'; then
    echo "error: use ew_proto::RpcClient; it owns time-out, retry budget," >&2
    echo "       breaker and deferred resends" >&2
    exit 1
fi

# Nothing ships without a caller: a pub item or a source file whose only
# reader is its own unit tests fails (framework.rs sat unused for twenty
# PRs, the Globus service model for twenty-one). Also part of `cargo test`.
echo "== every pub item and source file under crates/*/src has a caller"
cargo test -q --offline -p ew-bench --test public_surface

# The profiler is run, not only parsed: `bash -n` passed a script that
# exited 141 (pipefail + `sort | head`) twice in a dozen runs. ~2 min, most
# of it the debug-info build of `benchmark/`; without `cc` or `addr2line`
# the script says so and exits 0, and so does this step.
echo "== tests/profile.sh bulk_flow --seconds 1 exits 0 and prints both tables"
bash -n tests/profile.sh
profile="$(tests/profile.sh bulk_flow --seconds 1)" || {
    echo "error: tests/profile.sh exited $?" >&2
    exit 1
}
if grep -q '^profile: no .* on this box' <<<"$profile"; then
    echo "$profile"
elif ! grep -q '^== top inclusive' <<<"$profile" || ! grep -q '^== top self' <<<"$profile"; then
    echo "error: tests/profile.sh printed no inclusive or no self table:" >&2
    echo "$profile" >&2
    exit 1
fi

echo "lint gate: OK"
