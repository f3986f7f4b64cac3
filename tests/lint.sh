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

# Broken intra-doc links are errors: a link to a deleted or private name
# reads as a live reference until someone follows it.
echo "== cargo doc --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# A SipHash map on a simulator-side hot path is a perf bug no compiler
# warning reports (the Ramsey tabu map was 41 % of real_search for 19 PRs).
echo "== no SipHash collections under crates/*/src"
if grep -rnE 'collections::(\{[^}]*)?Hash(Map|Set)' crates/*/src \
    | grep -vE '^crates/(compat/|sim/src/hashers\.rs|proto/src/tcp\.rs|telemetry/src/registry\.rs):'; then
    # Allowlist: hashers.rs defines the alias; tcp.rs keys by real socket
    # addresses (outside input keeps SipHash's collision resistance);
    # registry.rs keys its name index by metric name below ew-sim, which
    # it cannot depend on, and is hashed when a name is interned or looked
    # up by name, not when a value is recorded.
    echo "error: use ew_sim::hashers::FxHashMap, or a dense index when the" >&2
    echo "       key is a small integer (see ew-ramsey's tenure table)" >&2
    exit 1
fi

# One client-side RPC stack: services embed ew_proto::RpcClient, never its
# parts (two private copies of tracker + policy + retry layer + deferred
# queue lived beside the "unified" layer from PR 3 to PR 20).
echo "== the retry layer is embedded only through RpcClient"
if grep -rnE 'AdaptiveRetry|begin_capped|RpcTracker' crates/*/src | grep -v '^crates/proto/src/'; then
    echo "error: use ew_proto::RpcClient; it owns correlation, time-out," >&2
    echo "       retry budget, breaker and deferred resends" >&2
    exit 1
fi

# One Ramsey evaluation path: SearchState owns its DeltaTable (a naive arm
# with its own constructor, `None` branches and a hit-rate ledger once sat
# beside the table, long after only tests selected it).
echo "== the Ramsey search evaluates flips only through its DeltaTable"
if grep -rnE 'Option<DeltaTable>|naive_evals' crates/*/src; then
    echo "error: SearchState always owns its DeltaTable; the naive kernel" >&2
    echo "       (flip_delta_ws) only builds and checks the table" >&2
    exit 1
fi

# One holder of unit state: the scheduler's units live in its UnitTable
# (crates/sched/src/lifecycle.rs), which also keeps its counts (an
# executing map, a migration queue and six hand-kept tallies, each written
# at its own call site, preceded it).
echo "== the scheduler's unit state lives only in its UnitTable"
if grep -rnE 'migration_queue|struct Outstanding|pub issued_|results_received' crates/sched/src; then
    echo "error: move units through UnitTable (grant, report, migrate, result)" >&2
    echo "       and read UnitCounts through SchedulerServer::units()" >&2
    exit 1
fi

# Say each thing once: one ranking metric (MAE; RMSE is reported, never
# ranked by), a fault window described once, as a FaultOp, and a setting
# only where two callers set it differently (an MSE arm, three structs
# restating FaultOp variants, a gossip config nobody changed and a relay
# label beside its host all outlived their last caller). A trace record is
# one point: an exit half at the enter's instant doubled the 12-hour SC98
# trace past its ring, and a `trace()` accessor let callers ask whether
# tracing is on.
echo "== the deleted configuration shapes stay deleted"
if grep -rnE 'ErrorMetric|GossipConfig|Compiled(Partition|Spike|Impairment)|relay_host' crates/*/src; then
    echo "error: rank by MAE, keep window ops as FaultOps, and pass a value" >&2
    echo "       directly until a second caller needs a different one" >&2
    exit 1
fi
if grep -rnE 'DagConfig|FaasConfig|RamseyConfig|BreakerConfig|heuristic_mix|stop_on_witness|dynamic_timeouts' crates/*/src; then
    echo "error: a setting no world varies is a private constant of the module" >&2
    echo "       that reads it; WorkloadSpec only names the application" >&2
    exit 1
fi
if grep -rnE 'span_enter|span_exit|SpanPhase|expire_traced|fn trace\(' crates/*/src; then
    echo "error: a trace record is one point: Ctx::mark / Registry::mark" >&2
    exit 1
fi

# One event queue: the kernel files the availability calendars into the
# queue's heap one calendar tick at a time, with seqs reserved before the run
# (a lane presorting every transition sat beside the heap, merged on every
# take, and held 256 KiB of the 12-hour SC98 peak heap).
echo "== the event queue is one heap"
if grep -rnwE 'preload|lane' crates/sim/src; then
    echo "error: file calendar ticks into the heap as Sim::file_calendar_tick does;" >&2
    echo "       reserve seqs up front instead of presorting a second source" >&2
    exit 1
fi

# A wire number is finite: `f64::decode` answers a NaN or ±∞ with
# `WireError::NonFinite`, so a consumer counts a body that does not decode
# as a refusal (the NWS server, the scheduler's `rate_is_sane` and the log
# server each repeated the test under its own counter). `ForecasterSet::update`
# keeps its own check, because local measurements reach it too.
echo "== a wire number's finiteness is checked once, at decode"
if grep -nw 'is_finite' crates/forecast/src/sensor.rs crates/state/src/logging.rs \
    crates/sched/src/server.rs || grep -rnw 'rate_is_sane' crates; then
    echo "error: count an Err from pkt.body() as the refusal; ew_proto::wire" >&2
    echo "       already refuses a non-finite f64" >&2
    exit 1
fi

# One expiry discipline: every RpcClient owns one RPC_WAKE timer, armed at
# its next deadline or due resend, and its owner answers that tag (the
# compute client swept on a 2 s grid, the Gossip server on its 1 s tick, and
# only the NWS sensor kept a deadline-exact timer of its own).
echo "== every RpcClient wakes at its own next deadline"
if grep -rnE 'SWEEP_PERIOD|arm_sweep|sweep_armed|client\.sweeps' crates \
    || grep -rnw 'DeadlineTimer' crates | grep -v '^crates/proto/src/rpc\.rs:'; then
    echo "error: answer ew_proto::RPC_WAKE with take_expired, verdicts and take_due;" >&2
    echo "       the RpcClient arms its own wake" >&2
    exit 1
fi

# One place spawns the world: Deployment::builder spawns every pool's
# supervisor, so the spawn order (and with it every process id, rng stream
# and order hash) is written once (run_sc98, the chaos cell, the mega shard
# and the quickstart each hand-wired it). supervisor.rs's own unit tests
# drive a supervisor directly. Only *.rs is searched, so this comment does
# not match itself; benchmark/ keeps its own copy of the mega shard.
echo "== only Deployment::builder spawns infrastructure supervisors"
if grep -rn 'InfraSupervisor::new(' --include='*.rs' crates/*/src tests examples \
    | grep -vE '^crates/(core/src/toolkit|infra/src/supervisor)\.rs:'; then
    echo "error: add the pool with DeploymentBuilder::pool(spec, route)" >&2
    exit 1
fi

# No shipped world runs the flow model: the mega campaign's RPC traffic
# started no flow, yet it selected the model by name. The model
# stays for the kernel, its two equivalence tests and the golden that
# pins both modes equal, until benchmark/ stops naming it. Only *.rs is
# searched, so this comment does not match itself.
echo "== no world outside the kernel's own tests selects the flow model"
if grep -rn 'NetworkModel::Flow' --include='*.rs' crates/*/src crates/*/tests tests examples \
    | grep -vE '^(crates/sim/src/|tests/(flow_net|flow_recompute_equivalence|event_order_determinism)\.rs:)'; then
    echo "error: build the world with NetworkModel::Packet" >&2
    exit 1
fi
# SearchState has one constructor since the naive arm went; the old name
# survives only as a wrapper for benchmark/src.
echo "== SearchState is built with SearchState::new"
if grep -rn 'new_incremental' --include='*.rs' crates/*/src crates/*/tests tests examples \
    | grep -v '^crates/ramsey/src/search\.rs:'; then
    echo "error: call SearchState::new" >&2
    exit 1
fi

# No per-thread state in library code: it makes a farm cell's telemetry
# depend on which worker ran it before (the payload pool needed a reset on
# every sim's first run to hide that). farm_determinism.rs's
# campaign_telemetry_merge_is_thread_invariant is the runtime guard.
echo "== no thread_local! under crates/*/src"
if grep -rn 'thread_local!' crates/*/src | grep -v '^crates/compat/'; then
    echo "error: keep state in the Sim or the process that owns it, not in" >&2
    echo "       a thread" >&2
    exit 1
fi

# Concurrency is std only: the farm runs on std::thread::scope and the TCP
# transport on std::sync::mpsc (414 lines of thread-library stand-ins served
# one heuristic no world ran, one farm loop and one channel). Only *.rs and
# Cargo.toml are searched, so this comment does not match itself.
echo "== concurrency is std only: no rayon or crossbeam, two compat stand-ins"
if grep -rnwE 'rayon|crossbeam' --include='*.rs' --include=Cargo.toml \
    Cargo.toml benchmark/Cargo.toml crates tests examples; then
    echo "error: use std::thread::scope / std::sync::mpsc; the workspace" >&2
    echo "       vendors no thread library" >&2
    exit 1
fi
if ls crates/compat | grep -vxE 'README\.md|proptest|serde_json'; then
    echo "error: crates/compat holds only the proptest and serde_json stand-ins" >&2
    exit 1
fi

# One owner for simulator-side threads: the farm module owns the sim farm's
# scoped workers and the pure-job pool, so the pool's bound (at most
# `available_threads() - 1` workers) is the whole story of a world's
# threads. The TCP transport and the live run sit on real sockets and own
# their own. Only *.rs is searched, so this comment does not match itself.
echo "== threads are started only by the farm, the TCP transport and the live run"
if grep -rnE 'thread::(spawn|scope|Builder)' --include='*.rs' crates/*/src \
    | grep -vE '^crates/(sim/src/farm|proto/src/tcp|core/src/live)\.rs:'; then
    echo "error: hand a pure job to ew_sim::spawn_pure, or a cell to" >&2
    echo "       ew_sim::run_farm; both bound their workers" >&2
    exit 1
fi

# No `unsafe` in library code: every layout under crates/*/src is safe
# Rust, and the counting allocators that need `unsafe impl GlobalAlloc`
# live in tests. Only *.rs is searched, so this comment does not match
# itself.
echo "== no unsafe under crates/*/src"
if grep -rnw 'unsafe' --include='*.rs' crates/*/src; then
    echo "error: find a safe layout (two boxes, an index, a copy) instead" >&2
    exit 1
fi

# Nothing ships without a caller: a pub item or a source file whose only
# reader is its own unit tests fails (framework.rs sat unused for twenty
# PRs, the Globus service model for twenty-one). Also part of `cargo test`.
echo "== every pub item and source file under crates/*/src has a caller"
cargo test -q --offline -p ew-bench --test public_surface

# Every seed runs: `figures condor` panicked at seeds 2 and 3
# (a scheduler spawned on a Condor host that was down at its `Started`)
# while every test ran seed 1998 or a fixed small seed. ~10 s; each run
# writes its `results/` in a temporary directory, so the tracked artifacts
# stay untouched.
echo "== figures all --short exits 0 at seeds 1-16"
cargo build --release --offline -q -p ew-bench --bin figures
target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$PWD/$target"
figures="$target/release/figures"
seeds="$(mktemp -d)"
for seed in $(seq 1 16); do
    (cd "$seeds" && "$figures" all --short --seed "$seed" >/dev/null 2>"$seeds/stderr") || {
        echo "error: figures all --short --seed $seed exited $?:" >&2
        tail -5 "$seeds/stderr" >&2
        rm -rf "$seeds"
        exit 1
    }
done
rm -rf "$seeds"

# The profiler is run, not only parsed: `bash -n` passed a script that
# exited 141 (pipefail + `sort | head`) twice in a dozen runs. ~2 min, most
# of it the debug-info build of `benchmark/`; without `cc` or `addr2line`
# the script says so and exits 0, and so does this step. The same run
# checks `--focus` on a generic frame named without its generic arguments
# (`core::option::Option<T>::map_or`, ~13 % of `bulk_flow`): the frame's
# share line and its caller and callee tables, and that every self row is
# named: a frame outside the executable reads as its symbol or object
# (`malloc`, `libc.so.6`), not as one `??` row.
echo "== tests/profile.sh bulk_flow --seconds 1 --focus Option::map_or exits 0 and prints all tables, no ?? self row"
bash -n tests/profile.sh
profile="$(tests/profile.sh bulk_flow --seconds 1 --focus Option::map_or)" || {
    echo "error: tests/profile.sh exited $?" >&2
    exit 1
}
if grep -q '^profile: no .* on this box' <<<"$profile"; then
    echo "$profile"
elif ! grep -q '^== top inclusive' <<<"$profile" || ! grep -q '^== top self' <<<"$profile"; then
    echo "error: tests/profile.sh printed no inclusive or no self table:" >&2
    echo "$profile" >&2
    exit 1
elif ! grep -q '^== focus Option::map_or: [1-9][0-9]* samples' <<<"$profile" \
    || ! grep -q '^== focus callers' <<<"$profile" || ! grep -q '^== focus callees' <<<"$profile"; then
    echo "error: tests/profile.sh --focus printed no share line or no caller/callee table:" >&2
    echo "$profile" >&2
    exit 1
elif awk '/^== top self/ { self = 1; next } /^== / { self = 0 } self' <<<"$profile" | grep -q $'\t??$'; then
    echo "error: tests/profile.sh left a self row unnamed (??):" >&2
    echo "$profile" >&2
    exit 1
fi

# The heap profiler likewise: ~2 min more for its own debug-info build.
echo "== tests/heap_profile.sh bulk_flow --seconds 1 exits 0 and prints all three tables"
bash -n tests/heap_profile.sh
heap="$(tests/heap_profile.sh bulk_flow --seconds 1)" || {
    echo "error: tests/heap_profile.sh exited $?" >&2
    exit 1
}
if grep -q '^heap_profile: no .* on this box' <<<"$heap"; then
    echo "$heap"
elif ! grep -q '^== live bytes by block size' <<<"$heap" \
    || ! grep -q '^== live bytes at the peak by call site' <<<"$heap" \
    || ! grep -q '^== allocation stacks of 512 B or more' <<<"$heap"; then
    echo "error: tests/heap_profile.sh printed no size, call-site or stack table:" >&2
    echo "$heap" >&2
    exit 1
fi

# The A/B script and the perf gate build two trees (minutes), so they are
# parsed, not run; the exact judge they share for a declared move is tested.
echo "== tests/ab.sh and tests/perf_gate.sh parse; the declared-move judge holds"
bash -n tests/ab.sh
bash -n tests/perf_gate.sh
./tests/moved_test.sh

echo "lint gate: OK"
