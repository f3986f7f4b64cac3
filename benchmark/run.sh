#!/usr/bin/env bash
# Build the benchmark offline with its own lockfile and target directory,
# then run every workload: timed first, then traced. Writes
# benchmark/out/results.json and benchmark/out/trace.jsonl; the header of
# results.json records nproc, `rustc -V`, the git revision, the CPU model
# and the 1-minute load average.
#
#   benchmark/run.sh [--seed N] [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/benchmark" all "$@"
