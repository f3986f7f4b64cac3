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

echo "lint gate: OK"
