#!/usr/bin/env bash
# Regenerates every experiment table (console + CSV under target/experiments/).
# Set NP_QUICK=1 for a fast smoke pass.
# Set NP_SKIP_CI=1 to skip the pre-flight checks (ci.sh) and go straight to
# the experiment binaries.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ "${NP_SKIP_CI:-0}" != "1" ]]; then
    # Never publish tables from a tree that fails the workspace gate.
    scripts/ci.sh
fi
# Every experiment binary, in byte order: the list is read from
# crates/bench/src/bin/ so it cannot drift from the binaries that exist.
LC_COLLATE=C
for src in crates/bench/src/bin/exp_*.rs; do
    exp="$(basename "$src" .rs)"
    echo "### $exp"
    cargo run --release -q -p np-bench --bin "$exp"
    echo
done
