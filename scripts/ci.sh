#!/usr/bin/env bash
# The single CI entry point: formatting, clippy (warnings are errors; it
# also enforces the determinism/robustness rules), the full test suite,
# and a release-mode test pass with runtime invariant checks kept in
# (`--features strict-invariants`). Everything here runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "### cargo fmt --check"
cargo fmt --check

# The lint gate. Beyond clippy's defaults it enforces the determinism
# and robustness rules: crates/clippy.toml bans wall clocks, hashed
# containers and hand-seeded generators, each library crate root denies
# those bans plus unwrap/expect, stdio writes and exact float comparison,
# and an `#[expect]` that no longer fires is an error here.
echo "### cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Committed benchmark artifacts must parse against their np-* schemas:
# a malformed BENCH_*.json is a broken interface even when every test
# passes.
echo "### cargo xtask check-artifacts"
cargo xtask check-artifacts

echo "### cargo build --release (tier-1)"
cargo build --release

echo "### cargo build --examples"
cargo build --examples

# Tier-1 runs twice: single-threaded and at the ambient default. The
# engine's contract is that the thread count cannot change any outcome,
# so both passes must see identical results.
echo "### cargo test -q (tier-1, NOISY_PULL_THREADS=1)"
NOISY_PULL_THREADS=1 cargo test -q

echo "### cargo test -q (tier-1, default threads)"
cargo test -q

echo "### cargo test --workspace -q"
cargo test --workspace -q

echo "### cargo test -p np-engine --release --features strict-invariants -q"
cargo test -p np-engine --release --features strict-invariants -q

# The fault-injection integration suites re-run with runtime invariant
# checks kept in: mid-run corruption, noise ramps and sleep spans must
# not be able to smuggle an inconsistent state past the engine.
echo "### fault-injection tests under strict-invariants"
cargo test --release --features strict-invariants -q \
  --test self_stabilization --test observability

# Mean-field KS cross-validation gate: the counts backend must reproduce
# the per-agent convergence distributions (probe-round correct counts and
# first all-correct rounds, two-sample KS p > 0.01 over 64 fixed seeds a
# side) for SF and SSF at n = 256 and n = 4096, and the exact-channel majority
# baseline. The n = 4096 suites are `#[ignore]`d in plain test runs
# (release-build scale); --include-ignored arms them here.
echo "### mean-field KS cross-validation (per-agent vs counts backend)"
cargo test --release -q -p noisy-pull --test mean_field_crossval -- --include-ignored
cargo test --release -q -p np-baselines --test mean_field_crossval

# Outcome digests are pinned by tests/golden_trajectories.rs, which the
# tier-1 passes above run: `run sf --n 256 --seed 7` on the complete
# graph and on ring:4 and a faulted SSF run, each at 1 and 4 threads, and
# both n = 64 sim-cluster runs (the partition/heal one is the smoke step
# at the end).

# Trace and run-summary bytes are pinned through the binary, at 1 and 4
# threads, by crates/cli/tests/cli.rs (`run sf --n 256 --seed 7` and the
# faulted SSF run, whose summary must carry recovery records), which the
# workspace test pass above runs.

# Snapshot continuation is pinned through the binary too:
# `restored_trace_matches_the_straight_trace` in crates/cli/tests/cli.rs
# checkpoints `run sf --n 256 --seed 7` at 1 thread, restores it at 4 and
# requires the straight run's trace bytes.

# Sweep interrupt/resume gate: a 3-job sweep killed after its first
# checkpoint write (--stop-after 1) and resumed must aggregate a report
# byte-identical to the uninterrupted sweep, across thread counts.
echo "### sweep resume diff (uninterrupted @1 thread vs killed+resumed @4 threads)"
work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT
sweep_dir="$work_dir/sweep"
mkdir -p "$sweep_dir"
cat > "$sweep_dir/spec.txt" <<'SPEC'
protocol = sf
n = 64
delta = 0.1
runs = 3
seed = 11
SPEC
cargo run -q --release -p np-cli -- \
  sweep run "$sweep_dir/spec.txt" --out "$sweep_dir/straight" \
  --checkpoint-every 4 --threads 1 > /dev/null
cargo run -q --release -p np-cli -- \
  sweep run "$sweep_dir/spec.txt" --out "$sweep_dir/resumed" \
  --checkpoint-every 4 --threads 4 --stop-after 1 > /dev/null
cargo run -q --release -p np-cli -- \
  sweep run "$sweep_dir/spec.txt" --out "$sweep_dir/resumed" \
  --checkpoint-every 4 --threads 4 --resume > /dev/null
diff "$sweep_dir/straight/report.json" "$sweep_dir/resumed/report.json"
echo "sweep reports agree"

# The perf ledger (`perfbench/`, run by BENCHMARK.json) is its own cargo
# workspace, so the fmt/clippy/test passes above never compile it. Build
# it and run its unit tests here, so a change to an engine API it calls
# fails CI instead of the benchmark.
echo "### perfbench build + unit tests"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Benchmark smoke: run every workload once, briefly, and require what the
# benchmark itself requires of a run: exit 0 (a failed output check
# exits 1), a last stdout line that is a passing result, and no bare
# `inf`/`NaN` in it (perfbench prints metric values unquoted, so one
# would make the line invalid JSON). The traced agent-sf-64k run fills
# every round from a `begin_round_from_counts` context, so it also
# exercises the lazily built level-0 table.
perfbench_smoke() {
  local workload="$1" trace="$2"
  local out="$work_dir/perfbench-$workload-trace$trace.out"
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
    --out "$work_dir/perfbench-spans" > "$out" \
    || { tail -n 5 "$out" >&2; echo "perfbench $workload --trace $trace failed" >&2; exit 1; }
  local last
  last="$(tail -n 1 "$out")"
  case "$last" in
    '{"correct":true,'*) ;;
    *) echo "perfbench $workload --trace $trace: last line is not a passing result: $last" >&2
       exit 1 ;;
  esac
  if grep -Eq '[:,[]-?(inf|NaN)([],}]|$)' <<< "$last"; then
    echo "perfbench $workload --trace $trace: non-finite metric in $last" >&2
    exit 1
  fi
  echo "perfbench $workload --trace $trace: ok"
}
echo "### perfbench smoke (every workload, --seconds 1)"
for workload in agent-sf-64k agent-ssf-1k meanfield-sf-ladder cluster-ssf-512-drop; do
  perfbench_smoke "$workload" 0
done
perfbench_smoke agent-sf-64k 1

# Partition/heal smoke: sever half the cluster mid-run, heal, and require
# SSF to re-converge (Theorem 5's self-stabilization, exercised at the
# transport layer rather than by state corruption).
echo "### sim-cluster partition/heal smoke (SSF re-convergence)"
cargo run -q --release -p np-cli -- \
  cluster --n 64 --delta 0.05 --c1 1 --seed 11 \
  --partition-at 3 --heal-at 6 --budget-intervals 40 \
  | tee "$work_dir/cluster_heal.out"
grep -q 're-converged' "$work_dir/cluster_heal.out" \
  || { echo "cluster did not re-converge after heal" >&2; exit 1; }

echo "### ci.sh: all checks passed"
