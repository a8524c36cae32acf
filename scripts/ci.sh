#!/usr/bin/env bash
# The single CI entry point: formatting, clippy (warnings are errors), the
# workspace's own determinism/robustness lints, the full test suite, and a
# release-mode test pass with runtime invariant checks kept in
# (`--features strict-invariants`). Everything here runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "### cargo fmt --check"
cargo fmt --check

echo "### cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The determinism analyzer must come up clean against an empty baseline
# (i.e. zero findings), and its np-lint/v1 report must be byte-identical
# across two runs — the report is an interface CI diffs, so ordering
# instability is itself a bug.
echo "### cargo xtask lint (np-lint/v1, empty baseline, double-run diff)"
lint_dir="$(mktemp -d)"
: > "$lint_dir/empty-baseline.jsonl"
cargo xtask lint --format json --baseline "$lint_dir/empty-baseline.jsonl" \
  > "$lint_dir/lint1.jsonl"
cargo xtask lint --format json > "$lint_dir/lint2.jsonl"
diff "$lint_dir/lint1.jsonl" "$lint_dir/lint2.jsonl"
rm -rf "$lint_dir"

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
# settle rounds, two-sample KS p > 0.01 over 64 fixed seeds a side) for
# SF and SSF at n = 256 and n = 4096, and the exact-channel majority
# baseline. The n = 4096 suites are `#[ignore]`d in plain test runs
# (release-build scale); --include-ignored arms them here.
echo "### mean-field KS cross-validation (per-agent vs counts backend)"
cargo test --release -q -p noisy-pull --test mean_field_crossval -- --include-ignored
cargo test --release -q -p np-baselines --test mean_field_crossval

# Outcome digests are pinned by tests/golden_trajectories.rs, which the
# tier-1 passes above run: `run sf --n 256 --seed 7` on the complete
# graph and on ring:4 and the faulted SSF run below, each at 1 and 4
# threads, and both n = 64 sim-cluster runs (the partition/heal one is
# the smoke step at the end).

# Cross-thread-count trace diff: the observability artifacts (per-round
# JSONL trace + end-of-run summary JSON) are pure trajectory data, so the
# same fixed-seed run must write byte-identical files at 1 and 4 worker
# threads. (Stage wall-clock timings go to stdout only, never into the
# files — that is what keeps this diff meaningful.)
echo "### thread-count trace diff (1 vs 4 threads)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
traced_run() {
  cargo run -q --release -p np-cli -- \
    run sf --n 256 --seed 7 --threads "$1" \
    --trace "$trace_dir/t$1.jsonl" --metrics-out "$trace_dir/s$1.json" \
    > /dev/null
}
traced_run 1
traced_run 4
diff "$trace_dir/t1.jsonl" "$trace_dir/t4.jsonl"
diff "$trace_dir/s1.json" "$trace_dir/s4.json"
echo "traces agree: $(wc -l < "$trace_dir/t1.jsonl") rounds"

# Same diff under a nontrivial fault plan: fault randomness is drawn from
# the per-agent streams, so mid-run corruption, a noise ramp and sleep
# spans must not break the byte-identity of the artifacts either.
echo "### thread-count faulted-trace diff (1 vs 4 threads)"
faulted_run() {
  cargo run -q --release -p np-cli -- \
    run ssf --n 128 --delta 0.1 --c1 8 --seed 7 --threads "$1" \
    --budget-intervals 20 \
    --fault 20:all-wrong:0.5 --fault 30:ramp:0.15:8 --fault 30:sleep:0.25:3 \
    --trace "$trace_dir/ft$1.jsonl" --metrics-out "$trace_dir/fs$1.json" \
    > /dev/null
}
faulted_run 1
faulted_run 4
diff "$trace_dir/ft1.jsonl" "$trace_dir/ft4.jsonl"
diff "$trace_dir/fs1.json" "$trace_dir/fs4.json"
grep -q '"faults"' "$trace_dir/fs1.json" \
  || { echo "faulted summary carries no recovery records" >&2; exit 1; }
echo "faulted traces agree: $(wc -l < "$trace_dir/ft1.jsonl") rounds"

# Snapshot continuation diff: a run checkpointed mid-flight and restored
# in a fresh process (at a different thread count) must write the same
# per-round trace as the uninterrupted run.
echo "### snapshot restore diff (straight @1 thread vs restored @4 threads)"
cargo run -q --release -p np-cli -- \
  run sf --n 256 --seed 7 --threads 1 \
  --trace "$trace_dir/straight.jsonl" \
  --checkpoint "$trace_dir/ckpt.snap" --checkpoint-every 8 > /dev/null
cargo run -q --release -p np-cli -- \
  run sf --n 256 --seed 7 --threads 4 \
  --restore "$trace_dir/ckpt.snap" \
  --trace "$trace_dir/restored.jsonl" > /dev/null
diff "$trace_dir/straight.jsonl" "$trace_dir/restored.jsonl"
echo "restored trace agrees: $(wc -l < "$trace_dir/straight.jsonl") rounds"

# Sweep interrupt/resume gate: a 3-job sweep killed after its first
# checkpoint write (--stop-after 1) and resumed must aggregate a report
# byte-identical to the uninterrupted sweep, across thread counts.
echo "### sweep resume diff (uninterrupted @1 thread vs killed+resumed @4 threads)"
sweep_dir="$trace_dir/sweep"
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

# Partition/heal smoke: sever half the cluster mid-run, heal, and require
# SSF to re-converge (Theorem 5's self-stabilization, exercised at the
# transport layer rather than by state corruption).
echo "### sim-cluster partition/heal smoke (SSF re-convergence)"
cargo run -q --release -p np-cli -- \
  cluster --n 64 --delta 0.05 --c1 1 --seed 11 \
  --partition-at 3 --heal-at 6 --budget-intervals 40 \
  | tee "$trace_dir/cluster_heal.out"
grep -q 're-converged' "$trace_dir/cluster_heal.out" \
  || { echo "cluster did not re-converge after heal" >&2; exit 1; }

echo "### ci.sh: all checks passed"
