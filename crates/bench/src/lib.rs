//! Experiment harness for the noisy PULL reproduction.
//!
//! One binary per figure/claim of the paper lives in `src/bin/` (see the
//! experiment index in `DESIGN.md` and results in `EXPERIMENTS.md`).
//!
//! The library part provides what they share:
//!
//! * [`report`] — aligned console tables plus CSV output under
//!   `target/experiments/`. The JSON artifacts some binaries write come
//!   from their records' owners: `np_sweep::report` for `BENCH_*.json`.
//! * [`harness`] — canonical "run protocol X to consensus and report the
//!   convergence round" drivers for SF, SSF and the baselines, with
//!   multi-seed batching.
//!
//! Run every `exp_*` binary, in sorted order, with
//! `scripts/run_experiments.sh`. Wall-clock performance is measured by the
//! separate `perfbench` workspace (see `BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
