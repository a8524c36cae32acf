//! `np_sweep` — crash-safe parameter sweeps for the noisy PULL
//! reproduction.
//!
//! The theory-verification experiments the paper demands (running time vs
//! `s`, `δ`, `h` across the Theorem 4/5 regimes) are grids of dozens of
//! independent seeded runs — too much work to lose to a crash and too much
//! for one process when `n` is large. This crate turns such a grid into a
//! *resumable* sweep built on three pieces:
//!
//! * [`spec`] — a declarative sweep description (hand-rolled `key = value`
//!   grid parser, no serde) that expands to a deterministic job list. Each
//!   job's seed is a pure function of the master seed and the job id
//!   ([`np_stats::seeds::SeedSequence::child_of_label`]), so re-expanding
//!   the spec after a crash reproduces exactly the seeds the interrupted
//!   run used.
//! * [`manifest`] — the `np-manifest/v1` JSONL job journal: an append-only
//!   file where the *latest* record per job wins. It is the single source
//!   of truth for `--resume`; checkpoints without a manifest record do not
//!   exist as far as the scheduler is concerned.
//! * [`report`] — the `np-bench/v1` perf-trajectory document
//!   ([`report::PerfPoint`], [`report::bench_json`]) that a sweep
//!   aggregates into and the experiment binaries commit as
//!   `BENCH_*.json`.
//! * [`scheduler`] — fans jobs over [`np_engine::runner::scatter`]
//!   (world-level parallelism complementing the engine's round-level
//!   chunk parallelism), checkpoints each world every K rounds via
//!   `World::snapshot` (`np-snap/v1`), and on resume continues only
//!   incomplete jobs from their latest snapshot.
//!
//! Determinism contract: the aggregated `np-bench/v1` report of a sweep
//! that was interrupted and resumed (any number of times, at any thread
//! count) is byte-identical to the report of an uninterrupted run. This
//! follows from the engine's byte-identical-continuation contract plus
//! the rule that every nondeterministic quantity (wall clocks, thread
//! counts, manifest record order) is excluded from the aggregate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must stay a pure function of its seed and must not panic
// on recoverable errors (experiment workers would die mid-batch). The
// banned clocks, hashed containers and hand-seeded generators are listed
// in crates/clippy.toml; tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

use std::fmt;

pub mod manifest;
pub mod report;
pub mod scheduler;
pub mod spec;

/// Error type for sweep parsing, scheduling and persistence: every
/// failure is reported as text, CLI-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError(pub String);

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError(format!("i/o error: {e}"))
    }
}

/// Converts any displayable error into a [`SweepError`].
pub(crate) fn err<E: fmt::Display>(e: E) -> SweepError {
    SweepError(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_displays_and_converts() {
        assert_eq!(SweepError("boom".into()).to_string(), "boom");
        let io = std::io::Error::other("nope");
        assert!(SweepError::from(io).to_string().contains("nope"));
    }
}
