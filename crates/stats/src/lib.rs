//! Probability and statistics toolkit for the noisy PULL reproduction.
//!
//! Everything random in this workspace flows through this crate:
//!
//! * [`alias`] — Vose's alias method for O(1) sampling from categorical
//!   distributions (rows of noise matrices).
//! * [`binomial`] — an exact binomial sampler (inversion for small means,
//!   inversion-from-the-mode for large ones) plus log-factorials and pmf/cdf
//!   evaluation. This powers the engine's *aggregated channel*, which
//!   replaces `Θ(n·h)` per-round message draws with a handful of binomial
//!   draws per agent while preserving the exact joint distribution.
//! * [`multinomial`] — multinomial splitting via conditional binomials.
//! * [`hypergeometric`] — exact without-replacement sampling (univariate
//!   and multivariate), for the engine's sampling-mode robustness check.
//! * [`rademacher`] — Rademacher variables and sums (Definition 18 of the
//!   paper), the language of the weak-opinion analysis.
//! * [`concentration`] — evaluators for the paper's probabilistic tools:
//!   multiplicative Chernoff (Theorem 41), Chernoff–Hoeffding (Theorem 42),
//!   and the anti-concentration bounds of Lemmas 21/22.
//! * [`estimate`] — Welford running statistics, Wilson score intervals,
//!   and summary statistics (percentiles) for experiment reporting.
//! * [`digest`] — the FNV-1a fold behind label-keyed seeds and every run
//!   digest.
//! * [`hist`] — empirical categorical distributions and total-variation
//!   distance, used to verify the Theorem 8 reduction empirically.
//! * [`ks`] — Kolmogorov–Smirnov distances for validating samplers
//!   against exact cdfs.
//! * [`seeds`] — a splitmix64-based seed sequence for reproducible
//!   fan-out of parallel simulation batches.
//! * [`streams`] — counter-based per-agent RNG streams, one independent
//!   generator per `(seed, round, agent, stage)` coordinate, the basis of
//!   the engine's thread-count-invariant parallel round execution.
//!
//! # Example
//!
//! ```
//! use np_stats::alias::AliasTable;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let table = AliasTable::new(&[0.5, 0.25, 0.25])?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let draw = table.sample(&mut rng);
//! assert!(draw < 3);
//! # Ok::<(), np_stats::StatsError>(())
//! ```

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

mod error;

pub mod alias;
pub mod binomial;
pub mod concentration;
pub mod digest;
pub mod estimate;
pub mod hist;
pub mod hypergeometric;
pub mod ks;
pub mod multinomial;
pub mod rademacher;
pub mod seeds;
pub mod streams;

pub use error::StatsError;

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
