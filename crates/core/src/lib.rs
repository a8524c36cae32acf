//! `noisy-pull` — the protocols of *Fast and Robust Information Spreading
//! in the Noisy PULL Model* (D'Archivio, Korman, Natale, Vacus;
//! PODC 2025 / arXiv:2411.02560).
//!
//! A population of `n` agents communicates under the noisy PULL(h) model
//! (see [`np_engine`]): each round every agent passively observes `h`
//! uniformly random agents through a noisy channel. A few *source* agents
//! hold (possibly conflicting) preferences; everyone must converge on the
//! preference of the strict majority of sources — fast, despite every
//! single observation being unreliable.
//!
//! This crate provides the paper's two protocols and their machinery:
//!
//! * [`sf::SourceFilter`] — Algorithm SF: 1-bit messages, synchronous
//!   start, convergence in `O(m/h)` rounds with `m` from Eq. (19)
//!   (Theorem 4). At `h = n` and constant `δ`, that is `O(log n)` rounds —
//!   exponentially faster than the `Ω(n)` lower bound for `h = O(1)`.
//! * [`ssf::SelfStabilizingSourceFilter`] — Algorithm SSF: 2-bit messages,
//!   no synchronization, self-stabilizing against arbitrary corruption of
//!   internal states (Theorem 5). Corruption strategies for experiments
//!   live in [`adversary`].
//! * [`reduction::WithArtificialNoise`] — the Theorem 8 adaptor that
//!   uniformizes any δ-upper-bounded channel by injecting artificial noise
//!   `P = N⁻¹·T`, so both protocols run under arbitrary (non-uniform)
//!   noise matrices.
//! * [`params`] — the `m` formulas (Eqs. (19) and (30)) and round
//!   schedules.
//! * [`theory`] — closed forms for the Theorem 3 lower bound and the
//!   Theorem 4/5 upper bounds, for overlaying predictions on measurements.
//! * [`memory`] — information-theoretic state-size accounting for the
//!   theorems' `O(log T + log h)` bits-per-agent claim.
//! * [`sf_alternating`] — the "more natural" alternating-display variant
//!   from the Remark in §2.1, implemented so its plausibility can be
//!   tested empirically.
//!
//! Each protocol has one implementation. Its transition lives in its
//! per-agent record ([`sf::SfAgent`], [`ssf::SsfAgent`],
//! [`sf_alternating::AltSfAgent`]) — the form one agent runs alone in
//! (the `np_net` nodes, [`reduction::WithArtificialNoise`]). A `World` of
//! the protocol type stores the population struct-of-arrays
//! ([`sf::SfColumns`], [`ssf::SsfColumns`], [`sf_alternating::AltSfColumns`])
//! and runs that same record's `display`/`update` per agent by gathering
//! and scattering it, bit-identically to running the records one by one.
//!
//! # Quickstart
//!
//! Spread a bit from a single source to 512 agents, each observing the
//! whole population through a 20%-noise channel, in a logarithmic number
//! of rounds:
//!
//! ```
//! use noisy_pull::{params::SfParams, sf::SourceFilter};
//! use np_engine::{channel::ChannelKind, population::PopulationConfig, run::Run, world::World};
//! use np_linalg::noise::NoiseMatrix;
//!
//! let n = 512;
//! let config = PopulationConfig::new(n, 0, 1, n)?; // one source, h = n
//! let params = SfParams::derive(&config, 0.2, 1.0)?;
//! let noise = NoiseMatrix::uniform(2, 0.2)?;
//!
//! let mut world = World::new(
//!     &SourceFilter::new(params),
//!     config,
//!     &noise,
//!     ChannelKind::Aggregated,
//!     42,
//! )?;
//! world.run(params.total_rounds());
//!
//! assert!(world.is_consensus());
//! println!("consensus after {} rounds", world.round());
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

pub mod adversary;
pub mod counts;
pub mod memory;
pub mod params;
pub mod reduction;
pub mod sf;
pub mod sf_alternating;
pub mod ssf;
pub mod theory;

pub use error::CoreError;

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
