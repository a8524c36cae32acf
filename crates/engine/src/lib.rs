//! Discrete-round simulation engine for the *noisy PULL(h)* communication
//! model (Section 1.3 of the paper).
//!
//! The model: `n` agents proceed in synchronous rounds. Each round, every
//! agent
//!
//! 1. chooses a message `σ ∈ Σ` to display,
//! 2. samples `h` agents uniformly at random **with replacement** (possibly
//!    itself, possibly the same agent twice),
//! 3. receives a noisy version of each sampled agent's displayed message —
//!    each observation independently passes through a stochastic noise
//!    matrix `N` ([`np_linalg::noise::NoiseMatrix`]),
//! 4. updates its opinion and internal state.
//!
//! # Architecture
//!
//! * [`opinion`], [`population`] — model vocabulary: binary opinions, agent
//!   roles (source with a preference / non-source), population
//!   configuration.
//! * [`protocol`] — the [`protocol::Protocol`] / [`protocol::AgentState`]
//!   traits every spreading algorithm implements. Observations are
//!   delivered as *per-symbol counts*: the protocols in this workspace are
//!   all anonymous and order-oblivious, so a count vector is a lossless
//!   representation of the received multiset.
//! * [`channel`] — two interchangeable, distribution-identical
//!   implementations of step 2+3: a literal per-sample channel, and an
//!   aggregated channel that draws each agent's observation counts from
//!   multinomials in `O(|Σ|²)` per agent instead of `O(h)` (the identity
//!   behind it is documented and tested there). This is what makes the
//!   `h = n` experiments of the paper tractable.
//! * [`counts`] — the mean-field class-count backend: the same collapse,
//!   pushed one level further, from per-agent multinomials to per-class
//!   transition laws. `O(#classes)` per round instead of `O(n)`, opening
//!   `n = 10⁷–10⁸`; distributionally (not bit-level) equivalent to the
//!   per-agent engine, aggregated with-replacement channels only.
//! * [`world`] — the round loop and the adversarial state-corruption hook
//!   for self-stabilization experiments.
//! * [`run`] — the [`run::Run`] trait every round backend implements: the
//!   consensus predicate, run-to-consensus, run-until-stable and the
//!   settle loop, written once for `World`, `CountsWorld` and `PushWorld`.
//! * [`packed`] — bit-plane packed display storage: the word-level state
//!   layout the round loop runs on (display histograms are plane
//!   popcounts; scalar display vectors survive as seams for the exact
//!   channel and for tests).
//! * [`faults`] — deterministic *mid-run* fault injection: scheduled
//!   re-corruption, source-preference flips (trend changes), noise
//!   swaps/ramps, and agent sleep, with per-event recovery metrics.
//! * [`digest`] — the FNV-1a fold behind every run digest.
//! * [`json`] — the one JSON codec (escaper, `f64` writer, bounded
//!   reader) behind every trace, summary, manifest and report.
//! * [`metrics`] — time series of correct-opinion counts, convergence
//!   records.
//! * [`runner`] — a scoped-thread multi-seed batch runner with
//!   deterministic seed fan-out, plus the chunk scatter helper behind the
//!   world's intra-round parallelism.
//! * [`streams`] — per-agent RNG streams addressed by
//!   `(seed, round, agent, stage)`; the determinism contract that makes a
//!   single round parallelizable with thread-count-invariant results.
//! * [`invariants`] — debug-assertion checks of engine-level structural
//!   properties, compiled into debug builds and into any build with the
//!   `strict-invariants` feature.
//! * [`push`] — the noisy PUSH(h) model (the paper's §1.5 contrast class,
//!   where reception is reliable even though content is noisy), used to
//!   measure the PULL/PUSH separation.
//! * [`snapshot`] — the versioned `np-snap/v1` binary encoding behind
//!   [`world::World::snapshot`] / [`world::World::restore`]: crash-safe
//!   mid-run persistence with a byte-identical-continuation guarantee
//!   (the stream design means no RNG state is ever serialized).
//! * [`topology`] — graph-restricted PULL: deterministic CSR neighbor
//!   lists (ring, random regular, power-law) that confine each agent's
//!   samples to its neighborhood; the complete graph stays the default
//!   and costs nothing.
//!
//! # Example
//!
//! A minimal protocol (everyone copies the majority of what they observe)
//! run to consensus under 10% uniform noise. Plain majority dynamics can
//! only amplify an existing display majority — overcoming *few* sources is
//! exactly what the paper's protocols are for — so this toy example seeds
//! a majority of stubborn sources:
//!
//! ```
//! use np_engine::channel::ChannelKind;
//! use np_engine::opinion::Opinion;
//! use np_engine::population::{PopulationConfig, Role};
//! use np_engine::protocol::{AgentState, Protocol, ScalarLayout};
//! use np_engine::run::Run;
//! use np_engine::world::World;
//! use np_linalg::noise::NoiseMatrix;
//! use np_engine::streams::StreamRng;
//! use rand::Rng;
//!
//! struct Majority;
//! struct MajorityAgent {
//!     role: Role,
//!     opinion: Opinion,
//! }
//!
//! impl Protocol for Majority {
//!     type Agent = MajorityAgent;
//!     fn alphabet_size(&self) -> usize {
//!         2
//!     }
//!     fn init_agent(&self, role: Role, _rng: &mut StreamRng) -> MajorityAgent {
//!         let opinion = match role {
//!             Role::Source(p) => p,
//!             Role::NonSource => Opinion::Zero,
//!         };
//!         MajorityAgent { role, opinion }
//!     }
//! }
//!
//! // No struct-of-arrays state of its own: run the records as a `Vec`.
//! impl ScalarLayout for Majority {}
//!
//! impl AgentState for MajorityAgent {
//!     fn display(&self, _rng: &mut StreamRng) -> usize {
//!         self.opinion.as_index()
//!     }
//!     fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
//!         if let Role::Source(p) = self.role {
//!             self.opinion = p; // sources are stubborn in this toy protocol
//!             return;
//!         }
//!         self.opinion = match observed[1].cmp(&observed[0]) {
//!             std::cmp::Ordering::Greater => Opinion::One,
//!             std::cmp::Ordering::Less => Opinion::Zero,
//!             std::cmp::Ordering::Equal => Opinion::from_bool(rng.gen()),
//!         };
//!     }
//!     fn opinion(&self) -> Opinion {
//!         self.opinion
//!     }
//! }
//!
//! let config = PopulationConfig::new(64, 0, 40, 64)?; // n=64, 40 one-sources, h=n
//! let noise = NoiseMatrix::uniform(2, 0.1)?;
//! let mut world = World::new(&Majority, config, &noise, ChannelKind::Aggregated, 42)?;
//! let outcome = world.run_until_consensus(500);
//! assert!(outcome.converged());
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

pub mod channel;
pub mod counts;
pub mod digest;
pub mod faults;
pub mod invariants;
pub mod json;
pub mod lanes;
pub mod metrics;
pub mod opinion;
pub mod packed;
pub mod population;
pub mod protocol;
pub mod push;
pub mod run;
pub mod runner;
pub mod snapshot;
pub mod streams;
pub mod topology;
pub mod world;

pub use error::EngineError;

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, EngineError>;
