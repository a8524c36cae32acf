//! `noisy-pull-repro` — umbrella crate for the reproduction of
//! *Fast and Robust Information Spreading in the Noisy PULL Model*
//! (D'Archivio, Korman, Natale, Vacus; PODC 2025 / arXiv:2411.02560).
//!
//! This facade re-exports the workspace crates under stable paths and
//! hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`). Library users can depend on the
//! individual crates directly:
//!
//! * [`core`] (`noisy-pull`) — the paper's protocols: Source Filter (SF),
//!   Self-stabilizing Source Filter (SSF), the artificial-noise reduction,
//!   parameter derivation, and the closed-form theory bounds. Each
//!   protocol is one type with one transition; a `World` of it runs its
//!   struct-of-arrays state.
//! * [`engine`] (`np-engine`) — the noisy PULL(h) simulation engine.
//! * [`linalg`] (`np-linalg`) — matrices, inversion, and the
//!   noise-matrix toolkit of the paper's Section 4.
//! * [`stats`] (`np-stats`) — samplers, concentration bounds, estimators.
//! * [`baselines`] (`np-baselines`) — voter/majority/trusting-copy/mean
//!   estimator comparison protocols.
//!
//! # Quickstart
//!
//! ```
//! use noisy_pull_repro::prelude::*;
//!
//! let n = 256;
//! let config = PopulationConfig::new(n, 0, 1, n)?; // one source, h = n
//! let params = SfParams::derive(&config, 0.2, 1.0)?;
//! let noise = NoiseMatrix::uniform(2, 0.2)?;
//! let mut world = World::new(
//!     &SourceFilter::new(params),
//!     config,
//!     &noise,
//!     ChannelKind::Aggregated,
//!     1,
//! )?;
//! world.run(params.total_rounds());
//! assert!(world.is_consensus());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use noisy_pull as core;
pub use np_baselines as baselines;
pub use np_engine as engine;
pub use np_linalg as linalg;
pub use np_stats as stats;

/// One-stop imports for examples and downstream quickstarts.
pub mod prelude {
    pub use noisy_pull::adversary::SsfAdversary;
    pub use noisy_pull::params::{SfParams, SsfParams};
    pub use noisy_pull::reduction::WithArtificialNoise;
    pub use noisy_pull::sf::SourceFilter;
    pub use noisy_pull::sf_alternating::AlternatingSourceFilter;
    pub use noisy_pull::ssf::SelfStabilizingSourceFilter;
    pub use noisy_pull::theory;
    pub use np_engine::channel::{Channel, ChannelKind, SamplingMode};
    pub use np_engine::faults::{recovery_times, FaultEvent, FaultPlan, FaultRecovery, StateFault};
    pub use np_engine::metrics::{
        RoundMetrics, RunObserver, RunOutcome, StageTimings, TraceRecorder,
    };
    pub use np_engine::opinion::Opinion;
    pub use np_engine::population::{PopulationConfig, Role};
    pub use np_engine::protocol::{
        AgentRecords, AgentState, ColumnarProtocol, ColumnarState, Protocol, ScalarLayout,
        ScalarState,
    };
    pub use np_engine::streams::{RoundStreams, StreamStage};
    pub use np_engine::topology::{Topology, TopologySpec};
    pub use np_engine::world::World;
    pub use np_linalg::noise::NoiseMatrix;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_runs() {
        let config = PopulationConfig::new(64, 0, 1, 64).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut world = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            9,
        )
        .unwrap();
        world.run(params.total_rounds());
        assert!(world.is_consensus());
    }
}
