//! Cluster-level configuration and reporting.

use np_engine::population::PopulationConfig;

use crate::{NetError, Result};

/// Everything a cluster run needs besides the protocol itself: the
/// population shape, the noise level, the seed, and the timing of the
/// transport. Timing fields are in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: usize,
    /// Sources preferring opinion 0.
    pub s0: usize,
    /// Sources preferring opinion 1.
    pub s1: usize,
    /// Pull requests per node per local round.
    pub h: usize,
    /// Uniform channel noise level δ.
    pub delta: f64,
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Local round length: the timer interval between a node's ticks.
    pub tick_ns: u64,
    /// Minimum one-way message latency.
    pub min_latency_ns: u64,
    /// Uniform jitter added on top of the minimum latency.
    pub jitter_ns: u64,
    /// Baseline independent message drop probability.
    pub drop_rate: f64,
    /// Upper bound for each node's uniformly drawn first-tick offset —
    /// this is what desynchronizes local rounds (no global barrier).
    pub stagger_ns: u64,
}

impl ClusterConfig {
    /// A config with the default timing profile: 1 ms local rounds,
    /// 50 µs base latency with 100 µs jitter, no drops, and first ticks
    /// staggered across a full round.
    pub fn new(n: usize, s0: usize, s1: usize, h: usize, delta: f64, seed: u64) -> Self {
        ClusterConfig {
            n,
            s0,
            s1,
            h,
            delta,
            seed,
            tick_ns: 1_000_000,
            min_latency_ns: 50_000,
            jitter_ns: 100_000,
            drop_rate: 0.0,
            stagger_ns: 1_000_000,
        }
    }

    /// The population this cluster instantiates (also validates `n`,
    /// `s0`, `s1`, `h`).
    pub fn population(&self) -> Result<PopulationConfig> {
        Ok(PopulationConfig::new(self.n, self.s0, self.s1, self.h)?)
    }

    /// Validates the transport timing: a round must be long enough that a
    /// fault-free request/reply pair lands before the requester's next
    /// tick, otherwise every observation would arrive stale and the
    /// protocol would never gather evidence.
    pub fn validate(&self) -> Result<()> {
        if self.tick_ns == 0 {
            return Err(NetError::BadConfig {
                detail: "tick_ns must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.drop_rate) {
            return Err(NetError::BadConfig {
                detail: format!("drop rate {} outside [0, 1]", self.drop_rate),
            });
        }
        let round_trip = 2 * (self.min_latency_ns + self.jitter_ns);
        if round_trip > self.tick_ns {
            return Err(NetError::BadConfig {
                detail: format!(
                    "worst-case round trip {round_trip}ns exceeds tick {}ns: every reply \
                     would arrive stale; lengthen tick_ns or tighten latency/jitter",
                    self.tick_ns
                ),
            });
        }
        Ok(())
    }
}

/// The outcome of a cluster run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterReport {
    /// Number of nodes.
    pub n: usize,
    /// Pull requests per node per local round.
    pub h: usize,
    /// Master seed.
    pub seed: u64,
    /// The highest local round any node completed.
    pub rounds: u64,
    /// Whether every node held the planted opinion when the run stopped.
    pub converged: bool,
    /// The local round at which the population first became all-correct.
    pub convergence_round: Option<u64>,
    /// Elapsed virtual time in milliseconds.
    pub elapsed_ms: f64,
    /// Peer-to-peer messages put on the wire (requests + replies;
    /// driver-bound bookkeeping excluded).
    pub messages_total: u64,
    /// Messages dropped by the transport (faults, partitions, drop rate).
    pub drops_total: u64,
    /// Replies that arrived after their round closed, across all nodes.
    pub stale_total: u64,
    /// Local rounds closed with zero replies, across all nodes.
    pub skipped_total: u64,
    /// Nodes holding the planted opinion at stop time.
    pub final_correct: usize,
    /// Nodes with a formed weak opinion at stop time.
    pub weak_formed: usize,
    /// Nodes whose weak opinion matches the planted one at stop time.
    pub weak_correct: usize,
    /// FNV-1a digest of the final cluster state (rounds, opinions,
    /// message counters); byte-identical runs have equal digests.
    pub digest: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timing_is_valid() {
        let cfg = ClusterConfig::new(64, 0, 1, 4, 0.1, 7);
        assert!(cfg.validate().is_ok());
        assert!(cfg.population().is_ok());
    }

    #[test]
    fn stale_guaranteeing_timing_is_rejected() {
        let mut cfg = ClusterConfig::new(64, 0, 1, 4, 0.1, 7);
        cfg.min_latency_ns = cfg.tick_ns;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_drop_rate_is_rejected() {
        let mut cfg = ClusterConfig::new(64, 0, 1, 4, 0.1, 7);
        cfg.drop_rate = 1.5;
        assert!(cfg.validate().is_err());
    }
}
