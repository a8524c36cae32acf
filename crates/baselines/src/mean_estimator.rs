//! Mean-estimator ablation: SF without its neutral listening phases.
//!
//! Each agent keeps lifetime totals of observed 0s and 1s, debiases the
//! noise (`q̂ = (p̂ − δ)/(1 − 2δ)` where `p̂` is the observed fraction of
//! 1s), and adopts opinion 1 iff the debiased estimate exceeds ½. Agents
//! display their current opinion throughout.
//!
//! The flaw this ablation demonstrates: the displayed population is not
//! neutral. Agents estimate the mean of a process their own (initially
//! random) opinions dominate, so the estimate tracks the initial opinion
//! split — `½ ± Θ(1/√n)` — while the sources shift it by only `Θ(s/n)`.
//! SF's phase-0/phase-1 choreography makes non-source displays cancel
//! exactly, leaving the source signal as the *only* systematic bias; this
//! protocol shows what happens without that cancellation.

use crate::{require, ParamError};
use np_engine::opinion::Opinion;
use np_engine::population::Role;
use np_engine::protocol::{AgentState, Protocol, ScalarLayout};
use np_engine::streams::StreamRng;
use rand::Rng;

/// The mean-estimator ablation baseline. Binary alphabet.
///
/// # Example
///
/// ```
/// use np_baselines::mean_estimator::MeanEstimator;
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, run::Run, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// let config = PopulationConfig::new(64, 0, 1, 64)?;
/// let noise = NoiseMatrix::uniform(2, 0.1)?;
/// let proto = MeanEstimator::new(0.1)?;
/// let mut world = World::new(&proto, config, &noise, ChannelKind::Aggregated, 1)?;
/// world.run(100); // runs; reliable consensus is *not* expected
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanEstimator {
    delta: f64,
}

impl MeanEstimator {
    /// Creates the protocol; `delta` is the (known) uniform noise level
    /// used for debiasing.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `0 ≤ δ < ½`.
    pub fn new(delta: f64) -> Result<Self, ParamError> {
        require((0.0..0.5).contains(&delta), || {
            format!("delta {delta} outside [0, 0.5)")
        })?;
        Ok(MeanEstimator { delta })
    }

    /// The noise level used for debiasing.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

/// Per-agent state of the mean estimator.
#[derive(Debug, Clone)]
pub struct MeanEstimatorAgent {
    role: Role,
    delta: f64,
    zeros: u64,
    ones: u64,
    opinion: Opinion,
}

impl MeanEstimatorAgent {
    /// The debiased estimate of the displayed-1 fraction, or `None` before
    /// any observation.
    pub fn estimate(&self) -> Option<f64> {
        let total = self.zeros + self.ones;
        if total == 0 {
            return None;
        }
        let p_hat = self.ones as f64 / total as f64;
        Some((p_hat - self.delta) / (1.0 - 2.0 * self.delta))
    }
}

impl ScalarLayout for MeanEstimator {}

impl Protocol for MeanEstimator {
    type Agent = MeanEstimatorAgent;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> MeanEstimatorAgent {
        MeanEstimatorAgent {
            role,
            delta: self.delta,
            zeros: 0,
            ones: 0,
            opinion: role.preference().unwrap_or(Opinion::from_bool(rng.gen())),
        }
    }
}

impl AgentState for MeanEstimatorAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        match self.role {
            Role::Source(pref) => pref.as_index(),
            Role::NonSource => self.opinion.as_index(),
        }
    }

    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
        self.zeros += observed[0];
        self.ones += observed[1];
        if self.role.is_source() {
            // Sources keep their preference as opinion in this baseline.
            return;
        }
        match self.estimate() {
            Some(q) if q > 0.5 => self.opinion = Opinion::One,
            Some(q) if q < 0.5 => self.opinion = Opinion::Zero,
            Some(_) => self.opinion = Opinion::from_bool(rng.gen()),
            None => {}
        }
    }

    fn opinion(&self) -> Opinion {
        self.opinion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::channel::ChannelKind;
    use np_engine::population::PopulationConfig;
    use np_engine::run::Run;
    use np_engine::world::World;
    use np_linalg::noise::NoiseMatrix;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_delta() {
        let e = MeanEstimator::new(0.5).unwrap_err();
        assert!(e.to_string().contains("outside [0, 0.5)"), "{e}");
    }

    #[test]
    fn estimate_debiases_noise() {
        let mut rng = StreamRng::seed_from_u64(0);
        let proto = MeanEstimator::new(0.2).unwrap();
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        assert_eq!(agent.estimate(), None);
        // Observed fraction 0.2 equals the noise floor of an all-zero
        // population: estimate must be 0.
        agent.update(&[80, 20], &mut rng);
        let q = agent.estimate().unwrap();
        assert!(q.abs() < 1e-12, "estimate {q}");
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn opinion_follows_estimate() {
        let mut rng = StreamRng::seed_from_u64(1);
        let proto = MeanEstimator::new(0.0).unwrap();
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        agent.update(&[1, 9], &mut rng);
        assert_eq!(agent.opinion(), Opinion::One);
        // Totals are lifetime: need a lot of zeros to pull back.
        agent.update(&[98, 2], &mut rng);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn sources_keep_preference() {
        let mut rng = StreamRng::seed_from_u64(2);
        let proto = MeanEstimator::new(0.1).unwrap();
        let mut agent = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        agent.update(&[100, 0], &mut rng);
        assert_eq!(agent.opinion(), Opinion::One);
        assert_eq!(proto.delta(), 0.1);
    }

    #[test]
    fn fails_to_spread_from_single_source() {
        // The ablation's point: without neutral phases the estimate tracks
        // the initial opinion split, not the source. Over several seeds the
        // protocol must not reliably reach correct consensus.
        let mut successes = 0;
        for seed in 0..8 {
            let config = PopulationConfig::new(256, 0, 1, 256).unwrap();
            let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
            let proto = MeanEstimator::new(0.2).unwrap();
            let mut world =
                World::new(&proto, config, &noise, ChannelKind::Aggregated, seed).unwrap();
            if world.run_until_consensus(300).converged() {
                successes += 1;
            }
        }
        assert!(
            successes < 8,
            "mean estimator unexpectedly reliable ({successes}/8)"
        );
    }
}
