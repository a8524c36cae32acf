//! Classic "copy the informed agent" rumor spreading, run naively under
//! noise.
//!
//! Without noise, this is the textbook PULL rumor-spreading protocol
//! \[16\]: messages carry an *informed* flag and a value; an uninformed
//! agent that samples an informed one copies the value and becomes
//! informed itself, giving `O(log n)` spreading time.
//!
//! Under noise, the informed flag itself gets corrupted. With `Θ(n)`
//! uninformed agents each round, even a small flip probability mints
//! `Θ(δ·n·h)` *falsely informed* observations carrying coin-flip values —
//! vastly outnumbering the genuinely informed ones in the early rounds.
//! The population "informs" itself with garbage and locks it in: footnote
//! 2 of the paper ("if messages are noisy then this bit cannot be
//! trusted"), made executable.
//!
//! Message encoding matches [`noisy_pull`'s SSF]: `index = 2·informed +
//! value`.

use np_engine::opinion::Opinion;
use np_engine::population::Role;
use np_engine::protocol::{AgentState, Protocol, ScalarLayout};
use np_engine::streams::StreamRng;
use rand::Rng;

/// The trusting-copy rumor-spreading baseline (4-symbol alphabet).
///
/// # Example
///
/// ```
/// use np_baselines::trusting_copy::TrustingCopy;
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, run::Run, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// // Noiseless: classic rumor spreading, logarithmic convergence.
/// let config = PopulationConfig::new(256, 0, 1, 8)?;
/// let noise = NoiseMatrix::uniform(4, 0.0)?;
/// let mut world = World::new(&TrustingCopy, config, &noise, ChannelKind::Aggregated, 1)?;
/// let outcome = world.run_until_consensus(200);
/// assert!(outcome.converged());
/// assert!(outcome.rounds().unwrap() < 50);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrustingCopy;

/// Per-agent state of the trusting-copy baseline.
#[derive(Debug, Clone)]
pub struct TrustingCopyAgent {
    role: Role,
    informed: bool,
    opinion: Opinion,
}

impl TrustingCopyAgent {
    /// Whether the agent believes it knows the rumor.
    pub fn is_informed(&self) -> bool {
        self.informed
    }
}

impl ScalarLayout for TrustingCopy {}

impl Protocol for TrustingCopy {
    type Agent = TrustingCopyAgent;

    fn alphabet_size(&self) -> usize {
        4
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> TrustingCopyAgent {
        match role {
            Role::Source(pref) => TrustingCopyAgent {
                role,
                informed: true,
                opinion: pref,
            },
            Role::NonSource => TrustingCopyAgent {
                role,
                informed: false,
                opinion: Opinion::from_bool(rng.gen()),
            },
        }
    }
}

impl AgentState for TrustingCopyAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        2 * usize::from(self.informed) + self.opinion.as_index()
    }

    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
        if self.role.is_source() || self.informed {
            // Sources and already-informed agents are settled.
            return;
        }
        // Count observations claiming to be informed: symbols 2 = (1,0)
        // and 3 = (1,1). Copy a uniformly random one of them.
        let informed_zero = observed[2];
        let informed_one = observed[3];
        let total = informed_zero + informed_one;
        if total == 0 {
            return;
        }
        let pick = rng.gen_range(0..total);
        self.opinion = Opinion::from_bool(pick >= informed_zero);
        self.informed = true;
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
    fn sources_start_informed_and_settled() {
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = TrustingCopy.init_agent(Role::Source(Opinion::One), &mut rng);
        assert!(agent.is_informed());
        assert_eq!(agent.display(&mut rng), 3);
        agent.update(&[0, 0, 99, 0], &mut rng);
        assert_eq!(agent.opinion(), Opinion::One);
    }

    #[test]
    fn uninformed_copies_informed_observation() {
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = TrustingCopy.init_agent(Role::NonSource, &mut rng);
        assert!(!agent.is_informed());
        // No informed observations: stays uninformed.
        agent.update(&[5, 5, 0, 0], &mut rng);
        assert!(!agent.is_informed());
        // One informed (1,1): copies value 1, becomes informed.
        agent.update(&[5, 5, 0, 1], &mut rng);
        assert!(agent.is_informed());
        assert_eq!(agent.opinion(), Opinion::One);
        // Once informed, further observations are ignored.
        agent.update(&[0, 0, 99, 0], &mut rng);
        assert_eq!(agent.opinion(), Opinion::One);
    }

    #[test]
    fn noiseless_spreading_is_logarithmic() {
        let config = PopulationConfig::new(1024, 0, 1, 4).unwrap();
        let noise = NoiseMatrix::uniform(4, 0.0).unwrap();
        let mut world =
            World::new(&TrustingCopy, config, &noise, ChannelKind::Aggregated, 2).unwrap();
        let outcome = world.run_until_consensus(500);
        assert!(outcome.converged());
        // ~log_{1+h'}(n) + coupon-collector tail; generous cap.
        assert!(outcome.rounds().unwrap() < 60, "rounds: {outcome:?}");
    }

    #[test]
    fn noise_poisons_the_informed_flag() {
        // With δ = 0.1 on the 4-symbol alphabet, false informed tags vastly
        // outnumber the single genuine source early on. The population
        // must NOT reliably reach correct consensus; typically about half
        // of the agents lock in the wrong value.
        let mut failures = 0;
        for seed in 0..8 {
            let config = PopulationConfig::new(512, 0, 1, 8).unwrap();
            let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
            let mut world =
                World::new(&TrustingCopy, config, &noise, ChannelKind::Aggregated, seed).unwrap();
            let outcome = world.run_until_consensus(500);
            if !outcome.converged() {
                failures += 1;
                // Spot-check the failure mode: a large wrong faction.
                let correct = world.correct_count();
                assert!(correct < 512, "timed out yet all correct?");
            }
        }
        assert!(
            failures >= 6,
            "trusting copy unexpectedly robust: {failures}/8 failures"
        );
    }
}
