//! The zealot voter model: copy one random observation; zealots (sources)
//! never budge.
//!
//! This is the dynamics used in Gelblum et al. \[12\] to argue that a
//! single informed "crazy ant" can *eventually* steer the group: the
//! stationary distribution favors the zealots' opinion, but convergence is
//! slow (coupon-collector-like mixing) and, under noise, the instantaneous
//! configuration keeps fluctuating. The paper's question — "can it happen
//! *fast*?" — is answered by SF/SSF, with this protocol as the natural
//! reference point.

use np_engine::opinion::Opinion;
use np_engine::population::Role;
use np_engine::protocol::{AgentState, Protocol, ScalarLayout};
use np_engine::streams::StreamRng;
use rand::Rng;

/// The zealot voter protocol. Binary alphabet; sources display and keep
/// their preference, non-sources copy one uniformly chosen observation per
/// round.
///
/// # Example
///
/// ```
/// use np_baselines::voter::ZealotVoter;
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, run::Run, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// let config = PopulationConfig::new(64, 0, 16, 4)?;
/// let noise = NoiseMatrix::uniform(2, 0.0)?; // noiseless
/// let mut world = World::new(&ZealotVoter, config, &noise, ChannelKind::Aggregated, 1)?;
/// let outcome = world.run_until_consensus(50_000);
/// assert!(outcome.converged()); // noiseless zealot voter eventually absorbs
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ZealotVoter;

/// Per-agent state of the zealot voter.
#[derive(Debug, Clone)]
pub struct VoterAgent {
    role: Role,
    opinion: Opinion,
}

impl VoterAgent {
    /// The agent's role.
    pub fn role(&self) -> Role {
        self.role
    }
}

impl ScalarLayout for ZealotVoter {}

impl Protocol for ZealotVoter {
    type Agent = VoterAgent;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> VoterAgent {
        VoterAgent {
            role,
            opinion: role.preference().unwrap_or(Opinion::from_bool(rng.gen())),
        }
    }
}

impl AgentState for VoterAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        self.opinion.as_index()
    }

    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
        if let Role::Source(pref) = self.role {
            // Zealot: immune to influence.
            self.opinion = pref;
            return;
        }
        // Copy one uniformly chosen observation: with counts (c0, c1), the
        // chosen sample is 1 with probability c1/(c0+c1).
        let total = observed[0] + observed[1];
        if total == 0 {
            return;
        }
        let pick = rng.gen_range(0..total);
        self.opinion = Opinion::from_bool(pick >= observed[0]);
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
    fn zealots_never_change() {
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = ZealotVoter.init_agent(Role::Source(Opinion::One), &mut rng);
        agent.update(&[100, 0], &mut rng);
        assert_eq!(agent.opinion(), Opinion::One);
        assert_eq!(agent.role(), Role::Source(Opinion::One));
    }

    #[test]
    fn non_source_copies_unanimous_observation() {
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = ZealotVoter.init_agent(Role::NonSource, &mut rng);
        agent.update(&[0, 5], &mut rng);
        assert_eq!(agent.opinion(), Opinion::One);
        agent.update(&[5, 0], &mut rng);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn copy_probability_is_proportional_to_counts() {
        let mut rng = StreamRng::seed_from_u64(2);
        let mut ones = 0u32;
        let trials = 20_000;
        for _ in 0..trials {
            let mut agent = ZealotVoter.init_agent(Role::NonSource, &mut rng);
            agent.update(&[3, 1], &mut rng);
            ones += agent.opinion().as_index() as u32;
        }
        let frac = ones as f64 / trials as f64;
        assert!((frac - 0.25).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn empty_observation_keeps_opinion() {
        let mut rng = StreamRng::seed_from_u64(3);
        let mut agent = ZealotVoter.init_agent(Role::NonSource, &mut rng);
        let before = agent.opinion();
        agent.update(&[0, 0], &mut rng);
        assert_eq!(agent.opinion(), before);
    }

    #[test]
    fn noiseless_voter_converges_with_many_zealots() {
        let config = PopulationConfig::new(32, 0, 8, 4).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.0).unwrap();
        let mut world =
            World::new(&ZealotVoter, config, &noise, ChannelKind::Aggregated, 5).unwrap();
        let outcome = world.run_until_consensus(20_000);
        assert!(outcome.converged());
    }

    #[test]
    fn noisy_voter_does_not_stabilize() {
        // Under constant noise, the voter configuration keeps churning:
        // full consensus states are not absorbing, so even if hit, they are
        // immediately lost. Check that the fraction of correct agents stays
        // far from 1 over a long window.
        let config = PopulationConfig::new(128, 0, 1, 4).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let mut world =
            World::new(&ZealotVoter, config, &noise, ChannelKind::Aggregated, 6).unwrap();
        world.run(800);
        let mut max_correct = 0;
        for _ in 0..200 {
            world.step();
            max_correct = max_correct.max(world.correct_count());
        }
        assert!(
            max_correct < 128,
            "noisy voter should not hold full consensus"
        );
    }
}
