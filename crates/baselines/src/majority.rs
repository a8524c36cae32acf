//! Repeated local majority over the `h` per-round observations.
//!
//! Majority dynamics converge extremely fast — to whichever opinion
//! already dominates the displays. With a handful of sources in a sea of
//! arbitrary initial opinions, the source signal (order `s/n` per
//! observation) is invisible to a single-round majority, so the population
//! locks into its initial majority regardless of the correct opinion. SF's
//! listening phases exist precisely to manufacture a population-wide bias
//! *before* switching to majority amplification; this baseline is that
//! amplification step alone.

use std::ops::Range;

use np_engine::metrics::MetricsSweep;
use np_engine::opinion::Opinion;
use np_engine::packed::PackedChunkMut;
use np_engine::population::{PopulationConfig, Role};
use np_engine::protocol::{step_records, AgentState, ColumnarProtocol, ColumnarState, Protocol};
use np_engine::streams::{RoundStreams, StreamRng};
use rand::Rng;

/// The h-majority baseline. Binary alphabet; sources display and keep
/// their preference, non-sources adopt the majority of each round's
/// observations (ties random).
///
/// The rule lives once, in [`MajorityAgent`]'s [`AgentState`] impl;
/// `World<HMajority>` runs it over the struct-of-arrays
/// [`MajorityColumns`].
///
/// # Example
///
/// ```
/// use np_baselines::majority::HMajority;
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, run::Run, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// let config = PopulationConfig::new(64, 0, 1, 64)?;
/// let noise = NoiseMatrix::uniform(2, 0.1)?;
/// let mut world = World::new(&HMajority, config, &noise, ChannelKind::Aggregated, 2)?;
/// world.run(50);
/// // A single source cannot tip majority dynamics: on this seed the
/// // initial coin flips lock in the wrong side, so no consensus on 1.
/// assert!(!world.is_consensus());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HMajority;

/// Per-agent state of the h-majority baseline.
#[derive(Debug, Clone)]
pub struct MajorityAgent {
    role: Role,
    opinion: Opinion,
}

impl MajorityAgent {
    /// The agent's role.
    pub fn role(&self) -> Role {
        self.role
    }
}

impl Protocol for HMajority {
    type Agent = MajorityAgent;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> MajorityAgent {
        MajorityAgent {
            role,
            opinion: role.preference().unwrap_or(Opinion::from_bool(rng.gen())),
        }
    }
}

impl AgentState for MajorityAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        self.opinion.as_index()
    }

    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
        if let Role::Source(pref) = self.role {
            self.opinion = pref;
            return;
        }
        self.opinion = match observed[1].cmp(&observed[0]) {
            std::cmp::Ordering::Greater => Opinion::One,
            std::cmp::Ordering::Less => Opinion::Zero,
            std::cmp::Ordering::Equal => Opinion::from_bool(rng.gen()),
        };
    }

    fn opinion(&self) -> Opinion {
        self.opinion
    }

    /// Memoryless dynamics: every agent is always in the single stage 0.
    /// Stated explicitly (the trait default is the same) so the baseline
    /// documents its lack of phase structure next to SF's schedule.
    fn stage_id(&self) -> u32 {
        0
    }
}

np_engine::record_lanes! {
    /// Struct-of-arrays population state of the h-majority baseline —
    /// what `World<HMajority>` runs.
    pub struct MajorityColumns, MajorityChunkMut for MajorityAgent {
        shared {}
        lanes { role: Role, opinion: Opinion }
    }
}

impl ColumnarProtocol for HMajority {
    type State = MajorityColumns;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> MajorityColumns {
        MajorityColumns::init(self, config, streams)
    }
}

impl ColumnarState for MajorityColumns {
    type ChunkMut<'a> = MajorityChunkMut<'a>;

    fn len(&self) -> usize {
        self.role.len()
    }

    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        _streams: &RoundStreams,
    ) {
        chunk.fill_with(self.opinion[range].iter().map(|o| o.as_index()));
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<MajorityChunkMut<'_>> {
        self.split_lanes(chunk_len)
    }

    fn step_chunk(
        chunk: &mut MajorityChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    ) {
        step_records(chunk, range, observed, d, streams, awake);
    }

    fn opinion(&self, id: usize) -> Opinion {
        self.opinion[id]
    }

    fn count_opinion(&self, opinion: Opinion) -> usize {
        self.opinion.iter().filter(|&&o| o == opinion).count()
    }

    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        MetricsSweep::tally(correct, self.opinion.iter().map(|&o| (o, 0, None)))
    }
}

impl np_engine::snapshot::SnapshotAgent for MajorityAgent {
    const SNAP_TAG: &'static str = "majority-agent/v1";

    fn encode_agent(&self, w: &mut np_engine::snapshot::SnapWriter) {
        w.put_role(self.role);
        w.put_opinion(self.opinion);
    }

    fn decode_agent(r: &mut np_engine::snapshot::SnapReader<'_>) -> np_engine::Result<Self> {
        Ok(MajorityAgent {
            role: r.take_role()?,
            opinion: r.take_opinion()?,
        })
    }
}

/// Mean-field class-count state of the h-majority baseline
/// ([`np_engine::counts`] backend).
///
/// Majority's memory is one round deep, so the class structure is a
/// single count: non-source agents holding opinion 1. Sources are
/// stubborn at their preference; each round every non-source
/// independently adopts the majority of `h` fresh observations from the
/// collapsed law (fair coin on ties), so the new count is
/// `Binom(#non-sources, majority_prob(h, q₁))` — exact under the
/// aggregated with-replacement collapse.
#[derive(Debug, Clone)]
pub struct MajorityCountsState {
    n: u64,
    s0: u64,
    s1: u64,
    /// Non-source agents holding opinion 1.
    non_ones: u64,
}

impl MajorityCountsState {
    /// Agents (sources included) currently holding opinion 1.
    pub fn ones(&self) -> u64 {
        self.non_ones + self.s1
    }
}

impl np_engine::counts::CountsProtocol for HMajority {
    type State = MajorityCountsState;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_counts(&self, config: &PopulationConfig, rng: &mut StreamRng) -> MajorityCountsState {
        let n = config.n() as u64;
        let s0 = config.s0() as u64;
        let s1 = config.s1() as u64;
        // Sources start at their preference; non-sources flip a fair coin
        // (same law as `init_agent`).
        let non_ones = np_stats::binomial::sample_unchecked(rng, n - s0 - s1, 0.5);
        MajorityCountsState {
            n,
            s0,
            s1,
            non_ones,
        }
    }
}

impl np_engine::counts::CountsState for MajorityCountsState {
    fn display_histogram(&self, out: &mut [u64]) {
        out[1] = self.ones();
        out[0] = self.n - out[1];
    }

    fn advance_round(&mut self, obs_law: &[f64], h: u64, rng: &mut StreamRng) {
        let p_one = np_stats::binomial::majority_prob_unchecked(h, obs_law[1]);
        let non = self.n - self.s0 - self.s1;
        self.non_ones = np_stats::binomial::sample_unchecked(rng, non, p_one);
    }

    fn metrics_sweep(&self, correct: Opinion) -> np_engine::metrics::MetricsSweep {
        let n = self.n as usize;
        let ones = self.ones() as usize;
        np_engine::metrics::MetricsSweep {
            correct: match correct {
                Opinion::One => ones,
                Opinion::Zero => n - ones,
            },
            stages: vec![(0, n)],
            weak_formed: 0,
            weak_correct: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::channel::ChannelKind;
    use np_engine::counts::CountsWorld;
    use np_engine::population::PopulationConfig;
    use np_engine::run::Run;
    use np_engine::world::World;
    use np_linalg::noise::NoiseMatrix;
    use rand::SeedableRng;

    #[test]
    fn counts_port_converges_with_source_majority() {
        // Mirrors the engine's toy example: 40 one-sources out of 64 under
        // 10% noise drive majority dynamics to consensus.
        let config = PopulationConfig::new(64, 0, 40, 64).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut w = CountsWorld::new(&HMajority, config, &noise, 42).unwrap();
        assert!(w.run_until_consensus(500).converged());
        assert_eq!(w.state().ones(), 64);
    }

    #[test]
    fn sources_are_stubborn() {
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = HMajority.init_agent(Role::Source(Opinion::Zero), &mut rng);
        agent.update(&[0, 99], &mut rng);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn non_source_takes_majority() {
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = HMajority.init_agent(Role::NonSource, &mut rng);
        agent.update(&[2, 6], &mut rng);
        assert_eq!(agent.opinion(), Opinion::One);
        agent.update(&[6, 2], &mut rng);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn ties_break_randomly() {
        let mut rng = StreamRng::seed_from_u64(2);
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            let mut agent = HMajority.init_agent(Role::NonSource, &mut rng);
            agent.update(&[4, 4], &mut rng);
            counts[agent.opinion().as_index()] += 1;
        }
        assert!(counts[0] > 100 && counts[1] > 100, "{counts:?}");
    }

    #[test]
    fn amplifies_existing_majority_fast() {
        // Majority of stubborn sources: convergence in a handful of
        // rounds even under noise.
        let config = PopulationConfig::new(128, 0, 80, 128).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut world = World::new(&HMajority, config, &noise, ChannelKind::Aggregated, 3).unwrap();
        let outcome = world.run_until_consensus(100);
        assert!(outcome.converged());
        assert!(outcome.rounds().unwrap() < 20);
    }

    #[test]
    fn cannot_reliably_spread_from_single_source() {
        // The failure that motivates SF: one source among random initial
        // opinions. Majority dynamics lock into whichever side the initial
        // coin flips favor — the source's signal (1/n per observation) is
        // invisible — so success is a ~fair coin per run. Twelve
        // consecutive successes would be a 2^-12 event.
        let mut converged = 0;
        for seed in 0..12 {
            let config = PopulationConfig::new(256, 0, 1, 256).unwrap();
            let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
            let mut world =
                World::new(&HMajority, config, &noise, ChannelKind::Aggregated, seed).unwrap();
            if world.run_until_consensus(300).converged() {
                converged += 1;
            }
        }
        assert!(
            converged < 12,
            "single-source majority succeeded in all runs — it should behave like a coin flip"
        );
    }
}
