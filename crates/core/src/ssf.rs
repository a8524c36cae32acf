//! Algorithm SSF — *Self-stabilizing Source Filter* (Algorithm 2 of the
//! paper).
//!
//! SSF removes SF's simultaneous-wake-up assumption at the cost of 2-bit
//! messages. Each message is a pair `(tag, value) ∈ {0,1}²`:
//!
//! * sources always display `(1, preference)`;
//! * non-sources display `(0, weak_opinion)`.
//!
//! Every agent accumulates received messages in a bounded multiset `M`.
//! As soon as `|M|` reaches the capacity `m` — the agent has accumulated
//! `m` messages — it performs an *update round*:
//!
//! * the new **weak opinion** is the majority of the second bits among
//!   messages whose first bit is 1 (ties random) — messages that *claim* to
//!   come from a source;
//! * the new **opinion** is the majority of the second bits of *all*
//!   messages (ties random);
//! * `M` is emptied.
//!
//! Why the source tag is usable even though it is noisy: under δ-uniform
//! noise, a non-source message `(0, x)` whose first bit got flipped to 1
//! has a second bit *independent* of `x` (every corruption is equally
//! likely), so falsely-tagged messages are symmetric noise on the weak
//! opinion, while truly-tagged ones carry the source bias (Lemma 36). The
//! protocol is self-stabilizing because two update cycles flush any
//! adversarially planted memory (see [`crate::adversary`] for the
//! corruption strategies used in experiments).
//!
//! # Message encoding
//!
//! Symbols index the alphabet as `index = 2·tag + value`:
//! `0 = (0,0)`, `1 = (0,1)`, `2 = (1,0)`, `3 = (1,1)`.
//!
//! The transition lives once, in [`SsfAgent`]'s [`AgentState`] impl — the
//! record the `np_net` nodes run alone. A
//! `World<SelfStabilizingSourceFilter>` stores the population
//! struct-of-arrays ([`SsfColumns`]) and runs the same `display`/`update`
//! per agent by gathering and scattering records.

use std::ops::Range;

use np_engine::metrics::MetricsSweep;
use np_engine::opinion::Opinion;
use np_engine::packed::PackedChunkMut;
use np_engine::population::{PopulationConfig, Role};
use np_engine::protocol::{step_records, AgentState, ColumnarProtocol, ColumnarState, Protocol};
use np_engine::streams::{RoundStreams, StreamRng};
use rand::Rng;

use crate::params::SsfParams;
use crate::sf::majority;

/// Symbol index of the message `(tag, value)`.
pub fn encode(tag: bool, value: Opinion) -> usize {
    2 * usize::from(tag) + value.as_index()
}

/// Decodes a symbol index into `(tag, value)`.
///
/// # Panics
///
/// Panics if `symbol >= 4`.
#[expect(
    clippy::expect_used,
    reason = "symbol % 2 is always a valid Opinion index"
)]
pub fn decode(symbol: usize) -> (bool, Opinion) {
    assert!(symbol < 4, "symbol {symbol} outside the 2-bit alphabet");
    (
        symbol >= 2,
        Opinion::from_index(symbol % 2).expect("index in {0,1}"),
    )
}

/// The Self-stabilizing Source Filter protocol (Algorithm 2).
///
/// # Example
///
/// ```
/// use noisy_pull::{params::SsfParams, ssf::SelfStabilizingSourceFilter};
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, run::Run, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// let config = PopulationConfig::new(256, 0, 1, 256)?;
/// let params = SsfParams::derive(&config, 0.1, 4.0)?;
/// let noise = NoiseMatrix::uniform(4, 0.1)?;
/// let mut world = World::new(
///     &SelfStabilizingSourceFilter::new(params),
///     config,
///     &noise,
///     ChannelKind::Aggregated,
///     5,
/// )?;
/// world.run(params.expected_convergence_rounds() + 2);
/// assert!(world.is_consensus());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfStabilizingSourceFilter {
    params: SsfParams,
}

impl SelfStabilizingSourceFilter {
    /// Creates the protocol from derived parameters.
    pub fn new(params: SsfParams) -> Self {
        SelfStabilizingSourceFilter { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &SsfParams {
        &self.params
    }
}

/// Per-agent state of Algorithm SSF.
///
/// All fields the adversary of the self-stabilizing setting may corrupt are
/// reachable through [`SsfAgent::corrupt_state`]; the role and the
/// knowledge of `m` are protected, matching Section 1.3.
#[derive(Debug, Clone)]
pub struct SsfAgent {
    role: Role,
    m: u64,
    /// Message multiset as per-symbol counts (see module docs for the
    /// encoding).
    mem: [u64; 4],
    mem_size: u64,
    weak: Opinion,
    opinion: Opinion,
    /// Completed update rounds (memory flushes) — pure observability
    /// bookkeeping for traces; SSF has no phase schedule, so the flush
    /// count is its stage. Not corruptible (the adversary rewrites
    /// opinions and memory, not the trace clock).
    updates: u64,
}

impl SsfAgent {
    /// The current weak opinion `Ỹ`.
    pub fn weak_opinion(&self) -> Opinion {
        self.weak
    }

    /// Number of completed update rounds (memory flushes) so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The agent's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current memory occupancy `|M|`.
    pub fn memory_size(&self) -> u64 {
        self.mem_size
    }

    /// Current memory contents as per-symbol counts.
    pub fn memory(&self) -> [u64; 4] {
        self.mem
    }

    /// Overwrites the corruptible state — the adversary hook of the
    /// self-stabilizing setting (Section 1.3). The role and the capacity
    /// `m` are not corruptible.
    ///
    /// `memory` may contain arbitrary fake samples; its total may even
    /// exceed `m` (the next update will consume and flush it).
    pub fn corrupt_state(&mut self, weak: Opinion, opinion: Opinion, memory: [u64; 4]) {
        self.weak = weak;
        self.opinion = opinion;
        self.mem = memory;
        self.mem_size = memory.iter().sum();
    }

    /// The display rule: sources show `(1, preference)`, non-sources
    /// `(0, weak opinion)`. A function of two fields, so the packed display
    /// kernel of [`SsfColumns`] applies it straight from the lanes.
    fn shown(role: Role, weak: Opinion) -> usize {
        match role {
            Role::Source(pref) => encode(true, pref),
            Role::NonSource => encode(false, weak),
        }
    }

    /// The trace stage: completed update rounds, saturated into `u32`.
    fn stage_of(updates: u64) -> u32 {
        u32::try_from(updates).unwrap_or(u32::MAX)
    }
}

impl Protocol for SelfStabilizingSourceFilter {
    type Agent = SsfAgent;

    fn alphabet_size(&self) -> usize {
        4
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> SsfAgent {
        SsfAgent {
            role,
            m: self.params.m(),
            mem: [0; 4],
            mem_size: 0,
            weak: Opinion::from_bool(rng.gen()),
            opinion: Opinion::from_bool(rng.gen()),
            updates: 0,
        }
    }
}

impl AgentState for SsfAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        SsfAgent::shown(self.role, self.weak)
    }

    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
        debug_assert_eq!(observed.len(), 4);
        for (slot, &c) in self.mem.iter_mut().zip(observed) {
            *slot += c;
        }
        self.mem_size += observed.iter().sum::<u64>();
        np_engine::invariants::check_counter_bounded(
            "SSF memory counters",
            self.mem.iter().sum::<u64>(),
            self.mem_size,
        );
        if self.mem_size >= self.m {
            // Weak opinion: majority of second bits among source-tagged
            // messages — (1,1) vs (1,0).
            self.weak = majority(self.mem[3], self.mem[2], rng);
            // Opinion: majority of all second bits — (·,1) vs (·,0).
            self.opinion = majority(self.mem[1] + self.mem[3], self.mem[0] + self.mem[2], rng);
            self.mem = [0; 4];
            self.mem_size = 0;
            self.updates = self.updates.saturating_add(1);
        }
    }

    fn opinion(&self) -> Opinion {
        self.opinion
    }

    /// SSF has no phase schedule; the trace stage is the number of
    /// completed update rounds (saturated into `u32`), so stage
    /// transitions show the `m`-sample cadence of Theorem 5.
    fn stage_id(&self) -> u32 {
        SsfAgent::stage_of(self.updates)
    }

    fn weak_opinion(&self) -> Option<Opinion> {
        Some(self.weak)
    }

    /// The role is protected from the *adversary*, but the trend-change
    /// fault is the environment itself revising the ground truth — only
    /// this engine hook may touch the preference.
    fn flip_source_preference(&mut self) -> bool {
        self.role.flip_preference()
    }
}

np_engine::record_lanes! {
    /// Struct-of-arrays population state of SSF — what
    /// `World<SelfStabilizingSourceFilter>` runs: one lane per
    /// [`SsfAgent`] field, the capacity `m` stored once.
    pub struct SsfColumns, SsfChunkMut for SsfAgent {
        shared { m: u64 }
        lanes {
            role: Role,
            mem: [u64; 4],
            mem_size: u64,
            weak: Opinion,
            opinion: Opinion,
            updates: u64,
        }
    }
}

impl ColumnarProtocol for SelfStabilizingSourceFilter {
    type State = SsfColumns;

    fn alphabet_size(&self) -> usize {
        4
    }

    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> SsfColumns {
        SsfColumns::init(self, config, streams)
    }
}

impl ColumnarState for SsfColumns {
    type ChunkMut<'a> = SsfChunkMut<'a>;

    fn len(&self) -> usize {
        self.role.len()
    }

    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        _streams: &RoundStreams,
    ) {
        let lanes = self.role[range.clone()].iter().zip(&self.weak[range]);
        chunk.fill_with(lanes.map(|(&r, &w)| SsfAgent::shown(r, w)));
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<SsfChunkMut<'_>> {
        self.split_lanes(chunk_len)
    }

    fn step_chunk(
        chunk: &mut SsfChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    ) {
        step_records(chunk, range, observed, d, streams, awake);
    }

    fn flip_source_preferences(&mut self) -> usize {
        self.role
            .iter_mut()
            .map(Role::flip_preference)
            .filter(|&flipped| flipped)
            .count()
    }

    fn opinion(&self, id: usize) -> Opinion {
        self.opinion[id]
    }

    fn count_opinion(&self, opinion: Opinion) -> usize {
        self.opinion.iter().filter(|&&o| o == opinion).count()
    }

    fn stage_id(&self, id: usize) -> u32 {
        SsfAgent::stage_of(self.updates[id])
    }

    fn weak_opinion(&self, id: usize) -> Option<Opinion> {
        Some(self.weak[id])
    }

    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        let agents = self.opinion.iter().zip(&self.updates).zip(&self.weak);
        MetricsSweep::tally(
            correct,
            agents.map(|((&o, &u), &w)| (o, SsfAgent::stage_of(u), Some(w))),
        )
    }
}

impl np_engine::snapshot::SnapshotAgent for SsfAgent {
    const SNAP_TAG: &'static str = "ssf-agent/v1";

    fn encode_agent(&self, w: &mut np_engine::snapshot::SnapWriter) {
        w.put_role(self.role);
        w.put_u64(self.m);
        for &count in &self.mem {
            w.put_u64(count);
        }
        w.put_u64(self.mem_size);
        w.put_opinion(self.weak);
        w.put_opinion(self.opinion);
        w.put_u64(self.updates);
    }

    fn decode_agent(r: &mut np_engine::snapshot::SnapReader<'_>) -> np_engine::Result<Self> {
        Ok(SsfAgent {
            role: r.take_role()?,
            m: r.take_u64()?,
            mem: [r.take_u64()?, r.take_u64()?, r.take_u64()?, r.take_u64()?],
            mem_size: r.take_u64()?,
            weak: r.take_opinion()?,
            opinion: r.take_opinion()?,
            updates: r.take_u64()?,
        })
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

    fn ssf_world(
        n: usize,
        s0: usize,
        s1: usize,
        h: usize,
        delta: f64,
        seed: u64,
    ) -> (World<SelfStabilizingSourceFilter>, SsfParams) {
        let config = PopulationConfig::new(n, s0, s1, h).unwrap();
        let params = SsfParams::derive(&config, delta, 8.0).unwrap();
        let noise = NoiseMatrix::uniform(4, delta).unwrap();
        let world = World::new(
            &SelfStabilizingSourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            seed,
        )
        .unwrap();
        (world, params)
    }

    #[test]
    fn encoding_roundtrip() {
        for tag in [false, true] {
            for value in Opinion::ALL {
                let (t, v) = decode(encode(tag, value));
                assert_eq!((t, v), (tag, value));
            }
        }
        assert_eq!(encode(false, Opinion::Zero), 0);
        assert_eq!(encode(false, Opinion::One), 1);
        assert_eq!(encode(true, Opinion::Zero), 2);
        assert_eq!(encode(true, Opinion::One), 3);
    }

    #[test]
    #[should_panic(expected = "outside the 2-bit alphabet")]
    fn decode_out_of_range_panics() {
        let _ = decode(4);
    }

    #[test]
    fn displays_follow_roles() {
        let config = PopulationConfig::new(8, 1, 2, 8).unwrap();
        let params = SsfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(0);
        let src = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        assert_eq!(src.display(&mut rng), encode(true, Opinion::One));
        let src0 = proto.init_agent(Role::Source(Opinion::Zero), &mut rng);
        assert_eq!(src0.display(&mut rng), encode(true, Opinion::Zero));
        let non = proto.init_agent(Role::NonSource, &mut rng);
        assert_eq!(non.display(&mut rng), encode(false, non.weak_opinion()));
    }

    #[test]
    fn update_round_fires_exactly_at_m() {
        // Regression: the trigger used to be `mem_size > m`, silently
        // making the cadence m+1 per cycle. The paper accumulates exactly
        // `m` messages, then updates.
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.0, 1.0)
            .unwrap()
            .with_m(10)
            .unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(2);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        // 9 messages: still below m = 10, no update.
        agent.update(&[0, 0, 0, 9], &mut rng);
        assert_eq!(agent.memory_size(), 9);
        assert_eq!(agent.updates(), 0);
        // The m-th message triggers the update: memory flushed, weak from
        // (1,1) vs (1,0).
        agent.update(&[0, 0, 0, 1], &mut rng);
        assert_eq!(agent.memory_size(), 0);
        assert_eq!(agent.updates(), 1);
        assert_eq!(agent.weak_opinion(), Opinion::One);
        assert_eq!(agent.opinion(), Opinion::One);
    }

    #[test]
    fn weak_opinion_uses_only_tagged_messages() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.0, 1.0)
            .unwrap()
            .with_m(10)
            .unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(3);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        // 9 untagged zeros + 2 tagged ones: weak must follow the tagged
        // ones; opinion follows the overall majority (zeros).
        agent.update(&[9, 0, 0, 2], &mut rng);
        assert_eq!(agent.weak_opinion(), Opinion::One);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn tie_breaks_are_random() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.0, 1.0)
            .unwrap()
            .with_m(3)
            .unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut outcomes = [0u32; 2];
        for seed in 0..200 {
            let mut rng = StreamRng::seed_from_u64(seed);
            let mut agent = proto.init_agent(Role::NonSource, &mut rng);
            // (1,0) and (1,1) tied at 2 each.
            agent.update(&[0, 0, 2, 2], &mut rng);
            outcomes[agent.weak_opinion().as_index()] += 1;
        }
        assert!(
            outcomes[0] > 50 && outcomes[1] > 50,
            "biased ties: {outcomes:?}"
        );
    }

    #[test]
    fn converges_from_clean_start() {
        let (mut world, params) = ssf_world(256, 0, 1, 256, 0.1, 7);
        world.run(params.expected_convergence_rounds() + 2);
        assert!(
            world.is_consensus(),
            "correct: {}/256",
            world.correct_count()
        );
    }

    #[test]
    fn converges_to_zero_and_converts_minority_sources() {
        let (mut world, params) = ssf_world(256, 3, 1, 256, 0.1, 9);
        world.run(params.expected_convergence_rounds() + 2);
        assert!(world.is_consensus());
        assert!(world.iter_agents().all(|a| a.opinion() == Opinion::Zero));
    }

    #[test]
    fn converges_from_adversarial_all_wrong() {
        let (mut world, params) = ssf_world(256, 0, 1, 256, 0.1, 11);
        // Adversary: every agent starts convinced of the wrong opinion with
        // a memory stuffed with fake all-wrong source messages.
        world.corrupt_agents(|_, agent, _| {
            let m = agent.m;
            agent.corrupt_state(Opinion::Zero, Opinion::Zero, [0, 0, m, 0]);
        });
        assert_eq!(world.correct_count(), 0);
        world.run(2 * params.expected_convergence_rounds() + 4);
        assert!(
            world.is_consensus(),
            "correct: {}/256",
            world.correct_count()
        );
    }

    #[test]
    fn consensus_persists() {
        let (mut world, params) = ssf_world(128, 0, 1, 128, 0.1, 13);
        world.run(params.expected_convergence_rounds() + 2);
        assert!(world.is_consensus());
        // Run through several more full update cycles: consensus must hold
        // at every round (Definition 2's persistence requirement, spot
        // check).
        for _ in 0..4 * params.update_interval() {
            world.step();
            assert!(
                world.is_consensus(),
                "consensus lost at round {}",
                world.round()
            );
        }
    }

    #[test]
    fn corrupt_state_respects_protected_fields() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        agent.corrupt_state(Opinion::Zero, Opinion::Zero, [7, 7, 7, 7]);
        assert_eq!(agent.memory_size(), 28);
        assert_eq!(agent.memory(), [7, 7, 7, 7]);
        assert_eq!(agent.opinion(), Opinion::Zero);
        // The display still reflects the protected role and preference.
        assert_eq!(agent.display(&mut rng), encode(true, Opinion::One));
        assert_eq!(agent.role(), Role::Source(Opinion::One));
    }

    #[test]
    fn protocol_accessors() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        assert_eq!(Protocol::alphabet_size(&proto), 4);
        assert_eq!(proto.params(), &params);
    }
}
