//! Algorithm SF — *Source Filter* (Algorithm 1 of the paper).
//!
//! The fastest protocol: binary messages, synchronous start. Three phases:
//!
//! * **Phase 0** (`T = ⌈m/h⌉` rounds): sources display their preference,
//!   non-sources display `0`; every agent counts observed `1`s
//!   (`Counter₁`).
//! * **Phase 1** (`T` rounds): sources display their preference,
//!   non-sources display `1`; every agent counts observed `0`s
//!   (`Counter₀`).
//! * **Weak opinion**: `Ỹ = 1{Counter₁ > Counter₀}`, ties broken by a fair
//!   coin. The two-phase construction makes the counting *symmetric*:
//!   noise-corrupted non-source messages contribute equally to both
//!   counters in expectation, so the source bias "stands out".
//! * **Majority Boosting** (`⌈10·ln n⌉` sub-phases of `⌈w/h⌉` rounds each
//!   plus one final sub-phase of `T` rounds): everyone displays their
//!   current opinion and replaces it with the majority of the messages
//!   gathered during each sub-phase.
//!
//! The weak opinions are mutually independent across agents (they depend
//! only on the agent's own samples, noise, and tie-breaking coin — Lemma
//! 28), each correct with probability `≥ ½ + 4√(ln n / n)`, and boosting
//! amplifies that margin to consensus w.h.p.
//!
//! The transition lives once, in [`SfAgent`]'s [`AgentState`] impl. A
//! `World<SourceFilter>` stores the population struct-of-arrays
//! ([`SfColumns`]: one lane per record field) and runs that same
//! `display`/`update` per agent by gathering and scattering records.

use std::ops::Range;

use np_engine::metrics::MetricsSweep;
use np_engine::opinion::Opinion;
use np_engine::packed::PackedChunkMut;
use np_engine::population::{PopulationConfig, Role};
use np_engine::protocol::{step_records, AgentState, ColumnarProtocol, ColumnarState, Protocol};
use np_engine::streams::{RoundStreams, StreamRng};
use rand::Rng;

use crate::params::SfParams;

/// `1{ones > zeros}`, ties broken by a fair coin — the majority rule of
/// SF's weak opinion and boosting (and of SSF and SF-ALT), drawing only
/// on an actual tie.
pub(crate) fn majority<R: Rng + ?Sized>(ones: u64, zeros: u64, rng: &mut R) -> Opinion {
    match ones.cmp(&zeros) {
        std::cmp::Ordering::Greater => Opinion::One,
        std::cmp::Ordering::Less => Opinion::Zero,
        std::cmp::Ordering::Equal => Opinion::from_bool(rng.gen()),
    }
}

/// The Source Filter protocol (Algorithm 1). Construct with derived
/// [`SfParams`] and run on an [`np_engine::world::World`].
///
/// # Example
///
/// ```
/// use noisy_pull::{params::SfParams, sf::SourceFilter};
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, run::Run, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// let config = PopulationConfig::new(256, 0, 1, 256)?; // single source, h = n
/// let params = SfParams::derive(&config, 0.2, 1.0)?;
/// let noise = NoiseMatrix::uniform(2, 0.2)?;
/// let mut world = World::new(
///     &SourceFilter::new(params),
///     config,
///     &noise,
///     ChannelKind::Aggregated,
///     7,
/// )?;
/// world.run(params.total_rounds());
/// assert!(world.is_consensus());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceFilter {
    params: SfParams,
}

impl SourceFilter {
    /// Creates the protocol from a derived schedule.
    pub fn new(params: SfParams) -> Self {
        SourceFilter { params }
    }

    /// The schedule in use.
    pub fn params(&self) -> &SfParams {
        &self.params
    }
}

/// Execution stage of an SF agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Phase 0: neutral agents display 0, everyone counts observed 1s.
    Listen0,
    /// Phase 1: neutral agents display 1, everyone counts observed 0s.
    Listen1,
    /// Majority boosting; the payload is the current sub-phase index
    /// (`0..=num_short_subphases`, the last being the long one).
    Boost(u64),
    /// Schedule complete; the opinion is final.
    Done,
}

impl Stage {
    /// Stage numbering for traces: Listen₀ = 0, Listen₁ = 1,
    /// Boost(k) = 2 + k, Done = `u32::MAX`.
    fn id(self) -> u32 {
        match self {
            Stage::Listen0 => 0,
            Stage::Listen1 => 1,
            // Saturates below Done so an (impossibly) deep boost index can
            // never masquerade as completion.
            Stage::Boost(k) => u32::try_from(k.saturating_add(2))
                .unwrap_or(u32::MAX)
                .min(u32::MAX - 1),
            Stage::Done => u32::MAX,
        }
    }
}

/// Per-agent state of Algorithm SF.
///
/// Inspect [`SfAgent::weak_opinion`] after the listening phases for the
/// weak-opinion experiments (Lemma 28).
#[derive(Debug, Clone)]
pub struct SfAgent {
    role: Role,
    params: SfParams,
    stage: Stage,
    /// Rounds completed within the current stage.
    round_in_stage: u64,
    /// 1-messages observed during Phase 0.
    counter1: u64,
    /// 0-messages observed during Phase 1.
    counter0: u64,
    weak: Option<Opinion>,
    opinion: Opinion,
    /// Boosting memory: messages observed in the current sub-phase,
    /// as (zeros, ones).
    mem: [u64; 2],
    /// Total messages observed in the current stage — invariant
    /// bookkeeping: every counter is bounded by it (see
    /// [`np_engine::invariants::check_counter_bounded`]).
    gathered: u64,
}

impl SfAgent {
    /// The weak opinion `Ỹ`, available once Phases 0 and 1 are complete.
    pub fn weak_opinion(&self) -> Option<Opinion> {
        self.weak
    }

    /// The agent's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// `Counter₁` (1s observed in Phase 0) — exposed for analysis
    /// experiments.
    pub fn counter1(&self) -> u64 {
        self.counter1
    }

    /// `Counter₀` (0s observed in Phase 1) — exposed for analysis
    /// experiments.
    pub fn counter0(&self) -> u64 {
        self.counter0
    }

    /// Returns `true` once the schedule has completed.
    pub fn is_done(&self) -> bool {
        self.stage == Stage::Done
    }

    /// Jumps the agent straight to the start of the Majority Boosting
    /// phase with the given opinion, skipping the listening phases.
    ///
    /// This exists for the Lemma 33 experiment, which measures how
    /// boosting amplifies a *controlled* initial margin; it is not part of
    /// the protocol itself.
    pub fn force_boost_stage(&mut self, opinion: Opinion) {
        self.stage = Stage::Boost(0);
        self.round_in_stage = 0;
        self.weak = Some(opinion);
        self.opinion = opinion;
        self.mem = [0, 0];
        self.gathered = 0;
    }

    /// The display rule: sources show their preference while listening,
    /// non-sources the phase's neutral value; everyone shows the opinion
    /// while boosting. A function of three fields, so the packed display
    /// kernel of [`SfColumns`] applies it straight from the lanes.
    fn shown(stage: Stage, role: Role, opinion: Opinion) -> usize {
        match stage {
            Stage::Listen0 => match role {
                Role::Source(pref) => pref.as_index(),
                Role::NonSource => 0,
            },
            Stage::Listen1 => match role {
                Role::Source(pref) => pref.as_index(),
                Role::NonSource => 1,
            },
            Stage::Boost(_) | Stage::Done => opinion.as_index(),
        }
    }
}

impl Protocol for SourceFilter {
    type Agent = SfAgent;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> SfAgent {
        SfAgent {
            role,
            params: self.params,
            stage: Stage::Listen0,
            round_in_stage: 0,
            counter1: 0,
            counter0: 0,
            weak: None,
            // The opinion is undefined until the weak opinion exists; a
            // fair coin avoids a spurious all-correct configuration at
            // round zero.
            opinion: Opinion::from_bool(rng.gen()),
            mem: [0, 0],
            gathered: 0,
        }
    }
}

impl AgentState for SfAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        SfAgent::shown(self.stage, self.role, self.opinion)
    }

    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
        debug_assert_eq!(observed.len(), 2);
        match self.stage {
            Stage::Listen0 => {
                self.counter1 += observed[1];
                self.round_in_stage += 1;
                self.gathered += observed.iter().sum::<u64>();
                np_engine::invariants::check_counter_bounded(
                    "SF Counter₁",
                    self.counter1,
                    self.gathered,
                );
                if self.round_in_stage >= self.params.phase_len() {
                    self.stage = Stage::Listen1;
                    self.round_in_stage = 0;
                    self.gathered = 0;
                }
            }
            Stage::Listen1 => {
                self.counter0 += observed[0];
                self.round_in_stage += 1;
                self.gathered += observed.iter().sum::<u64>();
                np_engine::invariants::check_counter_bounded(
                    "SF Counter₀",
                    self.counter0,
                    self.gathered,
                );
                if self.round_in_stage >= self.params.phase_len() {
                    // Ỹ := 1{Counter₁ > Counter₀}, ties broken randomly.
                    let weak = majority(self.counter1, self.counter0, rng);
                    self.weak = Some(weak);
                    self.opinion = weak;
                    self.stage = Stage::Boost(0);
                    self.round_in_stage = 0;
                    self.mem = [0, 0];
                    self.gathered = 0;
                }
            }
            Stage::Boost(subphase) => {
                self.mem[0] += observed[0];
                self.mem[1] += observed[1];
                self.round_in_stage += 1;
                self.gathered += observed.iter().sum::<u64>();
                np_engine::invariants::check_counter_bounded(
                    "SF boosting memory",
                    self.mem[0] + self.mem[1],
                    self.gathered,
                );
                let len = if subphase < self.params.num_short_subphases() {
                    self.params.subphase_len()
                } else {
                    self.params.final_subphase_len()
                };
                if self.round_in_stage >= len {
                    self.opinion = majority(self.mem[1], self.mem[0], rng);
                    self.mem = [0, 0];
                    self.round_in_stage = 0;
                    self.gathered = 0;
                    if subphase >= self.params.num_short_subphases() {
                        self.stage = Stage::Done;
                    } else {
                        self.stage = Stage::Boost(subphase + 1);
                    }
                }
            }
            Stage::Done => {}
        }
    }

    fn opinion(&self) -> Opinion {
        self.opinion
    }

    /// Stage numbering for traces: Listen₀ = 0, Listen₁ = 1,
    /// Boost(k) = 2 + k, Done = `u32::MAX`.
    fn stage_id(&self) -> u32 {
        self.stage.id()
    }

    fn weak_opinion(&self) -> Option<Opinion> {
        self.weak
    }

    /// Trend-change fault hook: the environment revises the ground truth
    /// (only sources carry a preference to flip).
    fn flip_source_preference(&mut self) -> bool {
        self.role.flip_preference()
    }
}

np_engine::record_lanes! {
    /// Struct-of-arrays population state of SF — what
    /// `World<SourceFilter>` runs: one lane per [`SfAgent`] field, the
    /// schedule stored once.
    pub struct SfColumns, SfChunkMut for SfAgent {
        shared { params: SfParams }
        lanes {
            role: Role,
            stage: Stage,
            round_in_stage: u64,
            counter1: u64,
            counter0: u64,
            weak: Option<Opinion>,
            opinion: Opinion,
            mem: [u64; 2],
            gathered: u64,
        }
    }
}

impl ColumnarProtocol for SourceFilter {
    type State = SfColumns;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> SfColumns {
        SfColumns::init(self, config, streams)
    }
}

impl ColumnarState for SfColumns {
    type ChunkMut<'a> = SfChunkMut<'a>;

    fn len(&self) -> usize {
        self.role.len()
    }

    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        _streams: &RoundStreams,
    ) {
        let lanes = self.stage[range.clone()]
            .iter()
            .zip(&self.role[range.clone()])
            .zip(&self.opinion[range]);
        chunk.fill_with(lanes.map(|((&s, &r), &o)| SfAgent::shown(s, r, o)));
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<SfChunkMut<'_>> {
        self.split_lanes(chunk_len)
    }

    fn step_chunk(
        chunk: &mut SfChunkMut<'_>,
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
        self.stage[id].id()
    }

    fn weak_opinion(&self, id: usize) -> Option<Opinion> {
        self.weak[id]
    }

    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        let agents = self.opinion.iter().zip(&self.stage).zip(&self.weak);
        MetricsSweep::tally(correct, agents.map(|((&o, &s), &w)| (o, s.id(), w)))
    }
}

impl np_engine::snapshot::SnapshotAgent for SfAgent {
    const SNAP_TAG: &'static str = "sf-agent/v1";

    fn encode_agent(&self, w: &mut np_engine::snapshot::SnapWriter) {
        w.put_role(self.role);
        self.params.encode_snap(w);
        match self.stage {
            Stage::Listen0 => w.put_u8(0),
            Stage::Listen1 => w.put_u8(1),
            Stage::Boost(k) => {
                w.put_u8(2);
                w.put_u64(k);
            }
            Stage::Done => w.put_u8(3),
        }
        w.put_u64(self.round_in_stage);
        w.put_u64(self.counter1);
        w.put_u64(self.counter0);
        w.put_opt_opinion(self.weak);
        w.put_opinion(self.opinion);
        w.put_u64(self.mem[0]);
        w.put_u64(self.mem[1]);
        w.put_u64(self.gathered);
    }

    fn decode_agent(r: &mut np_engine::snapshot::SnapReader<'_>) -> np_engine::Result<Self> {
        let role = r.take_role()?;
        let params = SfParams::decode_snap(r)?;
        let stage = match r.take_u8()? {
            0 => Stage::Listen0,
            1 => Stage::Listen1,
            2 => Stage::Boost(r.take_u64()?),
            3 => Stage::Done,
            x => {
                return Err(np_engine::EngineError::BadSnapshot {
                    detail: format!("invalid SF stage byte {x}"),
                })
            }
        };
        Ok(SfAgent {
            role,
            params,
            stage,
            round_in_stage: r.take_u64()?,
            counter1: r.take_u64()?,
            counter0: r.take_u64()?,
            weak: r.take_opt_opinion()?,
            opinion: r.take_opinion()?,
            mem: [r.take_u64()?, r.take_u64()?],
            gathered: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::channel::ChannelKind;
    use np_engine::run::Run;
    use np_engine::world::World;
    use np_linalg::noise::NoiseMatrix;
    use rand::SeedableRng;

    fn sf_world(
        n: usize,
        s0: usize,
        s1: usize,
        h: usize,
        delta: f64,
        seed: u64,
    ) -> (World<SourceFilter>, SfParams) {
        let config = PopulationConfig::new(n, s0, s1, h).unwrap();
        let params = SfParams::derive(&config, delta, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        let world = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            seed,
        )
        .unwrap();
        (world, params)
    }

    #[test]
    fn displays_follow_phase_script() {
        let config = PopulationConfig::new(8, 1, 2, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(0);
        let src1 = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        let src0 = proto.init_agent(Role::Source(Opinion::Zero), &mut rng);
        let non = proto.init_agent(Role::NonSource, &mut rng);
        // Phase 0: sources display preference, non-sources display 0.
        assert_eq!(src1.display(&mut rng), 1);
        assert_eq!(src0.display(&mut rng), 0);
        assert_eq!(non.display(&mut rng), 0);
        // Advance a non-source into Phase 1 by feeding phase_len updates.
        let mut non1 = non.clone();
        for _ in 0..params.phase_len() {
            non1.update(&[8, 0], &mut rng);
        }
        assert_eq!(non1.display(&mut rng), 1);
        assert!(non1.weak_opinion().is_none());
    }

    #[test]
    fn counters_accumulate_per_phase() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0)
            .unwrap()
            .with_m(16)
            .unwrap();
        let proto = SourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        // Phase 0 lasts 2 rounds (m=16, h=8): counts only 1s.
        agent.update(&[5, 3], &mut rng);
        agent.update(&[6, 2], &mut rng);
        assert_eq!(agent.counter1(), 5);
        assert_eq!(agent.counter0(), 0);
        // Phase 1: counts only 0s.
        agent.update(&[7, 1], &mut rng);
        agent.update(&[8, 0], &mut rng);
        assert_eq!(agent.counter0(), 15);
        // Weak opinion: counter1 (5) < counter0 (15) ⇒ Zero.
        assert_eq!(agent.weak_opinion(), Some(Opinion::Zero));
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn weak_opinion_tie_breaks_randomly() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0)
            .unwrap()
            .with_m(8)
            .unwrap();
        let proto = SourceFilter::new(params);
        let mut outcomes = [0u32; 2];
        for seed in 0..200 {
            let mut rng = StreamRng::seed_from_u64(seed);
            let mut agent = proto.init_agent(Role::NonSource, &mut rng);
            agent.update(&[4, 4], &mut rng); // counter1 = 4
            agent.update(&[4, 4], &mut rng); // counter0 = 4 → tie
            outcomes[agent.weak_opinion().unwrap().as_index()] += 1;
        }
        assert!(
            outcomes[0] > 50 && outcomes[1] > 50,
            "tie-break biased: {outcomes:?}"
        );
    }

    #[test]
    fn boosting_takes_majority_each_subphase() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0)
            .unwrap()
            .with_m(8)
            .unwrap();
        let proto = SourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(3);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        agent.update(&[0, 8], &mut rng); // phase 0: counter1 = 8
        agent.update(&[8, 0], &mut rng); // phase 1: counter0 = 8... tie
                                         // (counter1 = 8 vs counter0 = 8 → coin; force by re-running until
                                         // set, then drive boosting deterministically).
        let w_rounds = params.subphase_len();
        // Feed all-ones for one sub-phase: opinion must become One.
        for _ in 0..w_rounds {
            agent.update(&[0, 8], &mut rng);
        }
        assert_eq!(agent.opinion(), Opinion::One);
        // Feed all-zeros for the next sub-phase: opinion must flip.
        for _ in 0..w_rounds {
            agent.update(&[8, 0], &mut rng);
        }
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn agent_reaches_done_after_total_rounds() {
        let (mut world, params) = sf_world(32, 0, 1, 32, 0.1, 5);
        world.run(params.total_rounds());
        assert!(world.iter_agents().all(|a| a.is_done()));
        // One more round is a no-op for state.
        let before: Vec<Opinion> = world.iter_agents().map(|a| a.opinion()).collect();
        world.run(1);
        let after: Vec<Opinion> = world.iter_agents().map(|a| a.opinion()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn converges_single_source_h_equals_n() {
        let (mut world, params) = sf_world(256, 0, 1, 256, 0.2, 11);
        world.run(params.total_rounds());
        assert!(
            world.is_consensus(),
            "correct: {}/256",
            world.correct_count()
        );
    }

    #[test]
    fn converges_to_zero_majority() {
        // Correct opinion 0 must also win (symmetry).
        let (mut world, params) = sf_world(256, 3, 1, 256, 0.2, 13);
        world.run(params.total_rounds());
        assert!(world.is_consensus());
        assert!(world.iter_agents().all(|a| a.opinion() == Opinion::Zero));
    }

    #[test]
    fn converges_with_conflicting_sources() {
        // 5 vs 4 sources: plurality (One) must win and convert the four
        // 0-preferring sources too.
        let (mut world, params) = sf_world(256, 4, 5, 256, 0.15, 17);
        world.run(params.total_rounds());
        assert!(world.is_consensus());
    }

    #[test]
    fn converges_under_exact_channel_too() {
        let config = PopulationConfig::new(128, 0, 1, 64).unwrap();
        let params = SfParams::derive(&config, 0.15, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.15).unwrap();
        let mut world = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Exact,
            19,
        )
        .unwrap();
        world.run(params.total_rounds());
        assert!(world.is_consensus());
    }

    #[test]
    fn converges_noiseless() {
        let (mut world, params) = sf_world(64, 0, 1, 64, 0.0, 23);
        world.run(params.total_rounds());
        assert!(world.is_consensus());
    }

    #[test]
    fn weak_opinions_beat_a_half_on_average() {
        // Lemma 28 (shape check): across seeds, the fraction of correct
        // weak opinions exceeds 1/2.
        let mut correct = 0u64;
        let mut total = 0u64;
        for seed in 0..20 {
            let (mut world, params) = sf_world(128, 0, 1, 128, 0.2, 100 + seed);
            world.run(2 * params.phase_len());
            for agent in world.iter_agents() {
                if agent.weak_opinion() == Some(Opinion::One) {
                    correct += 1;
                }
                total += 1;
            }
        }
        let frac = correct as f64 / total as f64;
        assert!(frac > 0.5, "weak-opinion accuracy {frac} ≤ 1/2");
    }

    #[test]
    fn columns_refuse_records_with_mixed_schedules() {
        use np_engine::protocol::AgentRecords;
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let slow = SourceFilter::new(SfParams::derive(&config, 0.1, 1.0).unwrap());
        let fast = SourceFilter::new(SfParams::derive(&config, 0.2, 1.0).unwrap());
        let mut rng = StreamRng::seed_from_u64(0);
        let agents = vec![
            slow.init_agent(Role::NonSource, &mut rng),
            fast.init_agent(Role::NonSource, &mut rng),
        ];
        let err = SfColumns::from_agents(agents).unwrap_err();
        assert!(
            matches!(err, np_engine::EngineError::BadSnapshot { .. }),
            "{err}"
        );
        assert!(SfColumns::from_agents(Vec::new()).is_err());
    }

    #[test]
    fn columns_gather_and_scatter_whole_records() {
        // `force_boost_stage` rewrites most of a record; through
        // `corrupt_agents` it must land in every lane of the columns.
        let (mut world, _) = sf_world(96, 0, 1, 96, 0.1, 3);
        world.corrupt_agents(|id, agent, _| {
            if id % 2 == 0 {
                agent.force_boost_stage(Opinion::Zero);
            }
        });
        for (id, agent) in world.iter_agents().enumerate() {
            let boosted = id % 2 == 0;
            assert_eq!(agent.stage_id(), if boosted { 2 } else { 0 }, "agent {id}");
            assert_eq!(world.state().stage_id(id), agent.stage_id());
            assert_eq!(agent.weak_opinion(), boosted.then_some(Opinion::Zero));
            assert_eq!(world.state().weak_opinion(id), agent.weak_opinion());
        }
    }

    #[test]
    fn protocol_accessors() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SourceFilter::new(params);
        assert_eq!(Protocol::alphabet_size(&proto), 2);
        assert_eq!(proto.params(), &params);
        let mut rng = StreamRng::seed_from_u64(0);
        let agent = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        assert_eq!(agent.role(), Role::Source(Opinion::One));
        assert!(!agent.is_done());
    }
}
