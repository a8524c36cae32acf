//! SF-ALT — the "more natural" variant from the Remark in §2.1 of the
//! paper.
//!
//! > *"Perhaps a more natural algorithm would allow each agent to first
//! > flip a fair coin to determine the message it will present on the
//! > first round, and then, over the following rounds, deterministically
//! > alternate between 0 and 1. While it is plausible that such a scheme
//! > would work as well, it does add some complexity to the analysis."*
//!
//! This module implements that scheme so the plausibility claim can be
//! tested (experiment EXP-VARIANT). During a single combined listening
//! stage of `2T` rounds, each non-source displays
//! `b, 1−b, b, …` for a fair coin `b`, while sources display their
//! preference; every agent accumulates the *signed difference*
//! `#1s − #0s` over all observations. Over an even number of rounds every
//! non-source displays each value exactly `T` times, so the background
//! cancels *exactly* in expectation and the source bias is the only
//! systematic drift — the same effect SF achieves with its two all-0 /
//! all-1 phases, without the population-wide phase switch. The weak
//! opinion is the sign of the difference; Majority Boosting is then
//! identical to SF's.
//!
//! The measurable trade-off: here a sampled non-source contributes a
//! `Bernoulli(≈½)` value (extra variance per observation), whereas SF's
//! phases make the background deterministic within each phase; SF-ALT's
//! weak opinions are therefore expected to be slightly *less* accurate at
//! equal `m` — quantified in EXP-VARIANT.
//!
//! As with SF, the transition lives once in [`AltSfAgent`]'s
//! [`AgentState`] impl and `World<AlternatingSourceFilter>` runs it over
//! the struct-of-arrays [`AltSfColumns`].

use std::ops::Range;

use np_engine::metrics::MetricsSweep;
use np_engine::opinion::Opinion;
use np_engine::packed::PackedChunkMut;
use np_engine::population::{PopulationConfig, Role};
use np_engine::protocol::{step_records, AgentState, ColumnarProtocol, ColumnarState, Protocol};
use np_engine::streams::{RoundStreams, StreamRng};
use rand::Rng;

use crate::params::SfParams;
use crate::sf::majority;

/// The alternating-display Source Filter variant (Remark, §2.1). Shares
/// [`SfParams`] with [`crate::sf::SourceFilter`]: the same `m`, phase
/// lengths and boosting schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlternatingSourceFilter {
    params: SfParams,
}

impl AlternatingSourceFilter {
    /// Creates the protocol from a derived schedule.
    pub fn new(params: SfParams) -> Self {
        AlternatingSourceFilter { params }
    }

    /// The schedule in use.
    pub fn params(&self) -> &SfParams {
        &self.params
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// The combined listening stage (`2T` rounds).
    Listening,
    /// Majority boosting, with the sub-phase index.
    Boost(u64),
    /// Schedule complete.
    Done,
}

impl Stage {
    /// Stage numbering for traces: Listening = 0, Boost(k) = 2 + k,
    /// Done = `u32::MAX`. Stage 1 is left unused so boost stages line up
    /// with plain SF's numbering.
    fn id(self) -> u32 {
        match self {
            Stage::Listening => 0,
            Stage::Boost(k) => u32::try_from(k.saturating_add(2))
                .unwrap_or(u32::MAX)
                .min(u32::MAX - 1),
            Stage::Done => u32::MAX,
        }
    }
}

/// Per-agent state of SF-ALT.
#[derive(Debug, Clone)]
pub struct AltSfAgent {
    role: Role,
    params: SfParams,
    stage: Stage,
    round_in_stage: u64,
    /// The value displayed on even listening rounds (the initial coin).
    base_display: Opinion,
    /// Running `#1s − #0s` over all listening observations.
    diff: i64,
    weak: Option<Opinion>,
    opinion: Opinion,
    mem: [u64; 2],
}

impl AltSfAgent {
    /// The weak opinion, available once the listening stage completed.
    pub fn weak_opinion(&self) -> Option<Opinion> {
        self.weak
    }

    /// The running signed evidence `#1s − #0s`.
    pub fn evidence(&self) -> i64 {
        self.diff
    }

    /// Returns `true` once the schedule has completed.
    pub fn is_done(&self) -> bool {
        self.stage == Stage::Done
    }

    /// The display rule: while listening, sources show their preference
    /// and non-sources `b` on even rounds, `1−b` on odd ones; everyone
    /// shows the opinion while boosting. A function of five fields, so the
    /// packed display kernel of [`AltSfColumns`] applies it straight from
    /// the lanes.
    fn shown(
        stage: Stage,
        role: Role,
        round_in_stage: u64,
        base_display: Opinion,
        opinion: Opinion,
    ) -> usize {
        match stage {
            Stage::Listening => match role {
                Role::Source(pref) => pref.as_index(),
                Role::NonSource if round_in_stage.is_multiple_of(2) => base_display.as_index(),
                Role::NonSource => (!base_display).as_index(),
            },
            Stage::Boost(_) | Stage::Done => opinion.as_index(),
        }
    }
}

impl Protocol for AlternatingSourceFilter {
    type Agent = AltSfAgent;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> AltSfAgent {
        AltSfAgent {
            role,
            params: self.params,
            stage: Stage::Listening,
            round_in_stage: 0,
            base_display: Opinion::from_bool(rng.gen()),
            diff: 0,
            weak: None,
            opinion: Opinion::from_bool(rng.gen()),
            mem: [0, 0],
        }
    }
}

impl AgentState for AltSfAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        AltSfAgent::shown(
            self.stage,
            self.role,
            self.round_in_stage,
            self.base_display,
            self.opinion,
        )
    }

    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
        debug_assert_eq!(observed.len(), 2);
        match self.stage {
            Stage::Listening => {
                self.diff += observed[1] as i64 - observed[0] as i64;
                self.round_in_stage += 1;
                if self.round_in_stage >= 2 * self.params.phase_len() {
                    // The sign of #1s − #0s, ties broken randomly.
                    let weak = match self.diff.cmp(&0) {
                        std::cmp::Ordering::Greater => Opinion::One,
                        std::cmp::Ordering::Less => Opinion::Zero,
                        std::cmp::Ordering::Equal => Opinion::from_bool(rng.gen()),
                    };
                    self.weak = Some(weak);
                    self.opinion = weak;
                    self.stage = Stage::Boost(0);
                    self.round_in_stage = 0;
                    self.mem = [0, 0];
                }
            }
            Stage::Boost(subphase) => {
                self.mem[0] += observed[0];
                self.mem[1] += observed[1];
                self.round_in_stage += 1;
                let len = if subphase < self.params.num_short_subphases() {
                    self.params.subphase_len()
                } else {
                    self.params.final_subphase_len()
                };
                if self.round_in_stage >= len {
                    self.opinion = majority(self.mem[1], self.mem[0], rng);
                    self.mem = [0, 0];
                    self.round_in_stage = 0;
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
    /// Struct-of-arrays population state of SF-ALT — what
    /// `World<AlternatingSourceFilter>` runs: one lane per [`AltSfAgent`]
    /// field, the schedule stored once.
    pub struct AltSfColumns, AltSfChunkMut for AltSfAgent {
        shared { params: SfParams }
        lanes {
            role: Role,
            stage: Stage,
            round_in_stage: u64,
            base_display: Opinion,
            diff: i64,
            weak: Option<Opinion>,
            opinion: Opinion,
            mem: [u64; 2],
        }
    }
}

impl ColumnarProtocol for AlternatingSourceFilter {
    type State = AltSfColumns;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> AltSfColumns {
        AltSfColumns::init(self, config, streams)
    }
}

impl ColumnarState for AltSfColumns {
    type ChunkMut<'a> = AltSfChunkMut<'a>;

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
            .zip(&self.round_in_stage[range.clone()])
            .zip(&self.base_display[range.clone()])
            .zip(&self.opinion[range]);
        chunk.fill_with(lanes.map(|((((&s, &r), &k), &b), &o)| AltSfAgent::shown(s, r, k, b, o)));
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<AltSfChunkMut<'_>> {
        self.split_lanes(chunk_len)
    }

    fn step_chunk(
        chunk: &mut AltSfChunkMut<'_>,
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

impl np_engine::snapshot::SnapshotAgent for AltSfAgent {
    const SNAP_TAG: &'static str = "sf-alt-agent/v1";

    fn encode_agent(&self, w: &mut np_engine::snapshot::SnapWriter) {
        w.put_role(self.role);
        self.params.encode_snap(w);
        match self.stage {
            Stage::Listening => w.put_u8(0),
            Stage::Boost(k) => {
                w.put_u8(1);
                w.put_u64(k);
            }
            Stage::Done => w.put_u8(2),
        }
        w.put_u64(self.round_in_stage);
        w.put_opinion(self.base_display);
        w.put_i64(self.diff);
        w.put_opt_opinion(self.weak);
        w.put_opinion(self.opinion);
        w.put_u64(self.mem[0]);
        w.put_u64(self.mem[1]);
    }

    fn decode_agent(r: &mut np_engine::snapshot::SnapReader<'_>) -> np_engine::Result<Self> {
        let role = r.take_role()?;
        let params = SfParams::decode_snap(r)?;
        let stage = match r.take_u8()? {
            0 => Stage::Listening,
            1 => Stage::Boost(r.take_u64()?),
            2 => Stage::Done,
            x => {
                return Err(np_engine::EngineError::BadSnapshot {
                    detail: format!("invalid SF-ALT stage byte {x}"),
                })
            }
        };
        Ok(AltSfAgent {
            role,
            params,
            stage,
            round_in_stage: r.take_u64()?,
            base_display: r.take_opinion()?,
            diff: r.take_i64()?,
            weak: r.take_opt_opinion()?,
            opinion: r.take_opinion()?,
            mem: [r.take_u64()?, r.take_u64()?],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::channel::ChannelKind;
    use np_engine::population::PopulationConfig;
    use np_engine::world::World;
    use np_linalg::noise::NoiseMatrix;
    use rand::SeedableRng;

    fn params(n: usize, h: usize, delta: f64) -> SfParams {
        let config = PopulationConfig::new(n, 0, 1, h).unwrap();
        SfParams::derive(&config, delta, 1.0).unwrap()
    }

    #[test]
    fn non_source_alternates_displays() {
        let proto = AlternatingSourceFilter::new(params(8, 8, 0.1));
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        let first = agent.display(&mut rng);
        agent.update(&[4, 4], &mut rng);
        let second = agent.display(&mut rng);
        assert_ne!(first, second, "display must alternate");
        agent.update(&[4, 4], &mut rng);
        assert_eq!(agent.display(&mut rng), first);
    }

    #[test]
    fn initial_display_coin_is_fair() {
        let proto = AlternatingSourceFilter::new(params(8, 8, 0.1));
        let mut ones = 0;
        for seed in 0..400 {
            let mut rng = StreamRng::seed_from_u64(seed);
            let agent = proto.init_agent(Role::NonSource, &mut rng);
            ones += agent.display(&mut rng);
        }
        assert!((120..280).contains(&ones), "biased coin: {ones}/400");
    }

    #[test]
    fn sources_display_preference_throughout_listening() {
        let proto = AlternatingSourceFilter::new(params(8, 8, 0.1));
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        for _ in 0..5 {
            assert_eq!(agent.display(&mut rng), 1);
            agent.update(&[4, 4], &mut rng);
        }
    }

    #[test]
    fn evidence_accumulates_signed_difference() {
        let proto = AlternatingSourceFilter::new(params(8, 8, 0.1));
        let mut rng = StreamRng::seed_from_u64(2);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        agent.update(&[2, 6], &mut rng);
        assert_eq!(agent.evidence(), 4);
        agent.update(&[7, 1], &mut rng);
        assert_eq!(agent.evidence(), -2);
        assert!(agent.weak_opinion().is_none());
    }

    #[test]
    fn weak_opinion_is_sign_of_evidence() {
        let p = params(8, 8, 0.1).with_m(8).unwrap(); // phase_len = 1, listening = 2 rounds
        let proto = AlternatingSourceFilter::new(p);
        let mut rng = StreamRng::seed_from_u64(3);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        agent.update(&[1, 7], &mut rng);
        agent.update(&[3, 5], &mut rng);
        assert_eq!(agent.weak_opinion(), Some(Opinion::One));
        assert_eq!(agent.opinion(), Opinion::One);
    }

    #[test]
    fn converges_single_source_h_equals_n() {
        let n = 256;
        let p = params(n, n, 0.2);
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let mut world = World::new(
            &AlternatingSourceFilter::new(p),
            config,
            &noise,
            ChannelKind::Aggregated,
            7,
        )
        .unwrap();
        world.run(p.total_rounds());
        assert!(world.is_consensus(), "{}/{n}", world.correct_count());
        assert!(world.iter_agents().all(|a| a.is_done()));
    }

    #[test]
    fn converges_with_conflicting_sources() {
        // c₁ = 2: SF-ALT pays extra background variance relative to SF
        // (see module docs), so at this small n the default budget leaves
        // a few percent failure probability per run.
        let n = 256;
        let config = PopulationConfig::new(n, 2, 3, n).unwrap();
        let p = SfParams::derive(&config, 0.15, 2.0).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.15).unwrap();
        let mut world = World::new(
            &AlternatingSourceFilter::new(p),
            config,
            &noise,
            ChannelKind::Aggregated,
            9,
        )
        .unwrap();
        world.run(p.total_rounds());
        assert!(world.is_consensus());
    }

    #[test]
    fn accessors() {
        let p = params(8, 8, 0.1);
        let proto = AlternatingSourceFilter::new(p);
        assert_eq!(Protocol::alphabet_size(&proto), 2);
        assert_eq!(proto.params(), &p);
    }
}
