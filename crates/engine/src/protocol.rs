//! The protocol abstraction: what a spreading algorithm must provide to run
//! on the engine.
//!
//! Two levels exist:
//!
//! * The **per-agent** level — [`Protocol`] / [`AgentState`] — one record
//!   per agent carrying that agent's display and update rule. This is
//!   where each protocol's transition lives, exactly once, and it is what
//!   runs wherever one agent lives alone (the message-passing nodes of
//!   `np_net`, wrappers such as the artificial-noise reduction).
//!
//! * The **population** level — [`ColumnarProtocol`] / [`ColumnarState`] —
//!   one state for the whole population, processed in agent *chunks*. This
//!   is what [`crate::world::World`] actually runs: chunks go to scoped
//!   threads, and per-agent RNG streams ([`crate::streams`]) keep the
//!   result bit-identical for any thread count or chunk size.
//!
//! A protocol reaches the population level in one of two ways:
//!
//! * it declares [`ScalarLayout`], and the blanket adapter
//!   (`impl<P: Protocol + ScalarLayout> ColumnarProtocol for P`) runs its
//!   records as a [`ScalarState`] — a plain `Vec` chunked by sub-slices;
//! * or it implements [`ColumnarProtocol`] itself with a struct-of-arrays
//!   state whose chunk kernels gather one agent's record, call its
//!   [`AgentState::update`], and scatter it back ([`step_records`]) — the
//!   paper's protocols do this, so the hot loop touches a few contiguous
//!   lanes instead of striding over fat records, without a second copy of
//!   the transition.
//!
//! Either way [`AgentRecords`] gives per-agent access to the state (the
//! adversary hooks and experiments read and corrupt agents through it), and
//! a state whose records have a [`crate::snapshot::SnapshotAgent`] codec is
//! snapshot-able in the one per-agent layout.
//!
//! # Why observations are count vectors
//!
//! In the noisy PULL model agents are anonymous: an observation carries no
//! sender identity, only a (noisy) symbol. Every algorithm in the paper —
//! SF's counters, SSF's majority-over-memory, the boosting majority — is a
//! symmetric function of the received *multiset* of symbols, and a multiset
//! over `Σ` is exactly a count vector of length `|Σ|`. Delivering counts is
//! therefore lossless, and it is what allows the aggregated channel to skip
//! materializing individual messages.

use std::ops::Range;

use rand::Rng;

use crate::streams::{LazyRng, StreamRng};

use crate::metrics::MetricsSweep;
use crate::opinion::Opinion;
use crate::packed::PackedChunkMut;
use crate::population::{PopulationConfig, Role};
use crate::streams::{RoundStreams, StreamStage};

/// A spreading algorithm: a factory of per-agent state machines plus static
/// protocol metadata.
pub trait Protocol {
    /// The per-agent state machine type.
    type Agent: AgentState;

    /// Size of the communication alphabet `|Σ|` (2 for SF, 4 for SSF).
    fn alphabet_size(&self) -> usize;

    /// Creates the initial state for an agent with the given role.
    ///
    /// `rng` may be used for randomized initialization; the engine passes
    /// the agent's [`StreamStage::Init`] stream.
    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> Self::Agent;
}

/// The per-agent, per-round behaviour of a protocol.
///
/// `Send + Sync` is required because the world shares agent state across
/// chunk workers; agent states are plain data, so the bounds are free.
pub trait AgentState: Send + Sync {
    /// The symbol (index into `Σ`) this agent displays this round.
    ///
    /// Called exactly once per round, *before* any observations are
    /// delivered, matching step 1 of the model. `rng` is the agent's
    /// [`StreamStage::Display`] stream for the round.
    fn display(&self, rng: &mut StreamRng) -> usize;

    /// Consumes this round's observations: `observed[σ]` is how many of the
    /// agent's `h` samples arrived (post-noise) as symbol `σ`. `rng` is the
    /// agent's [`StreamStage::Update`] stream for the round — eager
    /// ([`StreamRng`]) or created on first draw ([`LazyRng`]); both yield
    /// the same draws.
    fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R);

    /// The agent's current opinion `Y ∈ {0, 1}`.
    fn opinion(&self) -> Opinion;

    /// A small integer naming the agent's current phase/stage, for
    /// observability only (stage-occupancy counts in
    /// [`crate::metrics::RoundMetrics`]). Protocols with phase structure
    /// override this (e.g. SF reports Listen₀ → Listen₁ → Boost(k) → Done);
    /// the default reports a single stage `0`. Must not consume randomness
    /// or mutate state.
    fn stage_id(&self) -> u32 {
        0
    }

    /// The agent's weak opinion `Y_w`, once formed — `None` before it
    /// exists or for protocols without one. Observability only; the
    /// default reports `None`.
    fn weak_opinion(&self) -> Option<Opinion> {
        None
    }

    /// Inverts this agent's source preference, if it has one — the
    /// "trend change" fault of [`crate::faults`] (the environment's
    /// ground truth flips mid-run). Returns `true` if a preference was
    /// flipped. The default is a no-op: protocols whose roles carry a
    /// preference opt in.
    fn flip_source_preference(&mut self) -> bool {
        false
    }
}

/// Opt-in for the blanket adapter: the protocol runs on the world as a
/// [`ScalarState`] of its per-agent records.
///
/// Protocols without a struct-of-arrays state of their own declare it with
/// an empty `impl ScalarLayout for MyProtocol {}`; protocols that
/// implement [`ColumnarProtocol`] directly must not.
pub trait ScalarLayout: Protocol {}

/// A spreading algorithm at the population level: a factory for one
/// population state.
///
/// Implemented automatically for every [`Protocol`] that declares
/// [`ScalarLayout`] (via [`ScalarState`]); implement it directly to give a
/// protocol a struct-of-arrays state.
pub trait ColumnarProtocol {
    /// The whole-population state type.
    type State: ColumnarState;

    /// Size of the communication alphabet `|Σ|`.
    fn alphabet_size(&self) -> usize;

    /// Builds the initial population state. Implementations must draw each
    /// agent's initialization randomness from
    /// `streams.rng(id, StreamStage::Init)`, so a struct-of-arrays state and
    /// the [`ScalarState`] of the same records initialize identically.
    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> Self::State;
}

/// Whole-population protocol state, processable in agent chunks.
///
/// The world drives one round as: [`ColumnarState::display_chunk_packed`]
/// over disjoint ranges (shared `&self`), then the channel fills observations,
/// then [`ColumnarState::step_chunk`] over the disjoint mutable views
/// produced by [`ColumnarState::chunks_mut`]. All randomness comes from the
/// per-agent streams passed in, never from shared state — that is the
/// whole-engine invariant making results independent of chunking.
pub trait ColumnarState: Send + Sync {
    /// A mutable view of one contiguous agent chunk, safe to hand to a
    /// worker thread.
    type ChunkMut<'a>: Send
    where
        Self: 'a;

    /// Number of agents.
    fn len(&self) -> usize;

    /// Returns `true` for an empty population (never built by the world;
    /// provided for completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the displayed symbols of agents `range` into a packed
    /// bit-plane chunk ([`crate::packed`]) — the representation the hot
    /// round loop runs on. `chunk` covers exactly the agents of `range`
    /// (`chunk.start() == range.start`, `chunk.len() == range.len()`);
    /// implementations must overwrite every agent of it. Display
    /// randomness, if any, comes from `streams.rng(id, StreamStage::Display)`
    /// per agent.
    ///
    /// The blanket scalar adapter calls each record's
    /// [`AgentState::display`] in 64-agent windows; struct-of-arrays
    /// states write whole words with [`PackedChunkMut::fill_with`]. The
    /// exact channel, which samples literal symbols, unpacks the planes.
    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        streams: &RoundStreams,
    );

    /// Splits the population into disjoint mutable chunk views of
    /// `chunk_len` agents each (the last may be shorter), in agent order.
    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<Self::ChunkMut<'_>>;

    /// Updates the agents of one chunk. `range` holds the global agent ids
    /// covered by `chunk`; `observed` is the flattened
    /// `range.len() × d` observation-count matrix for exactly those
    /// agents. Update randomness comes from
    /// `streams.rng(id, StreamStage::Update)` per agent.
    ///
    /// `awake`, when present, is the chunk-local sleep mask of the fault
    /// subsystem ([`crate::faults`]): agents with `awake[i] == false` are
    /// asleep this round — they displayed, but their update is skipped
    /// entirely (state untouched, no update randomness drawn). `None`
    /// means everyone is awake (the fault-free fast path).
    ///
    /// An associated function (no `&self`) so the world needs no protocol
    /// reference after initialization.
    fn step_chunk(
        chunk: &mut Self::ChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    );

    /// Inverts the source preference of every agent that has one — the
    /// columnar form of [`AgentState::flip_source_preference`]. Returns
    /// how many preferences were flipped. The default is a no-op.
    fn flip_source_preferences(&mut self) -> usize {
        0
    }

    /// The current opinion of agent `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    fn opinion(&self, id: usize) -> Opinion;

    /// Number of agents currently holding `opinion`. The default scans
    /// [`ColumnarState::opinion`]; struct-of-arrays states override it
    /// with a lane sweep.
    fn count_opinion(&self, opinion: Opinion) -> usize {
        (0..self.len())
            .filter(|&i| self.opinion(i) == opinion)
            .count()
    }

    /// The stage id of agent `id` — the columnar form of
    /// [`AgentState::stage_id`]. Observability only; the default reports a
    /// single stage `0`.
    ///
    /// # Panics
    ///
    /// May panic if `id >= self.len()`.
    fn stage_id(&self, _id: usize) -> u32 {
        0
    }

    /// The weak opinion of agent `id`, once formed — the columnar form of
    /// [`AgentState::weak_opinion`]. Observability only; the default
    /// reports `None`.
    ///
    /// # Panics
    ///
    /// May panic if `id >= self.len()`.
    fn weak_opinion(&self, _id: usize) -> Option<Opinion> {
        None
    }

    /// One observability sweep over the population: correct-opinion
    /// count, stage occupancy, and weak-opinion accuracy, all relative to
    /// `correct`. This is what [`crate::world::World`] collects into
    /// [`crate::metrics::RoundMetrics`] each observed round — the default
    /// walks the per-agent accessors; struct-of-arrays states override it
    /// with a single fused pass over their lanes. Overrides must be
    /// *value*-identical to the default (the run-summary artifacts are
    /// byte-compared); folding through [`MetricsSweep::tally`] guarantees
    /// it.
    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        MetricsSweep::tally(
            correct,
            (0..self.len()).map(|id| (self.opinion(id), self.stage_id(id), self.weak_opinion(id))),
        )
    }
}

/// Per-agent access to a population state: agent `id` is read out as its
/// [`Protocol::Agent`] record and written back whole.
///
/// A [`ScalarState`] hands out clones of its records; a struct-of-arrays
/// state gathers the record from its lanes and scatters it back. This is
/// what [`crate::world::World::agent`], [`crate::world::World::iter_agents`]
/// and [`crate::world::World::corrupt_agents`] (and the per-agent snapshot
/// codec) run on.
pub trait AgentRecords: ColumnarState + Sized {
    /// The per-agent record.
    type Agent;

    /// A copy of agent `id`'s record.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    fn agent(&self, id: usize) -> Self::Agent;

    /// Overwrites agent `id` with `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    fn set_agent(&mut self, id: usize, agent: Self::Agent);

    /// Builds a state from records in id order (the snapshot decoder).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::BadSnapshot`] if the records cannot
    /// share one state (e.g. they disagree on a protocol parameter the
    /// state stores once).
    fn from_agents(agents: Vec<Self::Agent>) -> crate::Result<Self>;

    /// Applies `f` to agent `id`'s record and stores the result.
    fn modify_agent(&mut self, id: usize, f: impl FnOnce(&mut Self::Agent)) {
        let mut agent = self.agent(id);
        f(&mut agent);
        self.set_agent(id, agent);
    }
}

/// A mutable chunk view of a struct-of-arrays state that gathers and
/// scatters whole per-agent records — what [`step_records`] runs on.
pub trait RecordChunk {
    /// The per-agent record.
    type Agent: AgentState;

    /// Visits the chunk's agents in order: gathers each one's record,
    /// hands `f` its chunk-local index and the record, and scatters the
    /// record back.
    fn for_each_record(&mut self, f: impl FnMut(usize, &mut Self::Agent));
}

/// The update pass of a struct-of-arrays state — the body of its
/// [`ColumnarState::step_chunk`]: every awake agent's record is fed its
/// observations through [`AgentState::update`] with a [`LazyRng`] (so a
/// stream is derived only on an actual draw).
pub fn step_records<C: RecordChunk>(
    chunk: &mut C,
    range: Range<usize>,
    observed: &[u64],
    d: usize,
    streams: &RoundStreams,
    awake: Option<&[bool]>,
) {
    chunk.for_each_record(|i, agent| {
        if awake.is_some_and(|mask| !mask[i]) {
            return;
        }
        let mut rng = LazyRng::new(streams, range.start + i, StreamStage::Update);
        agent.update(&observed[i * d..(i + 1) * d], &mut rng);
    });
}

/// The adapter state behind the blanket `Protocol + ScalarLayout →
/// ColumnarProtocol` impl: a plain vector of per-agent records, chunked by
/// sub-slices. Its update pass hands every agent an eagerly derived
/// stream, which makes it the reference a struct-of-arrays state of the
/// same records is tested against.
#[derive(Debug, Clone)]
pub struct ScalarState<A> {
    agents: Vec<A>,
}

impl<A> ScalarState<A> {
    /// Read access to the underlying agents, in id order.
    pub fn agents(&self) -> &[A] {
        &self.agents
    }

    /// Mutable access to the underlying agents, in id order.
    pub fn agents_mut(&mut self) -> &mut [A] {
        &mut self.agents
    }
}

impl<A: AgentState + Clone> AgentRecords for ScalarState<A> {
    type Agent = A;

    fn agent(&self, id: usize) -> A {
        self.agents[id].clone()
    }

    fn set_agent(&mut self, id: usize, agent: A) {
        self.agents[id] = agent;
    }

    fn from_agents(agents: Vec<A>) -> crate::Result<Self> {
        Ok(ScalarState { agents })
    }

    fn modify_agent(&mut self, id: usize, f: impl FnOnce(&mut A)) {
        f(&mut self.agents[id]);
    }
}

impl<A: AgentState> ScalarState<A> {
    /// Writes the displayed symbols of agents `range` into `out`, each
    /// from the agent's [`StreamStage::Display`] stream.
    fn display_chunk(&self, range: Range<usize>, out: &mut [usize], streams: &RoundStreams) {
        for (slot, id) in out.iter_mut().zip(range) {
            let mut rng = streams.rng(id, StreamStage::Display);
            *slot = self.agents[id].display(&mut rng);
        }
    }
}

impl<A: AgentState> ColumnarState for ScalarState<A> {
    type ChunkMut<'a>
        = &'a mut [A]
    where
        Self: 'a;

    fn len(&self) -> usize {
        self.agents.len()
    }

    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        streams: &RoundStreams,
    ) {
        debug_assert_eq!(chunk.start(), range.start);
        debug_assert_eq!(chunk.len(), range.len());
        chunk.clear();
        let d = chunk.alphabet_size();
        // Records produce symbols one at a time; pack through a stack
        // window so the alphabet invariant is checked with a panic naming
        // the global agent.
        let mut window = [0usize; 64];
        let mut start = range.start;
        let mut local = 0;
        while start < range.end {
            let take = 64.min(range.end - start);
            let buf = &mut window[..take];
            self.display_chunk(start..start + take, buf, streams);
            crate::invariants::check_displays_chunk(start, buf, d);
            for (k, &s) in buf.iter().enumerate() {
                chunk.set(local + k, s);
            }
            start += take;
            local += take;
        }
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<Self::ChunkMut<'_>> {
        self.agents.chunks_mut(chunk_len.max(1)).collect()
    }

    fn step_chunk(
        chunk: &mut Self::ChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    ) {
        for (i, ((agent, id), obs)) in chunk
            .iter_mut()
            .zip(range)
            .zip(observed.chunks_exact(d))
            .enumerate()
        {
            if awake.is_some_and(|mask| !mask[i]) {
                continue;
            }
            let mut rng = streams.rng(id, StreamStage::Update);
            agent.update(obs, &mut rng);
        }
    }

    fn flip_source_preferences(&mut self) -> usize {
        let mut flipped = 0;
        for agent in self.agents.iter_mut() {
            if agent.flip_source_preference() {
                flipped += 1;
            }
        }
        flipped
    }

    fn opinion(&self, id: usize) -> Opinion {
        self.agents[id].opinion()
    }

    fn stage_id(&self, id: usize) -> u32 {
        self.agents[id].stage_id()
    }

    fn weak_opinion(&self, id: usize) -> Option<Opinion> {
        self.agents[id].weak_opinion()
    }
}

impl<P: Protocol + ScalarLayout> ColumnarProtocol for P {
    type State = ScalarState<P::Agent>;

    fn alphabet_size(&self) -> usize {
        Protocol::alphabet_size(self)
    }

    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> Self::State {
        let agents = config
            .iter_roles()
            .enumerate()
            .map(|(id, role)| {
                let mut rng = streams.rng(id, StreamStage::Init);
                self.init_agent(role, &mut rng)
            })
            .collect();
        ScalarState { agents }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use rand::SeedableRng;

    /// A protocol that displays its opinion and never changes it — enough
    /// to exercise the trait plumbing.
    struct Stubborn;
    #[derive(Clone)]
    struct StubbornAgent(Opinion);

    impl Protocol for Stubborn {
        type Agent = StubbornAgent;
        fn alphabet_size(&self) -> usize {
            2
        }
        fn init_agent(&self, role: Role, _rng: &mut StreamRng) -> StubbornAgent {
            StubbornAgent(role.preference().unwrap_or(Opinion::Zero))
        }
    }

    impl AgentState for StubbornAgent {
        fn display(&self, _rng: &mut StreamRng) -> usize {
            self.0.as_index()
        }
        fn update<R: Rng + ?Sized>(&mut self, _observed: &[u64], _rng: &mut R) {}
        fn opinion(&self) -> Opinion {
            self.0
        }
    }

    impl ScalarLayout for Stubborn {}

    #[test]
    fn trait_plumbing_works() {
        let mut rng = StreamRng::seed_from_u64(0);
        let cfg = PopulationConfig::new(4, 1, 2, 1).unwrap();
        let agents: Vec<StubbornAgent> = cfg
            .iter_roles()
            .map(|r| Stubborn.init_agent(r, &mut rng))
            .collect();
        assert_eq!(agents[0].opinion(), Opinion::One);
        assert_eq!(agents[2].opinion(), Opinion::Zero);
        assert_eq!(agents[3].opinion(), Opinion::Zero);
        assert_eq!(agents[0].display(&mut rng), 1);
        assert_eq!(Protocol::alphabet_size(&Stubborn), 2);
    }

    #[test]
    fn blanket_adapter_builds_scalar_state() {
        let cfg = PopulationConfig::new(5, 1, 2, 1).unwrap();
        let streams = RoundStreams::new(9, 0);
        let state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        assert_eq!(state.len(), 5);
        assert!(!state.is_empty());
        assert_eq!(state.opinion(0), Opinion::One);
        assert_eq!(state.count_opinion(Opinion::One), 2);
        assert_eq!(state.count_opinion(Opinion::Zero), 3);
        assert_eq!(ColumnarProtocol::alphabet_size(&Stubborn), 2);
    }

    #[test]
    fn observability_defaults_report_single_stage() {
        let cfg = PopulationConfig::new(3, 1, 2, 1).unwrap();
        let streams = RoundStreams::new(2, 0);
        let state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        // Stubborn does not override the observability hooks, so every
        // agent sits in the default single stage with no weak opinion.
        for id in 0..state.len() {
            assert_eq!(ColumnarState::stage_id(&state, id), 0);
            assert_eq!(ColumnarState::weak_opinion(&state, id), None);
        }
    }

    #[test]
    fn scalar_state_hands_out_and_stores_records() {
        let cfg = PopulationConfig::new(4, 0, 1, 1).unwrap();
        let streams = RoundStreams::new(3, 0);
        let mut state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        assert_eq!(state.agent(0).0, Opinion::One);
        state.set_agent(0, StubbornAgent(Opinion::Zero));
        state.modify_agent(3, |agent| agent.0 = Opinion::One);
        let opinions: Vec<Opinion> = (0..4).map(|id| state.opinion(id)).collect();
        assert_eq!(
            opinions,
            [Opinion::Zero, Opinion::Zero, Opinion::Zero, Opinion::One]
        );
        let rebuilt = ScalarState::from_agents(state.agents().to_vec()).unwrap();
        assert_eq!(rebuilt.count_opinion(Opinion::One), 1);
    }

    #[test]
    fn scalar_state_chunks_cover_population_in_order() {
        let cfg = PopulationConfig::new(7, 0, 3, 1).unwrap();
        let streams = RoundStreams::new(1, 0);
        let mut state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        let chunks = state.chunks_mut(3);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn display_chunk_is_chunking_invariant() {
        let cfg = PopulationConfig::new(6, 2, 3, 1).unwrap();
        let streams = RoundStreams::new(4, 0);
        let state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        let mut whole = vec![0usize; 6];
        state.display_chunk(0..6, &mut whole, &streams);
        let mut pieces = vec![0usize; 6];
        state.display_chunk(0..2, &mut pieces[0..2], &streams);
        state.display_chunk(2..6, &mut pieces[2..6], &streams);
        assert_eq!(whole, pieces);
    }
}
