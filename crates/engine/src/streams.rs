//! The engine's view of per-agent RNG streams.
//!
//! Every random decision in a [`crate::world::World`] round is drawn from
//! an independent generator addressed by `(seed, round, agent, stage)` —
//! see [`np_stats::streams`] for the derivation. The round loop hands a
//! [`RoundStreams`] (the `(seed, round)` prefix) to each execution phase,
//! and the phase derives per-agent generators for its [`StreamStage`].
//!
//! This is the determinism contract of the parallel engine: because an
//! agent's randomness is a pure function of its coordinate, the execution
//! is bit-identical no matter how agents are grouped into chunks or how
//! chunks are scheduled onto threads. It also means a protocol's
//! struct-of-arrays state and its per-agent records run through the
//! generic [`crate::protocol::ScalarState`] agree exactly — both consume
//! the same streams at the same coordinates.

use np_stats::streams::{round_prefix, stream_seed_from_prefix};
use rand::RngCore;

pub use np_stats::streams::StreamRng;

/// The stage axis of a stream coordinate: which model step (or hook) the
/// generator feeds. Distinct stages of the same `(round, agent)` are
/// independent, so a stage that draws nothing costs nothing downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamStage {
    /// Agent-state initialization (used with round 0).
    Init,
    /// Step 1 — choosing the displayed symbol.
    Display,
    /// Steps 2+3 — sampling and channel noise.
    Observe,
    /// Step 4 — the state update (tie-breaking coins live here).
    Update,
    /// The adversarial corruption hook
    /// ([`crate::world::World::corrupt_agents`]).
    Corrupt,
    /// Deterministic topology generation ([`crate::topology`]): the
    /// per-agent draws that build a graph's neighbor lists (used with
    /// round 0, like [`StreamStage::Init`]).
    Topology,
    /// The mid-run fault-injection hook ([`crate::faults`]). The payload
    /// is the index of the event in its [`crate::faults::FaultPlan`], so
    /// distinct events scheduled for the same round draw from independent
    /// streams.
    Fault(u32),
    /// Message-latency draws of the simulated-time transport (`np_net`):
    /// one stream per `(round, sender)`, consumed in deterministic
    /// scheduler order.
    NetDelay,
    /// Message-drop coins of the simulated-time transport (`np_net`),
    /// addressed like [`StreamStage::NetDelay`].
    NetDrop,
    /// Peer selection for a node's `h` pull requests in the message-passing
    /// runtime (`np_net`). Kept separate from [`StreamStage::Observe`]
    /// because the node applies channel noise on *receipt*, decoupled from
    /// the sampling draw order of the round-based engine.
    NetPeer,
}

impl StreamStage {
    fn tag(self) -> u64 {
        match self {
            StreamStage::Init => 0,
            StreamStage::Display => 1,
            StreamStage::Observe => 2,
            StreamStage::Update => 3,
            StreamStage::Corrupt => 4,
            StreamStage::Topology => 5,
            StreamStage::NetDelay => 6,
            StreamStage::NetDrop => 7,
            StreamStage::NetPeer => 8,
            // Tags 9..16 are reserved for future fixed stages; fault
            // events are open-ended so they get the tail of the space.
            StreamStage::Fault(event) => 16 + u64::from(event),
        }
    }
}

/// The per-round stream family: a `(seed, round)` prefix from which any
/// agent's generator for any [`StreamStage`] can be derived without
/// coordination. `Copy`, cheap, and freely shareable across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundStreams {
    round: u64,
    /// `(master, round)` folded once ([`np_stats::streams::round_prefix`]),
    /// so deriving a per-agent generator in the chunk kernels is two
    /// splitmix64 rounds — no per-agent re-folding of the round axis.
    prefix: u64,
}

impl RoundStreams {
    /// The stream family for `round` of the world seeded with `master`.
    pub fn new(master: u64, round: u64) -> Self {
        RoundStreams {
            round,
            prefix: round_prefix(master, round),
        }
    }

    /// The round this family belongs to.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The independent generator for `agent` at `stage` this round.
    pub fn rng(&self, agent: usize, stage: StreamStage) -> StreamRng {
        StreamRng::from_stream_seed(stream_seed_from_prefix(
            self.prefix,
            agent as u64,
            stage.tag(),
        ))
    }
}

/// A per-agent generator created only when a draw actually happens.
///
/// Streams are independent and a fresh stream's first draw is a pure
/// function of its coordinate, so deferring creation until the first draw
/// is observationally identical to creating the stream up front — it only
/// skips the derivation on rounds where the agent draws nothing (most
/// rounds: SF draws at phase boundaries, SSF on ties of an update round).
#[derive(Debug)]
pub struct LazyRng<'a> {
    streams: &'a RoundStreams,
    agent: usize,
    stage: StreamStage,
    rng: Option<StreamRng>,
}

impl<'a> LazyRng<'a> {
    /// The generator for `agent` at `stage`, not yet derived.
    pub fn new(streams: &'a RoundStreams, agent: usize, stage: StreamStage) -> Self {
        LazyRng {
            streams,
            agent,
            stage,
            rng: None,
        }
    }

    fn get(&mut self) -> &mut StreamRng {
        let (streams, agent, stage) = (self.streams, self.agent, self.stage);
        self.rng.get_or_insert_with(|| streams.rng(agent, stage))
    }
}

impl RngCore for LazyRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.get().next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.get().next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.get().fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn lazy_rng_matches_eager_stream_rng() {
        let streams = RoundStreams::new(11, 3);
        let mut eager = streams.rng(5, StreamStage::Update);
        let mut lazy = LazyRng::new(&streams, 5, StreamStage::Update);
        assert!(lazy.rng.is_none(), "nothing derived before a draw");
        for _ in 0..8 {
            assert_eq!(lazy.gen::<bool>(), eager.gen::<bool>());
            assert_eq!(lazy.gen::<u64>(), eager.gen::<u64>());
        }
        let (mut a, mut b) = ([0u8; 5], [0u8; 5]);
        lazy.fill_bytes(&mut a);
        eager.fill_bytes(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn same_coordinate_same_stream() {
        let s = RoundStreams::new(42, 7);
        let mut a = s.rng(3, StreamStage::Update);
        let mut b = s.rng(3, StreamStage::Update);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn stages_are_independent() {
        let s = RoundStreams::new(42, 7);
        let stages = [
            StreamStage::Init,
            StreamStage::Display,
            StreamStage::Observe,
            StreamStage::Update,
            StreamStage::Corrupt,
            StreamStage::Topology,
            StreamStage::NetDelay,
            StreamStage::NetDrop,
            StreamStage::NetPeer,
            StreamStage::Fault(0),
            StreamStage::Fault(1),
            StreamStage::Fault(11),
        ];
        let firsts: Vec<u64> = stages.iter().map(|&st| s.rng(3, st).gen()).collect();
        for i in 0..firsts.len() {
            for j in i + 1..firsts.len() {
                assert_ne!(firsts[i], firsts[j], "stages {i} and {j} collide");
            }
        }
    }

    #[test]
    fn rounds_and_agents_are_independent() {
        let a: u64 = RoundStreams::new(1, 0).rng(0, StreamStage::Display).gen();
        let b: u64 = RoundStreams::new(1, 1).rng(0, StreamStage::Display).gen();
        let c: u64 = RoundStreams::new(1, 0).rng(1, StreamStage::Display).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn accessors() {
        let s = RoundStreams::new(5, 9);
        assert_eq!(s.round(), 9);
        assert_eq!(s, RoundStreams::new(5, 9));
    }
}
