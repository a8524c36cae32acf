//! `np_net` — the message-passing execution substrate for the noisy PULL
//! protocols.
//!
//! The round-based engine ([`np_engine::world::World`]) advances every
//! agent in lockstep: a global barrier separates the display, observe and
//! update steps of a round. That is faithful to the *synchronous* model of
//! the paper, but the headline robustness claim — SSF self-stabilizes
//! under noisy, asynchronous arrival of observations (Theorem 5) — is
//! about a system with **no global round barrier**. This crate runs each
//! agent as an event-driven *node*:
//!
//! * a node keeps a local round counter and a timer; on each timer tick it
//!   closes the current local round (feeding whatever replies arrived into
//!   the protocol update — "breathe before speaking": an empty round is
//!   simply skipped) and opens the next one by sending `h`
//!   [`msg::NetMsg::PullRequest`]s to uniformly chosen peers;
//! * a peer answers a request with a [`msg::NetMsg::PullReply`] carrying
//!   its *currently displayed* symbol — which may belong to a different
//!   local round than the requester's;
//! * the requester applies its noisy channel **on receipt**
//!   ([`np_engine::channel::Channel::observe_one`]) and counts the
//!   observation toward its current local round; stale replies are
//!   dropped.
//!
//! The protocol logic itself is untouched: nodes are generic over the
//! scalar [`np_engine::protocol::AgentState`] seam, so the exact `SfAgent`
//! / `SsfAgent` state machines that the round engine executes are the ones
//! running behind the transport.
//!
//! # The `Transport` seam
//!
//! A node never performs I/O. [`node::Node`] consumes
//! [`node::NodeEvent`]s and emits [`node::NodeAction`]s into a
//! [`node::Transport`] — a per-node action sink. The one transport is
//! [`sim::SimCluster`]: deterministic simulated time. A single-threaded
//! event scheduler (binary heap keyed by `(virtual_ns, seq)`) delivers
//! messages with latency, jitter and drops drawn from the engine's stream
//! machinery ([`np_engine::streams::StreamStage::NetDelay`] and friends),
//! so an entire cluster run is a pure function of the seed and
//! byte-identical across re-runs. The crate reads no wall clock and opens
//! no socket.
//!
//! Transport-level faults ([`faults::NetFaultPlan`]) mirror the engine's
//! `FaultPlan` vocabulary: extra delay spans, message drop rates, and link
//! partitions with heal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must stay a pure function of its seed and must not panic
// on recoverable errors (experiment workers would die mid-batch). The
// banned clocks, hashed containers and hand-seeded generators are listed
// in crates/clippy.toml; tests are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

pub mod cluster;
pub mod faults;
pub mod msg;
pub mod node;
pub mod sim;

mod error;

pub use error::NetError;

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, NetError>;
