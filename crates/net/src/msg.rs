//! The messages nodes exchange.
//!
//! The simulated-time transport moves [`Envelope`] values between nodes;
//! nothing is serialized. `PullReply::symbol` is the *displayed* symbol
//! of the replier: channel noise is applied by the receiving node, never
//! in transit, so the model's noise lives in [`crate::node`].

/// A protocol-level message exchanged between nodes (or between a node
/// and the cluster driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMsg {
    /// "Send me what you display": one of the `h` pull samples of the
    /// sender's local round `round`.
    PullRequest {
        /// The requester's local round, echoed back in the reply so the
        /// requester can drop replies that arrive too late.
        round: u64,
    },
    /// The answer to a [`NetMsg::PullRequest`]: the replier's currently
    /// displayed symbol, *before* channel noise.
    PullReply {
        /// The requester's local round, echoed from the request.
        round: u64,
        /// The displayed symbol (alphabet index, fits in a byte).
        symbol: u8,
    },
    /// A node reporting its state to the driver after closing a local
    /// round (used for convergence detection; never routed to peers).
    Status {
        /// The local round just closed.
        round: u64,
        /// The node's output opinion (0 or 1).
        opinion: u8,
        /// The node's weak opinion: 0, 1, or [`WEAK_NONE`] if unformed.
        weak: u8,
    },
}

/// The `weak` byte of [`NetMsg::Status`] when no weak opinion exists yet.
pub const WEAK_NONE: u8 = 0xff;

/// An addressed message: who sent it and who should receive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node id.
    pub from: u64,
    /// Destination node id, or [`crate::node::DRIVER`] for `Status`.
    pub to: u64,
    /// The message payload.
    pub msg: NetMsg,
}
