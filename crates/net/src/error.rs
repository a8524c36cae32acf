use std::fmt;

/// Errors produced by the message-passing runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// A cluster configuration is inconsistent (zero nodes, `h` of zero,
    /// timing that cannot deliver a reply within a tick, …).
    BadConfig {
        /// Description of the violation.
        detail: String,
    },
    /// A [`crate::faults::NetFaultPlan`] is malformed: out-of-range rate,
    /// partition split outside `1..n`, or a heal with no open partition.
    BadFaultPlan {
        /// Description of the violation.
        detail: String,
    },
    /// An error bubbled up from the engine layer (population or noise
    /// matrix construction).
    Engine(np_engine::EngineError),
    /// An error bubbled up from noise-matrix construction.
    Linalg(np_linalg::LinalgError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadConfig { detail } => write!(f, "bad cluster configuration: {detail}"),
            NetError::BadFaultPlan { detail } => write!(f, "bad net fault plan: {detail}"),
            NetError::Engine(e) => write!(f, "engine error: {e}"),
            NetError::Linalg(e) => write!(f, "noise-matrix error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Engine(e) => Some(e),
            NetError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<np_engine::EngineError> for NetError {
    fn from(e: np_engine::EngineError) -> Self {
        NetError::Engine(e)
    }
}

impl From<np_linalg::LinalgError> for NetError {
    fn from(e: np_linalg::LinalgError) -> Self {
        NetError::Linalg(e)
    }
}
