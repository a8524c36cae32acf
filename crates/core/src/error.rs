use std::fmt;

/// Errors produced when deriving protocol parameters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The noise level is outside the range the protocol tolerates
    /// (`δ < ½` for SF's binary alphabet, `δ < ¼` for SSF's 4-symbol
    /// alphabet).
    NoiseTooHigh {
        /// The offending level.
        delta: f64,
        /// The exclusive upper limit for this protocol.
        limit: f64,
    },
    /// A tuning constant or derived parameter was non-positive or
    /// non-finite.
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Description of the problem.
        detail: String,
    },
    /// A round budget of `intervals` SSF update intervals does not fit a
    /// `u64` round counter.
    BudgetOverflow {
        /// The requested number of update intervals.
        intervals: u64,
        /// Rounds per update interval.
        interval: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoiseTooHigh { delta, limit } => {
                write!(
                    f,
                    "noise level δ = {delta} not below the protocol limit {limit}"
                )
            }
            CoreError::BadParameter { name, detail } => {
                write!(f, "bad parameter `{name}`: {detail}")
            }
            CoreError::BudgetOverflow {
                intervals,
                interval,
            } => write!(
                f,
                "{intervals} intervals of {interval} rounds overflow the u64 round budget"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        for e in [
            CoreError::NoiseTooHigh {
                delta: 0.6,
                limit: 0.5,
            },
            CoreError::BadParameter {
                name: "c1",
                detail: "must be positive".into(),
            },
            CoreError::BudgetOverflow {
                intervals: u64::MAX,
                interval: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
