//! Transport-level fault injection, mirroring the engine's
//! [`np_engine::faults::FaultPlan`] vocabulary one layer down.
//!
//! Where the engine's plan corrupts *state* (memory, sources, noise), a
//! [`NetFaultPlan`] degrades the *links*: extra delivery delay, message
//! drop rates, and a full link partition with heal. Events are scheduled
//! in virtual nanoseconds and applied by the simulated-time transport
//! ([`crate::sim::SimCluster`]).
//!
//! The self-stabilization story (Theorem 5) is exercised by
//! `Partition`/`Heal`: while partitioned, the side without sources drifts
//! on its own recycled displays; after heal, SSF must pull the whole
//! population back to the planted opinion within O(1) update intervals —
//! the bound asserted by `tests/cluster_equivalence.rs`.

use crate::{NetError, Result};

/// One transport fault taking effect at its scheduled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetFault {
    /// Add this many nanoseconds to every subsequent delivery (on top of
    /// the configured base latency and jitter).
    Delay {
        /// Extra one-way latency in nanoseconds.
        extra_ns: u64,
    },
    /// Drop each subsequent message independently with this probability
    /// (combined with the configured base drop rate; coins come from the
    /// [`np_engine::streams::StreamStage::NetDrop`] streams).
    Drop {
        /// Additional drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Partition the cluster into `{0, …, split-1}` and `{split, …, n-1}`:
    /// messages crossing the cut are dropped. Driver-bound bookkeeping is
    /// unaffected — the partition severs links, not observability.
    Partition {
        /// First node id of the second group.
        split: u64,
    },
    /// Remove the active partition; cross-cut delivery resumes.
    Heal,
    /// Reset extra delay and extra drop to zero (partitions persist until
    /// [`NetFault::Heal`]).
    Clear,
}

/// A schedule of transport faults in virtual time. Built like the
/// engine's `FaultPlan`: chain [`NetFaultPlan::at_ns`], then validate
/// against the cluster that will run it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaultPlan {
    events: Vec<(u64, NetFault)>,
}

impl NetFaultPlan {
    /// An empty plan (no transport faults).
    pub fn new() -> Self {
        NetFaultPlan::default()
    }

    /// Schedules `fault` to take effect at virtual time `at_ns`.
    #[must_use]
    pub fn at_ns(mut self, at_ns: u64, fault: NetFault) -> Self {
        self.events.push((at_ns, fault));
        self
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, sorted by effect time (stable for ties).
    pub fn sorted_events(&self) -> Vec<(u64, NetFault)> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|&(t, _)| t);
        evs
    }

    /// Checks the plan against a cluster of `n` nodes: rates must lie in
    /// `[0, 1]`, partition splits in `1..n`, and every `Heal` must close
    /// an open partition.
    pub fn validate(&self, n: u64) -> Result<()> {
        let mut open_partition = false;
        for &(at_ns, fault) in &self.sorted_events() {
            match fault {
                NetFault::Drop { rate } => {
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(NetError::BadFaultPlan {
                            detail: format!("drop rate {rate} at t={at_ns}ns outside [0, 1]"),
                        });
                    }
                }
                NetFault::Partition { split } => {
                    if split == 0 || split >= n {
                        return Err(NetError::BadFaultPlan {
                            detail: format!(
                                "partition split {split} at t={at_ns}ns outside 1..{n}"
                            ),
                        });
                    }
                    open_partition = true;
                }
                NetFault::Heal => {
                    if !open_partition {
                        return Err(NetError::BadFaultPlan {
                            detail: format!("heal at t={at_ns}ns with no open partition"),
                        });
                    }
                    open_partition = false;
                }
                NetFault::Delay { .. } | NetFault::Clear => {}
            }
        }
        Ok(())
    }
}

/// The live link condition a transport maintains while applying a plan:
/// fold events in with [`LinkCondition::apply`], query it per message.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkCondition {
    /// Extra one-way delivery latency, nanoseconds.
    pub extra_delay_ns: u64,
    /// Extra independent drop probability.
    pub extra_drop: f64,
    /// Active partition split, if any.
    pub partition: Option<u64>,
}

impl LinkCondition {
    /// Folds one fault event into the condition.
    pub fn apply(&mut self, fault: NetFault) {
        match fault {
            NetFault::Delay { extra_ns } => self.extra_delay_ns = extra_ns,
            NetFault::Drop { rate } => self.extra_drop = rate,
            NetFault::Partition { split } => self.partition = Some(split),
            NetFault::Heal => self.partition = None,
            NetFault::Clear => {
                self.extra_delay_ns = 0;
                self.extra_drop = 0.0;
            }
        }
    }

    /// Whether a message from `from` to `to` crosses an active partition
    /// cut.
    pub fn severed(&self, from: u64, to: u64) -> bool {
        match self.partition {
            Some(split) => (from < split) != (to < split),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_plan_passes() {
        let plan = NetFaultPlan::new()
            .at_ns(1_000, NetFault::Drop { rate: 0.2 })
            .at_ns(2_000, NetFault::Partition { split: 4 })
            .at_ns(3_000, NetFault::Heal)
            .at_ns(4_000, NetFault::Clear);
        assert!(plan.validate(8).is_ok());
    }

    #[test]
    fn out_of_range_rate_is_rejected() {
        let plan = NetFaultPlan::new().at_ns(0, NetFault::Drop { rate: 1.5 });
        assert!(plan.validate(8).is_err());
    }

    #[test]
    fn bad_split_is_rejected() {
        for split in [0, 8, 9] {
            let plan = NetFaultPlan::new().at_ns(0, NetFault::Partition { split });
            assert!(plan.validate(8).is_err(), "split {split} should fail");
        }
    }

    #[test]
    fn heal_without_partition_is_rejected() {
        let plan = NetFaultPlan::new().at_ns(0, NetFault::Heal);
        assert!(plan.validate(8).is_err());
    }

    #[test]
    fn heal_ordering_uses_effect_time_not_insertion_order() {
        // Inserted out of order; sorted by time the partition opens first.
        let plan = NetFaultPlan::new()
            .at_ns(5_000, NetFault::Heal)
            .at_ns(1_000, NetFault::Partition { split: 2 });
        assert!(plan.validate(8).is_ok());
    }

    #[test]
    fn link_condition_tracks_partition() {
        let mut cond = LinkCondition::default();
        cond.apply(NetFault::Partition { split: 3 });
        assert!(cond.severed(1, 5));
        assert!(!cond.severed(0, 2));
        assert!(!cond.severed(4, 5));
        cond.apply(NetFault::Heal);
        assert!(!cond.severed(1, 5));
    }

    #[test]
    fn clear_resets_delay_and_drop_only() {
        let mut cond = LinkCondition::default();
        cond.apply(NetFault::Delay { extra_ns: 500 });
        cond.apply(NetFault::Drop { rate: 0.5 });
        cond.apply(NetFault::Partition { split: 1 });
        cond.apply(NetFault::Clear);
        assert_eq!(cond.extra_delay_ns, 0);
        assert!(cond.extra_drop.abs() < f64::EPSILON);
        assert!(cond.partition.is_some());
    }
}
