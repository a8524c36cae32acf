//! Run metrics: convergence outcomes, time series of opinion counts, and
//! the per-round observer hook ([`RunObserver`] / [`TraceRecorder`]).
//!
//! # Determinism vs. timing
//!
//! [`RoundMetrics`] is a pure function of the trajectory, so traces built
//! from it are byte-identical across thread counts — the same contract as
//! the trajectory itself. [`StageTimings`] is *wall-clock* data and
//! therefore inherently nondeterministic; it is delivered alongside the
//! metrics but must never be mixed into artifacts that are byte-compared
//! across runs (the JSONL/summary writers in `np-bench` keep it out).

use std::time::Duration;

use crate::opinion::Opinion;

/// The outcome of a bounded run: did the system reach consensus on the
/// correct opinion, and when.
///
/// Produced by [`crate::world::World::run_until_consensus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// All agents held the correct opinion at the end of the given round
    /// (1-based count of completed rounds).
    Converged {
        /// Rounds executed until the first all-correct configuration.
        rounds: u64,
    },
    /// The round budget was exhausted first.
    TimedOut {
        /// The budget that was exhausted.
        budget: u64,
        /// Number of agents holding the correct opinion at the end.
        correct_at_end: usize,
    },
}

impl RunOutcome {
    /// Returns `true` if the run converged within budget.
    pub fn converged(&self) -> bool {
        matches!(self, RunOutcome::Converged { .. })
    }

    /// Rounds to convergence, if the run converged.
    pub fn rounds(&self) -> Option<u64> {
        match self {
            RunOutcome::Converged { rounds } => Some(*rounds),
            RunOutcome::TimedOut { .. } => None,
        }
    }
}

/// Per-round time series of how many agents hold each opinion.
///
/// Recording is optional (it costs one pass per round); enable it with
/// [`crate::world::World::record_series`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpinionSeries {
    ones: Vec<usize>,
    n: usize,
}

impl OpinionSeries {
    /// Creates an empty series for a population of `n` agents.
    pub fn new(n: usize) -> Self {
        OpinionSeries {
            ones: Vec::new(),
            n,
        }
    }

    /// Appends one round's count of agents holding opinion 1.
    pub fn push(&mut self, ones: usize) {
        debug_assert!(ones <= self.n);
        self.ones.push(ones);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.ones.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ones.is_empty()
    }

    /// Count of agents holding `opinion` after the given recorded round.
    ///
    /// # Panics
    ///
    /// Panics if `round >= self.len()`.
    pub fn count(&self, round: usize, opinion: Opinion) -> usize {
        match opinion {
            Opinion::One => self.ones[round],
            Opinion::Zero => self.n - self.ones[round],
        }
    }

    /// The margin above half of the population holding `opinion` after the
    /// given round — the paper's `A_ℓ` when `opinion` is correct (can be
    /// negative).
    ///
    /// # Panics
    ///
    /// Panics if `round >= self.len()`.
    pub fn margin(&self, round: usize, opinion: Opinion) -> f64 {
        self.count(round, opinion) as f64 - self.n as f64 / 2.0
    }

    /// The full series of counts for `opinion`, one entry per round.
    pub fn counts(&self, opinion: Opinion) -> Vec<usize> {
        (0..self.len()).map(|r| self.count(r, opinion)).collect()
    }
}

/// Deterministic snapshot of the system after one completed round,
/// collected by the observer hook (enable with
/// [`crate::world::World::record_trace`] or
/// [`crate::world::World::set_observer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundMetrics {
    /// 1-based count of completed rounds when the snapshot was taken.
    pub round: u64,
    /// Population size.
    pub n: usize,
    /// Agents holding the correct opinion.
    pub correct: usize,
    /// Stage occupancy: `(stage_id, agents in that stage)`, sorted by
    /// stage id, omitting empty stages. Stage ids come from
    /// [`crate::protocol::ColumnarState::stage_id`].
    pub stages: Vec<(u32, usize)>,
    /// Agents whose weak opinion has formed
    /// ([`crate::protocol::ColumnarState::weak_opinion`] is `Some`).
    pub weak_formed: usize,
    /// Of those, how many weak opinions are correct.
    pub weak_correct: usize,
    /// Labels of the fault events injected just before this round executed
    /// ([`crate::faults`]); empty for fault-free rounds. Part of the
    /// deterministic trajectory (a pure function of the fault plan), so it
    /// may flow into byte-compared artifacts.
    pub faults: Vec<String>,
}

impl RoundMetrics {
    /// The margin of the correct opinion over half the population — the
    /// paper's `A_ℓ` (can be negative).
    pub fn margin(&self) -> f64 {
        self.correct as f64 - self.n as f64 / 2.0
    }
}

/// The result of one observability sweep over the population
/// ([`crate::protocol::ColumnarState::metrics_sweep`]): the
/// state-dependent fields of [`RoundMetrics`], before the world adds the
/// round number and fault labels. Struct-of-arrays states fill this in
/// one fused pass over their lanes; the trait default walks the per-agent
/// accessors. Both fold through [`MetricsSweep::tally`], so they agree
/// exactly — these numbers flow into byte-compared run summaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSweep {
    /// Agents holding the correct opinion.
    pub correct: usize,
    /// Stage occupancy, sorted ascending by stage id, empty stages
    /// omitted.
    pub stages: Vec<(u32, usize)>,
    /// Agents whose weak opinion has formed.
    pub weak_formed: usize,
    /// Of those, how many weak opinions are correct.
    pub weak_correct: usize,
}

impl MetricsSweep {
    /// Folds one `(opinion, stage id, weak opinion)` triple per agent into
    /// a sweep relative to `correct`, stages in ascending id order.
    pub fn tally(
        correct: Opinion,
        agents: impl IntoIterator<Item = (Opinion, u32, Option<Opinion>)>,
    ) -> MetricsSweep {
        let mut sweep = MetricsSweep::default();
        let mut stages = std::collections::BTreeMap::<u32, usize>::new();
        for (opinion, stage, weak) in agents {
            if opinion == correct {
                sweep.correct += 1;
            }
            *stages.entry(stage).or_insert(0) += 1;
            if let Some(weak) = weak {
                sweep.weak_formed += 1;
                if weak == correct {
                    sweep.weak_correct += 1;
                }
            }
        }
        sweep.stages = stages.into_iter().collect();
        sweep
    }
}

/// Wall-clock time spent in each phase of one round.
///
/// Nondeterministic by nature; see the module docs for where it may and
/// may not flow. The engine's invariant checks run inside the phases, so
/// their cost is attributed to the enclosing phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Pass 1: computing displayed symbols into the packed bit planes,
    /// including the popcount display histogram (the paper's sampling
    /// setup).
    pub display: Duration,
    /// Pass 2: the noisy channel **and** the protocol updates — the hot
    /// path fuses phases 2–4 into one scatter, so sampling, noise and
    /// updates are timed together here.
    pub observe: Duration,
    /// Always zero under the fused hot path; kept so accumulated timing
    /// totals and their serialized forms stay shape-compatible.
    pub update: Duration,
    /// The observer's own metrics pass (stage/opinion sweep).
    pub collect: Duration,
}

impl StageTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.display + self.observe + self.update + self.collect
    }

    /// Accumulates another round's timings into this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.display += other.display;
        self.observe += other.observe;
        self.update += other.update;
        self.collect += other.collect;
    }
}

pub use stage_clock::StageClock;

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the sanctioned observer clock; runs only when an observer is attached"
)]
mod stage_clock {
    use std::time::{Duration, Instant};

    /// A stopwatch for phase timing inside [`crate::world::World::step`].
    ///
    /// This is the **one sanctioned wall-clock site** in the library
    /// crates: timing belongs to the observer, never to protocol code. The
    /// clock only runs when an observer is attached, keeping the disabled
    /// path free of time syscalls.
    #[derive(Debug, Clone, Copy)]
    pub struct StageClock {
        last: Instant,
    }

    impl StageClock {
        /// Starts the clock.
        pub fn start() -> Self {
            StageClock {
                last: Instant::now(),
            }
        }

        /// Time since the previous lap (or since `start`), and restarts.
        pub fn lap(&mut self) -> Duration {
            let now = Instant::now();
            let elapsed = now - self.last;
            self.last = now;
            elapsed
        }
    }
}

/// Per-round observer: receives one [`RoundMetrics`] snapshot (plus that
/// round's [`StageTimings`]) after every completed round.
///
/// Attach with [`crate::world::World::set_observer`] for a custom sink, or
/// use the built-in [`TraceRecorder`] via
/// [`crate::world::World::record_trace`]. `Send` so worlds holding an
/// observer can still move across threads (e.g. into `run_batch` jobs).
pub trait RunObserver: Send {
    /// Called once after each completed round.
    fn on_round(&mut self, metrics: &RoundMetrics, timings: &StageTimings);
}

/// The built-in [`RunObserver`]: keeps every round's metrics and the
/// accumulated phase timings in memory, ready for the trace/summary
/// writers in `np-bench`.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    rounds: Vec<RoundMetrics>,
    timings: StageTimings,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// All recorded rounds, in order.
    pub fn rounds(&self) -> &[RoundMetrics] {
        &self.rounds
    }

    /// The most recent round's metrics, if any round was recorded.
    pub fn last(&self) -> Option<&RoundMetrics> {
        self.rounds.last()
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Wall-clock phase totals accumulated over all recorded rounds.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }
}

impl RunObserver for TraceRecorder {
    fn on_round(&mut self, metrics: &RoundMetrics, timings: &StageTimings) {
        self.rounds.push(metrics.clone());
        self.timings.accumulate(timings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let c = RunOutcome::Converged { rounds: 17 };
        assert!(c.converged());
        assert_eq!(c.rounds(), Some(17));
        let t = RunOutcome::TimedOut {
            budget: 100,
            correct_at_end: 42,
        };
        assert!(!t.converged());
        assert_eq!(t.rounds(), None);
    }

    fn sample_metrics(round: u64, correct: usize) -> RoundMetrics {
        RoundMetrics {
            round,
            n: 10,
            correct,
            stages: vec![(0, 4), (1, 6)],
            weak_formed: 6,
            weak_correct: 5,
            faults: Vec::new(),
        }
    }

    #[test]
    fn round_metrics_margin() {
        assert_eq!(sample_metrics(1, 7).margin(), 2.0);
        assert_eq!(sample_metrics(1, 3).margin(), -2.0);
    }

    #[test]
    fn trace_recorder_accumulates() {
        let mut rec = TraceRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.last(), None);
        let t1 = StageTimings {
            display: Duration::from_micros(3),
            observe: Duration::from_micros(5),
            update: Duration::from_micros(7),
            collect: Duration::from_micros(2),
        };
        rec.on_round(&sample_metrics(1, 6), &t1);
        rec.on_round(&sample_metrics(2, 8), &t1);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.rounds()[0].correct, 6);
        assert_eq!(rec.last().map(|m| m.round), Some(2));
        assert_eq!(rec.timings().display, Duration::from_micros(6));
        assert_eq!(rec.timings().total(), Duration::from_micros(34));
    }

    #[test]
    fn stage_clock_laps_monotonically() {
        let mut clock = StageClock::start();
        let a = clock.lap();
        let b = clock.lap();
        // Durations are non-negative by construction; just exercise both
        // paths and check the type round-trips.
        assert!(a + b >= a);
    }

    #[test]
    fn series_counts_and_margins() {
        let mut s = OpinionSeries::new(10);
        assert!(s.is_empty());
        s.push(3);
        s.push(7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.count(0, Opinion::One), 3);
        assert_eq!(s.count(0, Opinion::Zero), 7);
        assert_eq!(s.count(1, Opinion::One), 7);
        assert_eq!(s.margin(1, Opinion::One), 2.0);
        assert_eq!(s.margin(0, Opinion::One), -2.0);
        assert_eq!(s.counts(Opinion::One), vec![3, 7]);
        assert_eq!(s.counts(Opinion::Zero), vec![7, 3]);
    }
}
