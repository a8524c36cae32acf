//! The one run loop: [`Run`], implemented by every round backend — the
//! per-agent [`crate::world::World`], the mean-field
//! [`crate::counts::CountsWorld`] and the PUSH model
//! [`crate::push::PushWorld`].
//!
//! A backend supplies one round, its round counter, its correct count,
//! its population size and a per-round trace. Everything built on those
//! is written once, here: the paper's consensus condition (Definition 2:
//! every agent holds the correct opinion), running to first consensus,
//! running until consensus has held for a window, and the settle loop.
//! The *settle round* is the first round from which consensus held to
//! the end of the run — Definition 2's "reach consensus and keep it",
//! robust against transient all-correct rounds early in a run.
//!
//! The simulated-time cluster (`np_net::sim::SimCluster`) is not a
//! [`Run`]: it has no global round, and it stops at the first all-correct
//! event, in the middle of a round.

use std::convert::Infallible;

use crate::metrics::{RoundMetrics, RunOutcome};

/// A round-synchronous run of one population.
pub trait Run {
    /// Executes one synchronous round.
    fn step(&mut self);

    /// Number of completed rounds.
    fn round(&self) -> u64;

    /// Number of agents currently holding the correct opinion.
    fn correct_count(&self) -> usize;

    /// The population size `n`.
    fn n(&self) -> usize;

    /// Enables the per-round trace: every later [`Run::step`] appends one
    /// [`RoundMetrics`] to [`Run::traced_rounds`]. Calling it again keeps
    /// what was recorded.
    fn record_trace(&mut self);

    /// The rounds traced since [`Run::record_trace`]; empty when tracing
    /// is off.
    fn traced_rounds(&self) -> &[RoundMetrics];

    /// Runs `rounds` rounds unconditionally.
    fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Returns `true` if every agent (sources included) holds the correct
    /// opinion — the paper's consensus condition (Definition 2).
    fn is_consensus(&self) -> bool {
        self.correct_count() == self.n()
    }

    /// Steps until consensus on the correct opinion or until `budget`
    /// rounds have run. A run already in consensus converges in 0 rounds
    /// without stepping, even at `budget = 0`.
    fn run_until_consensus(&mut self, budget: u64) -> RunOutcome {
        self.run_until_stable_consensus(budget, 1)
    }

    /// Steps until consensus has *held* for `window` consecutive rounds
    /// (or `budget` rounds have run), returning the round at which the
    /// stable window began: Definition 2 requires consensus to be reached
    /// *and kept*. `window = 0` counts as 1. A run already in consensus
    /// — e.g. a resumed persistence run — converges in 0 rounds.
    fn run_until_stable_consensus(&mut self, budget: u64, window: u64) -> RunOutcome {
        let window = window.max(1);
        if self.is_consensus() {
            return RunOutcome::Converged { rounds: 0 };
        }
        let start = self.round();
        let mut streak: u64 = 0;
        while self.round() - start < budget {
            self.step();
            if self.is_consensus() {
                streak += 1;
                if streak >= window {
                    return RunOutcome::Converged {
                        rounds: (self.round() - start).saturating_sub(window - 1),
                    };
                }
            } else {
                streak = 0;
            }
        }
        RunOutcome::TimedOut {
            budget,
            correct_at_end: self.correct_count(),
        }
    }

    /// The settle loop: steps until round `last_round` (a run restored
    /// mid-way executes only the remaining rounds), calling `on_round`
    /// after every step, and returns the settle round, or `None` if the
    /// run does not end in consensus.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first error of `on_round`.
    fn settle_with<E>(
        &mut self,
        last_round: u64,
        mut on_round: impl FnMut(&Self) -> Result<(), E>,
    ) -> Result<Option<u64>, E> {
        let mut last_bad = self.round();
        while self.round() < last_round {
            self.step();
            if !self.is_consensus() {
                last_bad = self.round();
            }
            on_round(self)?;
        }
        Ok(self.is_consensus().then_some(last_bad + 1))
    }

    /// [`Run::settle_with`] without a per-round hook.
    fn settle(&mut self, last_round: u64) -> Option<u64> {
        let Ok(settled) = self.settle_with(last_round, |_| Ok::<(), Infallible>(()));
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted run of 4 agents: after round `r` its correct count is
    /// `correct[r]` (index 0 is the state before the first round).
    struct Script {
        correct: Vec<usize>,
        round: u64,
    }

    impl Run for Script {
        fn step(&mut self) {
            self.round += 1;
        }

        fn round(&self) -> u64 {
            self.round
        }

        fn correct_count(&self) -> usize {
            self.correct[self.round as usize]
        }

        fn n(&self) -> usize {
            4
        }

        fn record_trace(&mut self) {}

        fn traced_rounds(&self) -> &[RoundMetrics] {
            &[]
        }
    }

    fn script(correct: &[usize]) -> Script {
        Script {
            correct: correct.to_vec(),
            round: 0,
        }
    }

    #[test]
    fn settle_round_starts_the_consensus_that_lasts() {
        // The all-correct blip at round 2 breaks at round 3; consensus
        // holds from round 4 to the end.
        let mut run = script(&[1, 2, 4, 3, 4, 4]);
        assert_eq!(run.settle(5), Some(4));
        assert_eq!(run.round(), 5);
        assert_eq!(script(&[1, 4, 4, 4, 3]).settle(4), None);
        // Consensus from the start counts from the first executed round.
        assert_eq!(script(&[4, 4, 4]).settle(2), Some(1));
    }

    #[test]
    fn settle_resumes_mid_run_and_stops_at_a_hook_error() {
        // Restored at round 2: only rounds 3 and 4 run.
        let mut run = script(&[1, 2, 3, 4, 4]);
        run.round = 2;
        assert_eq!(run.settle(4), Some(3));
        let mut run = script(&[1, 2, 3, 4]);
        let stopped = run.settle_with(3, |r| if r.round() == 2 { Err("stop") } else { Ok(()) });
        assert_eq!((stopped, run.round()), (Err("stop"), 2));
    }

    #[test]
    fn consensus_runs_count_rounds_from_their_start() {
        let converged = |rounds| RunOutcome::Converged { rounds };
        assert_eq!(script(&[1, 2, 4]).run_until_consensus(5), converged(2));
        let mut run = script(&[1, 2, 3]);
        let timed_out = RunOutcome::TimedOut {
            budget: 2,
            correct_at_end: 3,
        };
        assert_eq!((run.run_until_consensus(2), run.round()), (timed_out, 2));
        // Consensus at round 2 breaks; the 3-round window starts at 4.
        let flicker = [1, 2, 4, 3, 4, 4, 4];
        assert_eq!(
            script(&flicker).run_until_stable_consensus(10, 3),
            converged(4)
        );
        // A zero window is a window of 1 (it used to underflow).
        assert_eq!(
            script(&flicker).run_until_stable_consensus(10, 0),
            script(&flicker).run_until_stable_consensus(10, 1)
        );
    }

    #[test]
    fn a_run_already_in_consensus_converges_without_stepping() {
        let mut run = script(&[4]);
        assert_eq!(
            run.run_until_consensus(0),
            RunOutcome::Converged { rounds: 0 }
        );
        assert_eq!(
            run.run_until_stable_consensus(0, 5),
            RunOutcome::Converged { rounds: 0 }
        );
        assert_eq!(run.round(), 0);
    }
}
