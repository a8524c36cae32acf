//! Deterministic mid-run fault injection (the Theorem 5 persistence
//! story, measured).
//!
//! The adversary of [`crate::world::World::corrupt_agents`] fires once,
//! before round 0. A [`FaultPlan`] extends that to *scheduled* events: at
//! the start of chosen rounds the world re-corrupts a fraction of agents,
//! flips the sources' preferences (the "trend change" scenario of
//! Korman–Vacus), swaps or ramps the noise level within its δ-bound, or
//! puts agents to sleep (display-only, no update) for a span of rounds.
//!
//! # Determinism contract
//!
//! Every random decision of a fault event is drawn from
//! `streams.rng(agent, StreamStage::Fault(k))` where `k` is the event's
//! index in the plan — the same per-`(seed, round, agent, stage)` streams
//! the round loop uses ([`crate::streams`]). Faulted trajectories and
//! their trace artifacts are therefore byte-identical across thread
//! counts, and a plan is replayable from `(seed, plan)` alone.
//!
//! A round's events are applied just *before* the round executes, so a
//! fault scheduled for round `r` is visible in trace row `r` (rounds are
//! 1-based counts of completed rounds). [`RoundMetrics::faults`] carries
//! one label per event injected that round, and [`recovery_times`]
//! recovers the per-event re-convergence time from a recorded trace.
//!
//! [`RoundMetrics::faults`]: crate::metrics::RoundMetrics::faults

use std::fmt;
use std::sync::Arc;

use crate::streams::StreamRng;
use np_linalg::noise::NoiseMatrix;

use crate::error::EngineError;
use crate::metrics::RoundMetrics;

/// A per-agent state corruption, applied to the fraction of agents a
/// [`FaultEvent::Corrupt`] selects. `S` is the protocol's population
/// state (e.g. SSF's struct-of-arrays `SsfColumns`, or a `ScalarState`);
/// reach one agent's record with `AgentRecords::modify_agent`.
///
/// Implemented for free by any `Fn(&mut S, usize, &mut StreamRng)` closure.
pub trait StateFault<S>: Send + Sync {
    /// Corrupts agent `id` inside `state`. `rng` is the agent's
    /// [`crate::streams::StreamStage::Fault`] stream for the injection
    /// round (the same generator that selected the agent).
    fn apply(&self, state: &mut S, id: usize, rng: &mut StreamRng);
}

impl<S, F> StateFault<S> for F
where
    F: Fn(&mut S, usize, &mut StreamRng) + Send + Sync,
{
    fn apply(&self, state: &mut S, id: usize, rng: &mut StreamRng) {
        self(state, id, rng)
    }
}

/// One fault event, scheduled for a round by a [`FaultPlan`].
pub enum FaultEvent<S> {
    /// Re-applies a corruption strategy to a random fraction of agents.
    /// Each agent is selected independently with probability `frac` from
    /// its own fault stream; selected agents are then corrupted from the
    /// same stream.
    Corrupt {
        /// Probability that each agent is corrupted, in `[0, 1]`.
        frac: f64,
        /// A short stable name for trace labels (e.g. the
        /// `SsfAdversary` name).
        label: String,
        /// The corruption applied to each selected agent.
        fault: Arc<dyn StateFault<S>>,
    },
    /// Inverts every source's preference — the environment's ground truth
    /// flips mid-run ("trend change"). The world's notion of the correct
    /// opinion flips with it.
    FlipSources,
    /// Replaces the noise matrix (and rebuilds the channel) from this
    /// round on. The new matrix must have the protocol's alphabet size.
    SetNoise {
        /// The replacement noise matrix.
        noise: NoiseMatrix,
    },
    /// Linearly ramps a uniform-δ noise matrix from level `from` to level
    /// `to` over `over` rounds, rebuilding the channel each round. The
    /// injection round runs at `from`; round `injection + over` runs at
    /// `to`, where the level then stays.
    RampNoise {
        /// Uniform noise level at the injection round.
        from: f64,
        /// Uniform noise level after the ramp completes.
        to: f64,
        /// Number of rounds the ramp spans (≥ 1).
        over: u64,
    },
    /// Puts a random fraction of agents to sleep for `rounds` rounds:
    /// they keep displaying their current state but skip their updates
    /// entirely (no update randomness is drawn for them).
    Sleep {
        /// Probability that each agent falls asleep, in `[0, 1]`.
        frac: f64,
        /// How many rounds the sleep lasts (≥ 1), starting with the
        /// injection round.
        rounds: u64,
    },
}

impl<S> Clone for FaultEvent<S> {
    fn clone(&self) -> Self {
        match self {
            FaultEvent::Corrupt { frac, label, fault } => FaultEvent::Corrupt {
                frac: *frac,
                label: label.clone(),
                fault: Arc::clone(fault),
            },
            FaultEvent::FlipSources => FaultEvent::FlipSources,
            FaultEvent::SetNoise { noise } => FaultEvent::SetNoise {
                noise: noise.clone(),
            },
            FaultEvent::RampNoise { from, to, over } => FaultEvent::RampNoise {
                from: *from,
                to: *to,
                over: *over,
            },
            FaultEvent::Sleep { frac, rounds } => FaultEvent::Sleep {
                frac: *frac,
                rounds: *rounds,
            },
        }
    }
}

impl<S> fmt::Debug for FaultEvent<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Corrupt { frac, label, .. } => f
                .debug_struct("Corrupt")
                .field("frac", frac)
                .field("label", label)
                .finish_non_exhaustive(),
            FaultEvent::FlipSources => f.write_str("FlipSources"),
            FaultEvent::SetNoise { noise } => {
                f.debug_struct("SetNoise").field("noise", noise).finish()
            }
            FaultEvent::RampNoise { from, to, over } => f
                .debug_struct("RampNoise")
                .field("from", from)
                .field("to", to)
                .field("over", over)
                .finish(),
            FaultEvent::Sleep { frac, rounds } => f
                .debug_struct("Sleep")
                .field("frac", frac)
                .field("rounds", rounds)
                .finish(),
        }
    }
}

/// A fault event bound to its injection round.
pub struct ScheduledFault<S> {
    /// The 1-based round the event fires at: it is applied just before
    /// this round executes and shows up in trace row `round`.
    pub round: u64,
    /// The event itself.
    pub event: FaultEvent<S>,
}

impl<S> Clone for ScheduledFault<S> {
    fn clone(&self) -> Self {
        ScheduledFault {
            round: self.round,
            event: self.event.clone(),
        }
    }
}

impl<S> fmt::Debug for ScheduledFault<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScheduledFault")
            .field("round", &self.round)
            .field("event", &self.event)
            .finish()
    }
}

/// A schedule of mid-run fault events, kept sorted by injection round.
///
/// Build with the [`FaultPlan::at`] chain and attach to a world with
/// `World::set_fault_plan`, which validates it against the world's
/// current round and alphabet.
///
/// # Example
///
/// ```
/// use np_engine::faults::{FaultEvent, FaultPlan};
/// use np_engine::protocol::ScalarState;
/// # struct A;
/// let plan: FaultPlan<ScalarState<A>> = FaultPlan::new()
///     .at(10, FaultEvent::FlipSources)
///     .at(5, FaultEvent::Sleep { frac: 0.5, rounds: 3 });
/// assert_eq!(plan.events()[0].round, 5);
/// ```
pub struct FaultPlan<S> {
    events: Vec<ScheduledFault<S>>,
}

impl<S> FaultPlan<S> {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Schedules `event` for `round`, keeping the plan sorted. Events
    /// scheduled for the same round fire in insertion order.
    #[must_use]
    pub fn at(mut self, round: u64, event: FaultEvent<S>) -> Self {
        let pos = self.events.partition_point(|e| e.round <= round);
        self.events.insert(pos, ScheduledFault { round, event });
        self
    }

    /// The scheduled events, sorted by round.
    pub fn events(&self) -> &[ScheduledFault<S>] {
        &self.events
    }

    /// Consumes the plan into its sorted event list (the world's
    /// internal representation).
    pub fn into_events(self) -> Vec<ScheduledFault<S>> {
        self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the plan against the world it is being attached to:
    /// `current_round` is the world's count of completed rounds and `d`
    /// its alphabet size. Every event must fire strictly in the future,
    /// fractions must be probabilities, spans must be ≥ 1 round, and
    /// noise levels must yield valid `d`-symbol matrices.
    pub fn validate(&self, current_round: u64, d: usize) -> crate::Result<()> {
        self.validate_from(0, current_round, d)
    }

    /// Like [`FaultPlan::validate`], but only checks events from index
    /// `cursor` on. Used when re-attaching a plan to a restored world:
    /// events before the snapshot's fault cursor have already fired, so
    /// their rounds legitimately lie in the past.
    pub fn validate_from(&self, cursor: usize, current_round: u64, d: usize) -> crate::Result<()> {
        let bad = |detail: String| Err(EngineError::BadFaultPlan { detail });
        for (idx, scheduled) in self.events.iter().enumerate().skip(cursor) {
            if scheduled.round <= current_round {
                return bad(format!(
                    "event {idx} scheduled for round {} but the world is already at round \
                     {current_round}",
                    scheduled.round
                ));
            }
            match &scheduled.event {
                FaultEvent::Corrupt { frac, label, .. } => {
                    if !(0.0..=1.0).contains(frac) {
                        return bad(format!("corrupt '{label}' fraction {frac} outside [0, 1]"));
                    }
                }
                FaultEvent::FlipSources => {}
                FaultEvent::SetNoise { noise } => {
                    if noise.dim() != d {
                        return bad(format!(
                            "set-noise matrix has {} symbols, protocol uses {d}",
                            noise.dim()
                        ));
                    }
                }
                FaultEvent::RampNoise { from, to, over } => {
                    if *over == 0 {
                        return bad("noise ramp must span at least one round".into());
                    }
                    for level in [from, to] {
                        if let Err(e) = NoiseMatrix::uniform(d, *level) {
                            return bad(format!("noise ramp endpoint {level} invalid: {e}"));
                        }
                    }
                }
                FaultEvent::Sleep { frac, rounds } => {
                    if !(0.0..=1.0).contains(frac) {
                        return bad(format!("sleep fraction {frac} outside [0, 1]"));
                    }
                    if *rounds == 0 {
                        return bad("sleep must span at least one round".into());
                    }
                }
            }
        }
        Ok(())
    }
}

impl<S> Default for FaultPlan<S> {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl<S> Clone for FaultPlan<S> {
    fn clone(&self) -> Self {
        FaultPlan {
            events: self.events.clone(),
        }
    }
}

impl<S> fmt::Debug for FaultPlan<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("events", &self.events)
            .finish()
    }
}

/// The re-convergence record of one injected fault event, derived from a
/// recorded trace by [`recovery_times`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecovery {
    /// The round the event was injected at.
    pub round: u64,
    /// The event's trace label.
    pub label: String,
    /// The first round at (or after) the injection from which consensus
    /// on the correct opinion held through the rest of the event's
    /// observation window — `None` if the run never re-stabilized before
    /// the window closed (next fault or end of trace).
    pub recovered_round: Option<u64>,
}

impl FaultRecovery {
    /// Rounds from injection back to stable consensus: `0` means the
    /// event never broke consensus; `None` means it never recovered
    /// within its window.
    pub fn recovery_rounds(&self) -> Option<u64> {
        self.recovered_round.map(|r| r - self.round)
    }
}

/// Computes per-event re-convergence times from a recorded trace.
///
/// Each faulted round opens an observation window running up to the next
/// faulted round (exclusive) or the end of the trace. The recovery round
/// is the first round in the window from which every remaining window
/// round has all agents correct — "stable consensus", not a transient
/// all-correct blip. Events sharing an injection round share a window and
/// therefore a recovery round.
pub fn recovery_times(rounds: &[RoundMetrics]) -> Vec<FaultRecovery> {
    let fault_rows: Vec<usize> = (0..rounds.len())
        .filter(|&i| !rounds[i].faults.is_empty())
        .collect();
    let mut out = Vec::new();
    for (which, &row) in fault_rows.iter().enumerate() {
        let window_end = fault_rows.get(which + 1).copied().unwrap_or(rounds.len());
        // Scan the window backwards: the recovery row is the start of the
        // all-correct suffix, provided that suffix is nonempty.
        let mut recovered = None;
        for i in (row..window_end).rev() {
            if rounds[i].correct == rounds[i].n {
                recovered = Some(rounds[i].round);
            } else {
                break;
            }
        }
        for label in &rounds[row].faults {
            out.push(FaultRecovery {
                round: rounds[row].round,
                label: label.clone(),
                recovered_round: recovered,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    type S = Vec<u8>;

    fn corrupt_event(frac: f64) -> FaultEvent<S> {
        FaultEvent::Corrupt {
            frac,
            label: "zero".into(),
            fault: Arc::new(|state: &mut S, id: usize, _rng: &mut StreamRng| {
                state[id] = 0;
            }),
        }
    }

    #[test]
    fn plan_keeps_events_sorted_and_stable() {
        let plan: FaultPlan<S> = FaultPlan::new()
            .at(20, FaultEvent::FlipSources)
            .at(5, corrupt_event(0.5))
            .at(
                20,
                FaultEvent::Sleep {
                    frac: 0.1,
                    rounds: 2,
                },
            )
            .at(
                1,
                FaultEvent::RampNoise {
                    from: 0.1,
                    to: 0.3,
                    over: 4,
                },
            );
        let rounds: Vec<u64> = plan.events().iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![1, 5, 20, 20]);
        // Same-round events keep insertion order: FlipSources before Sleep.
        assert!(matches!(plan.events()[2].event, FaultEvent::FlipSources));
        assert!(matches!(plan.events()[3].event, FaultEvent::Sleep { .. }));
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert!(FaultPlan::<S>::default().is_empty());
    }

    #[test]
    fn validate_accepts_a_sound_plan() {
        let plan: FaultPlan<S> = FaultPlan::new()
            .at(3, corrupt_event(1.0))
            .at(4, FaultEvent::FlipSources)
            .at(
                5,
                FaultEvent::SetNoise {
                    noise: NoiseMatrix::uniform(4, 0.2).unwrap(),
                },
            )
            .at(
                6,
                FaultEvent::RampNoise {
                    from: 0.1,
                    to: 0.2,
                    over: 3,
                },
            )
            .at(
                7,
                FaultEvent::Sleep {
                    frac: 0.5,
                    rounds: 2,
                },
            );
        assert!(plan.validate(2, 4).is_ok());
    }

    #[test]
    fn validate_rejects_past_rounds() {
        let plan: FaultPlan<S> = FaultPlan::new().at(3, FaultEvent::FlipSources);
        assert!(plan.validate(3, 4).is_err());
        assert!(plan.validate(2, 4).is_ok());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let cases: Vec<FaultPlan<S>> = vec![
            FaultPlan::new().at(5, corrupt_event(1.5)),
            FaultPlan::new().at(
                5,
                FaultEvent::Sleep {
                    frac: -0.1,
                    rounds: 2,
                },
            ),
            FaultPlan::new().at(
                5,
                FaultEvent::Sleep {
                    frac: 0.5,
                    rounds: 0,
                },
            ),
            FaultPlan::new().at(
                5,
                FaultEvent::RampNoise {
                    from: 0.1,
                    to: 0.2,
                    over: 0,
                },
            ),
            FaultPlan::new().at(
                5,
                FaultEvent::RampNoise {
                    from: 0.1,
                    to: 0.9,
                    over: 3,
                },
            ),
            FaultPlan::new().at(
                5,
                FaultEvent::SetNoise {
                    noise: NoiseMatrix::uniform(2, 0.1).unwrap(),
                },
            ),
        ];
        for (i, plan) in cases.iter().enumerate() {
            let err = plan.validate(0, 4).unwrap_err();
            assert!(
                matches!(err, EngineError::BadFaultPlan { .. }),
                "case {i}: {err}"
            );
        }
    }

    #[test]
    fn closures_are_state_faults() {
        let mut state: S = vec![7; 4];
        let event = corrupt_event(1.0);
        let FaultEvent::Corrupt { fault, .. } = &event else {
            unreachable!()
        };
        let mut rng = StreamRng::seed_from_u64(0);
        fault.apply(&mut state, 2, &mut rng);
        assert_eq!(state, vec![7, 7, 0, 7]);
        // The rng parameter is usable inside a fault.
        let drawing: Arc<dyn StateFault<S>> =
            Arc::new(|state: &mut S, id: usize, rng: &mut StreamRng| {
                state[id] = rng.gen();
            });
        drawing.apply(&mut state, 0, &mut rng);
    }

    #[test]
    fn events_clone_and_debug() {
        let event = corrupt_event(0.25);
        let cloned = event.clone();
        assert!(format!("{cloned:?}").contains("Corrupt"));
        assert!(format!("{:?}", FaultEvent::<S>::FlipSources).contains("FlipSources"));
        let plan: FaultPlan<S> = FaultPlan::new().at(2, event);
        let plan2 = plan.clone();
        assert_eq!(plan2.len(), 1);
        assert!(format!("{plan2:?}").contains("FaultPlan"));
    }

    fn metrics(round: u64, correct: usize, faults: &[&str]) -> RoundMetrics {
        RoundMetrics {
            round,
            n: 10,
            correct,
            stages: vec![(0, 10)],
            weak_formed: 0,
            weak_correct: 0,
            faults: faults.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn recovery_times_finds_stable_suffix() {
        let trace = vec![
            metrics(1, 10, &[]),
            metrics(2, 3, &["hit"]),
            metrics(3, 6, &[]),
            metrics(4, 10, &[]),
            metrics(5, 10, &[]),
        ];
        let rec = recovery_times(&trace);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].round, 2);
        assert_eq!(rec[0].label, "hit");
        assert_eq!(rec[0].recovered_round, Some(4));
        assert_eq!(rec[0].recovery_rounds(), Some(2));
    }

    #[test]
    fn recovery_ignores_transient_blips() {
        // All-correct at round 3 but broken again at 4: not stable.
        let trace = vec![
            metrics(2, 3, &["hit"]),
            metrics(3, 10, &[]),
            metrics(4, 6, &[]),
            metrics(5, 10, &[]),
        ];
        let rec = recovery_times(&trace);
        assert_eq!(rec[0].recovered_round, Some(5));
    }

    #[test]
    fn recovery_is_zero_when_consensus_never_breaks() {
        let trace = vec![metrics(5, 10, &["soft"]), metrics(6, 10, &[])];
        let rec = recovery_times(&trace);
        assert_eq!(rec[0].recovery_rounds(), Some(0));
    }

    #[test]
    fn recovery_is_none_when_window_never_stabilizes() {
        let trace = vec![metrics(5, 2, &["hard"]), metrics(6, 4, &[])];
        let rec = recovery_times(&trace);
        assert_eq!(rec[0].recovered_round, None);
        assert_eq!(rec[0].recovery_rounds(), None);
    }

    #[test]
    fn windows_close_at_the_next_fault() {
        let trace = vec![
            metrics(1, 4, &["a"]),
            metrics(2, 10, &[]),
            // Round 3 injects two events at once: both share the window.
            metrics(3, 5, &["b", "c"]),
            metrics(4, 10, &[]),
        ];
        let rec = recovery_times(&trace);
        assert_eq!(rec.len(), 3);
        // Event "a"'s window is rounds 1..3 — recovered at round 2.
        assert_eq!(
            (rec[0].label.as_str(), rec[0].recovered_round),
            ("a", Some(2))
        );
        assert_eq!(
            (rec[1].label.as_str(), rec[1].recovered_round),
            ("b", Some(4))
        );
        assert_eq!(
            (rec[2].label.as_str(), rec[2].recovered_round),
            ("c", Some(4))
        );
        assert_eq!(rec[1].recovery_rounds(), Some(1));
    }

    #[test]
    fn empty_trace_yields_no_recoveries() {
        assert!(recovery_times(&[]).is_empty());
        assert!(recovery_times(&[metrics(1, 10, &[])]).is_empty());
    }
}
