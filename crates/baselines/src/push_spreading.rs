//! Noisy PUSH(h) information spreading — the model contrast of §1.5.
//!
//! In the noisy PUSH model, *reception is reliable*: a message may arrive
//! corrupted, but it cannot arrive uninvited, and silence cannot be
//! faked. Feinerman, Haeupler and Korman (2017) \[18\] exploited this to
//! spread a bit in `O(log n)` rounds at `h = 1` — an exponential
//! separation from the `Ω(n)` PULL(1) lower bound. This module implements
//! a simplified protocol in that spirit (not the full \[18\] machinery) so
//! the separation can be *measured* (experiment EXP-PUSH):
//!
//! 1. **Spreading stage** — `S` phases of `R` rounds. Informed agents push
//!    their bit every round; an uninformed agent that received anything
//!    during a phase adopts the majority of what it received and becomes
//!    informed. Because *becoming informed* keys off the reliable
//!    reception event, awareness multiplies by ~`h·R` per phase and
//!    saturates in `O(log n / log(hR))` phases; content errors accumulate
//!    only along the (logarithmic) adoption depth.
//! 2. **Correction stage** — `B` sub-phases of `F` rounds in which *every*
//!    agent pushes its opinion and re-decodes the majority of what it
//!    receives: the same amplification engine as SF's Majority Boosting,
//!    transplanted to PUSH. It wipes out the per-hop noise accumulated
//!    during spreading.
//!
//! Total time: `S·R + B·F = O(polylog n)` for constant noise — versus
//! `Θ(n log n)` for PULL(1).

use crate::{require, ParamError};
use np_engine::opinion::Opinion;
use np_engine::population::Role;
use np_engine::push::{PushAgentState, PushProtocol};
use np_engine::streams::StreamRng;
use rand::Rng;

/// Schedule for [`PushSpreading`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushSpreadingParams {
    /// Rounds per spreading phase (`R`).
    pub receipt_window: u64,
    /// Number of spreading phases (`S`).
    pub spreading_phases: u64,
    /// Rounds per correction sub-phase (`F`).
    pub correction_window: u64,
    /// Number of correction sub-phases (`B`).
    pub correction_subphases: u64,
}

impl PushSpreadingParams {
    /// Derives a schedule for `n` agents with per-sender fan-out `h` under
    /// uniform noise `δ < ½`.
    ///
    /// `R = ⌈2·ln n⌉`, `S = ⌈ln n / ln(1 + h·R)⌉ + 2`,
    /// `F = ⌈(100/(1−2δ)²)/h⌉`, `B = ⌈10·ln n⌉` — the correction stage
    /// mirrors SF's boosting constants.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `n ≥ 2`, `h ≥ 1` and `0 ≤ δ < ½`.
    pub fn derive(n: usize, h: usize, delta: f64) -> Result<Self, ParamError> {
        require(n >= 2, || "need at least two agents".into())?;
        require(h >= 1, || "fan-out must be positive".into())?;
        require((0.0..0.5).contains(&delta), || {
            format!("delta {delta} outside [0, 0.5)")
        })?;
        let ln_n = (n as f64).ln().max(1.0);
        let receipt_window = (2.0 * ln_n).ceil() as u64;
        let growth = (1.0 + h as f64 * receipt_window as f64).ln();
        let spreading_phases = (ln_n / growth).ceil() as u64 + 2;
        let gap = 1.0 - 2.0 * delta;
        let w = (100.0 / (gap * gap)).ceil();
        let correction_window = (w / h as f64).ceil() as u64;
        let correction_subphases = (10.0 * ln_n).ceil() as u64;
        Ok(PushSpreadingParams {
            receipt_window,
            spreading_phases,
            correction_window,
            correction_subphases,
        })
    }

    /// Total schedule length in rounds.
    pub fn total_rounds(&self) -> u64 {
        self.spreading_phases * self.receipt_window
            + self.correction_subphases * self.correction_window
    }

    /// End of the spreading stage, in rounds.
    pub fn spreading_rounds(&self) -> u64 {
        self.spreading_phases * self.receipt_window
    }
}

/// The simplified noisy PUSH spreading protocol (binary alphabet).
///
/// # Example
///
/// ```
/// use np_baselines::push_spreading::{PushSpreading, PushSpreadingParams};
/// use np_engine::{population::PopulationConfig, push::PushWorld, run::Run};
/// use np_linalg::noise::NoiseMatrix;
///
/// let n = 256;
/// let params = PushSpreadingParams::derive(n, 1, 0.1)?;
/// let config = PopulationConfig::new(n, 0, 1, 1)?; // single source, h = 1!
/// let noise = NoiseMatrix::uniform(2, 0.1)?;
/// let mut world = PushWorld::new(&PushSpreading::new(params), config, &noise, 5)?;
/// world.run(params.total_rounds());
/// assert!(world.is_consensus());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushSpreading {
    params: PushSpreadingParams,
}

impl PushSpreading {
    /// Creates the protocol from a derived schedule.
    pub fn new(params: PushSpreadingParams) -> Self {
        PushSpreading { params }
    }

    /// The schedule in use.
    pub fn params(&self) -> &PushSpreadingParams {
        &self.params
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushStage {
    Spreading { phase: u64 },
    Correcting { subphase: u64 },
    Done,
}

/// Per-agent state of [`PushSpreading`].
#[derive(Debug, Clone)]
pub struct PushSpreadingAgent {
    params: PushSpreadingParams,
    stage: PushStage,
    round_in_stage: u64,
    informed: bool,
    opinion: Opinion,
    received: [u64; 2],
}

impl PushSpreadingAgent {
    /// Whether the agent has adopted a bit yet.
    pub fn is_informed(&self) -> bool {
        self.informed
    }

    fn majority(&self, rng: &mut StreamRng) -> Opinion {
        match self.received[1].cmp(&self.received[0]) {
            std::cmp::Ordering::Greater => Opinion::One,
            std::cmp::Ordering::Less => Opinion::Zero,
            std::cmp::Ordering::Equal => Opinion::from_bool(rng.gen()),
        }
    }
}

impl PushProtocol for PushSpreading {
    type Agent = PushSpreadingAgent;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> PushSpreadingAgent {
        PushSpreadingAgent {
            params: self.params,
            stage: PushStage::Spreading { phase: 0 },
            round_in_stage: 0,
            informed: role.is_source(),
            opinion: role.preference().unwrap_or(Opinion::from_bool(rng.gen())),
            received: [0, 0],
        }
    }
}

impl PushAgentState for PushSpreadingAgent {
    fn send(&self, _rng: &mut StreamRng) -> Option<usize> {
        match self.stage {
            // Spreading: only informed agents speak — silence is reliable.
            PushStage::Spreading { .. } => self.informed.then(|| self.opinion.as_index()),
            // Correction: everyone pushes (by now everyone is informed).
            PushStage::Correcting { .. } | PushStage::Done => Some(self.opinion.as_index()),
        }
    }

    fn receive(&mut self, received: &[u64], rng: &mut StreamRng) {
        debug_assert_eq!(received.len(), 2);
        self.received[0] += received[0];
        self.received[1] += received[1];
        self.round_in_stage += 1;
        match self.stage {
            PushStage::Spreading { phase } => {
                if self.round_in_stage >= self.params.receipt_window {
                    if !self.informed && self.received[0] + self.received[1] > 0 {
                        // The reliable reception event: adopt and join.
                        self.opinion = self.majority(rng);
                        self.informed = true;
                    }
                    self.received = [0, 0];
                    self.round_in_stage = 0;
                    if phase + 1 >= self.params.spreading_phases {
                        self.stage = PushStage::Correcting { subphase: 0 };
                        self.informed = true;
                    } else {
                        self.stage = PushStage::Spreading { phase: phase + 1 };
                    }
                }
            }
            PushStage::Correcting { subphase } => {
                if self.round_in_stage >= self.params.correction_window {
                    if self.received[0] + self.received[1] > 0 {
                        self.opinion = self.majority(rng);
                    }
                    self.received = [0, 0];
                    self.round_in_stage = 0;
                    if subphase + 1 >= self.params.correction_subphases {
                        self.stage = PushStage::Done;
                    } else {
                        self.stage = PushStage::Correcting {
                            subphase: subphase + 1,
                        };
                    }
                }
            }
            PushStage::Done => {
                self.received = [0, 0];
            }
        }
    }

    fn opinion(&self) -> Opinion {
        self.opinion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::population::PopulationConfig;
    use np_engine::push::PushWorld;
    use np_engine::run::Run;
    use np_linalg::noise::NoiseMatrix;
    use rand::SeedableRng;

    #[test]
    fn params_shape() {
        let p = PushSpreadingParams::derive(1024, 1, 0.1).unwrap();
        assert!(p.receipt_window >= 14); // 2 ln 1024 ≈ 13.9
        assert!(p.spreading_phases >= 3);
        assert!(p.correction_subphases >= 69);
        assert_eq!(
            p.total_rounds(),
            p.spreading_rounds() + p.correction_subphases * p.correction_window
        );
        // Larger h shrinks the correction window.
        let p8 = PushSpreadingParams::derive(1024, 8, 0.1).unwrap();
        assert!(p8.correction_window < p.correction_window);
    }

    #[test]
    fn params_reject_bad_delta() {
        let e = PushSpreadingParams::derive(64, 1, 0.5).unwrap_err();
        assert!(e.to_string().contains("outside [0, 0.5)"), "{e}");
    }

    #[test]
    fn uninformed_agents_stay_silent_in_spreading() {
        let params = PushSpreadingParams::derive(64, 1, 0.1).unwrap();
        let proto = PushSpreading::new(params);
        let mut rng = StreamRng::seed_from_u64(0);
        let non = proto.init_agent(Role::NonSource, &mut rng);
        assert!(!non.is_informed());
        assert_eq!(non.send(&mut rng), None);
        let src = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        assert!(src.is_informed());
        assert_eq!(src.send(&mut rng), Some(1));
    }

    #[test]
    fn adoption_happens_at_phase_boundary() {
        let params = PushSpreadingParams::derive(64, 1, 0.1).unwrap();
        let proto = PushSpreading::new(params);
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        // Receive a single One mid-phase: not yet informed.
        agent.receive(&[0, 1], &mut rng);
        assert!(!agent.is_informed());
        // Complete the phase silently: becomes informed with opinion One.
        for _ in 1..params.receipt_window {
            agent.receive(&[0, 0], &mut rng);
        }
        assert!(agent.is_informed());
        assert_eq!(agent.opinion(), Opinion::One);
        assert_eq!(agent.send(&mut rng), Some(1));
    }

    #[test]
    fn spreads_at_h_1_under_noise_in_polylog_time() {
        let n = 256;
        let params = PushSpreadingParams::derive(n, 1, 0.1).unwrap();
        let config = PopulationConfig::new(n, 0, 1, 1).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut world = PushWorld::new(&PushSpreading::new(params), config, &noise, 7).unwrap();
        world.run(params.total_rounds());
        assert!(world.is_consensus(), "{}/{n}", world.correct_count());
        // The separation lives in the dissemination part: PUSH's spreading
        // stage is O(log n) rounds, versus the Θ(n·δ·log n) listening
        // phases PULL(1) needs before *any* agent knows anything. (The
        // majority-amplification stage costs the same in both models and
        // dominates at small n.)
        assert!(
            params.spreading_rounds() < n as u64,
            "spreading stage {} rounds is not ≪ n = {n}",
            params.spreading_rounds()
        );
    }

    #[test]
    fn spreads_opinion_zero_too() {
        let n = 256;
        let params = PushSpreadingParams::derive(n, 2, 0.1).unwrap();
        let config = PopulationConfig::new(n, 1, 0, 2).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut world = PushWorld::new(&PushSpreading::new(params), config, &noise, 9).unwrap();
        world.run(params.total_rounds());
        assert!(world.is_consensus());
        assert!(world.iter_agents().all(|a| a.opinion() == Opinion::Zero));
    }
}
