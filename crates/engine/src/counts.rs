//! Mean-field counts backend — the third execution backend beside the
//! two per-agent layouts (per-agent records and struct-of-arrays lanes).
//!
//! Under uniform PULL with replacement, the aggregated channel collapses
//! each agent's round to `Multinomial(h, q)` observation counts with
//! `q_j = Σ_σ (c_σ/n)·N_σj` a function of the *display histogram* alone
//! (see [`crate::channel`]). Conditioned on that histogram, the agents'
//! observation vectors are i.i.d. — so for a protocol whose per-agent
//! update is a pure function of its own observations plus private coins,
//! every agent in the same *state class* is exchangeable. Tracking
//! per-class **counts** and drawing each class's transition outcome from
//! the exact binomial/multinomial laws in `np-stats` reproduces the
//! per-agent engine's correct-count trajectory *in distribution* at
//! `O(#classes)` cost per round: population sizes of `10⁷–10⁸` — where
//! the paper's asymptotic claims first become visible — run in
//! milliseconds per round on one thread.
//!
//! What is and is not preserved:
//!
//! * **Distributional, not bit-level, equivalence.** The per-agent engine
//!   spends one RNG stream per agent per stage; this backend spends a
//!   single update stream per round. Trajectories under the same seed
//!   differ; their *laws* agree (cross-validated by KS tests against the
//!   per-agent engine in `crates/core/tests/mean_field_crossval.rs`).
//! * **Aggregated, with-replacement only.** Without replacement the `h`
//!   observations of one agent are drawn from a shrinking pool, the
//!   per-agent counts become multivariate hypergeometric, and — more
//!   fundamentally — the collapse to a product law over agents fails, so
//!   the class-count transition is no longer exact. Construction rejects
//!   such channels. See DESIGN.md §14 for the full argument.
//! * **No faults, snapshots, or per-agent corruption.** Those subsystems
//!   address individual agents; a counts state has none to address.

use crate::channel::{Channel, ChannelKind, SamplingMode};
use crate::error::EngineError;
use crate::metrics::{MetricsSweep, OpinionSeries, RoundMetrics};
use crate::opinion::Opinion;
use crate::population::PopulationConfig;
use crate::run::Run;
use crate::streams::{RoundStreams, StreamRng, StreamStage};
use crate::Result;
use np_linalg::noise::NoiseMatrix;

/// A protocol that can run on class counts. Implemented by SF, SSF, and
/// h-majority next to their per-agent ports; the implementations must be
/// distribution-identical to the per-agent transition functions (the
/// cross-validation suite holds them to that).
pub trait CountsProtocol {
    /// The class-count state this protocol evolves.
    type State: CountsState;

    /// Message alphabet size `|Σ|` (must match the noise matrix).
    fn alphabet_size(&self) -> usize;

    /// Draws the round-zero class counts: the per-agent `init_agent`
    /// coins, collapsed to binomial/multinomial splits over the
    /// population.
    fn init_counts(&self, config: &PopulationConfig, rng: &mut StreamRng) -> Self::State;
}

/// The evolving class-count configuration of a [`CountsProtocol`].
pub trait CountsState {
    /// Writes the display histogram of the current configuration into
    /// `out` (length `|Σ|`, already zeroed by the caller).
    fn display_histogram(&self, out: &mut [u64]);

    /// Advances every class through one round, given the collapsed
    /// single-observation law `obs_law` of this round's display histogram
    /// and the sample count `h`. All randomness must come from `rng` (the
    /// round's update stream), keeping runs reproducible per seed.
    fn advance_round(&mut self, obs_law: &[f64], h: u64, rng: &mut StreamRng);

    /// One observability sweep of the current configuration — same
    /// contract as the per-agent `metrics_sweep` (correct count, stage
    /// occupancy, weak-opinion accuracy).
    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep;
}

/// The mean-field analogue of [`crate::world::World`]: owns a counts
/// state and a channel, advances rounds, and runs through the same
/// [`Run`] loop so callers can switch backends without restructuring.
pub struct CountsWorld<P: CountsProtocol> {
    state: P::State,
    config: PopulationConfig,
    channel: Channel,
    correct_opinion: Opinion,
    seed: u64,
    round: u64,
    series: Option<OpinionSeries>,
    trace: Option<Vec<RoundMetrics>>,
}

impl<P: CountsProtocol> std::fmt::Debug for CountsWorld<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `P::State` carries no Debug bound; identify the run instead.
        f.debug_struct("CountsWorld")
            .field("config", &self.config)
            .field("seed", &self.seed)
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl<P: CountsProtocol> CountsWorld<P> {
    /// Builds a mean-field world with an aggregated, with-replacement
    /// channel (the only configuration under which the class-count
    /// transition is exact; see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::AlphabetMismatch`] if the protocol's
    /// alphabet size differs from the noise matrix's.
    pub fn new(
        protocol: &P,
        config: PopulationConfig,
        noise: &NoiseMatrix,
        seed: u64,
    ) -> Result<Self> {
        if protocol.alphabet_size() != noise.dim() {
            return Err(EngineError::AlphabetMismatch {
                protocol: protocol.alphabet_size(),
                noise: noise.dim(),
            });
        }
        let channel = Channel::new(noise, ChannelKind::Aggregated);
        debug_assert_eq!(channel.sampling_mode(), SamplingMode::WithReplacement);
        crate::invariants::check_population(&config);
        let correct_opinion = config.correct_opinion();
        let mut init_rng = RoundStreams::new(seed, 0).rng(0, StreamStage::Init);
        let state = protocol.init_counts(&config, &mut init_rng);
        Ok(CountsWorld {
            state,
            config,
            channel,
            correct_opinion,
            seed,
            round: 0,
            series: None,
            trace: None,
        })
    }

    /// The population configuration.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// The master seed this world was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The opinion counted as correct (the configuration's majority
    /// preference).
    pub fn correct_opinion(&self) -> Opinion {
        self.correct_opinion
    }

    /// Read access to the class-count state.
    pub fn state(&self) -> &P::State {
        &self.state
    }

    /// Enables per-round recording of opinion counts (see
    /// [`CountsWorld::series`]).
    pub fn record_series(&mut self) {
        if self.series.is_none() {
            self.series = Some(OpinionSeries::new(self.config.n()));
        }
    }

    /// The recorded opinion series, if [`CountsWorld::record_series`] was
    /// called.
    pub fn series(&self) -> Option<&OpinionSeries> {
        self.series.as_ref()
    }

    /// Executes one synchronous round: histogram → collapsed law →
    /// class-count transitions.
    pub fn step(&mut self) {
        let next_round = self.round + 1;
        let mut hist = vec![0u64; self.channel.alphabet_size()];
        self.state.display_histogram(&mut hist);
        // Preconditions hold by construction (non-empty population,
        // with-replacement sampling), so take the trusted hot path.
        let ctx = self
            .channel
            .begin_round_from_counts_trusted(hist, self.config.h());
        // One update stream per round. Agent index 0 is a label, not an
        // agent: the per-agent streams' addressing scheme is reused so the
        // backend inherits the same cross-round independence guarantees.
        let mut rng = RoundStreams::new(self.seed, next_round).rng(0, StreamStage::Update);
        self.state
            .advance_round(ctx.obs_law(), self.config.h() as u64, &mut rng);
        self.round = next_round;
        if self.series.is_some() || self.trace.is_some() {
            let sweep = self.state.metrics_sweep(self.correct_opinion);
            let correct = sweep.correct;
            if let Some(series) = self.series.as_mut() {
                let ones = match self.correct_opinion {
                    Opinion::One => correct,
                    Opinion::Zero => self.config.n() - correct,
                };
                series.push(ones);
            }
            if let Some(trace) = self.trace.as_mut() {
                trace.push(RoundMetrics {
                    round: self.round,
                    n: self.config.n(),
                    correct,
                    stages: sweep.stages,
                    weak_formed: sweep.weak_formed,
                    weak_correct: sweep.weak_correct,
                    faults: Vec::new(),
                });
            }
        }
    }

    /// Number of agents currently holding the correct opinion.
    pub fn correct_count(&self) -> usize {
        self.state.metrics_sweep(self.correct_opinion).correct
    }
}

impl<P: CountsProtocol> Run for CountsWorld<P> {
    fn step(&mut self) {
        CountsWorld::step(self);
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn correct_count(&self) -> usize {
        CountsWorld::correct_count(self)
    }

    fn n(&self) -> usize {
        self.config.n()
    }

    fn record_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Fault labels are always empty — the backend has no fault
    /// subsystem.
    fn traced_rounds(&self) -> &[RoundMetrics] {
        self.trace.as_deref().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunOutcome;
    use np_stats::binomial;

    /// Toy counts protocol: every agent displays its opinion; each round
    /// every non-source adopts opinion 1 with the collapsed law's
    /// probability of observing a 1. Enough structure to exercise the
    /// world mechanics end to end.
    struct Drift;

    struct DriftState {
        n: u64,
        s1: u64,
        non_ones: u64,
    }

    impl CountsProtocol for Drift {
        type State = DriftState;

        fn alphabet_size(&self) -> usize {
            2
        }

        fn init_counts(&self, config: &PopulationConfig, _rng: &mut StreamRng) -> DriftState {
            DriftState {
                n: config.n() as u64,
                s1: config.s1() as u64,
                non_ones: 0,
            }
        }
    }

    impl CountsState for DriftState {
        fn display_histogram(&self, out: &mut [u64]) {
            out[1] = self.non_ones + self.s1;
            out[0] = self.n - out[1];
        }

        fn advance_round(&mut self, obs_law: &[f64], _h: u64, rng: &mut StreamRng) {
            let non = self.n - self.s1;
            self.non_ones = binomial::sample_unchecked(rng, non, obs_law[1]);
        }

        fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
            let ones = (self.non_ones + self.s1) as usize;
            let correct_count = match correct {
                Opinion::One => ones,
                Opinion::Zero => self.n as usize - ones,
            };
            MetricsSweep {
                correct: correct_count,
                stages: vec![(0, self.n as usize)],
                weak_formed: 0,
                weak_correct: 0,
            }
        }
    }

    fn world(seed: u64) -> CountsWorld<Drift> {
        let config = PopulationConfig::new(100, 0, 10, 16).unwrap();
        let noise = NoiseMatrix::noiseless(2);
        CountsWorld::new(&Drift, config, &noise, seed).unwrap()
    }

    #[test]
    fn rejects_alphabet_mismatch() {
        let config = PopulationConfig::new(100, 0, 10, 16).unwrap();
        let noise = NoiseMatrix::noiseless(4);
        assert!(matches!(
            CountsWorld::new(&Drift, config, &noise, 0),
            Err(EngineError::AlphabetMismatch {
                protocol: 2,
                noise: 4
            })
        ));
    }

    #[test]
    fn step_advances_rounds_and_records() {
        let mut w = world(3);
        w.record_series();
        w.record_trace();
        w.run(5);
        assert_eq!(w.round(), 5);
        assert_eq!(w.series().unwrap().len(), 5);
        let trace = w.traced_rounds();
        assert_eq!(trace.len(), 5);
        assert_eq!(trace[4].round, 5);
        assert_eq!(trace[4].n, 100);
        assert!(trace.iter().all(|m| m.faults.is_empty()));
        // Series and trace must agree on the correct count.
        assert_eq!(
            w.series().unwrap().count(4, w.correct_opinion()),
            trace[4].correct
        );
    }

    #[test]
    fn noiseless_all_one_start_is_absorbing() {
        // Force the all-one configuration: noiseless observations of an
        // all-one display keep every agent at 1 forever.
        let mut w = world(7);
        w.state.non_ones = 90;
        assert!(w.is_consensus());
        assert_eq!(
            w.run_until_consensus(10),
            RunOutcome::Converged { rounds: 0 }
        );
        w.run(3);
        assert_eq!(w.correct_count(), 100);
    }

    #[test]
    fn converges_under_drift_toward_sources() {
        // 10% stubborn one-sources under a noiseless channel: q₁ ≥ 0.1
        // every round, and once non-sources tip to ones q₁ grows — the
        // chain absorbs at all-one almost surely within a modest budget.
        let mut w = world(11);
        let outcome = w.run_until_stable_consensus(500, 3);
        assert!(outcome.converged(), "got {outcome:?}");
    }

    #[test]
    fn same_seed_reproduces_trajectory() {
        let runs: Vec<Vec<usize>> = (0..2)
            .map(|_| {
                let mut w = world(42);
                w.record_series();
                w.run(20);
                w.series().unwrap().counts(Opinion::One)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        let mut other = world(43);
        other.record_series();
        other.run(20);
        assert_ne!(
            runs[0],
            other.series().unwrap().counts(Opinion::One),
            "different seeds should diverge"
        );
    }
}
