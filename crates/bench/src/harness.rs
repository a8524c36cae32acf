//! Canonical experiment drivers: build a world, run it, report when the
//! system *settled* on the correct consensus.
//!
//! The settle round is the first round from which consensus held
//! continuously to the end of the run — the measurement the paper's
//! Definition 2 calls for (reach consensus *and stay*), robust against
//! transient all-correct configurations early in a run.

use noisy_pull::adversary::SsfAdversary;
use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_engine::channel::ChannelKind;
use np_engine::population::PopulationConfig;
use np_engine::protocol::ColumnarProtocol;
use np_engine::runner::{run_batch, suggested_threads};
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_stats::estimate::Summary;
use np_stats::seeds::SeedSequence;

/// Result of one measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// First round from which correct consensus held to the end of the
    /// run, if it did.
    pub settled_round: Option<u64>,
    /// Rounds executed.
    pub budget: u64,
}

impl Measured {
    /// Returns `true` if the run ended in (settled) consensus.
    pub fn converged(&self) -> bool {
        self.settled_round.is_some()
    }
}

/// Picks the cheaper of the two distribution-identical channels: literal
/// sampling for tiny `h`, aggregated binomial counts otherwise.
pub fn auto_channel(h: usize) -> ChannelKind {
    if h <= 8 {
        ChannelKind::Exact
    } else {
        ChannelKind::Aggregated
    }
}

/// Steps `world` for `budget` rounds and reports the settle round.
pub fn run_settled<P: ColumnarProtocol>(world: &mut World<P>, budget: u64) -> Measured {
    let mut last_bad: u64 = 0;
    for r in 1..=budget {
        world.step();
        if !world.is_consensus() {
            last_bad = r;
        }
    }
    let settled_round = (budget > 0 && last_bad < budget).then_some(last_bad + 1);
    Measured {
        settled_round,
        budget,
    }
}

/// A fully specified SF experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfSetup {
    /// Population size.
    pub n: usize,
    /// Sources preferring 0.
    pub s0: usize,
    /// Sources preferring 1.
    pub s1: usize,
    /// Sample size.
    pub h: usize,
    /// Uniform noise level.
    pub delta: f64,
    /// Tuning constant `c₁` for Eq. (19).
    pub c1: f64,
}

impl SfSetup {
    /// Single-source shorthand with `h = n`.
    pub fn single_source_full_sample(n: usize, delta: f64, c1: f64) -> Self {
        SfSetup {
            n,
            s0: 0,
            s1: 1,
            h: n,
            delta,
            c1,
        }
    }

    /// The derived population config.
    ///
    /// # Panics
    ///
    /// Panics on invalid population parameters (experiment code chooses
    /// valid grids).
    pub fn config(&self) -> PopulationConfig {
        PopulationConfig::new(self.n, self.s0, self.s1, self.h).expect("valid experiment grid")
    }

    /// The derived SF parameters.
    ///
    /// # Panics
    ///
    /// Panics on invalid `delta`/`c1`.
    pub fn params(&self) -> SfParams {
        SfParams::derive(&self.config(), self.delta, self.c1).expect("valid experiment grid")
    }

    /// Runs one seeded execution for the full schedule.
    ///
    /// The world runs single-threaded: experiment parallelism lives at
    /// the batch level ([`Self::run_many`]), and stacking intra-round
    /// threads on top of batch threads would only oversubscribe cores.
    /// Outcomes are thread-count-invariant either way.
    pub fn run(&self, seed: u64) -> Measured {
        let config = self.config();
        let params = self.params();
        let noise = NoiseMatrix::uniform(2, self.delta).expect("valid delta");
        let mut world = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            auto_channel(self.h),
            seed,
        )
        .expect("alphabets match");
        world.set_threads(1);
        run_settled(&mut world, params.total_rounds())
    }

    /// Runs `runs` seeded executions in parallel.
    pub fn run_many(&self, master_seed: u64, runs: usize) -> Vec<Measured> {
        let setup = *self;
        run_batch(
            SeedSequence::new(master_seed),
            runs,
            suggested_threads(),
            move |seed| setup.run(seed),
        )
    }
}

/// A fully specified SSF experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsfSetup {
    /// Population size.
    pub n: usize,
    /// Sources preferring 0.
    pub s0: usize,
    /// Sources preferring 1.
    pub s1: usize,
    /// Sample size.
    pub h: usize,
    /// Uniform noise level (must be < ¼).
    pub delta: f64,
    /// Tuning constant `c₁` for Eq. (30).
    pub c1: f64,
    /// Initial-state corruption strategy.
    pub adversary: SsfAdversary,
    /// Round budget in units of the update interval `⌈m/h⌉`.
    pub budget_intervals: u64,
}

impl SsfSetup {
    /// Single-source shorthand: `h = n`, no adversary, 8-interval budget.
    pub fn single_source_full_sample(n: usize, delta: f64, c1: f64) -> Self {
        SsfSetup {
            n,
            s0: 0,
            s1: 1,
            h: n,
            delta,
            c1,
            adversary: SsfAdversary::None,
            budget_intervals: 8,
        }
    }

    /// The derived population config.
    ///
    /// # Panics
    ///
    /// Panics on invalid population parameters.
    pub fn config(&self) -> PopulationConfig {
        PopulationConfig::new(self.n, self.s0, self.s1, self.h).expect("valid experiment grid")
    }

    /// The derived SSF parameters.
    ///
    /// # Panics
    ///
    /// Panics on invalid `delta`/`c1`.
    pub fn params(&self) -> SsfParams {
        SsfParams::derive(&self.config(), self.delta, self.c1).expect("valid experiment grid")
    }

    /// Runs one seeded execution: corrupt initial states per the
    /// adversary, then run for the interval budget.
    pub fn run(&self, seed: u64) -> Measured {
        let config = self.config();
        let params = self.params();
        let correct = config.correct_opinion();
        let m = params.m();
        let noise = NoiseMatrix::uniform(4, self.delta).expect("valid delta");
        let mut world = World::new(
            &SelfStabilizingSourceFilter::new(params),
            config,
            &noise,
            auto_channel(self.h),
            seed,
        )
        .expect("alphabets match");
        // Single-threaded for the same reason as `SfSetup::run`: the
        // batch level owns the parallelism.
        world.set_threads(1);
        let adversary = self.adversary;
        world.corrupt_agents(|id, agent, rng| {
            adversary.corrupt(agent, correct, m, id, rng);
        });
        let budget = self.budget_intervals * params.update_interval();
        run_settled(&mut world, budget)
    }

    /// Runs `runs` seeded executions in parallel.
    pub fn run_many(&self, master_seed: u64, runs: usize) -> Vec<Measured> {
        let setup = *self;
        run_batch(
            SeedSequence::new(master_seed),
            runs,
            suggested_threads(),
            move |seed| setup.run(seed),
        )
    }
}

/// Aggregates a batch of measurements: success rate plus a [`Summary`] of
/// the settle rounds of the successful runs (`None` if none succeeded).
pub fn summarize(measured: &[Measured]) -> (f64, Option<Summary>) {
    if measured.is_empty() {
        return (0.0, None);
    }
    let settled: Vec<f64> = measured
        .iter()
        .filter_map(|m| m.settled_round.map(|r| r as f64))
        .collect();
    let rate = settled.len() as f64 / measured.len() as f64;
    let summary = Summary::from_values(&settled).ok();
    (rate, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_setup_runs_and_converges() {
        let setup = SfSetup::single_source_full_sample(128, 0.15, 1.0);
        let m = setup.run(3);
        assert!(m.converged(), "{m:?}");
        assert!(m.settled_round.unwrap() <= m.budget);
    }

    #[test]
    fn sf_run_many_is_deterministic() {
        let setup = SfSetup::single_source_full_sample(64, 0.1, 1.0);
        let a = setup.run_many(9, 4);
        let b = setup.run_many(9, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn ssf_setup_with_adversary_converges() {
        let setup = SsfSetup {
            n: 128,
            s0: 0,
            s1: 1,
            h: 128,
            delta: 0.1,
            c1: 8.0,
            adversary: SsfAdversary::PoisonedMemory,
            budget_intervals: 10,
        };
        let m = setup.run(5);
        assert!(m.converged(), "{m:?}");
    }

    #[test]
    fn summarize_reports_rates() {
        let ms = [
            Measured {
                settled_round: Some(10),
                budget: 100,
            },
            Measured {
                settled_round: None,
                budget: 100,
            },
        ];
        let (rate, summary) = summarize(&ms);
        assert_eq!(rate, 0.5);
        assert_eq!(summary.unwrap().mean(), 10.0);
        let (zero_rate, none) = summarize(&[]);
        assert_eq!(zero_rate, 0.0);
        assert!(none.is_none());
    }

    #[test]
    fn run_settled_reports_first_stable_round() {
        // A world that is in consensus from the start (sources majority,
        // no noise) settles at round 1.
        use np_baselines::majority::HMajority;
        let config = PopulationConfig::new(16, 0, 12, 16).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.0).unwrap();
        let mut world = World::new(&HMajority, config, &noise, ChannelKind::Aggregated, 1).unwrap();
        let m = run_settled(&mut world, 10);
        assert!(m.converged());
        assert!(m.settled_round.unwrap() <= 3);
    }
}
