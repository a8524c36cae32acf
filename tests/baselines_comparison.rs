//! Integration: SF succeeds where the baselines fail, under identical
//! budgets — the qualitative content of experiment EXP-BASE.

use noisy_pull_repro::baselines::majority::HMajority;
use noisy_pull_repro::baselines::mean_estimator::MeanEstimator;
use noisy_pull_repro::baselines::trusting_copy::TrustingCopy;
use noisy_pull_repro::baselines::voter::ZealotVoter;
use noisy_pull_repro::prelude::*;
use np_bench::harness::run_settled;

const N: usize = 256;
const DELTA: f64 = 0.15;
const SEEDS: u64 = 6;

fn budget() -> u64 {
    let config = PopulationConfig::new(N, 0, 1, N).unwrap();
    let params = SfParams::derive(&config, DELTA, 1.0).unwrap();
    2 * params.total_rounds()
}

fn successes<P: ColumnarProtocol>(proto: &P, delta: f64) -> u32 {
    let config = PopulationConfig::new(N, 0, 1, N).unwrap();
    let noise = NoiseMatrix::uniform(proto.alphabet_size(), delta).unwrap();
    let mut wins = 0;
    for seed in 0..SEEDS {
        let mut world = World::new(
            proto,
            config,
            &noise,
            ChannelKind::Aggregated,
            0xBEEF + seed,
        )
        .unwrap();
        if run_settled(&mut world, budget()).converged() {
            wins += 1;
        }
    }
    wins
}

#[test]
fn sf_wins_every_seed() {
    let config = PopulationConfig::new(N, 0, 1, N).unwrap();
    let params = SfParams::derive(&config, DELTA, 1.0).unwrap();
    assert_eq!(successes(&SourceFilter::new(params), DELTA), SEEDS as u32);
}

#[test]
fn zealot_voter_never_settles_under_noise() {
    // Noisy observations keep flipping voters: full correct consensus is
    // never *held*.
    assert_eq!(successes(&ZealotVoter, DELTA), 0);
}

#[test]
fn h_majority_is_a_coin_flip_at_best() {
    // Majority locks into the initial random split; a single source can't
    // tip it. Expect well below SF's 100% (allow a lucky seed or three).
    let wins = successes(&HMajority, DELTA);
    assert!(wins < SEEDS as u32, "h-majority won all {SEEDS} seeds");
}

#[test]
fn trusting_copy_is_poisoned_by_noise() {
    let wins = successes(&TrustingCopy, 0.1);
    assert!(wins < SEEDS as u32, "trusting-copy won all {SEEDS} seeds");
}

#[test]
fn mean_estimator_tracks_itself_not_the_source() {
    let wins = successes(&MeanEstimator::new(DELTA), DELTA);
    assert!(wins < SEEDS as u32, "mean-estimator won all {SEEDS} seeds");
}

#[test]
fn trusting_copy_works_without_noise() {
    // Completing the contrast: the same protocol is excellent noiselessly.
    assert_eq!(successes(&TrustingCopy, 0.0), SEEDS as u32);
}
