//! Exact-channel cross-validation of the mean-field counts backend.
//!
//! The SF/SSF suite in `crates/core/tests/mean_field_crossval.rs` covers
//! [`ChannelKind::Aggregated`]; this file covers [`ChannelKind::Exact`].
//! Under with-replacement sampling the two kinds draw from the same
//! per-agent observation law (Multinomial(h, q) with q the collapsed
//! display law), so the mean-field backend — which always works from the
//! collapsed law — must reproduce Exact-channel per-agent distributions
//! too. h-majority is the probe protocol: its per-agent Exact run is
//! cheap at small `h`, and its single-round transition exercises
//! `majority_prob` directly.

use np_baselines::majority::HMajority;
use np_engine::channel::ChannelKind;
use np_engine::counts::CountsWorld;
use np_engine::population::PopulationConfig;
use np_engine::run::Run;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_stats::ks::ks2_p_value;

const SEEDS: u64 = 64;
const P_THRESHOLD: f64 = 0.01;
const ROUNDS: u64 = 24;
/// What each entry of [`stats`]'s vector is, for failure messages.
const STATS: [&str; 4] = [
    "round-1 correct count",
    "round-2 correct count",
    "round-4 correct count",
    "first all-correct round",
];

fn setup() -> (PopulationConfig, NoiseMatrix) {
    // 40 one-sources out of 128, h = 8, 10% symmetric noise: enough
    // stubborn pull to drift toward One, small enough h that the
    // per-round correct count keeps real spread at every probe.
    let config = PopulationConfig::new(128, 0, 40, 8).expect("valid population");
    let noise = NoiseMatrix::uniform(2, 0.1).expect("valid noise");
    (config, noise)
}

/// Runs `world` (either backend) for [`ROUNDS`] rounds; returns the
/// correct-opinion counts at rounds 1, 2 and 4 plus the first all-correct
/// round (budget + 1 when never reached).
fn stats(mut world: impl Run) -> Vec<f64> {
    world.record_trace();
    world.run(ROUNDS);
    let correct: Vec<usize> = world.traced_rounds().iter().map(|m| m.correct).collect();
    let first_all_correct = correct
        .iter()
        .position(|&c| c == world.n())
        .map_or(correct.len() as f64 + 1.0, |idx| idx as f64 + 1.0);
    vec![
        correct[0] as f64,
        correct[1] as f64,
        correct[3] as f64,
        first_all_correct,
    ]
}

fn per_agent_exact(seed: u64) -> Vec<f64> {
    let (config, noise) = setup();
    stats(World::new(&HMajority, config, &noise, ChannelKind::Exact, seed).expect("valid world"))
}

fn mean_field(seed: u64) -> Vec<f64> {
    let (config, noise) = setup();
    stats(CountsWorld::new(&HMajority, config, &noise, seed).expect("valid world"))
}

#[test]
fn majority_mean_field_matches_exact_channel() {
    let agent_runs: Vec<Vec<f64>> = (0..SEEDS).map(per_agent_exact).collect();
    let field_runs: Vec<Vec<f64>> = (0..SEEDS).map(|s| mean_field(1000 + s)).collect();
    for stat in 0..agent_runs[0].len() {
        let xs: Vec<f64> = agent_runs.iter().map(|r| r[stat]).collect();
        let ys: Vec<f64> = field_runs.iter().map(|r| r[stat]).collect();
        let p = ks2_p_value(&xs, &ys).expect("valid samples");
        assert!(
            p > P_THRESHOLD,
            "h-majority exact-channel crossval: {} KS p = {p:.4}",
            STATS[stat],
        );
    }
}
