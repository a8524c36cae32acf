//! Distributional cross-validation of the mean-field counts backend
//! against the per-agent engine (ISSUE 8 acceptance gate).
//!
//! The two backends share no RNG layout, so trajectories differ per seed;
//! what must agree is the *law* of the trajectory. For each protocol we
//! collect per-seed summary statistics — the correct-opinion count at
//! structurally meaningful probe rounds and the first all-correct round —
//! over ≥64 seeds from both backends and demand a two-sample KS p-value
//! above 0.01 ([`np_stats::ks::ks2_p_value`]; conservative on discrete
//! data). The statistics are chosen where the distributions have spread:
//! probe rounds sit right after weak formation (SF) and the first/second
//! memory flush (SSF), where a backend transcription error (wrong
//! boundary round, wrong tie handling, wrong conditional law) shifts the
//! distribution by Θ(σ) or more and drives p below any threshold.
//!
//! `n = 256` runs in tier-1; `n = 4096` is `#[ignore]` and exercised in
//! release mode by `scripts/ci.sh` (the SSF flush law costs
//! `O(σ_S·σ_M₃)` per flush, which is release-build territory at 4096).
//!
//! The exact-channel cross-check lives in
//! `crates/baselines/tests/mean_field_crossval.rs` (h-majority, whose
//! per-agent port is cheap under `ChannelKind::Exact`).

use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_engine::channel::ChannelKind;
use np_engine::counts::CountsWorld;
use np_engine::population::PopulationConfig;
use np_engine::run::Run;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_stats::ks::ks2_p_value;

const SEEDS: u64 = 64;
const P_THRESHOLD: f64 = 0.01;

/// Per-seed summary: correct counts at the probe rounds, plus the
/// 1-based first all-correct round (budget + 1 when no round was all
/// correct within the recorded horizon). That is the first round of
/// consensus, not the settle round (`Run::settle`, the first round from
/// which consensus held to the end).
struct RunStats {
    probes: Vec<f64>,
    first_all_correct: f64,
}

fn first_all_correct_round(correct_by_round: &[usize], n: usize) -> f64 {
    correct_by_round
        .iter()
        .position(|&c| c == n)
        .map_or(correct_by_round.len() as f64 + 1.0, |idx| idx as f64 + 1.0)
}

fn sf_setup(n: usize) -> (PopulationConfig, SfParams, NoiseMatrix) {
    let config = PopulationConfig::new(n, 0, 1, n).expect("valid population");
    let params = SfParams::derive(&config, 0.2, 1.0).expect("valid params");
    let noise = NoiseMatrix::uniform(2, 0.2).expect("valid noise");
    (config, params, noise)
}

/// SF probe rounds: right after weak formation (round 2T) and after the
/// first boosting sub-phase — where the correct count is mid-flight.
fn sf_probe_rounds(params: &SfParams) -> Vec<u64> {
    let weak_round = 2 * params.phase_len();
    vec![weak_round, weak_round + params.subphase_len()]
}

/// Runs `world` (either backend) for `rounds` rounds and returns each
/// round's correct count and weak-opinion accuracy from its trace.
fn traced_counts(mut world: impl Run, rounds: u64) -> (Vec<usize>, Vec<usize>) {
    world.record_trace();
    world.run(rounds);
    let trace = world.traced_rounds();
    (
        trace.iter().map(|m| m.correct).collect(),
        trace.iter().map(|m| m.weak_correct).collect(),
    )
}

fn sf_stats(world: impl Run, params: &SfParams, n: usize) -> RunStats {
    let (correct, _) = traced_counts(world, params.total_rounds());
    RunStats {
        probes: sf_probe_rounds(params)
            .iter()
            .map(|&r| correct[r as usize - 1] as f64)
            .collect(),
        first_all_correct: first_all_correct_round(&correct, n),
    }
}

fn sf_stats_per_agent(n: usize, seed: u64) -> RunStats {
    let (config, params, noise) = sf_setup(n);
    let protocol = SourceFilter::new(params);
    let world =
        World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).expect("valid world");
    sf_stats(world, &params, n)
}

fn sf_stats_mean_field(n: usize, seed: u64) -> RunStats {
    let (config, params, noise) = sf_setup(n);
    let world =
        CountsWorld::new(&SourceFilter::new(params), config, &noise, seed).expect("valid world");
    sf_stats(world, &params, n)
}

fn ssf_setup(n: usize) -> (PopulationConfig, SsfParams, NoiseMatrix) {
    let config = PopulationConfig::new(n, 0, 1, n).expect("valid population");
    let params = SsfParams::derive(&config, 0.1, 8.0).expect("valid params");
    let noise = NoiseMatrix::uniform(4, 0.1).expect("valid noise");
    (config, params, noise)
}

/// SSF statistics come from the trace so the weak-opinion accuracy at the
/// first flush is validated too (it exercises the joint, not just the
/// opinion marginal).
fn ssf_stats(world: impl Run, params: &SsfParams, n: usize) -> RunStats {
    let interval = params.update_interval();
    let (correct, weak_correct) = traced_counts(world, 3 * interval);
    RunStats {
        probes: vec![
            correct[interval as usize - 1] as f64,
            correct[2 * interval as usize - 1] as f64,
            weak_correct[interval as usize - 1] as f64,
        ],
        first_all_correct: first_all_correct_round(&correct, n),
    }
}

fn ssf_stats_per_agent(n: usize, seed: u64) -> RunStats {
    let (config, params, noise) = ssf_setup(n);
    let protocol = SelfStabilizingSourceFilter::new(params);
    let world =
        World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).expect("valid world");
    ssf_stats(world, &params, n)
}

fn ssf_stats_mean_field(n: usize, seed: u64) -> RunStats {
    let (config, params, noise) = ssf_setup(n);
    let protocol = SelfStabilizingSourceFilter::new(params);
    let world = CountsWorld::new(&protocol, config, &noise, seed).expect("valid world");
    ssf_stats(world, &params, n)
}

/// Runs both backends over the seed battery and KS-compares every
/// statistic.
fn assert_distributions_match<A, B>(label: &str, per_agent: A, mean_field: B)
where
    A: Fn(u64) -> RunStats,
    B: Fn(u64) -> RunStats,
{
    let agent_runs: Vec<RunStats> = (0..SEEDS).map(&per_agent).collect();
    let field_runs: Vec<RunStats> = (0..SEEDS).map(|s| mean_field(1000 + s)).collect();
    let num_probes = agent_runs[0].probes.len();
    for probe in 0..num_probes {
        let xs: Vec<f64> = agent_runs.iter().map(|r| r.probes[probe]).collect();
        let ys: Vec<f64> = field_runs.iter().map(|r| r.probes[probe]).collect();
        let p = ks2_p_value(&xs, &ys).expect("valid samples");
        assert!(
            p > P_THRESHOLD,
            "{label}: probe {probe} KS p = {p:.4} (per-agent {:?}… vs mean-field {:?}…)",
            &xs[..4.min(xs.len())],
            &ys[..4.min(ys.len())],
        );
    }
    let xs: Vec<f64> = agent_runs.iter().map(|r| r.first_all_correct).collect();
    let ys: Vec<f64> = field_runs.iter().map(|r| r.first_all_correct).collect();
    let p = ks2_p_value(&xs, &ys).expect("valid samples");
    assert!(
        p > P_THRESHOLD,
        "{label}: first-all-correct-round KS p = {p:.4}"
    );
}

#[test]
fn sf_mean_field_matches_per_agent_n256() {
    assert_distributions_match(
        "SF n=256",
        |seed| sf_stats_per_agent(256, seed),
        |seed| sf_stats_mean_field(256, seed),
    );
}

#[test]
fn ssf_mean_field_matches_per_agent_n256() {
    assert_distributions_match(
        "SSF n=256",
        |seed| ssf_stats_per_agent(256, seed),
        |seed| ssf_stats_mean_field(256, seed),
    );
}

#[test]
#[ignore = "release-build scale; run by scripts/ci.sh with --include-ignored"]
fn sf_mean_field_matches_per_agent_n4096() {
    assert_distributions_match(
        "SF n=4096",
        |seed| sf_stats_per_agent(4096, seed),
        |seed| sf_stats_mean_field(4096, seed),
    );
}

#[test]
#[ignore = "release-build scale; run by scripts/ci.sh with --include-ignored"]
fn ssf_mean_field_matches_per_agent_n4096() {
    assert_distributions_match(
        "SSF n=4096",
        |seed| ssf_stats_per_agent(4096, seed),
        |seed| ssf_stats_mean_field(4096, seed),
    );
}
