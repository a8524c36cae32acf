//! EXP-TRAJ — per-round opinion trajectories for plotting.
//!
//! Dumps the full time series of correct-opinion counts for three
//! representative runs:
//!
//! * SF from a clean start (the three-phase anatomy is visible: noisy
//!   plateau during listening, staircase jumps at boosting sub-phase
//!   boundaries, saturation at `n`);
//! * SSF recovering from a poisoned-memory adversary (flat at 0 until the
//!   first honest update cycle completes, then a two-step recovery);
//! * the zealot voter under the same noise (fluctuates forever).
//!
//! These are the series a paper figure would plot; CSVs land in
//! `target/experiments/`.

use noisy_pull::adversary::SsfAdversary;
use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_baselines::voter::ZealotVoter;
use np_bench::report::Table;
use np_engine::channel::ChannelKind;
use np_engine::opinion::Opinion;
use np_engine::population::PopulationConfig;
use np_engine::protocol::ColumnarProtocol;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

fn record<P: ColumnarProtocol>(mut world: World<P>, rounds: u64, label: &str, csv: &str) {
    world.record_series();
    world.run(rounds);
    let series = world.series().expect("recording enabled");
    let correct = world.config().correct_opinion();
    // The full series goes to CSV only — hundreds of rows have no place on
    // the console.
    let mut full = Table::new(label, &["round", "correct_count"]);
    for r in 0..series.len() {
        full.push_row(&[&(r + 1), &series.count(r, correct)]);
    }
    match full.save_csv(&np_bench::report::experiments_dir(), csv) {
        Ok(path) => println!(
            "{label}: {} rounds, final correct = {}/{} → {}",
            series.len(),
            series.count(series.len() - 1, correct),
            world.config().n(),
            path.display()
        ),
        Err(e) => println!("{label}: CSV write failed: {e}"),
    }
}

fn main() {
    let n = 1024;

    // SF, clean start, δ = 0.2.
    let config = PopulationConfig::new(n, 0, 1, n).expect("grid");
    let sf_params = SfParams::derive(&config, 0.2, 1.0).expect("grid");
    let noise2 = NoiseMatrix::uniform(2, 0.2).expect("grid");
    let world = World::new(
        &SourceFilter::new(sf_params),
        config,
        &noise2,
        ChannelKind::Aggregated,
        0x7249,
    )
    .expect("alphabets match");
    record(
        world,
        sf_params.total_rounds(),
        "EXP-TRAJ: SF trajectory",
        "trajectory_sf",
    );

    // SSF under the poisoned-memory adversary, δ = 0.1.
    let ssf_params = SsfParams::derive(&config, 0.1, 16.0).expect("grid");
    let noise4 = NoiseMatrix::uniform(4, 0.1).expect("grid");
    let mut world = World::new(
        &SelfStabilizingSourceFilter::new(ssf_params),
        config,
        &noise4,
        ChannelKind::Aggregated,
        0x724A,
    )
    .expect("alphabets match");
    let m = ssf_params.m();
    world.corrupt_agents(|id, agent, rng| {
        SsfAdversary::PoisonedMemory.corrupt(agent, Opinion::One, m, id, rng);
    });
    record(
        world,
        6 * ssf_params.update_interval(),
        "EXP-TRAJ: SSF recovery trajectory",
        "trajectory_ssf",
    );

    // Zealot voter, same binary noise, same budget as SF.
    let world = World::new(
        &ZealotVoter,
        config,
        &noise2,
        ChannelKind::Aggregated,
        0x724B,
    )
    .expect("alphabets match");
    record(
        world,
        sf_params.total_rounds(),
        "EXP-TRAJ: zealot-voter trajectory",
        "trajectory_voter",
    );

    println!(
        "\nexpected shapes: SF — plateau, staircase, saturation at n; \
         SSF — zero until the poisoned memories flush, then a two-step \
         recovery to n; voter — noisy wandering, never saturating."
    );
}
