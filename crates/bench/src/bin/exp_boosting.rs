//! EXP-BOOST — Lemma 33: each Majority-Boosting sub-phase multiplies the
//! correct-opinion margin by ≥ 1.2 (w.h.p.) until it reaches
//! `n/√(8πe) ≈ 0.12·n`, after which one more sub-phase completes the
//! takeover.
//!
//! We plant a controlled initial margin `A₀` (exactly `n/2 + A₀` agents
//! holding the correct opinion), skip straight to the boosting phase via
//! [`noisy_pull::sf::SfAgent::force_boost_stage`], and record the margin
//! at every sub-phase boundary.

use noisy_pull::params::SfParams;
use noisy_pull::sf::SourceFilter;
use np_bench::report::{fmt_f64, Table};
use np_engine::channel::ChannelKind;
use np_engine::opinion::Opinion;
use np_engine::population::PopulationConfig;
use np_engine::run::Run;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 1024 } else { 4096 };
    let delta = 0.2;
    let c1 = 1.0;
    let margins: &[usize] = &[
        (2.0 * (n as f64).ln().sqrt() * (n as f64).sqrt()) as usize / 2, // ≈ √(n ln n)
        n / 64,
        n / 16,
    ];

    let config = PopulationConfig::new(n, 0, 1, n).expect("grid");
    let params = SfParams::derive(&config, delta, c1).expect("grid");
    let noise = NoiseMatrix::uniform(2, delta).expect("grid");

    let mut table = Table::new(
        "EXP-BOOST: margin after each boosting sub-phase (δ = 0.2, h = n)",
        &["A0", "subphase", "margin", "growth", "margin/n"],
    );
    for &a0 in margins {
        let mut world = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            0xB005 ^ a0 as u64,
        )
        .expect("alphabets match");
        // Plant the margin: the first n/2 + a0 agents (including the
        // source) start correct, the rest wrong.
        let cutoff = n / 2 + a0;
        world.corrupt_agents(|id, agent, _| {
            let opinion = if id < cutoff {
                Opinion::One
            } else {
                Opinion::Zero
            };
            agent.force_boost_stage(opinion);
        });
        let mut prev_margin = a0 as f64;
        table.push_row(&[
            &a0,
            &0,
            &fmt_f64(prev_margin),
            &"-",
            &fmt_f64(prev_margin / n as f64),
        ]);
        let max_subphases = 12u64.min(params.num_short_subphases());
        for sub in 1..=max_subphases {
            world.run(params.subphase_len());
            let margin = world.correct_count() as f64 - n as f64 / 2.0;
            let growth = if prev_margin.abs() > 1e-9 {
                fmt_f64(margin / prev_margin)
            } else {
                "-".to_string()
            };
            table.push_row(&[
                &a0,
                &sub,
                &fmt_f64(margin),
                &growth,
                &fmt_f64(margin / n as f64),
            ]);
            prev_margin = margin;
            if margin >= n as f64 / 2.0 {
                break;
            }
        }
    }
    table.emit("boosting");
    println!(
        "expected shape: growth ≥ 1.2 per sub-phase (Lemma 33) while \
         margin/n < 1/√(8πe) ≈ 0.12, then saturation at margin = n/2."
    );
}
