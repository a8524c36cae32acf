//! EXP-REPLACE — model robustness: sampling with vs. without replacement.
//!
//! The paper's model draws each agent's `h` samples *with* replacement.
//! Several of its motivating scenarios (an ant sensing the combined force
//! of all carriers) are closer to "observe everyone exactly once". This
//! experiment runs SF under both sampling modes and compares settle
//! times and weak-opinion accuracy.
//!
//! Expectation: indistinguishable for `h ≪ n` (collisions are rare), and
//! a small *improvement* without replacement at `h = n` — drawing the
//! whole population removes the sampling variance, leaving only channel
//! noise — so the paper's with-replacement analysis is, if anything,
//! conservative for the load-sensing story.

use noisy_pull::params::SfParams;
use noisy_pull::sf::SourceFilter;
use np_bench::harness::run_settled;
use np_bench::report::{fmt_f64, Table};
use np_engine::channel::{Channel, ChannelKind, SamplingMode};
use np_engine::opinion::Opinion;
use np_engine::population::PopulationConfig;
use np_engine::run::Run;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

fn measure(
    config: PopulationConfig,
    params: SfParams,
    mode: SamplingMode,
    runs: u64,
) -> (f64, f64, f64) {
    let noise = NoiseMatrix::uniform(2, params.delta()).expect("grid");
    let mut wins = 0u64;
    let mut settle_acc = 0.0;
    let mut weak_correct = 0u64;
    let mut weak_total = 0u64;
    for seed in 0..runs {
        // Weak-opinion pass.
        let channel = Channel::with_sampling(&noise, ChannelKind::Aggregated, mode);
        let mut world =
            World::with_channel(&SourceFilter::new(params), config, channel, 0x8E ^ seed)
                .expect("alphabets match");
        world.run(2 * params.phase_len());
        for agent in world.iter_agents() {
            weak_correct += u64::from(agent.weak_opinion() == Some(Opinion::One));
            weak_total += 1;
        }
        // End-to-end pass.
        let channel = Channel::with_sampling(&noise, ChannelKind::Aggregated, mode);
        let mut world =
            World::with_channel(&SourceFilter::new(params), config, channel, 0x8E ^ seed)
                .expect("alphabets match");
        let m = run_settled(&mut world, params.total_rounds());
        if let Some(r) = m.settled_round {
            wins += 1;
            settle_acc += r as f64;
        }
    }
    (
        wins as f64 / runs as f64,
        if wins > 0 {
            settle_acc / wins as f64
        } else {
            f64::NAN
        },
        weak_correct as f64 / weak_total as f64,
    )
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 512 } else { 2048 };
    let runs = if quick { 5 } else { 12 };
    let delta = 0.2;
    let hs = [(n as f64).sqrt() as usize, n / 4, n];

    let mut table = Table::new(
        "EXP-REPLACE: SF under with- vs without-replacement sampling (single source)",
        &["h", "mode", "success", "settle_mean", "weak_accuracy"],
    );
    for &h in &hs {
        let config = PopulationConfig::new(n, 0, 1, h).expect("grid");
        let params = SfParams::derive(&config, delta, 1.0).expect("grid");
        for (mode, label) in [
            (SamplingMode::WithReplacement, "with"),
            (SamplingMode::WithoutReplacement, "without"),
        ] {
            let (success, settle, weak) = measure(config, params, mode, runs);
            table.push_row(&[
                &h,
                &label,
                &fmt_f64(success),
                &fmt_f64(settle),
                &fmt_f64(weak),
            ]);
        }
    }
    table.emit("replacement");
    println!(
        "expected shape: the two modes agree at h ≪ n; at h = n the \
         without-replacement weak accuracy is slightly higher (sampling \
         variance vanishes; only channel noise remains)."
    );
}
