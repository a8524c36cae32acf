//! EXP-VARIANT — testing the Remark in §2.1: does the "more natural"
//! alternating-display variant (SF-ALT) work as well as SF?
//!
//! Same schedule, same budgets: we compare end-to-end success and
//! weak-opinion accuracy. Expected: SF-ALT converges too (confirming the
//! paper's plausibility claim), with slightly lower weak-opinion accuracy
//! at equal `m` — the alternating background contributes `Bernoulli(½)`
//! variance per observation where SF's within-phase background is
//! deterministic.

use noisy_pull::params::SfParams;
use noisy_pull::sf::SourceFilter;
use noisy_pull::sf_alternating::AlternatingSourceFilter;
use np_bench::harness::run_settled;
use np_bench::report::{fmt_f64, Table};
use np_engine::channel::ChannelKind;
use np_engine::opinion::Opinion;
use np_engine::population::PopulationConfig;
use np_engine::protocol::{ColumnarProtocol, ColumnarState};
use np_engine::run::Run;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

struct VariantStats {
    success: f64,
    settle_mean: f64,
    weak_accuracy: f64,
}

fn measure<F, P>(make_world: F, params: SfParams, listening_rounds: u64, runs: u64) -> VariantStats
where
    P: ColumnarProtocol,
    F: Fn(u64) -> World<P>,
{
    let mut wins = 0u64;
    let mut settle_acc = 0.0;
    let mut weak_correct = 0u64;
    let mut weak_total = 0u64;
    for seed in 0..runs {
        // Weak accuracy pass.
        let mut world = make_world(seed);
        world.run(listening_rounds);
        for id in 0..world.config().n() {
            if let Some(w) = world.state().weak_opinion(id) {
                weak_correct += u64::from(w == Opinion::One);
                weak_total += 1;
            }
        }
        // Fresh end-to-end pass (same seed, full schedule).
        let mut world = make_world(seed);
        let m = run_settled(&mut world, params.total_rounds());
        if let Some(r) = m.settled_round {
            wins += 1;
            settle_acc += r as f64;
        }
    }
    VariantStats {
        success: wins as f64 / runs as f64,
        settle_mean: if wins > 0 {
            settle_acc / wins as f64
        } else {
            f64::NAN
        },
        weak_accuracy: weak_correct as f64 / weak_total.max(1) as f64,
    }
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let sizes: &[usize] = if quick { &[256] } else { &[256, 1024, 4096] };
    let runs = if quick { 5 } else { 15 };
    let delta = 0.2;
    let c1 = 1.0;

    let mut table = Table::new(
        "EXP-VARIANT: SF vs SF-ALT (alternating displays, §2.1 Remark), h = n, single source",
        &["n", "variant", "success", "settle_mean", "weak_accuracy"],
    );
    for &n in sizes {
        let config = PopulationConfig::new(n, 0, 1, n).expect("grid");
        let params = SfParams::derive(&config, delta, c1).expect("grid");
        let noise = NoiseMatrix::uniform(2, delta).expect("grid");
        let listening = 2 * params.phase_len();

        let sf = measure(
            |seed| {
                World::new(
                    &SourceFilter::new(params),
                    config,
                    &noise,
                    ChannelKind::Aggregated,
                    0xFA ^ seed,
                )
                .expect("alphabets match")
            },
            params,
            listening,
            runs,
        );
        table.push_row(&[
            &n,
            &"SF",
            &fmt_f64(sf.success),
            &fmt_f64(sf.settle_mean),
            &fmt_f64(sf.weak_accuracy),
        ]);

        let alt = measure(
            |seed| {
                World::new(
                    &AlternatingSourceFilter::new(params),
                    config,
                    &noise,
                    ChannelKind::Aggregated,
                    0xFA ^ seed,
                )
                .expect("alphabets match")
            },
            params,
            listening,
            runs,
        );
        table.push_row(&[
            &n,
            &"SF-ALT",
            &fmt_f64(alt.success),
            &fmt_f64(alt.settle_mean),
            &fmt_f64(alt.weak_accuracy),
        ]);
    }
    table.emit("sf_variant");
    println!(
        "expected: SF-ALT succeeds too (the Remark's plausibility claim \
         holds) with weak accuracy a little below SF's at equal m — the \
         price of a stochastic instead of deterministic neutral background."
    );
}
