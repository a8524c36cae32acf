//! EXP-PUSH — the PULL/PUSH separation of §1.5, measured.
//!
//! At `h = 1` and constant noise, PULL spreading is `Ω(n)` (Theorem 3)
//! while PUSH spreading is polylogarithmic (Feinerman–Haeupler–Korman):
//! reception in PUSH is a *reliable event* even when content is noisy.
//! We run SF (PULL) and the simplified PushSpreading protocol (PUSH) at
//! `h = 1` across population sizes and report the *dissemination* part of
//! each schedule — SF's listening phases (`2⌈m/h⌉`, which grow like
//! `n·δ·log n`) versus PUSH's spreading stage (`S·R ≈ log²n / log log n`)
//! — alongside measured settle rounds. The majority-amplification stage
//! costs the same in both models and is excluded from the headline
//! column (it is reported for completeness).

use np_baselines::push_spreading::{PushSpreading, PushSpreadingParams};
use np_bench::harness::{run_settled, summarize, Measured, SfSetup};
use np_bench::report::{fmt_f64, Table};
use np_engine::population::PopulationConfig;
use np_engine::push::PushWorld;
use np_engine::runner::{run_batch, suggested_threads};
use np_linalg::noise::NoiseMatrix;
use np_stats::seeds::SeedSequence;

/// Runs PushSpreading at `h = 1` for its full schedule, `runs` seeds.
fn push_measured(n: usize, delta: f64, runs: usize, master: u64) -> Vec<Measured> {
    let params = PushSpreadingParams::derive(n, 1, delta).expect("grid");
    let config = PopulationConfig::new(n, 0, 1, 1).expect("grid");
    let noise = NoiseMatrix::uniform(2, delta).expect("grid");
    run_batch(
        SeedSequence::new(master),
        runs,
        suggested_threads(),
        move |seed| {
            let mut world = PushWorld::new(&PushSpreading::new(params), config, &noise, seed)
                .expect("alphabets match");
            run_settled(&mut world, params.total_rounds())
        },
    )
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let sizes: &[usize] = if quick {
        &[128, 256]
    } else {
        &[128, 256, 512, 1024, 2048]
    };
    let runs = if quick { 3 } else { 8 };
    let delta = 0.1;

    let mut table = Table::new(
        "EXP-PUSH: PULL(1) vs PUSH(1) at δ = 0.1, single source",
        &[
            "n",
            "pull_dissem",
            "push_dissem",
            "dissem_ratio",
            "pull_total",
            "push_total",
            "pull_success",
            "pull_settle",
            "push_success",
            "push_settle",
        ],
    );
    for &n in sizes {
        // PULL side: SF at h = 1. Dissemination = the two listening
        // phases.
        let sf = SfSetup {
            n,
            s0: 0,
            s1: 1,
            h: 1,
            delta,
            c1: 1.0,
        };
        let sf_params = sf.params();
        let pull_dissem = 2 * sf_params.phase_len();
        let measured = sf.run_many(0x9053 ^ n as u64, runs);
        let (pull_rate, pull_summary) = summarize(&measured);
        let pull_settle = pull_summary.map(|s| s.mean()).unwrap_or(f64::NAN);

        // PUSH side.
        let push_params = PushSpreadingParams::derive(n, 1, delta).expect("grid");
        let push_dissem = push_params.spreading_rounds();
        let (push_rate, push_summary) =
            summarize(&push_measured(n, delta, runs, 0x9054 ^ n as u64));
        let push_settle = push_summary.map(|s| s.mean()).unwrap_or(f64::NAN);

        table.push_row(&[
            &n,
            &pull_dissem,
            &push_dissem,
            &fmt_f64(pull_dissem as f64 / push_dissem as f64),
            &sf_params.total_rounds(),
            &push_params.total_rounds(),
            &fmt_f64(pull_rate),
            &fmt_f64(pull_settle),
            &fmt_f64(push_rate),
            &fmt_f64(push_settle),
        ]);
    }
    table.emit("push_pull");
    println!(
        "expected shape: pull_dissem grows ~linearly in n while push_dissem \
         grows ~logarithmically, so dissem_ratio diverges — the exponential \
         PULL/PUSH separation of §1.5. Both models succeed in every run."
    );
}
