//! EXP-BASE — SF/SSF against the natural baselines (claim C3 and §1.5).
//!
//! Single source, `h = n`, δ = 0.15 (0.1 for the 4-symbol protocols).
//! Every protocol gets the *same* round budget — twice SF's schedule — and
//! we report the rate of settled correct consensus plus the mean settle
//! round. Expected outcome: SF and SSF succeed in every run; the zealot
//! voter and h-majority essentially never settle (the voter churns under
//! noise, majority locks into the initial coin flips); trusting-copy gets
//! poisoned by corrupted "informed" flags; the mean-estimator ablation
//! tracks its own initial majority instead of the source.

use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_baselines::majority::HMajority;
use np_baselines::mean_estimator::MeanEstimator;
use np_baselines::trusting_copy::TrustingCopy;
use np_baselines::voter::ZealotVoter;
use np_bench::harness::{run_settled, summarize, Measured};
use np_bench::report::{fmt_f64, Table};
use np_engine::channel::ChannelKind;
use np_engine::population::PopulationConfig;
use np_engine::protocol::ColumnarProtocol;
use np_engine::runner::{run_batch, suggested_threads};
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_stats::seeds::SeedSequence;

fn run_protocol<P: ColumnarProtocol + Sync>(
    proto: &P,
    config: PopulationConfig,
    delta: f64,
    budget: u64,
    runs: usize,
    master_seed: u64,
) -> Vec<Measured> {
    let noise = NoiseMatrix::uniform(proto.alphabet_size(), delta).expect("valid delta");
    run_batch(
        SeedSequence::new(master_seed),
        runs,
        suggested_threads(),
        move |seed| {
            let mut world = World::new(proto, config, &noise, ChannelKind::Aggregated, seed)
                .expect("alphabets match");
            run_settled(&mut world, budget)
        },
    )
}

fn push(table: &mut Table, name: &str, budget: u64, measured: &[Measured]) {
    let (rate, summary) = summarize(measured);
    match summary {
        Some(s) => table.push_row(&[
            &name,
            &budget,
            &fmt_f64(rate),
            &fmt_f64(s.mean()),
            &fmt_f64(s.median()),
        ]),
        None => table.push_row(&[&name, &budget, &fmt_f64(rate), &"-", &"-"]),
    }
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 256 } else { 1024 };
    let runs = if quick { 5 } else { 12 };
    let delta2 = 0.15; // binary-alphabet protocols
    let delta4 = 0.1; // 4-symbol protocols (must stay below 1/4)

    for (scenario, s0, s1) in [("single source", 0usize, 1usize), ("conflicting 5v4", 4, 5)] {
        let config2 = PopulationConfig::new(n, s0, s1, n).expect("grid");
        let sf_params = SfParams::derive(&config2, delta2, 1.0).expect("grid");
        let budget = 2 * sf_params.total_rounds();

        let mut table = Table::new(
            &format!("EXP-BASE ({scenario}): protocols under the same budget, n = {n}, h = n"),
            &["protocol", "budget", "success", "settle_mean", "settle_p50"],
        );

        // SF (δ = 0.15).
        let sf = run_protocol(
            &SourceFilter::new(sf_params),
            config2,
            delta2,
            budget,
            runs,
            0xBA5E,
        );
        push(&mut table, "SF", budget, &sf);

        // SSF (δ = 0.1, c1 = 16 — see SsfParams::derive docs on constants).
        let ssf_params = SsfParams::derive(&config2, delta4, 16.0).expect("grid");
        let ssf = run_protocol(
            &SelfStabilizingSourceFilter::new(ssf_params),
            config2,
            delta4,
            budget,
            runs,
            0xBA5F,
        );
        push(&mut table, "SSF", budget, &ssf);

        // Zealot voter (δ = 0.15).
        let voter = run_protocol(&ZealotVoter, config2, delta2, budget, runs, 0xBA60);
        push(&mut table, "zealot-voter", budget, &voter);

        // h-majority (δ = 0.15).
        let maj = run_protocol(&HMajority, config2, delta2, budget, runs, 0xBA61);
        push(&mut table, "h-majority", budget, &maj);

        // Trusting copy (4-symbol, δ = 0.1).
        let tc = run_protocol(&TrustingCopy, config2, delta4, budget, runs, 0xBA62);
        push(&mut table, "trusting-copy", budget, &tc);

        // Mean estimator (δ = 0.15).
        let me = run_protocol(
            &MeanEstimator::new(delta2).expect("delta2 < 1/2"),
            config2,
            delta2,
            budget,
            runs,
            0xBA63,
        );
        push(&mut table, "mean-estimator", budget, &me);

        let name = if s0 == 0 {
            "baselines_single"
        } else {
            "baselines_conflict"
        };
        table.emit(name);
    }
    println!(
        "expected: SF and SSF at success = 1; every baseline far below \
         (voter churns, majority locks into noise, trusting-copy is \
         poisoned, mean-estimator follows its own initial majority)."
    );
}
