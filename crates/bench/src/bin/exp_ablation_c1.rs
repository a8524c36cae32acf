//! EXP-ABLATE — sensitivity to the analysis constant `c₁`.
//!
//! The theorems hold "for `c₁` large enough" (the paper's proofs use
//! constants up to 2916·c₁); this ablation measures where reliability
//! actually begins at simulable scales. For SF we sweep `c₁` and report
//! the success rate and cost (schedule length); for SSF we additionally
//! measure *persistence* — the fraction of runs whose consensus, once
//! reached, survives to the end of the budget — which is exactly the
//! property that needs the larger constants (see the discussion in
//! `noisy_pull::params`).

use np_bench::harness::{summarize, SfSetup, SsfSetup};
use np_bench::report::{fmt_f64, Table};
use np_engine::run::Run;

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 256 } else { 1024 };
    let runs = if quick { 5 } else { 16 };
    let c1s = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

    let mut sf_table = Table::new(
        "EXP-ABLATE (SF): success vs c₁ (n fixed, h = n, δ = 0.2, single source)",
        &["c1", "m", "schedule_len", "success", "settle_mean"],
    );
    for &c1 in &c1s {
        let setup = SfSetup::single_source_full_sample(n, 0.2, c1);
        let params = setup.params();
        let measured = setup.run_many(0xAB1 ^ (c1 * 100.0) as u64, runs);
        let (rate, summary) = summarize(&measured);
        match summary {
            Some(s) => sf_table.push_row(&[
                &fmt_f64(c1),
                &params.m(),
                &params.total_rounds(),
                &fmt_f64(rate),
                &fmt_f64(s.mean()),
            ]),
            None => sf_table.push_row(&[
                &fmt_f64(c1),
                &params.m(),
                &params.total_rounds(),
                &fmt_f64(rate),
                &"-",
            ]),
        }
    }
    sf_table.emit("ablation_c1_sf");

    let mut ssf_table = Table::new(
        "EXP-ABLATE (SSF): success & persistence vs c₁ (h = n, δ = 0.1, 10-interval budget)",
        &["c1", "m", "interval", "settled&held", "ever_consensus"],
    );
    for &c1 in &c1s {
        let setup = SsfSetup::single_source_full_sample(n, 0.1, c1);
        let setup = SsfSetup {
            budget_intervals: 10,
            ..setup
        };
        let params = setup.params();
        let measured = setup.run_many(0xAB2 ^ (c1 * 100.0) as u64, runs);
        let (held_rate, _) = summarize(&measured);
        // "Ever reached consensus" is measured separately: run each seed
        // and check whether a consensus configuration occurred at any
        // round, held or not.
        let ever = ever_consensus_rate(&setup, 0xAB3 ^ (c1 * 100.0) as u64, runs);
        ssf_table.push_row(&[
            &fmt_f64(c1),
            &params.m(),
            &params.update_interval(),
            &fmt_f64(held_rate),
            &fmt_f64(ever),
        ]);
    }
    ssf_table.emit("ablation_c1_ssf");
    println!(
        "expected shape: SF reliable from c₁ ≈ 1; SSF *reaches* consensus \
         from small c₁ (ever_consensus ≈ 1) but only *holds* it once \
         c₁ ≈ 8–16 — the settled&held column climbing to 1 is the \
         small-scale shadow of the paper's 2916·c₁ constant."
    );
}

fn ever_consensus_rate(setup: &SsfSetup, master: u64, runs: usize) -> f64 {
    use noisy_pull::ssf::SelfStabilizingSourceFilter;
    use np_engine::channel::ChannelKind;
    use np_engine::runner::{run_batch, suggested_threads};
    use np_engine::world::World;
    use np_linalg::noise::NoiseMatrix;
    use np_stats::seeds::SeedSequence;

    let setup = *setup;
    let results = run_batch(
        SeedSequence::new(master),
        runs,
        suggested_threads(),
        move |seed| {
            let config = setup.config();
            let params = setup.params();
            let noise = NoiseMatrix::uniform(4, setup.delta).expect("valid");
            let mut world = World::new(
                &SelfStabilizingSourceFilter::new(params),
                config,
                &noise,
                ChannelKind::Aggregated,
                seed,
            )
            .expect("alphabets match");
            let budget = setup.budget_intervals * params.update_interval();
            let mut ever = false;
            for _ in 0..budget {
                world.step();
                ever |= world.is_consensus();
            }
            ever
        },
    );
    results.iter().filter(|&&e| e).count() as f64 / results.len() as f64
}
