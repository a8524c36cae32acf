//! EXP-T5-MID — mid-run fault injection: re-convergence time under the
//! [`np_engine::faults`] subsystem.
//!
//! Two sweeps, both on SSF with a single source and `h = n`:
//!
//! 1. **Adversary strategy.** Every [`SsfAdversary`] corruption strategy
//!    is re-applied to the whole population mid-run (two update intervals
//!    in, once the honest configuration has settled) and we measure the
//!    rounds from injection back to stable consensus. Theorem 5 says the
//!    recovery time is independent of the corruption — the rows should
//!    all land within a few update intervals of each other.
//! 2. **Noise-ramp depth.** The uniform noise level ramps from the base
//!    δ = 0.1 to a deeper level over two update intervals and *stays*
//!    there; recovery time should grow with the target depth and fall off
//!    a cliff as it approaches the δ < ¼ threshold.
//!
//! Recovery times are read from the recorded trace via
//! [`recovery_times`], the same metric the CLI reports; the aggregated
//! points land in `BENCH_fault_recovery.json` (np-bench/v1), with
//! `mean_rounds` = mean recovery rounds over recovered runs and
//! `converged` = how many runs re-converged.

use std::sync::Arc;
use std::time::Instant;

use noisy_pull::adversary::SsfAdversary;
use noisy_pull::params::SsfParams;
use noisy_pull::ssf::{SelfStabilizingSourceFilter, SsfColumns};
use np_bench::harness::auto_channel;
use np_bench::report::{fmt_f64, Table};
use np_engine::faults::{recovery_times, FaultEvent, FaultPlan};
use np_engine::opinion::Opinion;
use np_engine::population::PopulationConfig;
use np_engine::protocol::AgentRecords;
use np_engine::run::Run;
use np_engine::runner::{run_batch, suggested_threads};
use np_engine::streams::StreamRng;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_stats::estimate::Running;
use np_stats::seeds::SeedSequence;
use np_sweep::report::{save_bench_json, PerfPoint};

const DELTA: f64 = 0.1;
const C1: f64 = 8.0;
/// Inject after this many update intervals (enough for the honest
/// configuration to settle first).
const INJECT_INTERVALS: u64 = 3;
/// Total budget, in update intervals.
const BUDGET_INTERVALS: u64 = 12;

type SsfState = SsfColumns;

fn corrupt_event(adversary: SsfAdversary, correct: Opinion, m: u64) -> FaultEvent<SsfState> {
    FaultEvent::Corrupt {
        frac: 1.0,
        label: adversary.name().to_string(),
        fault: Arc::new(
            move |state: &mut SsfState, id: usize, rng: &mut StreamRng| {
                state.modify_agent(id, |agent| adversary.corrupt(agent, correct, m, id, rng));
            },
        ),
    }
}

/// One seeded faulted run: (recovery rounds if re-converged, wall ms).
fn run_one(n: usize, event: FaultEvent<SsfState>, seed: u64) -> (Option<u64>, f64) {
    let config = PopulationConfig::new(n, 0, 1, n).expect("valid grid");
    let params = SsfParams::derive(&config, DELTA, C1).expect("valid grid");
    let noise = NoiseMatrix::uniform(4, DELTA).expect("valid delta");
    let mut world = World::new(
        &SelfStabilizingSourceFilter::new(params),
        config,
        &noise,
        auto_channel(n),
        seed,
    )
    .expect("alphabets match");
    // Single-threaded: the batch level owns the parallelism.
    world.set_threads(1);
    let interval = params.update_interval();
    world
        .set_fault_plan(FaultPlan::new().at(INJECT_INTERVALS * interval, event))
        .expect("plan is sound");
    world.record_trace();
    let start = Instant::now();
    world.run(BUDGET_INTERVALS * interval);
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let trace = world.take_trace().expect("trace was recorded");
    let recovery = recovery_times(trace.rounds())
        .first()
        .and_then(|r| r.recovery_rounds());
    (recovery, wall)
}

/// Runs a batch for one point and aggregates it.
fn measure_point(
    label: &str,
    n: usize,
    runs: usize,
    master_seed: u64,
    event: FaultEvent<SsfState>,
) -> PerfPoint {
    let results = run_batch(
        SeedSequence::new(master_seed),
        runs,
        suggested_threads(),
        move |seed| run_one(n, event.clone(), seed),
    );
    let mut rounds = Running::new();
    let mut wall = Running::new();
    let mut converged = 0usize;
    for (recovery, ms) in &results {
        if let Some(r) = recovery {
            converged += 1;
            rounds.push(*r as f64);
        }
        wall.push(*ms);
    }
    PerfPoint {
        label: label.to_string(),
        n,
        runs,
        converged,
        mean_rounds: rounds.mean().ok(),
        mean_wall_ms: wall.mean().unwrap_or(0.0),
        median_wall_ms: None,
        p95_wall_ms: None,
        backend: None,
        degree: None,
        convergence_rate: None,
        messages_total: None,
    }
}

fn push_point(table: &mut Table, interval: u64, point: &PerfPoint) {
    let rate = point.converged as f64 / point.runs.max(1) as f64;
    match point.mean_rounds {
        Some(mean) => table.push_row(&[
            &point.label,
            &point.n,
            &point.runs,
            &fmt_f64(rate),
            &fmt_f64(mean),
            &fmt_f64(mean / interval as f64),
        ]),
        None => table.push_row(&[
            &point.label,
            &point.n,
            &point.runs,
            &fmt_f64(rate),
            &"-",
            &"-",
        ]),
    }
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 256 } else { 1024 };
    let runs = if quick { 4 } else { 10 };
    let config = PopulationConfig::new(n, 0, 1, n).expect("valid grid");
    let params = SsfParams::derive(&config, DELTA, C1).expect("valid grid");
    let interval = params.update_interval();
    let correct = config.correct_opinion();
    let m = params.m();

    let mut points = Vec::new();
    let mut table = Table::new(
        &format!(
            "EXP-T5-MID: mid-run fault recovery (SSF, n = {n}, h = n, δ = {DELTA}, \
             inject @ {INJECT_INTERVALS} intervals, interval = {interval} rounds)"
        ),
        &[
            "fault",
            "n",
            "runs",
            "recovered",
            "recovery_mean",
            "recovery/interval",
        ],
    );

    for adversary in SsfAdversary::ALL {
        if adversary == SsfAdversary::None {
            continue;
        }
        let label = format!("adv:{}", adversary.name());
        let point = measure_point(
            &label,
            n,
            runs,
            0x7A57 ^ (adversary.name().len() as u64) << 5,
            corrupt_event(adversary, correct, m),
        );
        push_point(&mut table, interval, &point);
        points.push(point);
    }

    for depth in [0.15, 0.20, 0.24] {
        let label = format!("ramp:{depth}");
        let point = measure_point(
            &label,
            n,
            runs,
            0xFA17 ^ (depth * 1000.0) as u64,
            FaultEvent::RampNoise {
                from: DELTA,
                to: depth,
                over: 2 * interval,
            },
        );
        push_point(&mut table, interval, &point);
        points.push(point);
    }

    table.emit("fault_recovery");
    match save_bench_json("fault_recovery", &points) {
        Ok(path) => println!("[bench] {}", path.display()),
        Err(e) => println!("[bench] write failed: {e}"),
    }
    println!(
        "expected shape: every adversary row recovers within ~2–4 update \
         intervals (Theorem 5: recovery is corruption-independent); ramp \
         rows recover slower as the target depth approaches δ = 1/4."
    );
}
