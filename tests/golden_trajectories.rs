//! Pinned trajectories: fixed-seed runs whose endpoints and paths are
//! asserted as literal digests, so a change that moves every trajectory
//! the same way at every thread count still fails tier-1.
//!
//! Each world run rebuilds a `noisy-pull run …` invocation from library
//! calls and checks [`World::outcome_digest`] (the value the CLI prints
//! under `--digest`) at 1 and 4 worker threads, so one pin also proves
//! the two thread counts agree. Each also pins the path: an FNV-1a digest
//! of its per-round trace as `--trace` writes it (round, correct count,
//! stage occupancy and weak-opinion accuracy every round), so a change
//! that still ends on the same opinions fails too. The mean-field run
//! pins its outcome, a digest of every round's correct count and the
//! same trace digest. The cluster runs rebuild
//! `noisy-pull cluster …` on the simulated-time transport and check
//! their `ClusterReport` digest and convergence round. The digests
//! depend on the platform's libm (the channel tables use `ln`/`exp`);
//! they are pinned for x86_64 Linux. A change that moves trajectories on
//! purpose updates this table, and the diff names what moved.

use std::sync::Arc;

use noisy_pull::ssf::{SsfAgent, SsfColumns};
use noisy_pull_repro::baselines::majority::HMajority;
use noisy_pull_repro::prelude::*;
use np_engine::counts::CountsWorld;
use np_engine::digest::Digest;
use np_engine::metrics::trace_jsonl;
use np_engine::streams::StreamRng;
use np_net::cluster::{ClusterConfig, ClusterReport};
use np_net::faults::{NetFault, NetFaultPlan};
use np_net::sim::SimCluster;

const THREADS: [usize; 2] = [1, 4];

/// A `World` run, the outcome digest it must end on and the digest of
/// the trace it must write on the way.
struct WorldPin {
    /// The CLI invocation the run reproduces.
    run: &'static str,
    /// Builds and runs the world at a thread count; returns its outcome
    /// and trace digests.
    digest_at: fn(usize) -> (u64, u64),
    digest: u64,
    trace_digest: u64,
}

/// A simulated-time cluster run and the report it must end on.
struct ClusterPin {
    /// The CLI invocation the run reproduces.
    run: &'static str,
    report: fn() -> ClusterReport,
    digest: u64,
    /// The round the CLI prints as "converged at round".
    converged_at: u64,
}

const WORLD_PINS: [WorldPin; 5] = [
    WorldPin {
        run: "run sf --n 256 --seed 7",
        digest_at: sf_complete,
        digest: 0xce1b_6760_072c_fc6e,
        trace_digest: 0x8d58_540e_0186_2429,
    },
    WorldPin {
        run: "run sf --n 256 --seed 7 --topology ring:4",
        digest_at: sf_ring,
        digest: 0x4cb0_07a3_6a47_4ce4,
        trace_digest: 0xcae7_a121_c181_7fb5,
    },
    WorldPin {
        run: "run ssf --n 128 --delta 0.1 --c1 8 --seed 7 --budget-intervals 20 \
              --fault 20:all-wrong:0.5 --fault 30:ramp:0.15:8 --fault 30:sleep:0.25:3",
        digest_at: ssf_faulted,
        digest: 0xb7ab_f319_e490_611e,
        trace_digest: 0x3c61_ff47_cdfd_df71,
    },
    WorldPin {
        run: "SF-ALT, n = 256, delta = 0.2, c1 = 1, seed 7, 20 rounds (no CLI subcommand)",
        digest_at: sf_alt_complete,
        digest: 0x24fc_f5f3_f0ca_0cd4,
        trace_digest: 0x3082_6fdf_58b0_00d7,
    },
    WorldPin {
        run: "run baseline majority --n 256 --h 3 --seed 7 --budget 100",
        digest_at: majority_complete,
        digest: 0x3b25_9507_9065_1278,
        trace_digest: 0x50c3_13b9_e449_d38e,
    },
];

/// Where the SF-ALT pin stops: mid-boost, with 249 of 256 agents correct.
const SF_ALT_ROUNDS: u64 = 20;

/// A mean-field run: its outcome, an FNV-1a digest of the correct count
/// after every round (little-endian `u64`s, in round order) and the
/// digest of its trace.
struct CountsPin {
    /// The CLI invocation the run reproduces.
    run: &'static str,
    outcome: RunOutcome,
    correct_digest: u64,
    trace_digest: u64,
}

const COUNTS_PIN: CountsPin = CountsPin {
    run: "run sf --n 65536 --seed 7 --backend mean-field",
    outcome: RunOutcome::Converged { rounds: 38 },
    correct_digest: 0x8e2e_00b1_90c3_cbb5,
    trace_digest: 0x1dd3_29eb_30f6_4a01,
};

const CLUSTER_PINS: [ClusterPin; 2] = [
    ClusterPin {
        run: "cluster --n 64 --delta 0.05 --c1 1 --seed 7",
        report: cluster_plain,
        digest: 0x8ed0_b6ce_2568_eb1c,
        converged_at: 34,
    },
    ClusterPin {
        run: "cluster --n 64 --delta 0.05 --c1 1 --seed 11 --partition-at 3 --heal-at 6 \
              --budget-intervals 40",
        report: cluster_partitioned,
        digest: 0x7efd_8e4a_2a29_211a,
        converged_at: 54,
    },
];

/// FNV-1a over the bytes `--trace` writes for `rounds`.
fn trace_digest(rounds: &[RoundMetrics]) -> u64 {
    let mut digest = Digest::new();
    digest.update(trace_jsonl(rounds).as_bytes());
    digest.value()
}

/// A finished world's outcome digest and trace digest.
fn digests<P: ColumnarProtocol>(world: &World<P>) -> (u64, u64) {
    (world.outcome_digest(), trace_digest(world.traced_rounds()))
}

/// `run sf` at the CLI defaults (`h = n`, `s1 = 1`, δ = 0.2, `c1 = 1`,
/// aggregated channel), stepped through the full schedule.
fn sf_world(threads: usize) -> (World<SourceFilter>, u64) {
    let config = PopulationConfig::new(256, 0, 1, 256).unwrap();
    let params = SfParams::derive(&config, 0.2, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    let mut world = World::new(
        &SourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        7,
    )
    .unwrap();
    world.set_threads(threads);
    world.record_trace();
    (world, params.total_rounds())
}

fn sf_complete(threads: usize) -> (u64, u64) {
    let (mut world, budget) = sf_world(threads);
    world.run(budget);
    digests(&world)
}

fn sf_ring(threads: usize) -> (u64, u64) {
    let (mut world, budget) = sf_world(threads);
    world.set_topology(TopologySpec::Ring { k: 4 }).unwrap();
    world.run(budget);
    digests(&world)
}

/// SF-ALT with the `run sf` defaults, stopped at round
/// [`SF_ALT_ROUNDS`]. It reaches consensus by round 24, and the outcome
/// digest of any converged run depends only on its length: over SF's
/// full schedule SF-ALT ends on SF's pin.
fn sf_alt_complete(threads: usize) -> (u64, u64) {
    let config = PopulationConfig::new(256, 0, 1, 256).unwrap();
    let params = SfParams::derive(&config, 0.2, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    let mut world = World::new(
        &AlternatingSourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        7,
    )
    .unwrap();
    world.set_threads(threads);
    world.record_trace();
    world.run(SF_ALT_ROUNDS);
    digests(&world)
}

/// The h-majority baseline at `h = 3`, where noise keeps the population
/// split (147 of 256 correct at the end), run for its full budget.
fn majority_complete(threads: usize) -> (u64, u64) {
    let config = PopulationConfig::new(256, 0, 1, 3).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    let mut world = World::new(&HMajority, config, &noise, ChannelKind::Aggregated, 7).unwrap();
    world.set_threads(threads);
    world.record_trace();
    world.run(100);
    digests(&world)
}

/// `run sf --backend mean-field`: SF on the class-count engine, run to
/// consensus within the schedule, with the correct count folded after
/// every round; returns the outcome, that digest and the trace digest.
fn sf_counts() -> (RunOutcome, u64, u64) {
    let config = PopulationConfig::new(65_536, 0, 1, 65_536).unwrap();
    let params = SfParams::derive(&config, 0.2, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    let mut world = CountsWorld::new(&SourceFilter::new(params), config, &noise, 7).unwrap();
    world.record_trace();
    let outcome = world.run_until_consensus(params.total_rounds());
    let trace = world.traced_rounds();
    let mut digest = Digest::new();
    for round in trace {
        digest.update_u64(round.correct as u64);
    }
    (outcome, digest.value(), trace_digest(trace))
}

/// ci.sh's faulted SSF run: half the population corrupted to the wrong
/// opinion at round 20, then a noise ramp and a sleep span at round 30.
fn ssf_faulted(threads: usize) -> (u64, u64) {
    let delta = 0.1;
    let config = PopulationConfig::new(128, 0, 1, 128).unwrap();
    let params = SsfParams::derive(&config, delta, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, delta).unwrap();
    let mut world = World::new(
        &SelfStabilizingSourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        7,
    )
    .unwrap();
    world.set_threads(threads);
    let (correct, m) = (config.correct_opinion(), params.m());
    let all_wrong = move |state: &mut SsfColumns, id: usize, rng: &mut StreamRng| {
        state.modify_agent(id, |agent| {
            SsfAdversary::AllWrong.corrupt(agent, correct, m, id, rng);
        });
    };
    let plan = FaultPlan::new()
        .at(
            20,
            FaultEvent::Corrupt {
                frac: 0.5,
                label: "all-wrong".to_string(),
                fault: Arc::new(all_wrong),
            },
        )
        .at(
            30,
            FaultEvent::RampNoise {
                from: delta,
                to: 0.15,
                over: 8,
            },
        )
        .at(
            30,
            FaultEvent::Sleep {
                frac: 0.25,
                rounds: 3,
            },
        );
    world.set_fault_plan(plan).unwrap();
    world.record_trace();
    world.run(20 * params.update_interval());
    digests(&world)
}

/// `cluster` at the CLI defaults (SSF, `h = ⌈ln n⌉`, `s1 = 1`, 1 ms
/// ticks, 50 µs latency, 100 µs jitter, stagger of one tick).
fn ssf_cluster(seed: u64, plan: &NetFaultPlan) -> (SimCluster<SsfAgent>, u64) {
    let cfg = ClusterConfig::new(64, 0, 1, 5, 0.05, seed);
    let params = SsfParams::derive(&cfg.population().unwrap(), 0.05, 1.0).unwrap();
    let cluster = SimCluster::new(&cfg, &SelfStabilizingSourceFilter::new(params), plan).unwrap();
    (cluster, params.update_interval())
}

fn cluster_plain() -> ClusterReport {
    let (mut cluster, interval) = ssf_cluster(7, &NetFaultPlan::new());
    cluster.run_until_correct(10 * interval).unwrap();
    cluster.report()
}

/// Nodes 0..32 and 32..64 are cut apart from local round 3 to round 6;
/// the cluster is driven past the heal before convergence is measured.
fn cluster_partitioned() -> ClusterReport {
    let tick_ns = 1_000_000;
    let plan = NetFaultPlan::new()
        .at_ns(3 * tick_ns, NetFault::Partition { split: 32 })
        .at_ns(6 * tick_ns, NetFault::Heal);
    let (mut cluster, interval) = ssf_cluster(11, &plan);
    cluster.run_until_round(6).unwrap();
    cluster.run_until_correct(40 * interval).unwrap();
    cluster.report()
}

#[test]
fn world_outcome_digests_match_their_pins_at_every_thread_count() {
    for pin in WORLD_PINS {
        for threads in THREADS {
            let (digest, trace) = (pin.digest_at)(threads);
            assert_eq!(
                (digest, trace),
                (pin.digest, pin.trace_digest),
                "`{}` at {threads} thread(s): (outcome, trace) digests \
                 ({digest:#018x}, {trace:#018x})",
                pin.run
            );
        }
    }
}

#[test]
fn counts_engine_outcome_and_correct_counts_match_their_pin() {
    let (outcome, correct_digest, trace_digest) = sf_counts();
    assert_eq!(
        (outcome, correct_digest, trace_digest),
        (
            COUNTS_PIN.outcome,
            COUNTS_PIN.correct_digest,
            COUNTS_PIN.trace_digest
        ),
        "`{}`: {outcome:?}, correct-count digest {correct_digest:#018x}, \
         trace digest {trace_digest:#018x}",
        COUNTS_PIN.run
    );
}

#[test]
fn sim_cluster_reports_match_their_pins() {
    for pin in CLUSTER_PINS {
        let report = (pin.report)();
        assert_eq!(
            (report.digest, report.convergence_round),
            (pin.digest, Some(pin.converged_at)),
            "`{}`: digest {:#018x} converged at {:?}",
            pin.run,
            report.digest,
            report.convergence_round
        );
    }
}
