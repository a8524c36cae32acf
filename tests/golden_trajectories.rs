//! Pinned trajectories: fixed-seed runs whose endpoints are asserted as
//! literal digests, so a change that moves every trajectory the same way
//! at every thread count still fails tier-1.
//!
//! Each world run rebuilds a `noisy-pull run …` invocation from library
//! calls and checks [`World::outcome_digest`] (the value the CLI prints
//! under `--digest`) at 1 and 4 worker threads, so one pin also proves
//! the two thread counts agree. The cluster runs
//! rebuild `noisy-pull cluster …` on the simulated-time transport and
//! check its `ClusterReport` digest and convergence round. The digests
//! depend on the platform's libm (the channel tables use `ln`/`exp`);
//! they are pinned for x86_64 Linux. A change that moves trajectories on
//! purpose updates this table, and the diff names what moved.

use std::sync::Arc;

use noisy_pull::ssf::{SsfAgent, SsfColumns};
use noisy_pull_repro::prelude::*;
use np_engine::streams::StreamRng;
use np_net::cluster::{ClusterConfig, ClusterReport};
use np_net::faults::{NetFault, NetFaultPlan};
use np_net::sim::SimCluster;

const THREADS: [usize; 2] = [1, 4];

/// A `World` run and the outcome digest it must end on.
struct WorldPin {
    /// The CLI invocation the run reproduces.
    run: &'static str,
    /// Builds and runs the world at a thread count; returns its digest.
    digest_at: fn(usize) -> u64,
    digest: u64,
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

const WORLD_PINS: [WorldPin; 3] = [
    WorldPin {
        run: "run sf --n 256 --seed 7",
        digest_at: sf_complete,
        digest: 0xce1b_6760_072c_fc6e,
    },
    WorldPin {
        run: "run sf --n 256 --seed 7 --topology ring:4",
        digest_at: sf_ring,
        digest: 0x4cb0_07a3_6a47_4ce4,
    },
    WorldPin {
        run: "run ssf --n 128 --delta 0.1 --c1 8 --seed 7 --budget-intervals 20 \
              --fault 20:all-wrong:0.5 --fault 30:ramp:0.15:8 --fault 30:sleep:0.25:3",
        digest_at: ssf_faulted,
        digest: 0xb7ab_f319_e490_611e,
    },
];

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
    (world, params.total_rounds())
}

fn sf_complete(threads: usize) -> u64 {
    let (mut world, budget) = sf_world(threads);
    world.run(budget);
    world.outcome_digest()
}

fn sf_ring(threads: usize) -> u64 {
    let (mut world, budget) = sf_world(threads);
    world.set_topology(TopologySpec::Ring { k: 4 }).unwrap();
    world.run(budget);
    world.outcome_digest()
}

/// ci.sh's faulted SSF run: half the population corrupted to the wrong
/// opinion at round 20, then a noise ramp and a sleep span at round 30.
fn ssf_faulted(threads: usize) -> u64 {
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
    world.outcome_digest()
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
            let got = (pin.digest_at)(threads);
            assert_eq!(
                got, pin.digest,
                "`{}` at {threads} thread(s): digest {got:#018x}, pinned {:#018x}",
                pin.run, pin.digest
            );
        }
    }
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
