//! Thread-count invariance: the refactor's headline contract.
//!
//! Randomness is derived per `(seed, round, agent, stage)`, never from a
//! shared sequential stream, so chunking a round over 1, 2 or 7 worker
//! threads must produce **byte-identical** trajectories — same opinions,
//! same per-round series, same batch outputs. These tests pin that
//! contract across the protocol zoo (SF, SSF — including an
//! adversarially corrupted start — and the h-majority baseline) and
//! across both entry points (`World::step` and `runner::run_batch`).

use noisy_pull_repro::baselines::majority::HMajority;
use noisy_pull_repro::engine::runner::run_batch;
use noisy_pull_repro::prelude::*;
use noisy_pull_repro::stats::seeds::SeedSequence;

const THREADS: [usize; 3] = [1, 2, 7];

/// Runs `make_world()` for `rounds` under each thread count and asserts
/// the final opinions and the full per-round series all match the
/// single-threaded reference.
fn assert_thread_invariant<P, F>(label: &str, rounds: u64, make_world: F)
where
    P: ColumnarProtocol,
    F: Fn() -> World<P>,
{
    let mut reference: Option<(Vec<Opinion>, Vec<usize>)> = None;
    for threads in THREADS {
        let mut world = make_world();
        world.set_threads(threads);
        world.record_series();
        world.run(rounds);
        let counts: Vec<usize> = world
            .series()
            .expect("series was enabled")
            .counts(Opinion::One);
        let got = (world.opinions(), counts);
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                assert_eq!(
                    want.0, got.0,
                    "{label}: opinions differ at {threads} threads"
                );
                assert_eq!(
                    want.1, got.1,
                    "{label}: series differs at {threads} threads"
                );
            }
        }
    }
}

fn sf_world() -> (World<SourceFilter>, SfParams) {
    let config = PopulationConfig::new(192, 1, 2, 192).unwrap();
    let params = SfParams::derive(&config, 0.15, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.15).unwrap();
    let world = World::new(
        &SourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        101,
    )
    .unwrap();
    (world, params)
}

fn ssf_world(seed: u64) -> (World<SelfStabilizingSourceFilter>, SsfParams) {
    let config = PopulationConfig::new(128, 0, 1, 128).unwrap();
    let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    let world = World::new(
        &SelfStabilizingSourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        seed,
    )
    .unwrap();
    (world, params)
}

#[test]
fn sf_trajectory_is_thread_count_invariant() {
    let (_, params) = sf_world();
    assert_thread_invariant("SF", params.total_rounds(), || sf_world().0);
}

#[test]
fn ssf_trajectory_is_thread_count_invariant() {
    let (_, params) = ssf_world(55);
    let rounds = params.expected_convergence_rounds() + 2;
    assert_thread_invariant("SSF", rounds, || ssf_world(55).0);
}

#[test]
fn ssf_corrupted_start_is_thread_count_invariant() {
    let (_, params) = ssf_world(56);
    let rounds = 2 * params.expected_convergence_rounds() + 4;
    let m = params.m();
    assert_thread_invariant("SSF (poisoned memory)", rounds, || {
        let (mut world, _) = ssf_world(56);
        let correct = world.config().correct_opinion();
        world.corrupt_agents(|id, agent, rng| {
            SsfAdversary::PoisonedMemory.corrupt(agent, correct, m, id, rng);
        });
        world
    });
}

#[test]
fn majority_trajectory_is_thread_count_invariant() {
    let config = PopulationConfig::new(160, 2, 5, 8).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
    assert_thread_invariant("h-majority", 60, || {
        World::new(&HMajority, config, &noise, ChannelKind::Aggregated, 7).unwrap()
    });
}

/// `run_batch` outputs must not depend on the batch-level thread count
/// either — each job is seeded independently and runs its own world, so
/// varying *both* thread knobs at once must leave every output in place.
#[test]
fn run_batch_outputs_are_thread_count_invariant() {
    let config = PopulationConfig::new(96, 0, 1, 96).unwrap();
    let params = SfParams::derive(&config, 0.2, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    let mut reference: Option<Vec<(u64, usize, Vec<Opinion>)>> = None;
    for threads in THREADS {
        let out = run_batch(SeedSequence::new(13), 6, threads, |seed| {
            let mut world = World::new(
                &SourceFilter::new(params),
                config,
                &noise,
                ChannelKind::Aggregated,
                seed,
            )
            .unwrap();
            world.set_threads(threads);
            world.run(params.total_rounds());
            (seed, world.correct_count(), world.opinions())
        });
        match &reference {
            None => reference = Some(out),
            Some(want) => assert_eq!(want, &out, "batch outputs differ at {threads} threads"),
        }
    }
}
