//! End-to-end integration: both protocols, both channels, a spread of
//! configurations — the cross-crate contract of the whole workspace.

use noisy_pull_repro::prelude::*;

#[allow(clippy::too_many_arguments)] // a test fixture mirroring the full parameter space
fn sf_world(
    n: usize,
    s0: usize,
    s1: usize,
    h: usize,
    delta: f64,
    c1: f64,
    kind: ChannelKind,
    seed: u64,
) -> (World<SourceFilter>, SfParams) {
    let config = PopulationConfig::new(n, s0, s1, h).unwrap();
    let params = SfParams::derive(&config, delta, c1).unwrap();
    let noise = NoiseMatrix::uniform(2, delta).unwrap();
    (
        World::new(&SourceFilter::new(params), config, &noise, kind, seed).unwrap(),
        params,
    )
}

#[test]
fn sf_converges_across_population_sizes() {
    for (i, n) in [64usize, 128, 256, 512].into_iter().enumerate() {
        let (mut world, params) =
            sf_world(n, 0, 1, n, 0.2, 2.0, ChannelKind::Aggregated, 40 + i as u64);
        world.run(params.total_rounds());
        assert!(
            world.is_consensus(),
            "n = {n}: {}/{n}",
            world.correct_count()
        );
    }
}

#[test]
fn sf_converges_with_small_h() {
    // h = 4 pushes the schedule into the Θ(m) regime; keep n small.
    let (mut world, params) = sf_world(64, 0, 1, 4, 0.1, 1.0, ChannelKind::Exact, 1);
    world.run(params.total_rounds());
    assert!(world.is_consensus());
}

#[test]
fn sf_exact_and_aggregated_channels_both_converge() {
    for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
        let (mut world, params) = sf_world(128, 0, 1, 32, 0.15, 1.5, kind, 7);
        world.run(params.total_rounds());
        assert!(world.is_consensus(), "channel {kind:?}");
    }
}

#[test]
fn sf_spreads_opinion_zero_too() {
    let (mut world, params) = sf_world(256, 1, 0, 256, 0.2, 1.0, ChannelKind::Aggregated, 3);
    world.run(params.total_rounds());
    assert!(world.is_consensus());
    assert!(world.iter_agents().all(|a| a.opinion() == Opinion::Zero));
}

#[test]
fn sf_handles_minimal_population() {
    // Degenerate but legal: n = 2, one source. Mostly a no-panic test; at
    // this size the w.h.p. guarantee is meaningless, so only invariants
    // are checked.
    let (mut world, params) = sf_world(2, 0, 1, 2, 0.1, 1.0, ChannelKind::Exact, 5);
    world.run(params.total_rounds());
    assert_eq!(world.round(), params.total_rounds());
}

#[test]
fn ssf_converges_and_persists_across_sizes() {
    for (i, n) in [128usize, 256, 512].into_iter().enumerate() {
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
        let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
        let mut world = World::new(
            &SelfStabilizingSourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            60 + i as u64,
        )
        .unwrap();
        world.run(params.expected_convergence_rounds() + 2);
        assert!(
            world.is_consensus(),
            "n = {n}: {}/{n}",
            world.correct_count()
        );
        // Persistence over two more full update cycles.
        for _ in 0..2 * params.update_interval() {
            world.step();
            assert!(world.is_consensus(), "n = {n}: consensus lost");
        }
    }
}

#[test]
fn both_protocols_resolve_conflicting_sources_to_plurality() {
    // 3 vs 2 sources.
    let (mut world, params) = sf_world(256, 2, 3, 256, 0.15, 1.0, ChannelKind::Aggregated, 9);
    world.run(params.total_rounds());
    assert!(world.is_consensus());
    assert!(world.iter_agents().all(|a| a.opinion() == Opinion::One));

    let config = PopulationConfig::new(256, 2, 3, 256).unwrap();
    let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    let mut world = World::new(
        &SelfStabilizingSourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        11,
    )
    .unwrap();
    world.run(params.expected_convergence_rounds() + 2);
    assert!(world.is_consensus());
}

#[test]
fn sf_alternating_variant_converges_end_to_end() {
    use noisy_pull_repro::core::sf_alternating::AlternatingSourceFilter;
    let config = PopulationConfig::new(256, 0, 1, 256).unwrap();
    let params = SfParams::derive(&config, 0.2, 2.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    let mut world = World::new(
        &AlternatingSourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        21,
    )
    .unwrap();
    world.run(params.total_rounds());
    assert!(world.is_consensus(), "{}/256", world.correct_count());
}

#[test]
fn push_model_spreads_end_to_end() {
    use noisy_pull_repro::baselines::push_spreading::{PushSpreading, PushSpreadingParams};
    use noisy_pull_repro::engine::push::PushWorld;
    let n = 256;
    let params = PushSpreadingParams::derive(n, 1, 0.1).unwrap();
    let config = PopulationConfig::new(n, 0, 1, 1).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
    let mut world = PushWorld::new(&PushSpreading::new(params), config, &noise, 23).unwrap();
    world.run(params.total_rounds());
    assert!(world.is_consensus(), "{}/{n}", world.correct_count());
}

#[test]
fn sf_run_is_reproducible_across_worlds() {
    let (mut a, params) = sf_world(128, 0, 1, 128, 0.2, 1.0, ChannelKind::Aggregated, 77);
    let (mut b, _) = sf_world(128, 0, 1, 128, 0.2, 1.0, ChannelKind::Aggregated, 77);
    a.run(params.total_rounds());
    b.run(params.total_rounds());
    let ops_a: Vec<Opinion> = a.iter_agents().map(|x| x.opinion()).collect();
    let ops_b: Vec<Opinion> = b.iter_agents().map(|x| x.opinion()).collect();
    assert_eq!(ops_a, ops_b);
}

#[test]
fn opinion_series_tracks_takeover() {
    let (mut world, params) = sf_world(256, 0, 1, 256, 0.2, 1.0, ChannelKind::Aggregated, 13);
    world.record_series();
    world.run(params.total_rounds());
    let series = world.series().unwrap();
    assert_eq!(series.len() as u64, params.total_rounds());
    // The last recorded round must show full adoption of opinion One.
    assert_eq!(series.count(series.len() - 1, Opinion::One), 256);
    // Early rounds (during listening) must NOT be in consensus: non-source
    // opinions start as coin flips.
    assert!(series.count(0, Opinion::One) < 256);
}
