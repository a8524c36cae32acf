//! Complete-topology seam regression matrix.
//!
//! The topology subsystem threads a graph through `World::step`, with the
//! complete graph as a zero-cost seam: a world that never names a
//! topology and a world explicitly pinned to [`TopologySpec::Complete`]
//! must produce **byte-identical** trajectories — same opinions, same
//! per-round series — for every protocol (SF, SSF, SF-ALT) at every
//! thread count (1, 2, 7). Restricted graphs then get the same
//! thread-count-invariance guarantee the complete graph has always had,
//! and graph generation itself must be a pure function of
//! `(spec, n, seed)`.

use noisy_pull_repro::prelude::*;

const THREADS: [usize; 3] = [1, 2, 7];

/// Trajectory fingerprint: final opinions plus the per-round ones-count
/// series.
fn trajectory<P: ColumnarProtocol>(mut world: World<P>, rounds: u64) -> (Vec<Opinion>, Vec<usize>) {
    world.record_series();
    world.run(rounds);
    let counts = world
        .series()
        .expect("series was enabled")
        .counts(Opinion::One);
    (world.opinions(), counts)
}

/// Asserts the explicit-Complete world reproduces the topology-naive
/// world byte for byte, at every thread count.
fn assert_complete_is_a_noop<P, F>(label: &str, rounds: u64, make_world: F)
where
    P: ColumnarProtocol,
    F: Fn() -> World<P>,
{
    for threads in THREADS {
        let mut plain = make_world();
        plain.set_threads(threads);
        let mut pinned = make_world();
        pinned.set_threads(threads);
        pinned
            .set_topology(TopologySpec::Complete)
            .expect("complete is always realizable");
        assert_eq!(
            trajectory(plain, rounds),
            trajectory(pinned, rounds),
            "{label}: explicit Complete changed the trajectory at {threads} threads"
        );
    }
}

fn sf_config() -> (PopulationConfig, SfParams, NoiseMatrix) {
    let config = PopulationConfig::new(192, 1, 2, 192).unwrap();
    let params = SfParams::derive(&config, 0.15, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.15).unwrap();
    (config, params, noise)
}

fn ssf_config() -> (PopulationConfig, SsfParams, NoiseMatrix) {
    let config = PopulationConfig::new(128, 0, 1, 128).unwrap();
    let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    (config, params, noise)
}

#[test]
fn sf_complete_topology_is_a_noop() {
    let (config, params, noise) = sf_config();
    assert_complete_is_a_noop("SF", params.total_rounds(), || {
        World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            101,
        )
        .unwrap()
    });
}

#[test]
fn ssf_complete_topology_is_a_noop() {
    let (config, params, noise) = ssf_config();
    let rounds = params.expected_convergence_rounds() + 2;
    assert_complete_is_a_noop("SSF", rounds, || {
        World::new(
            &SelfStabilizingSourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            55,
        )
        .unwrap()
    });
}

#[test]
fn sf_alt_complete_topology_is_a_noop() {
    let (config, params, noise) = sf_config();
    assert_complete_is_a_noop("SF-ALT", params.total_rounds(), || {
        World::new(
            &AlternatingSourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            77,
        )
        .unwrap()
    });
}

/// The exact channel exercises the unpack seam instead of the popcount
/// path; the Complete pin must be a no-op there too.
#[test]
fn sf_exact_channel_complete_topology_is_a_noop() {
    let (config, params, noise) = sf_config();
    assert_complete_is_a_noop("SF (exact)", params.total_rounds(), || {
        World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Exact,
            101,
        )
        .unwrap()
    });
}

/// Restricted graphs inherit the thread-count-invariance contract: the
/// per-neighborhood sampling path draws from the same per-agent streams,
/// so chunking must not change a single observation.
#[test]
fn ring_trajectories_are_thread_count_invariant() {
    let (config, params, noise) = sf_config();
    let (ssf_cfg, ssf_params, ssf_noise) = ssf_config();
    let cases: [(&str, TopologySpec); 2] = [
        ("ring:4", TopologySpec::Ring { k: 4 }),
        ("regular:12", TopologySpec::RandomRegular { d: 12 }),
    ];
    for (label, spec) in cases {
        let mut reference: Option<(Vec<Opinion>, Vec<usize>)> = None;
        for threads in THREADS {
            let mut world = World::new(
                &SourceFilter::new(params),
                config,
                &noise,
                ChannelKind::Aggregated,
                101,
            )
            .unwrap();
            world.set_threads(threads);
            world.set_topology(spec).unwrap();
            let got = trajectory(world, params.total_rounds());
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    want, &got,
                    "SF on {label}: trajectory differs at {threads} threads"
                ),
            }
        }
        let mut ssf_reference: Option<(Vec<Opinion>, Vec<usize>)> = None;
        for threads in THREADS {
            let mut world = World::new(
                &SelfStabilizingSourceFilter::new(ssf_params),
                ssf_cfg,
                &ssf_noise,
                ChannelKind::Aggregated,
                55,
            )
            .unwrap();
            world.set_threads(threads);
            world.set_topology(spec).unwrap();
            let got = trajectory(world, ssf_params.expected_convergence_rounds() + 2);
            match &ssf_reference {
                None => ssf_reference = Some(got),
                Some(want) => assert_eq!(
                    want, &got,
                    "SSF on {label}: trajectory differs at {threads} threads"
                ),
            }
        }
    }
}

/// Graph generation is a pure function of `(spec, n, seed)` — two builds
/// agree byte for byte, and a different seed moves the random graphs.
#[test]
fn topology_generation_is_deterministic() {
    for spec in [
        TopologySpec::Ring { k: 3 },
        TopologySpec::RandomRegular { d: 6 },
        TopologySpec::PowerLaw { alpha: 2.5 },
    ] {
        let a = Topology::build(spec, 96, 17).unwrap();
        let b = Topology::build(spec, 96, 17).unwrap();
        assert_eq!(
            a.csr_bytes(),
            b.csr_bytes(),
            "{}: rebuild differs",
            spec.label()
        );
    }
    let a = Topology::build(TopologySpec::RandomRegular { d: 6 }, 96, 17).unwrap();
    let b = Topology::build(TopologySpec::RandomRegular { d: 6 }, 96, 18).unwrap();
    assert_ne!(
        a.csr_bytes(),
        b.csr_bytes(),
        "random-regular graph ignored its seed"
    );
}
