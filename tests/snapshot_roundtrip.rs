//! Property tests for `np-snap/v1`: snapshot → restore → snapshot must
//! reproduce the exact bytes, for arbitrary populations and seeds, at
//! any point in a run — including a snapshot taken mid fault plan, with
//! some events already applied and others still pending. And restore is a
//! decoder of untrusted bytes: junk, a truncated snapshot or one with a
//! flipped bit must come back as a value or a typed error, never a panic.

use noisy_pull_repro::prelude::*;
use proptest::prelude::*;

proptest! {
    // Each case builds and runs a world; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sf_snapshot_bytes_roundtrip(
        n in 8usize..96,
        s1 in 1usize..3,
        delta in 0.0f64..0.3,
        seed in any::<u64>(),
        ran in 0u64..12,
    ) {
        let config = PopulationConfig::new(n, 0, s1, n).unwrap();
        let params = SfParams::derive(&config, delta, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        let protocol = SourceFilter::new(params);
        let mut world =
            World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).unwrap();
        world.record_trace();
        world.run(ran);
        let bytes = world.snapshot();
        let restored = World::restore(&protocol, &bytes).unwrap();
        prop_assert_eq!(restored.round(), ran);
        prop_assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn ssf_snapshot_bytes_roundtrip(
        seed in any::<u64>(),
        ran in 0u64..20,
    ) {
        let config = PopulationConfig::new(32, 0, 1, 32).unwrap();
        let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
        let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
        let protocol = SelfStabilizingSourceFilter::new(params);
        let mut world =
            World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).unwrap();
        world.run(ran);
        let bytes = world.snapshot();
        let restored = World::restore(&protocol, &bytes).unwrap();
        prop_assert_eq!(restored.round(), ran);
        prop_assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn snapshot_mid_fault_plan_roundtrips_with_pending_events(
        seed in any::<u64>(),
        delta in 0.05f64..0.25,
    ) {
        let config = PopulationConfig::new(48, 0, 1, 48).unwrap();
        let params = SfParams::derive(&config, delta, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        let protocol = SourceFilter::new(params);
        let mut world =
            World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).unwrap();
        let plan = || {
            FaultPlan::new()
                .at(2, FaultEvent::FlipSources)
                .at(100, FaultEvent::Sleep { frac: 0.5, rounds: 3 })
        };
        world.set_fault_plan(plan()).unwrap();
        // Round 5: the flip has fired, the sleep is still pending — the
        // snapshot must carry the fault cursor, not the plan itself.
        world.run(5);
        let bytes = world.snapshot();
        let mut restored = World::restore(&protocol, &bytes).unwrap();
        prop_assert_eq!(restored.round(), 5);
        prop_assert_eq!(restored.snapshot(), bytes);
        // Re-attaching the same plan validates against the saved cursor
        // (the already-applied round-2 event must not be rejected as
        // being in the past) and the run continues.
        restored.reattach_fault_plan(plan()).unwrap();
        restored.run(3);
        prop_assert_eq!(restored.round(), 8);
    }
}

proptest! {
    // Decoding is cheap next to the round trips above: more cases.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn restore_of_junk_after_a_valid_prefix_never_panics(
        seed in any::<u64>(),
        keep in any::<usize>(),
        junk in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (sf, bytes) = sf_snapshot(seed, 3);
        let _ = World::restore(&sf, &[&bytes[..keep % bytes.len()], &junk].concat());
        let (ssf, bytes) = ssf_snapshot(seed, 3);
        let _ = World::restore(&ssf, &[&bytes[..keep % bytes.len()], &junk].concat());
    }

    #[test]
    fn restore_of_a_truncated_snapshot_is_a_typed_error(
        seed in any::<u64>(),
        ran in 0u64..12,
        cut in any::<usize>(),
    ) {
        let (sf, bytes) = sf_snapshot(seed, ran);
        prop_assert!(World::restore(&sf, &bytes[..cut % bytes.len()]).is_err());
        let (ssf, bytes) = ssf_snapshot(seed, ran);
        prop_assert!(World::restore(&ssf, &bytes[..cut % bytes.len()]).is_err());
    }

    #[test]
    fn restore_of_a_bit_flipped_snapshot_never_panics(
        seed in any::<u64>(),
        ran in 0u64..12,
        bit in any::<usize>(),
    ) {
        let (sf, mut bytes) = sf_snapshot(seed, ran);
        flip(&mut bytes, bit);
        let _ = World::restore(&sf, &bytes);
        let (ssf, mut bytes) = ssf_snapshot(seed, ran);
        flip(&mut bytes, bit);
        let _ = World::restore(&ssf, &bytes);
    }
}

/// An SF world with a trace, run `ran` rounds, and its snapshot.
fn sf_snapshot(seed: u64, ran: u64) -> (SourceFilter, Vec<u8>) {
    let config = PopulationConfig::new(24, 0, 1, 24).unwrap();
    let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
    let protocol = SourceFilter::new(params);
    let mut world = World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).unwrap();
    world.record_trace();
    world.run(ran);
    let bytes = world.snapshot();
    (protocol, bytes)
}

/// An SSF world with an opinion series, run `ran` rounds, and its
/// snapshot.
fn ssf_snapshot(seed: u64, ran: u64) -> (SelfStabilizingSourceFilter, Vec<u8>) {
    let config = PopulationConfig::new(24, 0, 1, 24).unwrap();
    let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    let protocol = SelfStabilizingSourceFilter::new(params);
    let mut world = World::new(&protocol, config, &noise, ChannelKind::Exact, seed).unwrap();
    world.record_series();
    world.run(ran);
    let bytes = world.snapshot();
    (protocol, bytes)
}

/// Flips bit `bit mod 8·len` of `bytes`.
fn flip(bytes: &mut [u8], bit: usize) {
    let bit = bit % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
}

/// Snapshots written before the protocols had one per-agent codec carry a
/// `*-columns/v1` state tag. Restoring one must fail with a typed
/// `BadSnapshot` error naming the tag, never panic or misread the bytes.
#[test]
fn retired_columns_tags_are_refused_with_bad_snapshot() {
    use noisy_pull_repro::baselines::majority::HMajority;
    use np_engine::snapshot::{SnapReader, SnapWriter};
    use np_engine::EngineError;

    /// Re-encodes `bytes` with its state tag replaced by `tag`.
    fn retag(bytes: &[u8], tag: &str) -> Vec<u8> {
        let mut r = SnapReader::new(bytes);
        let magic = r.take_str().unwrap();
        r.take_str().unwrap();
        let rest = &bytes[bytes.len() - r.remaining()..];
        let mut w = SnapWriter::new();
        w.put_str(&magic);
        w.put_str(tag);
        let mut out = w.into_bytes();
        out.extend_from_slice(rest);
        out
    }

    fn assert_refused<P: ColumnarProtocol>(protocol: &P, world: &World<P>, tag: &str)
    where
        P::State: np_engine::snapshot::SnapshotState,
    {
        let bytes = retag(&world.snapshot(), tag);
        match World::restore(protocol, &bytes) {
            Err(EngineError::BadSnapshot { detail }) => {
                assert!(detail.contains(tag), "{tag}: {detail}")
            }
            Err(other) => panic!("{tag}: expected BadSnapshot, got {other}"),
            Ok(_) => panic!("{tag}: a retired layout restored"),
        }
    }

    let config = PopulationConfig::new(32, 0, 1, 32).unwrap();
    let sf_params = SfParams::derive(&config, 0.1, 1.0).unwrap();
    let ssf_params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let (noise2, noise4) = (
        NoiseMatrix::uniform(2, 0.1).unwrap(),
        NoiseMatrix::uniform(4, 0.1).unwrap(),
    );
    let kind = ChannelKind::Aggregated;

    let sf = SourceFilter::new(sf_params);
    let world = World::new(&sf, config, &noise2, kind, 1).unwrap();
    assert_refused(&sf, &world, "sf-columns/v1");

    let ssf = SelfStabilizingSourceFilter::new(ssf_params);
    let world = World::new(&ssf, config, &noise4, kind, 2).unwrap();
    assert_refused(&ssf, &world, "ssf-columns/v1");

    let alt = AlternatingSourceFilter::new(sf_params);
    let world = World::new(&alt, config, &noise2, kind, 3).unwrap();
    assert_refused(&alt, &world, "sf-alt-columns/v1");

    let world = World::new(&HMajority, config, &noise2, kind, 4).unwrap();
    assert_refused(&HMajority, &world, "majority-columns/v1");
}

/// A snapshot whose header declares far more agents than its bytes can
/// hold must be refused with `BadSnapshot` before anything sized by `n`
/// is allocated. The repro: a ring world's header set to n = 2³⁴ and the
/// bytes cut right after the topology spec. Restoring it used to abort
/// the process inside `Topology::build`, which tried to allocate
/// 2³⁴ neighbor lists.
#[test]
fn oversized_population_header_is_refused_before_allocating() {
    use np_engine::snapshot::SnapReader;
    use np_engine::EngineError;

    let config = PopulationConfig::new(16, 0, 1, 16).unwrap();
    let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
    let protocol = SourceFilter::new(params);
    let mut world = World::new(&protocol, config, &noise, ChannelKind::Aggregated, 3).unwrap();
    world.set_topology(TopologySpec::Ring { k: 1 }).unwrap();
    world.run(2);
    let bytes = world.snapshot();

    // Walk the header: magic, state tag, then n, s0, s1, h, seed, round,
    // the correct-opinion, channel-kind and sampling-mode bytes, and the
    // ring's topology tag and k.
    let mut r = SnapReader::new(&bytes);
    r.take_str().unwrap();
    r.take_str().unwrap();
    let n_at = bytes.len() - r.remaining();
    for _ in 0..6 {
        r.take_u64().unwrap();
    }
    for _ in 0..3 {
        r.take_u8().unwrap();
    }
    assert_eq!(r.take_u8().unwrap(), 1, "ring topology tag");
    assert_eq!(r.take_usize().unwrap(), 1, "ring k");
    let topology_end = bytes.len() - r.remaining();

    let mut inflated = bytes.clone();
    inflated[n_at..n_at + 8].copy_from_slice(&(1u64 << 34).to_le_bytes());
    for cut in [&inflated[..topology_end], &inflated[..]] {
        match World::restore(&protocol, cut) {
            Err(EngineError::BadSnapshot { detail }) => {
                assert!(detail.contains("17179869184 agents"), "{detail}")
            }
            Err(other) => panic!("expected BadSnapshot, got {other}"),
            Ok(_) => panic!("a snapshot declaring 2^34 agents restored"),
        }
    }
}
