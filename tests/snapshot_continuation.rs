//! Snapshot continuation at the artifact level: checkpoint a run
//! mid-flight, restore it in a fresh `World`, finish it there, and the
//! serialized np-bench artifacts (per-round JSONL trace + run summary)
//! must be byte-identical to the uninterrupted run — for SF, SSF and
//! SF-ALT, with and without an active fault plan, at every worker
//! thread count.
//!
//! The engine-level continuation tests pin opinions and digests; these
//! pin the *bytes users keep*: `trace_jsonl` output and
//! `RunSummary::to_json`, produced through the same np-bench code paths
//! the CLI uses.

use noisy_pull_repro::engine::snapshot::SnapshotState;
use noisy_pull_repro::prelude::*;
use np_engine::metrics::{trace_jsonl, RunSummary};

const THREADS: [usize; 3] = [1, 2, 7];

/// Renders the two artifacts a finished run leaves behind.
fn artifacts<P: ColumnarProtocol>(
    label: &str,
    world: &mut World<P>,
    faulted: bool,
) -> (String, String) {
    let trace = world.take_trace().unwrap();
    let jsonl = trace_jsonl(trace.rounds());
    let mut summary =
        RunSummary::from_final_metrics(label, world.config(), world.seed(), trace.last().unwrap());
    if faulted {
        summary = summary.with_faults(recovery_times(trace.rounds()));
    }
    (jsonl, summary.to_json())
}

/// Runs the continuation matrix for one protocol: an uninterrupted
/// reference run, then snapshot-at-`snap_at` → restore → finish at each
/// thread count, byte-comparing both artifacts every time.
fn check_continuation<P>(
    label: &str,
    protocol: &P,
    make: &dyn Fn() -> World<P>,
    plan: Option<&dyn Fn() -> FaultPlan<P::State>>,
    snap_at: u64,
    total: u64,
) where
    P: ColumnarProtocol,
    P::State: SnapshotState,
{
    assert!(snap_at > 0 && snap_at < total, "snapshot must fall mid-run");
    let mut reference = make();
    if let Some(plan) = plan {
        reference.set_fault_plan(plan()).unwrap();
    }
    reference.record_trace();
    reference.run(total);
    let (want_trace, want_summary) = artifacts(label, &mut reference, plan.is_some());

    for threads in THREADS {
        let mut first = make();
        if let Some(plan) = plan {
            first.set_fault_plan(plan()).unwrap();
        }
        first.record_trace();
        first.run(snap_at);
        let bytes = first.snapshot();
        drop(first);

        let mut resumed = World::restore(protocol, &bytes).unwrap();
        assert_eq!(resumed.round(), snap_at);
        resumed.set_threads(threads);
        if let Some(plan) = plan {
            // The plan itself is not serialized; re-attaching validates it
            // against the cursor saved in the snapshot.
            resumed.reattach_fault_plan(plan()).unwrap();
        }
        // Idempotent: the snapshot already carries rounds 1..=snap_at.
        resumed.record_trace();
        resumed.run(total - snap_at);
        let (got_trace, got_summary) = artifacts(label, &mut resumed, plan.is_some());
        assert_eq!(
            want_trace, got_trace,
            "{label}: restored trace differs at {threads} threads"
        );
        assert_eq!(
            want_summary, got_summary,
            "{label}: restored summary differs at {threads} threads"
        );
    }
}

/// A state-agnostic fault plan whose first event lands before the
/// snapshot round and whose last is still pending when it is taken.
fn plan<S>(base_delta: f64, pending_at: u64) -> FaultPlan<S> {
    FaultPlan::new()
        .at(3, FaultEvent::FlipSources)
        .at(
            5,
            FaultEvent::RampNoise {
                from: base_delta,
                to: base_delta + 0.1,
                over: 4,
            },
        )
        .at(
            pending_at,
            FaultEvent::Sleep {
                frac: 0.25,
                rounds: 3,
            },
        )
}

fn sf_setup() -> (SourceFilter, PopulationConfig, NoiseMatrix, SfParams) {
    let config = PopulationConfig::new(192, 1, 2, 192).unwrap();
    let params = SfParams::derive(&config, 0.15, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.15).unwrap();
    (SourceFilter::new(params), config, noise, params)
}

fn ssf_setup() -> (
    SelfStabilizingSourceFilter,
    PopulationConfig,
    NoiseMatrix,
    SsfParams,
) {
    let config = PopulationConfig::new(128, 0, 1, 128).unwrap();
    let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    (
        SelfStabilizingSourceFilter::new(params),
        config,
        noise,
        params,
    )
}

fn alt_setup() -> (
    AlternatingSourceFilter,
    PopulationConfig,
    NoiseMatrix,
    SfParams,
) {
    let config = PopulationConfig::new(96, 0, 1, 96).unwrap();
    let params = SfParams::derive(&config, 0.2, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    (AlternatingSourceFilter::new(params), config, noise, params)
}

#[test]
fn sf_artifacts_survive_restore() {
    let (protocol, config, noise, params) = sf_setup();
    let make = || World::new(&protocol, config, &noise, ChannelKind::Aggregated, 101).unwrap();
    check_continuation("sf", &protocol, &make, None, 7, params.total_rounds());
}

#[test]
fn sf_artifacts_survive_restore_mid_fault_plan() {
    let (protocol, config, noise, params) = sf_setup();
    let total = params.total_rounds();
    let make = || World::new(&protocol, config, &noise, ChannelKind::Aggregated, 101).unwrap();
    let faults = || plan(0.15, 10);
    check_continuation("sf", &protocol, &make, Some(&faults), 7, total);
}

#[test]
fn ssf_artifacts_survive_restore() {
    let (protocol, config, noise, params) = ssf_setup();
    let total = 2 * params.update_interval();
    let make = || World::new(&protocol, config, &noise, ChannelKind::Aggregated, 55).unwrap();
    check_continuation(
        "ssf",
        &protocol,
        &make,
        None,
        params.update_interval(),
        total,
    );
}

#[test]
fn ssf_artifacts_survive_restore_mid_fault_plan() {
    let (protocol, config, noise, params) = ssf_setup();
    let total = 2 * params.update_interval();
    let snap_at = params.update_interval();
    let make = || World::new(&protocol, config, &noise, ChannelKind::Aggregated, 55).unwrap();
    let faults = || plan(0.1, snap_at + 3);
    check_continuation("ssf", &protocol, &make, Some(&faults), snap_at, total);
}

#[test]
fn columnar_ssf_packed_artifacts_survive_restore_mid_fault_plan() {
    // The packed hot path under snapshotting, with a ragged population
    // (n % 64 ≠ 0, so the bit planes carry a partial final word): the
    // np-snap/v1 encoding never sees the planes — they are rebuilt empty
    // on restore and refilled on the next display pass — and SSF's
    // struct-of-arrays lanes are scattered back from the per-agent
    // records, so a restored SSF world must continue byte-identically
    // through a pending fault plan at every thread count.
    let config = PopulationConfig::new(157, 0, 1, 157).unwrap();
    let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    let protocol = SelfStabilizingSourceFilter::new(params);
    let total = 2 * params.update_interval();
    let snap_at = params.update_interval();
    let make = || World::new(&protocol, config, &noise, ChannelKind::Aggregated, 55).unwrap();
    let faults = || plan(0.1, snap_at + 3);
    check_continuation(
        "ssf-ragged",
        &protocol,
        &make,
        Some(&faults),
        snap_at,
        total,
    );
}

#[test]
fn sf_alt_artifacts_survive_restore() {
    let (protocol, config, noise, params) = alt_setup();
    let make = || World::new(&protocol, config, &noise, ChannelKind::Aggregated, 77).unwrap();
    check_continuation("sf-alt", &protocol, &make, None, 7, params.total_rounds());
}

#[test]
fn sf_alt_artifacts_survive_restore_mid_fault_plan() {
    let (protocol, config, noise, params) = alt_setup();
    let total = params.total_rounds();
    let make = || World::new(&protocol, config, &noise, ChannelKind::Aggregated, 77).unwrap();
    let faults = || plan(0.2, 10);
    check_continuation("sf-alt", &protocol, &make, Some(&faults), 7, total);
}
