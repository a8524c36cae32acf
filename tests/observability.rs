//! Run-observability contract: fixed-seed golden traces and thread-count
//! invariance of the serialized artifacts.
//!
//! The trace is pure trajectory data — stage timings are deliberately
//! excluded from the JSONL/summary artifacts — so the *serialized bytes*
//! must be identical across worker thread counts, not just the parsed
//! values. These tests pin that end to end: engine trace → bench
//! serialization.

use noisy_pull_repro::prelude::*;
use np_engine::metrics::{round_json, trace_jsonl, RunSummary};

const THREADS: [usize; 3] = [1, 2, 7];

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

/// The smallest stage id present among live agents, per round: the
/// front of the protocol's schedule.
fn min_stage(metrics: &np_engine::metrics::RoundMetrics) -> u32 {
    metrics
        .stages
        .iter()
        .map(|&(id, _)| id)
        .min()
        .expect("every round has at least one occupied stage")
}

#[test]
fn sf_golden_trace_has_full_schedule_and_monotone_stages() {
    let (mut world, params) = sf_world();
    world.record_trace();
    world.run(params.total_rounds());
    let trace = world.take_trace().unwrap();
    // One record per executed round, covering the whole schedule.
    assert_eq!(trace.len() as u64, params.total_rounds());
    let rounds: Vec<u64> = trace.rounds().iter().map(|m| m.round).collect();
    let expected: Vec<u64> = (1..=params.total_rounds()).collect();
    assert_eq!(rounds, expected);
    for metrics in trace.rounds() {
        assert_eq!(metrics.n, 192);
        // Stage occupancy always accounts for every agent.
        assert_eq!(metrics.stages.iter().map(|&(_, c)| c).sum::<usize>(), 192);
        assert!(metrics.weak_correct <= metrics.weak_formed);
        assert!(metrics.weak_formed <= metrics.n);
    }
    // SF's schedule only moves forward: the slowest agent's stage is
    // monotone non-decreasing over rounds.
    for pair in trace.rounds().windows(2) {
        assert!(
            min_stage(&pair[0]) <= min_stage(&pair[1]),
            "schedule regressed between rounds {} and {}",
            pair[0].round,
            pair[1].round
        );
    }
    // Everyone ends Done (stage u32::MAX), with a formed weak opinion.
    let last = trace.last().unwrap();
    assert_eq!(last.stages, vec![(u32::MAX, 192)]);
    assert_eq!(last.weak_formed, 192);
    // The final margin is consistent with the final correct count.
    assert_eq!(last.margin(), last.correct as f64 - 96.0);
    assert_eq!(world.correct_count(), last.correct);
}

#[test]
fn ssf_trace_stage_counts_updates() {
    let (mut world, params) = ssf_world(55);
    world.record_trace();
    // Run exactly two update intervals: every agent flushes its memory
    // the round after it fills, so by the end each has ≥ 1 update.
    world.run(2 * params.update_interval());
    let trace = world.take_trace().unwrap();
    let first = trace.rounds().first().unwrap();
    assert_eq!(first.stages, vec![(0, 128)], "no flush before round 1 ends");
    let last = trace.last().unwrap();
    assert!(
        min_stage(last) >= 1,
        "after two intervals every agent has flushed at least once: {:?}",
        last.stages
    );
    // SSF always displays a weak opinion, so it is formed from round 1.
    assert_eq!(first.weak_formed, 128);
}

/// The serialized artifacts — not just the parsed metrics — must be
/// byte-identical across worker thread counts.
#[test]
fn trace_and_summary_bytes_are_thread_count_invariant() {
    let mut reference: Option<(String, String)> = None;
    for threads in THREADS {
        let (mut world, params) = sf_world();
        world.set_threads(threads);
        world.record_trace();
        world.run(params.total_rounds());
        let trace = world.take_trace().unwrap();
        let jsonl = trace_jsonl(trace.rounds());
        let summary =
            RunSummary::from_final_metrics("sf", world.config(), 101, trace.last().unwrap())
                .to_json();
        match &reference {
            None => reference = Some((jsonl, summary)),
            Some((want_jsonl, want_summary)) => {
                assert_eq!(
                    want_jsonl, &jsonl,
                    "trace JSONL differs at {threads} threads"
                );
                assert_eq!(
                    want_summary, &summary,
                    "summary JSON differs at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn ssf_trace_jsonl_is_thread_count_invariant() {
    let mut reference: Option<String> = None;
    for threads in THREADS {
        let (mut world, params) = ssf_world(55);
        world.set_threads(threads);
        world.record_trace();
        world.run(params.expected_convergence_rounds() + 2);
        let jsonl = trace_jsonl(world.take_trace().unwrap().rounds());
        match &reference {
            None => reference = Some(jsonl),
            Some(want) => assert_eq!(want, &jsonl, "SSF trace differs at {threads} threads"),
        }
    }
}

/// A nontrivial fault plan — corruption, a noise ramp, sleepers and a
/// trend change — must leave the serialized artifacts byte-identical
/// across worker thread counts: fault randomness comes from the
/// per-agent streams, never from the split of work across threads.
#[test]
fn faulted_trace_bytes_are_thread_count_invariant() {
    use np_engine::streams::StreamRng;
    use rand::Rng;
    use std::sync::Arc;

    let plan = || {
        FaultPlan::new()
            .at(
                3,
                FaultEvent::Corrupt {
                    frac: 0.5,
                    label: "scramble".to_string(),
                    fault: Arc::new(
                        |state: &mut noisy_pull::ssf::SsfColumns,
                         id: usize,
                         rng: &mut StreamRng| {
                            let opinion = Opinion::from_bool(rng.gen());
                            state.modify_agent(id, |agent| {
                                agent.corrupt_state(opinion, opinion, [0; 4]);
                            });
                        },
                    ),
                },
            )
            .at(
                5,
                FaultEvent::RampNoise {
                    from: 0.1,
                    to: 0.2,
                    over: 4,
                },
            )
            .at(
                5,
                FaultEvent::Sleep {
                    frac: 0.25,
                    rounds: 3,
                },
            )
            .at(8, FaultEvent::FlipSources)
    };
    let mut reference: Option<(String, String)> = None;
    for threads in THREADS {
        let (mut world, params) = ssf_world(55);
        world.set_threads(threads);
        world.set_fault_plan(plan()).unwrap();
        world.record_trace();
        world.run(2 * params.update_interval());
        let trace = world.take_trace().unwrap();
        let jsonl = trace_jsonl(trace.rounds());
        let summary =
            RunSummary::from_final_metrics("ssf", world.config(), 55, trace.last().unwrap())
                .with_faults(np_engine::faults::recovery_times(trace.rounds()))
                .to_json();
        match &reference {
            None => reference = Some((jsonl, summary)),
            Some((want_jsonl, want_summary)) => {
                assert_eq!(
                    want_jsonl, &jsonl,
                    "faulted trace JSONL differs at {threads} threads"
                );
                assert_eq!(
                    want_summary, &summary,
                    "faulted summary differs at {threads} threads"
                );
            }
        }
    }
    let (jsonl, summary) = reference.unwrap();
    // Fault markers appear on exactly the injection rounds…
    let marked: Vec<bool> = jsonl.lines().map(|l| l.contains("\"faults\":")).collect();
    for (i, has_marker) in marked.iter().enumerate() {
        let expected = matches!(i + 1, 3 | 5 | 8);
        assert_eq!(
            *has_marker,
            expected,
            "round {}: fault marker mismatch",
            i + 1
        );
    }
    // …with labels carrying the deterministic per-event counts.
    assert!(jsonl.contains("\"scramble:"), "{jsonl}");
    assert!(jsonl.contains("\"ramp-noise:0.1->0.2/4\""), "{jsonl}");
    assert!(jsonl.contains("\"sleep:"), "{jsonl}");
    assert!(jsonl.contains("\"flip-sources:1\""), "{jsonl}");
    // …and the summary reports one recovery record per event.
    assert_eq!(summary.matches("\"label\":").count(), 4, "{summary}");
}

#[test]
fn round_json_stays_stable_for_golden_round() {
    let (mut world, _) = sf_world();
    world.record_trace();
    world.step();
    let trace = world.take_trace().unwrap();
    let json = round_json(&trace.rounds()[0]);
    // Golden shape: all 192 agents still in Listen₀ after one round.
    assert!(json.starts_with("{\"round\":1,"), "{json}");
    assert!(json.contains("\"stages\":[[0,192]]"), "{json}");
    assert!(json.contains("\"weak_formed\":0"), "{json}");
}
