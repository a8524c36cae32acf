//! The per-agent oracle: every protocol the world runs struct-of-arrays
//! (SF, SSF, SF-ALT, h-majority) must produce exactly the trajectory of its
//! own per-agent records run one `Vec` entry at a time through the generic
//! `ScalarState` adapter.
//!
//! Both sides execute the same `display`/`update` code, so what this pins
//! is everything around it: the lane layout's gather/scatter, the packed
//! display kernels, the lazily derived update streams, the fused metrics
//! sweeps, the sleep mask, the trend-change hook and the snapshot codec.
//! Compared per case, for threads {1, 2, 7} × {aggregated, exact} channels:
//! per-round correct counts, trace and summary bytes, the final opinion
//! vector, every agent's final record, and the snapshot bytes.

use std::sync::Arc;

use noisy_pull_repro::baselines::majority::HMajority;
use noisy_pull_repro::prelude::*;
use np_engine::metrics::{trace_jsonl, RunSummary};
use np_engine::snapshot::SnapshotState;
use np_engine::streams::StreamRng;

const THREADS: [usize; 3] = [1, 2, 7];
const KINDS: [ChannelKind; 2] = [ChannelKind::Aggregated, ChannelKind::Exact];

/// Test-only opt-in: runs `P`'s records through the blanket
/// `ScalarState` adapter instead of `P`'s own struct-of-arrays state.
struct PerAgent<P>(P);

impl<P: Protocol> Protocol for PerAgent<P> {
    type Agent = P::Agent;

    fn alphabet_size(&self) -> usize {
        self.0.alphabet_size()
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> P::Agent {
        self.0.init_agent(role, rng)
    }
}

impl<P: Protocol> ScalarLayout for PerAgent<P> {}

/// Everything a run leaves behind that the two layouts must agree on.
struct Outcome {
    correct: Vec<usize>,
    trace: String,
    summary: String,
    opinions: Vec<Opinion>,
    agents: String,
    snapshot: Vec<u8>,
}

/// Runs `world` for `rounds` on `threads` workers and collects its
/// [`Outcome`].
fn run<P>(mut world: World<P>, threads: usize, rounds: u64) -> Outcome
where
    P: ColumnarProtocol,
    P::State: SnapshotState + AgentRecords,
    <P::State as AgentRecords>::Agent: std::fmt::Debug,
{
    world.set_threads(threads);
    world.record_trace();
    let mut correct = Vec::new();
    for _ in 0..rounds {
        world.step();
        correct.push(world.correct_count());
    }
    let snapshot = world.snapshot();
    let trace = world.take_trace().unwrap();
    let summary = RunSummary::from_final_metrics(
        "oracle",
        world.config(),
        world.seed(),
        trace.last().unwrap(),
    )
    .with_faults(recovery_times(trace.rounds()));
    Outcome {
        correct,
        trace: trace_jsonl(trace.rounds()),
        summary: summary.to_json(),
        opinions: world.opinions(),
        agents: format!("{:?}", world.iter_agents().collect::<Vec<_>>()),
        snapshot,
    }
}

/// Asserts that `make(kind)` for the struct-of-arrays protocol and for its
/// per-agent oracle end identically at every thread count and channel
/// kind.
fn assert_matches_oracle<P, Q>(
    label: &str,
    rounds: u64,
    soa: impl Fn(ChannelKind) -> World<P>,
    oracle: impl Fn(ChannelKind) -> World<Q>,
) where
    P: ColumnarProtocol,
    P::State: SnapshotState + AgentRecords,
    <P::State as AgentRecords>::Agent: std::fmt::Debug,
    Q: ColumnarProtocol,
    Q::State: SnapshotState + AgentRecords,
    <Q::State as AgentRecords>::Agent: std::fmt::Debug,
{
    for kind in KINDS {
        let want = run(oracle(kind), 1, rounds);
        assert!(
            want.correct.iter().any(|&c| c != want.correct[0]),
            "{label}: trajectory never moves, the comparison would be vacuous"
        );
        for threads in THREADS {
            let got = run(soa(kind), threads, rounds);
            assert_eq!(
                got.correct, want.correct,
                "{label} {kind:?} @{threads}: correct counts"
            );
            assert_eq!(
                got.trace, want.trace,
                "{label} {kind:?} @{threads}: trace bytes"
            );
            assert_eq!(
                got.summary, want.summary,
                "{label} {kind:?} @{threads}: summary"
            );
            assert_eq!(
                got.opinions, want.opinions,
                "{label} {kind:?} @{threads}: opinions"
            );
            assert_eq!(
                got.agents, want.agents,
                "{label} {kind:?} @{threads}: records"
            );
            assert_eq!(
                got.snapshot, want.snapshot,
                "{label} {kind:?} @{threads}: snapshot"
            );
        }
    }
}

/// A ragged population (157 % 64 ≠ 0, so the packed planes end in a
/// partial word) with conflicting sources.
fn sf_setup() -> (PopulationConfig, SfParams, NoiseMatrix) {
    let config = PopulationConfig::new(157, 1, 2, 157).unwrap();
    let params = SfParams::derive(&config, 0.15, 1.0).unwrap();
    (config, params, NoiseMatrix::uniform(2, 0.15).unwrap())
}

fn world<P: ColumnarProtocol>(
    protocol: &P,
    config: PopulationConfig,
    noise: &NoiseMatrix,
    kind: ChannelKind,
    seed: u64,
) -> World<P> {
    World::new(protocol, config, noise, kind, seed).unwrap()
}

#[test]
fn sf_matches_per_agent_oracle() {
    let (config, params, noise) = sf_setup();
    let sf = SourceFilter::new(params);
    assert_matches_oracle(
        "SF",
        params.total_rounds(),
        |kind| world(&sf, config, &noise, kind, 101),
        |kind| world(&PerAgent(sf), config, &noise, kind, 101),
    );
}

/// A mid-run trend change (the sources' preference flips) plus a sleep
/// span, so the fault hooks and the skipped-update mask run on both sides.
#[test]
fn sf_with_mid_run_flip_matches_per_agent_oracle() {
    fn faulted<P: ColumnarProtocol>(mut w: World<P>) -> World<P> {
        let plan = FaultPlan::new()
            .at(
                4,
                FaultEvent::Sleep {
                    frac: 0.3,
                    rounds: 3,
                },
            )
            .at(12, FaultEvent::FlipSources);
        w.set_fault_plan(plan).unwrap();
        w
    }
    let (config, params, noise) = sf_setup();
    let sf = SourceFilter::new(params);
    assert_matches_oracle(
        "SF + flip",
        params.total_rounds(),
        |kind| faulted(world(&sf, config, &noise, kind, 103)),
        |kind| faulted(world(&PerAgent(sf), config, &noise, kind, 103)),
    );
}

/// SSF from an adversarially corrupted start, re-corrupted mid-run through
/// a fault event that reaches the agents through `AgentRecords`.
#[test]
fn ssf_from_corrupted_start_matches_per_agent_oracle() {
    fn corrupted<P>(mut w: World<P>, params: SsfParams) -> World<P>
    where
        P: ColumnarProtocol,
        P::State: AgentRecords<Agent = noisy_pull_repro::core::ssf::SsfAgent>,
    {
        let (m, correct) = (params.m(), w.config().correct_opinion());
        w.corrupt_agents(|id, agent, rng| {
            SsfAdversary::PoisonedMemory.corrupt(agent, correct, m, id, rng);
        });
        let event = FaultEvent::Corrupt {
            frac: 0.4,
            label: "split-brain".to_string(),
            fault: Arc::new(
                move |state: &mut P::State, id: usize, rng: &mut StreamRng| {
                    state.modify_agent(id, |agent| {
                        SsfAdversary::SplitBrain.corrupt(agent, correct, m, id, rng);
                    });
                },
            ),
        };
        let at = 2 * params.update_interval();
        w.set_fault_plan(FaultPlan::new().at(at, event)).unwrap();
        w
    }
    let config = PopulationConfig::new(150, 0, 1, 150).unwrap();
    let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    let ssf = SelfStabilizingSourceFilter::new(params);
    assert_matches_oracle(
        "SSF (corrupted)",
        4 * params.expected_convergence_rounds(),
        |kind| corrupted(world(&ssf, config, &noise, kind, 107), params),
        |kind| corrupted(world(&PerAgent(ssf), config, &noise, kind, 107), params),
    );
}

#[test]
fn sf_alt_matches_per_agent_oracle() {
    let (config, params, noise) = sf_setup();
    let alt = AlternatingSourceFilter::new(params);
    assert_matches_oracle(
        "SF-ALT",
        params.total_rounds(),
        |kind| world(&alt, config, &noise, kind, 109),
        |kind| world(&PerAgent(alt), config, &noise, kind, 109),
    );
}

#[test]
fn h_majority_matches_per_agent_oracle() {
    let config = PopulationConfig::new(160, 2, 5, 8).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    assert_matches_oracle(
        "h-majority",
        40,
        |kind| world(&HMajority, config, &noise, kind, 113),
        |kind| world(&PerAgent(HMajority), config, &noise, kind, 113),
    );
}
