//! The cluster workload on `np_net::sim::SimCluster`: SSF on the
//! simulated-time transport, stepped one local round at a time with
//! `run_until_round` until every node is correct or the budget ends.

use std::time::Instant;

use noisy_pull::params::SsfParams;
use noisy_pull::ssf::{SelfStabilizingSourceFilter, SsfAgent};
use np_net::cluster::{ClusterConfig, ClusterReport};
use np_net::faults::NetFaultPlan;
use np_net::sim::SimCluster;

use crate::trace::Tracer;
use crate::{err, ms_since};

/// The cluster workload's fixed parameters.
#[derive(Debug)]
pub struct ClusterSpec {
    /// Nodes.
    pub n: usize,
    /// Pull requests per node per local round.
    pub h: usize,
    /// Uniform noise level δ.
    pub delta: f64,
    /// SSF's `c1`.
    pub c1: f64,
    /// Message drop probability.
    pub drop_rate: f64,
    /// Budget in SSF update intervals.
    pub intervals: u64,
}

impl ClusterSpec {
    fn config(&self, seed: u64) -> ClusterConfig {
        // Default timing profile, as `noisy-pull cluster` builds it.
        let mut cfg = ClusterConfig::new(self.n, 0, 1, self.h, self.delta, seed);
        cfg.drop_rate = self.drop_rate;
        cfg
    }

    /// The SSF protocol and the round budget.
    pub fn protocol(&self) -> Result<(SelfStabilizingSourceFilter, u64), String> {
        let population = self.config(0).population().map_err(err)?;
        let params = SsfParams::derive(&population, self.delta, self.c1).map_err(err)?;
        Ok((
            SelfStabilizingSourceFilter::new(params),
            self.intervals * params.update_interval(),
        ))
    }

    fn build(
        &self,
        protocol: &SelfStabilizingSourceFilter,
        seed: u64,
    ) -> Result<SimCluster<SsfAgent>, String> {
        SimCluster::new(&self.config(seed), protocol, &NetFaultPlan::new()).map_err(err)
    }
}

/// Times `SimCluster::new` alone.
pub fn setup(
    spec: &ClusterSpec,
    protocol: &SelfStabilizingSourceFilter,
    seed: u64,
) -> Result<f64, String> {
    let start = Instant::now();
    let cluster = spec.build(protocol, seed)?;
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&cluster);
    Ok(secs)
}

/// Result of one cluster seed.
#[derive(Debug)]
pub struct ClusterRun {
    /// Wall time from the first step to convergence or the budget.
    pub run_s: f64,
    /// Wall time of each `run_until_round` step.
    pub rounds_ms: Vec<f64>,
    /// Local rounds stepped.
    pub rounds: u64,
    /// Virtual time when the run stopped, in milliseconds.
    pub virtual_ms: f64,
    /// The cluster's report at the end.
    pub report: ClusterReport,
}

/// Runs one seed, optionally with a span around every call.
pub fn run(
    spec: &ClusterSpec,
    protocol: &SelfStabilizingSourceFilter,
    budget: u64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<ClusterRun, String> {
    let mut cluster = spec.build(protocol, seed)?;
    let mut rounds_ms = Vec::with_capacity(budget as usize);
    let mut rounds = 0;
    let start = Instant::now();
    for round in 1..=budget {
        let t = Instant::now();
        let span = tracer.as_deref_mut().map(|tr| tr.begin("net.round", None));
        cluster.run_until_round(round).map_err(err)?;
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.end(id);
        }
        rounds_ms.push(ms_since(t));
        rounds = round;
        if cluster.all_correct() {
            break;
        }
    }
    let run_s = start.elapsed().as_secs_f64();
    let span = tracer.as_deref_mut().map(|tr| tr.begin("net.report", None));
    let report = cluster.report();
    if let (Some(tr), Some(id)) = (tracer, span) {
        tr.end(id);
    }
    Ok(ClusterRun {
        run_s,
        rounds_ms,
        rounds,
        virtual_ms: cluster.now_ns() as f64 / 1e6,
        report,
    })
}
