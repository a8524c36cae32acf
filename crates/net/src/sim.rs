//! The deterministic simulated-time transport.
//!
//! A [`SimCluster`] runs every node in one thread under a virtual clock:
//! a binary heap of `(virtual_ns, seq)`-ordered events delivers messages
//! and timer ticks in a total order that is a pure function of the
//! configuration and seed. All transport randomness — latency jitter,
//! drop coins, first-tick stagger — comes from the engine's stream
//! machinery addressed by `(seed, sender_round, sender, stage)` with the
//! net stages ([`StreamStage::NetDelay`], [`StreamStage::NetDrop`]), so
//! repeated runs are **byte-identical**: equal digests, equal reports.
//! Its digests are pinned in `tests/golden_trajectories.rs`, and its
//! convergence rates are cross-validated distributionally against the
//! round engine in `tests/cluster_equivalence.rs`.
//!
//! Asynchrony is real despite the determinism: nodes' first ticks are
//! staggered across a round, so local rounds interleave arbitrarily and
//! a reply may carry a display from the replier's previous or next local
//! round — exactly the regime Theorem 5's self-stabilization argument
//! covers, with none of the engine's global barrier.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use np_engine::channel::{Channel, ChannelKind};
use np_engine::digest::Digest;
use np_engine::protocol::{AgentState, Protocol};
use np_engine::streams::{RoundStreams, StreamRng, StreamStage};
use np_linalg::noise::NoiseMatrix;
use rand::Rng;

use crate::cluster::{ClusterConfig, ClusterReport};
use crate::faults::{LinkCondition, NetFault, NetFaultPlan};
use crate::msg::{Envelope, NetMsg, WEAK_NONE};
use crate::node::{Node, NodeAction, NodeEvent, Transport, DRIVER};
use crate::{NetError, Result};

#[derive(Debug, Clone, Copy)]
enum SimEventKind {
    Deliver(Envelope),
    Tick(usize),
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at_ns: u64,
    seq: u64,
    kind: SimEventKind,
}

// Ordering is by (time, insertion sequence) only; the heap is a
// min-heap via `Reverse`-free manual reversal below.
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ns, self.seq) == (other.at_ns, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the std max-heap pops the *earliest* event.
        (other.at_ns, other.seq).cmp(&(self.at_ns, self.seq))
    }
}

#[derive(Debug, Default)]
struct ActionBuf(Vec<NodeAction>);

impl Transport for ActionBuf {
    fn apply(&mut self, action: NodeAction) {
        self.0.push(action);
    }
}

/// A full cluster under simulated time. Construct with
/// [`SimCluster::new`], drive with [`SimCluster::run_until_round`] /
/// [`SimCluster::run_until_correct`], then read [`SimCluster::report`].
#[derive(Debug)]
pub struct SimCluster<A: AgentState> {
    nodes: Vec<Node<A>>,
    heap: BinaryHeap<Scheduled>,
    now_ns: u64,
    seq: u64,
    cfg: ClusterConfig,
    correct_byte: u8,
    opinions: Vec<u8>,
    weaks: Vec<u8>,
    num_correct: usize,
    max_closed_round: u64,
    first_all_correct: Option<u64>,
    messages_total: u64,
    drops_total: u64,
    cond: LinkCondition,
    fault_events: Vec<(u64, NetFault)>,
    next_fault: usize,
    delay_rngs: Vec<StreamRng>,
    drop_rngs: Vec<StreamRng>,
}

impl<A: AgentState> SimCluster<A> {
    /// Builds the cluster: validates config and fault plan, instantiates
    /// one node per population member (roles and initial states drawn
    /// from the same round-0 streams the engine uses), and staggers each
    /// node's first tick uniformly over `cfg.stagger_ns`.
    pub fn new<P: Protocol<Agent = A>>(
        cfg: &ClusterConfig,
        protocol: &P,
        faults: &NetFaultPlan,
    ) -> Result<Self> {
        cfg.validate()?;
        let pop = cfg.population()?;
        let n64 = u64::try_from(cfg.n).unwrap_or(u64::MAX);
        faults.validate(n64)?;
        let noise = NoiseMatrix::uniform(protocol.alphabet_size(), cfg.delta)?;
        let channel = Arc::new(Channel::new(&noise, ChannelKind::Exact));
        let correct_byte = pop.correct_opinion().as_byte();

        let boot = RoundStreams::new(cfg.seed, 0);
        let mut nodes = Vec::with_capacity(cfg.n);
        let mut opinions = Vec::with_capacity(cfg.n);
        let mut weaks = Vec::with_capacity(cfg.n);
        let mut delay_rngs = Vec::with_capacity(cfg.n);
        let mut drop_rngs = Vec::with_capacity(cfg.n);
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        for i in 0..cfg.n {
            let agent = protocol.init_agent(pop.role_of(i), &mut boot.rng(i, StreamStage::Init));
            opinions.push(agent.opinion().as_byte());
            weaks.push(agent.weak_opinion().map_or(WEAK_NONE, |w| w.as_byte()));
            let id = u64::try_from(i).unwrap_or(u64::MAX);
            nodes.push(Node::new(
                id,
                n64,
                cfg.h,
                cfg.seed,
                cfg.tick_ns,
                agent,
                Arc::clone(&channel),
            ));
            let mut delay = boot.rng(i, StreamStage::NetDelay);
            let offset = if cfg.stagger_ns > 0 {
                delay.gen_range(0..=cfg.stagger_ns)
            } else {
                0
            };
            heap.push(Scheduled {
                at_ns: offset,
                seq,
                kind: SimEventKind::Tick(i),
            });
            seq += 1;
            delay_rngs.push(delay);
            drop_rngs.push(boot.rng(i, StreamStage::NetDrop));
        }
        let num_correct = opinions.iter().filter(|&&o| o == correct_byte).count();
        Ok(SimCluster {
            nodes,
            heap,
            now_ns: 0,
            seq,
            cfg: *cfg,
            correct_byte,
            opinions,
            weaks,
            num_correct,
            max_closed_round: 0,
            first_all_correct: None,
            messages_total: 0,
            drops_total: 0,
            cond: LinkCondition::default(),
            fault_events: faults.sorted_events(),
            next_fault: 0,
            delay_rngs,
            drop_rngs,
        })
    }

    fn schedule(&mut self, at_ns: u64, kind: SimEventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at_ns, seq, kind });
    }

    fn apply_due_faults(&mut self) {
        while self.next_fault < self.fault_events.len()
            && self.fault_events[self.next_fault].0 <= self.now_ns
        {
            let (_, fault) = self.fault_events[self.next_fault];
            self.cond.apply(fault);
            self.next_fault += 1;
        }
    }

    /// Processes the earliest pending event. Returns the node index if
    /// the event was that node's tick, `Ok(None)` for a delivery.
    fn process_one(&mut self) -> Result<Option<usize>> {
        let Some(ev) = self.heap.pop() else {
            return Err(NetError::BadConfig {
                detail: "event heap drained: every node stopped re-arming its timer".into(),
            });
        };
        self.now_ns = ev.at_ns;
        self.apply_due_faults();
        match ev.kind {
            SimEventKind::Deliver(env) => {
                let to = usize::try_from(env.to).unwrap_or(usize::MAX);
                let Some(node) = self.nodes.get_mut(to) else {
                    return Err(NetError::BadConfig {
                        detail: format!("delivery to unknown node {to}"),
                    });
                };
                let mut buf = ActionBuf::default();
                node.handle(NodeEvent::Deliver(env), &mut buf);
                self.route(to, buf);
                Ok(None)
            }
            SimEventKind::Tick(i) => {
                let mut buf = ActionBuf::default();
                self.nodes[i].handle(NodeEvent::Tick, &mut buf);
                // The node just opened a new local round: move its
                // transport streams to the new round coordinate.
                let round = self.nodes[i].local_round();
                let streams = RoundStreams::new(self.cfg.seed, round);
                self.delay_rngs[i] = streams.rng(i, StreamStage::NetDelay);
                self.drop_rngs[i] = streams.rng(i, StreamStage::NetDrop);
                self.route(i, buf);
                Ok(Some(i))
            }
        }
    }

    fn route(&mut self, from: usize, buf: ActionBuf) {
        for action in buf.0 {
            match action {
                NodeAction::SetTick(ns) => {
                    self.schedule(self.now_ns + ns, SimEventKind::Tick(from));
                }
                NodeAction::Send(env) if env.to == DRIVER => self.on_status(env),
                NodeAction::Send(env) => {
                    self.messages_total += 1;
                    if self.cond.severed(env.from, env.to) {
                        self.drops_total += 1;
                        continue;
                    }
                    let rate = (self.cfg.drop_rate + self.cond.extra_drop).min(1.0);
                    if rate > 0.0 && self.drop_rngs[from].gen_bool(rate) {
                        self.drops_total += 1;
                        continue;
                    }
                    let jitter = if self.cfg.jitter_ns > 0 {
                        self.delay_rngs[from].gen_range(0..=self.cfg.jitter_ns)
                    } else {
                        0
                    };
                    let at =
                        self.now_ns + self.cfg.min_latency_ns + jitter + self.cond.extra_delay_ns;
                    self.schedule(at, SimEventKind::Deliver(env));
                }
            }
        }
    }

    fn on_status(&mut self, env: Envelope) {
        let NetMsg::Status {
            round,
            opinion,
            weak,
        } = env.msg
        else {
            return;
        };
        let i = usize::try_from(env.from).unwrap_or(usize::MAX);
        if i >= self.opinions.len() {
            return;
        }
        let was = self.opinions[i] == self.correct_byte;
        self.opinions[i] = opinion;
        self.weaks[i] = weak;
        let is = opinion == self.correct_byte;
        match (was, is) {
            (false, true) => self.num_correct += 1,
            (true, false) => self.num_correct -= 1,
            _ => {}
        }
        self.max_closed_round = self.max_closed_round.max(round);
        if self.num_correct == self.cfg.n && self.first_all_correct.is_none() {
            self.first_all_correct = Some(round);
        }
    }

    /// Runs until every node has *closed* local round `round` (i.e. its
    /// open round exceeds it).
    pub fn run_until_round(&mut self, round: u64) -> Result<()> {
        let mut remaining = self
            .nodes
            .iter()
            .filter(|nd| nd.local_round() <= round)
            .count();
        while remaining > 0 {
            if let Some(i) = self.process_one()? {
                if self.nodes[i].local_round() == round + 1 {
                    remaining -= 1;
                }
            }
        }
        Ok(())
    }

    /// Runs until every node holds the planted opinion, or until every
    /// node has closed `max_round` local rounds. Returns the local round
    /// at which the population became all-correct, `None` on budget
    /// exhaustion.
    pub fn run_until_correct(&mut self, max_round: u64) -> Result<Option<u64>> {
        if self.num_correct == self.cfg.n {
            return Ok(Some(self.max_closed_round));
        }
        let mut remaining = self
            .nodes
            .iter()
            .filter(|nd| nd.local_round() <= max_round)
            .count();
        while remaining > 0 {
            if let Some(i) = self.process_one()? {
                if self.nodes[i].local_round() == max_round + 1 {
                    remaining -= 1;
                }
            }
            if self.num_correct == self.cfg.n {
                return Ok(Some(self.max_closed_round));
            }
        }
        Ok(None)
    }

    /// Whether every node currently holds the planted opinion.
    pub fn all_correct(&self) -> bool {
        self.num_correct == self.cfg.n
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Peer-to-peer messages put on the wire so far.
    pub fn messages_total(&self) -> u64 {
        self.messages_total
    }

    /// The highest local round any node has closed (per Status reports).
    pub fn max_closed_round(&self) -> u64 {
        self.max_closed_round
    }

    /// FNV-1a digest of the entire observable cluster state: per-node
    /// rounds, opinions, weak opinions and message counters, plus the
    /// virtual clock and transport totals. Two runs with equal configs
    /// and seeds produce equal digests — the CI determinism gate.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.update_u64(self.now_ns);
        d.update_u64(self.messages_total);
        d.update_u64(self.drops_total);
        for (i, node) in self.nodes.iter().enumerate() {
            d.update_u64(node.local_round());
            d.update(&[self.opinions[i], self.weaks[i]]);
            let st = node.stats();
            d.update_u64(st.rounds_skipped);
            d.update_u64(st.stale_replies);
            d.update_u64(st.replies_counted);
        }
        d.value()
    }

    /// Assembles the run report.
    pub fn report(&self) -> ClusterReport {
        let (stale_total, skipped_total) = self.nodes.iter().fold((0, 0), |(st, sk), nd| {
            let s = nd.stats();
            (st + s.stale_replies, sk + s.rounds_skipped)
        });
        let weak_formed = self.weaks.iter().filter(|&&w| w != WEAK_NONE).count();
        let weak_correct = self
            .weaks
            .iter()
            .filter(|&&w| w == self.correct_byte)
            .count();
        ClusterReport {
            n: self.cfg.n,
            h: self.cfg.h,
            seed: self.cfg.seed,
            rounds: self.max_closed_round,
            converged: self.all_correct(),
            convergence_round: self.first_all_correct,
            elapsed_ms: self.now_ns as f64 / 1e6,
            messages_total: self.messages_total,
            drops_total: self.drops_total,
            stale_total,
            skipped_total,
            final_correct: self.num_correct,
            weak_formed,
            weak_correct,
            digest: self.digest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_pull::params::SsfParams;
    use noisy_pull::ssf::{SelfStabilizingSourceFilter, SsfAgent};
    use np_engine::population::PopulationConfig;

    fn ssf_cluster(n: usize, seed: u64, faults: &NetFaultPlan) -> (SimCluster<SsfAgent>, u64) {
        let cfg = ClusterConfig::new(n, 0, 1, 8, 0.05, seed);
        let pop = PopulationConfig::new(n, 0, 1, 8).expect("population");
        let params = SsfParams::derive(&pop, 0.05, 1.0).expect("params");
        let interval = params.update_interval();
        let proto = SelfStabilizingSourceFilter::new(params);
        let cluster = SimCluster::new(&cfg, &proto, faults).expect("cluster");
        (cluster, interval)
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let none = NetFaultPlan::new();
        let (mut a, _) = ssf_cluster(32, 11, &none);
        let (mut b, _) = ssf_cluster(32, 11, &none);
        a.run_until_round(40).expect("run a");
        b.run_until_round(40).expect("run b");
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn different_seeds_diverge() {
        let none = NetFaultPlan::new();
        let (mut a, _) = ssf_cluster(32, 11, &none);
        let (mut b, _) = ssf_cluster(32, 12, &none);
        a.run_until_round(40).expect("run a");
        b.run_until_round(40).expect("run b");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn ssf_converges_under_simulated_asynchrony() {
        let none = NetFaultPlan::new();
        let (mut cluster, interval) = ssf_cluster(64, 3, &none);
        let budget = interval * 40;
        let round = cluster.run_until_correct(budget).expect("run");
        assert!(
            round.is_some(),
            "SSF failed to converge within {budget} local rounds"
        );
        let report = cluster.report();
        assert!(report.converged);
        assert!(report.messages_total > 0);
    }

    #[test]
    fn drops_are_counted_under_a_drop_fault() {
        let faults = NetFaultPlan::new().at_ns(0, NetFault::Drop { rate: 0.5 });
        let (mut cluster, _) = ssf_cluster(16, 5, &faults);
        cluster.run_until_round(10).expect("run");
        let report = cluster.report();
        assert!(report.drops_total > 0, "expected dropped messages");
        // Dropped requests starve some rounds entirely only at extreme
        // rates; at 0.5 we still expect most replies to arrive.
        assert!(report.messages_total > report.drops_total);
    }

    #[test]
    fn partition_severs_cross_cut_traffic_only() {
        let faults = NetFaultPlan::new().at_ns(0, NetFault::Partition { split: 8 });
        let (mut cluster, _) = ssf_cluster(16, 9, &faults);
        cluster.run_until_round(10).expect("run");
        let report = cluster.report();
        assert!(report.drops_total > 0, "cross-cut messages must be dropped");
        assert!(
            report.messages_total > report.drops_total,
            "intra-group messages must still flow"
        );
    }

    #[test]
    fn event_heap_never_drains_mid_run() {
        let none = NetFaultPlan::new();
        let (mut cluster, _) = ssf_cluster(8, 1, &none);
        assert!(cluster.run_until_round(5).is_ok());
        assert!(cluster.now_ns() > 0);
    }
}
