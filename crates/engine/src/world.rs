//! The round loop: wires a protocol, a population, and a noisy channel
//! together and runs the system to consensus.
//!
//! # Execution model
//!
//! The world holds a [`ColumnarState`] — one struct-of-arrays state for the
//! whole population — and runs each round in two chunked passes over
//! word-aligned agent chunks ([`crate::packed::chunk_len_for`]):
//!
//! 1. **display**: each chunk writes its agents' symbols into its slice
//!    of the packed bit-plane display store ([`crate::packed`]) and
//!    tallies a partial display histogram from plane popcounts;
//! 2. **observe + update (fused)**: the summed histogram seeds the
//!    channel's round context, then each chunk samples its agents'
//!    observations and applies their updates in the same pass — no
//!    global observation matrix round-trip between phases.
//!
//! Chunks are fanned out over scoped worker threads with
//! [`crate::runner::scatter`]; every piece of randomness comes from a
//! per-agent stream addressed by `(seed, round, agent, stage)`
//! ([`crate::streams`]), so the trajectory is **bit-identical for any
//! thread count and any chunk size**. `NOISY_PULL_THREADS` (or
//! [`World::set_threads`]) only changes wall-clock time, never results.
//!
//! The exact channel ([`ChannelKind::Exact`]) samples literal displays,
//! so before its fused pass the packed planes are unpacked once into a
//! scalar display vector — the seam that keeps the literal path (and its
//! distribution-equivalence tests) byte-identical to before.

// Snapshot fields are encoded here: no silent truncation.
#![deny(clippy::cast_possible_truncation)]

use crate::streams::StreamRng;
use np_linalg::noise::NoiseMatrix;
use rand::Rng;

use crate::channel::{Channel, ChannelKind, SamplingMode};
use crate::digest::Digest;
use crate::faults::{FaultEvent, FaultPlan, ScheduledFault};
use crate::metrics::{
    OpinionSeries, RoundMetrics, RunObserver, StageClock, StageTimings, TraceRecorder,
};
use crate::opinion::Opinion;
use crate::packed::{self, PackedDisplays};
use crate::population::PopulationConfig;
use crate::protocol::{AgentRecords, ColumnarProtocol, ColumnarState};
use crate::run::Run;
use crate::runner;
use crate::snapshot::{SnapReader, SnapWriter, SnapshotState, SNAP_MAGIC, SNAP_MAGIC_V2};
use crate::streams::{RoundStreams, StreamStage};
use crate::topology::{Topology, TopologySpec};
use crate::{EngineError, Result};

/// A noise ramp in flight: the channel is rebuilt each round at the
/// linearly interpolated uniform level until `over` rounds have passed.
#[derive(Debug, Clone, Copy)]
struct ActiveRamp {
    from: f64,
    to: f64,
    over: u64,
    start: u64,
}

/// A running instance of the noisy PULL model: one population, one
/// protocol state, one noise matrix, one master seed.
///
/// Construction is deterministic given the seed: two worlds built with the
/// same arguments produce identical executions, regardless of the thread
/// count either one uses.
///
/// Whenever the state offers per-agent access ([`AgentRecords`] — every
/// protocol state in the workspace does), the extra methods
/// [`World::agent`], [`World::iter_agents`] and [`World::corrupt_agents`]
/// read and corrupt agents as their per-agent records.
///
/// # Example
///
/// See the crate-level example in [`crate`].
pub struct World<P: ColumnarProtocol> {
    config: PopulationConfig,
    channel: Channel,
    /// The interaction graph agents sample over. Defaults to the complete
    /// graph (the paper's model), in which case the round loop takes the
    /// unrestricted hot path and this field costs nothing.
    topology: Topology,
    state: P::State,
    /// Bit-plane packed display store — the round loop's working layout.
    /// Display histograms come from its plane popcounts.
    packed: PackedDisplays,
    /// Scalar display seam: refreshed from `packed` only when the exact
    /// channel (which samples literal displays) needs it. Never
    /// serialized; stale between exact rounds.
    displays: Vec<usize>,
    observations: Vec<u64>,
    seed: u64,
    threads: usize,
    round: u64,
    series: Option<OpinionSeries>,
    trace: Option<TraceRecorder>,
    observer: Option<Box<dyn RunObserver>>,
    /// The opinion currently counted as correct. Starts as the
    /// configuration's majority preference and flips with
    /// [`FaultEvent::FlipSources`] (the environment's trend change).
    correct_opinion: Opinion,
    /// Scheduled fault events, sorted by round; `next_fault` indexes the
    /// first not-yet-applied one.
    faults: Vec<ScheduledFault<P::State>>,
    next_fault: usize,
    ramp: Option<ActiveRamp>,
    /// Per-agent sleep horizon: agent `id` skips its update in every
    /// round `r < asleep_until[id]`. Empty until a sleep event fires.
    asleep_until: Vec<u64>,
}

impl<P: ColumnarProtocol> World<P> {
    /// Builds a world: initializes one agent per role in the canonical
    /// layout of [`PopulationConfig::role_of`], each from its own
    /// [`StreamStage::Init`] stream.
    ///
    /// The worker-thread count defaults to
    /// [`runner::suggested_threads`]`()`; override with
    /// [`World::set_threads`]. Results never depend on it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::AlphabetMismatch`] if the protocol's alphabet
    /// size differs from the noise matrix's.
    pub fn new(
        protocol: &P,
        config: PopulationConfig,
        noise: &NoiseMatrix,
        kind: ChannelKind,
        seed: u64,
    ) -> Result<Self> {
        if protocol.alphabet_size() != noise.dim() {
            return Err(EngineError::AlphabetMismatch {
                protocol: protocol.alphabet_size(),
                noise: noise.dim(),
            });
        }
        World::with_channel(protocol, config, Channel::new(noise, kind), seed)
    }

    /// Builds a world around a pre-configured [`Channel`] (e.g. one using
    /// [`crate::channel::SamplingMode::WithoutReplacement`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::AlphabetMismatch`] if the protocol's alphabet
    /// size differs from the channel's.
    pub fn with_channel(
        protocol: &P,
        config: PopulationConfig,
        channel: Channel,
        seed: u64,
    ) -> Result<Self> {
        if protocol.alphabet_size() != channel.alphabet_size() {
            return Err(EngineError::AlphabetMismatch {
                protocol: protocol.alphabet_size(),
                noise: channel.alphabet_size(),
            });
        }
        crate::invariants::check_population(&config);
        let state = protocol.init_state(&config, &RoundStreams::new(seed, 0));
        let n = config.n();
        let d = channel.alphabet_size();
        let correct_opinion = config.correct_opinion();
        // A complete topology materializes no neighbor lists and only
        // rejects the empty population, which the config already forbids.
        #[expect(
            clippy::expect_used,
            reason = "infallible by construction: Complete over n >= 1 cannot fail"
        )]
        let topology = Topology::build(TopologySpec::Complete, n, seed)
            .expect("complete topology over a nonempty population cannot fail");
        Ok(World {
            config,
            channel,
            topology,
            state,
            packed: PackedDisplays::new(n, d),
            displays: vec![0; n],
            observations: vec![0; n * d],
            seed,
            threads: runner::suggested_threads(),
            round: 0,
            series: None,
            trace: None,
            observer: None,
            correct_opinion,
            faults: Vec::new(),
            next_fault: 0,
            ramp: None,
            asleep_until: Vec::new(),
        })
    }

    /// The population configuration.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// The master seed this world was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker-thread count used for intra-round chunk parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    /// A pure performance knob: the trajectory is identical for every
    /// value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The interaction graph agents sample over (the complete graph by
    /// default).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Restricts sampling to a graph topology, regenerating the neighbor
    /// lists deterministically from the master seed. A world on the
    /// complete graph ([`TopologySpec::Complete`]) is byte-identical to one
    /// that never called this method.
    ///
    /// Must be called before the first round: a trajectory is a pure
    /// function of `(protocol, config, channel, topology, seed)`, and
    /// swapping the graph mid-run would silently invalidate every
    /// recorded metric.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadTopology`] if rounds have already run, if
    /// the spec cannot be realized over this population (see
    /// [`Topology::build`]), or if the channel samples without replacement
    /// and `h` exceeds the graph's minimum degree (some agent would have
    /// too few distinct neighbors to draw).
    pub fn set_topology(&mut self, spec: TopologySpec) -> Result<()> {
        if self.round != 0 {
            return Err(EngineError::BadTopology {
                detail: format!(
                    "topology must be chosen before the first round (world is at round {})",
                    self.round
                ),
            });
        }
        let topology = Topology::build(spec, self.config.n(), self.seed)?;
        if self.channel.sampling_mode() == SamplingMode::WithoutReplacement
            && !topology.is_complete()
            && self.config.h() > topology.min_degree()
        {
            return Err(EngineError::BadTopology {
                detail: format!(
                    "cannot draw h = {} distinct neighbors without replacement on {}: \
                     minimum degree is {}",
                    self.config.h(),
                    spec.label(),
                    topology.min_degree()
                ),
            });
        }
        self.topology = topology;
        Ok(())
    }

    /// Read access to the whole-population protocol state.
    pub fn state(&self) -> &P::State {
        &self.state
    }

    /// Mutable access to the whole-population protocol state (columnar
    /// adversary hooks go through here).
    pub fn state_mut(&mut self) -> &mut P::State {
        &mut self.state
    }

    /// The current opinion vector, in agent-id order.
    pub fn opinions(&self) -> Vec<Opinion> {
        (0..self.state.len())
            .map(|id| self.state.opinion(id))
            .collect()
    }

    /// FNV-1a over the round count (little-endian) and the opinion
    /// vector: a cheap fingerprint of the trajectory endpoint. Per-agent
    /// streams make it thread-count-invariant, so one pinned value per
    /// seed covers every thread count.
    pub fn outcome_digest(&self) -> u64 {
        let mut digest = Digest::new();
        digest.update_u64(self.round);
        for id in 0..self.state.len() {
            digest.update(&[self.state.opinion(id).as_byte()]);
        }
        digest.value()
    }

    /// Enables per-round recording of opinion counts (see
    /// [`World::series`]).
    pub fn record_series(&mut self) {
        if self.series.is_none() {
            self.series = Some(OpinionSeries::new(self.config.n()));
        }
    }

    /// The recorded opinion series, if [`World::record_series`] was called.
    pub fn series(&self) -> Option<&OpinionSeries> {
        self.series.as_ref()
    }

    /// The recorded trace with its stage timings, if [`Run::record_trace`]
    /// was called.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref()
    }

    /// Removes and returns the recorded trace, disabling further
    /// recording (callers that want to keep tracing call
    /// [`Run::record_trace`] again).
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        self.trace.take()
    }

    /// Attaches a custom [`RunObserver`] that receives every round's
    /// metrics and timings. Replaces any previous observer; independent of
    /// the built-in trace (both may be active, and both receive identical
    /// snapshots).
    pub fn set_observer(&mut self, observer: Box<dyn RunObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches the custom observer, returning it.
    pub fn take_observer(&mut self) -> Option<Box<dyn RunObserver>> {
        self.observer.take()
    }

    /// Attaches a mid-run fault-injection schedule ([`crate::faults`]).
    /// Replaces any previously scheduled events; effects already applied
    /// (a ramp in flight, sleeping agents, a flipped trend) persist.
    ///
    /// Events fire just before their round executes and draw all
    /// randomness from the per-agent fault streams, so faulted
    /// trajectories remain byte-identical across thread counts.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadFaultPlan`] if any event is scheduled at
    /// or before the current round, or has out-of-range parameters (see
    /// [`FaultPlan::validate`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan<P::State>) -> Result<()> {
        plan.validate(self.round, self.channel.alphabet_size())?;
        self.faults = plan.into_events();
        self.next_fault = 0;
        Ok(())
    }

    /// Returns `true` if a nonempty fault plan is attached.
    pub fn has_fault_plan(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Number of fault-plan events that have already fired — the fault
    /// cursor persisted by [`World::snapshot`].
    pub fn fault_cursor(&self) -> usize {
        self.next_fault
    }

    /// Re-attaches a fault plan to a restored world *without* resetting
    /// the fault cursor. Corruption closures are code
    /// (`Arc<dyn StateFault>`), not data, so snapshots persist only the
    /// cursor; after [`World::restore`] the caller supplies the same plan
    /// again and the world continues from the first pending event.
    ///
    /// Fault randomness is addressed by the event's *position in the
    /// plan* ([`crate::streams::StreamStage::Fault`]), which re-attaching
    /// the full plan preserves — so a restored faulted run stays
    /// byte-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadFaultPlan`] if the plan has fewer events
    /// than have already fired, or if any *pending* event is invalid
    /// (scheduled at or before the current round, out-of-range
    /// parameters — see [`FaultPlan::validate_from`]).
    pub fn reattach_fault_plan(&mut self, plan: FaultPlan<P::State>) -> Result<()> {
        if plan.len() < self.next_fault {
            return Err(EngineError::BadFaultPlan {
                detail: format!(
                    "plan has {} events but the restored world has already fired {}",
                    plan.len(),
                    self.next_fault
                ),
            });
        }
        plan.validate_from(self.next_fault, self.round, self.channel.alphabet_size())?;
        self.faults = plan.into_events();
        Ok(())
    }

    /// The opinion currently counted as correct — the configuration's
    /// majority preference, unless a [`FaultEvent::FlipSources`] event
    /// flipped the trend.
    pub fn correct_opinion(&self) -> Opinion {
        self.correct_opinion
    }

    /// Applies every event scheduled for the round about to execute,
    /// returning their trace labels. Label counts (agents hit, agents
    /// slept) are deterministic: they derive from the fault streams.
    fn apply_due_faults(&mut self, streams: &RoundStreams) -> Vec<String> {
        let cur = self.round + 1;
        let mut labels = Vec::new();
        while self
            .faults
            .get(self.next_fault)
            .is_some_and(|f| f.round == cur)
        {
            let idx = self.next_fault;
            let event = self.faults[idx].event.clone();
            self.next_fault += 1;
            // Stream index = position in the plan: distinct events are
            // independent even when they share an injection round.
            let stage = StreamStage::Fault(u32::try_from(idx).unwrap_or(u32::MAX));
            match event {
                FaultEvent::Corrupt { frac, label, fault } => {
                    let mut hit = 0usize;
                    for id in 0..self.state.len() {
                        let mut rng = streams.rng(id, stage);
                        // The selection coin is always drawn, so an
                        // agent's corruption never depends on the others.
                        if rng.gen::<f64>() < frac {
                            fault.apply(&mut self.state, id, &mut rng);
                            hit += 1;
                        }
                    }
                    labels.push(format!("{label}:{hit}"));
                }
                FaultEvent::FlipSources => {
                    let flipped = self.state.flip_source_preferences();
                    if flipped > 0 {
                        self.correct_opinion = !self.correct_opinion;
                    }
                    labels.push(format!("flip-sources:{flipped}"));
                }
                FaultEvent::SetNoise { noise } => {
                    self.ramp = None;
                    self.channel = Channel::with_sampling(
                        &noise,
                        self.channel.kind(),
                        self.channel.sampling_mode(),
                    );
                    labels.push(match noise.uniform_level() {
                        Some(level) => format!("set-noise:{level}"),
                        None => "set-noise".to_string(),
                    });
                }
                FaultEvent::RampNoise { from, to, over } => {
                    self.ramp = Some(ActiveRamp {
                        from,
                        to,
                        over,
                        start: cur,
                    });
                    labels.push(format!("ramp-noise:{from}->{to}/{over}"));
                }
                FaultEvent::Sleep { frac, rounds } => {
                    if self.asleep_until.len() != self.state.len() {
                        self.asleep_until = vec![0; self.state.len()];
                    }
                    let mut slept = 0usize;
                    for (id, until) in self.asleep_until.iter_mut().enumerate() {
                        let mut rng = streams.rng(id, stage);
                        if rng.gen::<f64>() < frac {
                            *until = (*until).max(cur + rounds);
                            slept += 1;
                        }
                    }
                    labels.push(format!("sleep:{slept}/{rounds}r"));
                }
            }
        }
        labels
    }

    /// Rebuilds the channel at the interpolated uniform noise level while
    /// a [`FaultEvent::RampNoise`] is in flight. Runs after
    /// [`World::apply_due_faults`], so the injection round executes at
    /// the ramp's `from` level.
    fn advance_ramp(&mut self) {
        let Some(ramp) = self.ramp else { return };
        let cur = self.round + 1;
        let t = cur.saturating_sub(ramp.start).min(ramp.over);
        let level = ramp.from + (ramp.to - ramp.from) * (t as f64 / ramp.over as f64);
        // Endpoints were validated when the plan was attached, and the
        // lerp stays between them, so construction cannot fail.
        if let Ok(noise) = NoiseMatrix::uniform(self.channel.alphabet_size(), level) {
            self.channel =
                Channel::with_sampling(&noise, self.channel.kind(), self.channel.sampling_mode());
        }
        if t >= ramp.over {
            self.ramp = None;
        }
    }

    /// Executes one synchronous round: display → sample+noise → update.
    ///
    /// The round runs as two chunked passes (displays into bit planes with
    /// partial popcount histograms, then a fused observe+update scatter)
    /// over [`World::threads`] scoped workers; the per-chunk invariant
    /// checks name global agent ids, and a panic in any worker is
    /// re-raised on the caller with its original message.
    ///
    /// The chunk dispatch itself must not be able to panic: it zips chunk
    /// iterators, so an out-of-range access is unrepresentable rather
    /// than a worker-thread abort.
    #[deny(clippy::indexing_slicing, clippy::panic, clippy::unreachable)]
    pub fn step(&mut self) {
        let n = self.config.n();
        let h = self.config.h();
        let streams = RoundStreams::new(self.seed, self.round);
        let threads = self.threads.clamp(1, n);
        let chunk = packed::chunk_len_for(n, threads);

        // Mid-run faults: events scheduled for the round about to execute
        // are applied first (from the per-agent fault streams), then an
        // in-flight noise ramp moves the channel one lerp step. `d` is
        // read after, since SetNoise/RampNoise rebuild the channel.
        let fault_labels = self.apply_due_faults(&streams);
        self.advance_ramp();
        let d = self.channel.alphabet_size();

        // Observability is pay-for-what-you-use: with no trace and no
        // observer attached there are no clock reads and no metrics sweep.
        let observing = self.trace.is_some() || self.observer.is_some();
        let mut clock = if observing {
            Some(StageClock::start())
        } else {
            None
        };
        let mut timings = StageTimings::default();

        // Pass 1: displays into bit planes, one partial popcount histogram
        // per chunk. Summing the partials afterwards gives the exact
        // display histogram without ever materializing scalar symbols.
        let mut disp_counts = vec![0u64; d];
        {
            let state = &self.state;
            let chunks = self.packed.chunks_mut(chunk);
            let mut hists = vec![0u64; chunks.len() * d];
            let jobs: Vec<_> = chunks.into_iter().zip(hists.chunks_mut(d)).collect();
            runner::scatter(threads, jobs, |(mut plane_chunk, hist)| {
                let start = plane_chunk.start();
                let len = plane_chunk.len();
                state.display_chunk_packed(start..start + len, &mut plane_chunk, &streams);
                plane_chunk.histogram_into(hist);
            });
            for partial in hists.chunks(d) {
                for (total, part) in disp_counts.iter_mut().zip(partial) {
                    *total += part;
                }
            }
        }
        // The exact channel samples literal displays, and a
        // graph-restricted round tallies per-neighborhood display
        // histograms, so both pay for unpacking the planes back into the
        // scalar seam vector. The complete-graph aggregated path never
        // does.
        if self.channel.kind() == ChannelKind::Exact || !self.topology.is_complete() {
            self.packed.unpack_into(&mut self.displays);
        }
        if let Some(clock) = clock.as_mut() {
            timings.display = clock.lap();
        }

        // Fused pass 2: noisy observations and updates in one scatter.
        // Each chunk samples its agents' observation counts from their own
        // Observe streams and immediately applies their updates — the
        // observation slice never crosses a thread barrier. Sleeping
        // agents (fault subsystem) are masked out; the mask is `None` on
        // the fault-free fast path.
        {
            let channel = &self.channel;
            let displays = &self.displays;
            let topology = &self.topology;
            let cur = self.round + 1;
            let awake: Option<Vec<bool>> = if self.asleep_until.iter().any(|&until| cur < until) {
                Some(
                    self.asleep_until
                        .iter()
                        .map(|&until| cur >= until)
                        .collect(),
                )
            } else {
                None
            };
            // Pair every state chunk with its observation (and mask)
            // chunk up front: the worker closure receives pre-sliced
            // views and never indexes, so out-of-range access is
            // unrepresentable in the hot loop (`indexing_slicing` is
            // denied on this function).
            let mut mask_chunks = awake.as_deref().map(|mask| mask.chunks(chunk));
            let jobs: Vec<_> = self
                .state
                .chunks_mut(chunk)
                .into_iter()
                .zip(self.observations.chunks_mut((chunk * d).max(1)))
                .enumerate()
                .map(|(i, (view, obs))| {
                    let mask = mask_chunks.as_mut().and_then(Iterator::next);
                    (i * chunk, view, obs, mask)
                })
                .collect();
            if topology.is_complete() {
                // Preconditions (non-empty population, h ≤ n checked at
                // construction) hold here, so take the trusted hot path.
                let ctx = channel.begin_round_from_counts_trusted(disp_counts, h);
                runner::scatter(threads, jobs, |(start, mut view, obs, mask)| {
                    let agents = obs.len() / d.max(1);
                    let range = start..start + agents;
                    channel.fill_observations_chunk(
                        &ctx,
                        displays,
                        h,
                        range.clone(),
                        &streams,
                        obs,
                    );
                    crate::invariants::check_observation_chunk(start, obs, d, h as u64);
                    <P::State as ColumnarState>::step_chunk(
                        &mut view, range, obs, d, &streams, mask,
                    );
                });
            } else {
                // Graph-restricted round: every agent's observation law is
                // local to its neighborhood, so there is no shared round
                // context — the channel collapses per-agent laws on the fly.
                runner::scatter(threads, jobs, |(start, mut view, obs, mask)| {
                    let agents = obs.len() / d.max(1);
                    let range = start..start + agents;
                    channel.fill_observations_topo_chunk(
                        displays,
                        topology,
                        h,
                        range.clone(),
                        &streams,
                        obs,
                    );
                    crate::invariants::check_observation_chunk(start, obs, d, h as u64);
                    <P::State as ColumnarState>::step_chunk(
                        &mut view, range, obs, d, &streams, mask,
                    );
                });
            }
        }

        // The fused pass is timed as `observe`; `update` stays zero under
        // the packed hot path (see `StageTimings`).
        if let Some(clock) = clock.as_mut() {
            timings.observe = clock.lap();
        }

        self.round += 1;
        if let Some(series) = self.series.as_mut() {
            series.push(self.state.count_opinion(Opinion::One));
        }
        if observing {
            let metrics = self.collect_round_metrics(fault_labels);
            if let Some(clock) = clock.as_mut() {
                timings.collect = clock.lap();
            }
            if let Some(trace) = self.trace.as_mut() {
                trace.on_round(&metrics, &timings);
            }
            if let Some(observer) = self.observer.as_mut() {
                observer.on_round(&metrics, &timings);
            }
        }
    }

    /// One O(n) sweep over the population collecting the round snapshot:
    /// correct count, stage occupancy, and weak-opinion accuracy. The
    /// sweep itself is the state's [`ColumnarState::metrics_sweep`] —
    /// struct-of-arrays states override it with fused lane passes; the
    /// values are identical to the default per-agent walk by contract.
    fn collect_round_metrics(&self, faults: Vec<String>) -> RoundMetrics {
        let sweep = self.state.metrics_sweep(self.correct_opinion);
        RoundMetrics {
            round: self.round,
            n: self.state.len(),
            correct: sweep.correct,
            stages: sweep.stages,
            weak_formed: sweep.weak_formed,
            weak_correct: sweep.weak_correct,
            faults,
        }
    }

    /// Number of agents currently holding the correct opinion (see
    /// [`World::correct_opinion`]).
    pub fn correct_count(&self) -> usize {
        self.state.count_opinion(self.correct_opinion)
    }
}

impl<P: ColumnarProtocol> Run for World<P> {
    fn step(&mut self) {
        World::step(self);
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn correct_count(&self) -> usize {
        World::correct_count(self)
    }

    fn n(&self) -> usize {
        self.config.n()
    }

    /// Each traced round also adds its [`StageTimings`] to
    /// [`World::trace`]. The metrics are a pure function of the
    /// trajectory, so traces are identical for every thread count. When
    /// neither this nor [`World::set_observer`] is active, `step` does no
    /// extra work and reads no clock.
    fn record_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(TraceRecorder::new());
        }
    }

    fn traced_rounds(&self) -> &[RoundMetrics] {
        self.trace.as_ref().map_or(&[], TraceRecorder::rounds)
    }
}

/// Mid-run persistence: available when the protocol's state implements
/// [`SnapshotState`]. See [`crate::snapshot`] for the format and the
/// byte-identical-continuation contract.
impl<P: ColumnarProtocol> World<P>
where
    P::State: SnapshotState,
{
    /// Serializes the world's full trajectory-relevant state as an
    /// `np-snap/v1` byte buffer — or `np-snap/v2` when a non-complete
    /// [`Topology`] is active, which adds exactly one section (the
    /// topology spec, right after the sampling-mode byte; neighbor lists
    /// are regenerated from the seed on restore, never serialized).
    /// Complete-graph worlds emit v1 bytes identical to before the
    /// topology subsystem existed.
    ///
    /// Captured: the round counter, population configuration, seed,
    /// channel (kind, sampling mode, exact noise rows), the current
    /// correct opinion, the fault cursor and in-flight fault effects
    /// (active ramp, sleep horizons), the recorded series/trace (metrics
    /// only — never wall-clock timings), and the whole protocol state.
    /// Not captured: the thread count (pure perf knob), any custom
    /// observer (code, not data), and pending fault *events* (also code —
    /// see [`World::reattach_fault_plan`]).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_str(if self.topology.is_complete() {
            SNAP_MAGIC
        } else {
            SNAP_MAGIC_V2
        });
        w.put_str(<P::State as SnapshotState>::SNAP_TAG);
        w.put_usize(self.config.n());
        w.put_usize(self.config.s0());
        w.put_usize(self.config.s1());
        w.put_usize(self.config.h());
        w.put_u64(self.seed);
        w.put_u64(self.round);
        w.put_opinion(self.correct_opinion);
        w.put_u8(match self.channel.kind() {
            ChannelKind::Exact => 0,
            ChannelKind::Aggregated => 1,
        });
        w.put_u8(match self.channel.sampling_mode() {
            SamplingMode::WithReplacement => 0,
            SamplingMode::WithoutReplacement => 1,
        });
        // The v2 topology section. A complete topology writes nothing —
        // that omission is what keeps complete-graph snapshots v1.
        match self.topology.spec() {
            TopologySpec::Complete => {}
            TopologySpec::Ring { k } => {
                w.put_u8(1);
                w.put_usize(k);
            }
            TopologySpec::RandomRegular { d } => {
                w.put_u8(2);
                w.put_usize(d);
            }
            TopologySpec::PowerLaw { alpha } => {
                w.put_u8(3);
                w.put_f64(alpha);
            }
        }
        let rows = self.channel.noise_rows();
        w.put_usize(rows.len());
        for row in rows {
            for &p in row {
                w.put_f64(p);
            }
        }
        w.put_usize(self.next_fault);
        match self.ramp {
            None => w.put_bool(false),
            Some(ramp) => {
                w.put_bool(true);
                w.put_f64(ramp.from);
                w.put_f64(ramp.to);
                w.put_u64(ramp.over);
                w.put_u64(ramp.start);
            }
        }
        w.put_usize(self.asleep_until.len());
        for &until in &self.asleep_until {
            w.put_u64(until);
        }
        match &self.series {
            None => w.put_bool(false),
            Some(series) => {
                w.put_bool(true);
                let ones = series.counts(Opinion::One);
                w.put_usize(ones.len());
                for count in ones {
                    w.put_usize(count);
                }
            }
        }
        match &self.trace {
            None => w.put_bool(false),
            Some(trace) => {
                w.put_bool(true);
                w.put_usize(trace.len());
                for m in trace.rounds() {
                    crate::snapshot::encode_round_metrics(m, &mut w);
                }
            }
        }
        self.state.encode_state(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a world from an `np-snap/v1` or `np-snap/v2` buffer
    /// produced by [`World::snapshot`], ready to continue from the
    /// recorded round. A v2 buffer carries a topology spec; its neighbor
    /// lists are regenerated from the seed.
    ///
    /// The restored world uses [`runner::suggested_threads`]`()` (override
    /// with [`World::set_threads`] — the trajectory never depends on it)
    /// and has no observer attached. If the original run had a fault plan
    /// with pending events, re-attach it with
    /// [`World::reattach_fault_plan`] before stepping.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadSnapshot`] on truncated or malformed
    /// bytes, a magic/state-tag mismatch, or contents inconsistent with
    /// `protocol` (alphabet size, agent count).
    pub fn restore(protocol: &P, bytes: &[u8]) -> Result<Self> {
        let bad = |detail: String| EngineError::BadSnapshot { detail };
        let mut r = SnapReader::new(bytes);
        let magic = r.take_str()?;
        let has_topology_section = if magic == SNAP_MAGIC {
            false
        } else if magic == SNAP_MAGIC_V2 {
            true
        } else {
            return Err(bad(format!(
                "expected magic `{SNAP_MAGIC}` or `{SNAP_MAGIC_V2}`, found `{magic}`"
            )));
        };
        let tag = r.take_str()?;
        let want = <P::State as SnapshotState>::SNAP_TAG;
        if tag != want {
            return Err(bad(format!(
                "state tag mismatch: snapshot holds `{tag}`, protocol expects `{want}`"
            )));
        }
        let n = r.take_usize()?;
        // Every agent record encodes to at least one byte (see
        // `SnapshotAgent`), so a declared population larger than the rest
        // of the input is corrupt. Checking here bounds every allocation
        // sized by n below (topology, sleep horizons, agent records) by
        // the input's length.
        if n > r.remaining() {
            return Err(bad(format!(
                "snapshot declares {n} agents but only {} bytes remain",
                r.remaining()
            )));
        }
        let s0 = r.take_usize()?;
        let s1 = r.take_usize()?;
        let h = r.take_usize()?;
        let config = PopulationConfig::new(n, s0, s1, h)?;
        let seed = r.take_u64()?;
        let round = r.take_u64()?;
        let correct_opinion = r.take_opinion()?;
        let kind = match r.take_u8()? {
            0 => ChannelKind::Exact,
            1 => ChannelKind::Aggregated,
            x => return Err(bad(format!("invalid channel-kind byte {x}"))),
        };
        let mode = match r.take_u8()? {
            0 => SamplingMode::WithReplacement,
            1 => SamplingMode::WithoutReplacement,
            x => return Err(bad(format!("invalid sampling-mode byte {x}"))),
        };
        let topo_spec = if has_topology_section {
            match r.take_u8()? {
                1 => TopologySpec::Ring { k: r.take_usize()? },
                2 => TopologySpec::RandomRegular { d: r.take_usize()? },
                3 => TopologySpec::PowerLaw {
                    alpha: r.take_f64()?,
                },
                x => return Err(bad(format!("invalid topology tag {x}"))),
            }
        } else {
            TopologySpec::Complete
        };
        // Neighbor lists are a pure function of (spec, n, seed), so the
        // snapshot carries only the spec and we regenerate the graph here.
        let topology = Topology::build(topo_spec, n, seed)
            .map_err(|e| bad(format!("snapshot topology rejected: {e}")))?;
        if mode == SamplingMode::WithoutReplacement
            && !topology.is_complete()
            && h > topology.min_degree()
        {
            return Err(bad(format!(
                "snapshot samples {h} distinct neighbors but the topology's minimum degree is {}",
                topology.min_degree()
            )));
        }
        let d = r.take_usize()?;
        if d != protocol.alphabet_size() {
            return Err(bad(format!(
                "snapshot alphabet has {d} symbols, protocol uses {}",
                protocol.alphabet_size()
            )));
        }
        let mut rows = Vec::with_capacity(d);
        for _ in 0..d {
            let mut row = Vec::with_capacity(d);
            for _ in 0..d {
                row.push(r.take_f64()?);
            }
            rows.push(row);
        }
        let noise = NoiseMatrix::from_rows(rows)
            .map_err(|e| bad(format!("snapshot noise rows rejected: {e}")))?;
        let channel = Channel::with_sampling(&noise, kind, mode);
        let next_fault = r.take_usize()?;
        let ramp = if r.take_bool()? {
            Some(ActiveRamp {
                from: r.take_f64()?,
                to: r.take_f64()?,
                over: r.take_u64()?,
                start: r.take_u64()?,
            })
        } else {
            None
        };
        let asleep_len = r.take_usize()?;
        if asleep_len != 0 && asleep_len != n {
            return Err(bad(format!(
                "sleep horizons cover {asleep_len} agents, population has {n}"
            )));
        }
        let mut asleep_until = Vec::with_capacity(asleep_len);
        for _ in 0..asleep_len {
            asleep_until.push(r.take_u64()?);
        }
        let series = if r.take_bool()? {
            let len = r.take_usize()?;
            let mut series = OpinionSeries::new(config.n());
            for _ in 0..len {
                let ones = r.take_usize()?;
                if ones > n {
                    return Err(bad(format!("series count {ones} exceeds population {n}")));
                }
                series.push(ones);
            }
            Some(series)
        } else {
            None
        };
        let trace = if r.take_bool()? {
            let len = r.take_usize()?;
            let mut trace = TraceRecorder::new();
            for _ in 0..len {
                let m = crate::snapshot::decode_round_metrics(&mut r)?;
                trace.on_round(&m, &StageTimings::default());
            }
            Some(trace)
        } else {
            None
        };
        let state = <P::State as SnapshotState>::decode_state(&mut r)?;
        if state.len() != n {
            return Err(bad(format!(
                "state holds {} agents, configuration says {n}",
                state.len()
            )));
        }
        r.finish()?;
        Ok(World {
            config,
            channel,
            topology,
            state,
            packed: PackedDisplays::new(n, d),
            displays: vec![0; n],
            observations: vec![0; n * d],
            seed,
            threads: runner::suggested_threads(),
            round,
            series,
            trace,
            observer: None,
            correct_opinion,
            faults: Vec::new(),
            next_fault,
            ramp,
            asleep_until,
        })
    }
}

/// Per-agent access, available when the state hands out per-agent records
/// ([`AgentRecords`]): a struct-of-arrays state gathers and scatters them,
/// a [`crate::protocol::ScalarState`] clones and stores them.
impl<P: ColumnarProtocol> World<P>
where
    P::State: AgentRecords,
{
    /// A copy of agent `id`'s record (experiments inspect weak opinions).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn agent(&self, id: usize) -> <P::State as AgentRecords>::Agent {
        self.state.agent(id)
    }

    /// Iterates over copies of all agent records in id order.
    pub fn iter_agents(&self) -> impl Iterator<Item = <P::State as AgentRecords>::Agent> + '_ {
        (0..self.state.len()).map(|id| self.state.agent(id))
    }

    /// Applies an arbitrary mutation to every agent's state *before* the
    /// run starts — the self-stabilization adversary of Section 1.3. The
    /// closure receives the agent id, a mutable reference to its record,
    /// and the agent's [`StreamStage::Corrupt`] stream for the current
    /// round; the mutated record is written back.
    ///
    /// Roles are not passed: the model forbids the adversary from changing
    /// them (it may only corrupt internal state).
    pub fn corrupt_agents<F>(&mut self, mut corrupt: F)
    where
        F: FnMut(usize, &mut <P::State as AgentRecords>::Agent, &mut StreamRng),
    {
        let streams = RoundStreams::new(self.seed, self.round);
        for id in 0..self.state.len() {
            let mut rng = streams.rng(id, StreamStage::Corrupt);
            self.state
                .modify_agent(id, |agent| corrupt(id, agent, &mut rng));
        }
    }
}

impl<P: ColumnarProtocol> std::fmt::Debug for World<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("config", &self.config)
            .field("round", &self.round)
            .field("threads", &self.threads)
            .field("correct_count", &self.correct_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Role;
    use crate::protocol::{AgentState, Protocol, ScalarLayout};
    use rand::Rng;

    /// Copy-the-majority test protocol; sources stubbornly display and hold
    /// their preference.
    struct Majority;
    #[derive(Clone)]
    struct MajorityAgent {
        role: Role,
        opinion: Opinion,
    }

    impl Protocol for Majority {
        type Agent = MajorityAgent;
        fn alphabet_size(&self) -> usize {
            2
        }
        fn init_agent(&self, role: Role, _rng: &mut StreamRng) -> MajorityAgent {
            let opinion = role.preference().unwrap_or(Opinion::Zero);
            MajorityAgent { role, opinion }
        }
    }

    impl ScalarLayout for Majority {}

    impl AgentState for MajorityAgent {
        fn display(&self, _rng: &mut StreamRng) -> usize {
            self.opinion.as_index()
        }
        fn update<R: Rng + ?Sized>(&mut self, observed: &[u64], rng: &mut R) {
            if let Role::Source(p) = self.role {
                self.opinion = p;
                return;
            }
            self.opinion = match observed[1].cmp(&observed[0]) {
                std::cmp::Ordering::Greater => Opinion::One,
                std::cmp::Ordering::Less => Opinion::Zero,
                std::cmp::Ordering::Equal => Opinion::from_bool(rng.gen()),
            };
        }
        fn opinion(&self) -> Opinion {
            self.opinion
        }
        fn flip_source_preference(&mut self) -> bool {
            self.role.flip_preference()
        }
    }

    /// Plain majority dynamics can only amplify an existing display
    /// majority (that inability to spread from few sources is the paper's
    /// whole motivation), so the toy convergence tests seed a *majority* of
    /// stubborn sources.
    fn world(seed: u64) -> World<Majority> {
        let config = PopulationConfig::new(32, 0, 20, 32).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.05).unwrap();
        World::new(&Majority, config, &noise, ChannelKind::Aggregated, seed).unwrap()
    }

    /// A fully-noisy world (δ = ½): observations are fair coins, so
    /// non-source opinions are re-randomized every round.
    fn noisy_world(seed: u64) -> World<Majority> {
        let config = PopulationConfig::new(32, 0, 4, 32).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.5).unwrap();
        World::new(&Majority, config, &noise, ChannelKind::Aggregated, seed).unwrap()
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let config = PopulationConfig::new(8, 0, 1, 1).unwrap();
        let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
        let err = World::new(&Majority, config, &noise, ChannelKind::Exact, 0).unwrap_err();
        assert!(matches!(
            err,
            EngineError::AlphabetMismatch {
                protocol: 2,
                noise: 4
            }
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = world(7);
        let mut b = world(7);
        a.run(20);
        b.run(20);
        assert_eq!(a.correct_count(), b.correct_count());
        assert_eq!(a.opinions(), b.opinions());
    }

    #[test]
    fn trajectory_is_thread_count_invariant() {
        let mut reference = world(13);
        reference.set_threads(1);
        reference.record_series();
        reference.run(15);
        for threads in [2, 3, 7, 32] {
            let mut w = world(13);
            w.set_threads(threads);
            w.record_series();
            w.run(15);
            assert_eq!(w.opinions(), reference.opinions(), "threads = {threads}");
            assert_eq!(
                w.series().unwrap().counts(Opinion::One),
                reference.series().unwrap().counts(Opinion::One),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = noisy_world(1);
        let mut b = noisy_world(2);
        a.run(1);
        b.run(1);
        // Under pure noise each of the 28 non-source opinions is a fair
        // coin, so identical vectors across seeds are (2^-28)-unlikely.
        assert_ne!(a.opinions(), b.opinions());
    }

    #[test]
    fn majority_converges_with_big_h_and_low_noise() {
        let mut w = world(42);
        let outcome = w.run_until_consensus(500);
        assert!(outcome.converged(), "outcome: {outcome:?}");
        assert!(w.is_consensus());
        assert_eq!(w.correct_count(), 32);
    }

    #[test]
    fn series_records_when_enabled() {
        let mut w = world(3);
        assert!(w.series().is_none());
        w.record_series();
        w.run(5);
        let s = w.series().unwrap();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn trace_records_rounds_and_margin() {
        let mut w = world(6);
        assert!(w.trace().is_none());
        w.record_trace();
        w.run(4);
        let trace = w.trace().unwrap();
        assert_eq!(trace.len(), 4);
        for (i, m) in trace.rounds().iter().enumerate() {
            assert_eq!(m.round, i as u64 + 1);
            assert_eq!(m.n, 32);
            // Majority has no phase structure: everyone in default stage 0.
            assert_eq!(m.stages, vec![(0, 32)]);
            assert_eq!(m.weak_formed, 0);
            let occupancy: usize = m.stages.iter().map(|&(_, c)| c).sum();
            assert_eq!(occupancy, 32);
        }
        let last = trace.last().unwrap();
        assert_eq!(last.correct, w.correct_count());
        assert_eq!(last.margin(), w.correct_count() as f64 - 16.0);
        let taken = w.take_trace().unwrap();
        assert_eq!(taken.len(), 4);
        assert!(w.trace().is_none());
    }

    #[test]
    fn trace_metrics_are_thread_count_invariant() {
        let run = |threads: usize| {
            let mut w = world(17);
            w.set_threads(threads);
            w.record_trace();
            w.run(10);
            w.take_trace().unwrap()
        };
        let reference = run(1);
        for threads in [2, 7] {
            let got = run(threads);
            assert_eq!(
                reference.rounds(),
                got.rounds(),
                "trace differs at {threads} threads"
            );
        }
    }

    #[test]
    fn custom_observer_receives_every_round() {
        use std::sync::{Arc, Mutex};
        struct CountRounds(Arc<Mutex<Vec<u64>>>);
        impl crate::metrics::RunObserver for CountRounds {
            fn on_round(
                &mut self,
                metrics: &RoundMetrics,
                _timings: &crate::metrics::StageTimings,
            ) {
                self.0.lock().unwrap().push(metrics.round);
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut w = world(4);
        w.set_observer(Box::new(CountRounds(Arc::clone(&seen))));
        w.run(3);
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
        assert!(w.take_observer().is_some());
        w.run(1);
        assert_eq!(
            seen.lock().unwrap().len(),
            3,
            "detached observer no longer fires"
        );
    }

    #[test]
    fn corrupt_agents_flips_states() {
        let mut w = world(9);
        w.corrupt_agents(|_, agent, _| agent.opinion = Opinion::Zero);
        assert_eq!(w.correct_count(), 0);
        // Sources re-assert their preference on the next update.
        w.step();
        assert!(w.correct_count() >= 4);
    }

    #[test]
    fn corrupt_agents_is_deterministic_per_agent() {
        // The corruption rng is a per-agent stream, so the corrupted state
        // does not depend on iteration side effects or thread settings.
        let snapshot = |w: &mut World<Majority>| {
            w.corrupt_agents(|_, agent, rng| {
                agent.opinion = Opinion::from_bool(rng.gen());
            });
            w.opinions()
        };
        let a = snapshot(&mut world(21));
        let b = snapshot(&mut world(21));
        assert_eq!(a, b);
    }

    #[test]
    fn threads_accessor_round_trips() {
        let mut w = world(2);
        w.set_threads(5);
        assert_eq!(w.threads(), 5);
        w.set_threads(0);
        assert_eq!(w.threads(), 1, "clamped to at least one worker");
        assert_eq!(w.seed(), 2);
    }

    /// A protocol that displays a symbol outside its declared alphabet —
    /// the class of bug `invariants::check_displays_in_alphabet` exists to
    /// catch at the point of violation rather than as a downstream index
    /// panic. Only live when the checks are compiled in (debug builds and
    /// `--features strict-invariants`). The panic is raised inside a chunk
    /// worker and must survive the thread boundary with its message intact.
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    #[test]
    #[should_panic(expected = "outside the 2-symbol alphabet")]
    fn rogue_display_is_caught_by_invariants() {
        struct Rogue;
        struct RogueAgent;
        impl ScalarLayout for Rogue {}
        impl Protocol for Rogue {
            type Agent = RogueAgent;
            fn alphabet_size(&self) -> usize {
                2
            }
            fn init_agent(&self, _role: Role, _rng: &mut StreamRng) -> RogueAgent {
                RogueAgent
            }
        }
        impl AgentState for RogueAgent {
            fn display(&self, _rng: &mut StreamRng) -> usize {
                2
            }
            fn update<R: Rng + ?Sized>(&mut self, _observed: &[u64], _rng: &mut R) {}
            fn opinion(&self) -> Opinion {
                Opinion::Zero
            }
        }
        let config = PopulationConfig::new(4, 0, 1, 4).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut w = World::new(&Rogue, config, &noise, ChannelKind::Aggregated, 0).unwrap();
        w.set_threads(2);
        w.step();
    }

    #[test]
    fn debug_output_mentions_round() {
        let w = world(1);
        assert!(format!("{w:?}").contains("round"));
    }

    // ---- mid-run fault injection -------------------------------------

    use crate::faults::{recovery_times, FaultEvent, FaultPlan};
    use crate::protocol::ScalarState;
    use std::sync::Arc;

    type MajState = ScalarState<MajorityAgent>;

    /// A corruption that forces the wrong opinion onto the selected agent.
    fn zero_out(frac: f64) -> FaultEvent<MajState> {
        FaultEvent::Corrupt {
            frac,
            label: "zero-out".to_string(),
            fault: Arc::new(|state: &mut MajState, id: usize, _rng: &mut StreamRng| {
                state.agents_mut()[id].opinion = Opinion::Zero;
            }),
        }
    }

    #[test]
    fn fault_plan_rejects_rounds_already_executed() {
        let mut w = world(11);
        w.run(3);
        let err = w
            .set_fault_plan(FaultPlan::new().at(3, FaultEvent::FlipSources))
            .unwrap_err();
        assert!(matches!(err, EngineError::BadFaultPlan { .. }), "{err}");
        assert!(!w.has_fault_plan());
        assert!(w
            .set_fault_plan(FaultPlan::new().at(4, FaultEvent::FlipSources))
            .is_ok());
        assert!(w.has_fault_plan());
    }

    #[test]
    fn corrupt_event_fires_at_its_round_and_marks_the_trace() {
        let mut w = world(12);
        w.record_trace();
        w.set_fault_plan(FaultPlan::new().at(5, zero_out(1.0)))
            .unwrap();
        w.run(6);
        let trace = w.take_trace().unwrap();
        let rounds = trace.rounds();
        for m in &rounds[..4] {
            assert!(m.faults.is_empty(), "round {} marked early", m.round);
        }
        // frac = 1.0 selects every agent (the selection coin is < 1.0
        // with probability one), so the label counts all 32.
        assert_eq!(rounds[4].faults, vec!["zero-out:32".to_string()]);
        // All 12 sources re-assert their preference within the faulted
        // round's own update, but the 20 coerced non-sources can only
        // have recovered partially.
        assert!(
            rounds[4].correct < rounds[3].correct,
            "corruption did not dent consensus: {} -> {}",
            rounds[3].correct,
            rounds[4].correct
        );
        assert!(rounds[5].faults.is_empty());
    }

    #[test]
    fn flip_sources_flips_the_trend_and_reconverges() {
        let mut w = world(13);
        assert!(w.run_until_consensus(200).converged());
        assert_eq!(w.correct_opinion(), Opinion::One);
        let flip_round = w.round() + 1;
        w.set_fault_plan(FaultPlan::new().at(flip_round, FaultEvent::FlipSources))
            .unwrap();
        w.step();
        assert_eq!(w.correct_opinion(), Opinion::Zero, "trend flipped");
        assert!(
            !w.is_consensus(),
            "old consensus must now count as incorrect"
        );
        let outcome = w.run_until_consensus(500);
        assert!(outcome.converged(), "never re-converged: {outcome:?}");
        assert_eq!(w.correct_count(), 32);
        assert!(w.iter_agents().all(|a| a.opinion() == Opinion::Zero));
    }

    #[test]
    fn sleeping_agents_freeze_while_the_world_churns() {
        // δ = ½ re-randomizes every awake non-source each round, so a
        // frozen opinion vector proves the updates really were skipped.
        let mut w = noisy_world(14);
        w.run(2);
        w.set_fault_plan(FaultPlan::new().at(
            3,
            FaultEvent::Sleep {
                frac: 1.0,
                rounds: 3,
            },
        ))
        .unwrap();
        let before = w.opinions();
        w.run(3);
        assert_eq!(w.opinions(), before, "asleep agents must not update");
        w.step();
        assert_ne!(w.opinions(), before, "agents woke up frozen");
    }

    #[test]
    fn set_noise_rebuilds_the_channel_mid_run() {
        let mut w = world(15);
        assert!(w.run_until_consensus(200).converged());
        let round = w.round();
        w.set_fault_plan(FaultPlan::new().at(
            round + 1,
            FaultEvent::SetNoise {
                noise: NoiseMatrix::uniform(2, 0.5).unwrap(),
            },
        ))
        .unwrap();
        w.record_trace();
        w.run(4);
        let trace = w.take_trace().unwrap();
        assert_eq!(trace.rounds()[0].faults, vec!["set-noise:0.5".to_string()]);
        // Under fair-coin observations the 20 non-sources cannot all stay
        // correct for 4 consecutive rounds (probability 2^-80).
        assert!(
            trace.rounds().iter().any(|m| m.correct < 32),
            "δ = ½ noise left consensus untouched"
        );
    }

    #[test]
    fn faulted_trajectory_is_thread_count_invariant() {
        let plan = || {
            FaultPlan::new()
                .at(2, zero_out(0.4))
                .at(
                    4,
                    FaultEvent::Sleep {
                        frac: 0.3,
                        rounds: 2,
                    },
                )
                .at(
                    4,
                    FaultEvent::RampNoise {
                        from: 0.05,
                        to: 0.3,
                        over: 3,
                    },
                )
                .at(9, FaultEvent::FlipSources)
        };
        let run = |threads: usize| {
            let mut w = world(16);
            w.set_threads(threads);
            w.record_trace();
            w.set_fault_plan(plan()).unwrap();
            w.run(12);
            (w.opinions(), w.take_trace().unwrap())
        };
        let (ref_opinions, ref_trace) = run(1);
        assert_eq!(
            ref_trace.rounds()[3].faults,
            vec![
                "sleep:10/2r".to_string(),
                "ramp-noise:0.05->0.3/3".to_string()
            ],
            "same-round events keep plan order"
        );
        for threads in [2, 7] {
            let (opinions, trace) = run(threads);
            assert_eq!(opinions, ref_opinions, "threads = {threads}");
            assert_eq!(
                trace.rounds(),
                ref_trace.rounds(),
                "faulted trace differs at {threads} threads"
            );
        }
    }

    // ---- snapshot / restore ------------------------------------------

    use crate::snapshot::{SnapshotAgent, SNAP_MAGIC, SNAP_MAGIC_V2};

    impl SnapshotAgent for MajorityAgent {
        const SNAP_TAG: &'static str = "test-majority/v1";
        fn encode_agent(&self, w: &mut SnapWriter) {
            w.put_role(self.role);
            w.put_opinion(self.opinion);
        }
        fn decode_agent(r: &mut SnapReader<'_>) -> Result<Self> {
            Ok(MajorityAgent {
                role: r.take_role()?,
                opinion: r.take_opinion()?,
            })
        }
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        // Straight run 0..15 vs snapshot at 5 + restore + run 5..15, at a
        // different thread count: same opinions, series, and trace.
        let mut reference = noisy_world(23);
        reference.set_threads(1);
        reference.record_series();
        reference.record_trace();
        reference.run(5);
        let bytes = reference.snapshot();
        reference.run(10);

        let mut restored: World<Majority> = World::restore(&Majority, &bytes).unwrap();
        assert_eq!(restored.round(), 5);
        assert_eq!(restored.seed(), 23);
        restored.set_threads(7);
        restored.run(10);

        assert_eq!(restored.opinions(), reference.opinions());
        assert_eq!(
            restored.series().unwrap().counts(Opinion::One),
            reference.series().unwrap().counts(Opinion::One)
        );
        assert_eq!(
            restored.trace().unwrap().rounds(),
            reference.trace().unwrap().rounds()
        );
    }

    #[test]
    fn snapshot_round_trips_without_optional_recorders() {
        let mut w = noisy_world(3);
        w.run(2);
        let bytes = w.snapshot();
        let restored: World<Majority> = World::restore(&Majority, &bytes).unwrap();
        assert!(restored.series().is_none());
        assert!(restored.trace().is_none());
        assert_eq!(restored.opinions(), w.opinions());
        // Re-encoding the restored world reproduces the bytes exactly.
        assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn faulted_run_restores_mid_plan_with_reattachment() {
        let plan = || {
            FaultPlan::new()
                .at(2, zero_out(0.5))
                .at(
                    4,
                    FaultEvent::RampNoise {
                        from: 0.05,
                        to: 0.4,
                        over: 6,
                    },
                )
                .at(
                    5,
                    FaultEvent::Sleep {
                        frac: 0.3,
                        rounds: 4,
                    },
                )
                .at(9, FaultEvent::FlipSources)
        };
        let mut reference = world(31);
        reference.record_trace();
        reference.set_fault_plan(plan()).unwrap();
        // Snapshot at round 6: corrupt + ramp + sleep have fired (cursor
        // 3), the ramp is still in flight, sleep horizons are live, and
        // the flip is pending.
        reference.run(6);
        let bytes = reference.snapshot();
        reference.run(6);

        let mut restored: World<Majority> = World::restore(&Majority, &bytes).unwrap();
        assert_eq!(restored.fault_cursor(), 3);
        // A plain set_fault_plan must reject the already-fired rounds…
        let err = restored.set_fault_plan(plan()).unwrap_err();
        assert!(matches!(err, EngineError::BadFaultPlan { .. }), "{err}");
        // …but reattachment validates only the pending suffix.
        restored.reattach_fault_plan(plan()).unwrap();
        restored.set_threads(2);
        restored.run(6);

        assert_eq!(restored.opinions(), reference.opinions());
        assert_eq!(restored.correct_opinion(), reference.correct_opinion());
        assert_eq!(
            restored.trace().unwrap().rounds(),
            reference.trace().unwrap().rounds()
        );
    }

    #[test]
    fn reattach_rejects_plans_shorter_than_the_cursor() {
        let mut w = world(32);
        w.set_fault_plan(FaultPlan::new().at(1, FaultEvent::FlipSources).at(
            2,
            FaultEvent::Sleep {
                frac: 0.1,
                rounds: 1,
            },
        ))
        .unwrap();
        w.run(3);
        let bytes = w.snapshot();
        let mut restored: World<Majority> = World::restore(&Majority, &bytes).unwrap();
        assert_eq!(restored.fault_cursor(), 2);
        let err = restored
            .reattach_fault_plan(FaultPlan::new().at(1, FaultEvent::FlipSources))
            .unwrap_err();
        assert!(matches!(err, EngineError::BadFaultPlan { .. }), "{err}");
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let mut w = world(33);
        w.run(1);
        let bytes = w.snapshot();

        // Truncation anywhere fails loudly.
        let err = World::<Majority>::restore(&Majority, &bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, EngineError::BadSnapshot { .. }), "{err}");

        // Trailing garbage is rejected by the full-consumption check.
        let mut padded = bytes.clone();
        padded.push(0);
        let err = World::<Majority>::restore(&Majority, &padded).unwrap_err();
        assert!(matches!(err, EngineError::BadSnapshot { .. }), "{err}");

        // Wrong magic.
        let mut wrong = SnapWriter::new();
        wrong.put_str("np-snap/v0");
        let err = World::<Majority>::restore(&Majority, &wrong.into_bytes()).unwrap_err();
        assert!(err.to_string().contains(SNAP_MAGIC), "{err}");

        // Wrong state tag.
        let mut wrong = SnapWriter::new();
        wrong.put_str(SNAP_MAGIC);
        wrong.put_str("other-protocol/v1");
        let err = World::<Majority>::restore(&Majority, &wrong.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("test-majority/v1"), "{err}");
    }

    // ---- graph-restricted topologies ---------------------------------

    /// A ring world under real noise; k = 4 gives degree 8 ≪ n.
    fn ring_world(seed: u64, kind: ChannelKind) -> World<Majority> {
        let config = PopulationConfig::new(32, 0, 20, 8).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut w = World::new(&Majority, config, &noise, kind, seed).unwrap();
        w.set_topology(TopologySpec::Ring { k: 4 }).unwrap();
        w
    }

    #[test]
    fn complete_topology_is_a_noop_seam() {
        // Explicitly setting the complete topology must leave the
        // trajectory AND the snapshot bytes identical to never touching
        // the topology API at all.
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let config = || PopulationConfig::new(32, 0, 20, 32).unwrap();
            let noise = NoiseMatrix::uniform(2, 0.05).unwrap();
            let mut plain = World::new(&Majority, config(), &noise, kind, 7).unwrap();
            let mut seamed = World::new(&Majority, config(), &noise, kind, 7).unwrap();
            seamed.set_topology(TopologySpec::Complete).unwrap();
            plain.run(10);
            seamed.run(10);
            assert_eq!(plain.opinions(), seamed.opinions(), "{kind:?}");
            assert_eq!(plain.snapshot(), seamed.snapshot(), "{kind:?}");
        }
    }

    #[test]
    fn topology_must_be_set_before_stepping() {
        let mut w = world(5);
        w.run(1);
        let err = w.set_topology(TopologySpec::Ring { k: 2 }).unwrap_err();
        assert!(matches!(err, EngineError::BadTopology { .. }), "{err}");
        assert!(err.to_string().contains("before the first round"), "{err}");
    }

    #[test]
    fn without_replacement_rejects_oversampling_the_neighborhood() {
        // h = 8 but ring k = 2 gives degree 4: too few distinct neighbors.
        let config = PopulationConfig::new(32, 0, 20, 8).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let channel = Channel::with_sampling(
            &noise,
            ChannelKind::Aggregated,
            SamplingMode::WithoutReplacement,
        );
        let mut w: World<Majority> = World::with_channel(&Majority, config, channel, 3).unwrap();
        let err = w.set_topology(TopologySpec::Ring { k: 2 }).unwrap_err();
        assert!(matches!(err, EngineError::BadTopology { .. }), "{err}");
        assert!(err.to_string().contains("minimum degree"), "{err}");
        // Degree 16 ≥ h = 8 is fine.
        w.set_topology(TopologySpec::Ring { k: 8 }).unwrap();
    }

    #[test]
    fn ring_changes_the_trajectory() {
        let mut complete = {
            let config = PopulationConfig::new(32, 0, 20, 8).unwrap();
            let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
            World::<Majority>::new(&Majority, config, &noise, ChannelKind::Aggregated, 9).unwrap()
        };
        let mut ring = ring_world(9, ChannelKind::Aggregated);
        complete.run(5);
        ring.run(5);
        assert_ne!(
            complete.opinions(),
            ring.opinions(),
            "a degree-8 ring should not reproduce the complete graph"
        );
    }

    #[test]
    fn ring_trajectory_is_thread_count_invariant() {
        for kind in [ChannelKind::Exact, ChannelKind::Aggregated] {
            let mut reference = ring_world(13, kind);
            reference.set_threads(1);
            reference.record_series();
            reference.run(12);
            for threads in [2, 7] {
                let mut w = ring_world(13, kind);
                w.set_threads(threads);
                w.record_series();
                w.run(12);
                assert_eq!(
                    w.opinions(),
                    reference.opinions(),
                    "{kind:?} threads = {threads}"
                );
                assert_eq!(
                    w.series().unwrap().counts(Opinion::One),
                    reference.series().unwrap().counts(Opinion::One),
                    "{kind:?} threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn ring_snapshot_round_trips_as_v2() {
        let mut reference = ring_world(23, ChannelKind::Aggregated);
        reference.set_threads(1);
        reference.run(4);
        let bytes = reference.snapshot();
        // The v2 magic leads the buffer (u64 length prefix, then UTF-8).
        assert_eq!(&bytes[8..18], SNAP_MAGIC_V2.as_bytes());
        reference.run(6);

        let mut restored: World<Majority> = World::restore(&Majority, &bytes).unwrap();
        assert_eq!(restored.topology().spec(), TopologySpec::Ring { k: 4 });
        restored.set_threads(7);
        restored.run(6);
        assert_eq!(restored.opinions(), reference.opinions());

        // Re-encoding a freshly restored world reproduces the bytes.
        let again: World<Majority> = World::restore(&Majority, &bytes).unwrap();
        assert_eq!(again.snapshot(), bytes);
    }

    #[test]
    fn recovery_times_flow_from_a_faulted_trace() {
        let mut w = world(17);
        w.record_trace();
        w.set_fault_plan(FaultPlan::new().at(4, zero_out(1.0)))
            .unwrap();
        assert!(w.run_until_stable_consensus(300, 5).converged());
        let trace = w.take_trace().unwrap();
        let recoveries = recovery_times(trace.rounds());
        assert_eq!(recoveries.len(), 1);
        assert_eq!(recoveries[0].round, 4);
        assert_eq!(recoveries[0].label, "zero-out:32");
        let rounds = recoveries[0]
            .recovery_rounds()
            .expect("the run re-converged");
        assert!(rounds > 0, "full corruption must break consensus");
    }
}
