//! Per-agent workloads on `np_engine::world::World`.
//!
//! The untraced run drives `World::step` exactly as `noisy-pull run sf|ssf`
//! does. The traced run rebuilds the same rounds from the layers' public
//! calls (packed display fill, channel round setup and draws, protocol
//! update, runner scatter, metrics sweep) with a span around each call;
//! its per-round correct counts must equal the untraced trajectory.

use std::time::Instant;

use np_engine::channel::{Channel, ChannelKind};
use np_engine::opinion::Opinion;
use np_engine::packed::{self, PackedDisplays};
use np_engine::population::PopulationConfig;
use np_engine::protocol::{ColumnarProtocol, ColumnarState};
use np_engine::runner;
use np_engine::streams::RoundStreams;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_stats::binomial::CdfTable;

use crate::stats::Ratio;
use crate::trace::{JobClock, ScatterStats, Tracer};
use crate::{err, ms_since, LayerSample};

/// One per-agent workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct AgentSpec {
    /// Population size.
    pub n: usize,
    /// Samples per round.
    pub h: usize,
    /// Alphabet size of the protocol (2 for SF, 4 for SSF).
    pub d: usize,
    /// Uniform noise level δ.
    pub delta: f64,
    /// Rounds per seed.
    pub budget: u64,
    /// Worker threads of the traced run (timed runs use one).
    pub traced_threads: usize,
}

impl AgentSpec {
    /// The single-source population the CLI builds by default.
    pub fn config(&self) -> Result<PopulationConfig, String> {
        PopulationConfig::new(self.n, 0, 1, self.h).map_err(err)
    }

    fn noise(&self) -> Result<NoiseMatrix, String> {
        NoiseMatrix::uniform(self.d, self.delta).map_err(err)
    }
}

/// Result of one untraced seed.
#[derive(Debug)]
pub struct AgentRun {
    /// Wall time from the first step to the end of the budget.
    pub run_s: f64,
    /// Wall time of each round (step plus the consensus check).
    pub rounds_ms: Vec<f64>,
    /// Correct-opinion count after each round.
    pub correct: Vec<usize>,
    /// Final opinion of every agent.
    pub opinions: Vec<Opinion>,
}

/// Times `World::new` alone.
pub fn setup<P: ColumnarProtocol>(
    protocol: &P,
    spec: &AgentSpec,
    seed: u64,
) -> Result<f64, String> {
    let (config, noise) = (spec.config()?, spec.noise()?);
    let start = Instant::now();
    let world = World::new(protocol, config, &noise, ChannelKind::Aggregated, seed).map_err(err)?;
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&world);
    Ok(secs)
}

/// Runs one seed through `World::step` on `threads` workers.
pub fn untraced<P: ColumnarProtocol>(
    protocol: &P,
    spec: &AgentSpec,
    seed: u64,
    threads: usize,
) -> Result<AgentRun, String> {
    let (config, noise) = (spec.config()?, spec.noise()?);
    let mut world =
        World::new(protocol, config, &noise, ChannelKind::Aggregated, seed).map_err(err)?;
    world.set_threads(threads);
    let mut rounds_ms = Vec::with_capacity(spec.budget as usize);
    let mut correct = Vec::with_capacity(spec.budget as usize);
    let start = Instant::now();
    for _ in 0..spec.budget {
        let t = Instant::now();
        world.step();
        correct.push(world.correct_count());
        rounds_ms.push(ms_since(t));
    }
    let run_s = start.elapsed().as_secs_f64();
    Ok(AgentRun {
        run_s,
        rounds_ms,
        correct,
        opinions: world.opinions(),
    })
}

/// Result of one traced seed.
#[derive(Debug)]
pub struct TracedRun {
    /// Traced wall time, excluding the `CdfTable` size probe.
    pub run_s: f64,
    /// Correct-opinion count after each round.
    pub correct: Vec<usize>,
    /// Per-layer values of this seed.
    pub layers: LayerSample,
    /// The spans.
    pub tracer: Tracer,
}

/// Rebuilds one seed's rounds from the layers' public calls, with a span
/// around every call.
pub fn traced<P: ColumnarProtocol>(
    protocol: &P,
    spec: &AgentSpec,
    seed: u64,
    threads: usize,
) -> Result<TracedRun, String> {
    let config = spec.config()?;
    let channel = Channel::new(&spec.noise()?, ChannelKind::Aggregated);
    let (n, h, d) = (config.n(), config.h(), channel.alphabet_size());
    let correct_opinion = config.correct_opinion();
    let mut state = protocol.init_state(&config, &RoundStreams::new(seed, 0));
    let mut planes = PackedDisplays::new(n, d);
    // The aggregated channel never reads literal displays; the fill call
    // only bounds-checks its range against them (as in `World::step`).
    let displays = vec![0usize; n];
    let mut observations = vec![0u64; n * d];
    let threads = threads.clamp(1, n);
    let chunk = packed::chunk_len_for(n, threads);

    let mut tracer = Tracer::new();
    let mut correct = Vec::with_capacity(spec.budget as usize);
    let mut scatters = ScatterStats::default();
    let mut cdf_entries = 0usize;
    let mut probe_s = 0.0f64;
    let start = Instant::now();
    for round in 0..spec.budget {
        let streams = RoundStreams::new(seed, round);
        let round_span = tracer.begin("round", None);

        // Pass 1: packed display fill with per-chunk histograms.
        let chunks = planes.chunks_mut(chunk);
        let mut hists = vec![0u64; chunks.len() * d];
        let mut clocks: Vec<Option<JobClock>> = vec![None; chunks.len()];
        let jobs: Vec<_> = chunks
            .into_iter()
            .zip(hists.chunks_mut(d))
            .zip(clocks.iter_mut())
            .collect();
        let state_ref = &state;
        let scatter = tracer.begin("runner.scatter", Some(round_span));
        runner::scatter(threads, jobs, |((mut plane_chunk, hist), slot)| {
            let mut clock = JobClock::start();
            let first = plane_chunk.start();
            let len = plane_chunk.len();
            state_ref.display_chunk_packed(first..first + len, &mut plane_chunk, &streams);
            plane_chunk.histogram_into(hist);
            clock.marks[1] = Instant::now();
            *slot = Some(clock);
        });
        tracer.end(scatter);
        let jobs: Vec<JobClock> = clocks.into_iter().flatten().collect();
        scatters += tracer.record_jobs(scatter, &jobs, &["packed.display"]);
        let mut disp_counts = vec![0u64; d];
        for partial in hists.chunks(d) {
            for (total, part) in disp_counts.iter_mut().zip(partial) {
                *total += part;
            }
        }

        let span = tracer.begin("channel.begin_round", Some(round_span));
        let ctx = channel
            .begin_round_from_counts(disp_counts, h)
            .map_err(err)?;
        tracer.end(span);

        // Pass 2: fused observation draws and protocol updates.
        let mut clocks: Vec<Option<JobClock>> = Vec::new();
        let views = state.chunks_mut(chunk);
        clocks.resize(views.len(), None);
        let jobs: Vec<_> = views
            .into_iter()
            .zip(observations.chunks_mut((chunk * d).max(1)))
            .zip(clocks.iter_mut())
            .enumerate()
            .map(|(i, ((view, obs), slot))| (i * chunk, view, obs, slot))
            .collect();
        let (channel_ref, ctx_ref, displays_ref) = (&channel, &ctx, &displays);
        let scatter = tracer.begin("runner.scatter", Some(round_span));
        runner::scatter(threads, jobs, |(first, mut view, obs, slot)| {
            let mut clock = JobClock::start();
            let range = first..first + obs.len() / d;
            channel_ref.fill_observations_chunk(
                ctx_ref,
                displays_ref,
                h,
                range.clone(),
                &streams,
                obs,
            );
            np_engine::invariants::check_observation_chunk(first, obs, d, h as u64);
            clock.marks[1] = Instant::now();
            <P::State as ColumnarState>::step_chunk(&mut view, range, obs, d, &streams, None);
            clock.marks[2] = Instant::now();
            *slot = Some(clock);
        });
        tracer.end(scatter);
        let jobs: Vec<JobClock> = clocks.into_iter().flatten().collect();
        scatters += tracer.record_jobs(scatter, &jobs, &["channel.fill", "core.update"]);

        let span = tracer.begin("metrics.collect", Some(round_span));
        let sweep = state.metrics_sweep(correct_opinion);
        tracer.end(span);
        tracer.end(round_span);
        correct.push(sweep.correct);

        // Size of the round's inverse-cdf table, measured outside every
        // span and excluded from the traced run time.
        let probe = Instant::now();
        let q0 = ctx.obs_law().first().copied().unwrap_or(0.0);
        cdf_entries += CdfTable::new_unchecked(h as u64, q0).len();
        probe_s += probe.elapsed().as_secs_f64();
    }
    let run_s = start.elapsed().as_secs_f64() - probe_s;

    let mut layers = LayerSample::new();
    layers.insert("packed.display_ms", tracer.total_ms("packed.display"));
    layers.insert(
        "channel.begin_round_ms",
        tracer.total_ms("channel.begin_round"),
    );
    layers.insert("channel.cdf_entries", cdf_entries as f64);
    layers.insert("channel.fill_ms", tracer.total_ms("channel.fill"));
    layers.insert("core.update_ms", tracer.total_ms("core.update"));
    layers.insert("runner.scatter_ms", scatters.wall_ns as f64 / 1e6);
    layers.insert("runner.overhead_ms", scatters.overhead_ns() as f64 / 1e6);
    if let Some(imbalance) =
        Ratio::new(scatters.slowest_busy_ns as f64, scatters.mean_busy_ns).value()
    {
        layers.insert("runner.imbalance", imbalance);
    }
    layers.insert("metrics.collect_ms", tracer.total_ms("metrics.collect"));
    layers.insert("round.self_ms", tracer.self_ms("round"));
    Ok(TracedRun {
        run_s,
        correct,
        layers,
        tracer,
    })
}
