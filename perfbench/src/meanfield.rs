//! The mean-field workload on `np_engine::counts::CountsWorld`: SF at
//! several population sizes, run back to back per seed.
//!
//! The untraced run drives `CountsWorld::step` as
//! `noisy-pull run sf --backend mean-field` does. The traced run rebuilds
//! each round from `CountsState::display_histogram`,
//! `Channel::begin_round_from_counts` and `CountsState::advance_round`
//! with a span around each call; its per-round correct counts must equal
//! the untraced trajectory.

use std::time::Instant;

use noisy_pull::params::SfParams;
use noisy_pull::sf::SourceFilter;
use np_engine::channel::{Channel, ChannelKind};
use np_engine::counts::{CountsProtocol, CountsState, CountsWorld};
use np_engine::population::PopulationConfig;
use np_engine::streams::{RoundStreams, StreamStage};
use np_linalg::noise::NoiseMatrix;
use np_stats::binomial::CdfTable;

use crate::trace::Tracer;
use crate::{err, ms_since, LayerSample};

/// One rung of the ladder: SF at `n` with `h = n`.
#[derive(Debug)]
pub struct Rung {
    /// The population.
    pub config: PopulationConfig,
    /// The SF protocol for it.
    pub protocol: SourceFilter,
    /// Rounds of the full SF schedule.
    pub budget: u64,
    noise: NoiseMatrix,
}

impl Rung {
    /// SF at `n`, `h = n`, one source, noise `delta`, `c1 = 1` (the CLI
    /// default).
    pub fn new(n: usize, delta: f64) -> Result<Self, String> {
        let config = PopulationConfig::new(n, 0, 1, n).map_err(err)?;
        let params = SfParams::derive(&config, delta, 1.0).map_err(err)?;
        Ok(Rung {
            config,
            protocol: SourceFilter::new(params),
            budget: params.total_rounds(),
            noise: NoiseMatrix::uniform(2, delta).map_err(err)?,
        })
    }
}

/// Times `CountsWorld::new` for every rung, summed.
pub fn setup(rungs: &[Rung], seed: u64) -> Result<f64, String> {
    let mut secs = 0.0;
    for rung in rungs {
        let start = Instant::now();
        let world =
            CountsWorld::new(&rung.protocol, rung.config, &rung.noise, seed).map_err(err)?;
        secs += start.elapsed().as_secs_f64();
        std::hint::black_box(&world);
    }
    Ok(secs)
}

/// Result of one untraced rung.
#[derive(Debug)]
pub struct RungRun {
    /// Wall time of the rung's rounds.
    pub run_s: f64,
    /// Wall time of each round (step plus the consensus check).
    pub rounds_ms: Vec<f64>,
    /// Correct-opinion count after each round.
    pub correct: Vec<usize>,
}

/// Runs one rung of one seed through `CountsWorld::step`.
pub fn untraced(rung: &Rung, seed: u64) -> Result<RungRun, String> {
    let mut world =
        CountsWorld::new(&rung.protocol, rung.config, &rung.noise, seed).map_err(err)?;
    let mut rounds_ms = Vec::with_capacity(rung.budget as usize);
    let mut correct = Vec::with_capacity(rung.budget as usize);
    let start = Instant::now();
    for _ in 0..rung.budget {
        let t = Instant::now();
        world.step();
        correct.push(world.correct_count());
        rounds_ms.push(ms_since(t));
    }
    Ok(RungRun {
        run_s: start.elapsed().as_secs_f64(),
        rounds_ms,
        correct,
    })
}

/// Rebuilds one rung of one seed from the layers' public calls, recording
/// spans into `tracer` and per-layer values into `layers` (summed over
/// rungs). Returns the traced wall time (excluding the `CdfTable` size
/// probe) and the per-round correct counts.
pub fn traced(
    rung: &Rung,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut LayerSample,
) -> Result<(f64, Vec<usize>), String> {
    let config = &rung.config;
    let h = config.h();
    let channel = Channel::new(&rung.noise, ChannelKind::Aggregated);
    let correct_opinion = config.correct_opinion();
    let mut init_rng = RoundStreams::new(seed, 0).rng(0, StreamStage::Init);
    let mut state = rung.protocol.init_counts(config, &mut init_rng);
    let mut correct = Vec::with_capacity(rung.budget as usize);
    let (mut cdf_entries, mut probe_s, mut advance_max) = (0usize, 0.0f64, 0.0f64);
    let start = Instant::now();
    for round in 1..=rung.budget {
        let round_span = tracer.begin("round", None);
        let mut hist = vec![0u64; channel.alphabet_size()];
        state.display_histogram(&mut hist);
        let span = tracer.begin("channel.begin_round", Some(round_span));
        let ctx = channel.begin_round_from_counts(hist, h).map_err(err)?;
        tracer.end(span);
        let mut rng = RoundStreams::new(seed, round).rng(0, StreamStage::Update);
        let span = tracer.begin("counts.advance", Some(round_span));
        state.advance_round(ctx.obs_law(), h as u64, &mut rng);
        tracer.end(span);
        advance_max = advance_max.max(tracer.spans()[span].ms());
        let span = tracer.begin("metrics.collect", Some(round_span));
        let sweep = state.metrics_sweep(correct_opinion);
        tracer.end(span);
        tracer.end(round_span);
        correct.push(sweep.correct);

        let probe = Instant::now();
        let q0 = ctx.obs_law().first().copied().unwrap_or(0.0);
        cdf_entries += CdfTable::new_unchecked(h as u64, q0).len();
        probe_s += probe.elapsed().as_secs_f64();
    }
    let run_s = start.elapsed().as_secs_f64() - probe_s;
    *layers.entry("channel.cdf_entries").or_insert(0.0) += cdf_entries as f64;
    let max = layers.entry("counts.advance_ms_max").or_insert(0.0);
    *max = max.max(advance_max);
    Ok((run_s, correct))
}

/// Fills the span-derived per-layer values of a traced ladder seed.
pub fn span_layers(tracer: &Tracer, layers: &mut LayerSample) {
    layers.insert(
        "channel.begin_round_ms",
        tracer.total_ms("channel.begin_round"),
    );
    layers.insert("counts.advance_ms", tracer.total_ms("counts.advance"));
    layers.insert("metrics.collect_ms", tracer.total_ms("metrics.collect"));
    layers.insert("round.self_ms", tracer.self_ms("round"));
}
