//! `perfbench` — end-to-end and per-layer benchmark of the three
//! noisy-pull backends: the per-agent `World`, the mean-field
//! `CountsWorld` and the simulated-time `SimCluster`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! ```
//!
//! Seeds run one after another in this process. The first few seeds of
//! a run (a fixed number per workload) always run — the per-seed-fixed
//! metrics (`settle_round`, counts) come from exactly those — and more
//! follow while `--seconds` lasts. With `--trace 0` the runs are
//! untraced and the end-to-end metrics are printed; with `--trace 1`
//! every seed also runs once traced, the per-layer metrics are printed,
//! and the spans are written to `DIR` (default `perfbench/out`) when the
//! run ends. Every run checks its outputs (see `WORKLOADS.md`); the last
//! line of stdout is one JSON object, and a failed check exits 1.

mod agent;
mod cluster;
mod meanfield;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_engine::protocol::ColumnarProtocol;
use np_stats::seeds::SeedSequence;

use crate::stats::{median, percentile, Ratio};
use crate::trace::Tracer;

/// Per-layer values of one traced seed, by metric name.
pub type LayerSample = BTreeMap<&'static str, f64>;

pub(crate) fn err(e: impl Display) -> String {
    e.to_string()
}

pub(crate) fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "agent-sf-64k",
    "agent-ssf-1k",
    "meanfield-sf-ladder",
    "cluster-ssf-512-drop",
];

/// Worker threads of the thread-invariance gate's second run.
const GATE_THREADS: usize = 2;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("observations_per_s", "1/s"),
    ("settle_round", "rounds"),
    ("converged_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload never
/// calls reports 0.
const PER_LAYER: [(&str, &str); 21] = [
    ("packed.display_ms", "ms"),
    ("channel.begin_round_ms", "ms"),
    ("channel.cdf_entries", "count"),
    ("channel.fill_ms", "ms"),
    ("core.update_ms", "ms"),
    ("counts.advance_ms", "ms"),
    ("counts.advance_ms_max", "ms"),
    ("runner.scatter_ms", "ms"),
    ("runner.overhead_ms", "ms"),
    ("runner.imbalance", "ratio"),
    ("metrics.collect_ms", "ms"),
    ("round.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("net.round_ms", "ms"),
    ("net.messages", "count"),
    ("net.drops", "count"),
    ("net.stale", "count"),
    ("net.skipped", "count"),
    ("net.delivered_frac", "ratio"),
    ("net.messages_per_s", "1/s"),
    ("net.virtual_ms", "ms"),
];

/// Per-layer metrics that are fixed per seed: taken over the first
/// `min_seeds` seeds only, so they repeat exactly for a given `--seed`.
const FIXED_PER_SEED: [&str; 7] = [
    "channel.cdf_entries",
    "net.messages",
    "net.drops",
    "net.stale",
    "net.skipped",
    "net.delivered_frac",
    "net.virtual_ms",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out,
    })
}

/// Correctness checks of one run: every seed run and every gate counts
/// as one attempt.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool, detail: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED {what}: {detail}");
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
struct Measured {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    rounds_ms: Vec<f64>,
    obs_per_s: Vec<f64>,
    settle: Vec<f64>,
    traced_run_s: Vec<f64>,
    /// Per-layer values of each traced seed.
    layers: Vec<(u64, LayerSample)>,
    /// Spans of the first traced seed.
    spans: Option<(u64, Tracer)>,
    checks: Checks,
    /// How many leading seeds the per-seed-fixed metrics use.
    fixed_seeds: usize,
    /// Peak resident memory after the timed seeds, before the gates.
    peak_rss_mb: f64,
    /// The ladder's `run_s`: the sum over rungs of each rung's median.
    ladder_run_s: Option<f64>,
}

/// Seeds of one run: the first `min` always run, more follow while the
/// next one is expected to finish within `seconds`.
struct SeedPlan {
    seq: SeedSequence,
    min: usize,
    seconds: f64,
}

impl SeedPlan {
    fn run(&self, mut f: impl FnMut(usize, u64) -> Result<(), String>) -> Result<(), String> {
        let start = Instant::now();
        let mut i = 0usize;
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            if i >= self.min && elapsed + elapsed / i.max(1) as f64 > self.seconds {
                return Ok(());
            }
            f(i, self.seq.seed_at(i as u64))?;
            i += 1;
        }
    }

    /// Seeds of the `reps` constructions timed before seed `i`. Set-up is
    /// sampled before every seed, not in one block, so its median spans
    /// the whole run rather than one moment of it.
    fn setup_seeds(&self, i: usize, reps: u64) -> impl Iterator<Item = u64> + '_ {
        let seq = self.seq.child(1);
        (0..reps).map(move |k| seq.seed_at(i as u64 * reps + k))
    }
}

/// First round from which every agent held the correct opinion to the
/// end of the trajectory (`correct[i]` is the count after round `i + 1`);
/// `None` if the last round is not a correct consensus.
fn settle_round(correct: &[usize], n: usize) -> Option<u64> {
    if correct.last() != Some(&n) {
        return None;
    }
    let last_bad = correct.iter().rposition(|&c| c != n);
    Some(last_bad.map_or(1, |i| i as u64 + 2))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out DIR]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the workload, prints the report, and returns whether every
/// check passed.
fn run(args: &Args) -> Result<bool, String> {
    // The ladder's seeds take several seconds each; the other workloads'
    // about one. An odd count keeps the median of a quantized value (SSF
    // settles on update-interval boundaries) one of the observed values.
    let min = if args.workload == "meanfield-sf-ladder" {
        3
    } else {
        7
    };
    let plan = SeedPlan {
        seq: SeedSequence::new(args.seed),
        min,
        seconds: args.seconds,
    };
    let mut m = Measured {
        fixed_seeds: min,
        ..Measured::default()
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
    match args.workload.as_str() {
        "agent-sf-64k" => {
            let spec = agent::AgentSpec {
                n: 1 << 16,
                h: 1 << 16,
                d: 2,
                delta: 0.2,
                budget: 0,
                traced_threads: 1,
            };
            let params = SfParams::derive(&spec.config()?, spec.delta, 1.0).map_err(err)?;
            let spec = agent::AgentSpec {
                budget: params.total_rounds(),
                ..spec
            };
            run_agent(
                &SourceFilter::new(params),
                &spec,
                30,
                &plan,
                args.trace,
                &mut m,
            )?;
        }
        "agent-ssf-1k" => {
            let spec = agent::AgentSpec {
                n: 1 << 10,
                h: 1 << 10,
                d: 4,
                delta: 0.1,
                budget: 0,
                traced_threads: 2,
            };
            let params = SsfParams::derive(&spec.config()?, spec.delta, 16.0).map_err(err)?;
            let spec = agent::AgentSpec {
                budget: 10 * params.update_interval(),
                ..spec
            };
            let protocol = SelfStabilizingSourceFilter::new(params);
            run_agent(&protocol, &spec, 20, &plan, args.trace, &mut m)?;
        }
        "meanfield-sf-ladder" => {
            let rungs = [1usize << 18, 1 << 20, 1 << 22]
                .into_iter()
                .map(|n| meanfield::Rung::new(n, 0.2))
                .collect::<Result<Vec<_>, _>>()?;
            run_ladder(&rungs, &plan, args.trace, &mut m)?;
        }
        "cluster-ssf-512-drop" => {
            let spec = cluster::ClusterSpec {
                n: 512,
                h: (512f64).ln().ceil() as usize,
                delta: 0.05,
                c1: 3.0,
                drop_rate: 0.2,
                intervals: 30,
            };
            run_cluster(&spec, &plan, args.trace, &mut m)?;
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    report(args, &m)
}

/// Runs a per-agent workload. Timed runs use one thread; after them the
/// first seed is run again at [`GATE_THREADS`] and must end identically.
/// Traced seeds run untraced and traced at `spec.traced_threads`.
fn run_agent<P: ColumnarProtocol>(
    protocol: &P,
    spec: &agent::AgentSpec,
    setup_reps: u64,
    plan: &SeedPlan,
    traced: bool,
    m: &mut Measured,
) -> Result<(), String> {
    let n = spec.n;
    let per_round = (spec.n * spec.h) as f64;
    let threads = if traced { spec.traced_threads } else { 1 };
    let mut first = None;
    plan.run(|i, seed| {
        if !traced {
            for setup_seed in plan.setup_seeds(i, setup_reps) {
                m.setup_s.push(agent::setup(protocol, spec, setup_seed)?);
            }
        }
        let run = agent::untraced(protocol, spec, seed, threads)?;
        let settle = settle_round(&run.correct, n);
        m.checks.check(
            "consensus",
            settle.is_some(),
            format_args!(
                "seed {seed}: {:?}/{n} correct at the end",
                run.correct.last()
            ),
        );
        if i < plan.min {
            m.settle.extend(settle.map(|s| s as f64));
        }
        m.run_s.push(run.run_s);
        m.obs_per_s.push(per_round * spec.budget as f64 / run.run_s);
        m.rounds_ms.extend_from_slice(&run.rounds_ms);
        if traced {
            let t = agent::traced(protocol, spec, seed, threads)?;
            m.checks.check(
                "traced trajectory",
                t.correct == run.correct,
                format_args!(
                    "seed {seed}: traced per-round correct counts differ from World::step"
                ),
            );
            m.traced_run_s.push(t.run_s);
            m.layers.push((seed, t.layers));
            m.spans.get_or_insert((seed, t.tracer));
        } else if i == 0 {
            first = Some((seed, run));
        }
        Ok(())
    })?;
    m.peak_rss_mb = peak_rss_mb()?;
    if let Some((seed, run)) = first {
        let other = agent::untraced(protocol, spec, seed, GATE_THREADS)?;
        let (a, b) = (
            settle_round(&run.correct, n),
            settle_round(&other.correct, n),
        );
        let same = other.opinions == run.opinions;
        m.checks.check(
            "thread invariance",
            a == b && same,
            format_args!(
                "seed {seed}: threads 1 settle {a:?} vs threads {GATE_THREADS} settle {b:?}, opinions equal: {same}"
            ),
        );
    }
    Ok(())
}

/// Runs the mean-field ladder: every rung back to back per seed.
fn run_ladder(
    rungs: &[meanfield::Rung],
    plan: &SeedPlan,
    traced: bool,
    m: &mut Measured,
) -> Result<(), String> {
    let mut rung_run_s = vec![Vec::new(); rungs.len()];
    plan.run(|i, seed| {
        if !traced {
            for setup_seed in plan.setup_seeds(i, 60) {
                m.setup_s.push(meanfield::setup(rungs, setup_seed)?);
            }
        }
        let mut settle_sum = Some(0u64);
        let mut layers = LayerSample::new();
        let mut tracer = Tracer::new();
        let mut traced_s = 0.0;
        for (rung, times) in rungs.iter().zip(rung_run_s.iter_mut()) {
            let n = rung.config.n();
            let run = meanfield::untraced(rung, seed)?;
            let settle = settle_round(&run.correct, n);
            m.checks.check(
                "consensus",
                settle.is_some(),
                format_args!(
                    "seed {seed} n {n}: {:?}/{n} correct at the end",
                    run.correct.last()
                ),
            );
            settle_sum = settle_sum.zip(settle).map(|(a, b)| a + b);
            times.push(run.run_s);
            m.rounds_ms.extend_from_slice(&run.rounds_ms);
            if traced {
                let (t_s, correct) = meanfield::traced(rung, seed, &mut tracer, &mut layers)?;
                m.checks.check(
                    "traced trajectory",
                    correct == run.correct,
                    format_args!("seed {seed} n {n}: traced per-round correct counts differ from CountsWorld::step"),
                );
                traced_s += t_s;
            }
        }
        if i < plan.min {
            m.settle.extend(settle_sum.map(|s| s as f64));
        }
        m.run_s.push(rung_run_s.iter().filter_map(|t| t.last()).sum());
        if traced {
            meanfield::span_layers(&tracer, &mut layers);
            m.traced_run_s.push(traced_s);
            m.layers.push((seed, layers));
            m.spans.get_or_insert((seed, tracer));
        }
        Ok(())
    })?;
    // A rung's cost depends on the seed (the n = 2^22 rung takes 0.05 s,
    // 1.2 s or 2 s), so the per-rung medians are summed rather than
    // taking the median of per-seed sums.
    let run_s: f64 = rung_run_s.iter().filter_map(|t| median(t)).sum();
    let observations: f64 = rungs
        .iter()
        .map(|r| (r.config.n() * r.config.h()) as f64 * r.budget as f64)
        .sum();
    m.ladder_run_s = Some(run_s);
    m.obs_per_s.push(observations / run_s);
    m.peak_rss_mb = peak_rss_mb()?;
    Ok(())
}

/// Runs the cluster workload; after the timed seeds the first seed is
/// run again and must give the same digest.
fn run_cluster(
    spec: &cluster::ClusterSpec,
    plan: &SeedPlan,
    traced: bool,
    m: &mut Measured,
) -> Result<(), String> {
    let (protocol, budget) = spec.protocol()?;
    let mut first = None;
    plan.run(|i, seed| {
        if !traced {
            for setup_seed in plan.setup_seeds(i, 20) {
                m.setup_s.push(cluster::setup(spec, &protocol, setup_seed)?);
            }
        }
        let run = cluster::run(spec, &protocol, budget, seed, None)?;
        let report = &run.report;
        m.checks.check(
            "consensus",
            report.converged,
            format_args!(
                "seed {seed}: {}/{} correct after {} rounds",
                report.final_correct, report.n, run.rounds
            ),
        );
        if i < plan.min {
            m.settle.extend(report.convergence_round.map(|r| r as f64));
        }
        m.run_s.push(run.run_s);
        m.obs_per_s
            .push((spec.n * spec.h) as f64 * run.rounds as f64 / run.run_s);
        m.rounds_ms.extend_from_slice(&run.rounds_ms);
        if traced {
            let mut tracer = Tracer::new();
            let t = cluster::run(spec, &protocol, budget, seed, Some(&mut tracer))?;
            m.checks.check(
                "traced run",
                t.report.digest == report.digest,
                format_args!(
                    "seed {seed}: traced digest {:#x} vs untraced {:#x}",
                    t.report.digest, report.digest
                ),
            );
            let r = &t.report;
            let mut layers = LayerSample::new();
            layers.insert(
                "net.round_ms",
                median(&tracer.durations_ms("net.round")).unwrap_or(0.0),
            );
            layers.insert("net.messages", r.messages_total as f64);
            layers.insert("net.drops", r.drops_total as f64);
            layers.insert("net.stale", r.stale_total as f64);
            layers.insert("net.skipped", r.skipped_total as f64);
            let lost = (r.drops_total + r.stale_total) as f64;
            if let Some(v) = Ratio::new(lost, r.messages_total as f64).complement() {
                layers.insert("net.delivered_frac", v);
            }
            layers.insert(
                "net.messages_per_s",
                report.messages_total as f64 / run.run_s,
            );
            layers.insert("net.virtual_ms", t.virtual_ms);
            m.traced_run_s.push(t.run_s);
            m.layers.push((seed, layers));
            m.spans.get_or_insert((seed, tracer));
        } else if i == 0 {
            first = Some((seed, report.digest));
        }
        Ok(())
    })?;
    m.peak_rss_mb = peak_rss_mb()?;
    if let Some((seed, digest)) = first {
        let again = cluster::run(spec, &protocol, budget, seed, None)?
            .report
            .digest;
        m.checks.check(
            "repeat digest",
            again == digest,
            format_args!("seed {seed}: {digest:#x} then {again:#x}"),
        );
    }
    Ok(())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Prints every metric of the run and the final JSON line; writes the
/// spans in a traced run. Returns whether every check passed.
fn report(args: &Args, m: &Measured) -> Result<bool, String> {
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let fixed = m.fixed_seeds.min(m.layers.len());
        for (name, unit) in PER_LAYER {
            let samples = if FIXED_PER_SEED.contains(&name) {
                &m.layers[..fixed]
            } else {
                &m.layers[..]
            };
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|(_, l)| l.get(name).copied())
                .collect();
            let value = if name == "trace.overhead_frac" {
                let traced = need(median(&m.traced_run_s), "traced run_s")?;
                let untraced = need(median(&m.run_s), "run_s")?;
                Ratio::new(traced, untraced).excess().unwrap_or(0.0)
            } else {
                median(&values).unwrap_or(0.0)
            };
            metrics.push((name, value, unit));
        }
    } else {
        let p50 = percentile(&m.rounds_ms, 50.0).ok_or("no round samples")?;
        let p90 = percentile(&m.rounds_ms, 90.0).ok_or("no round samples")?;
        let converged = Ratio::new(
            (m.checks.attempted - m.checks.failed) as f64,
            m.checks.attempted as f64,
        );
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => need(median(&m.setup_s), name)?,
                "run_s" => match m.ladder_run_s {
                    Some(run_s) => run_s,
                    None => need(median(&m.run_s), name)?,
                },
                "round_ms_p50" => p50.value,
                "round_ms_p90" => p90.value,
                "observations_per_s" => need(median(&m.obs_per_s), name)?,
                "settle_round" => median(&m.settle).unwrap_or(0.0),
                "converged_frac" => converged.value().unwrap_or(0.0),
                "peak_rss_mb" => m.peak_rss_mb,
                _ => unreachable!("every end-to-end metric has a source"),
            };
            metrics.push((name, value, unit));
        }
        println!(
            "samples: {} seeds, {} setups, {} rounds (p90 has {} beyond it), settle over the first {} seeds, converged {}/{}",
            m.run_s.len(),
            m.setup_s.len(),
            p90.count,
            p90.beyond,
            m.settle.len(),
            converged.part,
            converged.base,
        );
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    if args.trace {
        let path = args
            .out
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        let mut header = vec![format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"layers\":{}}}",
            args.workload,
            args.seed,
            json_metrics(&metrics)
        )];
        for (seed, layers) in &m.layers {
            let values: Vec<String> = layers.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            header.push(format!(
                "{{\"seed\":{seed},\"layers\":{{{}}}}}",
                values.join(",")
            ));
        }
        trace::save(&path, &header, m.spans.as_ref())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    let correct = m.checks.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        m.checks.attempted,
        m.checks.failed,
        json_metrics(&metrics)
    );
    Ok(correct)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_round_is_the_first_round_of_the_final_consensus() {
        assert_eq!(settle_round(&[1, 4, 4, 4], 4), Some(2));
        assert_eq!(settle_round(&[4, 2, 4, 4], 4), Some(3));
        assert_eq!(settle_round(&[4, 4], 4), Some(1));
        assert_eq!(settle_round(&[4, 4, 3], 4), None);
        assert_eq!(settle_round(&[], 4), None);
    }

    #[test]
    fn metric_json_keeps_every_digit() {
        let json = json_metrics(&[("run_s", 1.234_567_890_123, "s"), ("x", 3.0, "count")]);
        assert_eq!(
            json,
            "{\"run_s\":{\"value\":1.234567890123,\"unit\":\"s\"},\"x\":{\"value\":3,\"unit\":\"count\"}}"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for fixed in FIXED_PER_SEED {
            assert!(PER_LAYER.iter().any(|m| m.0 == fixed));
        }
    }
}
