//! Subcommand implementations for the `noisy-pull` CLI.

use std::path::PathBuf;
use std::sync::Arc;

use noisy_pull::adversary::SsfAdversary;
use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::{SelfStabilizingSourceFilter, SsfColumns};
use noisy_pull::theory;
use np_baselines::majority::HMajority;
use np_baselines::mean_estimator::MeanEstimator;
use np_baselines::push_spreading::{PushSpreading, PushSpreadingParams};
use np_baselines::trusting_copy::TrustingCopy;
use np_baselines::voter::ZealotVoter;
use np_engine::channel::ChannelKind;
use np_engine::counts::{CountsProtocol, CountsWorld};
use np_engine::faults::{recovery_times, FaultEvent, FaultPlan};
use np_engine::metrics::{save_trace_jsonl, RunSummary};
use np_engine::opinion::Opinion;
use np_engine::population::PopulationConfig;
use np_engine::protocol::{AgentRecords, ColumnarProtocol, Protocol};
use np_engine::push::PushWorld;
use np_engine::streams::StreamRng;
use np_engine::topology::TopologySpec;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

use crate::args::{Args, ArgsError};

/// Top-level error type for the CLI: every failure is reported as text.
pub type CliResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Simulation backend selected by `--backend` (sf/ssf only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The per-agent engine: one row per agent, full fault/snapshot
    /// machinery, bit-level reproducibility.
    PerAgent,
    /// The mean-field counts engine: class counts only, distributionally
    /// equivalent to per-agent under the aggregated with-replacement
    /// channel; scales to `n = 10⁸`.
    MeanField,
}

/// Shared population/noise flags.
struct CommonFlags {
    n: usize,
    h: usize,
    s0: usize,
    s1: usize,
    delta: f64,
    seed: u64,
    exact: bool,
    threads: Option<usize>,
    digest: bool,
    /// Write the per-round JSONL trace here after the run.
    trace: Option<PathBuf>,
    /// Write the end-of-run summary JSON here after the run.
    metrics_out: Option<PathBuf>,
    /// Raw repeatable `--fault round:kind[:args]` specs.
    faults: Vec<String>,
    /// Restore the world from this `np-snap/v1` file instead of a fresh
    /// init (sf/ssf only).
    restore: Option<PathBuf>,
    /// Write periodic `np-snap/v1` checkpoints here (sf/ssf only).
    checkpoint: Option<PathBuf>,
    /// Checkpoint cadence in rounds (with `--checkpoint`).
    checkpoint_every: u64,
    /// Which engine runs the protocol (sf/ssf only).
    backend: Backend,
    /// Restrict sampling to a graph topology (sf/ssf, per-agent only).
    topology: Option<TopologySpec>,
}

impl CommonFlags {
    fn from_args(args: &Args) -> Result<Self, ArgsError> {
        let n = args.get_or("n", 1024usize)?;
        let threads = args.get_opt::<usize>("threads")?;
        if threads == Some(0) {
            return Err(ArgsError("flag --threads: must be at least 1".into()));
        }
        if let Some(t) = threads {
            // Also export the override so every downstream consumer of
            // NOISY_PULL_THREADS (batch runners, worlds built elsewhere)
            // picks it up. Thread counts never change results — this is a
            // pure performance knob.
            std::env::set_var(np_engine::runner::THREADS_ENV_VAR, t.to_string());
        }
        let checkpoint: Option<PathBuf> = args.get_opt("checkpoint")?;
        let every: Option<u64> = args.get_opt("checkpoint-every")?;
        if every == Some(0) {
            return Err(ArgsError(
                "flag --checkpoint-every: must be at least 1".into(),
            ));
        }
        if every.is_some() && checkpoint.is_none() {
            return Err(ArgsError(
                "flag --checkpoint-every: requires --checkpoint PATH".into(),
            ));
        }
        let checkpoint_every = every.unwrap_or(32);
        let backend = match args.str_or("backend", "per-agent").as_str() {
            "per-agent" => Backend::PerAgent,
            "mean-field" => Backend::MeanField,
            other => {
                return Err(ArgsError(format!(
                    "flag --backend: unknown backend `{other}`; known: per-agent, mean-field"
                )))
            }
        };
        let topology = match args.get_opt::<String>("topology")? {
            Some(text) => Some(
                TopologySpec::parse(&text)
                    .map_err(|e| ArgsError(format!("flag --topology: {e}")))?,
            ),
            None => None,
        };
        let restore: Option<PathBuf> = args.get_opt("restore")?;
        if topology.is_some() && restore.is_some() {
            return Err(ArgsError(
                "flag --topology: cannot be combined with --restore (the snapshot already \
                 carries the topology it was taken under)"
                    .into(),
            ));
        }
        Ok(CommonFlags {
            n,
            h: args.get_or("h", n)?,
            s0: args.get_or("s0", 0usize)?,
            s1: args.get_or("s1", 1usize)?,
            delta: args.get_or("delta", 0.2f64)?,
            seed: args.get_or("seed", 42u64)?,
            exact: args.switch("exact")?,
            threads,
            digest: args.switch("digest")?,
            trace: args.get_opt("trace")?,
            metrics_out: args.get_opt("metrics-out")?,
            faults: args.get_all("fault"),
            restore,
            checkpoint,
            checkpoint_every,
            backend,
            topology,
        })
    }

    /// The mean-field backend has no per-agent rows, so everything that
    /// addresses individual agents — the exact channel, fault injection,
    /// snapshots, the opinion-vector digest — is structurally unavailable
    /// rather than merely unimplemented.
    fn check_mean_field_flags(&self) -> Result<(), String> {
        let reject = |flag: &str, why: &str| {
            Err(format!(
                "--backend mean-field does not support {flag}: {why}"
            ))
        };
        if self.exact {
            return reject(
                "--exact",
                "the counts engine is defined over the aggregated with-replacement channel",
            );
        }
        if !self.faults.is_empty() {
            return reject("--fault", "fault injection addresses individual agents");
        }
        if self.restore.is_some() {
            return reject("--restore", "np-snap/v1 snapshots store per-agent rows");
        }
        if self.checkpoint.is_some() {
            return reject("--checkpoint", "np-snap/v1 snapshots store per-agent rows");
        }
        if self.digest {
            return reject(
                "--digest",
                "the digest fingerprints the per-agent opinion vector",
            );
        }
        if self.topology.is_some() {
            return reject(
                "--topology",
                "the counts engine assumes exchangeability over the complete graph",
            );
        }
        Ok(())
    }

    /// Applies `--topology` to a freshly built world. The world is always
    /// fresh here: `--topology --restore` was rejected at flag parse time
    /// (a snapshot carries the topology it was taken under).
    fn apply_topology<P: np_engine::protocol::ColumnarProtocol>(
        &self,
        world: &mut World<P>,
    ) -> Result<(), String> {
        let Some(spec) = self.topology else {
            return Ok(());
        };
        world.set_topology(spec).map_err(err)?;
        println!("topology: {}", spec.label());
        Ok(())
    }

    /// Returns `true` if any run-observability output was requested.
    fn observing(&self) -> bool {
        self.trace.is_some() || self.metrics_out.is_some()
    }

    fn config(&self) -> Result<PopulationConfig, String> {
        PopulationConfig::new(self.n, self.s0, self.s1, self.h).map_err(err)
    }

    fn channel(&self) -> ChannelKind {
        if self.exact {
            ChannelKind::Exact
        } else {
            ChannelKind::Aggregated
        }
    }

    /// Applies the `--threads` override to a freshly built world.
    fn tune<P: np_engine::protocol::ColumnarProtocol>(&self, world: &mut World<P>) {
        if let Some(t) = self.threads {
            world.set_threads(t);
        }
    }
}

/// Parses the repeatable `--fault round:kind[:args]` specs into a
/// [`FaultPlan`].
///
/// Grammar (one spec per flag, `R` is the 1-based injection round):
/// `R:flip` · `R:noise:δ` · `R:ramp:δ:rounds` (ramps from the run's base
/// δ) · `R:sleep:frac:rounds` · anything else is handed to `corrupt`,
/// the protocol-specific adversary builder (`R:kind[:frac]`, frac
/// defaulting to 1).
fn parse_faults<S>(
    specs: &[String],
    d: usize,
    base_delta: f64,
    corrupt: impl Fn(&str, f64) -> Result<FaultEvent<S>, String>,
) -> Result<FaultPlan<S>, String> {
    let mut plan = FaultPlan::new();
    for spec in specs {
        let bad = |why: String| format!("--fault {spec}: {why}");
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() < 2 {
            return Err(bad("expected round:kind[:args]".into()));
        }
        let round: u64 = parts[0]
            .parse()
            .map_err(|_| bad(format!("bad round `{}`", parts[0])))?;
        let num = |x: &str| -> Result<f64, String> {
            x.parse()
                .map_err(|_| bad(format!("cannot parse `{x}` as a number")))
        };
        let span = |x: &str| -> Result<u64, String> {
            x.parse()
                .map_err(|_| bad(format!("cannot parse `{x}` as a round count")))
        };
        let event = match (parts[1], parts.len()) {
            ("flip", 2) => FaultEvent::FlipSources,
            ("noise", 3) => FaultEvent::SetNoise {
                noise: NoiseMatrix::uniform(d, num(parts[2])?).map_err(|e| bad(e.to_string()))?,
            },
            ("ramp", 4) => FaultEvent::RampNoise {
                from: base_delta,
                to: num(parts[2])?,
                over: span(parts[3])?,
            },
            ("sleep", 4) => FaultEvent::Sleep {
                frac: num(parts[2])?,
                rounds: span(parts[3])?,
            },
            ("flip" | "noise" | "ramp" | "sleep", _) => {
                return Err(bad(
                    "wrong arity; expected R:flip, R:noise:δ, R:ramp:δ:rounds or \
                     R:sleep:frac:rounds"
                        .into(),
                ))
            }
            (kind, 2) => corrupt(kind, 1.0).map_err(bad)?,
            (kind, 3) => corrupt(kind, num(parts[2])?).map_err(bad)?,
            _ => return Err(bad("expected round:kind[:args]".into())),
        };
        plan = plan.at(round, event);
    }
    Ok(plan)
}

/// The adversary builder for protocols without corruption strategies:
/// only the generic fault kinds are accepted.
fn no_corrupt_kinds<S>(kind: &str, _frac: f64) -> Result<FaultEvent<S>, String> {
    Err(format!(
        "unknown kind `{kind}`; this protocol supports flip, noise, ramp and sleep"
    ))
}

/// Writes an `np-snap/v1` blob atomically (temp file + rename), creating
/// parent directories if needed.
fn save_snapshot(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(err)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(err)?;
    std::fs::rename(&tmp, path).map_err(err)
}

/// The per-round hook sf/ssf use to write `--checkpoint` snapshots.
/// Snapshots are never taken of a consensus or end-of-budget state: a
/// checkpoint always has live work after it.
fn checkpoint_hook<P>(
    common: &CommonFlags,
    budget: u64,
) -> impl FnMut(&World<P>) -> Result<(), String> + '_
where
    P: np_engine::protocol::ColumnarProtocol,
    P::State: np_engine::snapshot::SnapshotState,
{
    move |world: &World<P>| {
        let Some(path) = &common.checkpoint else {
            return Ok(());
        };
        if world.round().is_multiple_of(common.checkpoint_every)
            && world.round() < budget
            && !world.is_consensus()
        {
            save_snapshot(path, &world.snapshot())?;
        }
        Ok(())
    }
}

fn report_run<P: ColumnarProtocol>(
    world: &mut World<P>,
    budget: u64,
    label: &str,
    common: &CommonFlags,
    mut on_round: impl FnMut(&World<P>) -> Result<(), String>,
) -> CliResult {
    if common.observing() || world.has_fault_plan() {
        world.record_trace();
    }
    // `while round < budget` (not `for 1..=budget`): a `--restore`d world
    // starts mid-run and must only execute the remaining rounds.
    let mut last_bad = world.round();
    while world.round() < budget {
        world.step();
        if !world.is_consensus() {
            last_bad = world.round();
        }
        on_round(world)?;
    }
    let n = world.config().n();
    if world.is_consensus() {
        println!(
            "{label}: consensus settled at round {} / {budget}",
            last_bad + 1
        );
    } else {
        println!(
            "{label}: NO consensus within {budget} rounds ({}/{} correct)",
            world.correct_count(),
            n
        );
    }
    if common.digest {
        println!("{label} digest: {:#018x}", world.outcome_digest());
    }
    if common.observing() || world.has_fault_plan() {
        let trace = world
            .take_trace()
            .expect("record_trace was called before the run");
        let recoveries = if world.has_fault_plan() {
            recovery_times(trace.rounds())
        } else {
            Vec::new()
        };
        for r in &recoveries {
            match r.recovery_rounds() {
                Some(0) => println!(
                    "{label} fault @{} [{}]: consensus never broke",
                    r.round, r.label
                ),
                Some(rounds) => println!(
                    "{label} fault @{} [{}]: re-converged after {rounds} rounds",
                    r.round, r.label
                ),
                None => println!(
                    "{label} fault @{} [{}]: NOT recovered by end of run",
                    r.round, r.label
                ),
            }
        }
        // Timing goes to stdout only: the trace and summary files must be
        // byte-identical across thread counts, and wall clocks are not.
        let t = trace.timings();
        println!(
            "{label} stage wall-clock: display {:.3?}, observe {:.3?}, update {:.3?}, collect {:.3?}",
            t.display, t.observe, t.update, t.collect
        );
        if let Some(path) = &common.trace {
            save_trace_jsonl(path, trace.rounds()).map_err(err)?;
            println!("{label} trace: {}", path.display());
        }
        if let Some(path) = &common.metrics_out {
            let last = trace
                .last()
                .ok_or("--metrics-out: no rounds were executed (budget 0?)")?;
            // The world's own seed, not the flag: a `--restore`d world
            // keeps the seed of the run that produced the snapshot.
            RunSummary::from_final_metrics(label, world.config(), world.seed(), last)
                .with_faults(recoveries)
                .save(path)
                .map_err(err)?;
            println!("{label} summary: {}", path.display());
        }
    }
    Ok(())
}

/// The mean-field counterpart of [`report_run`]: same console report and
/// trace/summary outputs, no fault/checkpoint hooks (rejected upstream by
/// [`CommonFlags::check_mean_field_flags`]).
fn report_counts_run<P: CountsProtocol>(
    world: &mut CountsWorld<P>,
    budget: u64,
    label: &str,
    common: &CommonFlags,
) -> CliResult {
    if common.observing() {
        world.record_trace();
    }
    let mut last_bad = world.round();
    while world.round() < budget {
        world.step();
        if !world.is_consensus() {
            last_bad = world.round();
        }
    }
    let n = world.config().n();
    if world.is_consensus() {
        println!(
            "{label}: consensus settled at round {} / {budget}",
            last_bad + 1
        );
    } else {
        println!(
            "{label}: NO consensus within {budget} rounds ({}/{} correct)",
            world.correct_count(),
            n
        );
    }
    if common.observing() {
        let rounds = world
            .trace()
            .expect("record_trace was called before the run");
        if let Some(path) = &common.trace {
            save_trace_jsonl(path, rounds).map_err(err)?;
            println!("{label} trace: {}", path.display());
        }
        if let Some(path) = &common.metrics_out {
            let last = rounds
                .last()
                .ok_or("--metrics-out: no rounds were executed (budget 0?)")?;
            RunSummary::from_final_metrics(label, world.config(), world.seed(), last)
                .save(path)
                .map_err(err)?;
            println!("{label} summary: {}", path.display());
        }
    }
    Ok(())
}

/// `run sf` — run Algorithm SF.
pub fn run_sf(args: &Args) -> CliResult {
    let common = CommonFlags::from_args(args).map_err(err)?;
    let c1 = args.get_or("c1", 1.0f64).map_err(err)?;
    args.finish().map_err(err)?;
    let config = common.config()?;
    let params = SfParams::derive(&config, common.delta, c1).map_err(err)?;
    let noise = NoiseMatrix::uniform(2, common.delta).map_err(err)?;
    println!(
        "SF: n={} h={} s0={} s1={} δ={} c1={c1} → m={} schedule={} rounds",
        common.n,
        common.h,
        common.s0,
        common.s1,
        common.delta,
        params.m(),
        params.total_rounds()
    );
    let protocol = SourceFilter::new(params);
    if common.backend == Backend::MeanField {
        common.check_mean_field_flags()?;
        let mut world = CountsWorld::new(&protocol, config, &noise, common.seed).map_err(err)?;
        return report_counts_run(&mut world, params.total_rounds(), "SF", &common);
    }
    let mut world = match &common.restore {
        Some(path) => restore_world(&protocol, path)?,
        None => {
            World::new(&protocol, config, &noise, common.channel(), common.seed).map_err(err)?
        }
    };
    common.tune(&mut world);
    common.apply_topology(&mut world)?;
    if !common.faults.is_empty() {
        let plan = parse_faults(&common.faults, 2, common.delta, no_corrupt_kinds)?;
        if common.restore.is_some() {
            // The snapshot carries the fault *cursor*; re-supply the full
            // plan so pending events keep their stream coordinates.
            world.reattach_fault_plan(plan).map_err(err)?;
        } else {
            world.set_fault_plan(plan).map_err(err)?;
        }
    }
    let budget = params.total_rounds();
    let hook = checkpoint_hook(&common, budget);
    report_run(&mut world, budget, "SF", &common, hook)
}

/// Reads and restores an `np-snap/v1` world for `--restore`.
fn restore_world<P>(protocol: &P, path: &std::path::Path) -> Result<World<P>, String>
where
    P: np_engine::protocol::ColumnarProtocol,
    P::State: np_engine::snapshot::SnapshotState,
{
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
    let world = World::restore(protocol, &bytes).map_err(err)?;
    println!(
        "restored {} from round {} (seed {})",
        path.display(),
        world.round(),
        world.seed()
    );
    Ok(world)
}

/// `run ssf` — run Algorithm SSF, optionally under an adversary.
pub fn run_ssf(args: &Args) -> CliResult {
    let common = CommonFlags::from_args(args).map_err(err)?;
    let c1 = args.get_or("c1", 16.0f64).map_err(err)?;
    let intervals = args.get_or("budget-intervals", 10u64).map_err(err)?;
    let adversary_name = args.str_or("adversary", "none");
    args.finish().map_err(err)?;
    let adversary = SsfAdversary::ALL
        .into_iter()
        .find(|a| a.name() == adversary_name)
        .ok_or_else(|| {
            format!(
                "unknown adversary `{adversary_name}`; known: {}",
                SsfAdversary::ALL
                    .iter()
                    .map(|a| a.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    let config = common.config()?;
    let params = SsfParams::derive(&config, common.delta, c1).map_err(err)?;
    let noise = NoiseMatrix::uniform(4, common.delta).map_err(err)?;
    println!(
        "SSF: n={} h={} δ={} c1={c1} adversary={adversary} → m={} interval={} rounds",
        common.n,
        common.h,
        common.delta,
        params.m(),
        params.update_interval()
    );
    let protocol = SelfStabilizingSourceFilter::new(params);
    if common.backend == Backend::MeanField {
        common.check_mean_field_flags()?;
        if adversary != SsfAdversary::None {
            return Err(
                "--backend mean-field does not support --adversary: initial corruption \
                 addresses individual agents"
                    .into(),
            );
        }
        let mut world = CountsWorld::new(&protocol, config, &noise, common.seed).map_err(err)?;
        let budget = interval_budget(intervals, &params)?;
        return report_counts_run(&mut world, budget, "SSF", &common);
    }
    let mut world = match &common.restore {
        Some(path) => restore_world(&protocol, path)?,
        None => {
            World::new(&protocol, config, &noise, common.channel(), common.seed).map_err(err)?
        }
    };
    common.tune(&mut world);
    common.apply_topology(&mut world)?;
    let correct = config.correct_opinion();
    let m = params.m();
    if common.restore.is_none() {
        // Initial adversarial corruption is part of round 0; a restored
        // world already carries its effects in the snapshot.
        world.corrupt_agents(|id, agent, rng| adversary.corrupt(agent, correct, m, id, rng));
    }
    if !common.faults.is_empty() {
        let plan = parse_faults(&common.faults, 4, common.delta, |kind, frac| {
            let adv = SsfAdversary::ALL
                .into_iter()
                .find(|a| a.name() == kind)
                .ok_or_else(|| {
                    format!(
                        "unknown kind `{kind}`; known: flip, noise, ramp, sleep, {}",
                        SsfAdversary::ALL
                            .iter()
                            .map(|a| a.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
            Ok(FaultEvent::Corrupt {
                frac,
                label: kind.to_string(),
                fault: Arc::new(
                    move |state: &mut SsfColumns, id: usize, rng: &mut StreamRng| {
                        state.modify_agent(id, |agent| adv.corrupt(agent, correct, m, id, rng));
                    },
                ),
            })
        })?;
        if common.restore.is_some() {
            world.reattach_fault_plan(plan).map_err(err)?;
        } else {
            world.set_fault_plan(plan).map_err(err)?;
        }
    }
    let budget = interval_budget(intervals, &params)?;
    let hook = checkpoint_hook(&common, budget);
    report_run(&mut world, budget, "SSF", &common, hook)
}

/// The round budget of `--budget-intervals I`: `I` SSF update intervals,
/// refused when the product does not fit a round counter.
fn interval_budget(intervals: u64, params: &SsfParams) -> Result<u64, String> {
    let interval = params.update_interval();
    intervals.checked_mul(interval).ok_or_else(|| {
        format!(
            "flag --budget-intervals: {intervals} intervals of {interval} rounds overflow \
             the u64 round budget"
        )
    })
}

/// `run baseline <name>` — run one of the comparison protocols.
pub fn run_baseline(name: &str, args: &Args) -> CliResult {
    let common = CommonFlags::from_args(args).map_err(err)?;
    let budget = args.get_or("budget", 1000u64).map_err(err)?;
    args.finish().map_err(err)?;
    if !common.faults.is_empty() {
        return Err("--fault is only supported for the sf and ssf subcommands".into());
    }
    if common.restore.is_some() || common.checkpoint.is_some() {
        return Err(
            "--restore/--checkpoint are only supported for the sf and ssf subcommands".into(),
        );
    }
    if common.backend != Backend::PerAgent {
        return Err("--backend is only supported for the sf and ssf subcommands".into());
    }
    if common.topology.is_some() {
        return Err(
            "--topology is only supported for the sf and ssf subcommands: the baselines pin \
             the paper's complete-graph model"
                .into(),
        );
    }
    let config = common.config()?;
    match name {
        "voter" => {
            let noise = NoiseMatrix::uniform(2, common.delta).map_err(err)?;
            let mut world =
                World::new(&ZealotVoter, config, &noise, common.channel(), common.seed)
                    .map_err(err)?;
            common.tune(&mut world);
            report_run(&mut world, budget, "zealot-voter", &common, |_| Ok(()))?;
        }
        "majority" => {
            let noise = NoiseMatrix::uniform(2, common.delta).map_err(err)?;
            let mut world =
                World::new(&HMajority, config, &noise, common.channel(), common.seed)
                    .map_err(err)?;
            common.tune(&mut world);
            report_run(&mut world, budget, "h-majority", &common, |_| Ok(()))?;
        }
        "trusting-copy" => {
            let noise = NoiseMatrix::uniform(4, common.delta).map_err(err)?;
            let mut world =
                World::new(&TrustingCopy, config, &noise, common.channel(), common.seed)
                    .map_err(err)?;
            common.tune(&mut world);
            report_run(&mut world, budget, "trusting-copy", &common, |_| Ok(()))?;
        }
        "mean-estimator" => {
            let noise = NoiseMatrix::uniform(2, common.delta).map_err(err)?;
            let proto = MeanEstimator::new(common.delta);
            let mut world =
                World::new(&proto, config, &noise, common.channel(), common.seed).map_err(err)?;
            common.tune(&mut world);
            report_run(&mut world, budget, "mean-estimator", &common, |_| Ok(()))?;
        }
        "push" => {
            if common.observing() {
                return Err(
                    "--trace/--metrics-out are not supported for the push baseline: it runs \
                     in the PUSH world, which has no run-observer hook"
                        .into(),
                );
            }
            let params = PushSpreadingParams::derive(common.n, common.h, common.delta);
            let noise = NoiseMatrix::uniform(2, common.delta).map_err(err)?;
            let mut world =
                PushWorld::new(&PushSpreading::new(params), config, &noise, common.seed)
                    .map_err(err)?;
            world.run(params.total_rounds());
            if world.is_consensus() {
                println!(
                    "push-spreading: consensus within {} rounds (spreading stage {})",
                    params.total_rounds(),
                    params.spreading_rounds()
                );
            } else {
                println!(
                    "push-spreading: NO consensus ({}/{} correct)",
                    world.correct_count(),
                    common.n
                );
            }
        }
        other => {
            return Err(format!(
                "unknown baseline `{other}`; known: voter, majority, trusting-copy, mean-estimator, push"
            ))
        }
    }
    Ok(())
}

/// `theory` — evaluate the paper's closed-form bounds.
pub fn theory_cmd(args: &Args) -> CliResult {
    let n = args.get_or("n", 1024usize).map_err(err)?;
    let h = args.get_or("h", n).map_err(err)?;
    let s = args.get_or("s", 1usize).map_err(err)?;
    let s0 = args.get_or("s0", 0usize).map_err(err)?;
    let s1 = args.get_or("s1", s).map_err(err)?;
    let delta = args.get_or("delta", 0.2f64).map_err(err)?;
    args.finish().map_err(err)?;
    println!("parameters: n={n} h={h} s0={s0} s1={s1} δ={delta}");
    match theory::lower_bound_rounds(n, h, s1.abs_diff(s0), delta, 2) {
        Ok(lb) => println!("Theorem 3 lower bound  : {lb:.2} rounds (×Ω-constant)"),
        Err(e) => println!("Theorem 3 lower bound  : n/a ({e})"),
    }
    match theory::sf_upper_bound_rounds(n, h, s0, s1, delta) {
        Ok(ub) => println!("Theorem 4 SF bound     : {ub:.2} rounds (×O-constant)"),
        Err(e) => println!("Theorem 4 SF bound     : n/a ({e})"),
    }
    match theory::ssf_upper_bound_rounds(n, h, delta) {
        Ok(ub) => println!("Theorem 5 SSF bound    : {ub:.2} rounds (×O-constant)"),
        Err(e) => println!("Theorem 5 SSF bound    : n/a ({e})"),
    }
    if let Ok(f) = theory::f_delta(2, delta) {
        println!("f(δ) at d=2            : {f:.4}");
    }
    println!(
        "noise-dominated regime : {}",
        theory::is_noise_dominated(n, s0, s1, delta, 2)
    );
    Ok(())
}

/// `reduce` — derive the Theorem 8 artificial noise for a channel given as
/// `--rows "a,b;c,d"`.
pub fn reduce_cmd(args: &Args) -> CliResult {
    let rows_spec = args.str_or("rows", "");
    args.finish().map_err(err)?;
    if rows_spec.is_empty() {
        return Err("missing --rows \"a,b;c,d;...\" (row-major stochastic matrix)".into());
    }
    let rows: Result<Vec<Vec<f64>>, String> = rows_spec
        .split(';')
        .map(|row| {
            row.split(',')
                .map(|x| {
                    x.trim()
                        .parse::<f64>()
                        .map_err(|e| format!("bad entry `{x}`: {e}"))
                })
                .collect()
        })
        .collect();
    let noise = NoiseMatrix::from_rows(rows?).map_err(err)?;
    let delta = noise
        .upper_bound_level()
        .ok_or("matrix is not δ-upper bounded for any δ ≤ 1/d; reduction does not apply")?;
    let reduction = noise.artificial_noise().map_err(err)?;
    println!("input channel N (δ = {delta:.4}):");
    println!("{:?}", noise.as_matrix());
    println!(
        "artificial noise P = N⁻¹·T (δ' = f(δ) = {:.4}):",
        reduction.uniform_level()
    );
    println!("{:?}", reduction.artificial().as_matrix());
    let composed = noise.compose(reduction.artificial()).map_err(err)?;
    println!("composed N·P (exactly δ'-uniform):");
    println!("{:?}", composed.as_matrix());
    Ok(())
}

/// `sweep run SPEC --out DIR` — run (or `--resume`) a checkpointed
/// parameter sweep described by a spec file.
pub fn sweep_run(args: &Args) -> CliResult {
    let out: PathBuf = args
        .get_opt("out")
        .map_err(err)?
        .ok_or("sweep run: missing --out DIR")?;
    let checkpoint_every = args.get_or("checkpoint-every", 16u64).map_err(err)?;
    let stop_after = args.get_opt("stop-after").map_err(err)?;
    let threads = args
        .get_or("threads", np_engine::runner::suggested_threads())
        .map_err(err)?;
    let resume = args.switch("resume").map_err(err)?;
    args.finish().map_err(err)?;
    let spec_path = match args.positional() {
        [path] => PathBuf::from(path),
        [] => return Err("sweep run: missing SPEC file".into()),
        more => {
            return Err(format!(
                "sweep run: expected one SPEC file, got {}",
                more.len()
            ))
        }
    };
    let spec = np_sweep::spec::SweepSpec::load(&spec_path).map_err(err)?;
    let jobs = spec.jobs().len();
    println!(
        "sweep: {jobs} job(s) from {} → {}",
        spec_path.display(),
        out.display()
    );
    let opts = np_sweep::scheduler::SweepOptions {
        out,
        checkpoint_every,
        stop_after,
        threads,
        resume,
    };
    let outcome = np_sweep::scheduler::run_sweep(&spec, &opts).map_err(err)?;
    if outcome.stopped_early {
        println!("sweep: stopped after --stop-after checkpoint budget; continue with --resume");
    } else {
        println!(
            "sweep: {} job(s) run, {} already done; report: {}",
            outcome.completed,
            outcome.skipped,
            outcome
                .report
                .as_deref()
                .map_or_else(|| "-".to_string(), |p| p.display().to_string())
        );
    }
    Ok(())
}

/// Flags of the `cluster` subcommand, parsed independently of
/// [`CommonFlags`]: the node runtime has its own timing vocabulary and
/// deliberately rejects the round-engine flags that have no meaning for
/// the event-driven node runtime.
struct ClusterFlags {
    cfg: np_net::cluster::ClusterConfig,
    plan: np_net::faults::NetFaultPlan,
    /// Local round at which the last fault has been applied (drive the
    /// cluster past this point before measuring re-convergence).
    heal_round: Option<u64>,
    c1: f64,
    intervals: u64,
    summary_out: Option<PathBuf>,
}

impl ClusterFlags {
    fn from_args(args: &Args, protocol_name: &str) -> Result<Self, String> {
        Self::check_cluster_flags(args)?;
        let n = args.get_or("n", 64usize).map_err(err)?;
        let s0 = args.get_or("s0", 0usize).map_err(err)?;
        let s1 = args.get_or("s1", 1usize).map_err(err)?;
        let h = args
            .get_or("h", (n as f64).ln().ceil().max(1.0) as usize)
            .map_err(err)?;
        let delta = args.get_or("delta", 0.2f64).map_err(err)?;
        let seed = args.get_or("seed", 42u64).map_err(err)?;
        let default_c1 = if protocol_name == "sf" { 1.0 } else { 16.0 };
        let c1 = args.get_or("c1", default_c1).map_err(err)?;
        let intervals = args.get_or("budget-intervals", 10u64).map_err(err)?;
        let tick_us = args.get_or("tick-us", 1_000u64).map_err(err)?;
        let latency_us = args.get_or("latency-us", 50u64).map_err(err)?;
        let jitter_us = args.get_or("jitter-us", 100u64).map_err(err)?;
        let stagger_us = args.get_or("stagger-us", tick_us).map_err(err)?;
        let drop = args.get_or("drop", 0.0f64).map_err(err)?;
        let summary_out = args.get_opt::<PathBuf>("metrics-out").map_err(err)?;
        let partition_at = args.get_opt::<u64>("partition-at").map_err(err)?;
        let heal_at = args.get_opt::<u64>("heal-at").map_err(err)?;
        let split = args.get_opt::<usize>("partition-split").map_err(err)?;
        args.finish().map_err(err)?;
        let mut cfg = np_net::cluster::ClusterConfig::new(n, s0, s1, h, delta, seed);
        cfg.tick_ns = tick_us.saturating_mul(1_000);
        cfg.min_latency_ns = latency_us.saturating_mul(1_000);
        cfg.jitter_ns = jitter_us.saturating_mul(1_000);
        cfg.stagger_ns = stagger_us.saturating_mul(1_000);
        cfg.drop_rate = drop;
        let mut plan = np_net::faults::NetFaultPlan::new();
        let mut heal_round = None;
        match (partition_at, heal_at) {
            (Some(at), heal) => {
                let split = u64::try_from(split.unwrap_or(n / 2)).map_err(err)?;
                plan = plan.at_ns(
                    at.saturating_mul(cfg.tick_ns),
                    np_net::faults::NetFault::Partition { split },
                );
                heal_round = Some(at);
                if let Some(hr) = heal {
                    if hr <= at {
                        return Err(format!(
                            "cluster: --heal-at {hr} must come after --partition-at {at}"
                        ));
                    }
                    plan = plan.at_ns(
                        hr.saturating_mul(cfg.tick_ns),
                        np_net::faults::NetFault::Heal,
                    );
                    heal_round = Some(hr);
                }
            }
            (None, Some(_)) => {
                return Err("cluster: --heal-at requires --partition-at".into());
            }
            (None, None) => {
                if split.is_some() {
                    return Err("cluster: --partition-split requires --partition-at".into());
                }
            }
        }
        Ok(ClusterFlags {
            cfg,
            plan,
            heal_round,
            c1,
            intervals,
            summary_out,
        })
    }

    /// The cluster analogue of [`CommonFlags::check_mean_field_flags`]:
    /// round-engine flags that the node runtime cannot honour are
    /// rejected with an explanation rather than silently ignored.
    fn check_cluster_flags(args: &Args) -> Result<(), String> {
        let reject = |flag: &str, why: &str| Err(format!("cluster does not support {flag}: {why}"));
        if args.get_opt::<String>("topology").map_err(err)?.is_some() {
            return reject(
                "--topology",
                "the node runtime samples pull targets uniformly over all peers \
                 (complete graph); restricted graphs are a round-engine `run` feature",
            );
        }
        if args.get_opt::<String>("backend").map_err(err)?.is_some() {
            return reject(
                "--backend",
                "the cluster driver always runs per-node event loops; the mean-field \
                 counts engine has no per-node state to place behind a transport",
            );
        }
        if !args.get_all("fault").is_empty() {
            return reject(
                "--fault",
                "round-indexed state corruption needs the round engine's global \
                 barrier; use --partition-at/--heal-at for transport-level faults",
            );
        }
        if args.get_opt::<String>("restore").map_err(err)?.is_some()
            || args.get_opt::<String>("checkpoint").map_err(err)?.is_some()
        {
            return reject(
                "--restore/--checkpoint",
                "np-snap/v1 snapshots capture a globally synchronised round, which \
                 an asynchronous cluster never occupies",
            );
        }
        Ok(())
    }
}

/// Shared driver for `cluster` over either protocol: builds the
/// simulated-time cluster, runs it to convergence (driving past the fault
/// plan first, so a partition is actually exercised), prints the report,
/// and optionally writes an `np-run-summary/v1` artifact.
fn run_cluster<P: Protocol>(
    protocol: &P,
    label: &str,
    flags: &ClusterFlags,
    budget: u64,
) -> CliResult {
    let mut cluster =
        np_net::sim::SimCluster::new(&flags.cfg, protocol, &flags.plan).map_err(err)?;
    if let Some(heal) = flags.heal_round {
        cluster.run_until_round(heal).map_err(err)?;
    }
    let reconverged = cluster.run_until_correct(budget).map_err(err)?;
    if let (Some(heal), Some(at)) = (flags.heal_round, reconverged) {
        println!(
            "cluster heal: re-converged at round {at} ({} rounds after the last fault)",
            at.saturating_sub(heal)
        );
    }
    let report = cluster.report();
    if report.converged {
        println!(
            "{label} cluster[sim]: converged at round {} / {budget} \
             ({:.2} ms, {} messages, {} dropped, {} stale, {} skipped)",
            report.convergence_round.unwrap_or(report.rounds),
            report.elapsed_ms,
            report.messages_total,
            report.drops_total,
            report.stale_total,
            report.skipped_total,
        );
    } else {
        println!(
            "{label} cluster[sim]: NO convergence within {budget} rounds \
             ({}/{} correct, {} messages)",
            report.final_correct, report.n, report.messages_total,
        );
    }
    println!("cluster digest: {:#018x}", report.digest);
    if let Some(path) = &flags.summary_out {
        let summary = RunSummary {
            protocol: format!("{}-cluster-sim", label.to_lowercase()),
            n: report.n,
            h: report.h,
            s0: flags.cfg.s0,
            s1: flags.cfg.s1,
            seed: report.seed,
            rounds: report.rounds,
            consensus: report.converged,
            final_correct: report.final_correct,
            final_margin: report.final_correct as f64 - report.n as f64 / 2.0,
            weak_formed: report.weak_formed,
            weak_correct: report.weak_correct,
            faults: Vec::new(),
        };
        summary.save(path).map_err(err)?;
        println!("cluster summary: {}", path.display());
    }
    Ok(())
}

/// `cluster` — run the protocol on the event-driven node runtime
/// (`np_net`) over its simulated-time transport.
pub fn cluster_cmd(args: &Args) -> CliResult {
    let protocol_name = args.str_or("protocol", "ssf");
    if protocol_name != "sf" && protocol_name != "ssf" {
        return Err(format!(
            "cluster does not support --protocol {protocol_name}: the node runtime \
             implements the paper's pull protocols only (sf | ssf); push and other \
             baselines are round-engine `run baseline` features"
        ));
    }
    let flags = ClusterFlags::from_args(args, &protocol_name)?;
    let config = flags.cfg.population().map_err(err)?;
    if protocol_name == "sf" {
        let params = SfParams::derive(&config, flags.cfg.delta, flags.c1).map_err(err)?;
        println!(
            "SF cluster[sim]: n={} h={} δ={} c1={} → m={} schedule={} rounds",
            flags.cfg.n,
            flags.cfg.h,
            flags.cfg.delta,
            flags.c1,
            params.m(),
            params.total_rounds()
        );
        let budget = params.total_rounds();
        run_cluster(&SourceFilter::new(params), "SF", &flags, budget)
    } else {
        let params = SsfParams::derive(&config, flags.cfg.delta, flags.c1).map_err(err)?;
        println!(
            "SSF cluster[sim]: n={} h={} δ={} c1={} → m={} interval={} rounds",
            flags.cfg.n,
            flags.cfg.h,
            flags.cfg.delta,
            flags.c1,
            params.m(),
            params.update_interval()
        );
        let budget = interval_budget(flags.intervals, &params)?;
        run_cluster(
            &SelfStabilizingSourceFilter::new(params),
            "SSF",
            &flags,
            budget,
        )
    }
}

/// Formats an opinion for messages.
pub fn opinion_name(o: Opinion) -> &'static str {
    match o {
        Opinion::Zero => "0",
        Opinion::One => "1",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().copied()).unwrap()
    }

    #[test]
    fn sf_small_run_succeeds() {
        run_sf(&args(&["--n", "64", "--delta", "0.1", "--seed", "1"])).unwrap();
    }

    #[test]
    fn sf_rejects_unknown_flag() {
        let e = run_sf(&args(&["--n", "64", "--bogus", "1"])).unwrap_err();
        assert!(e.contains("--bogus"));
    }

    #[test]
    fn ssf_small_run_succeeds() {
        run_ssf(&args(&[
            "--n",
            "64",
            "--delta",
            "0.1",
            "--c1",
            "8",
            "--adversary",
            "all-wrong",
        ]))
        .unwrap();
    }

    #[test]
    fn ssf_rejects_unknown_adversary() {
        let e = run_ssf(&args(&["--n", "64", "--adversary", "gremlin"])).unwrap_err();
        assert!(e.contains("gremlin"));
    }

    #[test]
    fn baselines_run() {
        for name in ["voter", "majority", "trusting-copy", "mean-estimator"] {
            run_baseline(
                name,
                &args(&["--n", "32", "--budget", "20", "--delta", "0.1"]),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        run_baseline("push", &args(&["--n", "32", "--h", "1", "--delta", "0.1"])).unwrap();
        assert!(run_baseline("nope", &args(&[])).is_err());
    }

    #[test]
    fn sf_writes_trace_and_summary_files() {
        let dir = std::env::temp_dir().join("np_cli_observability_test");
        let trace = dir.join("t.jsonl");
        let summary = dir.join("s.json");
        run_sf(&args(&[
            "--n",
            "64",
            "--delta",
            "0.1",
            "--seed",
            "1",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-out",
            summary.to_str().unwrap(),
        ]))
        .unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.lines().count() > 1);
        assert!(trace_text.starts_with("{\"round\":1,"));
        let summary_text = std::fs::read_to_string(&summary).unwrap();
        assert!(summary_text.contains("\"schema\": \"np-run-summary/v1\""));
        assert!(summary_text.contains("\"protocol\": \"SF\""));
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(summary).ok();
    }

    #[test]
    fn mean_field_backend_runs_sf_and_ssf() {
        run_sf(&args(&[
            "--n",
            "256",
            "--delta",
            "0.1",
            "--seed",
            "1",
            "--backend",
            "mean-field",
        ]))
        .unwrap();
        run_ssf(&args(&[
            "--n",
            "256",
            "--delta",
            "0.1",
            "--c1",
            "8",
            "--backend",
            "mean-field",
        ]))
        .unwrap();
    }

    #[test]
    fn mean_field_backend_writes_trace_and_summary() {
        let dir = std::env::temp_dir().join("np_cli_mean_field_test");
        let trace = dir.join("t.jsonl");
        let summary = dir.join("s.json");
        run_sf(&args(&[
            "--n",
            "128",
            "--delta",
            "0.1",
            "--backend",
            "mean-field",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-out",
            summary.to_str().unwrap(),
        ]))
        .unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.starts_with("{\"round\":1,"));
        let summary_text = std::fs::read_to_string(&summary).unwrap();
        assert!(summary_text.contains("\"schema\": \"np-run-summary/v1\""));
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(summary).ok();
    }

    #[test]
    fn mean_field_backend_rejects_per_agent_features() {
        let check = |flags: &[&str], needle: &str| {
            let mut v = vec!["--n", "64", "--backend", "mean-field"];
            v.extend_from_slice(flags);
            let e = run_sf(&args(&v)).unwrap_err();
            assert!(e.contains(needle), "{flags:?} → {e}");
        };
        check(&["--exact"], "--exact");
        check(&["--fault", "3:flip"], "--fault");
        check(&["--restore", "x.snap"], "--restore");
        check(&["--checkpoint", "x.snap"], "--checkpoint");
        check(&["--digest"], "--digest");
        let e = run_ssf(&args(&[
            "--n",
            "64",
            "--c1",
            "8",
            "--backend",
            "mean-field",
            "--adversary",
            "all-wrong",
        ]))
        .unwrap_err();
        assert!(e.contains("--adversary"), "{e}");
        let e = run_sf(&args(&["--n", "64", "--backend", "quantum"])).unwrap_err();
        assert!(e.contains("unknown backend"), "{e}");
        let e =
            run_baseline("voter", &args(&["--n", "32", "--backend", "mean-field"])).unwrap_err();
        assert!(e.contains("sf and ssf"), "{e}");
    }

    #[test]
    fn topology_flag_runs_sf_and_ssf_on_sparse_graphs() {
        run_sf(&args(&[
            "--n",
            "64",
            "--h",
            "8",
            "--delta",
            "0.1",
            "--seed",
            "1",
            "--topology",
            "ring:4",
        ]))
        .unwrap();
        run_ssf(&args(&[
            "--n",
            "64",
            "--h",
            "8",
            "--delta",
            "0.1",
            "--c1",
            "8",
            "--topology",
            "regular:12",
        ]))
        .unwrap();
        // `--topology complete` is the explicit no-op seam.
        run_sf(&args(&["--n", "64", "--topology", "complete"])).unwrap();
    }

    #[test]
    fn topology_flag_is_rejected_where_meaningless() {
        // Mean-field backend: no per-agent rows, exchangeability assumed.
        let e = run_sf(&args(&[
            "--n",
            "64",
            "--backend",
            "mean-field",
            "--topology",
            "ring:4",
        ]))
        .unwrap_err();
        assert!(
            e.contains("--topology") && e.contains("exchangeability"),
            "{e}"
        );
        // Baselines pin the complete-graph model.
        let e = run_baseline("voter", &args(&["--n", "32", "--topology", "ring:4"])).unwrap_err();
        assert!(e.contains("sf and ssf"), "{e}");
        // A restored snapshot already carries its topology; the conflict
        // is caught at flag parse time, before any file I/O.
        let e = run_sf(&args(&[
            "--n",
            "64",
            "--restore",
            "/no/such/file.snap",
            "--topology",
            "ring:4",
        ]))
        .unwrap_err();
        assert!(e.contains("--restore") && !e.contains("cannot read"), "{e}");
        // Malformed specs are caught at flag parse time.
        let e = run_sf(&args(&["--n", "64", "--topology", "torus:3"])).unwrap_err();
        assert!(e.contains("--topology") && e.contains("torus"), "{e}");
        // An unrealizable graph is caught before the run starts.
        let e = run_sf(&args(&["--n", "64", "--topology", "ring:40"])).unwrap_err();
        assert!(e.contains("bad topology"), "{e}");
    }

    #[test]
    fn parse_faults_accepts_the_full_grammar() {
        let specs: Vec<String> = ["3:flip", "5:noise:0.2", "7:ramp:0.24:10", "9:sleep:0.5:4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let plan: FaultPlan<SsfColumns> = parse_faults(&specs, 4, 0.1, no_corrupt_kinds).unwrap();
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn parse_faults_rejects_malformed_specs() {
        let check = |spec: &str, needle: &str| {
            let e = parse_faults::<SsfColumns>(&[spec.to_string()], 4, 0.1, no_corrupt_kinds)
                .unwrap_err();
            assert!(e.contains(needle), "`{spec}` → {e}");
        };
        check("nope", "round:kind");
        check("x:flip", "bad round");
        check("3:flip:extra", "arity");
        check("3:noise", "arity");
        check("3:noise:zzz", "number");
        check("3:sleep:0.5", "arity");
        check("3:ramp:0.3:q", "round count");
        check("3:gremlin", "unknown kind");
        // δ beyond the d=4 bound is caught while building the matrix.
        check("3:noise:0.9", "--fault 3:noise:0.9");
    }

    #[test]
    fn ssf_run_with_faults_reports_recovery() {
        let dir = std::env::temp_dir().join("np_cli_fault_test");
        let summary = dir.join("s.json");
        run_ssf(&args(&[
            "--n",
            "64",
            "--delta",
            "0.1",
            "--c1",
            "8",
            "--fault",
            "40:all-wrong",
            "--fault=60:sleep:0.5:3",
            "--metrics-out",
            summary.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&summary).unwrap();
        assert!(text.contains("\"faults\""), "{text}");
        assert!(text.contains("\"label\": \"all-wrong:"), "{text}");
        assert!(text.contains("\"label\": \"sleep:"), "{text}");
        std::fs::remove_file(summary).ok();
    }

    #[test]
    fn sf_rejects_adversary_fault_kinds() {
        let e = run_sf(&args(&["--n", "64", "--fault", "5:all-wrong"])).unwrap_err();
        assert!(e.contains("flip, noise, ramp and sleep"), "{e}");
    }

    #[test]
    fn fault_scheduled_at_round_zero_is_rejected() {
        let e = run_sf(&args(&["--n", "64", "--fault", "0:flip"])).unwrap_err();
        assert!(e.contains("bad fault plan"), "{e}");
    }

    #[test]
    fn baselines_reject_fault_flags() {
        let e = run_baseline("voter", &args(&["--n", "32", "--fault", "3:flip"])).unwrap_err();
        assert!(e.contains("sf and ssf"), "{e}");
    }

    #[test]
    fn trace_flags_rejected_for_push_baseline() {
        let e = run_baseline(
            "push",
            &args(&["--n", "32", "--h", "1", "--trace", "t.jsonl"]),
        )
        .unwrap_err();
        assert!(e.contains("push"), "{e}");
    }

    #[test]
    fn sf_checkpoint_restore_reproduces_the_straight_trace() {
        let dir = std::env::temp_dir().join("np_cli_checkpoint_test");
        std::fs::remove_dir_all(&dir).ok();
        let snap = dir.join("sf.snap");
        let straight = dir.join("straight.jsonl");
        let resumed = dir.join("resumed.jsonl");
        let base = ["--n", "64", "--delta", "0.1", "--seed", "9"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            args(&v)
        };
        // Straight run, tracing; also drops checkpoints along the way.
        run_sf(&with(&[
            "--trace",
            straight.to_str().unwrap(),
            "--checkpoint",
            snap.to_str().unwrap(),
            "--checkpoint-every",
            "8",
        ]))
        .unwrap();
        // Restore the last checkpoint and finish the run: the full trace
        // must be byte-identical to the straight run's.
        run_sf(&with(&[
            "--restore",
            snap.to_str().unwrap(),
            "--trace",
            resumed.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&straight).unwrap(),
            std::fs::read(&resumed).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        let e = run_sf(&args(&["--n", "64", "--checkpoint-every", "8"])).unwrap_err();
        assert!(e.contains("requires --checkpoint"), "{e}");
        let e = run_sf(&args(&[
            "--n",
            "64",
            "--checkpoint",
            "x.snap",
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        let e = run_baseline("voter", &args(&["--n", "32", "--restore", "x.snap"])).unwrap_err();
        assert!(e.contains("sf and ssf"), "{e}");
        let e = run_sf(&args(&["--n", "64", "--restore", "/no/such/file.snap"])).unwrap_err();
        assert!(e.contains("cannot read snapshot"), "{e}");
    }

    #[test]
    fn sweep_run_and_resume_via_cli() {
        let dir = std::env::temp_dir().join("np_cli_sweep_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.txt");
        std::fs::write(
            &spec,
            "protocol = sf\nn = 32\ndelta = 0.1\nruns = 2\nseed = 3\n",
        )
        .unwrap();
        let out = dir.join("out");
        sweep_run(&args(&[
            spec.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--checkpoint-every",
            "8",
        ]))
        .unwrap();
        let report = std::fs::read_to_string(out.join("report.json")).unwrap();
        assert!(report.contains("\"schema\": \"np-bench/v1\""));
        // Re-running without --resume refuses; with --resume it skips.
        let e = sweep_run(&args(&[
            spec.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(e.contains("--resume"), "{e}");
        sweep_run(&args(&[
            spec.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--resume",
        ]))
        .unwrap();
        let e = sweep_run(&args(&["--out", out.to_str().unwrap()])).unwrap_err();
        assert!(e.contains("missing SPEC"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn theory_prints_for_valid_and_degenerate_inputs() {
        theory_cmd(&args(&["--n", "1024", "--delta", "0.2"])).unwrap();
        // δ too high for SF/SSF bounds: still succeeds, printing n/a.
        theory_cmd(&args(&["--n", "1024", "--delta", "0.45"])).unwrap();
    }

    #[test]
    fn reduce_parses_and_derives() {
        reduce_cmd(&args(&["--rows", "0.9,0.1;0.2,0.8"])).unwrap();
        assert!(reduce_cmd(&args(&[])).is_err());
        assert!(reduce_cmd(&args(&["--rows", "0.9,x;0.2,0.8"])).is_err());
        assert!(reduce_cmd(&args(&["--rows", "0.3,0.7;0.7,0.3"])).is_err());
    }

    #[test]
    fn opinion_names() {
        assert_eq!(opinion_name(Opinion::Zero), "0");
        assert_eq!(opinion_name(Opinion::One), "1");
    }
}
