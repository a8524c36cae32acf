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
use np_engine::metrics::{save_trace_jsonl, RunSummary, StageTimings, TraceRecorder};
use np_engine::opinion::Opinion;
use np_engine::population::PopulationConfig;
use np_engine::protocol::{AgentRecords, ColumnarProtocol, Protocol};
use np_engine::push::PushWorld;
use np_engine::run::Run;
use np_engine::snapshot::{save_atomic, SnapshotState};
use np_engine::streams::StreamRng;
use np_engine::topology::TopologySpec;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_sweep::spec::BackendKind;

use crate::args::{Args, ArgsError};

/// Top-level error type for the CLI: every failure is reported as text.
pub type CliResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
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
    backend: BackendKind,
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
        let backend = BackendKind::parse(&args.str_or("backend", "per-agent"))
            .map_err(|e| ArgsError(format!("flag --backend: {e}")))?;
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
    fn tune<P: ColumnarProtocol>(&self, world: &mut World<P>) {
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

/// The per-round hook sf/ssf use to write `--checkpoint` snapshots.
/// Snapshots are never taken of a consensus or end-of-budget state: a
/// checkpoint always has live work after it.
fn checkpoint_hook<P>(
    common: &CommonFlags,
    budget: u64,
) -> impl FnMut(&World<P>) -> Result<(), String> + '_
where
    P: ColumnarProtocol,
    P::State: SnapshotState,
{
    move |world: &World<P>| {
        let Some(path) = &common.checkpoint else {
            return Ok(());
        };
        if world.round().is_multiple_of(common.checkpoint_every)
            && world.round() < budget
            && !world.is_consensus()
        {
            save_atomic(path, &world.snapshot()).map_err(err)?;
        }
        Ok(())
    }
}

/// What [`report_run`] needs beyond [`Run`]: the summary's config and
/// seed (a `--restore`d world keeps the seed of the run that produced the
/// snapshot), and the lines only the per-agent engine prints.
trait Reported: Run {
    fn identity(&self) -> (&PopulationConfig, u64);

    fn outcome_digest(&self) -> Option<u64> {
        None
    }

    fn stage_timings(&self) -> Option<&StageTimings> {
        None
    }
}

impl<P: ColumnarProtocol> Reported for World<P> {
    fn identity(&self) -> (&PopulationConfig, u64) {
        (self.config(), self.seed())
    }

    fn outcome_digest(&self) -> Option<u64> {
        Some(World::outcome_digest(self))
    }

    fn stage_timings(&self) -> Option<&StageTimings> {
        self.trace().map(TraceRecorder::timings)
    }
}

impl<P: CountsProtocol> Reported for CountsWorld<P> {
    fn identity(&self) -> (&PopulationConfig, u64) {
        (self.config(), self.seed())
    }
}

/// Runs `world` to round `budget` through the settle loop, calling
/// `on_round` after every round, and reports the run: the settle line,
/// `--digest`, fault recoveries, the stage wall-clock line, `--trace` and
/// `--metrics-out`.
fn report_run<W: Reported>(
    world: &mut W,
    budget: u64,
    label: &str,
    common: &CommonFlags,
    on_round: impl FnMut(&W) -> Result<(), String>,
) -> CliResult {
    // A world carries a fault plan exactly when `--fault` was given.
    let faulted = !common.faults.is_empty();
    let traced = common.observing() || faulted;
    if traced {
        world.record_trace();
    }
    // A `--restore`d world starts mid-run: the settle loop executes only
    // the remaining rounds.
    match world.settle_with(budget, on_round)? {
        Some(round) => println!("{label}: consensus settled at round {round} / {budget}"),
        None => println!(
            "{label}: NO consensus within {budget} rounds ({}/{} correct)",
            world.correct_count(),
            world.n()
        ),
    }
    if common.digest {
        if let Some(digest) = world.outcome_digest() {
            println!("{label} digest: {digest:#018x}");
        }
    }
    if !traced {
        return Ok(());
    }
    let rounds = world.traced_rounds();
    let recoveries = if faulted {
        recovery_times(rounds)
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
    if let Some(t) = world.stage_timings() {
        println!(
            "{label} stage wall-clock: display {:.3?}, observe {:.3?}, update {:.3?}, collect {:.3?}",
            t.display, t.observe, t.update, t.collect
        );
    }
    if let Some(path) = &common.trace {
        save_trace_jsonl(path, rounds).map_err(err)?;
        println!("{label} trace: {}", path.display());
    }
    if let Some(path) = &common.metrics_out {
        let last = rounds
            .last()
            .ok_or("--metrics-out: no rounds were executed (budget 0?)")?;
        let (config, seed) = world.identity();
        RunSummary::from_final_metrics(label, config, seed, last)
            .with_faults(recoveries)
            .save(path)
            .map_err(err)?;
        println!("{label} summary: {}", path.display());
    }
    Ok(())
}

/// The per-agent world of `run sf|ssf`: restored from `--restore` or
/// built fresh, tuned to `--threads`, put on `--topology`, and given the
/// `--fault` plan. `prepare` runs on a fresh world only (SSF's initial
/// corruption is part of round 0; a restored world already carries its
/// effects in the snapshot).
///
/// A snapshot stores the fault cursor but not the plan, so restoring one
/// whose cursor is past 0 without `--fault` is refused: the rest of its
/// plan would be dropped without a word. A snapshot taken before its
/// plan's first event (cursor 0) cannot be told from one taken without a
/// plan, because the plan's length is not stored either; that restore
/// runs fault-free.
fn agent_world<P>(
    protocol: &P,
    config: PopulationConfig,
    noise: &NoiseMatrix,
    common: &CommonFlags,
    plan: FaultPlan<P::State>,
    prepare: impl FnOnce(&mut World<P>),
) -> Result<World<P>, String>
where
    P: ColumnarProtocol,
    P::State: SnapshotState,
{
    let mut world = match &common.restore {
        Some(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
            let world = World::restore(protocol, &bytes).map_err(err)?;
            println!(
                "restored {} from round {} (seed {})",
                path.display(),
                world.round(),
                world.seed()
            );
            world
        }
        None => World::new(protocol, config, noise, common.channel(), common.seed).map_err(err)?,
    };
    common.tune(&mut world);
    // `--topology --restore` was rejected at flag parse time (a snapshot
    // carries the topology it was taken under), so this world is fresh.
    if let Some(spec) = common.topology {
        world.set_topology(spec).map_err(err)?;
        println!("topology: {}", spec.label());
    }
    if common.restore.is_none() {
        prepare(&mut world);
    }
    if !common.faults.is_empty() {
        if common.restore.is_some() {
            // The snapshot carries the fault *cursor*; re-supply the full
            // plan so pending events keep their stream coordinates.
            world.reattach_fault_plan(plan).map_err(err)?;
        } else {
            world.set_fault_plan(plan).map_err(err)?;
        }
    } else if let (Some(path), cursor @ 1..) = (&common.restore, world.fault_cursor()) {
        return Err(format!(
            "snapshot {} was taken mid fault plan (fault cursor {cursor}: {cursor} events \
             already fired); re-supply the same --fault flags to continue it",
            path.display()
        ));
    }
    Ok(world)
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
    let budget = params.total_rounds();
    if common.backend == BackendKind::MeanField {
        common.check_mean_field_flags()?;
        let mut world = CountsWorld::new(&protocol, config, &noise, common.seed).map_err(err)?;
        return report_run(&mut world, budget, "SF", &common, |_| Ok(()));
    }
    let plan = parse_faults(&common.faults, 2, common.delta, no_corrupt_kinds)?;
    let mut world = agent_world(&protocol, config, &noise, &common, plan, |_| {})?;
    let hook = checkpoint_hook(&common, budget);
    report_run(&mut world, budget, "SF", &common, hook)
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
    let budget = params
        .interval_budget(intervals)
        .map_err(|e| format!("flag --budget-intervals: {e}"))?;
    if common.backend == BackendKind::MeanField {
        common.check_mean_field_flags()?;
        if adversary != SsfAdversary::None {
            return Err(
                "--backend mean-field does not support --adversary: initial corruption \
                 addresses individual agents"
                    .into(),
            );
        }
        let mut world = CountsWorld::new(&protocol, config, &noise, common.seed).map_err(err)?;
        return report_run(&mut world, budget, "SSF", &common, |_| Ok(()));
    }
    let correct = config.correct_opinion();
    let m = params.m();
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
    let mut world = agent_world(&protocol, config, &noise, &common, plan, |world| {
        world.corrupt_agents(|id, agent, rng| adversary.corrupt(agent, correct, m, id, rng));
    })?;
    let hook = checkpoint_hook(&common, budget);
    report_run(&mut world, budget, "SSF", &common, hook)
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
    if common.backend != BackendKind::PerAgent {
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
        "voter" => run_pull_baseline(&ZealotVoter, "zealot-voter", config, budget, &common),
        "majority" => run_pull_baseline(&HMajority, "h-majority", config, budget, &common),
        "trusting-copy" => {
            run_pull_baseline(&TrustingCopy, "trusting-copy", config, budget, &common)
        }
        "mean-estimator" => {
            let proto = MeanEstimator::new(common.delta).map_err(err)?;
            run_pull_baseline(&proto, "mean-estimator", config, budget, &common)
        }
        "push" => {
            if common.observing() {
                return Err(
                    "--trace/--metrics-out are not supported for the push baseline: it runs \
                     in the PUSH world, which has no run-observer hook"
                        .into(),
                );
            }
            let params =
                PushSpreadingParams::derive(common.n, common.h, common.delta).map_err(err)?;
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
            Ok(())
        }
        other => Err(format!(
            "unknown baseline `{other}`; known: voter, majority, trusting-copy, mean-estimator, push"
        )),
    }
}

/// Runs one PULL baseline on the per-agent engine under uniform noise.
fn run_pull_baseline<P: ColumnarProtocol>(
    protocol: &P,
    label: &str,
    config: PopulationConfig,
    budget: u64,
    common: &CommonFlags,
) -> CliResult {
    let noise = NoiseMatrix::uniform(protocol.alphabet_size(), common.delta).map_err(err)?;
    let mut world =
        World::new(protocol, config, &noise, common.channel(), common.seed).map_err(err)?;
    common.tune(&mut world);
    report_run(&mut world, budget, label, common, |_| Ok(()))
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
        let budget = params
            .interval_budget(flags.intervals)
            .map_err(|e| format!("flag --budget-intervals: {e}"))?;
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
    fn mean_field_backend_runs_ssf() {
        // SF on the mean-field backend is pinned through the binary.
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
