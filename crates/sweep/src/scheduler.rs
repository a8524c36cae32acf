//! The sweep scheduler: fans jobs over [`np_engine::runner::scatter`],
//! checkpoints worlds every K rounds, resumes from the manifest, and
//! aggregates finished jobs into an `np-bench/v1` report.
//!
//! Parallelism layout: the scheduler parallelizes *across* jobs (each
//! worker owns one world at a time) and pins every world to one engine
//! thread, complementing — not multiplying with — the engine's intra-round
//! chunk parallelism. Results never depend on the worker count: each job
//! is a pure function of its [`JobSpec`], and the aggregate visits jobs in
//! spec order regardless of completion order.
//!
//! Checkpoint discipline: the loop steps, checks consensus (and breaks),
//! and only then considers checkpointing — so a snapshot is never taken
//! of a consensus state or of a finished budget, and every checkpoint is
//! guaranteed to have live work after it. Snapshot files are written to
//! `checkpoints/<job>.snap` via a temp-file rename, and the manifest
//! record naming a checkpoint is appended only after the rename — a crash
//! between the two leaves the previous record (and its older snapshot)
//! authoritative.
//!
//! The aggregated `report.json` contains trajectory data only
//! (`mean_wall_ms` is pinned to 0), so an interrupted-and-resumed sweep
//! reproduces the uninterrupted report byte for byte. Nothing here reads a
//! wall clock.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::sf_alternating::AlternatingSourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_engine::channel::ChannelKind;
use np_engine::counts::{CountsProtocol, CountsWorld};
use np_engine::population::PopulationConfig;
use np_engine::protocol::ColumnarProtocol;
use np_engine::run::Run;
use np_engine::runner::scatter;
use np_engine::snapshot::{save_atomic, SnapshotState};
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

use crate::manifest::{append_record, latest, load_manifest, JobRecord, JobStatus};
use crate::report::{bench_json, PerfPoint};
use crate::spec::{BackendKind, JobSpec, ProtocolKind, SweepSpec};
use crate::{err, SweepError};

/// Scheduling options for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Output directory (manifest, checkpoints, report).
    pub out: PathBuf,
    /// Checkpoint cadence in rounds (must be ≥ 1).
    pub checkpoint_every: u64,
    /// Stop the whole sweep after this many checkpoint writes — the
    /// deterministic "kill" used by the CI resume gate. `None` runs to
    /// completion.
    pub stop_after: Option<u64>,
    /// Worker threads for job-level fan-out (clamped by `scatter`).
    pub threads: usize,
    /// Continue an interrupted sweep from its manifest instead of
    /// requiring a fresh output directory.
    pub resume: bool,
}

impl SweepOptions {
    /// Default options for an output directory: checkpoint every 16
    /// rounds, run to completion, one worker.
    pub fn new(out: PathBuf) -> Self {
        SweepOptions {
            out,
            checkpoint_every: 16,
            stop_after: None,
            threads: 1,
            resume: false,
        }
    }
}

/// What a [`run_sweep`] call accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Jobs that reached `done` during this call.
    pub completed: usize,
    /// Jobs skipped because the manifest already had them `done`.
    pub skipped: usize,
    /// `true` if `stop_after` tripped; the manifest is resumable and no
    /// report was written.
    pub stopped_early: bool,
    /// Path of the aggregated report (absent when stopped early).
    pub report: Option<PathBuf>,
}

/// Shared per-sweep state handed to scatter workers.
struct SweepCtx<'a> {
    out: &'a Path,
    manifest_path: PathBuf,
    /// Serializes manifest appends so lines never interleave.
    manifest_lock: Mutex<()>,
    checkpoint_every: u64,
    stop_after: Option<u64>,
    checkpoints_written: AtomicU64,
    stop: AtomicBool,
    errors: Mutex<Vec<String>>,
}

impl SweepCtx<'_> {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn append(&self, record: &JobRecord) -> Result<(), SweepError> {
        let _guard = self
            .manifest_lock
            .lock()
            .map_err(|_| SweepError("manifest lock poisoned".into()))?;
        append_record(&self.manifest_path, record).map_err(err)
    }

    /// Counts one checkpoint write; returns `true` if the sweep-wide
    /// `stop_after` budget is now exhausted (and flags the stop).
    fn note_checkpoint(&self) -> bool {
        let written = self.checkpoints_written.fetch_add(1, Ordering::SeqCst) + 1;
        let Some(limit) = self.stop_after else {
            return false;
        };
        if written >= limit {
            self.stop.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }
}

/// Runs (or resumes) a sweep. See the module docs for the discipline that
/// makes the resulting `report.json` independent of interruptions and
/// thread counts.
///
/// # Errors
///
/// Returns [`SweepError`] when the output directory already holds a
/// manifest and `resume` is off, for I/O failures, for invalid job
/// parameters, or when any job fails.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, SweepError> {
    if opts.checkpoint_every == 0 {
        return Err(SweepError(
            "checkpoint cadence must be at least 1 round".into(),
        ));
    }
    std::fs::create_dir_all(opts.out.join("checkpoints"))?;
    let manifest_path = opts.out.join("manifest.jsonl");
    let prior = if manifest_path.exists() {
        if !opts.resume {
            return Err(SweepError(format!(
                "{} already exists; pass --resume to continue it or choose a fresh --out",
                manifest_path.display()
            )));
        }
        load_manifest(&manifest_path)?
    } else {
        Vec::new()
    };

    let mut todo: Vec<(JobSpec, Option<JobRecord>)> = Vec::new();
    let mut skipped = 0usize;
    for job in spec.jobs() {
        match latest(&prior, &job.id) {
            Some(rec) if rec.status == JobStatus::Done => skipped += 1,
            other => todo.push((job, other.cloned())),
        }
    }

    let ctx = SweepCtx {
        out: &opts.out,
        manifest_path: manifest_path.clone(),
        manifest_lock: Mutex::new(()),
        checkpoint_every: opts.checkpoint_every,
        stop_after: opts.stop_after,
        checkpoints_written: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        errors: Mutex::new(Vec::new()),
    };
    let attempted = todo.len();
    scatter(opts.threads.max(1), todo, |(job, prior)| {
        if ctx.stopped() {
            return;
        }
        if let Err(e) = run_job(&job, prior.as_ref(), &ctx) {
            if let Ok(mut errors) = ctx.errors.lock() {
                errors.push(format!("{}: {e}", job.id));
            }
            ctx.stop.store(true, Ordering::SeqCst);
        }
    });
    let errors = ctx
        .errors
        .lock()
        .map_err(|_| SweepError("error list poisoned".into()))?;
    if !errors.is_empty() {
        return Err(SweepError(format!("sweep failed: {}", errors.join("; "))));
    }
    if ctx.stopped() {
        return Ok(SweepOutcome {
            // Some jobs may still have finished before the stop tripped;
            // the manifest, not this count, is authoritative.
            completed: 0,
            skipped,
            stopped_early: true,
            report: None,
        });
    }

    let records = load_manifest(&manifest_path)?;
    let points = aggregate(spec, &records)?;
    let report_path = opts.out.join("report.json");
    std::fs::write(&report_path, bench_json("sweep", &points))?;
    Ok(SweepOutcome {
        completed: attempted,
        skipped,
        stopped_early: false,
        report: Some(report_path),
    })
}

/// Builds the initial manifest record for a job (shared by every state
/// transition; callers override the lifecycle fields).
fn base_record(job: &JobSpec, budget: u64) -> JobRecord {
    JobRecord {
        job: job.id.clone(),
        protocol: job.protocol.name().to_string(),
        n: job.n,
        h: job.h,
        s0: job.s0,
        s1: job.s1,
        delta: job.delta,
        c1: job.c1,
        seed: job.seed,
        budget,
        status: JobStatus::Pending,
        checkpoint: None,
        round: 0,
        consensus: false,
        correct: 0,
    }
}

/// Runs one job to completion (or until the sweep-wide stop flag trips),
/// dispatching on the backend and the protocol.
fn run_job(job: &JobSpec, prior: Option<&JobRecord>, ctx: &SweepCtx<'_>) -> Result<(), SweepError> {
    let config = PopulationConfig::new(job.n, job.s0, job.s1, job.h).map_err(err)?;
    let sf = || SfParams::derive(&config, job.delta, job.c1).map_err(err);
    let ssf = || -> Result<(SsfParams, u64), SweepError> {
        let params = SsfParams::derive(&config, job.delta, job.c1).map_err(err)?;
        let budget = params
            .interval_budget(job.budget_intervals)
            .map_err(|e| SweepError(format!("budget-intervals: {e}")))?;
        Ok((params, budget))
    };
    match (job.backend, job.protocol) {
        (BackendKind::PerAgent, ProtocolKind::Sf) => {
            let params = sf()?;
            let protocol = SourceFilter::new(params);
            drive_agents(&protocol, config, params.total_rounds(), job, prior, ctx)
        }
        (BackendKind::PerAgent, ProtocolKind::SfAlt) => {
            let params = sf()?;
            let protocol = AlternatingSourceFilter::new(params);
            drive_agents(&protocol, config, params.total_rounds(), job, prior, ctx)
        }
        (BackendKind::PerAgent, ProtocolKind::Ssf) => {
            let (params, budget) = ssf()?;
            let protocol = SelfStabilizingSourceFilter::new(params);
            drive_agents(&protocol, config, budget, job, prior, ctx)
        }
        (BackendKind::MeanField, ProtocolKind::Sf) => {
            let params = sf()?;
            let protocol = SourceFilter::new(params);
            drive_counts(&protocol, config, params.total_rounds(), job, ctx)
        }
        (BackendKind::MeanField, ProtocolKind::Ssf) => {
            let (params, budget) = ssf()?;
            let protocol = SelfStabilizingSourceFilter::new(params);
            drive_counts(&protocol, config, budget, job, ctx)
        }
        // `SweepSpec::parse` rejects mean-field + sf-alt; guard anyway so a
        // hand-built spec fails loudly instead of silently running the
        // wrong engine.
        (BackendKind::MeanField, ProtocolKind::SfAlt) => Err(SweepError(
            "backend mean-field does not support protocol sf-alt".into(),
        )),
    }
}

/// A per-agent job: build or restore the world, then drive it,
/// checkpointing every K rounds.
fn drive_agents<P>(
    protocol: &P,
    config: PopulationConfig,
    budget: u64,
    job: &JobSpec,
    prior: Option<&JobRecord>,
    ctx: &SweepCtx<'_>,
) -> Result<(), SweepError>
where
    P: ColumnarProtocol,
    P::State: SnapshotState,
{
    let mut world = match prior {
        Some(rec) if rec.status == JobStatus::Checkpointed => {
            let rel = rec.checkpoint.as_deref().ok_or_else(|| {
                SweepError("checkpointed manifest record has no checkpoint path".into())
            })?;
            let bytes = std::fs::read(ctx.out.join(rel))
                .map_err(|e| SweepError(format!("cannot read checkpoint {rel}: {e}")))?;
            World::restore(protocol, &bytes).map_err(err)?
        }
        _ => {
            let noise =
                NoiseMatrix::uniform(job.protocol.alphabet_size(), job.delta).map_err(err)?;
            let mut world = World::new(protocol, config, &noise, ChannelKind::Aggregated, job.seed)
                .map_err(err)?;
            // Restored worlds skip this: an np-snap/v2 checkpoint already
            // carries the topology it was taken under.
            if !job.topology.is_complete() {
                world.set_topology(job.topology).map_err(err)?;
            }
            world
        }
    };
    // One engine thread per world: the sweep already parallelizes across
    // jobs, and oversubscribing cores would only add scheduling noise.
    world.set_threads(1);
    drive(&mut world, budget, job, ctx, |world| {
        if !world.round().is_multiple_of(ctx.checkpoint_every) || world.round() >= budget {
            return Ok(false);
        }
        let rel = format!("checkpoints/{}.snap", job.id);
        save_atomic(&ctx.out.join(&rel), &world.snapshot())?;
        let mut rec = base_record(job, budget);
        rec.status = JobStatus::Checkpointed;
        rec.checkpoint = Some(rel);
        rec.round = world.round();
        rec.correct = world.correct_count();
        ctx.append(&rec)?;
        Ok(ctx.note_checkpoint())
    })
}

/// A mean-field job: counts jobs are `O(states)` per round, so they run
/// atomically — no snapshots, no checkpoint records. A stop request
/// between rounds abandons the job (no record appended) and resume
/// re-runs it from scratch, which costs less than one per-agent
/// checkpoint restore.
fn drive_counts<P: CountsProtocol>(
    protocol: &P,
    config: PopulationConfig,
    budget: u64,
    job: &JobSpec,
    ctx: &SweepCtx<'_>,
) -> Result<(), SweepError> {
    // `SweepSpec::parse` rejects mean-field + non-complete topologies;
    // guard hand-built specs the same way the sf-alt arm does.
    if !job.topology.is_complete() {
        return Err(SweepError(format!(
            "backend mean-field does not support topology {}",
            job.topology.label()
        )));
    }
    let noise = NoiseMatrix::uniform(job.protocol.alphabet_size(), job.delta).map_err(err)?;
    let mut world = CountsWorld::new(protocol, config, &noise, job.seed).map_err(err)?;
    drive(&mut world, budget, job, ctx, |_| Ok(false))
}

/// The one job loop, for every backend: step until consensus or round
/// `budget`, offering each non-consensus round to `checkpoint`, then
/// append the `done` record. `checkpoint` returns `true` when the sweep
/// must stop; a stopped job (here or between rounds) leaves the manifest
/// as it last described the job, and resume re-runs the suffix
/// deterministically.
fn drive<W: Run>(
    world: &mut W,
    budget: u64,
    job: &JobSpec,
    ctx: &SweepCtx<'_>,
    mut checkpoint: impl FnMut(&W) -> Result<bool, SweepError>,
) -> Result<(), SweepError> {
    while world.round() < budget {
        if ctx.stopped() {
            return Ok(());
        }
        world.step();
        if world.is_consensus() {
            break;
        }
        if checkpoint(world)? {
            return Ok(());
        }
    }
    let mut rec = base_record(job, budget);
    rec.status = JobStatus::Done;
    rec.round = world.round();
    rec.consensus = world.is_consensus();
    rec.correct = world.correct_count();
    ctx.append(&rec)
}

/// Aggregates `done` records into one [`PerfPoint`] per grid point, in
/// spec order. Trajectory data only: `mean_wall_ms` is pinned to 0 so the
/// report is byte-identical however the sweep was scheduled.
///
/// # Errors
///
/// Returns [`SweepError`] if any expected job is missing or not `done`.
pub fn aggregate(spec: &SweepSpec, records: &[JobRecord]) -> Result<Vec<PerfPoint>, SweepError> {
    let jobs = spec.jobs();
    let mut points = Vec::new();
    for &protocol in &spec.protocols {
        for &n in &spec.ns {
            for &delta in &spec.deltas {
                for &topology in &spec.topologies {
                    let mut runs = 0usize;
                    let mut converged = 0usize;
                    let mut rounds_sum = 0.0f64;
                    #[expect(
                        clippy::float_cmp,
                        reason = "job and grid deltas are copies of the same spec.deltas \
                                  entry, so exact equality is the grouping intent"
                    )]
                    for job in jobs.iter().filter(|j| {
                        j.protocol == protocol
                            && j.n == n
                            && j.delta == delta
                            && j.topology == topology
                    }) {
                        let rec = latest(records, &job.id).ok_or_else(|| {
                            SweepError(format!("job {} has no manifest record", job.id))
                        })?;
                        if rec.status != JobStatus::Done {
                            return Err(SweepError(format!(
                                "job {} is {}, not done; resume the sweep first",
                                job.id,
                                rec.status.name()
                            )));
                        }
                        runs += 1;
                        if rec.consensus {
                            converged += 1;
                            rounds_sum += rec.round as f64;
                        }
                    }
                    // Complete-graph points keep the pre-topology label so
                    // existing reports stay byte-identical.
                    let label = if topology.is_complete() {
                        format!("{} n={n} d={delta}", protocol.name())
                    } else {
                        format!("{} n={n} d={delta} t={}", protocol.name(), topology.label())
                    };
                    points.push(PerfPoint {
                        label,
                        n,
                        runs,
                        converged,
                        mean_rounds: (converged > 0).then(|| rounds_sum / converged as f64),
                        mean_wall_ms: 0.0,
                        median_wall_ms: None,
                        p95_wall_ms: None,
                        // Per-agent sweeps omit the tag so their reports
                        // stay byte-identical to pre-backend artifacts.
                        backend: (spec.backend == BackendKind::MeanField)
                            .then(|| BackendKind::MeanField.name().to_string()),
                        degree: None,
                        convergence_rate: None,
                        messages_total: None,
                    });
                }
            }
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::topology::TopologySpec;

    fn spec(runs: usize) -> SweepSpec {
        SweepSpec {
            protocols: vec![ProtocolKind::Sf],
            ns: vec![32],
            deltas: vec![0.1],
            topologies: vec![TopologySpec::Complete],
            h: None,
            s0: 0,
            s1: 1,
            c1: None,
            runs,
            seed: 5,
            budget_intervals: 10,
            backend: BackendKind::PerAgent,
        }
    }

    fn temp_out(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("np_sweep_sched_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fresh_sweep_completes_and_reports() {
        let out = temp_out("fresh");
        let mut opts = SweepOptions::new(out.clone());
        opts.checkpoint_every = 8;
        let outcome = run_sweep(&spec(2), &opts).unwrap();
        assert_eq!(outcome.completed, 2);
        assert_eq!(outcome.skipped, 0);
        assert!(!outcome.stopped_early);
        let report = std::fs::read_to_string(outcome.report.unwrap()).unwrap();
        assert!(report.contains("\"schema\": \"np-bench/v1\""));
        assert!(report.contains("\"mean_wall_ms\": 0"));
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn mean_field_sweep_completes_and_tags_the_report() {
        let out = temp_out("mean_field");
        let opts = SweepOptions::new(out.clone());
        let mut s = spec(2);
        s.protocols = vec![ProtocolKind::Sf, ProtocolKind::Ssf];
        s.backend = BackendKind::MeanField;
        let outcome = run_sweep(&s, &opts).unwrap();
        assert_eq!(outcome.completed, 4);
        assert!(!outcome.stopped_early);
        let report = std::fs::read_to_string(outcome.report.unwrap()).unwrap();
        assert!(report.contains("\"schema\": \"np-bench/v1\""));
        assert!(report.contains("\"backend\": \"mean-field\""));
        // Counts jobs run atomically: the manifest holds only `done`
        // records and no snapshots were written.
        let records = load_manifest(&out.join("manifest.jsonl")).unwrap();
        assert!(records.iter().all(|r| r.status == JobStatus::Done));
        assert!(records.iter().all(|r| r.checkpoint.is_none()));
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn second_run_without_resume_is_refused() {
        let out = temp_out("refuse");
        let opts = SweepOptions::new(out.clone());
        run_sweep(&spec(1), &opts).unwrap();
        let e = run_sweep(&spec(1), &opts).unwrap_err().to_string();
        assert!(e.contains("--resume"), "{e}");
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn resume_skips_done_jobs() {
        let out = temp_out("skip");
        let mut opts = SweepOptions::new(out.clone());
        run_sweep(&spec(2), &opts).unwrap();
        opts.resume = true;
        let outcome = run_sweep(&spec(2), &opts).unwrap();
        assert_eq!(outcome.skipped, 2);
        assert_eq!(outcome.completed, 0);
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn stop_after_then_resume_reproduces_the_uninterrupted_report() {
        let straight_out = temp_out("straight");
        let mut straight_opts = SweepOptions::new(straight_out.clone());
        straight_opts.checkpoint_every = 4;
        let straight = run_sweep(&spec(3), &straight_opts).unwrap();
        let want = std::fs::read(straight.report.unwrap()).unwrap();

        let out = temp_out("interrupted");
        let mut opts = SweepOptions::new(out.clone());
        opts.checkpoint_every = 4;
        opts.stop_after = Some(1);
        opts.threads = 4;
        let stopped = run_sweep(&spec(3), &opts).unwrap();
        assert!(stopped.stopped_early);
        assert!(stopped.report.is_none());
        assert!(out.join("manifest.jsonl").exists());

        opts.stop_after = None;
        opts.resume = true;
        let resumed = run_sweep(&spec(3), &opts).unwrap();
        assert!(!resumed.stopped_early);
        let got = std::fs::read(resumed.report.unwrap()).unwrap();
        assert_eq!(got, want, "resumed report differs from uninterrupted run");

        std::fs::remove_dir_all(&straight_out).ok();
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn ring_sweep_completes_and_labels_its_points() {
        let out = temp_out("ring");
        let opts = SweepOptions::new(out.clone());
        let mut s = spec(2);
        s.topologies = vec![TopologySpec::Complete, TopologySpec::Ring { k: 2 }];
        let outcome = run_sweep(&s, &opts).unwrap();
        assert_eq!(outcome.completed, 4);
        let report = std::fs::read_to_string(outcome.report.unwrap()).unwrap();
        // Complete points keep the pre-topology label; ring points append it.
        assert!(report.contains("\"sf n=32 d=0.1\""), "{report}");
        assert!(report.contains("\"sf n=32 d=0.1 t=ring:2\""), "{report}");
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn interrupted_ring_sweep_resumes_from_v2_checkpoints() {
        // Ring jobs checkpoint as np-snap/v2 (the snapshot carries the
        // topology); resuming from one must reproduce the uninterrupted
        // report byte-for-byte.
        let mut s = spec(3);
        s.topologies = vec![TopologySpec::Ring { k: 4 }];

        let straight_out = temp_out("ring_straight");
        let mut straight_opts = SweepOptions::new(straight_out.clone());
        straight_opts.checkpoint_every = 4;
        let straight = run_sweep(&s, &straight_opts).unwrap();
        let want = std::fs::read(straight.report.unwrap()).unwrap();

        let out = temp_out("ring_interrupted");
        let mut opts = SweepOptions::new(out.clone());
        opts.checkpoint_every = 4;
        opts.stop_after = Some(1);
        opts.threads = 4;
        let stopped = run_sweep(&s, &opts).unwrap();
        assert!(stopped.stopped_early);

        opts.stop_after = None;
        opts.resume = true;
        let resumed = run_sweep(&s, &opts).unwrap();
        let got = std::fs::read(resumed.report.unwrap()).unwrap();
        assert_eq!(got, want, "resumed ring report differs from straight run");

        std::fs::remove_dir_all(&straight_out).ok();
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn mean_field_refuses_restricted_topologies() {
        let out = temp_out("mf_topo");
        let opts = SweepOptions::new(out.clone());
        let mut s = spec(1);
        s.backend = BackendKind::MeanField;
        s.topologies = vec![TopologySpec::Ring { k: 2 }];
        let e = run_sweep(&s, &opts).unwrap_err().to_string();
        assert!(e.contains("does not support topology ring:2"), "{e}");
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn overflowing_ssf_budget_is_refused() {
        for backend in [BackendKind::PerAgent, BackendKind::MeanField] {
            let out = temp_out("budget_overflow");
            let mut s = spec(1);
            s.protocols = vec![ProtocolKind::Ssf];
            s.budget_intervals = u64::MAX;
            s.backend = backend;
            let e = run_sweep(&s, &SweepOptions::new(out.clone()))
                .unwrap_err()
                .to_string();
            assert!(e.contains("budget-intervals"), "{e}");
            std::fs::remove_dir_all(&out).ok();
        }
    }

    #[test]
    fn aggregate_requires_done_jobs() {
        let s = spec(1);
        let e = aggregate(&s, &[]).unwrap_err().to_string();
        assert!(e.contains("no manifest record"), "{e}");
    }

    #[test]
    fn zero_cadence_is_rejected() {
        let out = temp_out("cadence");
        let mut opts = SweepOptions::new(out);
        opts.checkpoint_every = 0;
        assert!(run_sweep(&spec(1), &opts).is_err());
    }
}
