//! Run metrics: convergence outcomes, time series of opinion counts, the
//! per-round observer hook ([`RunObserver`] / [`TraceRecorder`]), and the
//! two run artifacts written from them: the per-round JSONL trace
//! ([`trace_jsonl`]) and the end-of-run summary ([`RunSummary`]), both
//! encoded through [`crate::json`].
//!
//! # Determinism vs. timing
//!
//! [`RoundMetrics`] is a pure function of the trajectory, so traces built
//! from it are byte-identical across thread counts — the same contract as
//! the trajectory itself. [`StageTimings`] is *wall-clock* data and
//! therefore inherently nondeterministic; it is delivered alongside the
//! metrics but must never be mixed into artifacts that are byte-compared
//! across runs (the trace and summary writers below keep it out).

use std::path::Path;
use std::time::Duration;

use crate::faults::FaultRecovery;
use crate::json;
use crate::opinion::Opinion;
use crate::population::PopulationConfig;

/// The outcome of a bounded run: did the system reach consensus on the
/// correct opinion, and when.
///
/// Produced by [`crate::run::Run::run_until_consensus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// All agents held the correct opinion at the end of the given round
    /// (1-based count of completed rounds).
    Converged {
        /// Rounds executed until the first all-correct configuration.
        rounds: u64,
    },
    /// The round budget was exhausted first.
    TimedOut {
        /// The budget that was exhausted.
        budget: u64,
        /// Number of agents holding the correct opinion at the end.
        correct_at_end: usize,
    },
}

impl RunOutcome {
    /// Returns `true` if the run converged within budget.
    pub fn converged(&self) -> bool {
        matches!(self, RunOutcome::Converged { .. })
    }

    /// Rounds to convergence, if the run converged.
    pub fn rounds(&self) -> Option<u64> {
        match self {
            RunOutcome::Converged { rounds } => Some(*rounds),
            RunOutcome::TimedOut { .. } => None,
        }
    }
}

/// Per-round time series of how many agents hold each opinion.
///
/// Recording is optional (it costs one pass per round); enable it with
/// [`crate::world::World::record_series`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpinionSeries {
    ones: Vec<usize>,
    n: usize,
}

impl OpinionSeries {
    /// Creates an empty series for a population of `n` agents.
    pub fn new(n: usize) -> Self {
        OpinionSeries {
            ones: Vec::new(),
            n,
        }
    }

    /// Appends one round's count of agents holding opinion 1.
    pub fn push(&mut self, ones: usize) {
        debug_assert!(ones <= self.n);
        self.ones.push(ones);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.ones.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ones.is_empty()
    }

    /// Count of agents holding `opinion` after the given recorded round.
    ///
    /// # Panics
    ///
    /// Panics if `round >= self.len()`.
    pub fn count(&self, round: usize, opinion: Opinion) -> usize {
        match opinion {
            Opinion::One => self.ones[round],
            Opinion::Zero => self.n - self.ones[round],
        }
    }

    /// The margin above half of the population holding `opinion` after the
    /// given round — the paper's `A_ℓ` when `opinion` is correct (can be
    /// negative).
    ///
    /// # Panics
    ///
    /// Panics if `round >= self.len()`.
    pub fn margin(&self, round: usize, opinion: Opinion) -> f64 {
        self.count(round, opinion) as f64 - self.n as f64 / 2.0
    }

    /// The full series of counts for `opinion`, one entry per round.
    pub fn counts(&self, opinion: Opinion) -> Vec<usize> {
        (0..self.len()).map(|r| self.count(r, opinion)).collect()
    }
}

/// Deterministic snapshot of the system after one completed round,
/// collected by the observer hook (enable with
/// [`crate::run::Run::record_trace`] or
/// [`crate::world::World::set_observer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundMetrics {
    /// 1-based count of completed rounds when the snapshot was taken.
    pub round: u64,
    /// Population size.
    pub n: usize,
    /// Agents holding the correct opinion.
    pub correct: usize,
    /// Stage occupancy: `(stage_id, agents in that stage)`, sorted by
    /// stage id, omitting empty stages. Stage ids come from
    /// [`crate::protocol::ColumnarState::stage_id`].
    pub stages: Vec<(u32, usize)>,
    /// Agents whose weak opinion has formed
    /// ([`crate::protocol::ColumnarState::weak_opinion`] is `Some`).
    pub weak_formed: usize,
    /// Of those, how many weak opinions are correct.
    pub weak_correct: usize,
    /// Labels of the fault events injected just before this round executed
    /// ([`crate::faults`]); empty for fault-free rounds. Part of the
    /// deterministic trajectory (a pure function of the fault plan), so it
    /// may flow into byte-compared artifacts.
    pub faults: Vec<String>,
}

impl RoundMetrics {
    /// The margin of the correct opinion over half the population — the
    /// paper's `A_ℓ` (can be negative).
    pub fn margin(&self) -> f64 {
        self.correct as f64 - self.n as f64 / 2.0
    }
}

/// The result of one observability sweep over the population
/// ([`crate::protocol::ColumnarState::metrics_sweep`]): the
/// state-dependent fields of [`RoundMetrics`], before the world adds the
/// round number and fault labels. Struct-of-arrays states fill this in
/// one fused pass over their lanes; the trait default walks the per-agent
/// accessors. Both fold through [`MetricsSweep::tally`], so they agree
/// exactly — these numbers flow into byte-compared run summaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSweep {
    /// Agents holding the correct opinion.
    pub correct: usize,
    /// Stage occupancy, sorted ascending by stage id, empty stages
    /// omitted.
    pub stages: Vec<(u32, usize)>,
    /// Agents whose weak opinion has formed.
    pub weak_formed: usize,
    /// Of those, how many weak opinions are correct.
    pub weak_correct: usize,
}

impl MetricsSweep {
    /// Folds one `(opinion, stage id, weak opinion)` triple per agent into
    /// a sweep relative to `correct`, stages in ascending id order.
    pub fn tally(
        correct: Opinion,
        agents: impl IntoIterator<Item = (Opinion, u32, Option<Opinion>)>,
    ) -> MetricsSweep {
        let mut sweep = MetricsSweep::default();
        let mut stages = std::collections::BTreeMap::<u32, usize>::new();
        for (opinion, stage, weak) in agents {
            if opinion == correct {
                sweep.correct += 1;
            }
            *stages.entry(stage).or_insert(0) += 1;
            if let Some(weak) = weak {
                sweep.weak_formed += 1;
                if weak == correct {
                    sweep.weak_correct += 1;
                }
            }
        }
        sweep.stages = stages.into_iter().collect();
        sweep
    }
}

/// Wall-clock time spent in each phase of one round.
///
/// Nondeterministic by nature; see the module docs for where it may and
/// may not flow. The engine's invariant checks run inside the phases, so
/// their cost is attributed to the enclosing phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Pass 1: computing displayed symbols into the packed bit planes,
    /// including the popcount display histogram (the paper's sampling
    /// setup).
    pub display: Duration,
    /// Pass 2: the noisy channel **and** the protocol updates — the hot
    /// path fuses phases 2–4 into one scatter, so sampling, noise and
    /// updates are timed together here.
    pub observe: Duration,
    /// Always zero under the fused hot path; kept so accumulated timing
    /// totals and their serialized forms stay shape-compatible.
    pub update: Duration,
    /// The observer's own metrics pass (stage/opinion sweep).
    pub collect: Duration,
}

impl StageTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.display + self.observe + self.update + self.collect
    }

    /// Accumulates another round's timings into this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.display += other.display;
        self.observe += other.observe;
        self.update += other.update;
        self.collect += other.collect;
    }
}

pub use stage_clock::StageClock;

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the sanctioned observer clock; runs only when an observer is attached"
)]
mod stage_clock {
    use std::time::{Duration, Instant};

    /// A stopwatch for phase timing inside [`crate::world::World::step`].
    ///
    /// This is the **one sanctioned wall-clock site** in the library
    /// crates: timing belongs to the observer, never to protocol code. The
    /// clock only runs when an observer is attached, keeping the disabled
    /// path free of time syscalls.
    #[derive(Debug, Clone, Copy)]
    pub struct StageClock {
        last: Instant,
    }

    impl StageClock {
        /// Starts the clock.
        pub fn start() -> Self {
            StageClock {
                last: Instant::now(),
            }
        }

        /// Time since the previous lap (or since `start`), and restarts.
        pub fn lap(&mut self) -> Duration {
            let now = Instant::now();
            let elapsed = now - self.last;
            self.last = now;
            elapsed
        }
    }
}

/// Per-round observer: receives one [`RoundMetrics`] snapshot (plus that
/// round's [`StageTimings`]) after every completed round.
///
/// Attach with [`crate::world::World::set_observer`] for a custom sink, or
/// use the built-in [`TraceRecorder`] via
/// [`crate::run::Run::record_trace`]. `Send` so worlds holding an
/// observer can still move across threads (e.g. into `run_batch` jobs).
pub trait RunObserver: Send {
    /// Called once after each completed round.
    fn on_round(&mut self, metrics: &RoundMetrics, timings: &StageTimings);
}

/// The built-in [`RunObserver`]: keeps every round's metrics and the
/// accumulated phase timings in memory, ready for [`trace_jsonl`] and
/// [`RunSummary`].
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    rounds: Vec<RoundMetrics>,
    timings: StageTimings,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// All recorded rounds, in order.
    pub fn rounds(&self) -> &[RoundMetrics] {
        &self.rounds
    }

    /// The most recent round's metrics, if any round was recorded.
    pub fn last(&self) -> Option<&RoundMetrics> {
        self.rounds.last()
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Wall-clock phase totals accumulated over all recorded rounds.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }
}

impl RunObserver for TraceRecorder {
    fn on_round(&mut self, metrics: &RoundMetrics, timings: &StageTimings) {
        self.rounds.push(metrics.clone());
        self.timings.accumulate(timings);
    }
}

/// Renders one round's metrics as a single JSON object — one line of the
/// JSONL trace, without the trailing newline.
///
/// Schema (stable field order):
/// `{"round":…,"correct":…,"margin":…,"stages":[[id,count],…],`
/// `"weak_formed":…,"weak_correct":…}` — stages sorted by id, empty
/// stages omitted. Rounds where fault events were injected carry one
/// extra trailing field, `"faults":["label",…]`; fault-free rounds
/// render byte-identically to the pre-fault schema.
pub fn round_json(m: &RoundMetrics) -> String {
    let stages: Vec<String> = m
        .stages
        .iter()
        .map(|&(id, count)| format!("[{id},{count}]"))
        .collect();
    let faults = if m.faults.is_empty() {
        String::new()
    } else {
        let labels: Vec<String> = m.faults.iter().map(|l| json::escape(l)).collect();
        format!(",\"faults\":[{}]", labels.join(","))
    };
    format!(
        "{{\"round\":{},\"correct\":{},\"margin\":{},\"stages\":[{}],\
         \"weak_formed\":{},\"weak_correct\":{}{}}}",
        m.round,
        m.correct,
        json::number(m.margin()),
        stages.join(","),
        m.weak_formed,
        m.weak_correct,
        faults
    )
}

/// Renders a recorded trace as JSONL: one [`round_json`] line per round,
/// each newline-terminated. Trajectory data only, so the bytes are
/// identical for every thread count.
pub fn trace_jsonl(rounds: &[RoundMetrics]) -> String {
    let mut out = String::new();
    for m in rounds {
        out.push_str(&round_json(m));
        out.push('\n');
    }
    out
}

/// Writes a recorded trace to `path` as JSONL, creating parent
/// directories if needed.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the write.
pub fn save_trace_jsonl(path: &Path, rounds: &[RoundMetrics]) -> std::io::Result<()> {
    write_creating_dirs(path, &trace_jsonl(rounds))
}

/// Writes `contents` to `path`, creating its parent directories first.
fn write_creating_dirs(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// End-of-run summary: the machine-readable counterpart of a CLI run's
/// console report. Trajectory data only — no thread count, no timings —
/// so two runs of the same seed produce byte-identical summaries
/// regardless of parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Protocol label (e.g. `"sf"`, `"ssf"`).
    pub protocol: String,
    /// Population size.
    pub n: usize,
    /// Sample size.
    pub h: usize,
    /// Sources preferring 0.
    pub s0: usize,
    /// Sources preferring 1.
    pub s1: usize,
    /// Master seed.
    pub seed: u64,
    /// Completed rounds.
    pub rounds: u64,
    /// Whether the run ended in correct consensus.
    pub consensus: bool,
    /// Agents holding the correct opinion at the end.
    pub final_correct: usize,
    /// Final margin over `n/2` (the paper's `A_ℓ`).
    pub final_margin: f64,
    /// Agents whose weak opinion had formed at the end.
    pub weak_formed: usize,
    /// Of those, how many weak opinions were correct.
    pub weak_correct: usize,
    /// Per-event fault recovery results (empty for fault-free runs, in
    /// which case the JSON rendering is unchanged from the pre-fault
    /// schema).
    pub faults: Vec<FaultRecovery>,
}

impl RunSummary {
    /// Builds a summary from the run's final [`RoundMetrics`] snapshot.
    pub fn from_final_metrics(
        protocol: &str,
        config: &PopulationConfig,
        seed: u64,
        last: &RoundMetrics,
    ) -> Self {
        RunSummary {
            protocol: protocol.to_string(),
            n: config.n(),
            h: config.h(),
            s0: config.s0(),
            s1: config.s1(),
            seed,
            rounds: last.round,
            consensus: last.correct == last.n,
            final_correct: last.correct,
            final_margin: last.margin(),
            weak_formed: last.weak_formed,
            weak_correct: last.weak_correct,
            faults: Vec::new(),
        }
    }

    /// Attaches per-event fault recovery results (from
    /// [`crate::faults::recovery_times`]) to the summary.
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<FaultRecovery>) -> Self {
        self.faults = faults;
        self
    }

    /// Renders the summary as a single pretty-printed JSON object with a
    /// schema tag, newline-terminated. Runs with fault events gain a
    /// `"faults"` array of per-event recovery records; fault-free
    /// summaries render byte-identically to the pre-fault schema.
    pub fn to_json(&self) -> String {
        let faults = if self.faults.is_empty() {
            String::new()
        } else {
            let entries: Vec<String> = self
                .faults
                .iter()
                .map(|f| {
                    format!(
                        "    {{\"round\": {}, \"label\": {}, \
                         \"recovered_round\": {}, \"recovery_rounds\": {}}}",
                        f.round,
                        json::escape(&f.label),
                        f.recovered_round
                            .map_or("null".to_string(), |r| r.to_string()),
                        f.recovery_rounds()
                            .map_or("null".to_string(), |r| r.to_string())
                    )
                })
                .collect();
            format!(",\n  \"faults\": [\n{}\n  ]", entries.join(",\n"))
        };
        format!(
            "{{\n  \"schema\": \"np-run-summary/v1\",\n  \"protocol\": {},\n  \
             \"n\": {},\n  \"h\": {},\n  \"s0\": {},\n  \"s1\": {},\n  \
             \"seed\": {},\n  \"rounds\": {},\n  \"consensus\": {},\n  \
             \"final_correct\": {},\n  \"final_margin\": {},\n  \
             \"weak_formed\": {},\n  \"weak_correct\": {}{}\n}}\n",
            json::escape(&self.protocol),
            self.n,
            self.h,
            self.s0,
            self.s1,
            self.seed,
            self.rounds,
            self.consensus,
            self.final_correct,
            json::number(self.final_margin),
            self.weak_formed,
            self.weak_correct,
            faults
        )
    }

    /// Writes the JSON rendering to `path`, creating parent directories
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_creating_dirs(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let c = RunOutcome::Converged { rounds: 17 };
        assert!(c.converged());
        assert_eq!(c.rounds(), Some(17));
        let t = RunOutcome::TimedOut {
            budget: 100,
            correct_at_end: 42,
        };
        assert!(!t.converged());
        assert_eq!(t.rounds(), None);
    }

    fn sample_metrics(round: u64, correct: usize) -> RoundMetrics {
        RoundMetrics {
            round,
            n: 10,
            correct,
            stages: vec![(0, 4), (1, 6)],
            weak_formed: 6,
            weak_correct: 5,
            faults: Vec::new(),
        }
    }

    #[test]
    fn round_metrics_margin() {
        assert_eq!(sample_metrics(1, 7).margin(), 2.0);
        assert_eq!(sample_metrics(1, 3).margin(), -2.0);
    }

    #[test]
    fn trace_recorder_accumulates() {
        let mut rec = TraceRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.last(), None);
        let t1 = StageTimings {
            display: Duration::from_micros(3),
            observe: Duration::from_micros(5),
            update: Duration::from_micros(7),
            collect: Duration::from_micros(2),
        };
        rec.on_round(&sample_metrics(1, 6), &t1);
        rec.on_round(&sample_metrics(2, 8), &t1);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.rounds()[0].correct, 6);
        assert_eq!(rec.last().map(|m| m.round), Some(2));
        assert_eq!(rec.timings().display, Duration::from_micros(6));
        assert_eq!(rec.timings().total(), Duration::from_micros(34));
    }

    #[test]
    fn stage_clock_laps_monotonically() {
        let mut clock = StageClock::start();
        let a = clock.lap();
        let b = clock.lap();
        // Durations are non-negative by construction; just exercise both
        // paths and check the type round-trips.
        assert!(a + b >= a);
    }

    #[test]
    fn series_counts_and_margins() {
        let mut s = OpinionSeries::new(10);
        assert!(s.is_empty());
        s.push(3);
        s.push(7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.count(0, Opinion::One), 3);
        assert_eq!(s.count(0, Opinion::Zero), 7);
        assert_eq!(s.count(1, Opinion::One), 7);
        assert_eq!(s.margin(1, Opinion::One), 2.0);
        assert_eq!(s.margin(0, Opinion::One), -2.0);
        assert_eq!(s.counts(Opinion::One), vec![3, 7]);
        assert_eq!(s.counts(Opinion::Zero), vec![7, 3]);
    }

    fn metrics() -> RoundMetrics {
        RoundMetrics {
            round: 3,
            n: 8,
            correct: 5,
            stages: vec![(0, 7), (u32::MAX, 1)],
            weak_formed: 6,
            weak_correct: 4,
            faults: Vec::new(),
        }
    }

    #[test]
    fn round_json_matches_schema() {
        assert_eq!(
            round_json(&metrics()),
            "{\"round\":3,\"correct\":5,\"margin\":1,\
             \"stages\":[[0,7],[4294967295,1]],\
             \"weak_formed\":6,\"weak_correct\":4}"
        );
    }

    #[test]
    fn round_json_appends_fault_labels_only_when_present() {
        let mut m = metrics();
        m.faults = vec![
            "split-brain:4".to_string(),
            "ramp-noise:0.1->0.3/5".to_string(),
        ];
        assert_eq!(
            round_json(&m),
            "{\"round\":3,\"correct\":5,\"margin\":1,\
             \"stages\":[[0,7],[4294967295,1]],\
             \"weak_formed\":6,\"weak_correct\":4,\
             \"faults\":[\"split-brain:4\",\"ramp-noise:0.1->0.3/5\"]}"
        );
        // Fault-free rounds must keep the pre-fault bytes.
        assert!(!round_json(&metrics()).contains("faults"));
    }

    #[test]
    fn summary_faults_render_and_stay_absent_when_empty() {
        let config = PopulationConfig::new(8, 1, 2, 4).unwrap();
        let base = RunSummary::from_final_metrics("ssf", &config, 3, &metrics());
        assert!(!base.to_json().contains("\"faults\""));
        let summary = base.with_faults(vec![
            FaultRecovery {
                round: 5,
                label: "flip-sources:1".to_string(),
                recovered_round: Some(12),
            },
            FaultRecovery {
                round: 20,
                label: "sleep:3/4r".to_string(),
                recovered_round: None,
            },
        ]);
        let json = summary.to_json();
        assert!(json.contains(
            "{\"round\": 5, \"label\": \"flip-sources:1\", \
             \"recovered_round\": 12, \"recovery_rounds\": 7}"
        ));
        assert!(json.contains(
            "{\"round\": 20, \"label\": \"sleep:3/4r\", \
             \"recovered_round\": null, \"recovery_rounds\": null}"
        ));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn trace_jsonl_is_one_line_per_round() {
        let text = trace_jsonl(&[metrics(), metrics()]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(trace_jsonl(&[]).is_empty());
    }

    #[test]
    fn fractional_margin_renders_with_decimal() {
        let mut m = metrics();
        m.n = 9;
        assert!(round_json(&m).contains("\"margin\":0.5"));
    }

    #[test]
    fn run_summary_round_trips_fields() {
        let config = PopulationConfig::new(8, 1, 2, 4).unwrap();
        let summary = RunSummary::from_final_metrics("sf", &config, 42, &metrics());
        assert_eq!(summary.n, 8);
        assert_eq!(summary.h, 4);
        assert_eq!(summary.s0, 1);
        assert_eq!(summary.s1, 2);
        assert!(!summary.consensus);
        let json = summary.to_json();
        assert!(json.contains("\"schema\": \"np-run-summary/v1\""));
        assert!(json.contains("\"protocol\": \"sf\""));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"consensus\": false"));
        assert!(json.contains("\"final_margin\": 1"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn summary_reports_consensus_when_all_correct() {
        let config = PopulationConfig::new(8, 0, 1, 4).unwrap();
        let mut m = metrics();
        m.correct = 8;
        let summary = RunSummary::from_final_metrics("ssf", &config, 1, &m);
        assert!(summary.consensus);
        assert!(summary.to_json().contains("\"consensus\": true"));
    }

    #[test]
    fn trace_and_summary_files_round_trip() {
        let dir = std::env::temp_dir().join("np_engine_metrics_json_test");
        let trace_path = dir.join("t.jsonl");
        save_trace_jsonl(&trace_path, &[metrics()]).unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(trace, round_json(&metrics()) + "\n");
        let config = PopulationConfig::new(8, 1, 2, 4).unwrap();
        let summary = RunSummary::from_final_metrics("sf", &config, 7, &metrics());
        let summary_path = dir.join("s.json");
        summary.save(&summary_path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&summary_path).unwrap(),
            summary.to_json()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
