//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent, worker) and kept in memory; nothing is
//! written until the run ends. Worker jobs inside `runner::scatter`
//! cannot borrow the recorder, so they stamp plain [`Instant`]s into a
//! per-job [`JobClock`] slot that is turned into spans after the scatter
//! returns.

use std::io::{self, Write};
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;

use crate::stats::{self, Interval};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `channel.fill`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Worker thread index within the enclosing scatter (0 for calls on
    /// the driving thread).
    pub worker: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Instants stamped by one scatter job: the thread it ran on and up to
/// three marks (start, phase boundary, end).
#[derive(Debug, Clone, Copy)]
pub struct JobClock {
    /// The worker thread that ran the job.
    pub thread: ThreadId,
    /// Marks in call order.
    pub marks: [Instant; 3],
}

impl JobClock {
    /// Stamps the current thread and time into all three marks.
    pub fn start() -> Self {
        let now = Instant::now();
        JobClock {
            thread: std::thread::current().id(),
            marks: [now; 3],
        }
    }
}

/// Span store with a fixed epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the driving thread; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, now, now, parent, 0)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        worker: usize,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, start_ns, end_ns, parent, worker)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        worker: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            worker,
        });
        self.spans.len() - 1
    }

    /// Records the spans of one scatter's jobs under `scatter`: a
    /// `runner.job` span per job plus one child per consecutive pair of
    /// marks, named by `phases`. Returns the runner statistics of the
    /// scatter.
    pub fn record_jobs(
        &mut self,
        scatter: usize,
        jobs: &[JobClock],
        phases: &[&'static str],
    ) -> ScatterStats {
        let mut threads: Vec<ThreadId> = Vec::new();
        let mut busy_ns: Vec<u64> = Vec::new();
        for job in jobs {
            let worker = match threads.iter().position(|&t| t == job.thread) {
                Some(w) => w,
                None => {
                    threads.push(job.thread);
                    busy_ns.push(0);
                    threads.len() - 1
                }
            };
            let end = job.marks[phases.len()];
            let id = self.record("runner.job", job.marks[0], end, Some(scatter), worker);
            for (k, &phase) in phases.iter().enumerate() {
                self.record(phase, job.marks[k], job.marks[k + 1], Some(id), worker);
            }
            busy_ns[worker] += self.spans[id].end_ns - self.spans[id].start_ns;
        }
        let wall = self.spans[scatter].end_ns - self.spans[scatter].start_ns;
        let slowest = busy_ns.iter().copied().max().unwrap_or(0);
        let mean = if busy_ns.is_empty() {
            0.0
        } else {
            busy_ns.iter().sum::<u64>() as f64 / busy_ns.len() as f64
        };
        ScatterStats {
            wall_ns: wall,
            slowest_busy_ns: slowest,
            mean_busy_ns: mean,
        }
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed self time (duration minus the time its direct children
    /// cover) of every span called `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut children: Vec<Vec<Interval>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| stats::self_time((s.start_ns, s.end_ns), &children[i]) as f64 / 1e6)
            .sum()
    }

    /// Appends every span as one JSON line
    /// `{"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…,"worker":…}`
    /// tagged with `seed`.
    pub fn write_jsonl(&self, out: &mut impl Write, seed: u64) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"seed\":{seed},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"worker\":{}}}",
                s.name, s.start_ns, s.end_ns, s.worker
            )?;
        }
        Ok(())
    }
}

/// Timing of `runner::scatter` calls, from their job spans; summed over
/// calls with `+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScatterStats {
    /// Wall time of the scatter calls.
    pub wall_ns: u64,
    /// Busy time of each call's busiest worker (sum of its job durations).
    pub slowest_busy_ns: u64,
    /// Mean busy time over the workers that ran a job.
    pub mean_busy_ns: f64,
}

impl ScatterStats {
    /// Scatter wall time not explained by the busiest worker's jobs:
    /// thread spawn, hand-off and join. A worker's jobs all run inside
    /// the call, so its busy time never exceeds the wall time.
    pub fn overhead_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.slowest_busy_ns)
    }
}

impl std::ops::AddAssign for ScatterStats {
    fn add_assign(&mut self, other: Self) {
        self.wall_ns += other.wall_ns;
        self.slowest_busy_ns += other.slowest_busy_ns;
        self.mean_busy_ns += other.mean_busy_ns;
    }
}

/// Writes `header` (already formatted JSON lines) followed by the spans
/// of one traced seed to `path`, creating its directory.
pub fn save(path: &Path, header: &[String], spans: Option<&(u64, Tracer)>) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for line in header {
        writeln!(out, "{line}")?;
    }
    if let Some((seed, tracer)) = spans {
        tracer.write_jsonl(&mut out, *seed)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn begin_end_nests_and_totals() {
        let mut t = Tracer::new();
        let round = t.begin("round", None);
        let inner = t.begin("channel.begin_round", Some(round));
        std::thread::sleep(Duration::from_millis(2));
        t.end(inner);
        t.end(round);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[inner].parent, Some(round));
        assert!(t.total_ms("channel.begin_round") >= 2.0);
        assert!(t.total_ms("round") >= t.total_ms("channel.begin_round"));
        // The round's self time is what its child leaves uncovered.
        let self_ms = t.self_ms("round");
        let expect = t.total_ms("round") - t.total_ms("channel.begin_round");
        assert!((self_ms - expect).abs() < 1e-9);
    }

    #[test]
    fn job_clocks_become_worker_spans_and_runner_stats() {
        let mut t = Tracer::new();
        let scatter = t.begin("runner.scatter", None);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let me = std::thread::current().id();
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .unwrap();
        let jobs = [
            JobClock {
                thread: me,
                marks: [at(0), at(3), at(4)],
            },
            JobClock {
                thread: other,
                marks: [at(0), at(1), at(2)],
            },
            JobClock {
                thread: me,
                marks: [at(4), at(5), at(6)],
            },
        ];
        t.end(scatter);
        t.spans[scatter].end_ns = t.ns(at(10));
        let st = t.record_jobs(scatter, &jobs, &["channel.fill", "core.update"]);
        assert_eq!(t.durations_ms("runner.job").len(), 3);
        assert!((t.total_ms("channel.fill") - 5.0).abs() < 1e-6);
        assert!((t.total_ms("core.update") - 3.0).abs() < 1e-6);
        // Worker 0 ran 4 + 2 ms, worker 1 ran 2 ms.
        assert_eq!(st.slowest_busy_ns, 6_000_000);
        assert!((st.mean_busy_ns - 4e6).abs() < 1.0);
        assert_eq!(st.overhead_ns(), st.wall_ns - 6_000_000);
        let mut total = ScatterStats::default();
        total += st;
        total += st;
        assert_eq!(total.overhead_ns(), 2 * st.overhead_ns());
        assert!((total.mean_busy_ns - 8e6).abs() < 1.0);
        let workers: Vec<usize> = t
            .spans()
            .iter()
            .filter(|s| s.name == "runner.job")
            .map(|s| s.worker)
            .collect();
        assert_eq!(workers, vec![0, 1, 0]);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new();
        let a = t.begin("round", None);
        let b = t.begin("metrics.collect", Some(a));
        t.end(b);
        t.end(a);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf, 7).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"round\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"seed\":7"));
    }
}
