//! The `np-manifest/v1` job journal: an append-only JSONL file that is
//! the single source of truth for sweep progress.
//!
//! Every state change of a job appends one [`JobRecord`] line; readers
//! keep the **latest** record per job id. A `checkpointed` record names
//! the snapshot file (relative to the sweep output directory) the job can
//! be resumed from; a `done` record carries the final outcome that the
//! aggregated report is built from. Because records are only ever
//! appended (never rewritten), a crash can at worst lose the last line —
//! in which case the job resumes from its previous record, re-runs a
//! suffix it already ran, and (by the engine's byte-identical-continuation
//! contract) produces the same outcome.
//!
//! Lines are written and read with the workspace's one JSON codec,
//! [`np_engine::json`] (fixed field order, shortest-roundtrip float
//! rendering, numbers read back from their raw text) so that
//! encode→decode→encode is byte-identical — the property the proptest
//! suite pins down. This file is a *deterministic-bytes* path: wall
//! clocks and hash-map iteration are banned here, as in every library
//! crate (`crates/clippy.toml`), and narrowing casts are denied. The
//! decoder reads untrusted bytes, so the compiler also rules out every
//! panicking index, `panic!`, `unwrap` and `expect` in this file.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use std::io::Write;
use std::path::Path;

use np_engine::json::{self, Json};

use crate::SweepError;

/// Schema tag of the manifest line format.
pub const MANIFEST_SCHEMA: &str = "np-manifest/v1";

/// Lifecycle state of a sweep job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Declared but no work persisted yet.
    Pending,
    /// A snapshot exists; `checkpoint` names it.
    Checkpointed,
    /// Finished; `round`, `consensus` and `correct` are final.
    Done,
}

impl JobStatus {
    /// The manifest name of the status.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Checkpointed => "checkpointed",
            JobStatus::Done => "done",
        }
    }

    /// Parses a manifest status name.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, SweepError> {
        match name {
            "pending" => Ok(JobStatus::Pending),
            "checkpointed" => Ok(JobStatus::Checkpointed),
            "done" => Ok(JobStatus::Done),
            other => Err(SweepError(format!("unknown job status `{other}`"))),
        }
    }
}

/// One manifest line: the full parameter set and current state of a job.
///
/// Parameters are repeated on every record so the manifest alone (without
/// the spec file) is enough to resume or audit a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id (the manifest key; latest record per id wins).
    pub job: String,
    /// Protocol name (`sf` | `ssf` | `sf-alt`).
    pub protocol: String,
    /// Population size.
    pub n: usize,
    /// Sample size.
    pub h: usize,
    /// Sources preferring 0.
    pub s0: usize,
    /// Sources preferring 1.
    pub s1: usize,
    /// Uniform noise level.
    pub delta: f64,
    /// Analysis constant.
    pub c1: f64,
    /// Derived per-job seed.
    pub seed: u64,
    /// Round budget of the job.
    pub budget: u64,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Snapshot path relative to the sweep output directory (present
    /// exactly for `checkpointed` records).
    pub checkpoint: Option<String>,
    /// Rounds completed so far (final for `done`).
    pub round: u64,
    /// Whether the run has reached correct consensus.
    pub consensus: bool,
    /// Agents holding the correct opinion.
    pub correct: usize,
}

impl JobRecord {
    /// Renders the record as one JSON line (no trailing newline), fields
    /// in fixed schema order.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"schema\":{},\"job\":{},\"protocol\":{},\"n\":{},\"h\":{},\
             \"s0\":{},\"s1\":{},\"delta\":{},\"c1\":{},\"seed\":{},\"budget\":{},\
             \"status\":{},\"checkpoint\":{},\"round\":{},\"consensus\":{},\"correct\":{}}}",
            json::escape(MANIFEST_SCHEMA),
            json::escape(&self.job),
            json::escape(&self.protocol),
            self.n,
            self.h,
            self.s0,
            self.s1,
            json::number(self.delta),
            json::number(self.c1),
            self.seed,
            self.budget,
            json::escape(self.status.name()),
            self.checkpoint
                .as_deref()
                .map_or("null".to_string(), json::escape),
            self.round,
            self.consensus,
            self.correct
        )
    }

    /// Parses one manifest line.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for malformed JSON, a wrong schema tag, or
    /// missing/mistyped fields.
    pub fn parse(line: &str) -> Result<Self, SweepError> {
        let malformed = |offset: usize, reason: &str| {
            SweepError(format!(
                "malformed manifest JSON at byte {offset}: {reason}"
            ))
        };
        // A record is an object: say so for any line that does not open one.
        let body = line.trim_start();
        if !body.starts_with('{') {
            return Err(malformed(line.len() - body.len(), "expected `{`"));
        }
        let doc = json::parse(line).map_err(|e| malformed(e.offset, e.reason))?;
        let get = |name: &str| -> Result<&Json, SweepError> {
            doc.get(name)
                .ok_or_else(|| SweepError(format!("manifest record is missing `{name}`")))
        };
        let string = |name: &str| -> Result<String, SweepError> {
            match get(name)? {
                Json::Str(s) => Ok(s.clone()),
                other => Err(SweepError(format!(
                    "`{name}`: expected a string, got {other:?}"
                ))),
            }
        };
        let number = |name: &str| -> Result<&str, SweepError> {
            match get(name)? {
                Json::Num(raw) => Ok(raw.as_str()),
                other => Err(SweepError(format!(
                    "`{name}`: expected a number, got {other:?}"
                ))),
            }
        };
        let int = |name: &str| -> Result<u64, SweepError> {
            number(name)?
                .parse()
                .map_err(|_| SweepError(format!("`{name}`: not an unsigned integer")))
        };
        let float = |name: &str| -> Result<f64, SweepError> {
            number(name)?
                .parse()
                .map_err(|_| SweepError(format!("`{name}`: not a number")))
        };
        let schema = string("schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(SweepError(format!(
                "unsupported manifest schema `{schema}` (expected `{MANIFEST_SCHEMA}`)"
            )));
        }
        let usz = |name: &str| -> Result<usize, SweepError> {
            usize::try_from(int(name)?)
                .map_err(|_| SweepError(format!("`{name}`: does not fit usize")))
        };
        Ok(JobRecord {
            job: string("job")?,
            protocol: string("protocol")?,
            n: usz("n")?,
            h: usz("h")?,
            s0: usz("s0")?,
            s1: usz("s1")?,
            delta: float("delta")?,
            c1: float("c1")?,
            seed: int("seed")?,
            budget: int("budget")?,
            status: JobStatus::parse(&string("status")?)?,
            checkpoint: match get("checkpoint")? {
                Json::Null => None,
                Json::Str(s) => Some(s.clone()),
                other => {
                    return Err(SweepError(format!(
                        "`checkpoint`: expected a string or null, got {other:?}"
                    )))
                }
            },
            round: int("round")?,
            consensus: match get("consensus")? {
                Json::Bool(b) => *b,
                other => {
                    return Err(SweepError(format!(
                        "`consensus`: expected a boolean, got {other:?}"
                    )))
                }
            },
            correct: usz("correct")?,
        })
    }
}

/// Appends one record (plus newline) to the manifest at `path`, creating
/// the file if needed. The caller serializes concurrent appends.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn append_record(path: &Path, record: &JobRecord) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(record.to_json_line().as_bytes())?;
    file.write_all(b"\n")
}

/// Reads every record of a manifest file, in file order.
///
/// # Errors
///
/// Returns [`SweepError`] for I/O failures or a malformed line (with its
/// line number).
pub fn load_manifest(path: &Path) -> Result<Vec<JobRecord>, SweepError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SweepError(format!("cannot read manifest {}: {e}", path.display())))?;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(
            JobRecord::parse(line)
                .map_err(|e| SweepError(format!("manifest line {}: {e}", lineno + 1)))?,
        );
    }
    Ok(records)
}

/// The latest record for `job`, if any — the record that wins under the
/// append-only journal semantics.
pub fn latest<'a>(records: &'a [JobRecord], job: &str) -> Option<&'a JobRecord> {
    records.iter().rev().find(|r| r.job == job)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> JobRecord {
        JobRecord {
            job: "sf-n64-d0.1-r0".into(),
            protocol: "sf".into(),
            n: 64,
            h: 64,
            s0: 0,
            s1: 1,
            delta: 0.1,
            c1: 1.0,
            seed: u64::MAX - 3,
            budget: 40,
            status: JobStatus::Checkpointed,
            checkpoint: Some("checkpoints/sf-n64-d0.1-r0.snap".into()),
            round: 16,
            consensus: false,
            correct: 41,
        }
    }

    #[test]
    fn encode_decode_encode_is_byte_identical() {
        let line = record().to_json_line();
        let decoded = JobRecord::parse(&line).unwrap();
        assert_eq!(decoded, record());
        assert_eq!(decoded.to_json_line(), line);
    }

    #[test]
    fn large_seeds_survive_exactly() {
        let line = record().to_json_line();
        assert!(line.contains(&format!("\"seed\":{}", u64::MAX - 3)));
        assert_eq!(JobRecord::parse(&line).unwrap().seed, u64::MAX - 3);
    }

    #[test]
    fn done_record_has_null_checkpoint() {
        let mut rec = record();
        rec.status = JobStatus::Done;
        rec.checkpoint = None;
        rec.consensus = true;
        let line = rec.to_json_line();
        assert!(line.contains("\"checkpoint\":null"));
        assert_eq!(JobRecord::parse(&line).unwrap(), rec);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let mut rec = record();
        rec.job = "weird \"job\"\\ with\nnewline\tand \u{1} control".into();
        let line = rec.to_json_line();
        assert_eq!(JobRecord::parse(&line).unwrap(), rec);
        assert_eq!(JobRecord::parse(&line).unwrap().to_json_line(), line);
    }

    #[test]
    fn rejects_malformed_lines() {
        let check = |line: &str, needle: &str| {
            let e = JobRecord::parse(line).unwrap_err().to_string();
            assert!(e.contains(needle), "`{line}` → {e}");
        };
        check("", "expected `{`");
        check("{", "expected"); // truncated object
        check("{}", "missing `schema`");
        check(
            "{\"schema\":\"np-manifest/v9\"}",
            "unsupported manifest schema",
        );
        check(&format!("{} trailing", record().to_json_line()), "trailing");
        check("{\"schema\":5}", "expected a string");
        let line = record().to_json_line().replace("\"n\":64", "\"n\":-4");
        check(&line, "`n`");
        let line = record()
            .to_json_line()
            .replace("\"status\":\"checkpointed\"", "\"status\":\"zzz\"");
        check(&line, "unknown job status");
        let line = record()
            .to_json_line()
            .replace("\"consensus\":false", "\"consensus\":7");
        check(&line, "expected a boolean");
    }

    #[test]
    fn append_load_and_latest_wins() {
        let dir = std::env::temp_dir().join("np_sweep_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.jsonl");
        std::fs::remove_file(&path).ok();
        let first = record();
        let mut second = record();
        second.status = JobStatus::Done;
        second.checkpoint = None;
        second.round = 33;
        let mut other = record();
        other.job = "ssf-n64-d0.1-r0".into();
        append_record(&path, &first).unwrap();
        append_record(&path, &other).unwrap();
        append_record(&path, &second).unwrap();
        let records = load_manifest(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(latest(&records, &first.job), Some(&second));
        assert_eq!(latest(&records, &other.job), Some(&other));
        assert_eq!(latest(&records, "nope"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn status_names_round_trip() {
        for s in [JobStatus::Pending, JobStatus::Checkpointed, JobStatus::Done] {
            assert_eq!(JobStatus::parse(s.name()).unwrap(), s);
        }
        assert!(JobStatus::parse("zzz").is_err());
    }
}
