//! `cargo xtask check-artifacts`: static validation of the workspace's
//! committed/emitted JSON artifacts against their v1 schemas.
//!
//! Validators are strict on *shape* — exact key sets, fixed order where
//! the writer fixes it, type checks, enum domains — plus the cross-field
//! invariants a schema alone cannot say (`converged == 0` ⟺
//! `mean_rounds == null`, a `checkpointed` record carries a checkpoint
//! path, report entries are sorted). Anything the writers in
//! `np_engine::metrics`, `np_sweep::report` and `np_sweep::manifest`
//! cannot emit is an error here. Files are read with the same codec they
//! are written with, [`np_engine::json`].
//!
//! Supported schemas: `np-bench/v1`, `np-run-summary/v1`,
//! `np-manifest/v1` (JSONL).

use std::path::{Path, PathBuf};

use np_engine::json::{self, Json};

/// Keys of an np-bench/v1 document, in writer order.
const BENCH_KEYS: &[&str] = &["schema", "bench", "points"];
/// Keys of one np-bench/v1 point, in writer order.
const POINT_KEYS: &[&str] = &[
    "label",
    "n",
    "runs",
    "converged",
    "mean_rounds",
    "mean_wall_ms",
];
/// Optional trailing keys of an np-bench/v1 point: per-seed wall-clock
/// quantiles (emitted only by benches that record one sample per seeded
/// run — both present or both absent), the simulation backend tag
/// (emitted by benches that mix per-agent and mean-field points), and
/// the topology keys (graph degree plus convergence rate, emitted by the
/// graph-restricted benches), and the wire-message count (emitted by the
/// cluster benches, which measure traffic at the transport instead of
/// deriving it as n·h·rounds).
const POINT_OPTIONAL_KEYS: &[&str] = &[
    "median_wall_ms",
    "p95_wall_ms",
    "backend",
    "degree",
    "convergence_rate",
    "messages_total",
];
/// Legal values of a point's `backend` tag.
const POINT_BACKENDS: &[&str] = &["per-agent", "mean-field", "sim-cluster"];
/// Keys of an np-run-summary/v1 document, in writer order (faults only
/// present for fault-injected runs).
const SUMMARY_KEYS: &[&str] = &[
    "schema",
    "protocol",
    "n",
    "h",
    "s0",
    "s1",
    "seed",
    "rounds",
    "consensus",
    "final_correct",
    "final_margin",
    "weak_formed",
    "weak_correct",
];
/// Keys of one fault-recovery record, in writer order.
const FAULT_KEYS: &[&str] = &["round", "label", "recovered_round", "recovery_rounds"];
/// Keys of one np-manifest/v1 job record, in writer order.
const MANIFEST_KEYS: &[&str] = &[
    "schema",
    "job",
    "protocol",
    "n",
    "h",
    "s0",
    "s1",
    "delta",
    "c1",
    "seed",
    "budget",
    "status",
    "checkpoint",
    "round",
    "consensus",
    "correct",
];
/// The artifacts `check-artifacts` validates when given no paths: every
/// `BENCH_*.json` file directly under `root`, in sorted order. The set is
/// read from the directory, so a BENCH file cannot be added or deleted
/// without the gate following. `BENCHMARK.json` does not match.
///
/// # Errors
///
/// Returns the I/O error if `root` cannot be listed.
pub fn default_artifacts(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

/// Validates one artifact file's *text*, sniffing the schema from the
/// first JSON value. Returns a one-line description of what was
/// validated, or every problem found.
pub fn validate_text(text: &str) -> Result<String, Vec<String>> {
    let first_line = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    // A whole-document artifact parses as one value; a JSONL artifact's
    // first line does.
    let head = json::parse(text.trim_end()).or_else(|_| json::parse(first_line));
    let schema = head
        .ok()
        .and_then(|v| v.get("schema").and_then(Json::as_str).map(str::to_owned));
    match schema.as_deref() {
        Some("np-bench/v1") => validate_bench(text),
        Some("np-run-summary/v1") => validate_run_summary(text),
        Some("np-manifest/v1") => validate_manifest(text),
        Some(other) => Err(vec![format!("unknown artifact schema {other:?}")]),
        None => Err(vec!["no schema tag found (not a v1 artifact?)".to_owned()]),
    }
}

/// Validates an `np-bench/v1` perf-trajectory document.
pub fn validate_bench(text: &str) -> Result<String, Vec<String>> {
    let mut errs = Vec::new();
    let doc = match json::parse(text.trim_end()) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("parse: {e}")]),
    };
    check_keys(&doc, BENCH_KEYS, "document", &mut errs);
    expect_str(&doc, "schema", Some("np-bench/v1"), "document", &mut errs);
    expect_str(&doc, "bench", None, "document", &mut errs);
    let mut points_seen = 0usize;
    match doc.get("points").and_then(Json::as_arr) {
        None => errs.push("document: `points` must be an array".to_owned()),
        Some(points) => {
            points_seen = points.len();
            if points.is_empty() {
                errs.push(
                    "document: `points` is empty — a bench with no points measures nothing"
                        .to_owned(),
                );
            }
            for (i, point) in points.iter().enumerate() {
                let at = format!("points[{i}]");
                check_keys_with_optional(point, POINT_KEYS, POINT_OPTIONAL_KEYS, &at, &mut errs);
                expect_str(point, "label", None, &at, &mut errs);
                let n = expect_u64(point, "n", &at, &mut errs);
                let runs = expect_u64(point, "runs", &at, &mut errs);
                let converged = expect_u64(point, "converged", &at, &mut errs);
                expect_finite_num(point, "mean_wall_ms", &at, &mut errs);
                // Wall-clock quantiles: a bench either records per-seed
                // samples (both keys, finite, median ≤ p95) or it doesn't
                // (neither key). One without the other means the writer
                // regressed or the artifact was hand-edited.
                let median = point.get("median_wall_ms").map(|_| ());
                let p95 = point.get("p95_wall_ms").map(|_| ());
                match (median, p95) {
                    (Some(()), Some(())) => {
                        expect_finite_num(point, "median_wall_ms", &at, &mut errs);
                        expect_finite_num(point, "p95_wall_ms", &at, &mut errs);
                        if let (Some(m), Some(p)) = (
                            point.get("median_wall_ms").and_then(Json::as_f64),
                            point.get("p95_wall_ms").and_then(Json::as_f64),
                        ) {
                            if p < m {
                                errs.push(format!(
                                    "{at}: p95_wall_ms ({p}) is below median_wall_ms ({m})"
                                ));
                            }
                        }
                    }
                    (None, None) => {}
                    _ => errs.push(format!(
                        "{at}: median_wall_ms and p95_wall_ms must appear together"
                    )),
                }
                // Backend tag: optional, but when present it must name one
                // of the two engines the writers actually have.
                if let Some(backend) = point.get("backend") {
                    match backend.as_str() {
                        Some(b) if POINT_BACKENDS.contains(&b) => {}
                        Some(other) => {
                            errs.push(format!("{at}: unknown backend {other:?}"));
                        }
                        None => errs.push(format!("{at}: `backend` must be a string")),
                    }
                }
                // Topology keys: the degree is a positive integer, and
                // the convergence rate must be the fraction the point's
                // own counters imply — anything else is a hand-edit.
                if let Some(degree) = point.get("degree") {
                    match degree.as_u64() {
                        Some(d) if d >= 1 => {}
                        Some(0) => errs.push(format!("{at}: `degree` must be at least 1")),
                        _ => errs.push(format!("{at}: `degree` must be a positive integer")),
                    }
                }
                if let Some(rate) = point.get("convergence_rate") {
                    match rate.as_f64() {
                        Some(r) if r.is_finite() && (0.0..=1.0).contains(&r) => {
                            if let (Some(runs), Some(converged)) = (runs, converged) {
                                if runs > 0 && (r - converged as f64 / runs as f64).abs() > 1e-9 {
                                    errs.push(format!(
                                        "{at}: convergence_rate ({r}) ≠ converged/runs \
                                         ({converged}/{runs})"
                                    ));
                                }
                            }
                        }
                        _ => errs.push(format!(
                            "{at}: `convergence_rate` must be a finite number in [0, 1]"
                        )),
                    }
                }
                // Wire-message count: a plain non-negative integer (JSON
                // numbers parse to u64 here, so any non-integer or
                // negative encoding fails the as_u64 probe).
                if let Some(messages) = point.get("messages_total") {
                    if messages.as_u64().is_none() {
                        errs.push(format!(
                            "{at}: `messages_total` must be a non-negative integer"
                        ));
                    }
                }
                if n == Some(0) {
                    errs.push(format!("{at}: `n` must be positive"));
                }
                if let (Some(runs), Some(converged)) = (runs, converged) {
                    if converged > runs {
                        errs.push(format!(
                            "{at}: converged ({converged}) exceeds runs ({runs})"
                        ));
                    }
                }
                // The writer emits null exactly when no run converged; a
                // number paired with converged == 0 (or vice versa) means
                // the artifact was hand-edited or the writer regressed.
                match (point.get("mean_rounds"), converged) {
                    (Some(Json::Null), Some(c)) if c > 0 => {
                        errs.push(format!(
                            "{at}: mean_rounds is null but {c} run(s) converged"
                        ));
                    }
                    (Some(Json::Num(_)), Some(0)) => {
                        errs.push(format!(
                            "{at}: mean_rounds is a number but no run converged"
                        ));
                    }
                    (Some(Json::Null | Json::Num(_)), _) => {}
                    (Some(other), _) => errs.push(format!(
                        "{at}: mean_rounds must be number|null, got {}",
                        other.type_name()
                    )),
                    (None, _) => {} // missing-key error already recorded
                }
            }
        }
    }
    finish(errs, format!("np-bench/v1, {points_seen} point(s)"))
}

/// Validates an `np-run-summary/v1` document.
pub fn validate_run_summary(text: &str) -> Result<String, Vec<String>> {
    let mut errs = Vec::new();
    let doc = match json::parse(text.trim_end()) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("parse: {e}")]),
    };
    // `faults` is a legal trailing key for fault-injected runs.
    let has_faults = doc.get("faults").is_some();
    let mut expected: Vec<&str> = SUMMARY_KEYS.to_vec();
    if has_faults {
        expected.push("faults");
    }
    check_keys(&doc, &expected, "summary", &mut errs);
    expect_str(
        &doc,
        "schema",
        Some("np-run-summary/v1"),
        "summary",
        &mut errs,
    );
    expect_str(&doc, "protocol", None, "summary", &mut errs);
    let n = expect_u64(&doc, "n", "summary", &mut errs);
    let h = expect_u64(&doc, "h", "summary", &mut errs);
    let s0 = expect_u64(&doc, "s0", "summary", &mut errs);
    let s1 = expect_u64(&doc, "s1", "summary", &mut errs);
    expect_u64(&doc, "seed", "summary", &mut errs);
    expect_u64(&doc, "rounds", "summary", &mut errs);
    expect_bool(&doc, "consensus", "summary", &mut errs);
    let final_correct = expect_u64(&doc, "final_correct", "summary", &mut errs);
    expect_num_or_null(&doc, "final_margin", "summary", &mut errs);
    let weak_formed = expect_u64(&doc, "weak_formed", "summary", &mut errs);
    let weak_correct = expect_u64(&doc, "weak_correct", "summary", &mut errs);
    if let (Some(n), Some(h)) = (n, h) {
        if h == 0 || h > n {
            errs.push(format!("summary: h ({h}) must be in 1..=n ({n})"));
        }
    }
    if let (Some(n), Some(s0), Some(s1)) = (n, s0, s1) {
        if s0 + s1 > n {
            errs.push(format!("summary: s0+s1 ({}) exceeds n ({n})", s0 + s1));
        }
    }
    if let (Some(n), Some(c)) = (n, final_correct) {
        if c > n {
            errs.push(format!("summary: final_correct ({c}) exceeds n ({n})"));
        }
    }
    if let (Some(wf), Some(wc)) = (weak_formed, weak_correct) {
        if wc > wf {
            errs.push(format!(
                "summary: weak_correct ({wc}) exceeds weak_formed ({wf})"
            ));
        }
    }
    let mut fault_count = 0usize;
    if has_faults {
        match doc.get("faults").and_then(Json::as_arr) {
            None => errs.push("summary: `faults` must be an array".to_owned()),
            Some(faults) => {
                fault_count = faults.len();
                if faults.is_empty() {
                    errs.push(
                        "summary: empty `faults` array (the writer omits the key entirely \
                         for fault-free runs)"
                            .to_owned(),
                    );
                }
                for (i, fault) in faults.iter().enumerate() {
                    let at = format!("faults[{i}]");
                    check_keys(fault, FAULT_KEYS, &at, &mut errs);
                    let round = expect_u64(fault, "round", &at, &mut errs);
                    expect_str(fault, "label", None, &at, &mut errs);
                    match (fault.get("recovered_round"), fault.get("recovery_rounds")) {
                        (Some(Json::Null), Some(Json::Null)) => {}
                        (Some(Json::Num(_)), Some(Json::Num(_))) => {
                            let rec = fault.get("recovered_round").and_then(Json::as_u64);
                            let dur = fault.get("recovery_rounds").and_then(Json::as_u64);
                            if let (Some(rec), Some(dur), Some(round)) = (rec, dur, round) {
                                if rec < round || rec - round != dur {
                                    errs.push(format!(
                                        "{at}: recovery_rounds ({dur}) ≠ recovered_round \
                                         ({rec}) - round ({round})"
                                    ));
                                }
                            }
                        }
                        (Some(_), Some(_)) => errs.push(format!(
                            "{at}: recovered_round and recovery_rounds must be both \
                             numbers or both null"
                        )),
                        _ => {} // missing-key errors already recorded
                    }
                }
            }
        }
    }
    let what = if has_faults {
        format!("np-run-summary/v1, {fault_count} fault event(s)")
    } else {
        "np-run-summary/v1".to_owned()
    };
    finish(errs, what)
}

/// Validates an `np-manifest/v1` JSONL job journal.
pub fn validate_manifest(text: &str) -> Result<String, Vec<String>> {
    let mut errs = Vec::new();
    let mut records = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = format!("line {}", idx + 1);
        let rec = match json::parse(line) {
            Ok(rec) => rec,
            Err(e) => {
                errs.push(format!("{at}: parse: {e}"));
                continue;
            }
        };
        records += 1;
        check_keys(&rec, MANIFEST_KEYS, &at, &mut errs);
        expect_str(&rec, "schema", Some("np-manifest/v1"), &at, &mut errs);
        expect_str(&rec, "job", None, &at, &mut errs);
        expect_str(&rec, "protocol", None, &at, &mut errs);
        let n = expect_u64(&rec, "n", &at, &mut errs);
        expect_u64(&rec, "h", &at, &mut errs);
        expect_u64(&rec, "s0", &at, &mut errs);
        expect_u64(&rec, "s1", &at, &mut errs);
        expect_num_or_null(&rec, "delta", &at, &mut errs);
        expect_num_or_null(&rec, "c1", &at, &mut errs);
        expect_u64(&rec, "seed", &at, &mut errs);
        expect_u64(&rec, "budget", &at, &mut errs);
        expect_u64(&rec, "round", &at, &mut errs);
        expect_bool(&rec, "consensus", &at, &mut errs);
        let correct = expect_u64(&rec, "correct", &at, &mut errs);
        if let (Some(n), Some(c)) = (n, correct) {
            if c > n {
                errs.push(format!("{at}: correct ({c}) exceeds n ({n})"));
            }
        }
        let status = rec.get("status").and_then(Json::as_str);
        match status {
            Some("pending" | "checkpointed" | "done") => {}
            Some(other) => errs.push(format!("{at}: unknown status {other:?}")),
            None => errs.push(format!("{at}: `status` must be a string")),
        }
        // A checkpoint path is present exactly for checkpointed records.
        match (status, rec.get("checkpoint")) {
            (Some("checkpointed"), Some(Json::Str(_))) => {}
            (Some("checkpointed"), Some(_)) => {
                errs.push(format!(
                    "{at}: checkpointed record without a checkpoint path"
                ));
            }
            (Some("pending" | "done"), Some(Json::Null)) => {}
            (Some("pending" | "done"), Some(_)) => {
                errs.push(format!(
                    "{at}: non-checkpointed record carries a checkpoint value"
                ));
            }
            _ => {} // missing-key / bad-status errors already recorded
        }
    }
    if records == 0 {
        errs.push("manifest has no records".to_owned());
    }
    finish(errs, format!("np-manifest/v1, {records} record(s)"))
}

fn finish(errs: Vec<String>, what: String) -> Result<String, Vec<String>> {
    if errs.is_empty() {
        Ok(what)
    } else {
        Err(errs)
    }
}

/// Exact-key check: every expected key present, no stray keys, no
/// duplicates. Order is not enforced (the writers fix it, but key order
/// is semantically irrelevant and a reorder is caught by the byte-compare
/// gates instead).
fn check_keys(v: &Json, expected: &[&str], at: &str, errs: &mut Vec<String>) {
    check_keys_with_optional(v, expected, &[], at, errs);
}

/// Like [`check_keys`], but tolerates (without requiring) the keys in
/// `optional`. Stray keys outside both sets and duplicates stay errors.
fn check_keys_with_optional(
    v: &Json,
    expected: &[&str],
    optional: &[&str],
    at: &str,
    errs: &mut Vec<String>,
) {
    let Some(fields) = v.as_obj() else {
        errs.push(format!("{at}: expected an object, got {}", v.type_name()));
        return;
    };
    for &key in expected {
        if !fields.iter().any(|(k, _)| k == key) {
            errs.push(format!("{at}: missing key {key:?}"));
        }
    }
    for (k, _) in fields {
        if !expected.contains(&k.as_str()) && !optional.contains(&k.as_str()) {
            errs.push(format!("{at}: unexpected key {k:?}"));
        }
    }
    for (i, (k, _)) in fields.iter().enumerate() {
        if fields.iter().skip(i + 1).any(|(k2, _)| k2 == k) {
            errs.push(format!("{at}: duplicate key {k:?}"));
        }
    }
}

fn expect_str(v: &Json, key: &str, want: Option<&str>, at: &str, errs: &mut Vec<String>) {
    match v.get(key).and_then(Json::as_str) {
        Some(s) => {
            if let Some(want) = want {
                if s != want {
                    errs.push(format!("{at}: {key} is {s:?}, expected {want:?}"));
                }
            }
        }
        None => errs.push(format!("{at}: `{key}` must be a string")),
    }
}

fn expect_u64(v: &Json, key: &str, at: &str, errs: &mut Vec<String>) -> Option<u64> {
    match v.get(key).and_then(Json::as_u64) {
        Some(n) => Some(n),
        None => {
            errs.push(format!("{at}: `{key}` must be a non-negative integer"));
            None
        }
    }
}

fn expect_bool(v: &Json, key: &str, at: &str, errs: &mut Vec<String>) {
    if v.get(key).and_then(Json::as_bool).is_none() {
        errs.push(format!("{at}: `{key}` must be a boolean"));
    }
}

fn expect_finite_num(v: &Json, key: &str, at: &str, errs: &mut Vec<String>) {
    match v.get(key).and_then(Json::as_f64) {
        Some(x) if x.is_finite() => {}
        _ => errs.push(format!("{at}: `{key}` must be a finite number")),
    }
}

fn expect_num_or_null(v: &Json, key: &str, at: &str, errs: &mut Vec<String>) {
    match v.get(key) {
        Some(Json::Num(_) | Json::Null) => {}
        Some(other) => errs.push(format!(
            "{at}: `{key}` must be number|null, got {}",
            other.type_name()
        )),
        None => errs.push(format!("{at}: missing key {key:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_BENCH: &str = r#"{
  "schema": "np-bench/v1",
  "bench": "scale",
  "points": [
    {"label": "n=64", "n": 64, "runs": 4, "converged": 4, "mean_rounds": 12.5, "mean_wall_ms": 3.25},
    {"label": "n=128", "n": 128, "runs": 4, "converged": 0, "mean_rounds": null, "mean_wall_ms": 6.5}
  ]
}
"#;

    #[test]
    fn workspace_default_set_is_the_committed_bench_files() {
        // Sorted, and `BENCHMARK.json` (also at the root) is not picked up.
        // A BENCH file added or deleted at the root must update this pin.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        let names: Vec<String> = default_artifacts(root)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            [
                "BENCH_cluster.json",
                "BENCH_fault_recovery.json",
                "BENCH_topology.json"
            ]
        );
    }

    #[test]
    fn good_bench_validates() {
        assert_eq!(
            validate_text(GOOD_BENCH).expect("valid"),
            "np-bench/v1, 2 point(s)"
        );
    }

    #[test]
    fn bench_converged_mean_rounds_cross_check() {
        let bad = GOOD_BENCH.replace("\"converged\": 4", "\"converged\": 0");
        let errs = validate_text(&bad).expect_err("inconsistent");
        assert!(
            errs.iter().any(|e| e.contains("no run converged")),
            "{errs:?}"
        );
        let bad = GOOD_BENCH.replace("\"mean_rounds\": null", "\"mean_rounds\": 9.0");
        let errs = validate_text(&bad).expect_err("inconsistent");
        assert!(
            errs.iter()
                .any(|e| e.contains("is a number but no run converged")),
            "{errs:?}"
        );
    }

    #[test]
    fn bench_wall_quantiles_validate_when_present() {
        let good = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"median_wall_ms\": 3.0, \"p95_wall_ms\": 4.5",
        );
        assert_eq!(
            validate_text(&good).expect("quantiles valid"),
            "np-bench/v1, 2 point(s)"
        );
        // One quantile without the other is a writer regression.
        let bad = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"median_wall_ms\": 3.0",
        );
        let errs = validate_text(&bad).expect_err("unpaired quantile");
        assert!(
            errs.iter().any(|e| e.contains("must appear together")),
            "{errs:?}"
        );
        // p95 below the median cannot come out of nearest-rank order stats.
        let bad = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"median_wall_ms\": 4.5, \"p95_wall_ms\": 3.0",
        );
        let errs = validate_text(&bad).expect_err("inverted quantiles");
        assert!(
            errs.iter().any(|e| e.contains("below median_wall_ms")),
            "{errs:?}"
        );
    }

    #[test]
    fn bench_messages_total_is_validated_when_present() {
        let good = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"messages_total\": 4096000",
        );
        assert_eq!(
            validate_text(&good).expect("messages_total valid"),
            "np-bench/v1, 2 point(s)"
        );
        let zero = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"messages_total\": 0",
        );
        assert!(validate_text(&zero).is_ok(), "zero messages is legal");
        for bad_value in ["-5", "3.5", "\"many\""] {
            let bad = GOOD_BENCH.replace(
                "\"mean_wall_ms\": 3.25",
                &format!("\"mean_wall_ms\": 3.25, \"messages_total\": {bad_value}"),
            );
            let errs = validate_text(&bad).expect_err("bad messages_total");
            assert!(
                errs.iter()
                    .any(|e| e.contains("`messages_total` must be a non-negative integer")),
                "{bad_value}: {errs:?}"
            );
        }
    }

    #[test]
    fn bench_sim_cluster_backend_tag_is_legal() {
        let good = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"backend\": \"sim-cluster\"",
        );
        assert!(validate_text(&good).is_ok());
    }

    #[test]
    fn bench_backend_tag_is_validated_when_present() {
        let good = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"backend\": \"mean-field\"",
        );
        assert_eq!(
            validate_text(&good).expect("backend valid"),
            "np-bench/v1, 2 point(s)"
        );
        let good = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"backend\": \"per-agent\"",
        );
        assert!(validate_text(&good).is_ok());
        let bad = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"backend\": \"quantum\"",
        );
        let errs = validate_text(&bad).expect_err("unknown backend");
        assert!(
            errs.iter()
                .any(|e| e.contains("unknown backend \"quantum\"")),
            "{errs:?}"
        );
        let bad = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"backend\": 7",
        );
        let errs = validate_text(&bad).expect_err("non-string backend");
        assert!(
            errs.iter()
                .any(|e| e.contains("`backend` must be a string")),
            "{errs:?}"
        );
    }

    #[test]
    fn bench_topology_keys_are_validated_when_present() {
        let good = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"degree\": 8, \"convergence_rate\": 1",
        );
        assert_eq!(
            validate_text(&good).expect("topology keys valid"),
            "np-bench/v1, 2 point(s)"
        );
        let bad = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"degree\": 0",
        );
        let errs = validate_text(&bad).expect_err("zero degree");
        assert!(
            errs.iter()
                .any(|e| e.contains("`degree` must be at least 1")),
            "{errs:?}"
        );
        let bad = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"convergence_rate\": 1.5",
        );
        let errs = validate_text(&bad).expect_err("rate out of range");
        assert!(errs.iter().any(|e| e.contains("in [0, 1]")), "{errs:?}");
        // The rate must match the point's own converged/runs counters.
        let bad = GOOD_BENCH.replace(
            "\"mean_wall_ms\": 3.25",
            "\"mean_wall_ms\": 3.25, \"convergence_rate\": 0.5",
        );
        let errs = validate_text(&bad).expect_err("rate mismatch");
        assert!(
            errs.iter().any(|e| e.contains("≠ converged/runs (4/4)")),
            "{errs:?}"
        );
    }

    #[test]
    fn bench_stray_and_missing_keys_are_flagged() {
        let bad = GOOD_BENCH.replace("\"bench\": \"scale\"", "\"bench\": \"scale\", \"extra\": 1");
        let errs = validate_text(&bad).expect_err("stray key");
        assert!(
            errs.iter().any(|e| e.contains("unexpected key \"extra\"")),
            "{errs:?}"
        );
        let bad = GOOD_BENCH.replace("\"runs\": 4, ", "");
        let errs = validate_text(&bad).expect_err("missing key");
        assert!(
            errs.iter().any(|e| e.contains("missing key \"runs\"")),
            "{errs:?}"
        );
    }

    fn good_summary() -> String {
        "{\n  \"schema\": \"np-run-summary/v1\",\n  \"protocol\": \"ssf\",\n  \"n\": 1024,\n  \
         \"h\": 16,\n  \"s0\": 8,\n  \"s1\": 24,\n  \"seed\": 7,\n  \"rounds\": 180,\n  \
         \"consensus\": true,\n  \"final_correct\": 1024,\n  \"final_margin\": 512,\n  \
         \"weak_formed\": 1024,\n  \"weak_correct\": 1000,\n  \"faults\": [\n    \
         {\"round\": 40, \"label\": \"split-brain:4\", \"recovered_round\": 65, \
         \"recovery_rounds\": 25}\n  ]\n}\n"
            .to_owned()
    }

    #[test]
    fn good_summary_validates() {
        assert_eq!(
            validate_text(&good_summary()).expect("valid"),
            "np-run-summary/v1, 1 fault event(s)"
        );
    }

    #[test]
    fn summary_recovery_arithmetic_is_checked() {
        let bad = good_summary().replace("\"recovery_rounds\": 25", "\"recovery_rounds\": 24");
        let errs = validate_text(&bad).expect_err("bad arithmetic");
        assert!(
            errs.iter().any(|e| e.contains("recovery_rounds (24)")),
            "{errs:?}"
        );
    }

    #[test]
    fn summary_mixed_null_recovery_is_rejected() {
        let bad = good_summary().replace("\"recovery_rounds\": 25", "\"recovery_rounds\": null");
        let errs = validate_text(&bad).expect_err("mixed null");
        assert!(
            errs.iter().any(|e| e.contains("both numbers or both null")),
            "{errs:?}"
        );
    }

    fn manifest_line(status: &str, checkpoint: &str) -> String {
        format!(
            "{{\"schema\":\"np-manifest/v1\",\"job\":\"j1\",\"protocol\":\"sf\",\"n\":256,\
             \"h\":8,\"s0\":2,\"s1\":6,\"delta\":0.1,\"c1\":1.5,\"seed\":99,\"budget\":500,\
             \"status\":{status},\"checkpoint\":{checkpoint},\"round\":120,\
             \"consensus\":false,\"correct\":200}}"
        )
    }

    #[test]
    fn good_manifest_validates() {
        let text = format!(
            "{}\n{}\n",
            manifest_line("\"pending\"", "null"),
            manifest_line("\"checkpointed\"", "\"snaps/j1.npsnap\"")
        );
        assert_eq!(
            validate_text(&text).expect("valid"),
            "np-manifest/v1, 2 record(s)"
        );
    }

    #[test]
    fn manifest_checkpoint_status_coupling() {
        let bad = format!("{}\n", manifest_line("\"checkpointed\"", "null"));
        let errs = validate_text(&bad).expect_err("no path");
        assert!(
            errs.iter().any(|e| e.contains("without a checkpoint path")),
            "{errs:?}"
        );
        let bad = format!("{}\n", manifest_line("\"done\"", "\"snaps/j1.npsnap\""));
        let errs = validate_text(&bad).expect_err("stray path");
        assert!(
            errs.iter().any(|e| e.contains("carries a checkpoint")),
            "{errs:?}"
        );
    }

    #[test]
    fn manifest_unknown_status_is_rejected() {
        let bad = format!("{}\n", manifest_line("\"zzz\"", "null"));
        let errs = validate_text(&bad).expect_err("status");
        assert!(
            errs.iter().any(|e| e.contains("unknown status")),
            "{errs:?}"
        );
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let errs = validate_text("{\"schema\":\"np-snap/v1\"}").expect_err("unknown");
        assert!(errs[0].contains("unknown artifact schema"), "{errs:?}");
        let errs = validate_text("[1,2,3]").expect_err("no tag");
        assert!(errs[0].contains("no schema tag"), "{errs:?}");
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
        // ~1 MB of `[` once aborted check-artifacts with a stack overflow.
        for unit in ["[", "{\"a\":"] {
            let text = unit.repeat((1 << 20) / unit.len());
            let errs = validate_text(&text).expect_err("nested junk");
            assert!(errs[0].contains("no schema tag"), "{errs:?}");
            assert!(validate_bench(&text).is_err());
            assert!(validate_run_summary(&text).is_err());
            assert!(validate_manifest(&text).is_err());
        }
    }
}
