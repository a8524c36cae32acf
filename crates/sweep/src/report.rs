//! The `np-bench/v1` perf-trajectory document: one [`PerfPoint`] per
//! configuration, rendered by [`bench_json`]. A sweep aggregates its
//! finished jobs into one (`report.json`, see [`crate::scheduler`]), and
//! the experiment binaries write the committed `BENCH_*.json` files at
//! the workspace root with [`save_bench_json`]. Values are encoded
//! through [`np_engine::json`]; `cargo xtask check-artifacts` validates
//! the result.

use std::path::{Path, PathBuf};

use np_engine::json;

/// The workspace root (two levels above `crates/sweep`): the home of the
/// committed `BENCH_*.json` perf-trajectory files and of `target/`.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// One point of a perf trajectory: a batch of seeded runs at one
/// configuration, aggregated. Wall-clock means are allowed here — bench
/// artifacts record performance and are never byte-compared.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPoint {
    /// Point label (e.g. `"n=16384"`).
    pub label: String,
    /// Population size at this point.
    pub n: usize,
    /// Seeded runs at this point.
    pub runs: usize,
    /// How many of them converged.
    pub converged: usize,
    /// Mean rounds-to-settle over converged runs (`null` if none).
    pub mean_rounds: Option<f64>,
    /// Mean wall-clock per run, milliseconds.
    pub mean_wall_ms: f64,
    /// Median wall-clock per run, milliseconds. Present only for benches
    /// that record per-seed wall samples (the cluster bench); omitted from the
    /// JSON when absent so legacy artifacts stay schema-valid.
    pub median_wall_ms: Option<f64>,
    /// 95th-percentile wall-clock per run, milliseconds (nearest-rank
    /// over the per-seed samples). Paired with `median_wall_ms`: both
    /// present or both absent.
    pub p95_wall_ms: Option<f64>,
    /// Simulation backend that produced this point: `"per-agent"` or
    /// `"mean-field"`. Omitted from the JSON when absent so legacy
    /// artifacts (which predate the mean-field counts engine) stay
    /// schema-valid.
    pub backend: Option<String>,
    /// Graph degree at this point (topology benches only). Omitted from
    /// the JSON when absent so complete-graph artifacts stay
    /// schema-valid.
    pub degree: Option<u64>,
    /// Fraction of runs that converged, `converged / runs` (topology
    /// benches only, where partial convergence is the interesting
    /// signal). Omitted from the JSON when absent.
    pub convergence_rate: Option<f64>,
    /// Total peer-to-peer messages put on the wire across the point's
    /// runs (cluster benches only, where message complexity is measured
    /// rather than derived as `n·h·rounds`). Omitted from the JSON when
    /// absent so round-engine artifacts stay schema-valid.
    pub messages_total: Option<u64>,
}

/// Nearest-rank quantiles of per-run wall samples: `(median, p95)`.
/// Returns `None` for an empty slice.
pub fn wall_quantiles(samples_ms: &[f64]) -> Option<(f64, f64)> {
    if samples_ms.is_empty() {
        return None;
    }
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        let k = (q * sorted.len() as f64).ceil() as usize;
        sorted[k.max(1) - 1]
    };
    Some((rank(0.5), rank(0.95)))
}

impl PerfPoint {
    fn to_json(&self) -> String {
        let mut body = format!(
            "    {{\"label\": {}, \"n\": {}, \"runs\": {}, \"converged\": {}, \
             \"mean_rounds\": {}, \"mean_wall_ms\": {}",
            json::escape(&self.label),
            self.n,
            self.runs,
            self.converged,
            self.mean_rounds.map_or("null".to_string(), json::number),
            json::number(self.mean_wall_ms)
        );
        if let (Some(median), Some(p95)) = (self.median_wall_ms, self.p95_wall_ms) {
            body.push_str(&format!(
                ", \"median_wall_ms\": {}, \"p95_wall_ms\": {}",
                json::number(median),
                json::number(p95)
            ));
        }
        if let Some(backend) = &self.backend {
            body.push_str(&format!(", \"backend\": {}", json::escape(backend)));
        }
        if let Some(degree) = self.degree {
            body.push_str(&format!(", \"degree\": {degree}"));
        }
        if let Some(rate) = self.convergence_rate {
            body.push_str(&format!(", \"convergence_rate\": {}", json::number(rate)));
        }
        if let Some(messages) = self.messages_total {
            body.push_str(&format!(", \"messages_total\": {messages}"));
        }
        body.push('}');
        body
    }
}

/// Renders a perf trajectory as the `BENCH_*.json` document.
pub fn bench_json(bench: &str, points: &[PerfPoint]) -> String {
    let body: Vec<String> = points.iter().map(PerfPoint::to_json).collect();
    format!(
        "{{\n  \"schema\": \"np-bench/v1\",\n  \"bench\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        json::escape(bench),
        body.join(",\n")
    )
}

/// Writes the perf trajectory to `BENCH_<name>.json` at the workspace
/// root (the committed bench-history location) and returns the path.
///
/// # Errors
///
/// Propagates I/O errors from the write.
pub fn save_bench_json(name: &str, points: &[PerfPoint]) -> std::io::Result<PathBuf> {
    let path = workspace_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, bench_json(name, points))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_document_shape() {
        let points = vec![
            PerfPoint {
                label: "n=64".to_string(),
                n: 64,
                runs: 4,
                converged: 4,
                mean_rounds: Some(12.5),
                mean_wall_ms: 3.25,
                median_wall_ms: None,
                p95_wall_ms: None,
                backend: None,
                degree: None,
                convergence_rate: None,
                messages_total: None,
            },
            PerfPoint {
                label: "n=128".to_string(),
                n: 128,
                runs: 4,
                converged: 0,
                mean_rounds: None,
                mean_wall_ms: 6.5,
                median_wall_ms: Some(6.25),
                p95_wall_ms: Some(8.0),
                backend: Some("mean-field".to_string()),
                degree: None,
                convergence_rate: None,
                messages_total: None,
            },
        ];
        let doc = bench_json("scale", &points);
        assert!(doc.contains("\"schema\": \"np-bench/v1\""));
        assert!(doc.contains("\"bench\": \"scale\""));
        assert!(doc.contains("\"mean_rounds\": 12.5"));
        assert!(doc.contains("\"mean_rounds\": null"));
        assert_eq!(doc.matches("\"label\"").count(), 2);
        // Backend key is trailing and only present when set.
        assert!(doc.contains("\"p95_wall_ms\": 8, \"backend\": \"mean-field\"}"));
        assert_eq!(doc.matches("\"backend\"").count(), 1);
        // Topology keys stay absent unless set.
        assert!(!doc.contains("degree"));
        assert!(!doc.contains("convergence_rate"));
    }

    #[test]
    fn topology_point_appends_degree_and_rate() {
        let point = PerfPoint {
            label: "sf ring:4 d=0.20".to_string(),
            n: 256,
            runs: 8,
            converged: 6,
            mean_rounds: Some(41.5),
            mean_wall_ms: 2.0,
            median_wall_ms: None,
            p95_wall_ms: None,
            backend: None,
            degree: Some(8),
            convergence_rate: Some(0.75),
            messages_total: None,
        };
        let doc = bench_json("topology", &[point]);
        assert!(doc.contains("\"degree\": 8, \"convergence_rate\": 0.75}"));
    }

    #[test]
    fn cluster_point_appends_messages_total() {
        let point = PerfPoint {
            label: "lat=50us drop=0".to_string(),
            n: 256,
            runs: 8,
            converged: 8,
            mean_rounds: Some(90.0),
            mean_wall_ms: 95.0,
            median_wall_ms: Some(92.0),
            p95_wall_ms: Some(110.0),
            backend: None,
            degree: None,
            convergence_rate: Some(1.0),
            messages_total: Some(4_096_000),
        };
        let doc = bench_json("cluster", &[point]);
        assert!(doc.contains("\"convergence_rate\": 1, \"messages_total\": 4096000}"));
    }

    #[test]
    fn workspace_root_contains_the_sweep_crate() {
        assert!(workspace_root().join("crates").join("sweep").is_dir());
    }

    /// Rebuilds a point from its parsed JSON, the inverse of `to_json`.
    fn point_from(v: &json::Json) -> PerfPoint {
        use json::Json;
        let float = |k: &str| v.get(k).and_then(Json::as_f64);
        let int = |k: &str| v.get(k).and_then(Json::as_u64);
        let size = |k: &str| usize::try_from(int(k).unwrap()).unwrap();
        let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        PerfPoint {
            label: text("label").unwrap(),
            n: size("n"),
            runs: size("runs"),
            converged: size("converged"),
            mean_rounds: float("mean_rounds"),
            mean_wall_ms: float("mean_wall_ms").unwrap(),
            median_wall_ms: float("median_wall_ms"),
            p95_wall_ms: float("p95_wall_ms"),
            backend: text("backend"),
            degree: int("degree"),
            convergence_rate: float("convergence_rate"),
            messages_total: int("messages_total"),
        }
    }

    #[test]
    fn committed_bench_files_re_render_byte_for_byte() {
        for name in ["cluster", "fault_recovery", "topology"] {
            let path = workspace_root().join(format!("BENCH_{name}.json"));
            let committed = std::fs::read_to_string(&path).unwrap();
            let doc = json::parse(&committed).unwrap();
            let points: Vec<PerfPoint> = doc
                .get("points")
                .and_then(json::Json::as_arr)
                .unwrap()
                .iter()
                .map(point_from)
                .collect();
            assert_eq!(bench_json(name, &points), committed, "BENCH_{name}.json");
        }
    }
}
