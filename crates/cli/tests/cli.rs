//! Integration tests driving the real `noisy-pull` binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_noisy-pull"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "exit {:?} for {args:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn run_err(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "expected failure for {args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = run_ok(&["help"]);
    assert!(out.contains("USAGE"));
    assert!(out.contains("run sf"));
    let bare = run_ok(&[]);
    assert!(bare.contains("USAGE"));
}

#[test]
fn sf_run_reports_consensus() {
    let out = run_ok(&["run", "sf", "--n", "128", "--delta", "0.1", "--seed", "4"]);
    assert!(out.contains("SF:"), "{out}");
    assert!(out.contains("consensus settled at round"), "{out}");
}

#[test]
fn ssf_run_with_adversary() {
    let out = run_ok(&[
        "run",
        "ssf",
        "--n",
        "128",
        "--delta",
        "0.1",
        "--c1",
        "8",
        "--adversary",
        "poisoned-memory",
        "--seed",
        "2",
    ]);
    assert!(out.contains("consensus settled"), "{out}");
}

#[test]
fn baseline_voter_reports_failure_under_noise() {
    let out = run_ok(&["run", "baseline", "voter", "--n", "64", "--budget", "50"]);
    assert!(out.contains("zealot-voter"), "{out}");
}

#[test]
fn push_baseline_runs() {
    let out = run_ok(&[
        "run", "baseline", "push", "--n", "64", "--h", "1", "--delta", "0.1",
    ]);
    assert!(out.contains("push-spreading"), "{out}");
}

#[test]
fn theory_evaluates_bounds() {
    let out = run_ok(&["theory", "--n", "4096", "--h", "1", "--delta", "0.2"]);
    assert!(out.contains("Theorem 3"), "{out}");
    assert!(out.contains("Theorem 4"), "{out}");
    assert!(out.contains("Theorem 5"), "{out}");
}

#[test]
fn reduce_prints_matrices() {
    let out = run_ok(&["reduce", "--rows", "0.9,0.1;0.2,0.8"]);
    assert!(out.contains("artificial noise P"), "{out}");
    assert!(out.contains("composed N·P"), "{out}");
}

#[test]
fn errors_exit_nonzero_with_message() {
    let err = run_err(&["run", "sf", "--n", "64", "--bogus", "x"]);
    assert!(err.contains("--bogus"), "{err}");
    let err = run_err(&["frobnicate"]);
    assert!(err.contains("unknown command"), "{err}");
    let err = run_err(&["sweep", "throughput"]);
    assert!(
        err.contains("unknown sweep subcommand `throughput`; try run"),
        "{err}"
    );
    let err = run_err(&["run", "ssf", "--adversary", "gremlin", "--n", "64"]);
    assert!(err.contains("gremlin"), "{err}");
    for cmd in [&["cluster", "--n", "16"][..], &["run", "ssf", "--n", "64"]] {
        let args = [cmd, &["--budget-intervals", "18446744073709551615"]].concat();
        let err = run_err(&args);
        assert!(err.contains("flag --budget-intervals"), "{err}");
    }
    let err = run_err(&["run", "baseline", "push", "--n", "1"]);
    assert!(err.contains("need at least two agents"), "{err}");
    for name in ["push", "mean-estimator"] {
        let err = run_err(&["run", "baseline", name, "--n", "64", "--delta", "0.5"]);
        assert!(err.contains("delta 0.5 outside [0, 0.5)"), "{err}");
    }
    let err = run_err(&["reduce", "--rows", "0.3,0.7;0.7,0.3"]);
    assert!(
        err.contains("not δ-upper bounded") || err.contains("reduction"),
        "{err}"
    );
    // A snapshot taken after its fault plan fired stores only the cursor:
    // restoring it without `--fault` would drop the pending events.
    let dir = scratch_dir("restore_without_fault");
    let ckpt = dir.join("ckpt.snap");
    let run = [
        "run", "ssf", "--n", "64", "--delta", "0.1", "--c1", "8", "--seed", "7",
    ];
    run_ok(
        &[
            &run[..],
            &[
                "--budget-intervals",
                "20",
                "--fault",
                "10:all-wrong:0.5",
                "--fault",
                "12:sleep:0.25:3",
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "14",
            ],
        ]
        .concat(),
    );
    let err = run_err(&[&run[..], &["--restore", ckpt.to_str().unwrap()]].concat());
    assert!(
        err.contains("fault cursor 2") && err.contains("re-supply the same --fault flags"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_sim_run_is_deterministic() {
    let args = [
        "cluster", "--n", "48", "--delta", "0.05", "--c1", "1", "--seed", "9",
    ];
    let first = run_ok(&args);
    assert!(first.contains("cluster digest:"), "{first}");
    assert!(first.contains("converged at round"), "{first}");
    let second = run_ok(&args);
    assert_eq!(first, second, "sim cluster output must be byte-identical");
}

#[test]
fn cluster_partition_heals_and_reconverges() {
    let out = run_ok(&[
        "cluster",
        "--n",
        "48",
        "--delta",
        "0.05",
        "--c1",
        "1",
        "--seed",
        "11",
        "--partition-at",
        "3",
        "--heal-at",
        "6",
        "--budget-intervals",
        "40",
    ]);
    assert!(out.contains("re-converged"), "{out}");
    assert!(out.contains("converged at round"), "{out}");
}

#[test]
fn cluster_writes_run_summary() {
    let dir = std::env::temp_dir().join("np_cli_cluster_summary_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cluster.json");
    let out = run_ok(&[
        "cluster",
        "--n",
        "32",
        "--delta",
        "0.05",
        "--c1",
        "1",
        "--seed",
        "5",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.contains("cluster summary:"), "{out}");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"schema\": \"np-run-summary/v1\""), "{json}");
    assert!(json.contains("\"protocol\": \"ssf-cluster-sim\""), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_rejects_round_engine_flags() {
    let err = run_err(&["cluster", "--topology", "ring:2"]);
    assert!(err.contains("does not support --topology"), "{err}");
    let err = run_err(&["cluster", "--backend", "mean-field"]);
    assert!(err.contains("does not support --backend"), "{err}");
    let err = run_err(&["cluster", "--protocol", "push"]);
    assert!(err.contains("does not support --protocol push"), "{err}");
    let err = run_err(&["cluster", "--fault", "3:flip"]);
    assert!(err.contains("does not support --fault"), "{err}");
    let err = run_err(&["cluster", "--restore", "snap.bin"]);
    assert!(err.contains("--restore"), "{err}");
    let err = run_err(&["cluster", "--heal-at", "4"]);
    assert!(err.contains("--heal-at requires --partition-at"), "{err}");
    let err = run_err(&["cluster", "--transport", "quic"]);
    assert!(err.contains("unknown flag(s): --transport"), "{err}");
}

/// FNV-1a digest of a file's bytes.
fn file_digest(path: &std::path::Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut d = np_engine::digest::Digest::new();
    d.update(&bytes);
    d.value()
}

/// A fresh scratch directory for one test's artifacts.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("np_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the binary with `--trace`/`--metrics-out` at threads 1 and 4 and
/// checks both files' digests against `(trace, summary)`; returns the
/// threads-1 summary text.
fn assert_artifacts_pinned(name: &str, run: &[&str], pins: (u64, u64)) -> String {
    let dir = scratch_dir(name);
    let mut summary = String::new();
    for threads in ["1", "4"] {
        let trace = dir.join(format!("t{threads}.jsonl"));
        let metrics = dir.join(format!("s{threads}.json"));
        let mut args = run.to_vec();
        args.extend([
            "--threads",
            threads,
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        run_ok(&args);
        let got = (file_digest(&trace), file_digest(&metrics));
        assert_eq!(
            got, pins,
            "{name} at {threads} thread(s): (trace, summary) digests"
        );
        if threads == "1" {
            summary = std::fs::read_to_string(&metrics).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    summary
}

// Trace JSONL and run-summary bytes, pinned through fresh processes at
// 1 and 4 threads: the artifacts are trajectory data only, so neither the
// thread count nor a refactor of their writers may change a byte.

#[test]
fn sf_trace_and_summary_bytes_are_pinned() {
    assert_artifacts_pinned(
        "sf_pins",
        &["run", "sf", "--n", "256", "--seed", "7"],
        (0x8d58_540e_0186_2429, 0x214b_b91e_9db6_f499),
    );
}

#[test]
fn mean_field_trace_and_summary_bytes_are_pinned() {
    assert_artifacts_pinned(
        "mean_field_pins",
        &[
            "run",
            "sf",
            "--n",
            "4096",
            "--seed",
            "7",
            "--backend",
            "mean-field",
        ],
        (0xfb7a_48e9_bcda_3c8c, 0x72ff_fa49_33c6_65d5),
    );
}

#[test]
fn restored_trace_matches_the_straight_trace() {
    // A run checkpointed mid-flight at one thread and restored in a fresh
    // process at four must write the straight run's trace, byte for byte.
    let dir = scratch_dir("restore_pin");
    let straight = dir.join("straight.jsonl");
    let restored = dir.join("restored.jsonl");
    let ckpt = dir.join("ckpt.snap");
    let run = ["run", "sf", "--n", "256", "--seed", "7"];
    run_ok(
        &[
            &run[..],
            &[
                "--threads",
                "1",
                "--trace",
                straight.to_str().unwrap(),
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "8",
            ],
        ]
        .concat(),
    );
    let out = run_ok(
        &[
            &run[..],
            &[
                "--threads",
                "4",
                "--restore",
                ckpt.to_str().unwrap(),
                "--trace",
                restored.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert!(out.contains("restored "), "{out}");
    assert_eq!(
        std::fs::read(&restored).unwrap(),
        std::fs::read(&straight).unwrap(),
        "restored trace differs from the straight trace"
    );
    // The straight trace is `sf_trace_and_summary_bytes_are_pinned`'s.
    assert_eq!(file_digest(&restored), 0x8d58_540e_0186_2429);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faulted_ssf_trace_and_summary_bytes_are_pinned() {
    // Mid-run corruption, a noise ramp and sleep spans draw from the
    // per-agent streams, so they must not break byte-identity either.
    let summary = assert_artifacts_pinned(
        "faulted_pins",
        &[
            "run",
            "ssf",
            "--n",
            "128",
            "--delta",
            "0.1",
            "--c1",
            "8",
            "--seed",
            "7",
            "--budget-intervals",
            "20",
            "--fault",
            "20:all-wrong:0.5",
            "--fault",
            "30:ramp:0.15:8",
            "--fault",
            "30:sleep:0.25:3",
        ],
        (0x3c61_ff47_cdfd_df71, 0x7f55_4b2a_0bfb_c15d),
    );
    assert!(
        summary.contains("\"faults\""),
        "faulted summary carries no recovery records: {summary}"
    );
}

/// Runs the 3-job sweep `spec` through the binary and returns the
/// digest of its `report.json`.
fn sweep_report_digest(name: &str, spec_text: &str) -> u64 {
    let dir = scratch_dir(name);
    let spec = dir.join("spec.txt");
    std::fs::write(&spec, spec_text).unwrap();
    let out = dir.join("out");
    run_ok(&[
        "sweep",
        "run",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--checkpoint-every",
        "4",
        "--threads",
        "1",
    ]);
    let digest = file_digest(&out.join("report.json"));
    std::fs::remove_dir_all(&dir).ok();
    digest
}

const SWEEP_SPEC: &str = "protocol = sf\nn = 64\ndelta = 0.1\nruns = 3\nseed = 11\n";

#[test]
fn sweep_report_bytes_are_pinned() {
    assert_eq!(
        sweep_report_digest("sweep_pin", SWEEP_SPEC),
        0x2400_73a7_9b3d_64a9
    );
}

#[test]
fn mean_field_sweep_report_bytes_are_pinned() {
    let spec = format!("{SWEEP_SPEC}backend = mean-field\n");
    assert_eq!(
        sweep_report_digest("sweep_mf_pin", &spec),
        0xd2ac_8eb1_a32e_d3d7
    );
}
