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
    let err = run_err(&["reduce", "--rows", "0.3,0.7;0.7,0.3"]);
    assert!(
        err.contains("not δ-upper bounded") || err.contains("reduction"),
        "{err}"
    );
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
    assert!(err.contains("unknown transport"), "{err}");
}

#[test]
fn cluster_tcp_run_converges() {
    let out = run_ok(&[
        "cluster",
        "--transport",
        "tcp",
        "--n",
        "16",
        "--delta",
        "0.05",
        "--c1",
        "1",
        "--seed",
        "3",
        "--tick-us",
        "2000",
        "--budget-intervals",
        "30",
    ]);
    assert!(out.contains("cluster[tcp]"), "{out}");
    assert!(out.contains("converged at round"), "{out}");
}
