//! Workspace task runner: `cargo xtask <command>`.
//!
//! Commands:
//!
//! - `check-artifacts [paths...]` — validate committed JSON artifacts
//!   against their v1 schemas (defaults to every `BENCH_*.json` at the
//!   workspace root).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::artifacts;

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  check-artifacts [paths...]
        validate JSON artifacts against their v1 schemas
        (default: every BENCH_*.json at the workspace root, sorted)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check-artifacts") => run_check_artifacts(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_check_artifacts(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let paths: Vec<PathBuf> = if args.is_empty() {
        match artifacts::default_artifacts(&root) {
            Ok(paths) => paths,
            Err(err) => {
                println!("FAIL: {}: {err}", root.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        args.iter()
            .map(|p| {
                let path = PathBuf::from(p);
                if path.is_absolute() {
                    path
                } else {
                    root.join(path)
                }
            })
            .collect()
    };
    let mut failed = false;
    for path in &paths {
        let shown = relative(&root, path);
        match std::fs::read_to_string(path) {
            Ok(text) => match artifacts::validate_text(&text) {
                Ok(what) => println!("ok: {shown}: {what}"),
                Err(errs) => {
                    failed = true;
                    println!("FAIL: {shown}: {} problem(s)", errs.len());
                    for err in errs {
                        println!("    {err}");
                    }
                }
            },
            Err(err) => {
                failed = true;
                println!("FAIL: {shown}: {err}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The workspace root: two levels above this crate's manifest dir.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}
