//! Workspace lint driver: `cargo xtask <command>`.
//!
//! The driver is thin on purpose — *which rule applies where* lives in the
//! declarative [`xtask::rules::SCOPES`] table, and *how rules match* lives
//! in [`xtask::scanner`]. This file only walks the scope table, reads
//! files, and renders/exits.
//!
//! Commands:
//!
//! - `lint [--format json|text] [--baseline FILE] [--list]` — run every
//!   scoped rule set over the workspace. Bare `lint` fails on `deny`
//!   findings; with `--baseline` it fails on any finding (deny *or* warn)
//!   not present in the baseline np-lint/v1 report.
//! - `check` — alias for `lint` (the pre-np-lint/v1 spelling, kept for
//!   muscle memory and old scripts).
//! - `check-artifacts [paths...]` — validate committed JSON artifacts
//!   against their v1 schemas (defaults to every `BENCH_*.json` at the
//!   workspace root).
//! - `list-rules` — alias for `lint --list`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::artifacts;
use xtask::report::{self, Entry};
use xtask::rules::{
    all_rule_names, rule_by_name, scopes_of, Severity, HEADER_ONLY_ROOTS, HEADER_RULES, IO_RULE,
    SCOPES,
};
use xtask::scanner::{analyze_source, FileClass, Finding, RuleSet};

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint [--format json|text] [--baseline FILE] [--list]
        run the scoped determinism/robustness rules over the workspace;
        --format json emits the byte-stable np-lint/v1 JSONL report;
        --baseline FILE fails on any finding absent from FILE (an earlier
        np-lint/v1 report; an empty file is the empty baseline);
        --list prints the rule catalog and scope table instead of scanning
  check
        alias for `lint`
  check-artifacts [paths...]
        validate JSON artifacts against their v1 schemas
        (default: every BENCH_*.json at the workspace root, sorted)
  list-rules
        alias for `lint --list`
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint" | "check") => run_lint(&args[1..]),
        Some("check-artifacts") => run_check_artifacts(&args[1..]),
        Some("list-rules") => {
            print_rule_list();
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Format {
    Text,
    Json,
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut baseline_path: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                print_rule_list();
                return ExitCode::SUCCESS;
            }
            "--format" => match iter.next().map(String::as_str) {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                other => {
                    eprintln!("xtask lint: --format expects `json` or `text`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match iter.next() {
                Some(path) => baseline_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("xtask lint: --baseline expects a file path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask lint: unknown argument {other:?}");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = workspace_root();
    let plan = build_plan(&root);
    let files_scanned = plan.len();
    let mut entries: Vec<Entry> = Vec::new();
    for (rel, sets) in &plan {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(text) => {
                let class = if rel.ends_with("src/lib.rs") {
                    FileClass::LibraryRoot
                } else {
                    FileClass::LibrarySource
                };
                for finding in analyze_source(class, &text, sets) {
                    entries.push((rel.clone(), finding));
                }
            }
            // An unreadable source file is a deny finding, not a skip: a
            // gate that silently shrinks its coverage is worse than one
            // that fails loudly.
            Err(err) => entries.push((
                rel.clone(),
                Finding {
                    rule: IO_RULE,
                    severity: Severity::Deny,
                    scope: "(driver)",
                    line: 0,
                    excerpt: format!("{rel}: {err}"),
                    message: "could not read source file",
                },
            )),
        }
    }
    report::sort_entries(&mut entries);

    let baseline = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match report::parse_baseline(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("xtask lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(err) => {
                eprintln!("xtask lint: cannot read baseline {}: {err}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    match format {
        Format::Json => print!("{}", report::render_jsonl(&entries, files_scanned)),
        Format::Text => print!("{}", report::render_text(&entries, files_scanned)),
    }

    let failed = match &baseline {
        // Against a baseline, *any* new finding (warn included) fails:
        // the baseline gate exists so CI never lets the report grow.
        Some(baseline) => {
            let fresh = report::new_since(&entries, baseline);
            if !fresh.is_empty() {
                eprintln!(
                    "xtask lint: {} finding(s) not in baseline {}",
                    fresh.len(),
                    baseline_path.as_deref().unwrap_or(Path::new("?")).display()
                );
            }
            !fresh.is_empty()
        }
        None => entries.iter().any(|(_, f)| f.severity == Severity::Deny),
    };
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Maps every in-scope workspace-relative file to the rule sets that
/// apply to it, walking [`SCOPES`] plus the header-only crate roots.
/// `BTreeMap` keeps the scan order independent of directory-walk order.
fn build_plan(root: &Path) -> BTreeMap<String, Vec<RuleSet>> {
    let mut plan: BTreeMap<String, Vec<RuleSet>> = BTreeMap::new();
    for scope in SCOPES {
        let set = if scope.fns.is_empty() {
            RuleSet::new(scope.name, scope.rules)
        } else {
            RuleSet::in_fns(scope.name, scope.rules, scope.fns)
        };
        for krate in scope.crates {
            for path in collect_rs_files(&root.join(krate).join("src")) {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if scope.exclude_files.contains(&name) {
                    continue;
                }
                plan.entry(relative(root, &path)).or_default().push(set);
            }
        }
        for file in scope.files {
            plan.entry((*file).to_owned()).or_default().push(set);
        }
    }
    for file in HEADER_ONLY_ROOTS {
        plan.entry((*file).to_owned())
            .or_default()
            .push(RuleSet::new("headers", HEADER_RULES));
    }
    plan
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut children: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    children.sort();
    for path in children {
        if path.is_dir() {
            out.extend(collect_rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
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

/// Renders the rule catalog and scope table (also the source of the
/// README's rule table).
fn print_rule_list() {
    println!("rule               severity  scopes");
    println!("-----------------  --------  ------------------------------");
    for name in all_rule_names() {
        let rule = rule_by_name(name).expect("catalogued rule");
        println!(
            "{:<17}  {:<8}  {}",
            rule.name,
            rule.severity.name(),
            scopes_of(name).join(", ")
        );
        let message: Vec<&str> = rule.message.split_whitespace().collect();
        println!("    {}", message.join(" "));
    }
    println!();
    println!("scope table (cargo xtask lint scans exactly these):");
    for scope in SCOPES {
        let mut targets: Vec<String> = scope
            .crates
            .iter()
            .map(|c| format!("{c}/src/**/*.rs"))
            .collect();
        targets.extend(scope.files.iter().map(|f| (*f).to_owned()));
        let mut line = format!("  {:<15}  {}", scope.name, targets.join(", "));
        if !scope.exclude_files.is_empty() {
            line.push_str(&format!("  (minus {})", scope.exclude_files.join(", ")));
        }
        if !scope.fns.is_empty() {
            line.push_str(&format!("  (only fn {})", scope.fns.join(", ")));
        }
        println!("{line}");
        println!("      {}", scope.doc);
    }
    println!("  {:<15}  {}", "headers", HEADER_ONLY_ROOTS.join(", "));
    println!("      binary/facade crate roots are held to the header rule only");
}

/// The workspace root: two levels above this crate's manifest dir.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}
