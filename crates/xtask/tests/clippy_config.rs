//! The determinism and robustness rules are clippy's, configured by
//! `crates/clippy.toml` and the deny list every library crate root
//! carries. These tests prove that configuration does its job:
//!
//! - clippy, run on the fixture crate in `tests/lint_fixture/`, reports
//!   exactly the expected lint at every file:line the fixture breaks a
//!   rule, nothing on clean or `#[expect]`-ed lines, and an unfulfilled
//!   expectation on a stale `#[expect]`;
//! - every library crate root carries the safety headers and the same
//!   deny list as the fixture root.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use np_engine::json::{self, Json};

/// `(file, line, lint)` of one diagnostic, the file relative to the
/// fixture root.
type Hit = (String, u64, String);

/// Every diagnostic clippy must report on the fixture, and no other:
/// `(file under src/, line, lint)`.
const EXPECTED: &[(&str, u64, &str)] = &[
    ("debug_print.rs", 4, "clippy::print_stdout"),
    ("debug_print.rs", 5, "clippy::print_stderr"),
    ("debug_print.rs", 6, "clippy::dbg_macro"),
    ("decoder.rs", 16, "clippy::indexing_slicing"),
    ("float_eq.rs", 5, "clippy::float_cmp"),
    ("float_eq.rs", 9, "clippy::float_cmp"),
    ("float_eq.rs", 13, "clippy::float_cmp"),
    ("float_eq.rs", 17, "clippy::float_cmp"),
    // `use std::time::{Duration, Instant}`: the grouped import itself…
    ("grouped_instant.rs", 3, "clippy::disallowed_types"),
    // …and the use site, as type and as call.
    ("grouped_instant.rs", 6, "clippy::disallowed_methods"),
    ("grouped_instant.rs", 6, "clippy::disallowed_types"),
    ("hash_iteration.rs", 4, "clippy::disallowed_types"),
    ("hash_iteration.rs", 5, "clippy::disallowed_types"),
    ("narrowing_cast.rs", 6, "clippy::cast_possible_truncation"),
    ("narrowing_cast.rs", 7, "clippy::cast_possible_truncation"),
    ("panic_path.rs", 6, "clippy::indexing_slicing"),
    ("panic_path.rs", 8, "clippy::unreachable"),
    ("raw_stdrng.rs", 8, "clippy::disallowed_methods"),
    ("raw_stdrng.rs", 9, "clippy::disallowed_methods"),
    // `use std::time::Instant as Clock`, then `Clock::now()`.
    ("renamed_instant.rs", 3, "clippy::disallowed_types"),
    ("renamed_instant.rs", 6, "clippy::disallowed_methods"),
    ("renamed_instant.rs", 6, "clippy::disallowed_types"),
    ("snapshot_bytes.rs", 3, "clippy::disallowed_types"),
    ("snapshot_bytes.rs", 5, "clippy::disallowed_types"),
    ("snapshot_bytes.rs", 7, "clippy::disallowed_types"),
    ("stale_expect.rs", 4, "unfulfilled_lint_expectations"),
    ("unwrap.rs", 4, "clippy::unwrap_used"),
    ("unwrap.rs", 8, "clippy::expect_used"),
    ("wall_clock.rs", 3, "clippy::disallowed_types"),
    ("wall_clock.rs", 5, "clippy::disallowed_types"),
    ("wall_clock.rs", 6, "clippy::disallowed_methods"),
    ("wall_clock.rs", 6, "clippy::disallowed_types"),
];

fn xtask_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `cargo clippy` on the fixture (library and its test build) and
/// returns the primary span of every lint diagnostic it emits.
fn fixture_hits() -> BTreeSet<Hit> {
    let manifest = xtask_dir().join("tests/lint_fixture/Cargo.toml");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_fixture");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .args([
            "clippy",
            "--offline",
            "--locked",
            "--quiet",
            "--all-targets",
        ])
        .arg("--keep-going")
        .arg("--message-format=json")
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(&target)
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .expect("cargo clippy starts");
    let stdout = String::from_utf8(output.stdout).expect("cargo prints UTF-8");
    let mut hits = BTreeSet::new();
    for line in stdout.lines() {
        let msg = json::parse(line).unwrap_or_else(|e| panic!("bad cargo JSON ({e}): {line}"));
        if msg.get("reason").and_then(Json::as_str) != Some("compiler-message") {
            continue;
        }
        let Some(message) = msg.get("message") else {
            continue;
        };
        let Some(code) = message
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
        else {
            continue; // "aborting due to …" summaries carry no code
        };
        let spans = message.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
        for span in spans {
            if span.get("is_primary").and_then(Json::as_bool) == Some(true) {
                let file = span.get("file_name").and_then(Json::as_str).unwrap_or("?");
                let line = span.get("line_start").and_then(Json::as_u64).unwrap_or(0);
                hits.insert((file.to_owned(), line, code.to_owned()));
            }
        }
    }
    assert!(
        !hits.is_empty(),
        "clippy reported nothing on the fixture; stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    hits
}

#[test]
fn clippy_config_reports_every_rule_exactly_where_the_fixture_breaks_it() {
    let got = fixture_hits();
    let want: BTreeSet<Hit> = EXPECTED
        .iter()
        .map(|&(file, line, lint)| (format!("src/{file}"), line, lint.to_owned()))
        .collect();
    let show = |hits: Vec<&Hit>| -> String {
        hits.iter()
            .map(|(file, line, lint)| format!("\n  {file}:{line} {lint}"))
            .collect()
    };
    let missing = show(want.difference(&got).collect());
    let extra = show(got.difference(&want).collect());
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing:{missing}\nunexpected:{extra}"
    );
}

/// The library crates: every `crates/*/src/lib.rs` except the binaries'
/// support crates, which may print, unwrap and time.
fn library_roots() -> Vec<PathBuf> {
    let crates = xtask_dir().join("..");
    let mut roots: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("crates/ lists")
        .flatten()
        .filter(|e| !matches!(e.file_name().to_str(), Some("bench" | "cli" | "xtask")))
        .map(|e| e.path().join("src/lib.rs"))
        .filter(|p| p.is_file())
        .collect();
    roots.sort();
    roots
}

/// The crate-level `#![cfg_attr(not(test), deny(...))]` block of a root.
fn deny_block(text: &str) -> &str {
    let start = text
        .find("#![cfg_attr(\n    not(test),")
        .unwrap_or(text.len());
    let len = text[start..].find("\n)]").map_or(0, |end| end + 3);
    &text[start..start + len]
}

#[test]
fn library_roots_carry_the_headers_and_the_fixture_deny_list() {
    let fixture = std::fs::read_to_string(xtask_dir().join("tests/lint_fixture/src/lib.rs"))
        .expect("fixture root reads");
    let want = deny_block(&fixture);
    assert!(want.contains("clippy::disallowed_types"), "{want}");
    let roots = library_roots();
    assert_eq!(roots.len(), 7, "{roots:?}");
    for root in roots {
        let text = std::fs::read_to_string(&root).expect("library root reads");
        for header in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
            assert!(text.contains(header), "{} lacks {header}", root.display());
        }
        assert_eq!(deny_block(&text), want, "{}", root.display());
    }
}
