//! The lint rule catalog and the declarative scope table.
//!
//! Every rule has a stable kebab-case name — the same name the
//! `// xtask-allow: <rule>` escape hatch, the `np-lint/v1` report, and
//! the fixture self-tests use. Rules are *token-pattern or structural
//! analyses* over the [`crate::lexer`] stream (resolved through the
//! [`crate::resolve`] import graph), so grouped imports
//! (`use std::time::{Duration, Instant}`), renamed imports
//! (`use std::time::Instant as Clock`) and alias indirection all fire —
//! the legacy needle scanner's documented false negatives are regression
//! fixtures now.
//!
//! Which rules apply where is data, not driver code: [`SCOPES`] maps each
//! rule set to the crates, files, and even individual functions it
//! guards. `cargo xtask lint --list` renders this table.

/// How severe a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint pass.
    Deny,
    /// Reported (and diffed against baselines in CI) but does not fail a
    /// bare `cargo xtask lint`.
    Warn,
}

impl Severity {
    /// The report name of the severity.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// How a rule matches the token stream.
#[derive(Clone, Copy, Debug)]
pub enum Matcher {
    /// Fires when a path expression (or `use` declaration), after import
    /// resolution, contains one of these segment sequences contiguously.
    /// Single-segment patterns also match method-position idents.
    Paths(&'static [&'static [&'static str]]),
    /// Fires on `.name(` method calls with one of these names.
    Methods(&'static [&'static str]),
    /// Fires on `name!` macro invocations with one of these names.
    Macros(&'static [&'static str]),
    /// Fires on resolved path expressions *and* macro invocations — for
    /// rules whose offense has two spellings (e.g. `Vec::with_capacity`
    /// and `vec![…]`).
    PathsOrMacros {
        /// Path patterns, as in [`Matcher::Paths`].
        paths: &'static [&'static [&'static str]],
        /// Macro names, as in [`Matcher::Macros`].
        macros: &'static [&'static str],
    },
    /// Structural: `==`/`!=` with a float-typed operand.
    FloatEq,
    /// Structural: a narrowing `as` cast (`as u8`/`u16`/`u32`/`usize`).
    NarrowingCast,
    /// Structural: `panic!`-family macros and `[]` index expressions.
    PanicPath,
    /// Structural: library crate roots must carry the safety headers.
    CrateHeaders,
}

/// One lint rule: a stable name, a severity, a matcher, and a one-line
/// rationale shown with each finding.
#[derive(Clone, Copy, Debug)]
pub struct RuleDef {
    /// Stable rule name, as used by `xtask-allow` directives.
    pub name: &'static str,
    /// Default severity of findings from this rule.
    pub severity: Severity,
    /// Token/structural matcher.
    pub matcher: Matcher,
    /// One-line rationale shown with each finding.
    pub message: &'static str,
}

/// Name of the crate-header rule.
pub const CRATE_HEADERS: &str = "crate-headers";

/// Name of the float-equality rule.
pub const FLOAT_EQ: &str = "float-eq";

/// Name of the unused-suppression rule (always on, every scanned file).
pub const STALE_ALLOW: &str = "stale-allow";

/// Name of the unreadable-source pseudo-rule (the gate must not silently
/// shrink its coverage).
pub const IO_RULE: &str = "io";

/// The always-on unused-suppression rule: every `// xtask-allow: <rule>`
/// directive must suppress at least one finding, or it is itself a
/// finding — suppressions cannot rot.
pub const STALE_ALLOW_RULE: RuleDef = RuleDef {
    name: STALE_ALLOW,
    severity: Severity::Warn,
    matcher: Matcher::Macros(&[]), // structural; evaluated by the scanner
    message: "this `xtask-allow` directive suppresses nothing; delete it — stale \
              suppressions hide exactly the regressions the rule exists to catch",
};

/// Message for an `xtask-allow` naming a rule that does not exist.
pub const UNKNOWN_ALLOW_MSG: &str =
    "this `xtask-allow` names a rule that does not exist (see `cargo xtask lint --list`); \
     a typo here silently disables nothing";

/// The crate-header rule, shared between [`BASE_RULES`] and the
/// header-only scan of binary crate roots ([`HEADER_RULES`]).
pub const CRATE_HEADERS_RULE: RuleDef = RuleDef {
    name: CRATE_HEADERS,
    severity: Severity::Deny,
    matcher: Matcher::CrateHeaders,
    message: "library crate roots must forbid unsafe code and warn on \
              undocumented public items",
};

/// The lone rule applied to binary crate roots (np-bench, np-cli, xtask):
/// they legitimately print and unwrap, but still carry the headers.
pub const HEADER_RULES: &[RuleDef] = &[CRATE_HEADERS_RULE];

/// The base rules applied to every library-crate source file.
pub const BASE_RULES: &[RuleDef] = &[
    RuleDef {
        name: "ambient-randomness",
        severity: Severity::Deny,
        matcher: Matcher::Paths(&[
            &["thread_rng"],
            &["rand", "random"],
            &["from_entropy"],
            &["OsRng"],
        ]),
        message: "ambient randomness breaks seed-reproducibility; take an explicit \
                  seeded StdRng (run_batch results must depend only on (seeds, runs, job))",
    },
    RuleDef {
        name: "wall-clock",
        severity: Severity::Deny,
        matcher: Matcher::Paths(&[&["SystemTime", "now"], &["Instant", "now"]]),
        message: "wall-clock reads make runs time-dependent; protocol and engine code \
                  must be a pure function of the seed (time experiments in np-bench instead)",
    },
    RuleDef {
        name: "hash-iteration",
        severity: Severity::Deny,
        matcher: Matcher::Paths(&[&["HashMap"], &["HashSet"]]),
        message: "HashMap/HashSet iteration order is nondeterministic across runs; \
                  use BTreeMap/BTreeSet or a sorted Vec in library code",
    },
    RuleDef {
        name: "unwrap",
        severity: Severity::Deny,
        matcher: Matcher::Methods(&["unwrap", "expect"]),
        message: "unwrap/expect in library code turns recoverable errors into panics \
                  inside experiment workers; propagate a typed error instead",
    },
    RuleDef {
        name: "debug-print",
        severity: Severity::Deny,
        matcher: Matcher::Macros(&["println", "eprintln", "dbg"]),
        message: "library crates must not write to stdio; return data and let np-cli \
                  or np-bench do the printing",
    },
    RuleDef {
        name: FLOAT_EQ,
        severity: Severity::Deny,
        matcher: Matcher::FloatEq,
        message: "exact float comparison is almost always a tolerance bug; compare \
                  |a - b| against an epsilon (or xtask-allow an intentional IEEE \
                  sentinel check)",
    },
    CRATE_HEADERS_RULE,
];

/// Extra rules for the *hot path*: crates whose code runs inside a
/// `World` round, where a hand-built sequential `StdRng` would break the
/// thread-count-invariance contract. The stream-derivation modules
/// (`streams.rs`) are the one sanctioned place a `StdRng` may be built.
pub const HOT_PATH_RULES: &[RuleDef] = &[RuleDef {
    name: "raw-stdrng",
    severity: Severity::Deny,
    matcher: Matcher::Paths(&[
        &["StdRng", "seed_from_u64"],
        &["StdRng", "from_seed"],
        &["StdRng", "from_rng"],
    ]),
    message: "hot-path code must derive randomness from (seed, round, agent, stage) \
              streams (RoundStreams / np_stats::streams), never build a StdRng by hand \
              — a sequential stream reintroduces thread-count-dependent trajectories",
}];

/// Extra rules for *protocol update paths*: naming `std::time::Instant`
/// at all is a finding there. The observer layer
/// (`np_engine::metrics::StageClock`) is the sanctioned clock site and is
/// excluded by the scope table, not by per-line allows.
pub const PROTOCOL_CLOCK_RULES: &[RuleDef] = &[RuleDef {
    name: "protocol-instant",
    severity: Severity::Deny,
    matcher: Matcher::Paths(&[&["time", "Instant"]]),
    message: "protocol update paths must not name std::time::Instant: timing belongs \
              in the observer layer (np_engine::metrics::StageClock) or np-bench, \
              never inside display/update code where it could leak into trajectories",
}];

/// Extra rules for *byte-stable encode paths*: the files that produce
/// `np-snap/v1` snapshot bytes and `np-manifest/v1` manifest lines. The
/// resume contract byte-compares those artifacts across interrupted,
/// resumed and re-threaded runs, so the bytes must be a pure function of
/// logical state — here even *naming* a clock or hashed-container type is
/// a finding, and a silently-truncating cast can corrupt artifacts.
pub const SNAPSHOT_PATH_RULES: &[RuleDef] = &[
    RuleDef {
        name: "snapshot-bytes",
        severity: Severity::Deny,
        matcher: Matcher::Paths(&[&["HashMap"], &["HashSet"], &["SystemTime"], &["Instant"]]),
        message: "snapshot/manifest encode paths must emit bytes that are a pure function \
                  of logical state; hashed-container iteration order and wall clocks both \
                  leak nondeterminism into artifacts the resume contract byte-compares",
    },
    RuleDef {
        name: "narrowing-cast",
        severity: Severity::Deny,
        matcher: Matcher::NarrowingCast,
        message: "a narrowing `as` cast in a byte-stable encode path truncates silently; \
                  use a widening `::from` or an explicit `try_from` so a value that no \
                  longer fits corrupts nothing — the artifacts here are byte-compared",
    },
];

/// Extra rules for the *phase kernels*: the per-chunk inner loops
/// (display / observe / update) that run once per agent per round. A
/// hand-built RNG or a fresh `Vec` in those loops turns O(1) per-agent
/// work into seeding and allocator traffic that dominates round
/// throughput — the packed hot path exists to avoid exactly that.
/// Per-*chunk* scratch reused across the agent loop is fine and carries
/// an `xtask-allow` saying so.
pub const PHASE_KERNEL_RULES: &[RuleDef] = &[RuleDef {
    name: "hot-loop-rng-construct",
    severity: Severity::Deny,
    matcher: Matcher::PathsOrMacros {
        paths: &[
            &["StdRng", "seed_from_u64"],
            &["StdRng", "from_seed"],
            &["StdRng", "from_rng"],
            &["StreamRng", "seed_from_u64"],
            &["Vec", "new"],
            &["Vec", "with_capacity"],
        ],
        macros: &["vec"],
    },
    message: "phase-kernel inner loops run once per agent per round: draw from the \
              per-agent (seed, round, agent, stage) streams and write into \
              caller-provided buffers — constructing an RNG or allocating a Vec \
              here turns the packed hot path into seeding/allocator traffic",
}];

/// Extra rules for the *round hot loop*: the chunk-dispatch functions a
/// worker panic would poison. Scoped to individual functions, not files.
pub const HOT_LOOP_RULES: &[RuleDef] = &[RuleDef {
    name: "panic-path",
    severity: Severity::Deny,
    matcher: Matcher::PanicPath,
    message: "the round hot loop must not be able to panic: no panic!/unreachable! and \
              no `[]` indexing — dispatch over chunk iterators (zip) so out-of-range \
              access is unrepresentable instead of a worker-thread abort",
}];

/// Library crates held to the full base rule set: these implement the
/// protocol (Theorems 4/5) and the experiment engine, where determinism
/// is a correctness requirement, not a style preference.
pub const LIB_CRATES: &[&str] = &[
    "crates/core",
    "crates/engine",
    "crates/linalg",
    "crates/stats",
    "crates/baselines",
    "crates/sweep",
    "crates/net",
];

/// Crate roots only held to the header rule: binaries and the facade
/// legitimately print and unwrap at the top level.
pub const HEADER_ONLY_ROOTS: &[&str] = &[
    "crates/bench/src/lib.rs",
    "crates/cli/src/lib.rs",
    "crates/xtask/src/lib.rs",
    "src/lib.rs",
];

/// One row of the scope table: a named rule set plus the crates, files,
/// and functions it applies to.
#[derive(Clone, Copy, Debug)]
pub struct ScopeDef {
    /// Stable scope name (shown in findings and `--list`).
    pub name: &'static str,
    /// Why this scope exists, one line.
    pub doc: &'static str,
    /// Crate directories whose `src/**/*.rs` files are in scope.
    pub crates: &'static [&'static str],
    /// Workspace-relative files additionally in scope.
    pub files: &'static [&'static str],
    /// File *names* excluded from the crate globs (sanctioned modules).
    pub exclude_files: &'static [&'static str],
    /// If non-empty, only code inside these named functions is in scope.
    pub fns: &'static [&'static str],
    /// The rules this scope applies.
    pub rules: &'static [RuleDef],
}

/// The whole declarative scope table — the single source of truth for
/// which rule applies where. `main.rs` walks this; nothing is hardcoded
/// in the driver.
pub const SCOPES: &[ScopeDef] = &[
    ScopeDef {
        name: "library",
        doc: "determinism/robustness base rules for every library crate",
        crates: LIB_CRATES,
        files: &[],
        exclude_files: &[],
        fns: &[],
        rules: BASE_RULES,
    },
    ScopeDef {
        name: "hot-path",
        doc: "code running inside a World round must draw from (seed, round, agent, stage) streams",
        crates: &["crates/engine", "crates/core", "crates/net"],
        files: &[],
        exclude_files: &["streams.rs"],
        fns: &[],
        rules: HOT_PATH_RULES,
    },
    ScopeDef {
        name: "protocol-clock",
        doc: "protocol code must not name Instant; metrics.rs (StageClock) and np_net's clock.rs \
              (the TCP transport's deadline/stopwatch site) are the sanctioned observers",
        crates: &["crates/engine", "crates/core", "crates/net"],
        files: &[],
        exclude_files: &["streams.rs", "metrics.rs", "clock.rs"],
        fns: &[],
        rules: PROTOCOL_CLOCK_RULES,
    },
    ScopeDef {
        name: "snapshot-encode",
        doc: "np-snap/v1 and np-manifest/v1 encode paths emit byte-compared artifacts",
        crates: &[],
        files: &[
            "crates/engine/src/snapshot.rs",
            "crates/engine/src/world.rs",
            "crates/sweep/src/manifest.rs",
            "crates/sweep/src/spec.rs",
        ],
        exclude_files: &[],
        fns: &[],
        rules: SNAPSHOT_PATH_RULES,
    },
    ScopeDef {
        name: "hot-loop",
        doc: "World::step's chunk dispatch must be panic-free",
        crates: &[],
        files: &["crates/engine/src/world.rs"],
        exclude_files: &[],
        fns: &["step"],
        rules: HOT_LOOP_RULES,
    },
    ScopeDef {
        name: "phase-kernel",
        doc: "per-agent kernel loops must not construct RNGs or allocate per agent",
        crates: &[],
        files: &[
            "crates/engine/src/channel.rs",
            "crates/engine/src/lanes.rs",
            "crates/engine/src/packed.rs",
            "crates/engine/src/protocol.rs",
            "crates/core/src/sf.rs",
            "crates/core/src/sf_alternating.rs",
            "crates/core/src/ssf.rs",
            "crates/baselines/src/majority.rs",
        ],
        exclude_files: &[],
        fns: &[
            "fill_exact_chunk",
            "fill_aggregated_chunk",
            "display_chunk",
            "display_chunk_packed",
            "fill_with",
            "fill_planes",
            "step_chunk",
            "step_records",
            "for_each_record",
        ],
        rules: PHASE_KERNEL_RULES,
    },
];

/// Returns the rule with the given name, if any.
pub fn rule_by_name(name: &str) -> Option<&'static RuleDef> {
    if name == STALE_ALLOW {
        return Some(&STALE_ALLOW_RULE);
    }
    SCOPES
        .iter()
        .flat_map(|s| s.rules.iter())
        .find(|r| r.name == name)
}

/// All rule names accepted by `// xtask-allow: <rule>`, sorted and
/// deduplicated.
pub fn all_rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = SCOPES
        .iter()
        .flat_map(|s| s.rules.iter())
        .map(|r| r.name)
        .collect();
    names.push(STALE_ALLOW);
    names.sort_unstable();
    names.dedup();
    names
}

/// The scopes a rule participates in, for `--list` output.
pub fn scopes_of(rule: &str) -> Vec<&'static str> {
    if rule == STALE_ALLOW {
        return vec!["(all scanned files)"];
    }
    SCOPES
        .iter()
        .filter(|s| s.rules.iter().any(|r| r.name == rule))
        .map(|s| s.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_kebab() {
        let names = all_rule_names();
        for name in &names {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{name} is not kebab-case"
            );
        }
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }

    #[test]
    fn every_rule_is_resolvable_by_name() {
        for name in all_rule_names() {
            assert!(rule_by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn net_crate_is_fully_in_scope_with_a_sanctioned_clock() {
        // np_net is held to the same determinism bar as the engine: base
        // rules, hot-path stream addressing, and the protocol-clock ban —
        // with exactly one sanctioned escape hatch, the TCP transport's
        // clock module.
        let by_name = |name: &str| {
            SCOPES
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("scope {name} missing"))
        };
        for name in ["library", "hot-path", "protocol-clock"] {
            assert!(
                by_name(name).crates.contains(&"crates/net"),
                "crates/net missing from {name}"
            );
        }
        assert!(by_name("protocol-clock")
            .exclude_files
            .contains(&"clock.rs"));
        assert!(!by_name("library").exclude_files.contains(&"clock.rs"));
        assert!(!by_name("hot-path").exclude_files.contains(&"clock.rs"));
    }

    /// Every file that defines a phase kernel must be in the
    /// phase-kernel scope, and every file the scope names must exist — so
    /// a kernel that moves (or a new protocol state that defines one)
    /// cannot silently escape `hot-loop-rng-construct`.
    #[test]
    fn phase_kernel_scope_covers_every_kernel_file() {
        fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    rust_files(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    out.push(path);
                }
            }
        }
        let scope = SCOPES
            .iter()
            .find(|s| s.name == "phase-kernel")
            .expect("phase-kernel scope");
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for file in scope.files {
            assert!(root.join(file).is_file(), "scope names missing file {file}");
        }
        let mut files = Vec::new();
        rust_files(&root.join("crates"), &mut files);
        for path in files {
            let rel = path.strip_prefix(&root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            if !rel.contains("/src/") || rel.starts_with("crates/xtask/") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            let defines_kernel = scope.fns.iter().any(|name| {
                text.contains(&format!("fn {name}(")) || text.contains(&format!("fn {name}<"))
            });
            assert!(
                !defines_kernel || scope.files.contains(&rel.as_str()),
                "{rel} defines a phase kernel but is outside the phase-kernel scope"
            );
        }
    }

    #[test]
    fn scope_table_references_real_rule_sets() {
        for scope in SCOPES {
            assert!(!scope.rules.is_empty(), "{} has no rules", scope.name);
            assert!(
                !scope.crates.is_empty() || !scope.files.is_empty(),
                "{} selects no files",
                scope.name
            );
        }
    }
}
