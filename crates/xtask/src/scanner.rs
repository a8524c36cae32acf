//! The token-driven analyzer behind `cargo xtask lint`.
//!
//! One file at a time: the source is lexed ([`crate::lexer`]), overlaid
//! with `#[cfg(test)]` and enclosing-`fn` regions, and its `use` graph is
//! resolved ([`crate::resolve`]). Each [`RuleSet`] the caller selects is
//! then matched against the token stream — path rules see through grouped
//! and renamed imports via the resolver, structural rules (float-eq,
//! narrowing casts, panic paths) match token shapes rather than
//! substrings.
//!
//! Suppression is still the `// xtask-allow: <rule>` directive with the
//! legacy carry semantics (a directive covers its own line and the next
//! code line, carrying through comment-only lines). New here: every
//! directive *instance* must suppress at least one finding, or it becomes
//! a [`crate::rules::STALE_ALLOW`] finding itself — suppressions cannot
//! rot, and a typo'd rule name is flagged instead of silently disabling
//! nothing.
//!
//! Known limitations, by design (it is a lexer, not a compiler):
//! * `#[cfg(test)] mod tests;` pointing at a separate file does not mark
//!   that file as test code — keep test modules inline, as this workspace
//!   does.
//! * Import resolution is file-global (no per-module scoping) and the
//!   float-equality check is still a heuristic over same-line operand
//!   tokens. Both over-approximate; intentional hits carry an allow with
//!   a justification.

use std::collections::BTreeSet;

use crate::lexer::{self, Regions, Tok, TokKind};
use crate::resolve::{self, ImportMap};
use crate::rules::{rule_by_name, Matcher, RuleDef, Severity, STALE_ALLOW_RULE, UNKNOWN_ALLOW_MSG};

/// How a file participates in the lint pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Root module of a library crate: token rules plus header checks.
    LibraryRoot,
    /// Any other library-crate module: token rules only.
    LibrarySource,
}

/// One scoped rule set to apply to a file: the scope's name (reported
/// with each finding), its rules, and — when non-empty — the named
/// functions the rules are confined to.
#[derive(Clone, Copy, Debug)]
pub struct RuleSet {
    /// Scope name from the [`crate::rules::SCOPES`] table.
    pub scope: &'static str,
    /// The rules to run.
    pub rules: &'static [RuleDef],
    /// If non-empty, only tokens inside these named functions are in
    /// scope (e.g. the `hot-loop` scope is `World::step` only).
    pub fns: &'static [&'static str],
}

impl RuleSet {
    /// A whole-file rule set.
    pub const fn new(scope: &'static str, rules: &'static [RuleDef]) -> Self {
        Self {
            scope,
            rules,
            fns: &[],
        }
    }

    /// A rule set confined to the named functions.
    pub const fn in_fns(
        scope: &'static str,
        rules: &'static [RuleDef],
        fns: &'static [&'static str],
    ) -> Self {
        Self { scope, rules, fns }
    }
}

/// One lint hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule name (matches `xtask-allow` directives).
    pub rule: &'static str,
    /// Severity the rule carries.
    pub severity: Severity,
    /// The scope whose rule set produced the finding.
    pub scope: &'static str,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// One-line rationale.
    pub message: &'static str,
}

/// Scans one file's source text against the given rule sets, returning
/// all findings sorted by (line, rule).
pub fn analyze_source(class: FileClass, text: &str, sets: &[RuleSet]) -> Vec<Finding> {
    let lexed = lexer::lex(text);
    let regions = lexer::regions(&lexed.toks);
    let imports = resolve::collect(&lexed.toks, &regions);
    let sig: Vec<usize> = (0..lexed.toks.len())
        .filter(|&i| {
            !matches!(
                lexed.toks[i].kind,
                TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect();
    let ctx = Ctx {
        toks: &lexed.toks,
        sig,
        regions: &regions,
        imports: &imports,
    };
    let lines: Vec<&str> = text.lines().collect();
    let excerpt_of = |line: usize| -> String {
        lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    };

    let mut allows = Allows::collect(&lexed.toks, lines.len());
    let mut findings: Vec<Finding> = Vec::new();
    let mut seen: BTreeSet<(&'static str, usize)> = BTreeSet::new();
    let mut header_rule: Option<(&'static RuleDef, &'static str)> = None;

    for set in sets {
        for rule in set.rules {
            let hits = match rule.matcher {
                Matcher::Paths(pats) => ctx.match_paths(pats, set.fns),
                Matcher::Methods(names) => ctx.match_methods(names, set.fns),
                Matcher::Macros(names) => ctx.match_macros(names, set.fns),
                Matcher::PathsOrMacros { paths, macros } => {
                    let mut hits = ctx.match_paths(paths, set.fns);
                    hits.extend(ctx.match_macros(macros, set.fns));
                    hits
                }
                Matcher::FloatEq => ctx.match_float_eq(set.fns),
                Matcher::NarrowingCast => ctx.match_narrowing_cast(set.fns),
                Matcher::PanicPath => ctx.match_panic_path(set.fns),
                Matcher::CrateHeaders => {
                    header_rule = Some((rule, set.scope));
                    continue;
                }
            };
            for line in hits {
                if !seen.insert((rule.name, line)) {
                    continue;
                }
                if allows.suppress(line, rule.name) {
                    continue;
                }
                findings.push(Finding {
                    rule: rule.name,
                    severity: rule.severity,
                    scope: set.scope,
                    line,
                    excerpt: excerpt_of(line),
                    message: rule.message,
                });
            }
        }
    }

    if class == FileClass::LibraryRoot {
        if let Some((rule, scope)) = header_rule {
            let missing: Vec<&str> = ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"]
                .into_iter()
                .filter(|h| !text.contains(h))
                .collect();
            if !missing.is_empty() && allows.suppress_anywhere(rule.name) {
                // File-level allow: the headers are knowingly absent.
            } else {
                for header in missing {
                    findings.push(Finding {
                        rule: rule.name,
                        severity: rule.severity,
                        scope,
                        line: 1,
                        excerpt: format!("missing `{header}`"),
                        message: rule.message,
                    });
                }
            }
        }
    }

    // Every directive instance must have earned its keep.
    for inst in allows.stale() {
        findings.push(Finding {
            rule: STALE_ALLOW_RULE.name,
            severity: STALE_ALLOW_RULE.severity,
            scope: "allows",
            line: inst.line,
            excerpt: excerpt_of(inst.line),
            message: if rule_by_name(&inst.rule).is_some() {
                STALE_ALLOW_RULE.message
            } else {
                UNKNOWN_ALLOW_MSG
            },
        });
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Shared per-file matching context.
struct Ctx<'a> {
    toks: &'a [Tok],
    /// Indices of significant (non-comment) tokens, in order.
    sig: Vec<usize>,
    regions: &'a Regions,
    imports: &'a ImportMap,
}

/// Keywords that cannot be the base of an index expression (`&mut [u8]`
/// is a slice type, not `mut` indexed by `u8`).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// Casts the narrowing-cast rule rejects on encode paths.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "usize"];

/// The panic-family macros the panic-path rule rejects.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Operand delimiters for the float-equality heuristic (token texts).
const FLOAT_EQ_STOPS: &[&str] = &[
    "(", ")", "{", "}", ",", ";", "[", "]", "&", "|", "&&", "||", "&=", "|=",
];

impl Ctx<'_> {
    /// Whether the token at index `ti` is in scope: outside `#[cfg(test)]`
    /// and — if the set is function-confined — inside one of `fns`.
    fn active(&self, ti: usize, fns: &[&str]) -> bool {
        if self.regions.in_test[ti] {
            return false;
        }
        fns.is_empty()
            || self.regions.fn_of[ti]
                .map(|k| fns.contains(&self.regions.fn_names[k].as_str()))
                .unwrap_or(false)
    }

    fn sig_tok(&self, s: usize) -> Option<&Tok> {
        self.sig.get(s).map(|&i| &self.toks[i])
    }

    fn is_punct(&self, s: usize, text: &str) -> bool {
        self.sig_tok(s)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    }

    fn is_ident(&self, s: usize) -> bool {
        self.sig_tok(s).is_some_and(|t| t.kind == TokKind::Ident)
    }

    /// Path rules: `use` declarations are checked once as declarations
    /// (after the resolver has exploded groups and followed renames), and
    /// every expression path chain is checked both verbatim and with its
    /// first segment resolved through the import map.
    fn match_paths(&self, pats: &[&[&str]], fns: &[&str]) -> Vec<usize> {
        let mut out = Vec::new();
        // Imports sit at item level, outside any function; a fn-confined
        // set never matches them.
        if fns.is_empty() {
            for imp in &self.imports.imports {
                let segs: Vec<&str> = imp.path.iter().map(String::as_str).collect();
                if pats.iter().any(|p| contains_seq(&segs, p)) {
                    out.push(imp.line);
                }
            }
        }
        let mut s = 0usize;
        while s < self.sig.len() {
            let ti = self.sig[s];
            let tok = &self.toks[ti];
            if tok.kind != TokKind::Ident || self.imports.in_use_decl(ti) || !self.active(ti, fns) {
                s += 1;
                continue;
            }
            // Mid-chain segment (`b` in `a::b`): the chain was already
            // checked from its head.
            if s >= 2 && self.is_punct(s - 1, "::") && self.is_ident(s - 2) {
                s += 1;
                continue;
            }
            let method_pos = s >= 1 && self.is_punct(s - 1, ".");
            let mut segs: Vec<&str> = vec![&tok.text];
            let mut t = s + 1;
            while self.is_punct(t, "::") && self.is_ident(t + 1) {
                segs.push(&self.toks[self.sig[t + 1]].text);
                t += 2;
            }
            let hit = if method_pos {
                // `x.from_entropy()`: a method name can match only a
                // single-segment pattern, and resolution does not apply.
                pats.iter().any(|p| p.len() == 1 && p[0] == segs[0])
            } else {
                pats.iter().any(|p| contains_seq(&segs, p))
                    || self.imports.resolve(segs[0]).any(|imp| {
                        let mut full: Vec<&str> = imp.path.iter().map(String::as_str).collect();
                        full.extend(&segs[1..]);
                        pats.iter().any(|p| contains_seq(&full, p))
                    })
            };
            if hit {
                out.push(tok.line);
            }
            s = t.max(s + 1);
        }
        out
    }

    /// Method rules: `.name(` call sites.
    fn match_methods(&self, names: &[&str], fns: &[&str]) -> Vec<usize> {
        let mut out = Vec::new();
        for s in 0..self.sig.len() {
            let ti = self.sig[s];
            let tok = &self.toks[ti];
            if tok.kind == TokKind::Ident
                && names.contains(&tok.text.as_str())
                && s >= 1
                && self.is_punct(s - 1, ".")
                && self.is_punct(s + 1, "(")
                && self.active(ti, fns)
            {
                out.push(tok.line);
            }
        }
        out
    }

    /// Macro rules: `name!` invocations.
    fn match_macros(&self, names: &[&str], fns: &[&str]) -> Vec<usize> {
        let mut out = Vec::new();
        for s in 0..self.sig.len() {
            let ti = self.sig[s];
            let tok = &self.toks[ti];
            if tok.kind == TokKind::Ident
                && names.contains(&tok.text.as_str())
                && self.is_punct(s + 1, "!")
                && self.active(ti, fns)
            {
                out.push(tok.line);
            }
        }
        out
    }

    /// Float-equality heuristic: `==`/`!=` where a same-line operand
    /// token (scanned out to the nearest expression delimiter) is a float
    /// literal or an `f32`/`f64` mention.
    fn match_float_eq(&self, fns: &[&str]) -> Vec<usize> {
        let mut out = Vec::new();
        for s in 0..self.sig.len() {
            let ti = self.sig[s];
            let tok = &self.toks[ti];
            if tok.kind != TokKind::Punct
                || !(tok.text == "==" || tok.text == "!=")
                || !self.active(ti, fns)
            {
                continue;
            }
            let line = tok.line;
            let stop =
                |t: &Tok| t.kind == TokKind::Punct && FLOAT_EQ_STOPS.contains(&t.text.as_str());
            let mut floaty = false;
            let mut k = s;
            while k > 0 {
                k -= 1;
                let t = &self.toks[self.sig[k]];
                if t.line != line || stop(t) {
                    break;
                }
                if is_floaty(t) {
                    floaty = true;
                    break;
                }
            }
            let mut k = s + 1;
            while !floaty {
                let Some(&tix) = self.sig.get(k) else { break };
                let t = &self.toks[tix];
                if t.line != line || stop(t) {
                    break;
                }
                if is_floaty(t) {
                    floaty = true;
                }
                k += 1;
            }
            if floaty {
                out.push(line);
            }
        }
        out
    }

    /// Narrowing-cast rule: `as u8|u16|u32|usize` anywhere in scope.
    fn match_narrowing_cast(&self, fns: &[&str]) -> Vec<usize> {
        let mut out = Vec::new();
        for s in 0..self.sig.len() {
            let ti = self.sig[s];
            let tok = &self.toks[ti];
            if tok.kind == TokKind::Ident
                && tok.text == "as"
                && !self.imports.in_use_decl(ti)
                && self.sig_tok(s + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && NARROW_TARGETS.contains(&t.text.as_str())
                })
                && self.active(ti, fns)
            {
                out.push(tok.line);
            }
        }
        out
    }

    /// Panic-path rule: panic-family macros plus `[` index expressions
    /// (a `[` whose previous token ends a value expression).
    fn match_panic_path(&self, fns: &[&str]) -> Vec<usize> {
        let mut out = self.match_macros(PANIC_MACROS, fns);
        for s in 0..self.sig.len() {
            let ti = self.sig[s];
            let tok = &self.toks[ti];
            if tok.kind != TokKind::Punct || tok.text != "[" || s == 0 || !self.active(ti, fns) {
                continue;
            }
            let prev = &self.toks[self.sig[s - 1]];
            let indexes = match prev.kind {
                TokKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                _ => false,
            };
            if indexes {
                out.push(tok.line);
            }
        }
        out
    }
}

fn is_floaty(t: &Tok) -> bool {
    match t.kind {
        TokKind::Num => t.text.contains('.') || t.text.contains("f32") || t.text.contains("f64"),
        TokKind::Ident => t.text.contains("f32") || t.text.contains("f64"),
        _ => false,
    }
}

/// Whether `hay` contains `needle` as a contiguous subsequence.
fn contains_seq(hay: &[&str], needle: &[&str]) -> bool {
    !needle.is_empty()
        && needle.len() <= hay.len()
        && hay.windows(needle.len()).any(|w| w == needle)
}

/// Parses the rule names out of a directive comment. The name list stops
/// at the first `(`: justifications are free-form prose, and a comma
/// inside one must not spawn phantom rule names (which the stale-allow
/// analysis would then flag as unknown).
fn parse_allow_names(comment: &str) -> Vec<String> {
    let Some(pos) = comment.find("xtask-allow:") else {
        return Vec::new();
    };
    let body = &comment[pos + "xtask-allow:".len()..];
    body[..body.find('(').unwrap_or(body.len())]
        .split(',')
        .map(|part| {
            // Keep the leading rule-name token; anything after it is
            // free-form commentary.
            let trimmed = part.trim();
            let end = trimmed
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(trimmed.len());
            trimmed[..end].to_owned()
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// One parsed `xtask-allow` directive instance.
struct AllowInst {
    line: usize,
    rule: String,
    used: bool,
}

/// All directive instances of a file, with per-line activation following
/// the legacy carry semantics: a directive covers its own line and the
/// next code line, carrying through comment-only lines in between.
struct Allows {
    insts: Vec<AllowInst>,
    /// Per source line (0-indexed): indices into `insts` active there.
    active: Vec<Vec<usize>>,
}

impl Allows {
    fn collect(toks: &[Tok], nlines: usize) -> Self {
        let mut line_comments: Vec<Vec<&str>> = vec![Vec::new(); nlines];
        let mut has_code = vec![false; nlines];
        for tok in toks {
            let idx = tok.line - 1;
            match tok.kind {
                TokKind::LineComment => {
                    if idx < nlines {
                        line_comments[idx].push(&tok.text);
                    }
                }
                TokKind::BlockComment => {}
                _ => {
                    // A multi-line token (raw string) is code on every
                    // line it spans.
                    let span = tok.text.matches('\n').count();
                    for flag in has_code.iter_mut().skip(idx).take(span + 1) {
                        *flag = true;
                    }
                }
            }
        }
        let mut insts: Vec<AllowInst> = Vec::new();
        let mut active: Vec<Vec<usize>> = vec![Vec::new(); nlines];
        let mut carried: Vec<usize> = Vec::new();
        for l in 0..nlines {
            let mut own: Vec<usize> = Vec::new();
            for comment in &line_comments[l] {
                for rule in parse_allow_names(comment) {
                    insts.push(AllowInst {
                        line: l + 1,
                        rule,
                        used: false,
                    });
                    own.push(insts.len() - 1);
                }
            }
            active[l] = own.iter().chain(carried.iter()).copied().collect();
            if !has_code[l] && !line_comments[l].is_empty() {
                carried.extend(own);
            } else {
                carried = own;
            }
        }
        Self { insts, active }
    }

    /// Suppresses a finding at `line` for `rule` if a matching directive
    /// is active there; marks every matching directive used.
    fn suppress(&mut self, line: usize, rule: &str) -> bool {
        let Some(active) = self.active.get(line.wrapping_sub(1)) else {
            return false;
        };
        let mut hit = false;
        for &i in active {
            if self.insts[i].rule == rule {
                self.insts[i].used = true;
                hit = true;
            }
        }
        hit
    }

    /// File-level suppression (crate-headers): any directive anywhere.
    fn suppress_anywhere(&mut self, rule: &str) -> bool {
        let mut hit = false;
        for inst in &mut self.insts {
            if inst.rule == rule {
                inst.used = true;
                hit = true;
            }
        }
        hit
    }

    /// The directive instances that suppressed nothing.
    fn stale(&self) -> impl Iterator<Item = &AllowInst> {
        self.insts.iter().filter(|i| !i.used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{BASE_RULES, HOT_LOOP_RULES, PROTOCOL_CLOCK_RULES, SNAPSHOT_PATH_RULES};

    fn scan(text: &str) -> Vec<Finding> {
        analyze_source(
            FileClass::LibrarySource,
            text,
            &[RuleSet::new("library", BASE_RULES)],
        )
    }

    fn rules_of(findings: &[Finding]) -> Vec<(&'static str, usize)> {
        findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn clean_code_has_no_findings() {
        let findings = scan("fn f(rng: &mut StdRng) -> u64 {\n    rng.next()\n}\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn needles_inside_strings_do_not_fire() {
        let findings = scan("fn f() { let s = \"do not call thread_rng here\"; }\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn needles_inside_comments_do_not_fire() {
        let findings = scan("// thread_rng would be bad\n/* Instant::now too */\nfn f() {}\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let text = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { \
                    Some(1).unwrap(); }\n}\n";
        let findings = scan(text);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn code_after_cfg_test_region_is_checked_again() {
        let text = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n\
                    fn after() { y.unwrap(); }\n";
        assert_eq!(rules_of(&scan(text)), vec![("unwrap", 5)]);
    }

    #[test]
    fn directive_parsing_handles_lists() {
        let allows = parse_allow_names("// xtask-allow: unwrap, float-eq (sentinel, see above)");
        assert_eq!(allows, vec!["unwrap".to_owned(), "float-eq".to_owned()]);
        assert!(parse_allow_names("// no directive here").is_empty());
    }

    #[test]
    fn same_line_allow_suppresses() {
        let findings = scan("fn f() { x.unwrap(); } // xtask-allow: unwrap\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn preceding_line_allow_suppresses() {
        let findings = scan("// xtask-allow: unwrap\nfn f() { x.unwrap(); }\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_carries_through_comment_continuation_lines() {
        let text = "// xtask-allow: unwrap (long justification\n// continued here)\n\
                    fn f() { x.unwrap(); }\n";
        assert!(scan(text).is_empty());
    }

    #[test]
    fn allow_does_not_carry_past_code_lines() {
        let text = "// xtask-allow: unwrap\nfn ok() {}\nfn f() { x.unwrap(); }\n";
        // The directive no longer reaches line 3, so the unwrap fires —
        // and the directive itself is now a stale-allow finding.
        assert_eq!(
            rules_of(&scan(text)),
            vec![("stale-allow", 1), ("unwrap", 3)]
        );
    }

    #[test]
    fn allow_for_another_rule_does_not_suppress() {
        let findings = scan("fn f() { x.unwrap(); } // xtask-allow: wall-clock\n");
        assert_eq!(rules_of(&findings), vec![("stale-allow", 1), ("unwrap", 1)]);
    }

    #[test]
    fn unknown_allow_name_is_flagged_with_its_own_message() {
        let findings = scan("fn f() {} // xtask-allow: unwarp\n");
        assert_eq!(rules_of(&findings), vec![("stale-allow", 1)]);
        assert_eq!(findings[0].message, UNKNOWN_ALLOW_MSG);
    }

    #[test]
    fn used_allow_is_not_stale() {
        let findings = scan("fn f() { x.unwrap() } // xtask-allow: unwrap\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn float_eq_detected_both_sides() {
        assert_eq!(scan("fn f() { let ok = a == 0.5; }\n")[0].rule, "float-eq");
        assert_eq!(scan("fn f() { let ok = 0.5 != b; }\n")[0].rule, "float-eq");
        assert_eq!(
            scan("fn f() { let ok = x as f64 == y; }\n")[0].rule,
            "float-eq"
        );
    }

    #[test]
    fn integer_eq_is_fine() {
        assert!(scan("fn f() { let ok = a == 5; }\n").is_empty());
        assert!(scan("fn f() { let ok = a <= 5.0; }\n").is_empty());
        assert!(scan("fn f() { for i in 0..=n {} }\n").is_empty());
    }

    #[test]
    fn headers_checked_only_for_roots() {
        let text = "pub fn f() {}\n";
        assert!(analyze_source(
            FileClass::LibrarySource,
            text,
            &[RuleSet::new("library", BASE_RULES)]
        )
        .is_empty());
        let root = analyze_source(
            FileClass::LibraryRoot,
            text,
            &[RuleSet::new("library", BASE_RULES)],
        );
        assert_eq!(root.len(), 2);
        assert!(root.iter().all(|f| f.rule == "crate-headers"));
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
        assert!(analyze_source(
            FileClass::LibraryRoot,
            good,
            &[RuleSet::new("library", BASE_RULES)]
        )
        .is_empty());
    }

    #[test]
    fn grouped_import_fires_protocol_instant() {
        let text = "use std::time::{Duration, Instant};\nfn f() {}\n";
        let findings = analyze_source(
            FileClass::LibrarySource,
            text,
            &[RuleSet::new("protocol-clock", PROTOCOL_CLOCK_RULES)],
        );
        assert_eq!(rules_of(&findings), vec![("protocol-instant", 1)]);
    }

    #[test]
    fn renamed_import_fires_through_the_alias() {
        let text = "use std::time::Instant as Clock;\nfn f() -> u64 {\n    \
                    let t = Clock::now();\n    t.elapsed().as_nanos() as u64\n}\n";
        let findings = analyze_source(
            FileClass::LibrarySource,
            text,
            &[
                RuleSet::new("library", BASE_RULES),
                RuleSet::new("protocol-clock", PROTOCOL_CLOCK_RULES),
            ],
        );
        // The import line names std::time::Instant; the call site both
        // names it (via the alias) and reads the clock.
        assert_eq!(
            rules_of(&findings),
            vec![
                ("protocol-instant", 1),
                ("protocol-instant", 3),
                ("wall-clock", 3),
            ]
        );
    }

    #[test]
    fn method_call_with_spaces_still_fires() {
        // The legacy needle `.unwrap()` required exact spelling.
        assert_eq!(
            rules_of(&scan("fn f() { x . unwrap (); }\n")),
            vec![("unwrap", 1)]
        );
    }

    #[test]
    fn narrowing_cast_fires_only_on_narrow_targets() {
        let set = [RuleSet::new("snapshot-encode", SNAPSHOT_PATH_RULES)];
        let bad = "fn f(x: u64) -> u32 { x as u32 }\n";
        let findings = analyze_source(FileClass::LibrarySource, bad, &set);
        assert_eq!(rules_of(&findings), vec![("narrowing-cast", 1)]);
        let ok = "fn f(x: u32) -> u64 { x as u64 }\n";
        assert!(analyze_source(FileClass::LibrarySource, ok, &set).is_empty());
    }

    #[test]
    fn panic_path_is_confined_to_named_fns() {
        let text = "fn step(xs: &[u64], i: usize) -> u64 {\n    xs[i]\n}\n\
                    fn other(xs: &[u64], i: usize) -> u64 {\n    xs[i]\n}\n";
        let findings = analyze_source(
            FileClass::LibrarySource,
            text,
            &[RuleSet::in_fns("hot-loop", HOT_LOOP_RULES, &["step"])],
        );
        assert_eq!(rules_of(&findings), vec![("panic-path", 2)]);
    }

    #[test]
    fn panic_path_ignores_types_attributes_and_literals() {
        let text = "#[derive(Debug)]\npub struct S {\n    buf: [u8; 4],\n}\n\
                    fn step(s: &mut [u64]) {\n    let a = [1, 2];\n    \
                    for x in s.iter_mut() { *x += a.len() as u64; }\n}\n";
        let findings = analyze_source(
            FileClass::LibrarySource,
            text,
            &[RuleSet::in_fns("hot-loop", HOT_LOOP_RULES, &["step"])],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn panic_path_catches_macros_and_slicing() {
        let text = "fn step(xs: &[u64]) {\n    if xs.is_empty() { panic!(\"no\"); }\n    \
                    let _ = &xs[1..];\n}\n";
        let findings = analyze_source(
            FileClass::LibrarySource,
            text,
            &[RuleSet::in_fns("hot-loop", HOT_LOOP_RULES, &["step"])],
        );
        assert_eq!(
            rules_of(&findings),
            vec![("panic-path", 2), ("panic-path", 3)]
        );
    }
}
