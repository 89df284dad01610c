//! The lint registry: every repo-specific invariant the pass enforces.
//!
//! Each lint matches **token sequences** from [`crate::lexer`] — never raw
//! text — so nothing fires inside strings, raw strings, char literals or
//! comments. Violations carry `file:line` and the lint name; two lints
//! (`unsafe-sites`, `no-panic`) additionally report a per-file census that
//! `main` ratchets against `baseline.toml` (see [`crate::baseline`]).
//!
//! # Lint catalog
//!
//! | lint | scope | rule |
//! |------|-------|------|
//! | `unsafe-safety` | all files | every `unsafe` token carries a `SAFETY:` comment on the same or one of the 3 preceding lines |
//! | `unsafe-sites` | all files (census) | `unsafe` tokens per file, ratcheted: only files in the `[unsafe]` baseline may contain `unsafe`, at most the recorded count |
//! | `target-feature` | all files | `#[target_feature]` fns are confined to `crates/tensor/src/simd.rs` and must stay private (reachable only via `simd::dispatch`) |
//! | `raw-lock` | all files | no `.lock().unwrap()` / `.lock().expect(…)` — use the type's poison-recovering `guard()` accessor (plain test mutexes: `unwrap_or_else(PoisonError::into_inner)`) |
//! | `no-panic` | library code, census | no `.unwrap()` / `.expect(…)` / `panic!` outside `#[cfg(test)]` regions, ratcheted per file via the `[no-panic]` baseline |
//! | `unsafe-header` | crate roots | every falvolt crate's `lib.rs` opens with `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]` |
//! | `allow-unsafe` | all files | `#[allow(unsafe_code)]` (or `#![…]`) only in `crates/tensor/src/simd.rs` |
//! | `allow-deprecated` | all files | no `allow(deprecated)` anywhere — migrate off a deprecated item instead of silencing it |
//! | `bench-schema` | `BENCH_kernels.json` | every timing entry has a known `isa`; `speedup`/`*_ms` values are finite and in range (see [`crate::schema`]) |
//!
//! # Waivers
//!
//! A justified exception is written at the site, not in a central list: a
//! comment containing `tidy:allow(<lint-name>): <reason>` waives that lint
//! on its own line and the next. The reason is mandatory — a bare waiver
//! is itself a violation — so every exception documents *why* in the diff
//! that introduces it.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;
use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The lint that fired (catalog name).
    pub lint: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A scanned source file: repo-relative `/`-separated path plus its token
/// stream.
pub struct SourceFile {
    /// Repo-relative path (`crates/tensor/src/simd.rs`).
    pub path: String,
    /// Token stream from [`crate::lexer::lex`].
    pub toks: Vec<Tok>,
}

impl SourceFile {
    /// Lexes `text` under `path`.
    pub fn new(path: impl Into<String>, text: &str) -> Self {
        Self {
            path: path.into(),
            toks: crate::lexer::lex(text),
        }
    }
}

/// Everything one file contributes to the pass: direct violations plus the
/// two ratcheted censuses.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that fail the pass outright.
    pub violations: Vec<Violation>,
    /// Lines of `unsafe` tokens in the file (the census for the `[unsafe]`
    /// baseline is `unsafe_sites.len()`).
    pub unsafe_sites: Vec<u32>,
    /// Sites of panic-capable calls in non-test library code, for the
    /// `[no-panic]` ratchet (the census is `sites.len()`; the sites are
    /// reported individually when a file exceeds its baseline).
    pub panic_sites: Vec<(u32, String)>,
}

/// The sole file allowed to contain `unsafe` / `#[target_feature]` /
/// `allow(unsafe_code)`: the runtime-dispatched SIMD trampoline layer.
pub const SIMD_FILE: &str = "crates/tensor/src/simd.rs";

/// Descriptive registry entry, for `--list` and the README catalog.
pub struct LintInfo {
    /// Catalog name (used in diagnostics and `tidy:allow(…)` waivers).
    pub name: &'static str,
    /// One-line rule statement.
    pub summary: &'static str,
}

/// The registry: one entry per lint, in catalog order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: "unsafe-safety",
        summary: "every `unsafe` carries a `SAFETY:` comment within the 3 preceding lines",
    },
    LintInfo {
        name: "unsafe-sites",
        summary: "unsafe sites are inventoried in baseline.toml and ratcheted per file",
    },
    LintInfo {
        name: "target-feature",
        summary: "#[target_feature] fns live only in tensor/src/simd.rs and stay private",
    },
    LintInfo {
        name: "raw-lock",
        summary: "no .lock().unwrap()/.lock().expect() — use guard() accessors",
    },
    LintInfo {
        name: "no-panic",
        summary: "no unwrap()/expect()/panic! in non-test library code (ratcheted)",
    },
    LintInfo {
        name: "unsafe-header",
        summary: "crate roots open with #![forbid(unsafe_code)] or #![deny(unsafe_code)]",
    },
    LintInfo {
        name: "allow-unsafe",
        summary: "allow(unsafe_code) is confined to tensor/src/simd.rs",
    },
    LintInfo {
        name: "allow-deprecated",
        summary: "allow(deprecated) is allowed in no file",
    },
    LintInfo {
        name: "bench-schema",
        summary: "BENCH_kernels.json entries carry a known isa; timings are finite",
    },
];

/// `true` when `path` is non-test library code subject to the `no-panic`
/// lint: falvolt crate sources and the umbrella `src/` — not `tests/`,
/// `examples/`, `benches/` or the API-shim stand-ins under `shims/`.
pub fn is_library_code(path: &str) -> bool {
    if path.starts_with("shims/") {
        return false;
    }
    (path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/")))
        && path.ends_with(".rs")
}

/// Runs every file-scoped lint on one file.
pub fn check_file(file: &SourceFile) -> FileReport {
    let mut report = FileReport::default();
    let waivers = collect_waivers(file, &mut report.violations);
    let in_test = test_region_mask(&file.toks);

    unsafe_safety(file, &waivers, &mut report);
    target_feature(file, &waivers, &mut report.violations);
    raw_lock(file, &waivers, &mut report.violations);
    no_panic(file, &waivers, &in_test, &mut report);
    allow_confinement(file, &waivers, &mut report.violations);
    if file.path.ends_with("/lib.rs") || file.path == "src/lib.rs" {
        unsafe_header(file, &mut report.violations);
    }
    report
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

/// Per-line waivers: line → lint names waived on that line and the next.
type Waivers = BTreeMap<u32, Vec<String>>;

fn collect_waivers(file: &SourceFile, violations: &mut Vec<Violation>) -> Waivers {
    let mut waivers: Waivers = BTreeMap::new();
    for tok in &file.toks {
        if tok.kind != TokKind::Comment {
            continue;
        }
        let Some(rest) = tok.text.split("tidy:allow(").nth(1) else {
            continue;
        };
        let Some((name, after)) = rest.split_once(')') else {
            continue;
        };
        let reason = after.trim_start_matches([':', ' ', '—', '-']);
        if reason.trim().is_empty() {
            violations.push(Violation {
                lint: "waiver",
                file: file.path.clone(),
                line: tok.line,
                message: format!(
                    "tidy:allow({name}) needs a justification: `tidy:allow({name}): <reason>`"
                ),
            });
            continue;
        }
        waivers.entry(tok.line).or_default().push(name.to_string());
    }
    waivers
}

/// `true` when `lint` is waived on `line` (a waiver covers its own line and
/// the following one, so it can sit above the site).
fn waived(waivers: &Waivers, lint: &str, line: u32) -> bool {
    [line.saturating_sub(1), line].iter().any(|l| {
        waivers
            .get(l)
            .is_some_and(|names| names.iter().any(|n| n == lint))
    })
}

// ---------------------------------------------------------------------------
// Test-region mask
// ---------------------------------------------------------------------------

/// Marks tokens inside `#[cfg(test)]`- or `#[test]`-gated items, so the
/// `no-panic` lint skips test code. The gated item is everything up to the
/// first top-level `;`, or the matching close of the first `{`.
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && matches!(toks.get(i + 1), Some(t) if t.is_punct('[')) {
            let (end, is_test_gate) = scan_attr(toks, i);
            if is_test_gate {
                // Mark the attribute, any stacked attributes, and the item.
                let mut j = end;
                while j < toks.len()
                    && toks[j].is_punct('#')
                    && matches!(toks.get(j + 1), Some(t) if t.is_punct('['))
                {
                    j = scan_attr(toks, j).0;
                }
                let item_end = skip_item(toks, j);
                for m in mask.iter_mut().take(item_end).skip(i) {
                    *m = true;
                }
                i = item_end;
                continue;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Scans an attribute starting at `#`; returns (index past the closing `]`,
/// whether the attribute gates test code: `#[test]` or a `cfg(…)`
/// containing the bare ident `test`).
fn scan_attr(toks: &[Tok], start: usize) -> (usize, bool) {
    let mut i = start + 1; // at '['
    let mut depth = 0usize;
    let mut is_cfg = false;
    let mut saw_test = false;
    let mut first_ident: Option<&str> = None;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('[') | TokKind::Punct('(') => depth += 1,
            TokKind::Punct(']') | TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            TokKind::Ident => {
                if first_ident.is_none() {
                    first_ident = Some(&t.text);
                    if t.text == "cfg" {
                        is_cfg = true;
                    }
                }
                if t.text == "test" {
                    saw_test = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let gates_test = (is_cfg && saw_test) || first_ident == Some("test");
    (i, gates_test)
}

/// Skips one item starting at `start`: to the first top-level `;`, or past
/// the matching close of the first `{`.
fn skip_item(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(';') => return i + 1,
            TokKind::Punct('{') => {
                let mut depth = 0usize;
                while i < toks.len() {
                    match toks[i].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => i += 1,
        }
    }
    i
}

// ---------------------------------------------------------------------------
// Individual lints
// ---------------------------------------------------------------------------

/// `unsafe-safety` + the `unsafe-sites` census.
fn unsafe_safety(file: &SourceFile, waivers: &Waivers, report: &mut FileReport) {
    // Lines that end a SAFETY: comment: a multi-line comment block counts
    // from its last line, so a two-line SAFETY comment above a pair of
    // attributes still covers the fn.
    let comment_lines: std::collections::BTreeSet<u32> = file
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Comment)
        .map(|t| t.line)
        .collect();
    let safety_lines: Vec<u32> = file
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Comment && t.text.contains("SAFETY:"))
        .map(|t| {
            let mut last = t.line;
            while comment_lines.contains(&(last + 1)) {
                last += 1;
            }
            last
        })
        .collect();
    for tok in &file.toks {
        if !tok.is_ident("unsafe") {
            continue;
        }
        report.unsafe_sites.push(tok.line);
        let covered = safety_lines
            .iter()
            .any(|&l| l <= tok.line && l + 3 >= tok.line);
        if !covered && !waived(waivers, "unsafe-safety", tok.line) {
            report.violations.push(Violation {
                lint: "unsafe-safety",
                file: file.path.clone(),
                line: tok.line,
                message: "`unsafe` without a `// SAFETY:` comment on the same or one of the 3 \
                          preceding lines"
                    .into(),
            });
        }
    }
}

/// `target-feature`: confinement to the SIMD trampoline file, and privacy
/// of the decorated fn inside it.
fn target_feature(file: &SourceFile, waivers: &Waivers, violations: &mut Vec<Violation>) {
    let toks = &file.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && matches!(toks.get(i + 1), Some(t) if t.is_punct('['))) {
            i += 1;
            continue;
        }
        let (end, _) = scan_attr(toks, i);
        let has_target_feature = toks[i..end].iter().any(|t| t.is_ident("target_feature"));
        if !has_target_feature {
            i = end;
            continue;
        }
        let line = toks[i].line;
        if file.path != SIMD_FILE {
            if !waived(waivers, "target-feature", line) {
                violations.push(Violation {
                    lint: "target-feature",
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "#[target_feature] is confined to {SIMD_FILE}; add the kernel there and \
                         reach it via simd::dispatch"
                    ),
                });
            }
        } else {
            // Scan past stacked attributes to the fn, flagging `pub`: the
            // trampolines stay private so the only route in is dispatch().
            let mut j = end;
            while j < toks.len()
                && toks[j].is_punct('#')
                && matches!(toks.get(j + 1), Some(t) if t.is_punct('['))
            {
                j = scan_attr(toks, j).0;
            }
            let mut is_pub = false;
            while j < toks.len() && !toks[j].is_ident("fn") {
                if toks[j].is_ident("pub") {
                    is_pub = true;
                }
                j += 1;
            }
            if is_pub && !waived(waivers, "target-feature", line) {
                violations.push(Violation {
                    lint: "target-feature",
                    file: file.path.clone(),
                    line,
                    message: "#[target_feature] fns must stay private: callers go through \
                              simd::dispatch, which proves the ISA before the call"
                        .into(),
                });
            }
        }
        i = end;
    }
}

/// `raw-lock`: `.lock().unwrap()` / `.lock().expect(…)` anywhere.
fn raw_lock(file: &SourceFile, waivers: &Waivers, violations: &mut Vec<Violation>) {
    let toks: Vec<&Tok> = file
        .toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    for w in toks.windows(7) {
        let [dot1, lock, op, cp, dot2, sink, op2] = w else {
            continue;
        };
        let is_pattern = dot1.is_punct('.')
            && lock.is_ident("lock")
            && op.is_punct('(')
            && cp.is_punct(')')
            && dot2.is_punct('.')
            && (sink.is_ident("unwrap") || sink.is_ident("expect"))
            && op2.is_punct('(');
        if is_pattern && !waived(waivers, "raw-lock", lock.line) {
            violations.push(Violation {
                lint: "raw-lock",
                file: file.path.clone(),
                line: lock.line,
                message: format!(
                    ".lock().{}(…) bypasses poison recovery — use the type's guard() accessor \
                     (plain test mutexes: unwrap_or_else(PoisonError::into_inner))",
                    sink.text
                ),
            });
        }
    }
}

/// `no-panic` census over non-test library code.
fn no_panic(file: &SourceFile, waivers: &Waivers, in_test: &[bool], report: &mut FileReport) {
    if !is_library_code(&file.path) {
        return;
    }
    let toks = &file.toks;
    for (i, tok) in toks.iter().enumerate() {
        if in_test[i] || tok.kind != TokKind::Ident {
            continue;
        }
        let site = match tok.text.as_str() {
            // `.unwrap()` / `.expect(` method calls only: idents like
            // `unwrap_or_else` or the fn name `expect_fn` do not match
            // because the lexer yields them as single tokens.
            "unwrap" | "expect"
                if i > 0
                    && toks[i - 1].is_punct('.')
                    && matches!(toks.get(i + 1), Some(t) if t.is_punct('(')) =>
            {
                format!(".{}(…)", tok.text)
            }
            "panic" if matches!(toks.get(i + 1), Some(t) if t.is_punct('!')) => "panic!".into(),
            _ => continue,
        };
        if waived(waivers, "no-panic", tok.line) {
            continue;
        }
        report.panic_sites.push((tok.line, site));
    }
}

/// `allow-unsafe` confinement + the `allow-deprecated` ban.
fn allow_confinement(file: &SourceFile, waivers: &Waivers, violations: &mut Vec<Violation>) {
    let toks: Vec<&Tok> = file
        .toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    for w in toks.windows(3) {
        let [allow, op, what] = w else { continue };
        if !(allow.is_ident("allow") && op.is_punct('(')) {
            continue;
        }
        if what.is_ident("unsafe_code")
            && file.path != SIMD_FILE
            && !waived(waivers, "allow-unsafe", allow.line)
        {
            violations.push(Violation {
                lint: "allow-unsafe",
                file: file.path.clone(),
                line: allow.line,
                message: format!("allow(unsafe_code) is confined to {SIMD_FILE}"),
            });
        }
        if what.is_ident("deprecated") && !waived(waivers, "allow-deprecated", allow.line) {
            violations.push(Violation {
                lint: "allow-deprecated",
                file: file.path.clone(),
                line: allow.line,
                message: "allow(deprecated) is allowed in no file; migrate off the deprecated \
                          item instead of suppressing the warning"
                    .to_string(),
            });
        }
    }
}

/// `unsafe-header`: crate roots must forbid (or, for the SIMD-bearing
/// tensor crate, deny) unsafe code.
fn unsafe_header(file: &SourceFile, violations: &mut Vec<Violation>) {
    let toks: Vec<&Tok> = file
        .toks
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let has_header = toks.windows(7).any(|w| {
        let [hash, bang, ob, level, op, what, cp] = w else {
            return false;
        };
        hash.is_punct('#')
            && bang.is_punct('!')
            && ob.is_punct('[')
            && (level.is_ident("forbid") || level.is_ident("deny"))
            && op.is_punct('(')
            && what.is_ident("unsafe_code")
            && cp.is_punct(')')
    });
    if !has_header {
        violations.push(Violation {
            lint: "unsafe-header",
            file: file.path.clone(),
            line: 1,
            message: "crate root lacks #![forbid(unsafe_code)] (or #![deny(unsafe_code)] where \
                      a module-scoped allow is inventoried)"
                .into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    fn lints_fired(report: &FileReport) -> Vec<&'static str> {
        report.violations.iter().map(|v| v.lint).collect()
    }

    #[test]
    fn raw_lock_fires_with_exact_line() {
        let report = check_file(&file(
            "crates/x/src/a.rs",
            "fn f() {\n    let g = m.lock().unwrap();\n}",
        ));
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].lint, "raw-lock");
        assert_eq!(report.violations[0].line, 2);
    }

    #[test]
    fn raw_lock_spanning_lines_still_fires() {
        let report = check_file(&file(
            "crates/x/src/a.rs",
            "fn f() {\n    let g = m\n        .lock()\n        .expect(\"poisoned\");\n}",
        ));
        assert!(lints_fired(&report).contains(&"raw-lock"));
    }

    #[test]
    fn raw_lock_ignores_strings_comments_and_recovering_sinks() {
        let src = r#"
fn f() {
    // .lock().unwrap() in a comment
    let s = ".lock().unwrap()";
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let h = match m.lock() { Ok(g) => g, Err(p) => p.into_inner() };
}
"#;
        let report = check_file(&file("crates/x/src/a.rs", src));
        assert!(report.violations.is_empty());
    }

    #[test]
    fn waiver_with_reason_suppresses_waiver_without_reason_fails() {
        let ok = check_file(&file(
            "crates/x/src/a.rs",
            "// tidy:allow(raw-lock): deliberate poison in a test helper\nlet g = m.lock().unwrap();",
        ));
        assert!(ok.violations.is_empty());
        let bad = check_file(&file(
            "crates/x/src/a.rs",
            "// tidy:allow(raw-lock)\nlet g = m.lock().unwrap();",
        ));
        // A reasonless waiver is itself a violation AND does not suppress.
        assert_eq!(lints_fired(&bad), vec!["waiver", "raw-lock"]);
    }

    #[test]
    fn unsafe_requires_nearby_safety_comment() {
        let bad = check_file(&file("crates/x/src/a.rs", "fn f() { unsafe { g() } }"));
        assert!(lints_fired(&bad).contains(&"unsafe-safety"));
        let ok = check_file(&file(
            "crates/x/src/a.rs",
            "fn f() {\n    // SAFETY: g has no preconditions\n    unsafe { g() }\n}",
        ));
        assert!(!lints_fired(&ok).contains(&"unsafe-safety"));
        assert_eq!(ok.unsafe_sites, vec![3]);
    }

    #[test]
    fn safety_comment_covers_at_most_three_lines_down() {
        let far = check_file(&file(
            "crates/x/src/a.rs",
            "// SAFETY: too far away\n\n\n\n\nunsafe { g() }",
        ));
        assert!(lints_fired(&far).contains(&"unsafe-safety"));
    }

    #[test]
    fn target_feature_confined_and_private() {
        let outside = check_file(&file(
            "crates/snn/src/fast.rs",
            "#[target_feature(enable = \"avx2\")]\nunsafe fn go() {}",
        ));
        assert!(lints_fired(&outside).contains(&"target-feature"));
        let public = check_file(&file(
            SIMD_FILE,
            "// SAFETY: caller checks the ISA\n#[target_feature(enable = \"avx2\")]\npub unsafe fn go() {}",
        ));
        assert!(lints_fired(&public).contains(&"target-feature"));
        let private = check_file(&file(
            SIMD_FILE,
            "// SAFETY: caller checks the ISA\n#[target_feature(enable = \"avx2\")]\nunsafe fn go() {}",
        ));
        assert!(!lints_fired(&private).contains(&"target-feature"));
    }

    #[test]
    fn no_panic_counts_library_sites_but_skips_tests() {
        let src = r#"
fn hot() {
    let v = x.unwrap();
    let w = y.expect("msg");
    panic!("boom");
}

#[cfg(test)]
mod tests {
    fn t() { let v = x.unwrap(); panic!("fine in tests"); }
}
"#;
        let report = check_file(&file("crates/x/src/a.rs", src));
        assert_eq!(report.panic_sites.len(), 3);
        let lines: Vec<u32> = report.panic_sites.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![3, 4, 5]);
    }

    #[test]
    fn no_panic_skips_test_attr_gated_fns_and_non_library_paths() {
        let src = "#[test]\nfn t() { x.unwrap(); }\n";
        let report = check_file(&file("crates/x/src/a.rs", src));
        assert!(report.panic_sites.is_empty());
        let report = check_file(&file("crates/x/tests/t.rs", "fn t() { x.unwrap(); }"));
        assert!(report.panic_sites.is_empty());
        let report = check_file(&file("shims/rayon/src/lib.rs", "fn t() { x.unwrap(); }"));
        assert!(report.panic_sites.is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() { m.lock().unwrap_or_else(p); x.unwrap_or(3); }";
        let report = check_file(&file("crates/x/src/a.rs", src));
        assert!(report.panic_sites.is_empty());
        assert!(report.violations.is_empty());
    }

    #[test]
    fn header_lint_accepts_forbid_or_deny_rejects_absence() {
        let ok = check_file(&file("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n"));
        assert!(ok.violations.is_empty());
        let ok = check_file(&file("crates/x/src/lib.rs", "#![deny(unsafe_code)]\n"));
        assert!(ok.violations.is_empty());
        let bad = check_file(&file("crates/x/src/lib.rs", "//! docs only\n"));
        assert_eq!(lints_fired(&bad), vec!["unsafe-header"]);
    }

    #[test]
    fn allow_unsafe_and_deprecated_are_confined() {
        let bad = check_file(&file("crates/x/src/a.rs", "#![allow(unsafe_code)]\n"));
        assert!(lints_fired(&bad).contains(&"allow-unsafe"));
        let bad = check_file(&file(
            "crates/x/src/a.rs",
            "#[allow(deprecated)]\nfn f() {}\n",
        ));
        assert!(lints_fired(&bad).contains(&"allow-deprecated"));
        // No file is exempt, test suites included.
        let bad = check_file(&file("tests/a.rs", "#![allow(deprecated)]\nfn f() {}\n"));
        assert!(lints_fired(&bad).contains(&"allow-deprecated"));
    }

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let mut names: Vec<&str> = LINTS.iter().map(|l| l.name).collect();
        assert!(names.iter().all(|n| !n.is_empty()));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LINTS.len());
    }
}
