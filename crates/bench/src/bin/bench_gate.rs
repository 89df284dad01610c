//! Bench-smoke regression gate.
//!
//! Parses `BENCH_kernels.json` (written by `cargo bench -p falvolt-bench
//! --bench kernels`) and fails when
//!
//! * any recorded `"speedup"` is below the absolute threshold (default 1.0 —
//!   an optimised path must not be slower than the baseline it claims to
//!   beat), or
//! * a **baseline file** is supplied (second argument or
//!   `BENCH_GATE_BASELINE`) and any speedup shared between the two files has
//!   regressed by more than `BENCH_GATE_MAX_REGRESSION` (default 0.10, i.e.
//!   current < 90% of baseline), or a baseline-recorded comparison vanished
//!   from the current file (a bench that stops measuring must not pass
//!   silently).
//!
//! Both files are read with [`falvolt_tidy::schema::parse`] — the parser the
//! tidy pass and `--schema-only` use — so the three readers of the file
//! cannot disagree about what it says. A file that is not valid JSON
//! (truncated, or an object repeating a key) fails as unreadable. Every
//! `"speedup"` member of the parsed tree is labelled with the `/`-joined
//! path of enclosing object keys and array indices (e.g.
//! `sparse_matmul_1024x512x64/[2]/speedup`), which is what lets current and
//! baseline values be matched entry-by-entry even as new benches are added.
//! A `"speedup"` that is not a finite raw number (`inf`, `NaN`, a string, an
//! object) fails the gate rather than being skipped — a broken measurement
//! must not pass silently.
//!
//! `BENCH_GATE_MIN_SPEEDUP` overrides the absolute threshold for noisy
//! shared runners; it must be a finite number `> 0`.
//! `BENCH_GATE_MAX_REGRESSION` must be a finite number in `[0, 1)`. An
//! override outside its range fails the gate as `bad-config` instead of
//! falling back to the default or loosening the floor below zero.
//!
//! `bench_gate --schema-only [PATH]` skips all speedup thresholds and
//! instead validates the file against the bench schema the `falvolt-tidy`
//! pass enforces ([`falvolt_tidy::schema::check_bench_schema`] — known
//! `"isa"` per timing entry, finite in-range numbers). Both gates call the
//! same function, so the schema cannot drift between lint time and bench
//! time.
//!
//! Entries may carry a sibling `"isa"` string recording which SIMD level the
//! kernel dispatcher resolved to when the entry was measured (`scalar`,
//! `avx2`, `avx512`, `neon`). When both the baseline and the current file
//! record an ISA for an entry and they differ, the baseline comparison for
//! that entry is **skipped with a log line** instead of failing: an AVX-512
//! baseline says nothing about a NEON or scalar runner. The absolute
//! threshold still applies to every current entry regardless of ISA.
//!
//! Array elements are labelled positionally (`[0]`, `[1]`, …), so the
//! baseline must come from the same bench structure as the current file —
//! which CI guarantees by snapshotting the committed `BENCH_kernels.json`
//! of the same revision it benches. Comparing files across revisions that
//! reordered or inserted sweep entries would silently match different
//! entries.
//!
//! Exit status: 0 when every check clears. Every failure class has its own
//! non-zero exit code (see [`FailureKind`]) and, in addition to the human
//! log lines, each failure is emitted on stderr as one machine-readable
//! JSON line of the form
//! `bench-gate-failure: {"kind": "...", "label": "...", "detail": "..."}`
//! so CI can report *why* the gate tripped without scraping prose. When
//! several classes fail at once the process exits with the code of the
//! first failure encountered (file-level problems are detected before
//! entry-level ones, so the exit code names the most fundamental fault).

use falvolt_tidy::schema::{self, Node, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The distinct failure classes the gate can exit with. The discriminant is
/// the process exit code, so callers can dispatch on `$?` alone:
///
/// | code | kind | meaning |
/// |------|------|---------|
/// | 2 | `current-unreadable` | the current bench JSON is missing or unreadable |
/// | 3 | `no-speedups` | the current file records no `"speedup"` entries |
/// | 4 | `unparseable-speedup` | a `"speedup"` value is not a finite number |
/// | 5 | `below-threshold` | a speedup is under the absolute threshold |
/// | 6 | `baseline-unreadable` | the supplied baseline file cannot be read |
/// | 7 | `baseline-regression` | an entry regressed vs (or vanished from) the baseline |
/// | 8 | `schema-violation` | `--schema-only`: the file fails the tidy bench schema |
/// | 9 | `bad-config` | an environment override is unparseable or out of range |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureKind {
    CurrentUnreadable = 2,
    NoSpeedups = 3,
    UnparseableSpeedup = 4,
    BelowThreshold = 5,
    BaselineUnreadable = 6,
    BaselineRegression = 7,
    Schema = 8,
    BadConfig = 9,
}

impl FailureKind {
    fn code(self) -> u8 {
        self as u8
    }

    /// Stable machine-readable name, mirrored in the table above.
    fn kind(self) -> &'static str {
        match self {
            FailureKind::CurrentUnreadable => "current-unreadable",
            FailureKind::NoSpeedups => "no-speedups",
            FailureKind::UnparseableSpeedup => "unparseable-speedup",
            FailureKind::BelowThreshold => "below-threshold",
            FailureKind::BaselineUnreadable => "baseline-unreadable",
            FailureKind::BaselineRegression => "baseline-regression",
            FailureKind::Schema => "schema-violation",
            FailureKind::BadConfig => "bad-config",
        }
    }
}

/// One recorded gate failure: its class, the entry label it concerns (empty
/// for file-level failures) and a human-oriented detail string.
struct Failure {
    kind: FailureKind,
    label: String,
    detail: String,
}

/// Minimal JSON string escaping for the machine-readable failure lines
/// (labels and details may embed quotes or backslashes from file paths and
/// unparseable tokens).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Emits the machine-readable line for one failure.
fn report(failure: &Failure) {
    eprintln!(
        "bench-gate-failure: {{\"kind\": \"{}\", \"label\": \"{}\", \"detail\": \"{}\"}}",
        failure.kind.kind(),
        json_escape(&failure.label),
        json_escape(&failure.detail),
    );
}

/// Reports a single failure that ends the run and returns its exit code.
fn fail_now(kind: FailureKind, detail: String) -> ExitCode {
    eprintln!("bench gate: {detail}");
    report(&Failure {
        kind,
        label: String::new(),
        detail,
    });
    ExitCode::from(kind.code())
}

/// Reads the environment override `name`, or `default` when it is unset.
/// A value that does not parse or fails `valid` is a `bad-config` failure
/// whose detail states `rule`.
fn env_override(
    name: &str,
    default: f64,
    valid: fn(f64) -> bool,
    rule: &str,
) -> Result<f64, String> {
    let Ok(raw) = std::env::var(name) else {
        return Ok(default);
    };
    match raw.trim().parse::<f64>() {
        Ok(v) if valid(v) => Ok(v),
        _ => Err(format!("{name}={raw:?} is invalid: it must be {rule}")),
    }
}

/// One `"speedup"` occurrence: its key path and parsed value (or the
/// offending token).
type LabeledSpeedup = (String, Result<f64, String>);

/// Everything the gate reads out of one bench JSON file: the labelled
/// speedups plus, keyed by the same `/`-joined paths, any `"isa"` strings
/// recording the SIMD level an entry was measured on.
#[derive(Debug, Default)]
struct BenchMetrics {
    speedups: Vec<LabeledSpeedup>,
    isas: BTreeMap<String, String>,
}

impl BenchMetrics {
    /// The recorded ISA for the entry containing the given speedup label
    /// (`a/b/speedup` -> value of `a/b/isa`), if any.
    fn isa_for(&self, speedup_label: &str) -> Option<&str> {
        let prefix = speedup_label.strip_suffix("speedup")?;
        self.isas.get(&format!("{prefix}isa")).map(String::as_str)
    }
}

/// Reads and parses the bench JSON at `path`, then collects its metrics.
/// The error is a one-line description naming the file (and, for a parse
/// failure, the line).
fn read_metrics(path: &str) -> Result<BenchMetrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    collect_metrics(&text).map_err(|e| format!("{path}:{}: not valid JSON: {}", e.line, e.message))
}

/// Parses `text` with the tidy bench parser and collects every `"speedup"`
/// and string-valued `"isa"` member, labelled with its key path.
fn collect_metrics(text: &str) -> Result<BenchMetrics, schema::ParseError> {
    let mut metrics = BenchMetrics::default();
    walk(&schema::parse(text)?, "", &mut metrics);
    Ok(metrics)
}

/// Collects the metrics under `value`, whose key path is `path`.
fn walk(value: &Value, path: &str, metrics: &mut BenchMetrics) {
    let child = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}/{key}")
        }
    };
    match &value.node {
        Node::Object(members) => {
            for (key, member) in members {
                let label = child(key);
                match (key.as_str(), &member.node) {
                    ("speedup", node) => {
                        let value = match node {
                            Node::Raw(token) => match token.parse::<f64>() {
                                Ok(v) if v.is_finite() => Ok(v),
                                _ => Err(token.clone()),
                            },
                            Node::Str(s) => Err(format!("\"{s}\"")),
                            Node::Object(_) => Err("{…}".into()),
                            Node::Array(_) => Err("[…]".into()),
                        };
                        metrics.speedups.push((label, value));
                    }
                    ("isa", Node::Str(isa)) => {
                        metrics.isas.insert(label, isa.clone());
                    }
                    _ => walk(member, &label, metrics),
                }
            }
        }
        Node::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(item, &child(&format!("[{i}]")), metrics);
            }
        }
        Node::Str(_) | Node::Raw(_) => {}
    }
}

/// `--schema-only`: validate the bench JSON against the same schema the
/// `falvolt-tidy` pass enforces (known `"isa"` per timing entry, finite
/// in-range numbers), with no speedup thresholds. Diagnostics use tidy's
/// `file:line: [bench-schema]` shape; failures exit with the gate's typed
/// codes (2 unreadable, 8 schema violation) and machine-readable lines.
fn run_schema_only(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            return fail_now(
                FailureKind::CurrentUnreadable,
                format!("cannot read {path}: {e}"),
            )
        }
    };
    let violations = falvolt_tidy::schema::check_bench_schema(&text);
    if violations.is_empty() {
        println!("bench gate: {path} conforms to the bench schema");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        let prefix = if v.path.is_empty() {
            String::new()
        } else {
            format!("{}: ", v.path)
        };
        eprintln!("{path}:{}: [bench-schema] {prefix}{}", v.line, v.message);
        report(&Failure {
            kind: FailureKind::Schema,
            label: v.path.clone(),
            detail: v.message.clone(),
        });
    }
    eprintln!(
        "bench gate: {} schema violation(s), exiting with code {} ({})",
        violations.len(),
        FailureKind::Schema.code(),
        FailureKind::Schema.kind()
    );
    ExitCode::from(FailureKind::Schema.code())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let schema_only = args.peek().map(String::as_str) == Some("--schema-only");
    if schema_only {
        args.next();
    }
    let path = args
        .next()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").into());
    if schema_only {
        return run_schema_only(&path);
    }
    let baseline_path = args
        .next()
        .or_else(|| std::env::var("BENCH_GATE_BASELINE").ok());
    let threshold = env_override(
        "BENCH_GATE_MIN_SPEEDUP",
        1.0,
        |v| v.is_finite() && v > 0.0,
        "a finite number > 0",
    );
    let max_regression = env_override(
        "BENCH_GATE_MAX_REGRESSION",
        0.10,
        |v| (0.0..1.0).contains(&v),
        "a finite number in [0, 1)",
    );
    let (threshold, max_regression) = match (threshold, max_regression) {
        (Ok(threshold), Ok(max_regression)) => (threshold, max_regression),
        (Err(detail), _) | (_, Err(detail)) => return fail_now(FailureKind::BadConfig, detail),
    };

    let mut failures: Vec<Failure> = Vec::new();
    let metrics = match read_metrics(&path) {
        Ok(metrics) => metrics,
        Err(detail) => {
            let code = fail_now(FailureKind::CurrentUnreadable, detail);
            eprintln!("run `cargo bench -p falvolt-bench --bench kernels` first");
            return code;
        }
    };
    if metrics.speedups.is_empty() {
        return fail_now(
            FailureKind::NoSpeedups,
            format!("{path} records no \"speedup\" entries — bench output is broken"),
        );
    }

    let mut current = BTreeMap::new();
    for (label, entry) in &metrics.speedups {
        match entry {
            Ok(v) => {
                let verdict = if *v >= threshold { "ok" } else { "REGRESSION" };
                println!("{label} = {v:.3} ({verdict})");
                if *v < threshold {
                    failures.push(Failure {
                        kind: FailureKind::BelowThreshold,
                        label: label.clone(),
                        detail: format!("speedup {v:.3} below threshold {threshold}"),
                    });
                }
                current.insert(label.clone(), *v);
            }
            Err(token) => {
                eprintln!("{label} = {token:?} (UNPARSEABLE — broken measurement)");
                failures.push(Failure {
                    kind: FailureKind::UnparseableSpeedup,
                    label: label.clone(),
                    detail: format!("\"speedup\" value {token:?} is not a finite number"),
                });
            }
        }
    }

    if let Some(baseline_path) = baseline_path {
        match read_metrics(&baseline_path) {
            Ok(baseline) => {
                let floor = 1.0 - max_regression;
                for (label, entry) in &baseline.speedups {
                    let Ok(base) = *entry else { continue };
                    // An entry measured on a different SIMD level than the
                    // baseline is not comparable — skip it loudly rather
                    // than flagging a phantom regression (or blessing a
                    // phantom improvement).
                    if let (Some(base_isa), Some(now_isa)) =
                        (baseline.isa_for(label), metrics.isa_for(label))
                    {
                        if base_isa != now_isa {
                            println!(
                                "{label}: skipped — baseline ISA \"{base_isa}\" != current ISA \"{now_isa}\""
                            );
                            continue;
                        }
                    }
                    match current.get(label) {
                        Some(&now) if now >= base * floor => {
                            println!(
                                "{label}: {now:.3} vs baseline {base:.3} (ok, floor {:.3})",
                                base * floor
                            );
                        }
                        Some(&now) => {
                            eprintln!(
                                "{label}: {now:.3} regressed more than {:.0}% below baseline {base:.3}",
                                max_regression * 100.0
                            );
                            failures.push(Failure {
                                kind: FailureKind::BaselineRegression,
                                label: label.clone(),
                                detail: format!(
                                    "{now:.3} below floor {:.3} of baseline {base:.3}",
                                    base * floor
                                ),
                            });
                        }
                        None => {
                            eprintln!(
                                "{label}: recorded in baseline ({base:.3}) but missing from {path}"
                            );
                            failures.push(Failure {
                                kind: FailureKind::BaselineRegression,
                                label: label.clone(),
                                detail: format!(
                                    "recorded in baseline ({base:.3}) but missing from {path}"
                                ),
                            });
                        }
                    }
                }
            }
            Err(detail) => {
                eprintln!("bench gate: baseline: {detail}");
                failures.push(Failure {
                    kind: FailureKind::BaselineUnreadable,
                    label: String::new(),
                    detail: format!("baseline: {detail}"),
                });
            }
        }
    }

    match failures.first() {
        None => {
            println!(
                "bench gate: all {} recorded speedups >= {threshold} (and within {:.0}% of baseline where one was given)",
                metrics.speedups.len(),
                max_regression * 100.0
            );
            ExitCode::SUCCESS
        }
        Some(first) => {
            for failure in &failures {
                report(failure);
            }
            eprintln!(
                "bench gate: {} failure(s), exiting with code {} ({})",
                failures.len(),
                first.kind.code(),
                first.kind.kind()
            );
            ExitCode::from(first.kind.code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{collect_metrics, json_escape, FailureKind};

    #[test]
    fn failure_kinds_have_distinct_stable_exit_codes() {
        let kinds = [
            FailureKind::CurrentUnreadable,
            FailureKind::NoSpeedups,
            FailureKind::UnparseableSpeedup,
            FailureKind::BelowThreshold,
            FailureKind::BaselineUnreadable,
            FailureKind::BaselineRegression,
            FailureKind::Schema,
            FailureKind::BadConfig,
        ];
        let codes: Vec<u8> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes, vec![2, 3, 4, 5, 6, 7, 8, 9]);
        let mut names: Vec<&str> = kinds.iter().map(|k| k.kind()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "kind names must be distinct");
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_control_chars() {
        assert_eq!(json_escape(r#"a "b" c"#), r#"a \"b\" c"#);
        assert_eq!(json_escape(r"path\to"), r"path\\to");
        assert_eq!(json_escape("a\nb\x01"), "a\\nb\\u0001");
    }

    #[test]
    fn extracts_and_labels_all_speedup_values() {
        let json = r#"{ "a": { "speedup": 1.417 }, "b": [ { "speedup": 0.93 }, { "x": 1 } ] }"#;
        let values = collect_metrics(json).unwrap().speedups;
        assert_eq!(values.len(), 2);
        assert_eq!(values[0], ("a/speedup".to_string(), Ok(1.417)));
        assert_eq!(values[1], ("b/[0]/speedup".to_string(), Ok(0.93)));
    }

    #[test]
    fn array_indices_advance_per_element() {
        let json = r#"{ "s": [ { "speedup": 1.0 }, { "speedup": 2.0 }, { "speedup": 3.0 } ] }"#;
        let labels: Vec<String> = collect_metrics(json)
            .unwrap()
            .speedups
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(
            labels,
            vec!["s/[0]/speedup", "s/[1]/speedup", "s/[2]/speedup"]
        );
    }

    #[test]
    fn handles_whitespace_and_exponents() {
        let json = "{ \"x\": { \"speedup\":   2.5e1 } }";
        let values = collect_metrics(json).unwrap().speedups;
        assert_eq!(values[0].1, Ok(25.0));
    }

    #[test]
    fn unparseable_values_are_reported_not_dropped() {
        let json = "{ \"a\": { \"speedup\": inf }, \"b\": { \"speedup\": NaN } }";
        let values = collect_metrics(json).unwrap().speedups;
        assert_eq!(values.len(), 2);
        assert!(values.iter().all(|(_, v)| v.is_err()));
    }

    #[test]
    fn empty_input_yields_no_values() {
        let metrics = collect_metrics("{}").unwrap();
        assert!(metrics.speedups.is_empty());
        assert!(metrics.isas.is_empty());
    }

    #[test]
    fn string_values_with_spaces_do_not_confuse_the_scanner() {
        let json = r#"{ "command": "cargo bench -p x --bench y", "k": { "speedup": 1.2 } }"#;
        let values = collect_metrics(json).unwrap().speedups;
        assert_eq!(values, vec![("k/speedup".to_string(), Ok(1.2))]);
    }

    #[test]
    fn string_valued_members_do_not_leak_their_key_onto_the_next_element() {
        // A stale "note" key must not relabel the next array element.
        let json = r#"{ "arr": [ { "note": "x" }, { "speedup": 1.2 } ] }"#;
        let values = collect_metrics(json).unwrap().speedups;
        assert_eq!(values, vec![("arr/[1]/speedup".to_string(), Ok(1.2))]);
    }

    #[test]
    fn isa_strings_are_captured_per_entry() {
        let json = r#"{
            "a": { "isa": "avx512", "speedup": 1.4 },
            "b": [ { "isa": "avx2", "speedup": 2.0 }, { "speedup": 3.0 } ]
        }"#;
        let metrics = collect_metrics(json).unwrap();
        assert_eq!(metrics.isa_for("a/speedup"), Some("avx512"));
        assert_eq!(metrics.isa_for("b/[0]/speedup"), Some("avx2"));
        assert_eq!(metrics.isa_for("b/[1]/speedup"), None);
    }

    #[test]
    fn isa_lookup_matches_only_the_sibling_entry() {
        // An "isa" on a parent object must not be attributed to a nested
        // entry's speedup.
        let json = r#"{ "outer": { "isa": "avx2", "inner": { "speedup": 1.5 } } }"#;
        let metrics = collect_metrics(json).unwrap();
        assert_eq!(
            metrics.isas.get("outer/isa").map(String::as_str),
            Some("avx2")
        );
        assert_eq!(metrics.isa_for("outer/inner/speedup"), None);
    }

    #[test]
    fn string_valued_speedups_are_unparseable() {
        let json = r#"{ "a": { "speedup": "0.5" }, "b": { "speedup": { "x": 1 } } }"#;
        let values = collect_metrics(json).unwrap().speedups;
        assert_eq!(
            values,
            vec![
                ("a/speedup".to_string(), Err("\"0.5\"".to_string())),
                ("b/speedup".to_string(), Err("{…}".to_string())),
            ]
        );
    }

    #[test]
    fn truncated_json_is_a_parse_error() {
        let json = "{\n  \"a\": { \"speedup\": 1.2 },\n  \"b\": { \"speedup\"";
        let err = collect_metrics(json).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn a_repeated_key_is_a_parse_error() {
        // One entry must never carry two speedups for the gate to pick from.
        let json = "{ \"a\": {\n \"speedup\": 0.5,\n \"speedup\": 9.0 } }";
        let err = collect_metrics(json).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("speedup"), "{}", err.message);
    }
}
