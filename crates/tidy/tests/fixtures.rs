//! End-to-end fixture tests: the `falvolt-tidy` binary against committed
//! trees under `crates/tidy/fixtures/` — one with a known violation per
//! lint class, one clean, one with an unparseable baseline — asserting the
//! exact `file:line: [lint]` diagnostics and the typed exit codes.

use std::path::Path;
use std::process::{Command, Output};

fn run_on(fixture: &str) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    Command::new(env!("CARGO_BIN_EXE_falvolt-tidy"))
        .arg(&root)
        .output()
        .expect("falvolt-tidy runs")
}

#[test]
fn violations_tree_fails_with_exact_file_line_diagnostics() {
    let out = run_on("violations");
    assert_eq!(out.status.code(), Some(1), "violations exit code 1");
    let stderr = String::from_utf8(out.stderr).expect("stderr is utf8");
    let mut lines: Vec<&str> = stderr.lines().collect();
    let summary = lines.pop().expect("summary line");
    assert!(
        summary.contains("17 violation(s)"),
        "summary counts every diagnostic: {summary}"
    );

    // One entry per expected diagnostic, in the pass's sorted output order:
    // the `file:line: [lint]` head is asserted exactly for all of them.
    let expected = [
        "BENCH_kernels.json:3: [bench-schema]",
        "BENCH_kernels.json:4: [bench-schema]",
        "BENCH_kernels.json:5: [bench-schema]",
        "crates/tidy/baseline.toml:1: [ratchet]",
        "src/lib.rs:1: [unsafe-header]",
        "src/panics.rs:4: [no-panic]",
        "src/panics.rs:5: [no-panic]",
        "src/panics.rs:7: [no-panic]",
        "tests/attrs.rs:3: [target-feature]",
        "tests/attrs.rs:6: [allow-unsafe]",
        "tests/attrs.rs:9: [allow-deprecated]",
        "tests/locks.rs:10: [raw-lock]",
        "tests/locks.rs:20: [waiver]",
        "tests/locks.rs:21: [raw-lock]",
        "tests/locks.rs:6: [raw-lock]",
        "tests/unsafe_use.rs:4: [unsafe-safety]",
        "tests/unsafe_use.rs:4: [unsafe-sites]",
    ];
    let got: Vec<&str> = lines
        .iter()
        .map(|l| {
            let end = l.find(']').map(|i| i + 1).unwrap_or(l.len());
            &l[..end]
        })
        .collect();
    assert_eq!(got, expected, "full diagnostic list:\n{stderr}");

    // Spot-check full messages: the fix guidance rides along.
    assert!(stderr.contains(
        "tests/locks.rs:6: [raw-lock] .lock().unwrap(…) bypasses poison recovery — \
         use the type's guard() accessor"
    ));
    assert!(stderr.contains(
        "crates/tidy/baseline.toml:1: [ratchet] stale [no-panic] entry: \"src/stale.rs\" \
         counts 0 but the baseline allows 2 — ratchet it down"
    ));
    assert!(stderr.contains("unknown ISA \"avx1024\""));
    assert!(stderr.contains(
        "src/panics.rs:4: [no-panic] .unwrap(…) in library code — file has 3, \
         the [no-panic] baseline allows 0"
    ));
}

#[test]
fn clean_tree_exits_zero_and_reports_counts() {
    let out = run_on("clean");
    assert_eq!(out.status.code(), Some(0), "clean exit code 0");
    assert!(out.stderr.is_empty(), "no diagnostics on a clean tree");
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf8");
    assert!(
        stdout.contains("1 files clean"),
        "clean summary names the file count: {stdout}"
    );
}

#[test]
fn broken_baseline_is_a_pass_error_not_a_violation() {
    let out = run_on("broken");
    assert_eq!(out.status.code(), Some(2), "pass errors exit 2");
    let stderr = String::from_utf8(out.stderr).expect("stderr is utf8");
    assert!(
        stderr.contains("quoted"),
        "the baseline parse error surfaces with its reason: {stderr}"
    );
}

#[test]
fn list_prints_the_full_catalog() {
    let out = Command::new(env!("CARGO_BIN_EXE_falvolt-tidy"))
        .arg("--list")
        .output()
        .expect("falvolt-tidy runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf8");
    assert_eq!(
        stdout.lines().count(),
        falvolt_tidy::lints::LINTS.len(),
        "one catalog line per registered lint"
    );
    assert!(stdout.contains("raw-lock"));
    assert!(stdout.contains("bench-schema"));
}
