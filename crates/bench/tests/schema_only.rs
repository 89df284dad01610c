//! `bench_gate` end-to-end: `--schema-only` enforces the same schema as the
//! tidy pass, the normal mode gates speedups against a baseline, and every
//! failure class exits with its typed code.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn gate(args: &[&str]) -> Output {
    gate_with_env(args, &[])
}

/// Runs the gate with the given overrides set and any inherited ones
/// removed, so the caller's environment cannot change the verdict.
fn gate_with_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_gate"));
    for var in [
        "BENCH_GATE_BASELINE",
        "BENCH_GATE_MIN_SPEEDUP",
        "BENCH_GATE_MAX_REGRESSION",
    ] {
        cmd.env_remove(var);
    }
    cmd.args(args)
        .envs(env.iter().copied())
        .output()
        .expect("bench_gate runs")
}

fn committed() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
}

/// Writes `text` to a per-test file under the cargo test scratch directory.
fn scratch_file(name: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scratch bench file");
    path
}

/// The committed file with every `"speedup"` value halved.
fn halved_copy() -> String {
    let text = std::fs::read_to_string(committed()).expect("committed BENCH_kernels.json");
    text.lines()
        .map(|line| match line.split_once("\"speedup\": ") {
            Some((head, tail)) => {
                let digits = tail.trim_end_matches(',');
                let value: f64 = digits.parse().expect("committed speedups are numbers");
                format!(
                    "{head}\"speedup\": {}{}",
                    value / 2.0,
                    &tail[digits.len()..]
                )
            }
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn committed_bench_json_conforms() {
    let out = gate(&["--schema-only"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("conforms to the bench schema"));
}

#[test]
fn schema_violations_exit_8_with_file_line_diagnostics() {
    // The tidy violations fixture doubles as the bad-JSON input, so the two
    // gates are proven against the same file.
    let bad = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../tidy/fixtures/violations/BENCH_kernels.json");
    let out = gate(&["--schema-only", bad.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(8), "schema violations exit 8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is utf8");
    assert!(
        stderr.contains(":3: [bench-schema] bad_isa/isa: unknown ISA \"avx1024\""),
        "diagnostics carry file:line: {stderr}"
    );
    assert!(
        stderr.contains("bench-gate-failure: {\"kind\": \"schema-violation\""),
        "machine-readable lines ride along: {stderr}"
    );
    assert!(stderr.contains("3 schema violation(s)"));
}

#[test]
fn unreadable_file_exits_2_in_schema_mode() {
    let out = gate(&["--schema-only", "/nonexistent/BENCH_kernels.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("current-unreadable"));
}

#[test]
fn committed_bench_json_passes_against_itself() {
    let path = committed();
    let out = gate(&[&path, &path]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf8");
    assert!(stdout.contains("matmul_512x512x512/speedup = "));
    assert!(stdout.contains("sparse_matmul_1024x512x64/[2]/speedup: "));
}

#[test]
fn a_halved_copy_regresses_against_the_committed_file() {
    let halved = scratch_file("halved_BENCH_kernels.json", &halved_copy());
    // Lower the absolute floor so the baseline comparison is what trips.
    let out = gate_with_env(
        &[halved.to_str().expect("utf8 path"), &committed()],
        &[("BENCH_GATE_MIN_SPEEDUP", "0.01")],
    );
    assert_eq!(out.status.code(), Some(7), "halved speedups exit 7");
    assert!(String::from_utf8_lossy(&out.stderr).contains("baseline-regression"));
}

#[test]
fn an_out_of_range_override_exits_9_instead_of_loosening_the_floor() {
    let halved = scratch_file("halved_bad_config.json", &halved_copy());
    for (var, value) in [
        ("BENCH_GATE_MAX_REGRESSION", "2"),
        ("BENCH_GATE_MAX_REGRESSION", "-0.1"),
        ("BENCH_GATE_MIN_SPEEDUP", "fast"),
        ("BENCH_GATE_MIN_SPEEDUP", "0"),
    ] {
        let out = gate_with_env(
            &[halved.to_str().expect("utf8 path"), &committed()],
            &[(var, value)],
        );
        assert_eq!(out.status.code(), Some(9), "{var}={value} exits 9");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("\"kind\": \"bad-config\""), "{stderr}");
        assert!(stderr.contains(var), "the failure names {var}: {stderr}");
    }
}

#[test]
fn truncated_json_exits_2() {
    let text = std::fs::read_to_string(committed()).expect("committed BENCH_kernels.json");
    let truncated = scratch_file("truncated_BENCH_kernels.json", &text[..text.len() / 2]);
    let out = gate(&[truncated.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2), "truncated JSON exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not valid JSON"), "{stderr}");
    assert!(stderr.contains("current-unreadable"), "{stderr}");
}
