//! `reproduce` argument handling: a bad command line exits 2 with the usage
//! on stderr, before any dataset is generated or any network trained.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

fn assert_rejected_before_training(args: &[&str]) {
    let out = reproduce(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(
        !stdout.contains("preparing dataset"),
        "{args:?} started an experiment: {stdout}"
    );
    assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
}

#[test]
fn unknown_figure_is_rejected() {
    assert_rejected_before_training(&["--fig", "nonsense"]);
}

#[test]
fn unknown_dataset_and_scale_are_rejected() {
    assert_rejected_before_training(&["--fig", "5b", "--dataset", "cifar"]);
    assert_rejected_before_training(&["--fig", "5b", "--scale", "huge"]);
}

#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    assert_rejected_before_training(&["--figure", "5b"]);
    assert_rejected_before_training(&["--fig"]);
    assert_rejected_before_training(&["5b"]);
}
