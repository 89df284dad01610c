//! Chaos-injection suite (compiled under `--features chaos` only): drive
//! campaigns with deterministic seed-driven panics, errors and stragglers
//! and assert the resilience contract — zero process aborts, injected cells
//! come back `Failed` (or recover under retry), and every untouched cell is
//! bit-identical to a chaos-free run.
#![cfg(feature = "chaos")]

use falvolt::campaign::{Axis, Campaign, CellStatus, RetryPolicy};
use falvolt::chaos::{ChaosAction, ChaosPlan};
use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

fn ctx() -> &'static Mutex<ExperimentContext> {
    static CTX: OnceLock<Mutex<ExperimentContext>> = OnceLock::new();
    CTX.get_or_init(|| {
        Mutex::new(
            ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Tiny, 42)
                .expect("chaos context must prepare"),
        )
    })
}

fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    struct ClearOverride;
    impl Drop for ClearOverride {
        fn drop(&mut self) {
            rayon::set_thread_count_override(0);
        }
    }
    let _guard = ClearOverride;
    rayon::set_thread_count_override(workers);
    f()
}

fn plan(ctx: &mut ExperimentContext, seed: u64) -> Campaign<'_> {
    Campaign::new(ctx)
        .axis(Axis::FaultyPes(vec![0, 2, 4, 6, 8, 12]))
        .scenarios_per_cell(2)
        .seed(seed)
}

const MAX_ATTEMPTS: usize = 2;

/// `true` when the chaos plan makes the given attempt at `cell` fail
/// (panic or error — a Slow action only delays).
fn attempt_fails(chaos: &ChaosPlan, cell: usize, attempt: usize) -> bool {
    matches!(
        chaos.action(cell, attempt),
        ChaosAction::Panic | ChaosAction::Error
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn chaos_disturbs_exactly_the_injected_cells(
        seed in 0u64..500,
        heavy in prop_oneof![Just(false), Just(true)],
        workers in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        // The ISSUE's two operating points: a 5% and a 25% injection rate,
        // split between panics and typed errors.
        let rate = if heavy { 0.25 } else { 0.05 };
        let chaos = ChaosPlan::new(seed).panic_rate(rate / 2.0).error_rate(rate / 2.0);
        let mut guard = ctx().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let ctx = &mut *guard;
        with_workers(workers, || {
            let clean = plan(ctx, seed).run().unwrap();
            let run = plan(ctx, seed)
                .chaos(chaos)
                .retry(RetryPolicy::attempts(MAX_ATTEMPTS).backoff(Duration::ZERO, Duration::ZERO))
                .run()
                .unwrap();
            assert_eq!(run.len(), clean.len());
            for (cell, (hit, miss)) in run.cells().iter().zip(clean.cells()).enumerate() {
                let doomed = (1..=MAX_ATTEMPTS).all(|a| attempt_fails(&chaos, cell, a));
                if doomed {
                    assert!(
                        hit.status.is_failed(),
                        "cell {cell} was injected on every attempt and must fail"
                    );
                    assert_eq!(hit.accuracy, 0.0);
                    assert_eq!(hit.scenarios, 0);
                    if let CellStatus::Failed { attempts, .. } = &hit.status {
                        assert_eq!(*attempts, MAX_ATTEMPTS);
                    }
                } else {
                    // Some attempt ran clean: the cell must be bit-identical
                    // to the chaos-free run, caches quarantined or not.
                    assert_eq!(
                        hit, miss,
                        "cell {cell} was not (terminally) injected and must match the clean run"
                    );
                }
            }
        });
    }
}

#[test]
fn panic_only_chaos_cannot_abort_the_process() {
    // A high panic rate across both worker pools: every panic must be
    // caught, quarantined and recorded — the process lives, the table is
    // full-length.
    let chaos = ChaosPlan::new(99).panic_rate(0.8);
    let mut guard = ctx()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let ctx = &mut *guard;
    let run = plan(ctx, 99).chaos(chaos).run().unwrap();
    assert_eq!(run.len(), 6);
    assert_eq!(run.completed() + run.failed(), 6);
    for (cell, result) in run.cells().iter().enumerate() {
        let injected = attempt_fails(&chaos, cell, 1);
        assert_eq!(result.status.is_failed(), injected);
        if let CellStatus::Failed { cause, .. } = &result.status {
            assert!(cause.message().starts_with("falvolt-chaos:"));
        }
    }
    // The context is still usable after heavy quarantine: a clean follow-up
    // run completes every cell.
    let after = plan(ctx, 99).run().unwrap();
    assert_eq!(after.completed(), 6);
}

#[test]
fn stragglers_meet_deadlines_without_failing_cells() {
    // Slow workers + a tight deadline: cells either complete or are skipped
    // by the deadline — a straggler must never be misreported as failed.
    let chaos = ChaosPlan::new(5).slow(1.0, Duration::from_millis(30));
    let mut guard = ctx()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let ctx = &mut *guard;
    let run = plan(ctx, 5)
        .chaos(chaos)
        .checkpoint_every(1)
        .deadline(Duration::from_millis(40))
        .run()
        .unwrap();
    assert_eq!(run.len(), 6);
    assert_eq!(run.failed(), 0);
    assert!(
        run.skipped() > 0,
        "a 30ms straggler per 1-cell wave must blow a 40ms deadline"
    );
}
