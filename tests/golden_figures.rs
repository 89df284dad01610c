//! Golden figures: every paper figure's [`Campaign`] plan, run at a small
//! size on one trained Tiny MNIST context, must reproduce the committed
//! final checkpoint in `tests/golden/<fig>.json` **byte for byte**. One
//! Fig-5b plan also runs on a Tiny N-MNIST and a Tiny DVS-Gesture context,
//! to pin the temporal path on both neuromorphic datasets.
//!
//! The checkpoint JSON stores every accuracy, learned threshold and
//! per-epoch history entry as IEEE-754 bit hex, so a byte-equal file means
//! bit-identical figure data. The plans use the same axes and
//! `campaign::mixers` seed formulas as the `reproduce` binary.
//!
//! Each test makes two checks:
//!
//! * with the kernel dispatcher pinned to scalar, at 1 worker, the JSON
//!   equals the golden file (scalar is the portable numerical reference —
//!   the SIMD float kernels fuse multiply-add, so retraining bits differ
//!   across ISAs);
//! * with the dispatcher free (whatever ISA the CPU and `FALVOLT_SIMD`
//!   select), the JSON at 1 worker equals the JSON at 4 workers.
//!
//! On a golden mismatch the actual JSON is written to
//! `$CARGO_TARGET_TMPDIR/golden/<fig>.json` and the failure message prints
//! the `cp` command that regenerates the committed file. Regenerate only
//! when a change to the paper semantics (a mixer, an axis, the retraining
//! schedule) is intended, and say so in the change log.

use falvolt::campaign::{mixers, Axis, Campaign, CampaignCheckpoint};
use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt::mitigation::MitigationStrategy;
use falvolt_systolic::StuckAt;
use falvolt_tensor::simd::{self, Isa};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// One shared trained context per dataset, prepared under scalar kernels
/// so the baseline the goldens build on is ISA-independent. The mutex
/// serialises the figures: campaigns borrow the context mutably, and the
/// SIMD and worker-count overrides below are process-global.
fn ctx(kind: DatasetKind) -> &'static Mutex<ExperimentContext> {
    static MNIST: OnceLock<Mutex<ExperimentContext>> = OnceLock::new();
    static NMNIST: OnceLock<Mutex<ExperimentContext>> = OnceLock::new();
    static DVS: OnceLock<Mutex<ExperimentContext>> = OnceLock::new();
    let cell = match kind {
        DatasetKind::Mnist => &MNIST,
        DatasetKind::NMnist => &NMNIST,
        DatasetKind::DvsGesture => &DVS,
    };
    cell.get_or_init(|| {
        let _scalar = simd::force(Some(Isa::Scalar));
        Mutex::new(
            ExperimentContext::prepare(kind, ExperimentScale::Tiny, 42)
                .expect("golden context must prepare"),
        )
    })
}

/// Runs `f` under a fixed rayon worker count (cleared on drop, even on
/// panic).
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

/// Runs `plan` on `ctx` and returns the final checkpoint's JSON.
fn checkpoint_json(ctx: &mut ExperimentContext, plan: fn(Campaign<'_>) -> Campaign<'_>) -> String {
    let last: Arc<Mutex<Option<CampaignCheckpoint>>> = Arc::default();
    let sink = Arc::clone(&last);
    plan(Campaign::new(ctx))
        .checkpoint_sink(move |cp| {
            *sink
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(cp.clone());
        })
        .run()
        .expect("golden campaign must run");
    let checkpoint = last
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
        .expect("the run emits a checkpoint");
    assert!(checkpoint.is_complete(), "every golden cell must complete");
    checkpoint.to_json()
}

/// The two checks every figure makes (see the module docs), on the Tiny
/// MNIST context.
fn check_figure(name: &str, plan: fn(Campaign<'_>) -> Campaign<'_>) {
    check_figure_on(DatasetKind::Mnist, name, plan);
}

/// [`check_figure`] on the Tiny context of `kind`.
fn check_figure_on(kind: DatasetKind, name: &str, plan: fn(Campaign<'_>) -> Campaign<'_>) {
    let _simd = simd::test_override_lock();
    let mut ctx = ctx(kind)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let scalar = {
        let _scalar = simd::force(Some(Isa::Scalar));
        with_workers(1, || checkpoint_json(&mut ctx, plan))
    };
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"));
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if scalar != golden {
        let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&out_dir).expect("create golden output dir");
        let actual_path = out_dir.join(format!("{name}.json"));
        std::fs::write(&actual_path, &scalar).expect("write actual golden output");
        panic!(
            "{name}: campaign output differs from {}\n\
             actual output written to {}\n\
             if the change is intended, regenerate with:\n  cp {} {}",
            golden_path.display(),
            actual_path.display(),
            actual_path.display(),
            golden_path.display(),
        );
    }

    // When dispatch already resolves to scalar (FALVOLT_SIMD=scalar, or a
    // CPU without SIMD), the 1-worker run is the golden run just made.
    let one = if simd::active() == Isa::Scalar {
        scalar
    } else {
        with_workers(1, || checkpoint_json(&mut ctx, plan))
    };
    let four = with_workers(4, || checkpoint_json(&mut ctx, plan));
    assert_eq!(
        one,
        four,
        "{name}: {} dispatch output differs between 1 and 4 workers",
        simd::active().name()
    );
}

/// Fig 2: fixed-threshold retraining.
#[test]
fn fig2_matches_golden() {
    check_figure("fig2", |c| {
        c.axis(Axis::FaultRate(vec![0.35]))
            .axis(Axis::Threshold(vec![0.6, 1.0]))
            .retrain_epochs(2)
            .seed_mixer(mixers::per_fault_rate)
    });
}

/// Fig 5a: accuracy vs fault bit position, both polarities.
#[test]
fn fig5a_matches_golden() {
    check_figure("fig5a", |c| {
        let vuln = ExperimentScale::Tiny.vulnerability_config();
        c.axis(Axis::Polarity(StuckAt::ALL.to_vec()))
            .axis(Axis::BitPosition(vec![0, 15]))
            .axis(Axis::FaultyPes(vec![8]))
            .scenarios_per_cell(vuln.iterations)
            .seed(vuln.seed)
            .seed_mixer(mixers::per_bit)
    });
}

/// Fig 5b: accuracy vs number of faulty PEs.
#[test]
fn fig5b_matches_golden() {
    check_figure("fig5b", |c| {
        let vuln = ExperimentScale::Tiny.vulnerability_config();
        c.axis(Axis::FaultyPes(vec![0, 32]))
            .scenarios_per_cell(vuln.iterations)
            .seed(vuln.seed)
            .seed_mixer(mixers::per_faulty_pe_count)
    });
}

/// Fig 5c: accuracy vs systolic-array size at a fixed faulty-PE count.
#[test]
fn fig5c_matches_golden() {
    check_figure("fig5c", |c| {
        let vuln = ExperimentScale::Tiny.vulnerability_config();
        c.axis(Axis::ArraySize(vec![4, 16]))
            .axis(Axis::FaultyPes(vec![4]))
            .scenarios_per_cell(vuln.iterations)
            .seed(vuln.seed)
            .seed_mixer(mixers::per_array_size)
    });
}

/// The Fig-5b plan the neuromorphic goldens share.
fn fig5b_temporal(c: Campaign<'_>) -> Campaign<'_> {
    let vuln = ExperimentScale::Tiny.vulnerability_config();
    c.axis(Axis::FaultyPes(vec![0, 8, 32]))
        .scenarios_per_cell(2)
        .seed(vuln.seed)
        .seed_mixer(mixers::per_faulty_pe_count)
}

/// Fig 5b on DVS-Gesture: the temporal path, where every forward step
/// carries membrane state, so the prefix cache is bypassed and only the
/// lowered store and the systolic product stores share work.
#[test]
fn fig5b_dvs_matches_golden() {
    check_figure_on(DatasetKind::DvsGesture, "fig5b_dvs", fig5b_temporal);
}

/// Fig 5b on N-MNIST: the temporal path on saccade events, with the same
/// plan as `fig5b_dvs`.
#[test]
fn fig5b_nmnist_matches_golden() {
    check_figure_on(DatasetKind::NMnist, "fig5b_nmnist", fig5b_temporal);
}

/// Figs 6 and 7: FaP / FaPIT / FalVolt at one fault rate; the FalVolt
/// outcome carries the learned per-layer thresholds Fig 6 plots.
#[test]
fn fig7_matches_golden() {
    check_figure("fig7", |c| {
        c.axis(Axis::FaultRate(vec![0.30]))
            .axis(Axis::Mitigation(vec![
                MitigationStrategy::FaP,
                MitigationStrategy::fapit(2),
                MitigationStrategy::falvolt(2),
            ]))
            .seed_mixer(mixers::per_fault_rate_rotated)
    });
}

/// Fig 8: per-epoch FaPIT and FalVolt histories on one chip.
#[test]
fn fig8_matches_golden() {
    check_figure("fig8", |c| {
        c.axis(Axis::FaultRate(vec![0.30]))
            .axis(Axis::Mitigation(vec![
                MitigationStrategy::fapit(2),
                MitigationStrategy::falvolt(2),
            ]))
            .seed_mixer(mixers::convergence)
    });
}
