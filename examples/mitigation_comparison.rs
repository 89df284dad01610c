//! Mitigation comparison: FaP vs FaPIT vs FalVolt (the paper's Figures 6-8),
//! expressed as declarative campaign plans — the strategy axis is data, and
//! the three strategies of one fault rate retrain against the same pooled
//! chip.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example mitigation_comparison
//! ```

use falvolt::campaign::{Axis, Campaign};
use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt::mitigation::MitigationStrategy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Fault mitigation comparison (Figures 6, 7, 8) ==");
    let scale = ExperimentScale::Tiny;
    let mut ctx = ExperimentContext::prepare(DatasetKind::Mnist, scale, 42)?;
    println!(
        "baseline accuracy on {}: {:.1}%",
        ctx.kind().label(),
        ctx.baseline_accuracy() * 100.0
    );

    // Figure 7 (and 6): accuracy of each strategy at several fault rates,
    // plus the per-layer thresholds FalVolt learns.
    let epochs = scale.retrain_epochs();
    let run = Campaign::new(&mut ctx)
        .axis(Axis::FaultRate(vec![0.10, 0.30]))
        .axis(Axis::Mitigation(vec![
            MitigationStrategy::FaP,
            MitigationStrategy::fapit(epochs),
            MitigationStrategy::falvolt(epochs),
        ]))
        .run()?;
    println!("\n-- Figure 7: accuracy after mitigation --");
    println!("  fault rate | strategy | accuracy");
    for cell in &run {
        let outcome = cell.outcome().expect("retraining cell");
        println!(
            "  {:>9.0}% | {:<8} | {:>5.1}%",
            cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
            outcome.strategy,
            cell.accuracy * 100.0
        );
    }
    println!("\n-- Figure 6: per-layer thresholds learned by FalVolt --");
    for cell in &run {
        let outcome = cell.outcome().expect("retraining cell");
        if outcome.strategy != "FalVolt" {
            continue;
        }
        println!(
            "  fault rate {:.0}%:",
            cell.spec.fault_rate.unwrap_or(0.0) * 100.0
        );
        for (layer, v) in &outcome.thresholds {
            println!("    {layer:12} V = {v:.3}");
        }
    }

    // Figure 8: convergence speed of FaPIT vs FalVolt at 30% faulty PEs.
    let convergence = Campaign::new(&mut ctx)
        .axis(Axis::FaultRate(vec![0.30]))
        .axis(Axis::Mitigation(vec![
            MitigationStrategy::fapit(epochs),
            MitigationStrategy::falvolt(epochs),
        ]))
        .track_history(true)
        .run()?;
    let fapit = &convergence.cells()[0]
        .outcome()
        .expect("FaPIT cell")
        .history;
    let falvolt = &convergence.cells()[1]
        .outcome()
        .expect("FalVolt cell")
        .history;
    println!("\n-- Figure 8: accuracy vs retraining epochs (30% faulty PEs) --");
    println!("  epoch |  FaPIT  | FalVolt");
    for (fa, fv) in fapit.iter().zip(falvolt) {
        println!(
            "  {:>5} | {:>6.1}% | {:>6.1}%",
            fa.epoch,
            fa.test_accuracy * 100.0,
            fv.test_accuracy * 100.0
        );
    }
    let target = convergence.baseline_accuracy() * 0.95;
    println!(
        "  epochs to reach 95% of baseline: FaPIT {:?}, FalVolt {:?}",
        falvolt::mitigation::epochs_to_reach(fapit, target),
        falvolt::mitigation::epochs_to_reach(falvolt, target)
    );
    Ok(())
}
