//! The paper's evaluation figures, each defined once: its [`Campaign`]
//! plan and the text table it reports.
//!
//! The `reproduce` binary and the figure benches run these plans and print
//! these reports, so a bench prints exactly the table of
//! `reproduce --fig X`. `tests/golden_figures.rs` pins the same mixers and
//! the same Figure 5 seed on smaller axes.
//!
//! # Example
//!
//! ```no_run
//! use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
//! use falvolt::figures::Figure;
//!
//! # fn main() -> Result<(), falvolt::FalvoltError> {
//! let mut ctx = ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Tiny, 42)?;
//! for &figure in Figure::select("5b").unwrap_or_default() {
//!     let run = figure.plan(&mut ctx).run()?;
//!     print!("{}", figure.report(&run));
//! }
//! # Ok(())
//! # }
//! ```

use crate::campaign::{mixers, Axis, Campaign, CampaignRun, CellResult, CellStatus};
use crate::experiment::ExperimentContext;
use crate::mitigation::{epochs_to_reach, MitigationStrategy};
use falvolt_systolic::StuckAt;

/// The base seed the Figure 5 sweeps draw their fault maps from (the other
/// figures draw from the context seed).
pub const FIG5_SEED: u64 = 0xFA11;

/// One figure of the paper's evaluation. Figures 6 and 7 read one
/// campaign: Fig 7 its accuracies, Fig 6 the thresholds FalVolt learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig 2: retraining accuracy at fixed threshold voltages.
    Fig2,
    /// Fig 5a: accuracy vs stuck-at bit position, both polarities.
    Fig5a,
    /// Fig 5b: accuracy vs number of faulty PEs.
    Fig5b,
    /// Fig 5c: accuracy vs systolic-array size at a fixed fault count.
    Fig5c,
    /// Figs 6 and 7: FaP / FaPIT / FalVolt accuracy and the learned
    /// per-layer thresholds.
    Fig6And7,
    /// Fig 8: accuracy vs retraining epochs for FaPIT and FalVolt.
    Fig8,
}

impl Figure {
    /// Every plan once, in the order `reproduce --fig all` runs them.
    pub const ALL: [Figure; 6] = [
        Figure::Fig2,
        Figure::Fig5a,
        Figure::Fig5b,
        Figure::Fig5c,
        Figure::Fig6And7,
        Figure::Fig8,
    ];

    /// The figures a `reproduce --fig` name selects: `all`, `2`, `5a`,
    /// `5b`, `5c`, `6`, `7` or `8` (`6` and `7` select the same plan).
    /// `None` for any other name.
    pub fn select(name: &str) -> Option<&'static [Figure]> {
        Some(match name {
            "all" => &Figure::ALL,
            "2" => &[Figure::Fig2],
            "5a" => &[Figure::Fig5a],
            "5b" => &[Figure::Fig5b],
            "5c" => &[Figure::Fig5c],
            "6" | "7" => &[Figure::Fig6And7],
            "8" => &[Figure::Fig8],
            _ => return None,
        })
    }

    /// The figure's campaign plan on `ctx`. Retraining epochs and fault
    /// maps per point come from the context's scale; each plan installs its
    /// figure's seed mixer from [`mixers`]. Only the Fig 8 plan asks for
    /// per-epoch history ([`Campaign::track_history`]), the one output
    /// that costs a test-set evaluation per retraining epoch.
    pub fn plan(self, ctx: &mut ExperimentContext) -> Campaign<'_> {
        let scale = ctx.scale();
        let epochs = scale.retrain_epochs();
        let maps = scale.fault_maps_per_point();
        let msb = ctx.systolic_config().accumulator_format().msb();
        let campaign = Campaign::new(ctx);
        match self {
            Figure::Fig2 => campaign
                .axis(Axis::FaultRate(vec![0.30, 0.60]))
                .axis(Axis::Threshold(vec![0.45, 0.55, 0.7, 1.0]))
                .retrain_epochs(epochs)
                .seed_mixer(mixers::per_fault_rate),
            Figure::Fig5a => campaign
                .axis(Axis::Polarity(StuckAt::ALL.to_vec()))
                .axis(Axis::BitPosition(vec![0, 2, 4, 6, 8, 10, 12, 14, msb]))
                .axis(Axis::FaultyPes(vec![8]))
                .scenarios_per_cell(maps)
                .seed(FIG5_SEED)
                .seed_mixer(mixers::per_bit),
            Figure::Fig5b => campaign
                .axis(Axis::FaultyPes(vec![0, 4, 8, 16, 32, 48, 64]))
                .scenarios_per_cell(maps)
                .seed(FIG5_SEED)
                .seed_mixer(mixers::per_faulty_pe_count),
            Figure::Fig5c => campaign
                .axis(Axis::ArraySize(vec![4, 8, 16, 32]))
                .axis(Axis::FaultyPes(vec![4]))
                .scenarios_per_cell(maps)
                .seed(FIG5_SEED)
                .seed_mixer(mixers::per_array_size),
            Figure::Fig6And7 => campaign
                .axis(Axis::FaultRate(vec![0.10, 0.30, 0.60]))
                .axis(Axis::Mitigation(vec![
                    MitigationStrategy::FaP,
                    MitigationStrategy::fapit(epochs),
                    MitigationStrategy::falvolt(epochs),
                ]))
                .seed_mixer(mixers::per_fault_rate_rotated),
            Figure::Fig8 => campaign
                .axis(Axis::FaultRate(vec![0.30]))
                .axis(Axis::Mitigation(vec![
                    MitigationStrategy::fapit(epochs),
                    MitigationStrategy::falvolt(epochs),
                ]))
                .track_history(true)
                .seed_mixer(mixers::convergence),
        }
    }

    /// The figure's text table for a run of its [`Figure::plan`], heading
    /// included, one `\n` after every line. A cell that did not complete
    /// shows its status: in place of its accuracy in the Fig 2 and Fig 7
    /// rows, on a line of its own below the other figures.
    pub fn report(self, run: &CampaignRun) -> String {
        let heading = match self {
            Figure::Fig2 => "Figure 2: fixed-threshold retraining sweep",
            Figure::Fig5a => "Figure 5a: accuracy vs fault bit location",
            Figure::Fig5b => "Figure 5b: accuracy vs number of faulty PEs",
            Figure::Fig5c => "Figure 5c: accuracy vs systolic-array size",
            Figure::Fig6And7 => "Figures 6 & 7: mitigation comparison (FaP / FaPIT / FalVolt)",
            Figure::Fig8 => "Figure 8: accuracy vs retraining epochs (30% faulty PEs)",
        };
        let mut lines = vec![String::new(), format!("--- {heading} ---")];
        match self {
            Figure::Fig2 => {
                lines.push("  threshold | fault rate | accuracy".into());
                for cell in run {
                    lines.push(format!(
                        "  {:>9.2} | {:>9.0}% | {:>6}",
                        cell.spec.threshold.unwrap_or(0.0),
                        cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
                        accuracy_or_status(cell)
                    ));
                }
            }
            Figure::Fig5a => series_lines(&mut lines, run, "bit", "Figure 5a", "bit"),
            Figure::Fig5b => series_lines(&mut lines, run, "faulty_pes", "Figure 5b", "faulty PEs"),
            Figure::Fig5c => series_lines(&mut lines, run, "array_size", "Figure 5c", "array side"),
            Figure::Fig6And7 => mitigation_lines(&mut lines, run),
            Figure::Fig8 => convergence_lines(&mut lines, run),
        }
        if !matches!(self, Figure::Fig2 | Figure::Fig6And7) {
            for cell in run.cells().iter().filter(|c| !c.status.is_completed()) {
                let coords: Vec<String> = cell
                    .coords()
                    .iter()
                    .map(|c| format!("{}={}", c.axis, c.value))
                    .collect();
                lines.push(format!(
                    "  {}: {}",
                    coords.join(", "),
                    status_text(&cell.status)
                ));
            }
        }
        let mut text = lines.join("\n");
        text.push('\n');
        text
    }
}

/// A Figure 5 sweep: one aligned two-column table per series over
/// `x_axis` (an unfinished cell's point reads 0%).
fn series_lines(
    lines: &mut Vec<String>,
    run: &CampaignRun,
    x_axis: &str,
    title: &str,
    x_label: &str,
) {
    for series in run.mean_series(x_axis) {
        lines.push(format!("{title} [{}]", series.label));
        lines.push(format!("  {x_label:>12} | accuracy"));
        for point in &series.points {
            lines.push(format!(
                "  {:>12} | {:>6.1}%",
                point.x,
                point.accuracy * 100.0
            ));
        }
    }
}

/// Figs 6 and 7: one accuracy row per (fault rate, strategy) cell, then
/// the thresholds every FalVolt cell learned.
fn mitigation_lines(lines: &mut Vec<String>, run: &CampaignRun) {
    lines.push("  fault rate | strategy | accuracy".into());
    for cell in run {
        lines.push(format!(
            "  {:>9.0}% | {:<8} | {:>6}",
            cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
            cell.spec.strategy.map_or("", |s| s.label()),
            accuracy_or_status(cell)
        ));
    }
    lines.push(String::new());
    lines.push("  per-layer thresholds learned by FalVolt (Figure 6):".into());
    for cell in run {
        let Some(outcome) = cell.outcome().filter(|o| o.strategy == "FalVolt") else {
            continue;
        };
        let thresholds: Vec<String> = outcome
            .thresholds
            .iter()
            .map(|(name, v)| format!("{name}={v:.2}"))
            .collect();
        lines.push(format!(
            "    {:>3.0}% faulty: {}",
            cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
            thresholds.join(", ")
        ));
    }
}

/// Fig 8: the FaPIT and FalVolt histories side by side, then the epochs
/// each needs to reach 95% of the baseline (nothing unless both cells
/// completed).
fn convergence_lines(lines: &mut Vec<String>, run: &CampaignRun) {
    let [fapit, falvolt] = run.cells() else {
        return;
    };
    let (Some(fapit), Some(falvolt)) = (fapit.outcome(), falvolt.outcome()) else {
        return;
    };
    let (fapit, falvolt) = (&fapit.history, &falvolt.history);
    lines.push("  epoch |  FaPIT  | FalVolt".into());
    for (fa, fv) in fapit.iter().zip(falvolt) {
        lines.push(format!(
            "  {:>5} | {:>7} | {:>7}",
            fa.epoch,
            pct(fa.test_accuracy),
            pct(fv.test_accuracy)
        ));
    }
    let target = run.baseline_accuracy() * 0.95;
    lines.push(format!(
        "  epochs to 95% of baseline: FaPIT {:?}, FalVolt {:?}",
        epochs_to_reach(fapit, target),
        epochs_to_reach(falvolt, target)
    ));
}

/// The cell's accuracy as a percentage, or its status if it did not
/// complete.
fn accuracy_or_status(cell: &CellResult) -> String {
    if cell.status.is_completed() {
        pct(cell.accuracy)
    } else {
        status_text(&cell.status)
    }
}

fn status_text(status: &CellStatus) -> String {
    match status {
        CellStatus::Completed => "completed".into(),
        CellStatus::Failed { cause, attempts } => {
            format!("failed after {attempts} attempt(s): {cause}")
        }
        CellStatus::Skipped { reason } => format!("skipped ({reason})"),
    }
}

/// An accuracy fraction as a percentage with one decimal.
fn pct(x: f32) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DatasetKind, ExperimentScale};
    use falvolt_tensor::CancelToken;

    const CLI_NAMES: [&str; 8] = ["all", "2", "5a", "5b", "5c", "6", "7", "8"];
    /// How a cell failed by an injected `Err("injected")` reports.
    const INJECTED: &str = "failed after 1 attempt(s): error: invalid configuration: injected";

    #[test]
    fn select_accepts_exactly_the_cli_names() {
        for name in CLI_NAMES {
            assert!(Figure::select(name).is_some(), "{name} must parse");
        }
        for name in [
            "", "1", "5", "5d", "9", "ALL", "5B", "fig2", " 2", "6&7", "67",
        ] {
            assert_eq!(Figure::select(name), None, "{name:?} must not parse");
        }
    }

    #[test]
    fn all_yields_each_plan_once_and_6_and_7_share_one() {
        assert_eq!(Figure::select("6"), Some(&[Figure::Fig6And7][..]));
        assert_eq!(Figure::select("6"), Figure::select("7"));
        let all = Figure::select("all").unwrap_or_default();
        let mut singles: Vec<Figure> = CLI_NAMES[1..]
            .iter()
            .flat_map(|name| Figure::select(name).unwrap_or_default().iter().copied())
            .collect();
        singles.dedup();
        assert_eq!(all, singles.as_slice());
        assert_eq!(all, Figure::ALL.as_slice());
    }

    #[test]
    fn plans_take_their_budgets_from_the_scale() {
        assert_eq!(ExperimentScale::Tiny.fault_maps_per_point(), 1);
        assert_eq!(ExperimentScale::Quick.fault_maps_per_point(), 2);
        assert_eq!(ExperimentScale::Full.fault_maps_per_point(), 8);
        let mut ctx =
            ExperimentContext::prepare_untrained(DatasetKind::Mnist, ExperimentScale::Tiny, 3)
                .expect("untrained context");
        let run = Figure::Fig5b.plan(&mut ctx).run().expect("fig 5b plan");
        assert_eq!(run.len(), 7);
        assert!(run.cells().iter().all(|c| c.scenarios == 1));
        let report = Figure::Fig5b.report(&run);
        assert!(report.starts_with("\n--- Figure 5b: accuracy vs number of faulty PEs ---\n"));
        assert!(report.contains("Figure 5b [faulty_pes]\n  "));
        assert!(report.ends_with("%\n"));
    }

    #[test]
    fn unfinished_retraining_cells_report_their_status() {
        let mut ctx =
            ExperimentContext::prepare_untrained(DatasetKind::Mnist, ExperimentScale::Tiny, 3)
                .expect("untrained context");
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Figure::Fig8
            .plan(&mut ctx)
            .cancel_token(token)
            .run()
            .expect("a cancelled run still returns its cells");
        assert_eq!(cancelled.skipped(), 2);
        let report = Figure::Fig8.report(&cancelled);
        assert!(
            report.contains("fault_rate=0.3, strategy=FalVolt: skipped (cancelled)"),
            "{report}"
        );

        let failed = Figure::Fig6And7
            .plan(&mut ctx)
            .cell_hook(|_, _| Err("injected".into()))
            .run()
            .expect("a failed cell is data");
        assert_eq!(failed.failed(), 9);
        let report = Figure::Fig6And7.report(&failed);
        assert!(
            report.contains(&format!("       60% | FalVolt  | {INJECTED}\n")),
            "{report}"
        );
        assert!(!report.contains("% faulty: "), "{report}");

        let expired = Figure::Fig2
            .plan(&mut ctx)
            .deadline(std::time::Duration::ZERO)
            .run()
            .expect("an expired run still returns its cells");
        let report = Figure::Fig2.report(&expired);
        assert_eq!(
            report.matches("| skipped (deadline)").count(),
            8,
            "{report}"
        );
    }

    #[test]
    fn unfinished_sweep_cells_are_named_below_their_series() {
        let mut ctx =
            ExperimentContext::prepare_untrained(DatasetKind::Mnist, ExperimentScale::Tiny, 3)
                .expect("untrained context");
        let run = Figure::Fig5c
            .plan(&mut ctx)
            .cell_hook(|cell, _| {
                if cell == 1 {
                    Err("injected".into())
                } else {
                    Ok(())
                }
            })
            .run()
            .expect("a failed cell is data");
        let report = Figure::Fig5c.report(&run);
        assert!(
            report.ends_with(&format!("  array_size=8, faulty_pes=4: {INJECTED}\n")),
            "{report}"
        );
    }
}
