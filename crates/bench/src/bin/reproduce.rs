//! Regenerates every figure of the FalVolt evaluation and prints the series.
//!
//! ```text
//! cargo run --release -p falvolt-bench --bin reproduce -- [--fig all|2|5a|5b|5c|6|7|8]
//!     [--dataset mnist|nmnist|dvs|all] [--scale tiny|quick|full]
//! ```
//!
//! Defaults: `--fig all --dataset mnist --scale tiny`. An unknown flag, an
//! unknown value or a missing value prints the usage to stderr and exits
//! with status 2 before any dataset is generated.

use falvolt::campaign::{Axis, Campaign};
use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt::mitigation::MitigationStrategy;
use falvolt_bench::{pct, print_series};
use falvolt_systolic::StuckAt;

const USAGE: &str = "usage: reproduce [--fig all|2|5a|5b|5c|6|7|8] \
[--dataset mnist|nmnist|dvs|all] [--scale tiny|quick|full]";

const FIGURES: [&str; 8] = ["all", "2", "5a", "5b", "5c", "6", "7", "8"];

#[derive(Debug, Clone)]
struct Options {
    figures: Vec<String>,
    datasets: Vec<DatasetKind>,
    scale: ExperimentScale,
}

/// Parses the command line; `Err` carries the message printed above the
/// usage line.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        figures: vec!["all".to_string()],
        datasets: vec![DatasetKind::Mnist],
        scale: ExperimentScale::Tiny,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = match flag.as_str() {
            "--fig" | "--dataset" | "--scale" => args
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .to_lowercase(),
            other => return Err(format!("unknown argument '{other}'")),
        };
        match (flag.as_str(), value.as_str()) {
            ("--fig", fig) if FIGURES.contains(&fig) => options.figures = vec![value],
            ("--dataset", "mnist") => options.datasets = vec![DatasetKind::Mnist],
            ("--dataset", "nmnist") => options.datasets = vec![DatasetKind::NMnist],
            ("--dataset", "dvs" | "dvs-gesture") => {
                options.datasets = vec![DatasetKind::DvsGesture];
            }
            ("--dataset", "all") => options.datasets = DatasetKind::ALL.to_vec(),
            ("--scale", "tiny") => options.scale = ExperimentScale::Tiny,
            ("--scale", "quick") => options.scale = ExperimentScale::Quick,
            ("--scale", "full") => options.scale = ExperimentScale::Full,
            (flag, value) => return Err(format!("unknown {flag} value '{value}'")),
        }
    }
    Ok(options)
}

fn wants(options: &Options, figure: &str) -> bool {
    options.figures.iter().any(|f| f == "all" || f == figure)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("reproduce: {message}\n{USAGE}");
        std::process::exit(2);
    });
    println!("FalVolt reproduction harness");
    println!(
        "datasets: {:?}, scale: {:?}, figures: {:?}",
        options
            .datasets
            .iter()
            .map(DatasetKind::label)
            .collect::<Vec<_>>(),
        options.scale,
        options.figures
    );

    for &kind in &options.datasets {
        println!("\n================ {} ================", kind.label());
        println!("preparing dataset and training the fault-free baseline...");
        let mut ctx = ExperimentContext::prepare(kind, options.scale, 42)?;
        println!("baseline accuracy: {}", pct(ctx.baseline_accuracy()));
        let epochs = options.scale.retrain_epochs();
        let vuln = options.scale.vulnerability_config();
        let msb = ctx.systolic_config().accumulator_format().msb();

        // Every plan installs its figure's seed mixer from
        // `campaign::mixers` (and, for the Figure 5 sweeps, the
        // vulnerability seed). tests/golden_figures.rs pins the same plans,
        // at smaller sizes, bit for bit.
        if wants(&options, "2") {
            println!("\n--- Figure 2: fixed-threshold retraining sweep ---");
            let run = Campaign::new(&mut ctx)
                .axis(Axis::FaultRate(vec![0.30, 0.60]))
                .axis(Axis::Threshold(vec![0.45, 0.55, 0.7, 1.0]))
                .retrain_epochs(epochs)
                .seed_mixer(falvolt::campaign::mixers::per_fault_rate)
                .run()?;
            println!("  threshold | fault rate | accuracy");
            for cell in &run {
                println!(
                    "  {:>9.2} | {:>9.0}% | {:>6}",
                    cell.spec.threshold.unwrap_or(0.0),
                    cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
                    pct(cell.accuracy)
                );
            }
        }

        if wants(&options, "5a") {
            println!("\n--- Figure 5a: accuracy vs fault bit location ---");
            let run = Campaign::new(&mut ctx)
                .axis(Axis::Polarity(StuckAt::ALL.to_vec()))
                .axis(Axis::BitPosition(vec![0, 2, 4, 6, 8, 10, 12, 14, msb]))
                .axis(Axis::FaultyPes(vec![8]))
                .scenarios_per_cell(vuln.iterations)
                .seed(vuln.seed)
                .seed_mixer(falvolt::campaign::mixers::per_bit)
                .run()?;
            for series in run.mean_series("bit") {
                print_series("Figure 5a", "bit", &series);
            }
        }

        if wants(&options, "5b") {
            println!("\n--- Figure 5b: accuracy vs number of faulty PEs ---");
            let run = Campaign::new(&mut ctx)
                .axis(Axis::FaultyPes(vec![0, 4, 8, 16, 32, 48, 64]))
                .scenarios_per_cell(vuln.iterations)
                .seed(vuln.seed)
                .seed_mixer(falvolt::campaign::mixers::per_faulty_pe_count)
                .run()?;
            for series in run.mean_series("faulty_pes") {
                print_series("Figure 5b", "faulty PEs", &series);
            }
        }

        if wants(&options, "5c") {
            println!("\n--- Figure 5c: accuracy vs systolic-array size ---");
            let run = Campaign::new(&mut ctx)
                .axis(Axis::ArraySize(vec![4, 8, 16, 32]))
                .axis(Axis::FaultyPes(vec![4]))
                .scenarios_per_cell(vuln.iterations)
                .seed(vuln.seed)
                .seed_mixer(falvolt::campaign::mixers::per_array_size)
                .run()?;
            for series in run.mean_series("array_size") {
                print_series("Figure 5c", "array side", &series);
            }
        }

        if wants(&options, "6") || wants(&options, "7") {
            println!("\n--- Figures 6 & 7: mitigation comparison (FaP / FaPIT / FalVolt) ---");
            let run = Campaign::new(&mut ctx)
                .axis(Axis::FaultRate(vec![0.10, 0.30, 0.60]))
                .axis(Axis::Mitigation(vec![
                    MitigationStrategy::FaP,
                    MitigationStrategy::fapit(epochs),
                    MitigationStrategy::falvolt(epochs),
                ]))
                .seed_mixer(falvolt::campaign::mixers::per_fault_rate_rotated)
                .run()?;
            println!("  fault rate | strategy | accuracy");
            for cell in &run {
                let outcome = cell.outcome().expect("retraining cell");
                println!(
                    "  {:>9.0}% | {:<8} | {:>6}",
                    cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
                    outcome.strategy,
                    pct(cell.accuracy)
                );
            }
            println!("\n  per-layer thresholds learned by FalVolt (Figure 6):");
            for cell in &run {
                let outcome = cell.outcome().expect("retraining cell");
                if outcome.strategy != "FalVolt" {
                    continue;
                }
                let thresholds: Vec<String> = outcome
                    .thresholds
                    .iter()
                    .map(|(name, v)| format!("{name}={v:.2}"))
                    .collect();
                println!(
                    "    {:>3.0}% faulty: {}",
                    cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
                    thresholds.join(", ")
                );
            }
        }

        if wants(&options, "8") {
            println!("\n--- Figure 8: accuracy vs retraining epochs (30% faulty PEs) ---");
            let run = Campaign::new(&mut ctx)
                .axis(Axis::FaultRate(vec![0.30]))
                .axis(Axis::Mitigation(vec![
                    MitigationStrategy::fapit(epochs),
                    MitigationStrategy::falvolt(epochs),
                ]))
                .seed_mixer(falvolt::campaign::mixers::convergence)
                .run()?;
            let fapit = &run.cells()[0].outcome().expect("FaPIT cell").history;
            let falvolt = &run.cells()[1].outcome().expect("FalVolt cell").history;
            println!("  epoch |  FaPIT  | FalVolt");
            for (fa, fv) in fapit.iter().zip(falvolt) {
                println!(
                    "  {:>5} | {:>7} | {:>7}",
                    fa.epoch,
                    pct(fa.test_accuracy),
                    pct(fv.test_accuracy)
                );
            }
            let target = run.baseline_accuracy() * 0.95;
            println!(
                "  epochs to 95% of baseline: FaPIT {:?}, FalVolt {:?}",
                falvolt::mitigation::epochs_to_reach(fapit, target),
                falvolt::mitigation::epochs_to_reach(falvolt, target)
            );
        }
    }
    Ok(())
}
