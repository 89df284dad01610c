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

use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt::figures::Figure;

const USAGE: &str = "usage: reproduce [--fig all|2|5a|5b|5c|6|7|8] \
[--dataset mnist|nmnist|dvs|all] [--scale tiny|quick|full]";

#[derive(Debug, Clone)]
struct Options {
    /// The `--fig` value as given (lowercased), echoed in the header.
    fig: String,
    figures: &'static [Figure],
    datasets: Vec<DatasetKind>,
    scale: ExperimentScale,
}

/// Parses the command line; `Err` carries the message printed above the
/// usage line.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        fig: "all".to_string(),
        figures: &Figure::ALL,
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
            ("--fig", fig) => {
                options.figures =
                    Figure::select(fig).ok_or_else(|| format!("unknown --fig value '{fig}'"))?;
                options.fig = value;
            }
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
        [&options.fig]
    );

    for &kind in &options.datasets {
        println!("\n================ {} ================", kind.label());
        println!("preparing dataset and training the fault-free baseline...");
        let mut ctx = ExperimentContext::prepare(kind, options.scale, 42)?;
        println!("baseline accuracy: {:.1}%", ctx.baseline_accuracy() * 100.0);
        for &figure in options.figures {
            let run = figure.plan(&mut ctx).run()?;
            print!("{}", figure.report(&run));
        }
    }
    Ok(())
}
