//! Runs one benchmark workload once and prints its record as one JSON line.
//!
//! ```text
//! falvolt-perfbench --workload vuln_mnist|vuln_dvs|mitigate_mnist --seed N [--trace]
//! ```
//!
//! Without `--trace` the run calls `ExperimentContext::prepare` and one
//! `Campaign::run`, and the record carries the context's cache hit ratios;
//! with it, the traced replica runs instead and the record carries its
//! per-layer metrics. `perfbench/run.py` drives this binary.

use perfbench::report::{layer_metrics, to_json, Environment};
use perfbench::{peak_rss_mb, replica, run_untraced, BenchError, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name = args.next().ok_or("--workload needs a value")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
            }
            "--trace" => trace = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
    })
}

fn run(args: &Args) -> Result<String, BenchError> {
    let plan = args.workload.plan(false);
    let (outcome, layers) = if args.trace {
        let traced = replica::run_traced(args.workload, &plan, args.seed)?;
        let layers = layer_metrics(&traced);
        (traced.outcome, layers)
    } else {
        run_untraced(args.workload, &plan, args.seed)?
    };
    Ok(to_json(
        args.workload.name(),
        args.seed,
        &Environment::current(),
        &outcome,
        peak_rss_mb(),
        &layers,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("falvolt-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("falvolt-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
