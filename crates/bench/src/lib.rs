//! Shared setup for the FalVolt figure benches.
//!
//! Every figure bench prints its figure once, exactly as
//! `reproduce --fig X` prints it, then times the figure's kernel on the
//! context the figure ran on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt::figures::Figure;

/// Prepares the Tiny MNIST context `reproduce` runs by default (seed 42),
/// runs `figure`'s plan on it, prints the figure's report and hands the
/// context back for the bench's kernel measurement.
///
/// # Errors
///
/// Propagates context preparation and campaign errors.
pub fn print_figure(figure: Figure) -> falvolt::Result<ExperimentContext> {
    let mut ctx = ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Tiny, 42)?;
    let run = figure.plan(&mut ctx).run()?;
    print!("{}", figure.report(&run));
    Ok(ctx)
}
