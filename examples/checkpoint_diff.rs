//! Checkpoint diff: prints every field that differs between two campaign
//! checkpoints (the JSON of `CampaignCheckpoint::to_json`, as in
//! `tests/golden/*.json`), one line per field and cell.
//!
//! Cells are matched by plan index. Floats print in their shortest
//! round-trip form, so two values print alike only if their bits match.
//! Exits 0 when nothing differs and 1 when something does.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example checkpoint_diff -- OLD.json NEW.json
//! ```

use falvolt::campaign::{CampaignCheckpoint, CheckpointCell};
use std::collections::BTreeMap;

/// Every field of one cell as `(name, value)`, in checkpoint order.
fn fields(cell: &CheckpointCell) -> Vec<(String, String)> {
    let mut out = vec![
        ("accuracy".to_string(), format!("{:?}", cell.accuracy)),
        ("scenarios".to_string(), cell.scenarios.to_string()),
        ("outcomes".to_string(), cell.outcomes.len().to_string()),
    ];
    for (i, o) in cell.outcomes.iter().enumerate() {
        let history: Vec<String> = o
            .history
            .iter()
            .map(|p| match p.train_loss {
                Some(loss) => format!("e{} loss {loss:?} acc {:?}", p.epoch, p.test_accuracy),
                None => format!("e{} acc {:?}", p.epoch, p.test_accuracy),
            })
            .collect();
        let thresholds: Vec<String> = o
            .thresholds
            .iter()
            .map(|(layer, v)| format!("{layer}={v:?}"))
            .collect();
        for (name, value) in [
            ("strategy", o.strategy.clone()),
            ("fault_rate", format!("{:?}", o.fault_rate)),
            (
                "pruned_weight_fraction",
                format!("{:?}", o.pruned_weight_fraction),
            ),
            (
                "accuracy_after_pruning",
                format!("{:?}", o.accuracy_after_pruning),
            ),
            ("final_accuracy", format!("{:?}", o.final_accuracy)),
            ("epochs_run", o.epochs_run.to_string()),
            ("history", format!("[{}]", history.join("; "))),
            ("thresholds", format!("[{}]", thresholds.join(", "))),
        ] {
            out.push((format!("outcomes[{i}].{name}"), value));
        }
    }
    out
}

/// The differing fields of two checkpoints, one line each.
fn diff(old: &CampaignCheckpoint, new: &CampaignCheckpoint) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, a, b) in [
        (
            "fingerprint",
            format!("{:#018x}", old.fingerprint()),
            format!("{:#018x}", new.fingerprint()),
        ),
        (
            "baseline_accuracy",
            format!("{:?}", old.baseline_accuracy()),
            format!("{:?}", new.baseline_accuracy()),
        ),
        (
            "total_cells",
            old.total_cells().to_string(),
            new.total_cells().to_string(),
        ),
    ] {
        if a != b {
            lines.push(format!("{name}: {a} -> {b}"));
        }
    }
    let by_index = |c: &CampaignCheckpoint| -> BTreeMap<usize, Vec<(String, String)>> {
        c.cells()
            .iter()
            .map(|cell| (cell.index, fields(cell)))
            .collect()
    };
    let (old_cells, new_cells) = (by_index(old), by_index(new));
    let mut indexes: Vec<usize> = old_cells.keys().chain(new_cells.keys()).copied().collect();
    indexes.sort_unstable();
    indexes.dedup();
    for index in indexes {
        let (a, b) = (old_cells.get(&index), new_cells.get(&index));
        let (Some(a), Some(b)) = (a, b) else {
            let side = if a.is_some() { "old" } else { "new" };
            lines.push(format!(
                "cell {index}: recorded only in the {side} checkpoint"
            ));
            continue;
        };
        let mut names: Vec<&String> = a.iter().map(|(n, _)| n).collect();
        names.extend(
            b.iter()
                .map(|(n, _)| n)
                .filter(|n| !a.iter().any(|(m, _)| m == *n)),
        );
        let value = |fields: &[(String, String)], name: &String| {
            fields
                .iter()
                .find(|(n, _)| n == name)
                .map_or_else(|| "(absent)".to_string(), |(_, v)| v.clone())
        };
        for name in names {
            let (a, b) = (value(a, name), value(b, name));
            if a != b {
                lines.push(format!("cell {index} {name}: {a} -> {b}"));
            }
        }
    }
    lines
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [old, new] = paths.as_slice() else {
        eprintln!("usage: checkpoint_diff OLD.json NEW.json");
        std::process::exit(2);
    };
    let read = |path: &String| -> Result<CampaignCheckpoint, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(CampaignCheckpoint::from_json(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let lines = diff(&read(old)?, &read(new)?);
    if lines.is_empty() {
        println!("no differences");
        return Ok(());
    }
    for line in &lines {
        println!("{line}");
    }
    std::process::exit(1);
}
