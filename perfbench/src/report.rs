//! The per-layer metric table of a traced run and the one-line JSON record
//! the benchmark binary prints.

use crate::replica::TracedRun;
use crate::RunOutcome;
use falvolt::SweepCaches;
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit (`s`, `ms`, `count`, `ratio`).
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Hit ratios of an experiment context's sweep caches, read after the
/// library's own `Campaign::run` (which evaluates every cell's scenarios in
/// one batched call over these caches). The product-cache ratio is hits /
/// (hits + promotions + skips).
pub fn cache_metrics(caches: &SweepCaches) -> Vec<Metric> {
    let hit_ratio = |stats: falvolt_snn::sweep_cache::CacheStats| {
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64)
    };
    let product = &caches.product;
    let attempts = product.hits() + product.promotions() + product.skips();
    vec![
        metric(
            "snn.sweep_cache.prefix_hit_ratio",
            "ratio",
            hit_ratio(caches.sweep.prefix_stats()),
        ),
        metric(
            "snn.sweep_cache.lowered_hit_ratio",
            "ratio",
            hit_ratio(caches.sweep.lowered_stats()),
        ),
        metric(
            "systolic.product_cache.hit_ratio",
            "ratio",
            ratio(product.hits() as f64, attempts as f64),
        ),
    ]
}

/// Every per-layer metric a traced run yields, in a fixed order. Matmul
/// metrics cover the layers of the workload's network only.
pub fn layer_metrics(run: &TracedRun) -> Vec<Metric> {
    let t = &run.trace;
    let layers = t.layers();
    let mut out = vec![
        metric("datasets.generate_s", "s", t.total("datasets.generate")),
        metric("snn.train.forward_s", "s", t.total("snn.train.forward")),
        metric("snn.train.backward_s", "s", t.total("snn.train.backward")),
        metric("snn.train.optim_s", "s", t.total("snn.train.optim")),
        metric("snn.eval.forward_s", "s", t.total("snn.eval.forward")),
        metric("snn.train.epochs", "count", t.counter("snn.train.epochs")),
    ];
    for &layer in &layers {
        let totals = t.tensor.totals(layer);
        out.push(metric(format!("tensor.matmul.{layer}.ms"), "ms", totals.ms));
        out.push(metric(
            format!("tensor.matmul.{layer}.calls"),
            "count",
            totals.calls as f64,
        ));
        out.push(metric(
            format!("tensor.matmul.{layer}.event_frac"),
            "ratio",
            ratio(totals.events as f64, totals.calls as f64),
        ));
    }
    for &layer in &layers {
        out.push(metric(
            format!("systolic.matmul_unbatched.{layer}.ms"),
            "ms",
            t.systolic.totals(layer).ms,
        ));
    }
    out.push(metric(
        "systolic.fault_map_draw_s",
        "s",
        t.total("systolic.fault_map_draw"),
    ));
    out.push(metric(
        "core.scenario_eval_s",
        "s",
        t.total("core.scenario_eval"),
    ));
    out.push(metric("core.prune_s", "s", t.total("core.prune")));
    out.push(metric("core.campaign.self_s", "s", run.campaign_self_s()));
    out
}

/// `true` when `name` is a valid metric name: non-empty `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The run environment recorded with every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Active SIMD level (`falvolt_tensor::simd::active()`).
    pub isa: &'static str,
    /// Worker threads the parallel runtime uses.
    pub threads: usize,
    /// Hardware threads available to the process.
    pub nproc: usize,
}

impl Environment {
    /// The environment of this process.
    pub fn current() -> Self {
        Self {
            isa: falvolt_tensor::simd::active().name(),
            threads: rayon::current_num_threads(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Renders one run as a single-line JSON object.
pub fn to_json(
    workload: &str,
    seed: u64,
    env: &Environment,
    outcome: &RunOutcome,
    peak_rss_mb: Option<f64>,
    layers: &[Metric],
) -> String {
    let mut out = String::from("{");
    out.push_str("\"workload\":");
    push_str(&mut out, workload);
    let _ = write!(out, ",\"seed\":{seed},\"isa\":");
    push_str(&mut out, env.isa);
    let _ = write!(out, ",\"threads\":{},\"nproc\":{}", env.threads, env.nproc);
    out.push_str(",\"scale\":\"tiny\",\"setup_s\":");
    push_num(&mut out, outcome.setup_s);
    out.push_str(",\"campaign_s\":");
    push_num(&mut out, outcome.campaign_s);
    out.push_str(",\"peak_rss_mb\":");
    push_num(&mut out, peak_rss_mb.unwrap_or(f64::NAN));
    out.push_str(",\"baseline_accuracy\":");
    push_num(&mut out, f64::from(outcome.baseline_accuracy));
    out.push_str(",\"cells\":[");
    for (i, cell) in outcome.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"label\":");
        push_str(&mut out, &cell.label);
        out.push_str(",\"accuracy\":");
        push_num(&mut out, f64::from(cell.accuracy));
        let _ = write!(
            out,
            ",\"bits\":\"{:08x}\",\"completed\":{}}}",
            cell.accuracy.to_bits(),
            cell.completed
        );
    }
    out.push_str("],\"layers\":{");
    for (i, m) in layers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(&mut out, &m.name);
        out.push_str(":{\"value\":");
        push_num(&mut out, m.value);
        out.push_str(",\"unit\":");
        push_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_rule() {
        assert!(valid_metric_name("tensor.matmul.conv1.event_frac"));
        assert!(valid_metric_name("core.campaign.self_s"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name("x/y"));
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000a\"");
    }
}
