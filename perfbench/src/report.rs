//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("sim_cycles_per_op", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics reported by every traced run, except the per-app
/// `arch.profile_us.<app>` and `apim.run_ms.<app>` of [`per_app_metrics`].
pub const PER_LAYER: [(&str, &str); 31] = [
    ("verify.lint_us", "us"),
    ("verify.lint_share", "ratio"),
    ("compile.parse_us", "us"),
    ("compile.compile_us", "us"),
    ("compile.batched_compile_us", "us"),
    ("compile.batched_run_us", "us"),
    ("compile.reuse_ratio", "ratio"),
    ("crossbar.exec_us", "us"),
    ("crossbar.micro_ops", "count"),
    ("crossbar.energy_pj", "pJ"),
    ("crossbar.ns_per_micro_op", "ns"),
    ("serve.batch_size", "count"),
    ("serve.lane_batched_ratio", "ratio"),
    ("serve.batch_service_ms", "ms"),
    ("serve.busy_ratio", "ratio"),
    ("serve.pool_latency_ms", "ms"),
    ("serve.retries", "count"),
    ("cluster.rpc_overhead_us", "us"),
    ("cluster.failovers", "count"),
    ("cluster.transport_failures", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("net.frame_ns", "ns"),
    ("apim.multiply_us", "us"),
    ("apim.mac_us", "us"),
    ("arch.profile_us", "us"),
    ("apim.run_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
];

/// The per-app split of `arch.profile_us` and `apim.run_ms`.
pub fn per_app_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for app in apim::App::all() {
        let key = crate::layers::app_key(app);
        out.push((format!("arch.profile_us.{key}"), "us"));
        out.push((format!("apim.run_ms.{key}"), "ms"));
    }
    out
}

/// Every metric name a run must report, with its unit.
pub fn expected_metrics(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_app_metrics())
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Named metric values.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// One metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The verdict and numbers of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every checked output matched its oracle.
    pub correct: bool,
    /// Requests sent in the measured phases.
    pub attempted: u64,
    /// Requests rejected, failed or lost.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
    /// The first few oracle mismatches, for the log.
    pub mismatches: Vec<String>,
    /// The first few failure reasons, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every expected
    /// metric with its unit. A metric the run did not produce is an error.
    ///
    /// # Errors
    ///
    /// Names the missing or non-finite metric.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in expected_metrics(trace).into_iter().enumerate() {
            let value = self
                .metrics
                .get(&name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Nearest-rank quantile of `values` (`q` in 0..=1); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Fewest samples a latency slice holds: enough that its p99 has ten
/// samples beyond it.
pub const SLICE_SAMPLES: usize = 1000;

/// The `q`-quantile of time-ordered `samples`, taken in consecutive slices
/// of at least [`SLICE_SAMPLES`] (at most ten slices; one when there are
/// fewer samples) and reported as the median over slices, so a short stall
/// of the host shifts one slice rather than the whole figure.
pub fn sliced_quantile(samples: &[f64], q: f64) -> f64 {
    let slices = (samples.len() / SLICE_SAMPLES).clamp(1, 10);
    let per = samples.len() / slices;
    let values: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                samples.len()
            } else {
                (i + 1) * per
            };
            quantile(&samples[i * per..end], q)
        })
        .collect();
    median(&values)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
