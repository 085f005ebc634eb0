//! The metric catalogue and the result line.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit, better)`.  Printed by every run with
/// tracing off.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Wall-time figures of the closed loop: `(name, unit, better)`.  Every
/// run with tracing off prints them as notes; the traced run reports them
/// as per-layer metrics.  They are not end-to-end metrics because on a
/// host with hypervisor steal they do not repeat within any bound (see
/// `README.md`).
pub const LOOP: &[(&str, &str, &str)] = &[
    ("loop.ops_per_s", "1/s", "higher"),
    ("loop.op_ms_p50", "ms", "lower"),
    ("loop.op_ms_p90", "ms", "lower"),
];

/// The kernels of the per-kernel ledger, in the order they are measured.
pub const KERNELS: [&str; 6] = ["sort", "karatsuba", "bfs_wide", "cc_wide", "bfs_deep", "dp"];

/// The per-kernel metrics of the ledger: `(suffix, unit, better)`.
pub const KERNEL_METRICS: [(&str, &str, &str); 5] = [
    ("ms", "ms", "lower"),
    ("cpu_ms", "ms", "lower"),
    ("seq_ms", "ms", "lower"),
    ("work_overhead", "ratio", "lower"),
    ("speedup", "ratio", "higher"),
];

/// Per-layer metrics besides the ledger's: `(name, unit, better)`.
/// Printed by every run with tracing on.
pub const PER_LAYER_REST: &[(&str, &str, &str)] = &[
    ("kernel.cc_wide.sample_forks", "count", "lower"),
    ("kernel.cc_wide.finish_forks", "count", "lower"),
    ("prim.scan_ns_per_elem", "ns", "lower"),
    ("prim.pack_ns_per_elem", "ns", "lower"),
    ("prim.expand_ns_per_elem", "ns", "lower"),
    ("prim.small_pass_us", "us", "lower"),
    ("prim.arena_bytes_per_op", "B", "lower"),
    ("sched.forks_per_op", "count", "lower"),
    ("sched.spawned_per_op", "count", "lower"),
    ("sched.elided_per_op", "count", "higher"),
    ("sched.steals_per_op", "count", "lower"),
    ("sched.join_ns", "ns", "lower"),
    ("sched.vol_ctx_switches_per_op", "count", "lower"),
    ("sched.run_delay_ms_per_op", "ms", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.run_ms_p50", "ms", "lower"),
    ("serve.overhead_us_p50", "us", "lower"),
    ("serve.small_job_us_p50", "us", "lower"),
    ("serve.submit_us_p50", "us", "lower"),
    ("serve.attempts_per_job", "ratio", "lower"),
    ("serve.rejected_per_kjob", "count", "lower"),
    ("sim.fork_error", "count", "lower"),
    ("sim.speedup_gap", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.dropped_events", "count", "lower"),
    ("host.steal_pct", "%", "lower"),
];

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let ledger = KERNELS.iter().flat_map(|k| {
        KERNEL_METRICS
            .iter()
            .map(move |&(m, unit, better)| (format!("kernel.{k}.{m}"), unit, better))
    });
    ledger
        .chain(LOOP.iter().map(|&(n, u, b)| (n.to_string(), u, b)))
        .chain(
            PER_LAYER_REST
                .iter()
                .map(|&(n, u, b)| (n.to_string(), u, b)),
        )
        .collect()
}

/// The unit a metric is printed with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n.to_string(), u))
        .chain(per_layer().into_iter().map(|(n, u, _)| (n, u)))
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every checked output was correct.
    pub correct: bool,
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that ended in an error.
    pub failed: u64,
    /// `(name, value)` in print order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric from the catalogue.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        unit_of(name);
        self.metrics.push((name.to_string(), value));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q = 0.5` is the median); 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
