//! Operation accounting, correctness checks, and the printed result.

use std::collections::BTreeMap;
use std::fmt::Display;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("pps", "1/s"), ("flow_accuracy", "fraction"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order. The metric
/// dictionary in `perfbench/METRICS.md` says what each one measures. The
/// paced-phase percentiles and `recovery_s` lead the list: they are
/// end-to-end in kind, but on the 2-vCPU host the benchmark was built on
/// they move with the host's load more than any bound allows, so they
/// carry none.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("recovery_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("control_p50_us", "us"),
    ("control_p99_us", "us"),
    ("wire.parse_ns", "ns"),
    ("wire.reject_frac", "fraction"),
    ("router.route_ns", "ns"),
    ("router.build_us", "us"),
    ("router.residual_scans_per_pkt", "count"),
    ("flow.admit_ns", "ns"),
    ("flow.evictions_per_kpkt", "count"),
    ("flow.alias_collisions_per_kpkt", "count"),
    ("flow.occupancy_frac", "fraction"),
    ("features.extract_ns", "ns"),
    ("flat.classify_ns", "ns"),
    ("flat.classify_batch_ns", "ns"),
    ("flat.scan_tables", "count"),
    ("flat.dense_tables", "count"),
    ("flowpipe.on_packet_ns", "ns"),
    ("server.push_ns", "ns"),
    ("server.flush_us", "us"),
    ("server.busy_ns_per_pkt", "ns"),
    ("server.worker_busy_frac", "fraction"),
    ("server.drain_ms", "ms"),
    ("control.attach_us", "us"),
    ("control.swap_us", "us"),
    ("control.stats_us", "us"),
    ("control.detach_us", "us"),
    ("control.apply_us", "us"),
    ("control.router_rebuild_us", "us"),
    ("control.adopted_slots", "count"),
    ("setup.train_s", "s"),
    ("setup.compile_s", "s"),
    ("setup.verify_ms", "ms"),
    ("setup.deploy_ms", "ms"),
    ("setup.capture_s", "s"),
    ("ctl.load_us", "us"),
    ("ctl.attach_us", "us"),
    ("ctl.swap_us", "us"),
    ("ctl.stats_us", "us"),
    ("ctl.list_us", "us"),
    ("ctl.detach_us", "us"),
    ("ctl.ingest_ms", "ms"),
    ("ctl.registry_bytes", "bytes"),
    ("load.lag_p99_us", "us"),
    ("load.lag_max_us", "us"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unaccounted_frac", "fraction"),
    ("host.steal_frac", "fraction"),
    ("host.iowait_frac", "fraction"),
    ("host.unrepresentative", "count"),
];

/// Every operation attempted, every failure, every check.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub checks_failed: u64,
}

impl Ledger {
    /// Counts one call; returns its value, or records the error.
    pub fn call<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts `n` operations that succeeded (frames pushed in bulk).
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// An error that ended the run early: one failed operation.
    pub fn abort(&mut self, why: String) {
        self.attempted += 1;
        self.fail(why);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(why);
        }
    }

    /// A correctness check: counts as an operation, fails the run if false.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.checks_failed += 1;
            self.fail(format!("check failed: {what}: {}", detail()));
        }
    }

    /// Compares two values that must be equal.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.check(what, ok, || format!("got {got:?}, want {want:?}"));
    }
}

/// Median of a sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of a sample (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// All metric values of a run, by name.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Records metrics of layers a workload does not exercise as 0.
    pub fn zero(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// Prints every metric with its unit, then the result line: the
    /// end-to-end metrics without `trace`, the per-layer ones with it.
    pub fn print(&self, trace: bool, ledger: &Ledger) {
        for list in [END_TO_END, PER_LAYER] {
            for (name, unit) in list {
                if let Some(v) = self.0.get(name) {
                    println!("metric {name} = {v} {unit}");
                }
            }
        }
        let list = if trace { PER_LAYER } else { END_TO_END };
        let body: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.0.get(name).copied().unwrap_or(f64::NAN);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(v))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            ledger.checks_failed == 0 && ledger.failed == 0,
            ledger.attempted.max(1),
            ledger.failed,
            body.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
