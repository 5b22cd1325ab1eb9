//! Metric names, units and the result line.
//!
//! Every run prints one human-readable line per metric it measured and
//! then, as its last line, the JSON result: the end-to-end metrics for an
//! untraced run, the per-layer metrics for a traced one. Both lists are
//! the same for every workload; a per-layer metric whose layer the
//! workload does not exercise reads 0.

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// `(name, unit)` of the per-layer metrics, measured by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The paper's quantities and the serving figures, per workload.
    ("order_mnnz_per_s", "Mnnz/s"),
    ("spmv_gflops", "GFLOP/s"),
    ("spmv_speedup", "x"),
    ("fill_ratio", "x"),
    ("knee_rps", "req/s"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p99_ms", "ms"),
    // reorder
    ("reorder.rcm.busy_s", "s"),
    ("reorder.amd.busy_s", "s"),
    ("reorder.nd.busy_s", "s"),
    ("reorder.gp.busy_s", "s"),
    ("reorder.hp.busy_s", "s"),
    ("reorder.gray.busy_s", "s"),
    ("reorder.amd.rounds", "count"),
    ("reorder.amd.pivots_per_round", "count"),
    ("reorder.rcm.bandwidth", "count"),
    ("reorder.gp.offdiag_nnz", "count"),
    ("reorder.hp.offdiag_nnz", "count"),
    // cholesky
    ("cholesky.factor_nnz.amd", "count"),
    ("cholesky.factor_nnz.nd", "count"),
    // sparsemat
    ("sparsemat.permute.busy_s", "s"),
    ("sparsemat.permute.bytes", "bytes"),
    ("sparsemat.apply_delta_us", "us"),
    // spmv
    ("spmv.plan.busy_s", "s"),
    ("spmv.1d.busy_s", "s"),
    ("spmv.2d.busy_s", "s"),
    ("spmv.merge.busy_s", "s"),
    ("spmv.1d.gflops", "GFLOP/s"),
    ("spmv.2d.gflops", "GFLOP/s"),
    ("spmv.merge.gflops", "GFLOP/s"),
    ("spmv.bytes_per_call", "bytes"),
    // team
    ("team.dispatch_us.idle", "us"),
    ("team.dispatch_us.busy", "us"),
    // policy
    ("policy.decide_us", "us"),
    // engine
    ("engine.hit_ratio", "ratio"),
    ("engine.plans.hit_ratio", "ratio"),
    ("engine.compute_s", "s"),
    ("engine.jobs_executed", "count"),
    ("engine.get_us.hit", "us"),
    ("engine.get_ms.fresh", "ms"),
    ("engine.delta.splice_ratio", "ratio"),
    // servetier
    ("servetier.submit_us", "us"),
    ("servetier.deliver_us", "us"),
    ("servetier.queue_wait_ms.p50", "ms"),
    ("servetier.queue_wait_ms.p99", "ms"),
    ("servetier.service_ms.p50", "ms"),
    ("servetier.service_ms.p99", "ms"),
    ("servetier.prepared.hit_ratio", "ratio"),
    ("servetier.shed.queue_full", "count"),
    ("servetier.shed.expired", "count"),
    ("servetier.overhead_us", "us"),
    // archsim
    ("archsim.rank_agreement", "ratio"),
    // the benchmark itself
    ("loadgen.late_ms.p99", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("host.calibration_ms", "ms"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"))
}

/// One measured value with its sample count and a free-form note.
#[derive(Debug, Clone)]
struct Value {
    value: f64,
    samples: usize,
    note: String,
}

/// What one workload run measured and how many operations it checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed: errors, sheds, expiries and wrong answers.
    pub failed: u64,
    /// Outputs that failed a correctness check (a subset of `failed`).
    pub wrong: u64,
    values: BTreeMap<&'static str, Value>,
}

impl Outcome {
    /// Record `name` (which must be declared above) from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, samples: usize, note: String) {
        unit_of(name);
        self.values.insert(
            name,
            Value {
                value,
                samples,
                note,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// Count an operation; `ok == false` counts it as failed.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Print every measured metric, then the JSON result line.
    pub fn print(&self, traced: bool) {
        for (name, v) in &self.values {
            println!(
                "metric {name} = {} {} (n={}){}{}",
                v.value,
                unit_of(name),
                v.samples,
                if v.note.is_empty() { "" } else { "  " },
                v.note
            );
        }
        println!(
            "checked: {} attempted, {} failed, {} wrong",
            self.attempted, self.failed, self.wrong
        );
        let list = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => v.value,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no infinities: a tail made infinite by failed requests is
/// printed as the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_numbers_stay_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert!(json_number(f64::INFINITY)
            .parse::<f64>()
            .unwrap()
            .is_finite());
    }
}
