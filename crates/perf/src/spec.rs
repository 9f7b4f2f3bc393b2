//! The benchmark's metric names, units and directions — the same table
//! `BENCHMARK.json` at the repository root lists (`tests/smoke.rs` keeps
//! the two in step).

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Definition of an end-to-end metric: `(name, unit, bound)`; lower is
/// better for all of them. `bound` is the share of the baseline median by
/// which the metric may worsen.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.20),
    ("interactive_p50_s", "s", 0.20),
    ("hpwl", "length", 0.20),
    ("gp_iters", "count", 0.20),
    ("peak_rss_mb", "MiB", 0.12),
];

/// Definition of a per-layer metric: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    // Stage spans of one flow stepped through `FlowMachine::step`.
    ("core.init_s", "s", "lower"),
    ("gp.total_s", "s", "lower"),
    ("gp.iter_ms", "ms", "lower"),
    ("lg.total_s", "s", "lower"),
    ("dplace.total_s", "s", "lower"),
    ("core.finish_s", "s", "lower"),
    // Operator replay on the clustered and spread snapshots.
    ("wirelength.wa_ms.clustered", "ms", "lower"),
    ("wirelength.wa_ms.spread", "ms", "lower"),
    ("wirelength.ns_per_pin", "ns", "lower"),
    ("wirelength.hpwl_ms", "ms", "lower"),
    ("density.scatter_ms.clustered", "ms", "lower"),
    ("density.scatter_ms.spread", "ms", "lower"),
    ("density.fwd_ms", "ms", "lower"),
    ("density.bwd_ms", "ms", "lower"),
    ("density.overflow_ms", "ms", "lower"),
    ("density.ns_per_cell", "ns", "lower"),
    ("dct.solve_ms", "ms", "lower"),
    ("dct.dct2_ms", "ms", "lower"),
    ("dct.idct2_ms", "ms", "lower"),
    ("dct.ns_per_bin", "ns", "lower"),
    // The GP pass seen from inside (`GpStats.timing`) and from outside
    // (replay time x call counts).
    ("gp.wl_share", "share", "lower"),
    ("gp.density_share", "share", "lower"),
    ("gp.solver_share", "share", "lower"),
    ("optim.solver_s", "s", "lower"),
    ("gp.wl_share_est", "share", "lower"),
    ("gp.dct_share_est", "share", "lower"),
    // Execution substrate.
    ("autograd.op_calls", "count", "lower"),
    ("autograd.workspace_bytes", "bytes", "lower"),
    ("autograd.workspace_reuse_ratio", "ratio", "higher"),
    ("num.pool_runs", "count", "lower"),
    ("num.pool_launch_us", "us", "lower"),
    ("num.speedup_2t", "ratio", "higher"),
    // Legalization and detailed placement replayed on the spread snapshot.
    ("lg.legalize_ms", "ms", "lower"),
    ("lg.avg_displacement", "length", "lower"),
    ("dplace.run_ms", "ms", "lower"),
    ("dplace.hpwl_gain_pct", "%", "higher"),
    // Set-up.
    ("gen.generate_ms", "ms", "lower"),
    ("bookshelf.write_ms", "ms", "lower"),
    ("bookshelf.read_ms", "ms", "lower"),
    ("netlist.pins", "count", "lower"),
    // Checkpointing, scheduling, precision and tracing arms.
    ("core.ckpt_capture_ms", "ms", "lower"),
    ("core.ckpt_serialize_ms", "ms", "lower"),
    ("core.ckpt_deserialize_ms", "ms", "lower"),
    ("core.ckpt_bytes", "bytes", "lower"),
    ("core.sched_overhead_pct", "%", "lower"),
    ("core.f32_wall_s", "s", "lower"),
    ("telemetry.trace_overhead_pct", "%", "lower"),
    ("telemetry.trace_events", "count", "lower"),
    // The daemon path (zero on flow workloads, which start no daemon).
    ("serve.queue_wait_p50_s", "s", "lower"),
    ("serve.interactive_p90_s", "s", "lower"),
    ("serve.batch_p50_s", "s", "lower"),
    ("serve.bulk_p50_s", "s", "lower"),
    ("serve.placements_per_hour", "1/h", "higher"),
    ("serve.busy_share", "share", "higher"),
    ("serve.events_per_job", "count", "lower"),
    ("serve.bytes_per_job", "bytes", "lower"),
    ("serve.stream_mb_s", "MB/s", "higher"),
    ("serve.status_rtt_ms", "ms", "lower"),
    ("serve.metrics_scrape_ms", "ms", "lower"),
    ("serve.sched_turns", "count", "lower"),
    ("serve.pool_launches", "count", "lower"),
    // Whether the host was quiet while the run measured.
    ("bench.wall_median_s", "s", "lower"),
    ("bench.noise_pct", "%", "lower"),
    ("bench.first_run_penalty_s", "s", "lower"),
];

/// Collects metrics by name against one of the tables above, so a report
/// always carries every metric of its table exactly once, in table order.
pub struct MetricSet {
    table: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        Self::over(END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect())
    }

    pub fn per_layer() -> Self {
        Self::over(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
    }

    fn over(table: Vec<(&'static str, &'static str)>) -> Self {
        let values = vec![None; table.len()];
        Self { table, values }
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not list: a typo in the harness,
    /// never an input condition.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.table.iter().position(|(n, _)| *n == name)?;
        self.values[i]
    }

    /// Every metric of the table in order; one that was never set reads 0
    /// (a layer the workload does not exercise).
    pub fn finish(&self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| Metric {
                name,
                unit,
                value: v.unwrap_or(0.0),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_manifest_grammar() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for (_, unit, _) in PER_LAYER {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.2 > 0.0 && m.2 <= 0.25));
    }

    #[test]
    fn metric_set_reports_every_name_once_in_order() {
        let mut set = MetricSet::end_to_end();
        set.set("wall_s", 1.5);
        let out = set.finish();
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(
            out[1],
            Metric {
                name: "wall_s",
                unit: "s",
                value: 1.5
            }
        );
        assert_eq!(out[0].value, 0.0);
        assert_eq!(set.get("wall_s"), Some(1.5));
    }
}
