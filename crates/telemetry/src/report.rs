//! End-of-run report: a human-readable summary distilled from the event
//! timeline. Built from [`Telemetry::report`](crate::Telemetry::report) by the CLI after a run (even
//! a failed one) and by `dp-bench`, so the figure/table generators share
//! one timing presentation instead of duplicating plumbing.

use crate::{SpanKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Wall-clock total for one stage (or other span name at a given level).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Span name (`gp`, `lg`, `dp`, ...).
    pub name: String,
    /// Summed wall-clock seconds across spans with this name.
    pub seconds: f64,
}

/// Everything the end-of-run report prints, exposed as data so callers
/// (CLI, `dp-bench`) can also consume fields directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Name of the outermost flow span, if one was recorded.
    pub flow: Option<String>,
    /// Duration of the outermost flow span in seconds.
    pub total_seconds: f64,
    /// Run metadata in recorded order.
    pub meta: Vec<(String, String)>,
    /// Stage wall-clock rows in first-seen order.
    pub stages: Vec<StageRow>,
    /// Number of convergence points recorded.
    pub iterations: u64,
    /// `(hpwl, overflow)` of the last convergence point.
    pub final_iter: Option<(f64, f64)>,
    /// Kernel totals `(name, calls, nanos)` sorted by nanos descending.
    pub kernels: Vec<(String, u64, u64)>,
    /// Summed workspace `uses` across buffers.
    pub workspace_uses: u64,
    /// Summed workspace `reuses` across buffers.
    pub workspace_reuses: u64,
    /// Summed bytes held across buffers.
    pub workspace_bytes: u64,
    /// Per-worker pool totals `(pool, worker, launches, nanos)`.
    pub workers: Vec<(String, u64, u64, u64)>,
    /// Degradation events (`point` events named `degradation`), in order.
    pub degradations: Vec<String>,
    /// Recovery events (`point` events named `recovery`), in order.
    pub recoveries: Vec<String>,
    /// Other point events `(name, detail)`, in order.
    pub notes: Vec<(String, String)>,
}

impl RunReport {
    /// Distills a report from an event timeline (as produced by
    /// [`crate::Telemetry::snapshot`]).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut report = RunReport::default();
        // id -> (kind, name, begin t_ns)
        let mut open: BTreeMap<u64, (SpanKind, String, u64)> = BTreeMap::new();
        let mut stage_order: Vec<String> = Vec::new();
        let mut stage_nanos: BTreeMap<String, u64> = BTreeMap::new();
        for ev in events {
            match ev {
                TraceEvent::Begin {
                    id,
                    kind,
                    name,
                    t_ns,
                    ..
                } => {
                    open.insert(*id, (*kind, name.to_string(), *t_ns));
                }
                TraceEvent::End { id, t_ns, .. } => {
                    if let Some((kind, name, t0)) = open.remove(id) {
                        let dur = t_ns.saturating_sub(t0);
                        match kind {
                            SpanKind::Flow => {
                                if report.flow.is_none() {
                                    report.flow = Some(name);
                                    report.total_seconds = dur as f64 * 1e-9;
                                }
                            }
                            SpanKind::Stage => {
                                if !stage_nanos.contains_key(&name) {
                                    stage_order.push(name.clone());
                                }
                                *stage_nanos.entry(name).or_insert(0) += dur;
                            }
                            SpanKind::Iteration | SpanKind::Kernel => {}
                        }
                    }
                }
                TraceEvent::Iter { hpwl, overflow, .. } => {
                    report.iterations += 1;
                    report.final_iter = Some((*hpwl, *overflow));
                }
                TraceEvent::Point { name, detail, .. } => match name.as_ref() {
                    "degradation" => report.degradations.push(detail.clone()),
                    "recovery" => report.recoveries.push(detail.clone()),
                    _ => report.notes.push((name.to_string(), detail.clone())),
                },
                TraceEvent::Kernel { name, calls, nanos } => {
                    report.kernels.push((name.to_string(), *calls, *nanos));
                }
                TraceEvent::Workspace {
                    uses,
                    reuses,
                    bytes,
                    ..
                } => {
                    report.workspace_uses += uses;
                    report.workspace_reuses += reuses;
                    report.workspace_bytes += bytes;
                }
                TraceEvent::Worker {
                    pool,
                    worker,
                    launches,
                    nanos,
                } => {
                    report
                        .workers
                        .push((pool.to_string(), *worker, *launches, *nanos));
                }
                TraceEvent::Meta { key, value } => {
                    report.meta.push((key.to_string(), value.clone()));
                }
            }
        }
        // A crashed run may leave the flow span open; fall back to the last
        // timestamp seen so the report still shows a sensible total.
        if report.flow.is_none() {
            let last_t = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Begin { t_ns, .. }
                    | TraceEvent::End { t_ns, .. }
                    | TraceEvent::Iter { t_ns, .. }
                    | TraceEvent::Point { t_ns, .. } => Some(*t_ns),
                    _ => None,
                })
                .max();
            if let Some((_, (_, name, t0))) = open
                .iter()
                .find(|(_, (kind, _, _))| *kind == SpanKind::Flow)
                .map(|(id, v)| (*id, v.clone()))
            {
                report.flow = Some(name);
                report.total_seconds = last_t.unwrap_or(t0).saturating_sub(t0) as f64 * 1e-9;
            }
        }
        report.stages = stage_order
            .into_iter()
            .map(|name| {
                let nanos = stage_nanos.get(&name).copied().unwrap_or(0);
                StageRow {
                    seconds: nanos as f64 * 1e-9,
                    name,
                }
            })
            .collect();
        report.kernels.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        report
    }

    /// Fraction of workspace leases that recycled an existing allocation
    /// (0 when nothing was leased).
    pub fn workspace_reuse_ratio(&self) -> f64 {
        if self.workspace_uses == 0 {
            0.0
        } else {
            self.workspace_reuses as f64 / self.workspace_uses as f64
        }
    }

    /// Renders the report as aligned plain text.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(out, "=== run report ===");
        if let Some(flow) = &self.flow {
            let _ = writeln!(out, "flow       {} ({:.3}s)", flow, self.total_seconds);
        }
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta       {k} = {v}");
        }
        if !self.stages.is_empty() {
            let _ = writeln!(out, "\nstage       wall-clock      share");
            let total: f64 = self.stages.iter().map(|s| s.seconds).sum();
            for s in &self.stages {
                let share = if total > 0.0 {
                    100.0 * s.seconds / total
                } else {
                    0.0
                };
                let _ = writeln!(out, "{:<10} {:>10.3}s {:>9.1}%", s.name, s.seconds, share);
            }
        }
        if self.iterations > 0 {
            let _ = write!(out, "\niterations {}", self.iterations);
            if let Some((hpwl, overflow)) = self.final_iter {
                let _ = write!(out, "  (final hpwl {hpwl:.6e}, overflow {overflow:.3})");
            }
            out.push('\n');
        }
        if !self.kernels.is_empty() {
            let _ = writeln!(out, "\ntop kernels by time");
            let _ = writeln!(out, "  {:<26} {:>9} {:>12}", "kernel", "calls", "total");
            for (name, calls, nanos) in self.kernels.iter().take(10) {
                let _ = writeln!(
                    out,
                    "  {:<26} {:>9} {:>12}",
                    name,
                    calls,
                    fmt_nanos(*nanos)
                );
            }
            if self.kernels.len() > 10 {
                let _ = writeln!(out, "  ... and {} more", self.kernels.len() - 10);
            }
        }
        if self.workspace_uses > 0 {
            let _ = writeln!(
                out,
                "\nworkspaces {} uses, {} reuses ({:.1}% reuse), {} held",
                self.workspace_uses,
                self.workspace_reuses,
                100.0 * self.workspace_reuse_ratio(),
                fmt_bytes(self.workspace_bytes)
            );
        }
        if !self.workers.is_empty() {
            let _ = writeln!(out, "\nworkers     launches       busy");
            for (pool, worker, launches, nanos) in &self.workers {
                let _ = writeln!(
                    out,
                    "{:<9}#{:<2} {:>8} {:>10}",
                    pool,
                    worker,
                    launches,
                    fmt_nanos(*nanos)
                );
            }
        }
        if self.degradations.is_empty() && self.recoveries.is_empty() {
            let _ = writeln!(out, "\ndegradations: none");
        } else {
            let _ = writeln!(
                out,
                "\ndegradations: {}  recoveries: {}",
                self.degradations.len(),
                self.recoveries.len()
            );
            for d in &self.degradations {
                let _ = writeln!(out, "  degraded:  {d}");
            }
            for r in &self.recoveries {
                let _ = writeln!(out, "  recovered: {r}");
            }
        }
        for (name, detail) in &self.notes {
            let _ = writeln!(out, "note: {name}: {detail}");
        }
        out
    }
}

/// `1234567` ns -> `"1.235ms"` (three significant units).
fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if n >= 1e9 {
        format!("{:.3}s", n * 1e-9)
    } else if n >= 1e6 {
        format!("{:.3}ms", n * 1e-6)
    } else if n >= 1e3 {
        format!("{:.3}us", n * 1e-3)
    } else {
        format!("{nanos}ns")
    }
}

/// `1536` -> `"1.5KiB"`.
fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1}GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1}MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1}KiB", b / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn begin(id: u64, parent: u64, kind: SpanKind, name: &'static str, t: u64) -> TraceEvent {
        TraceEvent::Begin {
            id,
            parent,
            kind,
            name: Cow::Borrowed(name),
            t_ns: t,
            tid: 0,
        }
    }

    fn end(id: u64, t: u64) -> TraceEvent {
        TraceEvent::End {
            id,
            t_ns: t,
            tid: 0,
        }
    }

    #[test]
    fn stages_and_flow_are_timed() {
        let evs = vec![
            begin(1, 0, SpanKind::Flow, "chip", 0),
            begin(2, 1, SpanKind::Stage, "gp", 100),
            end(2, 1_100),
            begin(3, 1, SpanKind::Stage, "lg", 1_200),
            end(3, 1_700),
            end(1, 2_000),
        ];
        let r = RunReport::from_events(&evs);
        assert_eq!(r.flow.as_deref(), Some("chip"));
        assert!((r.total_seconds - 2e-6).abs() < 1e-15);
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.stages[0].name, "gp");
        assert!((r.stages[0].seconds - 1e-6).abs() < 1e-15);
        assert_eq!(r.stages[1].name, "lg");
    }

    #[test]
    fn duplicate_stage_names_are_summed() {
        let evs = vec![
            begin(1, 0, SpanKind::Stage, "gp", 0),
            end(1, 100),
            begin(2, 0, SpanKind::Stage, "gp", 200),
            end(2, 500),
        ];
        let r = RunReport::from_events(&evs);
        assert_eq!(r.stages.len(), 1);
        assert!((r.stages[0].seconds - 400e-9).abs() < 1e-18);
    }

    #[test]
    fn unclosed_flow_span_still_reports_a_total() {
        let evs = vec![
            begin(1, 0, SpanKind::Flow, "chip", 1_000),
            begin(2, 1, SpanKind::Stage, "gp", 2_000),
            end(2, 5_000),
        ];
        let r = RunReport::from_events(&evs);
        assert_eq!(r.flow.as_deref(), Some("chip"));
        assert!((r.total_seconds - 4e-6).abs() < 1e-15);
    }

    #[test]
    fn kernels_sort_by_time_and_points_split_by_class() {
        let evs = vec![
            TraceEvent::Kernel {
                name: Cow::Borrowed("a"),
                calls: 1,
                nanos: 10,
            },
            TraceEvent::Kernel {
                name: Cow::Borrowed("b"),
                calls: 1,
                nanos: 99,
            },
            TraceEvent::Point {
                span: 0,
                name: Cow::Borrowed("degradation"),
                detail: "gp: diverged -> preset".into(),
                t_ns: 0,
                tid: 0,
            },
            TraceEvent::Point {
                span: 0,
                name: Cow::Borrowed("recovery"),
                detail: "rollback at iter 12".into(),
                t_ns: 1,
                tid: 0,
            },
        ];
        let r = RunReport::from_events(&evs);
        assert_eq!(r.kernels[0].0, "b");
        assert_eq!(r.degradations, vec!["gp: diverged -> preset"]);
        assert_eq!(r.recoveries, vec!["rollback at iter 12"]);
        let text = r.render();
        assert!(text.contains("degradations: 1"));
        assert!(text.contains("top kernels by time"));
    }

    #[test]
    fn reuse_ratio_handles_zero() {
        assert_eq!(RunReport::default().workspace_reuse_ratio(), 0.0);
    }

    #[test]
    fn render_smoke() {
        let evs = vec![
            TraceEvent::Meta {
                key: Cow::Borrowed("design"),
                value: "chip".into(),
            },
            begin(1, 0, SpanKind::Flow, "chip", 0),
            end(1, 1_000_000),
        ];
        let text = RunReport::from_events(&evs).render();
        assert!(text.contains("=== run report ==="));
        assert!(text.contains("flow       chip"));
        assert!(text.contains("meta       design = chip"));
        assert!(text.contains("degradations: none"));
    }
}
