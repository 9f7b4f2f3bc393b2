//! Unified telemetry for the placement flow.
//!
//! The paper's whole speedup story is told through per-kernel and per-phase
//! breakdowns; this crate is the layer every stage reports into so those
//! breakdowns come from *one* correlated timeline instead of ad-hoc stats
//! structs. It provides
//!
//! * a hierarchical **span** API (`flow -> stage -> iteration -> kernel`)
//!   with automatic parenting — [`Telemetry::span`] returns a guard whose
//!   drop closes the span, and spans opened while another is open become
//!   its children;
//! * **convergence traces** — [`Telemetry::iteration`] records one
//!   hpwl/overflow/lambda/gamma point per GP iteration;
//! * **timeline events** — [`Telemetry::point`] for degradations,
//!   recoveries, and sanitizer findings;
//! * **relaxed-atomic counters** — a one-cell [`KernelTimer`] per kernel
//!   and per-worker [`WorkerShards`] per pool — whose hot path is two
//!   relaxed atomic adds, read only when the trace is written: cheap
//!   enough to leave on inside the `WorkerPool`'s launch loop;
//! * a hand-rolled **JSONL sink** ([`Telemetry::write_jsonl`]; the offline
//!   build has no serde, so the writer follows the same flat-object
//!   discipline as the golden-record code in `dp-check`), and
//! * a human-readable **run report** ([`Telemetry::report`]): per-stage
//!   wall-clock table, top kernels by time, workspace reuse ratio, and the
//!   degradation/recovery summary.
//!
//! # Disabled is free
//!
//! [`Telemetry::disabled`] (the [`Default`]) carries no allocation at all —
//! every record call is a branch on an empty `Option` and returns
//! immediately. Telemetry never touches the numerics either way, so results
//! are bit-identical with the sink enabled or disabled; the golden
//! full-flow regression pins this.
//!
//! # Examples
//!
//! ```
//! use dp_telemetry::{SpanKind, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _flow = tel.span(SpanKind::Flow, "demo");
//!     let _gp = tel.span(SpanKind::Stage, "gp");
//!     tel.iteration(0, 1.0e5, 0.9, 1e-4, 3.0);
//!     tel.point("degradation", "gp: example -> fallback");
//! }
//! let mut out = Vec::new();
//! let lines = tel.write_jsonl(&mut out).unwrap();
//! assert!(lines >= 4);
//! ```

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod report;
pub mod shard;

pub use metrics::{Counter, Gauge, Histogram, Metrics};
pub use report::{RunReport, StageRow};
pub use shard::{KernelTimer, WorkerShards};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The level of a span in the `flow -> stage -> iteration -> kernel`
/// hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One end-to-end placement run.
    Flow,
    /// A pipeline stage (io, sanitize, gp, lg, dp).
    Stage,
    /// One optimizer iteration inside a stage.
    Iteration,
    /// One kernel launch or sub-phase (tetris pass, a DP operator, ...).
    Kernel,
}

impl SpanKind {
    /// Stable schema string (`flow`/`stage`/`iteration`/`kernel`).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Flow => "flow",
            SpanKind::Stage => "stage",
            SpanKind::Iteration => "iteration",
            SpanKind::Kernel => "kernel",
        }
    }

    /// Depth of the kind in the hierarchy (flow = 0 ... kernel = 3).
    /// A child span's level must be strictly greater than its parent's;
    /// levels may be skipped (a kernel span directly under a stage).
    pub fn level(self) -> u8 {
        match self {
            SpanKind::Flow => 0,
            SpanKind::Stage => 1,
            SpanKind::Iteration => 2,
            SpanKind::Kernel => 3,
        }
    }
}

/// One record on the telemetry timeline. `t_ns` is nanoseconds since the
/// sink was created; `tid` is the emitting thread (0 = the driving thread —
/// worker threads never emit events directly, they write into shards).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A span opened.
    Begin {
        /// Span id (unique, starts at 1).
        id: u64,
        /// Enclosing span id (0 = root).
        parent: u64,
        /// Hierarchy level.
        kind: SpanKind,
        /// Span name (stage name, design name, kernel name).
        name: Cow<'static, str>,
        /// Nanoseconds since sink creation.
        t_ns: u64,
        /// Emitting thread.
        tid: u64,
    },
    /// A span closed.
    End {
        /// Id of the span being closed.
        id: u64,
        /// Nanoseconds since sink creation.
        t_ns: u64,
        /// Emitting thread.
        tid: u64,
    },
    /// One convergence point of an optimizer loop.
    Iter {
        /// Enclosing span id (0 = none).
        span: u64,
        /// Iteration index (the optimizer step).
        iteration: u64,
        /// Exact HPWL at this iterate.
        hpwl: f64,
        /// Density overflow `tau`.
        overflow: f64,
        /// Density weight `lambda`.
        lambda: f64,
        /// Wirelength smoothing `gamma`.
        gamma: f64,
        /// Nanoseconds since sink creation.
        t_ns: u64,
        /// Emitting thread.
        tid: u64,
    },
    /// A timeline event (degradation, recovery, sanitizer finding, ...).
    Point {
        /// Enclosing span id (0 = none).
        span: u64,
        /// Event class (`degradation`, `recovery`, ...).
        name: Cow<'static, str>,
        /// Human-readable payload.
        detail: String,
        /// Nanoseconds since sink creation.
        t_ns: u64,
        /// Emitting thread.
        tid: u64,
    },
    /// Totals of one kernel's timer (emitted when the trace is written,
    /// not per call).
    Kernel {
        /// Kernel name.
        name: Cow<'static, str>,
        /// Recorded invocations.
        calls: u64,
        /// Total nanoseconds across invocations.
        nanos: u64,
    },
    /// Workspace reuse counters for one scratch buffer.
    Workspace {
        /// Workspace key.
        name: Cow<'static, str>,
        /// Lease/prepare count.
        uses: u64,
        /// Uses that recycled an existing allocation.
        reuses: u64,
        /// Bytes held at the most recent use.
        bytes: u64,
    },
    /// Per-worker busy totals of one pool.
    Worker {
        /// Pool label.
        pool: Cow<'static, str>,
        /// Worker index (0 = the calling thread).
        worker: u64,
        /// Launches this worker participated in.
        launches: u64,
        /// Nanoseconds spent draining chunks.
        nanos: u64,
    },
    /// Free-form run metadata (design name, cell counts, ...).
    Meta {
        /// Metadata key.
        key: Cow<'static, str>,
        /// Metadata value.
        value: String,
    },
}

struct Inner {
    start: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
    /// Open-span stack for automatic parenting. Spans are opened and
    /// closed by the driving thread in LIFO order; worker threads only
    /// write into shards.
    stack: Mutex<Vec<u64>>,
    kernels: Mutex<BTreeMap<&'static str, Arc<KernelTimer>>>,
    pools: Mutex<BTreeMap<&'static str, Arc<WorkerShards>>>,
}

/// The telemetry handle threaded through the stack. Cloning shares the
/// sink; the [`Telemetry::disabled`] handle is an empty `Option` and every
/// operation on it returns immediately.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// `Debug` prints only the on/off state: the event buffer is not useful in
/// config dumps and may be large.
impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

impl Telemetry {
    /// A no-op sink: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording sink; timestamps are relative to this call.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                next_id: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                stack: Mutex::new(Vec::new()),
                kernels: Mutex::new(BTreeMap::new()),
                pools: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends an event, stamping `t_ns` *inside* the buffer lock so file
    /// order and timestamps agree (the monotonicity the trace validator
    /// checks).
    fn push_timed(&self, make: impl FnOnce(u64, u64) -> TraceEvent) {
        if let Some(inner) = &self.inner {
            let mut events = lock(&inner.events);
            let t_ns = inner.start.elapsed().as_nanos() as u64;
            events.push(make(t_ns, 0));
        }
    }

    /// Opens a span; the returned guard closes it on drop. While the guard
    /// lives, spans opened on this handle become its children.
    pub fn span(&self, kind: SpanKind, name: impl Into<Cow<'static, str>>) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                tel: Telemetry::disabled(),
                id: 0,
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut stack = lock(&inner.stack);
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        };
        let name = name.into();
        self.push_timed(|t_ns, tid| TraceEvent::Begin {
            id,
            parent,
            kind,
            name,
            t_ns,
            tid,
        });
        Span {
            tel: self.clone(),
            id,
        }
    }

    fn close_span(&self, id: u64) {
        let Some(inner) = &self.inner else { return };
        {
            let mut stack = lock(&inner.stack);
            // Defensive: pop past any child left open by an early return so
            // the stack cannot grow without bound. (Span guards make this
            // unreachable in practice.)
            while let Some(top) = stack.pop() {
                if top == id {
                    break;
                }
            }
        }
        self.push_timed(|t_ns, tid| TraceEvent::End { id, t_ns, tid });
    }

    fn current_span(&self) -> u64 {
        match &self.inner {
            Some(inner) => lock(&inner.stack).last().copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Records a timeline event under the innermost open span.
    pub fn point(&self, name: impl Into<Cow<'static, str>>, detail: impl fmt::Display) {
        if self.inner.is_none() {
            return;
        }
        let span = self.current_span();
        let name = name.into();
        let detail = detail.to_string();
        self.push_timed(|t_ns, tid| TraceEvent::Point {
            span,
            name,
            detail,
            t_ns,
            tid,
        });
    }

    /// Records one convergence point under the innermost open span.
    pub fn iteration(&self, iteration: usize, hpwl: f64, overflow: f64, lambda: f64, gamma: f64) {
        if self.inner.is_none() {
            return;
        }
        let span = self.current_span();
        self.push_timed(|t_ns, tid| TraceEvent::Iter {
            span,
            iteration: iteration as u64,
            hpwl,
            overflow,
            lambda,
            gamma,
            t_ns,
            tid,
        });
    }

    /// Records run metadata.
    pub fn meta(&self, key: impl Into<Cow<'static, str>>, value: impl fmt::Display) {
        if self.inner.is_none() {
            return;
        }
        let key = key.into();
        let value = value.to_string();
        if let Some(inner) = &self.inner {
            lock(&inner.events).push(TraceEvent::Meta { key, value });
        }
    }

    /// The timer for kernel `name`, registering it on first use. `None`
    /// when disabled. The hot path (`KernelTimer::record`) is two relaxed
    /// atomic adds; totals are read when the trace is written.
    pub fn kernel_timer(&self, name: &'static str) -> Option<Arc<KernelTimer>> {
        let inner = self.inner.as_ref()?;
        let mut kernels = lock(&inner.kernels);
        Some(Arc::clone(kernels.entry(name).or_default()))
    }

    /// The per-worker busy shards for pool `label`, registering on first
    /// use. `None` when disabled.
    pub fn worker_shards(&self, label: &'static str, workers: usize) -> Option<Arc<WorkerShards>> {
        let inner = self.inner.as_ref()?;
        let mut pools = lock(&inner.pools);
        Some(Arc::clone(
            pools
                .entry(label)
                .or_insert_with(|| Arc::new(WorkerShards::new(workers))),
        ))
    }

    /// A guard that is both a kernel-level span and a kernel-timer
    /// record: on drop it closes the span and adds the elapsed nanoseconds
    /// to the kernel's totals. For once-per-stage phases (legalizer passes,
    /// DP operators), not per-iteration kernels.
    pub fn kernel_span(&self, name: &'static str) -> KernelSpan {
        if !self.is_enabled() {
            return KernelSpan {
                _span: Span {
                    tel: Telemetry::disabled(),
                    id: 0,
                },
                timer: None,
                t0: None,
            };
        }
        KernelSpan {
            _span: self.span(SpanKind::Kernel, name),
            timer: self.kernel_timer(name),
            t0: Some(Instant::now()),
        }
    }

    /// Snapshot of every event, with the kernel and per-worker pool totals
    /// appended. This is what the JSONL sink writes and the report
    /// summarizes.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut events = lock(&inner.events).clone();
        for (name, timer) in lock(&inner.kernels).iter() {
            let (calls, nanos) = timer.total();
            if calls > 0 {
                events.push(TraceEvent::Kernel {
                    name: Cow::Borrowed(name),
                    calls,
                    nanos,
                });
            }
        }
        for (label, shards) in lock(&inner.pools).iter() {
            for (worker, (launches, nanos)) in shards.per_worker().into_iter().enumerate() {
                if launches > 0 {
                    events.push(TraceEvent::Worker {
                        pool: Cow::Borrowed(label),
                        worker: worker as u64,
                        launches,
                        nanos,
                    });
                }
            }
        }
        events
    }

    /// Timeline events from index `from` onward, rendered as JSON lines,
    /// plus the cursor to pass on the next poll. Unlike
    /// [`Telemetry::snapshot`] this does **not** append the merged
    /// kernel/worker totals — those are end-of-run aggregates and would be
    /// re-emitted (with ever-growing counts) on every poll. The timeline
    /// is append-only, so successive polls with the returned cursor stream
    /// each event exactly once, in order. `dp-serve` uses this to forward
    /// a live job's progress to its client.
    pub fn events_since(&self, from: usize) -> (usize, Vec<String>) {
        let Some(inner) = &self.inner else {
            return (from, Vec::new());
        };
        let events = lock(&inner.events);
        let start = from.min(events.len());
        let lines = events[start..].iter().map(jsonl::to_json_line).collect();
        (events.len(), lines)
    }

    /// Records workspace counters (one [`TraceEvent::Workspace`] per entry).
    /// Callers pass the *merged* summary of a run so restarts do not
    /// double-count.
    pub fn workspaces<'a>(&self, entries: impl IntoIterator<Item = (&'a str, u64, u64, u64)>) {
        let Some(inner) = &self.inner else { return };
        let mut events = lock(&inner.events);
        for (name, uses, reuses, bytes) in entries {
            events.push(TraceEvent::Workspace {
                name: Cow::Owned(name.to_string()),
                uses,
                reuses,
                bytes,
            });
        }
    }

    /// Writes the trace as JSONL (one event per line). Returns the number
    /// of lines written.
    ///
    /// # Errors
    ///
    /// Propagates any write error from `w`.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<usize> {
        let events = self.snapshot();
        for ev in &events {
            w.write_all(jsonl::to_json_line(ev).as_bytes())?;
            w.write_all(b"\n")?;
        }
        Ok(events.len())
    }

    /// Writes the trace to `path` (creating parent directories).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let n = self.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)?;
        Ok(n)
    }

    /// The end-of-run report; `None` when disabled.
    pub fn report(&self) -> Option<RunReport> {
        if self.is_enabled() {
            Some(RunReport::from_events(&self.snapshot()))
        } else {
            None
        }
    }
}

/// An open span; dropping it records the end event. Obtained from
/// [`Telemetry::span`].
#[must_use = "dropping the guard immediately closes the span"]
pub struct Span {
    tel: Telemetry,
    id: u64,
}

impl Span {
    /// The span id (0 for disabled telemetry).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id != 0 {
            self.tel.close_span(self.id);
        }
    }
}

/// A kernel-level span that also feeds the kernel's timer on drop;
/// see [`Telemetry::kernel_span`].
#[must_use = "dropping the guard immediately closes the kernel span"]
pub struct KernelSpan {
    /// Held only for its drop, which closes the span after the timer is fed.
    _span: Span,
    timer: Option<Arc<KernelTimer>>,
    t0: Option<Instant>,
}

impl Drop for KernelSpan {
    fn drop(&mut self) {
        if let (Some(timer), Some(t0)) = (&self.timer, self.t0) {
            timer.record(t0.elapsed().as_nanos() as u64);
        }
        // `self._span` drops after, closing the span.
    }
}

/// Locks a mutex, ignoring poisoning: the guarded state is only mutated by
/// panic-free bookkeeping (pushes and counter bumps), so a poisoned lock
/// still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_allocates_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        {
            let s = tel.span(SpanKind::Flow, "x");
            assert_eq!(s.id(), 0);
            tel.iteration(0, 1.0, 0.5, 0.1, 2.0);
            tel.point("degradation", "nope");
            tel.meta("k", "v");
        }
        assert!(tel.snapshot().is_empty());
        assert!(tel.report().is_none());
        assert!(tel.kernel_timer("k").is_none());
        assert!(tel.worker_shards("p", 2).is_none());
    }

    #[test]
    fn events_since_streams_each_event_once_in_order() {
        let tel = Telemetry::enabled();
        tel.meta("design", "a");
        let (cur, first) = tel.events_since(0);
        assert_eq!(first.len(), 1);
        assert!(first[0].contains("design"));
        // No new events: same cursor, nothing streamed.
        let (cur2, none) = tel.events_since(cur);
        assert_eq!(cur2, cur);
        assert!(none.is_empty());
        tel.iteration(1, 2.0, 0.5, 0.1, 3.0);
        tel.point("degradation", "lg");
        let (cur3, next) = tel.events_since(cur2);
        assert_eq!(next.len(), 2);
        assert!(next[0].contains("\"iter\""));
        assert!(next[1].contains("degradation"));
        assert_eq!(cur3, cur2 + 2);
        // Kernel totals stay out of the incremental stream (end-of-run
        // aggregates), but still land in the full snapshot.
        tel.kernel_timer("wirelength").unwrap().record(7);
        let (_, after_kernel) = tel.events_since(cur3);
        assert!(after_kernel.is_empty());
        assert!(tel
            .snapshot()
            .iter()
            .any(|e| matches!(e, TraceEvent::Kernel { .. })));
        // A disabled handle never advances.
        assert_eq!(Telemetry::disabled().events_since(5), (5, Vec::new()));
    }

    #[test]
    fn spans_nest_and_balance() {
        let tel = Telemetry::enabled();
        {
            let flow = tel.span(SpanKind::Flow, "f");
            let stage = tel.span(SpanKind::Stage, "gp");
            assert!(stage.id() > flow.id());
            {
                let _iter = tel.span(SpanKind::Iteration, "iter");
                tel.iteration(3, 1.0, 0.5, 0.1, 2.0);
            }
        }
        let evs = tel.snapshot();
        let begins: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Begin { id, parent, .. } => Some((*id, *parent)),
                _ => None,
            })
            .collect();
        let ends: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::End { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(begins.len(), 3);
        assert_eq!(ends.len(), 3);
        // flow is a root; stage is under flow; iteration under stage.
        assert_eq!(begins[0].1, 0);
        assert_eq!(begins[1].1, begins[0].0);
        assert_eq!(begins[2].1, begins[1].0);
        // The iter point landed under the iteration span.
        let iter_span = evs
            .iter()
            .find_map(|e| match e {
                TraceEvent::Iter { span, .. } => Some(*span),
                _ => None,
            })
            .unwrap();
        assert_eq!(iter_span, begins[2].0);
        // LIFO close order.
        assert_eq!(ends, vec![begins[2].0, begins[1].0, begins[0].0]);
    }

    #[test]
    fn timestamps_match_file_order() {
        let tel = Telemetry::enabled();
        for i in 0..100 {
            tel.point("p", i);
        }
        let evs = tel.snapshot();
        let mut last = 0u64;
        for e in &evs {
            if let TraceEvent::Point { t_ns, .. } = e {
                assert!(*t_ns >= last);
                last = *t_ns;
            }
        }
    }

    #[test]
    fn kernel_totals_are_merged_into_snapshot() {
        let tel = Telemetry::enabled();
        let timer = tel.kernel_timer("wa.forward").unwrap();
        timer.record(100);
        timer.record(50);
        // Re-registration returns the same timer.
        let again = tel.kernel_timer("wa.forward").unwrap();
        again.record(25);
        let evs = tel.snapshot();
        let kernel = evs
            .iter()
            .find_map(|e| match e {
                TraceEvent::Kernel { name, calls, nanos } if name == "wa.forward" => {
                    Some((*calls, *nanos))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(kernel, (3, 175));
    }

    #[test]
    fn kernel_span_feeds_both_span_tree_and_totals() {
        let tel = Telemetry::enabled();
        {
            let _s = tel.kernel_span("lg.tetris");
        }
        let evs = tel.snapshot();
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::Begin { kind: SpanKind::Kernel, name, .. } if name == "lg.tetris"
        )));
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::Kernel { name, calls: 1, .. } if name == "lg.tetris"
        )));
    }

    #[test]
    fn worker_shards_report_per_worker_totals() {
        let tel = Telemetry::enabled();
        let shards = tel.worker_shards("gp-pool", 3).unwrap();
        shards.record(0, 10);
        shards.record(2, 20);
        shards.record(2, 5);
        let evs = tel.snapshot();
        let workers: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Worker {
                    worker,
                    launches,
                    nanos,
                    ..
                } => Some((*worker, *launches, *nanos)),
                _ => None,
            })
            .collect();
        assert_eq!(workers, vec![(0, 1, 10), (2, 2, 25)]);
    }

    #[test]
    fn write_jsonl_emits_one_line_per_event() {
        let tel = Telemetry::enabled();
        tel.meta("design", "demo");
        {
            let _f = tel.span(SpanKind::Flow, "demo");
        }
        let mut out = Vec::new();
        let n = tel.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), n);
        assert_eq!(n, 3);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
