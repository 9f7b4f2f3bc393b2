//! A zero-dependency service metrics plane: counters, gauges, and
//! fixed-bucket histograms behind one lock-free registry, with a
//! Prometheus-text-format encoder.
//!
//! The trace layer ([`crate::Telemetry`]) answers "what happened inside
//! *this* run"; this module answers "how is the *service* doing" — queue
//! depths, step-latency distributions, jobs by terminal outcome, panics
//! contained — the numbers an operator scrapes off a live `dp-serve`
//! daemon to prove sustained placement throughput.
//!
//! # Discipline
//!
//! * **Hot path is relaxed atomics.** Incrementing a [`Counter`], setting a
//!   [`Gauge`], or observing into a [`Histogram`] is one or two
//!   `Ordering::Relaxed` operations on a cached `Arc` cell — the same
//!   discipline as [`crate::shard`]. The registry mutex is taken only at
//!   registration and at render time, never per sample.
//! * **Disabled is free.** [`Metrics::disabled`] (the [`Default`]) holds no
//!   allocation; every handle minted from it is an empty `Option` and every
//!   record call returns after one branch. Metrics never feed back into the
//!   numerics, so placements are bit-identical either way.
//! * **Hand-rolled text output.** The offline build has no serde, so the
//!   encoder writes the Prometheus text format directly, in deterministic
//!   (BTreeMap) order: families sorted by name, series sorted by label set.
//!
//! # Naming scheme
//!
//! `dp_<layer>_<what>[_total|_seconds]` with layers `sched` (scheduler),
//! `pool` (worker pool), and `serve` (daemon sessions/protocol). Counters
//! end in `_total`, durations in `_seconds`; histograms follow the
//! Prometheus `_bucket`/`_sum`/`_count` convention. The registry itself
//! contributes `dp_uptime_seconds` (seconds since [`Metrics::enabled`]) so
//! every exposition carries process age without the caller having to
//! refresh a gauge.
//!
//! # Examples
//!
//! ```
//! use dp_telemetry::metrics::Metrics;
//!
//! let metrics = Metrics::enabled();
//! let jobs = metrics.counter_with(
//!     "dp_sched_jobs_total",
//!     "Jobs by terminal outcome.",
//!     &[("outcome", "completed")],
//! );
//! jobs.inc();
//! let text = metrics.render();
//! assert!(text.contains("dp_sched_jobs_total{outcome=\"completed\"} 1"));
//! ```

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bucket upper bounds (seconds) for step/queue latency histograms: dense
/// in the millisecond range where individual scheduler steps land, sparse
/// out to the minutes a heavy full placement can take.
pub const LATENCY_BUCKETS: [f64; 14] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0,
];

/// The kind of a metric family (drives `# TYPE` and render shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter cell.
#[derive(Default)]
struct CounterCell {
    value: AtomicU64,
}

/// A gauge cell storing `f64` bits.
#[derive(Default)]
struct GaugeCell {
    bits: AtomicU64,
}

/// A fixed-bucket histogram cell. Per-bucket counts are stored
/// non-cumulative and cumulated at render time, so `observe` touches
/// exactly one bucket slot plus the count and sum.
struct HistogramCell {
    /// Ascending upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One slot per bound plus the overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum as `f64` bits, advanced by a CAS loop (cold enough —
    /// one observe per scheduler step, not per kernel launch).
    sum_bits: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[f64]) -> Self {
        let mut sorted: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        sorted.dedup();
        let slots = sorted.len() + 1;
        Self {
            bounds: sorted,
            buckets: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// One registered time series (a family member at one label set).
enum Series {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

/// A metric family: one name, one help string, one kind, many label sets.
struct Family {
    help: String,
    kind: Kind,
    series: BTreeMap<String, Series>,
}

struct Registry {
    start: Instant,
    families: Mutex<BTreeMap<String, Family>>,
}

/// The metrics handle threaded through the stack. Cloning shares the
/// registry; the [`Metrics::disabled`] handle mints no-op instruments.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

/// `Debug` prints only the on/off state (the registry may be large).
impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() {
            "Metrics(enabled)"
        } else {
            "Metrics(disabled)"
        })
    }
}

impl Metrics {
    /// A no-op registry: instruments minted from it record nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live registry; `dp_uptime_seconds` is relative to this call.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Registry {
                start: Instant::now(),
                families: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether samples are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) the unlabelled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or re-fetches) counter `name` at the given label set.
    /// Re-registration with the same name and labels returns a handle onto
    /// the same cell; a kind clash with an existing family returns a
    /// detached cell that records but never renders (callers cannot panic
    /// the service by mis-registering).
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter { cell: None };
        };
        let mut families = lock(&inner.families);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: Kind::Counter,
            series: BTreeMap::new(),
        });
        if family.kind != Kind::Counter {
            return Counter {
                cell: Some(Arc::new(CounterCell::default())),
            };
        }
        let entry = family
            .series
            .entry(render_labels(labels))
            .or_insert_with(|| Series::Counter(Arc::new(CounterCell::default())));
        match entry {
            Series::Counter(cell) => Counter {
                cell: Some(Arc::clone(cell)),
            },
            _ => Counter {
                cell: Some(Arc::new(CounterCell::default())),
            },
        }
    }

    /// Registers (or re-fetches) the unlabelled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or re-fetches) gauge `name` at the given label set (same
    /// clash rules as [`Metrics::counter_with`]).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge { cell: None };
        };
        let mut families = lock(&inner.families);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: Kind::Gauge,
            series: BTreeMap::new(),
        });
        if family.kind != Kind::Gauge {
            return Gauge {
                cell: Some(Arc::new(GaugeCell::default())),
            };
        }
        let entry = family
            .series
            .entry(render_labels(labels))
            .or_insert_with(|| Series::Gauge(Arc::new(GaugeCell::default())));
        match entry {
            Series::Gauge(cell) => Gauge {
                cell: Some(Arc::clone(cell)),
            },
            _ => Gauge {
                cell: Some(Arc::new(GaugeCell::default())),
            },
        }
    }

    /// Registers (or re-fetches) the unlabelled histogram `name` with the
    /// given ascending bucket upper bounds (an `+Inf` bucket is implicit).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers (or re-fetches) histogram `name` at the given label set
    /// (same clash rules as [`Metrics::counter_with`]; bounds are fixed by
    /// the first registration).
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram { cell: None };
        };
        let mut families = lock(&inner.families);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: Kind::Histogram,
            series: BTreeMap::new(),
        });
        if family.kind != Kind::Histogram {
            return Histogram {
                cell: Some(Arc::new(HistogramCell::new(bounds))),
            };
        }
        let entry = family
            .series
            .entry(render_labels(labels))
            .or_insert_with(|| Series::Histogram(Arc::new(HistogramCell::new(bounds))));
        match entry {
            Series::Histogram(cell) => Histogram {
                cell: Some(Arc::clone(cell)),
            },
            _ => Histogram {
                cell: Some(Arc::new(HistogramCell::new(bounds))),
            },
        }
    }

    /// Seconds since [`Metrics::enabled`] (0 when disabled).
    pub fn uptime_seconds(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format, deterministically: families in name order, series in label
    /// order, histogram buckets cumulative with a trailing `+Inf`. A
    /// synthetic `dp_uptime_seconds` gauge is appended so scrapes carry
    /// process age even between caller-side gauge refreshes. Returns the
    /// empty string when disabled.
    pub fn render(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut out = String::new();
        let families = lock(&inner.families);
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(cell) => {
                        let v = cell.value.load(Ordering::Relaxed);
                        let _ = writeln!(out, "{name}{} {v}", braced(labels));
                    }
                    Series::Gauge(cell) => {
                        let v = f64::from_bits(cell.bits.load(Ordering::Relaxed));
                        let _ = writeln!(out, "{name}{} {}", braced(labels), fmt_f64(v));
                    }
                    Series::Histogram(cell) => {
                        let mut cumulative = 0u64;
                        for (slot, bound) in cell.bounds.iter().enumerate() {
                            cumulative += cell.buckets[slot].load(Ordering::Relaxed);
                            let le = fmt_f64(*bound);
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                braced(&with_le(labels, &le))
                            );
                        }
                        cumulative += cell.buckets[cell.bounds.len()].load(Ordering::Relaxed);
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            braced(&with_le(labels, "+Inf"))
                        );
                        let sum = f64::from_bits(cell.sum_bits.load(Ordering::Relaxed));
                        let _ = writeln!(out, "{name}_sum{} {}", braced(labels), fmt_f64(sum));
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            braced(labels),
                            cell.count.load(Ordering::Relaxed)
                        );
                    }
                }
            }
        }
        drop(families);
        let _ = writeln!(out, "# HELP dp_uptime_seconds Seconds since the metrics registry was created.");
        let _ = writeln!(out, "# TYPE dp_uptime_seconds gauge");
        let _ = writeln!(out, "dp_uptime_seconds {}", fmt_f64(self.uptime_seconds()));
        out
    }
}

/// A counter handle; cloning shares the cell. Minted by
/// [`Metrics::counter_with`]; a handle from a disabled registry is a no-op.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (one relaxed atomic add).
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        match &self.cell {
            Some(cell) => cell.value.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// A gauge handle; cloning shares the cell.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Stores `v` (one relaxed atomic store of the f64 bits).
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        match &self.cell {
            Some(cell) => f64::from_bits(cell.bits.load(Ordering::Relaxed)),
            None => 0.0,
        }
    }
}

/// A histogram handle; cloning shares the cell.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one observation: one bucket add, one count add, one CAS on
    /// the running sum.
    pub fn observe(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.observe(v);
        }
    }

    /// Observations recorded so far (0 when disabled).
    pub fn count(&self) -> u64 {
        match &self.cell {
            Some(cell) => cell.count.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Sum of observations so far (0.0 when disabled).
    pub fn sum(&self) -> f64 {
        match &self.cell {
            Some(cell) => f64::from_bits(cell.sum_bits.load(Ordering::Relaxed)),
            None => 0.0,
        }
    }
}

/// Renders a label set into its canonical series key: pairs sorted by key,
/// `k="v"` with Prometheus escaping, comma-joined, no braces.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out
}

/// Appends `le="<bound>"` to a rendered label set (the histogram bucket
/// label, conventionally last).
fn with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("le=\"{le}\"")
    } else {
        format!("{labels},le=\"{le}\"")
    }
}

/// Wraps a rendered label set in braces, or nothing when unlabelled.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// Escapes a label value per the text format: backslash, quote, newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Escapes a help string per the text format: backslash and newline.
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Formats an `f64` for the text format: integral values render without a
/// fraction so counters-in-gauges stay grep-friendly; everything else uses
/// Rust's shortest-roundtrip float display.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Locks a mutex, ignoring poisoning: the guarded maps are only mutated by
/// panic-free bookkeeping (entry insertions), so a poisoned lock still
/// holds consistent data.
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
    fn disabled_is_noop() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        let c = m.counter("dp_x_total", "x");
        c.inc();
        assert_eq!(c.get(), 0);
        let g = m.gauge("dp_g", "g");
        g.set(3.0);
        assert_eq!(g.get(), 0.0);
        let h = m.histogram("dp_h_seconds", "h", &LATENCY_BUCKETS);
        h.observe(0.5);
        assert_eq!(h.count(), 0);
        assert!(m.render().is_empty());
    }

    #[test]
    fn counter_shares_cell_across_registrations() {
        let m = Metrics::enabled();
        let a = m.counter_with("dp_jobs_total", "jobs", &[("outcome", "completed")]);
        let b = m.counter_with("dp_jobs_total", "jobs", &[("outcome", "completed")]);
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
        // A different label set is a different series.
        let other = m.counter_with("dp_jobs_total", "jobs", &[("outcome", "failed")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn labels_are_canonicalized_by_key_order() {
        let m = Metrics::enabled();
        let a = m.counter_with("dp_t_total", "t", &[("b", "2"), ("a", "1")]);
        let b = m.counter_with("dp_t_total", "t", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(m.render().contains("dp_t_total{a=\"1\",b=\"2\"} 1"));
    }

    #[test]
    fn kind_clash_returns_detached_cell() {
        let m = Metrics::enabled();
        let c = m.counter("dp_clash", "as counter");
        c.inc();
        let g = m.gauge("dp_clash", "as gauge");
        g.set(7.0);
        // The gauge recorded into a detached cell; the render still shows
        // the counter and exactly one dp_clash series.
        let text = m.render();
        assert!(text.contains("dp_clash 1"));
        assert_eq!(text.matches("# TYPE dp_clash ").count(), 1);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let m = Metrics::enabled();
        let h = m.histogram("dp_lat_seconds", "latency", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = m.render();
        assert!(text.contains("dp_lat_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("dp_lat_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("dp_lat_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("dp_lat_seconds_count 3"));
        assert!(text.contains("dp_lat_seconds_sum 5.55"));
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5.55).abs() < 1e-12);
    }

    #[test]
    fn histogram_labeled_buckets_keep_le_last() {
        let m = Metrics::enabled();
        let h = m.histogram_with("dp_step_seconds", "steps", &[0.5], &[("stage", "gp")]);
        h.observe(0.1);
        let text = m.render();
        assert!(text.contains("dp_step_seconds_bucket{stage=\"gp\",le=\"0.5\"} 1"));
        assert!(text.contains("dp_step_seconds_sum{stage=\"gp\"}"));
        assert!(text.contains("dp_step_seconds_count{stage=\"gp\"} 1"));
    }

    #[test]
    fn render_is_deterministic_and_has_no_duplicate_series() {
        let m = Metrics::enabled();
        m.counter_with("dp_b_total", "b", &[("q", "1")]).inc();
        m.counter_with("dp_a_total", "a", &[]).inc();
        m.gauge("dp_c", "c").set(2.5);
        let text = m.render();
        // Families in name order.
        let a = text.find("# TYPE dp_a_total").unwrap();
        let b = text.find("# TYPE dp_b_total").unwrap();
        let c = text.find("# TYPE dp_c").unwrap();
        assert!(a < b && b < c);
        // No duplicate sample lines.
        let mut seen = std::collections::BTreeSet::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let key = line.split_whitespace().next().unwrap().to_string();
            assert!(seen.insert(key), "duplicate series: {line}");
        }
        // Gauge value renders with its fraction.
        assert!(text.contains("dp_c 2.5"));
        // Uptime is always appended.
        assert!(text.contains("# TYPE dp_uptime_seconds gauge"));
    }

    #[test]
    fn fmt_f64_edge_cases() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(42.0), "42");
        assert_eq!(fmt_f64(-3.0), "-3");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let m = Metrics::enabled();
        let c = m.counter("dp_conc_total", "c");
        let h = m.histogram("dp_conc_seconds", "h", &[0.5]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(if i % 2 == 0 { 0.1 } else { 1.0 });
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 4.0 * (500.0 * 0.1 + 500.0 * 1.0)).abs() < 1e-9);
    }
}
