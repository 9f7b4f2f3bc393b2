//! Benchmark harness regenerating every table and figure of the DREAMPlace
//! paper (TCAD'20).
//!
//! Each table/figure has a binary (`cargo run -p dp-bench --release --bin
//! table2` etc.) printing the same rows the paper reports. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.
//!
//! Designs are the paper's suites scaled down by the `DP_SCALE` environment
//! variable (default 64), so the whole harness runs on laptop-class
//! hardware; the *shapes* of the comparisons are scale-invariant.

use std::time::Instant;

use dp_gen::DesignPreset;
use dreamplace_core::{DreamPlacer, FlowConfig, ToolMode};

/// The suite scale divisor from `DP_SCALE` (default 64, minimum 1).
pub fn scale() -> usize {
    std::env::var("DP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
        .max(1)
}

/// Loads a preset at the harness scale and generates it in `f64`.
pub fn generate(preset: DesignPreset, extra_scale: usize) -> dp_gen::GeneratedDesign<f64> {
    preset
        .scaled_down(scale() * extra_scale)
        .config
        .generate::<f64>()
        .expect("presets always generate")
}

/// One table row of flow results.
#[derive(Debug, Clone, Copy)]
pub struct FlowRow {
    /// Final HPWL (after DP).
    pub hpwl: f64,
    /// Seconds in global placement.
    pub gp: f64,
    /// Seconds in legalization.
    pub lg: f64,
    /// Seconds in detailed placement.
    pub dp: f64,
    /// Seconds in Bookshelf IO (0 when disabled).
    pub io: f64,
    /// Total flow seconds.
    pub total: f64,
}

impl FlowRow {
    /// Extracts the row from a finished flow result.
    pub fn from_result(r: &dreamplace_core::FlowResult<f64>) -> Self {
        Self {
            hpwl: r.hpwl_final,
            gp: r.timing.gp,
            lg: r.timing.lg,
            dp: r.timing.dp,
            io: r.timing.io,
            total: r.timing.total,
        }
    }
}

/// Runs the full flow in the given mode and returns the row.
pub fn run_flow(
    mode: ToolMode,
    design: &dp_gen::GeneratedDesign<f64>,
    io_roundtrip: bool,
) -> FlowRow {
    let (row, _) = run_flow_traced(
        mode,
        design,
        io_roundtrip,
        dp_telemetry::Telemetry::disabled(),
    );
    row
}

/// Runs the full flow with `telemetry` installed and returns the row plus
/// the end-of-run report (the same one the CLI prints for `--trace`;
/// `None` when telemetry is disabled). Bench binaries use this to show
/// per-stage and per-kernel breakdowns next to the paper's table rows.
pub fn run_flow_traced(
    mode: ToolMode,
    design: &dp_gen::GeneratedDesign<f64>,
    io_roundtrip: bool,
    telemetry: dp_telemetry::Telemetry,
) -> (FlowRow, Option<dp_telemetry::RunReport>) {
    let mut config = FlowConfig::for_mode(mode, &design.netlist);
    config.io_roundtrip = io_roundtrip;
    config.telemetry = telemetry.clone();
    let r = DreamPlacer::new(config)
        .place(design)
        .unwrap_or_else(|e| panic!("flow failed on {}: {e}", design.name));
    (FlowRow::from_result(&r), telemetry.report())
}

/// Global-placement seconds of one flow without detailed placement (what
/// Figs. 7 and 8 compare), or the flow's one-line diagnosis when it fails.
pub fn gp_seconds<T: dp_num::Float>(
    mode: ToolMode,
    design: &dp_gen::GeneratedDesign<T>,
) -> Result<f64, String> {
    let mut config = FlowConfig::for_mode(mode, &design.netlist);
    config.run_dp = false;
    DreamPlacer::new(config)
        .place(design)
        .map(|r| r.timing.gp)
        .map_err(|e| e.diagnosis())
}

/// A right-aligned table cell with two decimals, or `n/a (<diagnosis>)`
/// for a measurement that failed.
pub fn cell(r: &Result<f64, String>, width: usize) -> String {
    match r {
        Ok(v) => format!("{v:>width$.2}"),
        Err(why) => format!("n/a ({why})"),
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs `f` `reps` times and returns the best (minimum) seconds — the
/// standard way to suppress scheduler noise in kernel micro-benchmarks.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (_, t) = time_it(&mut f);
        best = best.min(t);
    }
    best
}

/// Geometric mean of per-design ratios (the paper's "ratio" rows).
pub fn ratio_row(values: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(
        values.len(),
        reference.len(),
        "ratio rows need matched lengths"
    );
    let ratios: Vec<f64> = values
        .iter()
        .zip(reference)
        .filter(|(v, r)| **v > 0.0 && **r > 0.0)
        .map(|(v, r)| v / r)
        .collect();
    dp_num::stats::geomean(&ratios)
}

/// Prints a separator line of the given width.
pub fn hr(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_row_matches_geomean() {
        let r = ratio_row(&[2.0, 8.0], &[1.0, 2.0]);
        assert!((r - (2.0f64 * 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn best_of_returns_minimum() {
        let mut k = 0u64;
        let t = best_of(3, || {
            k += 1;
            std::thread::sleep(std::time::Duration::from_millis(k));
        });
        assert!(t < 0.01, "best run should be the 1ms one, got {t}");
    }

    #[test]
    fn scale_has_a_sane_default() {
        if std::env::var("DP_SCALE").is_err() {
            assert_eq!(scale(), 64);
        }
    }
}

/// Formats seconds compactly for table cells: milliseconds under 1s,
/// one decimal above.
///
/// # Examples
///
/// ```
/// assert_eq!(dp_bench::fmt_secs(0.0123), "12ms");
/// assert_eq!(dp_bench::fmt_secs(3.21), "3.2s");
/// ```
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.0}ms", s * 1e3)
    } else {
        format!("{s:.1}s")
    }
}

#[cfg(test)]
mod fmt_tests {
    #[test]
    fn fmt_secs_boundaries() {
        assert_eq!(super::fmt_secs(0.9994), "999ms");
        assert_eq!(super::fmt_secs(1.0), "1.0s");
        assert_eq!(super::fmt_secs(61.25), "61.2s");
    }
}
