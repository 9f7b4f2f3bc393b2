//! Determinism replayer: run placement stages repeatedly and diff the
//! statistics bit-exactly.
//!
//! Four kinds of replay:
//!
//! * [`replay_gp`] — same seed, same config, `N` runs: any divergence
//!   means hidden state (uninitialized scratch, iteration-order-dependent
//!   accumulation, a stray `HashMap` iteration) leaked into the math;
//! * [`replay_across_threads`] — same seed at several worker counts: the
//!   fixed-point density bins make the histories match across thread
//!   counts, the strongest reproducibility contract the engine offers;
//! * [`replay_lg`] / [`replay_dp`] — the same contract per downstream
//!   stage: legalization and detailed placement run `N` times from an
//!   identical starting placement and must produce bit-identical
//!   placements and stats (Abacus iterates a `HashMap` of segments, ISM
//!   batches by scan order — exactly the constructs that silently go
//!   nondeterministic).
//!
//! GP comparison is on [`IterRecord`]s (`hpwl`, `overflow`, `lambda`,
//! `gamma` per iteration) plus the final HPWL/overflow; LG/DP comparison
//! is on their stage stats plus every cell coordinate — all compared for
//! exact equality, not within tolerance.

use dp_dplace::DetailedPlacer;
use dp_gp::{GlobalPlacer, GpConfig, GpError, GpStats, IterRecord};
use dp_lg::{Legalizer, LgError, LgStats};
use dp_netlist::{hpwl, Netlist, Placement};
use dp_num::Float;

/// Outcome of a replay: the reference run's summary plus the first
/// divergence found, if any.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Number of runs compared (>= 2).
    pub runs: usize,
    /// Human-readable description of the first difference, `None` when all
    /// runs were bit-identical.
    pub divergence: Option<String>,
    /// Iterations of the reference run.
    pub iterations: usize,
    /// Final HPWL of the reference run.
    pub final_hpwl: f64,
    /// Final overflow of the reference run.
    pub final_overflow: f64,
}

impl ReplayReport {
    /// `true` when every run matched the reference bit-for-bit.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

fn describe(iter: usize, field: &str, a: f64, b: f64) -> String {
    format!("iteration {iter}: {field} {a:.17e} != {b:.17e}")
}

fn diff_records(i: usize, a: &IterRecord, b: &IterRecord) -> Option<String> {
    if a.hpwl != b.hpwl {
        return Some(describe(i, "hpwl", a.hpwl, b.hpwl));
    }
    if a.overflow != b.overflow {
        return Some(describe(i, "overflow", a.overflow, b.overflow));
    }
    if a.lambda != b.lambda {
        return Some(describe(i, "lambda", a.lambda, b.lambda));
    }
    if a.gamma != b.gamma {
        return Some(describe(i, "gamma", a.gamma, b.gamma));
    }
    None
}

/// First difference between two run histories, or `None` when they are
/// bit-identical (including final HPWL/overflow and iteration count).
pub fn first_divergence(a: &GpStats, b: &GpStats) -> Option<String> {
    if a.iterations != b.iterations {
        return Some(format!(
            "iteration count {} != {}",
            a.iterations, b.iterations
        ));
    }
    if a.history.len() != b.history.len() {
        return Some(format!(
            "history length {} != {}",
            a.history.len(),
            b.history.len()
        ));
    }
    for (i, (ra, rb)) in a.history.iter().zip(&b.history).enumerate() {
        if let Some(d) = diff_records(i, ra, rb) {
            return Some(d);
        }
    }
    if a.final_hpwl != b.final_hpwl {
        return Some(describe(a.iterations, "final_hpwl", a.final_hpwl, b.final_hpwl));
    }
    if a.final_overflow != b.final_overflow {
        return Some(describe(
            a.iterations,
            "final_overflow",
            a.final_overflow,
            b.final_overflow,
        ));
    }
    None
}

/// First coordinate difference between two placements, or `None` when
/// they are bit-identical.
pub fn diff_placements<T: Float>(a: &Placement<T>, b: &Placement<T>) -> Option<String> {
    for (c, (xa, xb)) in a.x.iter().zip(&b.x).enumerate() {
        if xa.to_f64() != xb.to_f64() {
            return Some(format!("cell {c}: x {} != {}", xa.to_f64(), xb.to_f64()));
        }
    }
    for (c, (ya, yb)) in a.y.iter().zip(&b.y).enumerate() {
        if ya.to_f64() != yb.to_f64() {
            return Some(format!("cell {c}: y {} != {}", ya.to_f64(), yb.to_f64()));
        }
    }
    None
}

/// Runs GP `runs` times with identical config and compares every run to
/// the first, per-iteration and on the final placement.
///
/// # Errors
///
/// Propagates [`GpError`] from any run.
pub fn replay_gp<T: Float>(
    nl: &Netlist<T>,
    fixed: &Placement<T>,
    cfg: &GpConfig<T>,
    runs: usize,
) -> Result<ReplayReport, GpError<T>> {
    let runs = runs.max(2);
    let reference = GlobalPlacer::new(cfg.clone()).place(nl, fixed)?;
    let mut divergence = None;
    for r in 1..runs {
        let other = GlobalPlacer::new(cfg.clone()).place(nl, fixed)?;
        if divergence.is_none() {
            divergence = first_divergence(&reference.stats, &other.stats)
                .or_else(|| diff_placements(&reference.placement, &other.placement))
                .map(|d| format!("run 0 vs run {r}: {d}"));
        }
    }
    Ok(ReplayReport {
        runs,
        divergence,
        iterations: reference.stats.iterations,
        final_hpwl: reference.stats.final_hpwl,
        final_overflow: reference.stats.final_overflow,
    })
}

/// Runs GP once per entry of `threads` and requires bit-identical
/// histories across all thread counts.
///
/// # Errors
///
/// Propagates [`GpError`] from any run.
pub fn replay_across_threads<T: Float>(
    nl: &Netlist<T>,
    fixed: &Placement<T>,
    cfg: &GpConfig<T>,
    threads: &[usize],
) -> Result<ReplayReport, GpError<T>> {
    let mut runs = Vec::new();
    for &t in threads {
        let mut c = cfg.clone();
        c.threads = t.max(1);
        runs.push((t, GlobalPlacer::new(c).place(nl, fixed)?));
    }
    let mut divergence = None;
    if let Some(((t0, reference), rest)) = runs.split_first() {
        for (t, other) in rest {
            if divergence.is_none() {
                divergence = first_divergence(&reference.stats, &other.stats)
                    .or_else(|| diff_placements(&reference.placement, &other.placement))
                    .map(|d| format!("threads {t0} vs threads {t}: {d}"));
            }
        }
        Ok(ReplayReport {
            runs: runs.len(),
            divergence,
            iterations: reference.stats.iterations,
            final_hpwl: reference.stats.final_hpwl,
            final_overflow: reference.stats.final_overflow,
        })
    } else {
        Ok(ReplayReport {
            runs: 0,
            divergence: Some("no thread counts given".to_string()),
            iterations: 0,
            final_hpwl: 0.0,
            final_overflow: 0.0,
        })
    }
}

/// Outcome of a per-stage (LG/DP) replay.
#[derive(Debug, Clone)]
pub struct StageReplay {
    /// Number of runs compared (>= 2).
    pub runs: usize,
    /// First difference found (stats field or cell coordinate), `None`
    /// when every run was bit-identical.
    pub divergence: Option<String>,
    /// HPWL of the reference run's output placement.
    pub final_hpwl: f64,
}

impl StageReplay {
    /// `true` when every run matched the reference bit-for-bit.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

fn diff_lg_stats(a: &LgStats, b: &LgStats) -> Option<String> {
    if a.avg_displacement != b.avg_displacement {
        return Some(format!(
            "avg_displacement {:.17e} != {:.17e}",
            a.avg_displacement, b.avg_displacement
        ));
    }
    if a.max_displacement != b.max_displacement {
        return Some(format!(
            "max_displacement {:.17e} != {:.17e}",
            a.max_displacement, b.max_displacement
        ));
    }
    if a.fallback != b.fallback {
        return Some(format!("fallback {:?} != {:?}", a.fallback, b.fallback));
    }
    None
}

/// Legalizes `start` `runs` times with the same legalizer and compares
/// stats and every cell coordinate to the first run. Runtime is excluded
/// (wall-clock is never golden).
///
/// # Errors
///
/// Propagates [`LgError`] from any run.
pub fn replay_lg<T: Float>(
    nl: &Netlist<T>,
    start: &Placement<T>,
    legalizer: &Legalizer,
    runs: usize,
) -> Result<StageReplay, LgError> {
    let runs = runs.max(2);
    let mut reference = start.clone();
    let ref_stats = legalizer.clone().legalize(nl, &mut reference)?;
    let mut divergence = None;
    for r in 1..runs {
        let mut other = start.clone();
        let other_stats = legalizer.clone().legalize(nl, &mut other)?;
        if divergence.is_none() {
            divergence = diff_lg_stats(&ref_stats, &other_stats)
                .or_else(|| diff_placements(&reference, &other))
                .map(|d| format!("run 0 vs run {r}: {d}"));
        }
    }
    Ok(StageReplay {
        runs,
        divergence,
        final_hpwl: hpwl(nl, &reference).to_f64(),
    })
}

/// Runs detailed placement `runs` times from the same legal placement and
/// compares stats (moves, HPWL) and every cell coordinate to the first
/// run.
pub fn replay_dp<T: Float>(
    nl: &Netlist<T>,
    start: &Placement<T>,
    placer: &DetailedPlacer,
    runs: usize,
) -> StageReplay {
    let runs = runs.max(2);
    let mut reference = start.clone();
    let ref_stats = placer.run(nl, &mut reference);
    let mut divergence = None;
    for r in 1..runs {
        let mut other = start.clone();
        let other_stats = placer.run(nl, &mut other);
        if divergence.is_none() {
            let d = if ref_stats.moves != other_stats.moves {
                Some(format!(
                    "moves {} != {}",
                    ref_stats.moves, other_stats.moves
                ))
            } else if ref_stats.final_hpwl != other_stats.final_hpwl {
                Some(format!(
                    "final_hpwl {:.17e} != {:.17e}",
                    ref_stats.final_hpwl, other_stats.final_hpwl
                ))
            } else {
                diff_placements(&reference, &other)
            };
            divergence = d.map(|d| format!("run 0 vs run {r}: {d}"));
        }
    }
    StageReplay {
        runs,
        divergence,
        final_hpwl: ref_stats.final_hpwl,
    }
}
