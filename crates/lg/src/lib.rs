//! Legalization (paper §III-E).
//!
//! DREAMPlace legalizes in two stages, both reproduced here:
//!
//! 1. a **Tetris-like greedy pass** (after NTUplace3): cells are processed
//!    in x order and packed into the nearest row segment with free space;
//! 2. **Abacus row-based refinement** (Spindler et al.): within each row,
//!    cells are re-placed by the classic cluster-collapse dynamic program
//!    that minimizes total squared displacement from the global-placement
//!    locations without overlaps.
//!
//! Fixed macros carve rows into segments; both stages operate per segment.
//! Mixed-size designs are supported: movable multi-row macros are legalized
//! first (nearest row/site-aligned overlap-free spot, [`legalize_macros`])
//! and become blockages for the standard-cell passes.
//!
//! The refinement stage is guarded: if Abacus fails (non-finite state) or
//! blows past a configured displacement budget, the legalizer reverts to
//! the Tetris result — which is already legal — and records the fallback in
//! [`LgStats::fallback`] instead of erroring out.
//!
//! The paper notes this step runs in seconds on CPU even for million-cell
//! designs, and Table II shows it ~10x faster than the NTUplace3 legalizer
//! used in the RePlAce flow.
//!
//! # Examples
//!
//! ```
//! use dp_gen::GeneratorConfig;
//! use dp_gp::initial_placement;
//! use dp_lg::{check_legal, Legalizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = GeneratorConfig::new("demo", 200, 220).generate::<f64>()?;
//! let mut p = initial_placement(&d.netlist, &d.fixed_positions, 0.02, 1);
//! let stats = Legalizer::new().legalize(&d.netlist, &mut p)?;
//! assert!(stats.max_displacement >= 0.0);
//! assert!(stats.fallback.is_none());
//! assert!(check_legal(&d.netlist, &p).is_legal());
//! # Ok(())
//! # }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod abacus;
pub mod legality;
pub mod macros;
pub mod segments;
pub mod tetris;

pub use abacus::abacus_refine;
pub use legality::{check_legal, LegalityReport};
pub use macros::{legalize_macros, movable_macros};
pub use segments::{RowSegments, Segment};
pub use tetris::tetris_pass;

use std::error::Error;
use std::fmt;
use std::time::Instant;

use dp_netlist::{Netlist, Placement};
use dp_num::Float;

/// The legalization stage an error originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LgStage {
    /// Movable-macro pre-legalization.
    Macros,
    /// The Tetris-like greedy pass.
    Tetris,
    /// The Abacus cluster-collapse refinement.
    Abacus,
}

impl fmt::Display for LgStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LgStage::Macros => write!(f, "macro legalization"),
            LgStage::Tetris => write!(f, "tetris pass"),
            LgStage::Abacus => write!(f, "abacus refinement"),
        }
    }
}

/// Error raised by legalization.
///
/// Each variant names the stage it came from and, for capacity failures,
/// how far that stage got — mirroring `GpError::Diverged`'s best-so-far
/// context so callers can log a one-line diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub enum LgError {
    /// The netlist carries no row grid.
    MissingRows,
    /// A cell could not be placed in any row segment (no free capacity).
    OutOfCapacity {
        /// Offending cell index.
        cell: usize,
        /// Stage that ran out of room.
        stage: LgStage,
        /// Cells the stage had successfully placed before failing.
        placed: usize,
    },
    /// A stage produced or encountered non-finite coordinates (or an
    /// internally inconsistent state caused by them, such as a chosen
    /// position not matching any free gap).
    NonFinite {
        /// Stage that hit the non-finite state.
        stage: LgStage,
    },
}

impl fmt::Display for LgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LgError::MissingRows => write!(f, "netlist has no row grid attached"),
            LgError::OutOfCapacity {
                cell,
                stage,
                placed,
            } => {
                write!(
                    f,
                    "{stage}: no row segment can host cell {cell} ({placed} cells placed)"
                )
            }
            LgError::NonFinite { stage } => {
                write!(f, "{stage}: non-finite coordinates encountered")
            }
        }
    }
}

impl Error for LgError {}

/// Fallback taken by the guarded legalizer (recorded, not an error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LgFallback {
    /// Abacus refinement failed; the Tetris result was kept.
    AbacusFailed,
    /// Abacus refinement exceeded the displacement budget without
    /// improving on Tetris; the Tetris result was kept.
    DisplacementExceeded,
}

impl fmt::Display for LgFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LgFallback::AbacusFailed => write!(f, "abacus failed; kept tetris result"),
            LgFallback::DisplacementExceeded => {
                write!(f, "abacus exceeded displacement budget; kept tetris result")
            }
        }
    }
}

/// Fault injection for exercising the legalizer's degradation ladder in
/// tests. Off by default; never set in production flows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LgFaultInjection {
    /// Forces the Abacus stage to report failure, exercising the
    /// revert-to-Tetris fallback.
    pub fail_abacus: bool,
}

/// Displacement statistics of a legalization run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LgStats {
    /// Mean L1 displacement of movable cells from their GP locations.
    pub avg_displacement: f64,
    /// Maximum L1 displacement.
    pub max_displacement: f64,
    /// Wall-clock seconds.
    pub runtime: f64,
    /// Fallback taken by the stage guard, if any (`None` on the clean
    /// path).
    pub fallback: Option<LgFallback>,
}

/// The two-stage legalizer; see the [crate docs](self).
#[derive(Debug, Clone, Default)]
pub struct Legalizer {
    skip_abacus: bool,
    max_displacement: Option<f64>,
    fault_injection: LgFaultInjection,
    telemetry: dp_telemetry::Telemetry,
}

impl Legalizer {
    /// Creates the default two-stage legalizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Disables the Abacus refinement (Tetris only) — used by ablation
    /// benches.
    pub fn without_abacus(mut self) -> Self {
        self.skip_abacus = true;
        self
    }

    /// Sets a displacement budget: if Abacus ends with a maximum L1
    /// displacement above `limit` (and worse than Tetris), the result is
    /// reverted to the Tetris pass and
    /// [`LgFallback::DisplacementExceeded`] is recorded.
    pub fn with_max_displacement(mut self, limit: f64) -> Self {
        self.max_displacement = Some(limit);
        self
    }

    /// Installs fault injection (tests only).
    pub fn with_fault_injection(mut self, fi: LgFaultInjection) -> Self {
        self.fault_injection = fi;
        self
    }

    /// Attaches a telemetry sink: each legalization phase (macros, tetris,
    /// abacus) is recorded as a kernel span, and the stage-guard fallbacks
    /// become `degradation` timeline events.
    pub fn with_telemetry(mut self, telemetry: dp_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Legalizes `placement` in place.
    ///
    /// The Tetris result is snapshotted before Abacus refinement; if the
    /// refinement fails or violates the displacement budget, the snapshot
    /// is restored and the fallback recorded in [`LgStats::fallback`] —
    /// the call still succeeds with a legal placement.
    ///
    /// # Errors
    ///
    /// See [`LgError`].
    pub fn legalize<T: Float>(
        &self,
        nl: &Netlist<T>,
        placement: &mut Placement<T>,
    ) -> Result<LgStats, LgError> {
        let t0 = Instant::now();
        let rows = nl.rows().ok_or(LgError::MissingRows)?.clone();
        let original = placement.clone();

        // Mixed-size support: legalize multi-row movable macros first; they
        // then act as blockages for the standard-cell passes.
        let macros = macros::movable_macros(nl, &rows);
        let macro_rects = {
            let _k = self.telemetry.kernel_span("lg.macros");
            macros::legalize_macros(nl, placement, &rows, &macros)?
        };
        let segments = RowSegments::build_with_blockages(nl, placement, &rows, &macro_rects);

        let assignment = {
            let _k = self.telemetry.kernel_span("lg.tetris");
            tetris_pass(nl, placement, &segments)?
        };

        let max_disp = |p: &Placement<T>| -> f64 {
            let mut max_d: f64 = 0.0;
            for i in 0..nl.num_movable() {
                let d = (p.x[i] - original.x[i]).abs().to_f64()
                    + (p.y[i] - original.y[i]).abs().to_f64();
                max_d = max_d.max(d);
            }
            max_d
        };

        let mut fallback = None;
        if !self.skip_abacus {
            let tetris_snapshot = placement.clone();
            let refined = {
                let _k = self.telemetry.kernel_span("lg.abacus");
                if self.fault_injection.fail_abacus {
                    Err(LgError::NonFinite {
                        stage: LgStage::Abacus,
                    })
                } else {
                    abacus_refine(nl, &original, placement, &segments, &assignment)
                }
            };
            match refined {
                Ok(()) => {
                    if let Some(limit) = self.max_displacement {
                        let refined_d = max_disp(placement);
                        if refined_d > limit && refined_d > max_disp(&tetris_snapshot) {
                            *placement = tetris_snapshot;
                            fallback = Some(LgFallback::DisplacementExceeded);
                            self.telemetry.point(
                                "degradation",
                                format!(
                                    "lg: abacus displacement {refined_d:.3} over budget {limit:.3} -> tetris result"
                                ),
                            );
                        }
                    }
                }
                Err(e) => {
                    *placement = tetris_snapshot;
                    fallback = Some(LgFallback::AbacusFailed);
                    self.telemetry
                        .point("degradation", format!("lg: abacus failed ({e}) -> tetris result"));
                }
            }
        }

        let mut total = 0.0;
        let mut max_d: f64 = 0.0;
        let n = nl.num_movable();
        for i in 0..n {
            let d = (placement.x[i] - original.x[i]).abs().to_f64()
                + (placement.y[i] - original.y[i]).abs().to_f64();
            total += d;
            max_d = max_d.max(d);
        }
        Ok(LgStats {
            avg_displacement: total / n.max(1) as f64,
            max_displacement: max_d,
            runtime: t0.elapsed().as_secs_f64(),
            fallback,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;
    use dp_gp::initial_placement;

    fn placed_design() -> (Netlist<f64>, Placement<f64>) {
        let d = GeneratorConfig::new("guard", 150, 160)
            .with_seed(12)
            .with_utilization(0.5)
            .generate::<f64>()
            .expect("ok");
        let p = initial_placement(&d.netlist, &d.fixed_positions, 0.05, 3);
        (d.netlist, p)
    }

    #[test]
    fn injected_abacus_failure_falls_back_to_tetris() {
        let (nl, p0) = placed_design();
        let mut faulted = p0.clone();
        let stats = Legalizer::new()
            .with_fault_injection(LgFaultInjection { fail_abacus: true })
            .legalize(&nl, &mut faulted)
            .expect("fallback keeps the run alive");
        assert_eq!(stats.fallback, Some(LgFallback::AbacusFailed));
        assert!(check_legal(&nl, &faulted).is_legal());

        // The fallback result is exactly the Tetris-only placement.
        let mut tetris_only = p0;
        Legalizer::new()
            .without_abacus()
            .legalize(&nl, &mut tetris_only)
            .expect("fits");
        assert_eq!(faulted.x, tetris_only.x);
        assert_eq!(faulted.y, tetris_only.y);
    }

    #[test]
    fn displacement_budget_reverts_to_tetris() {
        let (nl, p0) = placed_design();
        // An impossible budget forces the revert; tetris can't do better
        // than itself, so the gate only triggers when abacus is worse.
        let mut p = p0.clone();
        let stats = Legalizer::new()
            .with_max_displacement(0.0)
            .legalize(&nl, &mut p)
            .expect("fits");
        if stats.fallback == Some(LgFallback::DisplacementExceeded) {
            let mut tetris_only = p0;
            Legalizer::new()
                .without_abacus()
                .legalize(&nl, &mut tetris_only)
                .expect("fits");
            assert_eq!(p.x, tetris_only.x);
        }
        assert!(check_legal(&nl, &p).is_legal());
    }

    #[test]
    fn clean_path_records_no_fallback() {
        let (nl, mut p) = placed_design();
        let stats = Legalizer::new().legalize(&nl, &mut p).expect("fits");
        assert!(stats.fallback.is_none());
        assert!(check_legal(&nl, &p).is_legal());
    }

    #[test]
    fn error_display_names_stage_and_progress() {
        let e = LgError::OutOfCapacity {
            cell: 7,
            stage: LgStage::Tetris,
            placed: 42,
        };
        let s = e.to_string();
        assert!(s.contains("tetris"), "{s}");
        assert!(s.contains("cell 7"), "{s}");
        assert!(s.contains("42"), "{s}");
        let s = LgError::NonFinite {
            stage: LgStage::Abacus,
        }
        .to_string();
        assert!(s.contains("abacus"), "{s}");
    }
}
