//! Detailed placement (the DP stage of paper Fig. 2(b)).
//!
//! The paper delegates detailed placement to NTUplace3 and reports it as
//! the dominant share of the accelerated flow's runtime (Fig. 9a: ~82%).
//! This crate is the from-scratch substrate standing in for it, built from
//! the classic DP triad (as in NTUplace3/ABCDPlace):
//!
//! * [`local_reorder`] — sliding-window re-sequencing within rows
//!   (all permutations of `k` consecutive cells, `k <= 4`);
//! * [`global_swap`] — pairwise swaps of equal-size cells toward each
//!   cell's optimal region;
//! * [`independent_set_matching`] — batches of same-size cells assigned to
//!   each other's slots optimally via a Hungarian solver.
//!
//! Every operator preserves legality by construction (cells only exchange
//! or repack within row spans) and only commits HPWL-improving moves, which
//! the test suite asserts on every pass.
//!
//! # Examples
//!
//! ```
//! use dp_dplace::DetailedPlacer;
//! use dp_gen::GeneratorConfig;
//! use dp_gp::initial_placement;
//! use dp_lg::Legalizer;
//! use dp_netlist::hpwl;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = GeneratorConfig::new("demo", 200, 220).generate::<f64>()?;
//! let mut p = initial_placement(&d.netlist, &d.fixed_positions, 0.02, 1);
//! Legalizer::new().legalize(&d.netlist, &mut p)?;
//! let before = hpwl(&d.netlist, &p);
//! let stats = DetailedPlacer::new().run(&d.netlist, &mut p);
//! assert!(stats.final_hpwl <= before);
//! # Ok(())
//! # }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod batched;
mod bbox;
pub mod guarded;
pub mod hungarian;
pub mod incremental;
pub mod ism;
#[cfg(test)]
mod reference;
pub mod reorder;
pub mod swap;

pub use batched::{batched_global_swap, batched_global_swap_on, BatchedDetailedPlacer};
pub use guarded::{DpFaultInjection, DpGuardReport, DpPass, DpRunState, GuardedDpRun};
pub use hungarian::{hungarian, HungarianScratch};
pub use incremental::IncrementalHpwl;
pub use ism::independent_set_matching;
pub use reorder::local_reorder;
pub use swap::global_swap;

use std::time::Instant;

use dp_netlist::{hpwl, Netlist, Placement};
use dp_num::Float;

/// Statistics of a detailed placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpStats {
    /// HPWL before any pass.
    pub initial_hpwl: f64,
    /// HPWL after all passes.
    pub final_hpwl: f64,
    /// Number of improving moves committed across all passes.
    pub moves: usize,
    /// Wall-clock seconds.
    pub runtime: f64,
}

/// The detailed placement driver: iterates the three operators until no
/// pass improves (or the pass budget is exhausted).
#[derive(Debug, Clone)]
pub struct DetailedPlacer {
    /// Maximum rounds of the operator cycle.
    pub max_rounds: usize,
    /// Sliding-window size for local reordering (2..=4).
    pub window: usize,
    /// Batch size for independent-set matching (clamped to 16).
    pub ism_batch: usize,
    /// Relative HPWL worsening tolerated per pass before the guarded
    /// driver ([`DetailedPlacer::run_guarded`]) reverts and disables it.
    pub hpwl_tolerance: f64,
    /// Wall-clock budget for the guarded driver; checked between passes.
    pub max_seconds: Option<f64>,
    /// Fault injection for the guarded driver (tests only).
    pub fault_injection: guarded::DpFaultInjection,
    /// Telemetry sink: per-pass kernel spans and guard degradation events
    /// from the guarded driver. Disabled by default.
    pub telemetry: dp_telemetry::Telemetry,
}

impl Default for DetailedPlacer {
    fn default() -> Self {
        Self {
            max_rounds: 3,
            window: 3,
            ism_batch: 8,
            hpwl_tolerance: 1e-9,
            max_seconds: None,
            fault_injection: guarded::DpFaultInjection::default(),
            telemetry: dp_telemetry::Telemetry::disabled(),
        }
    }
}

impl DetailedPlacer {
    /// Creates the driver with default knobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs detailed placement in place. The placement must be legal; all
    /// operators keep it legal.
    pub fn run<T: Float>(&self, nl: &Netlist<T>, p: &mut Placement<T>) -> DpStats {
        let t0 = Instant::now();
        let initial = hpwl(nl, p).to_f64();
        let mut moves = 0usize;
        for _ in 0..self.max_rounds {
            let before = moves;
            moves += global_swap(nl, p);
            moves += local_reorder(nl, p, self.window);
            moves += independent_set_matching(nl, p, self.ism_batch.clamp(2, 16));
            if moves == before {
                break;
            }
        }
        DpStats {
            initial_hpwl: initial,
            final_hpwl: hpwl(nl, p).to_f64(),
            moves,
            runtime: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;
    use dp_gp::initial_placement;
    use dp_lg::{check_legal, Legalizer};

    #[test]
    fn full_dp_improves_and_stays_legal() {
        let d = GeneratorConfig::new("t", 300, 330)
            .with_seed(10)
            .with_utilization(0.6)
            .generate::<f64>()
            .expect("ok");
        let mut p = initial_placement(&d.netlist, &d.fixed_positions, 0.05, 2);
        Legalizer::new()
            .legalize(&d.netlist, &mut p)
            .expect("legalizes");
        let stats = DetailedPlacer::new().run(&d.netlist, &mut p);
        assert!(stats.final_hpwl <= stats.initial_hpwl);
        assert!(
            stats.moves > 0,
            "expected improving moves on a random start"
        );
        let report = check_legal(&d.netlist, &p);
        assert!(report.is_legal(), "{report:?}");
    }

    #[test]
    fn dp_is_deterministic() {
        let d = GeneratorConfig::new("t", 150, 170)
            .with_seed(3)
            .generate::<f64>()
            .expect("ok");
        let mut p1 = initial_placement(&d.netlist, &d.fixed_positions, 0.05, 2);
        Legalizer::new()
            .legalize(&d.netlist, &mut p1)
            .expect("legalizes");
        let mut p2 = p1.clone();
        let s1 = DetailedPlacer::new().run(&d.netlist, &mut p1);
        let s2 = DetailedPlacer::new().run(&d.netlist, &mut p2);
        assert_eq!(s1.final_hpwl, s2.final_hpwl);
        assert_eq!(p1.x, p2.x);
    }
}
