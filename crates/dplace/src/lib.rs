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

use dp_netlist::{Netlist, Placement};
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

/// Rounds of the operator cycle; a round that commits no move ends the run
/// early.
pub(crate) const MAX_ROUNDS: usize = 3;
/// Sliding-window size of local reordering.
pub(crate) const WINDOW: usize = 3;
/// Batch size of independent-set matching.
pub(crate) const ISM_BATCH: usize = 8;
/// Relative HPWL worsening a pass may show before the guarded driver
/// reverts and disables it (every operator commits only improving moves,
/// so anything above rounding is a defect).
pub(crate) const HPWL_TOLERANCE: f64 = 1e-9;

/// The detailed placement driver: iterates the three operators, each
/// behind a quality gate, until a round commits no move or three rounds
/// have run (see [`guarded`]).
#[derive(Debug, Clone, Default)]
pub struct DetailedPlacer {
    /// Wall-clock budget; checked between passes.
    pub max_seconds: Option<f64>,
    /// Fault injection for the pass gate (tests only).
    pub fault_injection: guarded::DpFaultInjection,
    /// Telemetry sink: per-pass kernel spans and guard degradation events.
    /// Disabled by default.
    pub telemetry: dp_telemetry::Telemetry,
}

impl DetailedPlacer {
    /// Creates the driver with default knobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs detailed placement in place: [`DetailedPlacer::run_guarded`]
    /// without its guard report. The placement must be legal; all
    /// operators keep it legal.
    pub fn run<T: Float>(&self, nl: &Netlist<T>, p: &mut Placement<T>) -> DpStats {
        self.run_guarded(nl, p).0
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
