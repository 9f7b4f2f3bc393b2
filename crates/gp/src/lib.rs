//! Global placement engine — the kernel GP iterations of paper Fig. 2(b).
//!
//! The loop minimizes `WL(x, y) + lambda * D(x, y)` (paper Eq. (2)) with a
//! gradient-descent solver, starting from a random center placement
//! (paper §III: cells at the layout center plus 0.1% Gaussian noise, which
//! the paper found matches bound-to-bound initialization within 0.04%
//! quality at a fraction of the runtime), and runs until the density
//! overflow drops below target.
//!
//! Per iteration:
//!
//! 1. fused wirelength forward+backward (any [`dp_wirelength`] strategy);
//! 2. density forward+backward (the electrostatic operator);
//! 3. Jacobi preconditioning (`grad_i /= (#pins_i + lambda * q_i)`, the
//!    standard ePlace/DREAMPlace conditioning);
//! 4. solver step ([`dp_optim`] engine chosen in the config);
//! 5. `lambda` update per paper Eq. (18) with the TCAD tweak
//!    (`mu <- mu_max * max(0.9999^k, 0.98)` when `p < 0`);
//! 6. `gamma` rescheduled from the overflow (ePlace's exponential ramp).
//!
//! Timing of each phase is recorded so the bench harness can reproduce the
//! paper's runtime-breakdown figures (Figs. 3 and 9).
//!
//! # Examples
//!
//! ```no_run
//! use dp_gen::GeneratorConfig;
//! use dp_gp::{GlobalPlacer, GpConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = GeneratorConfig::new("demo", 1000, 1050).generate::<f64>()?;
//! let config = GpConfig::auto(&design.netlist);
//! let result = GlobalPlacer::new(config).place(&design.netlist, &design.fixed_positions)?;
//! println!("HPWL {} after {} iterations", result.stats.final_hpwl, result.stats.iterations);
//! # Ok(())
//! # }
//! ```

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod engine;
pub mod fence;
pub mod init;
pub mod scheduler;

pub use config::{
    DivergenceCause, ExecBinding, FaultInjection, GpConfig, GpError, InitKind, SolverKind,
    WirelengthModel,
};
pub use engine::{
    GlobalPlacer, GpEngine, GpEngineState, GpEvalCounts, GpMemoEntry, GpMemoState, GpResult,
    GpRollbackState, GpRunState, GpStats, GpStepOutcome, GpTiming, IterRecord, RecoveryEvent,
};
pub use fence::{FenceSpec, FencedDensityOp};
pub use init::initial_placement;
pub use scheduler::{DensityWeightScheduler, GammaScheduler};
