//! DREAMPlace in Rust: the full analytical placement flow.
//!
//! This crate ties the workspace together into the flow of paper Fig. 2(b):
//!
//! 1. **(optional) IO** — Bookshelf round-trip through disk, timed like the
//!    paper's IO column;
//! 2. **global placement** — the [`dp_gp`] engine (wirelength + density
//!    gradient descent);
//! 3. **legalization** — Tetris + Abacus ([`dp_lg`]);
//! 4. **detailed placement** — swap/reorder/matching ([`dp_dplace`]);
//! 5. **(optional) routability** — the §III-F cell-inflation loop driven by
//!    the [`dp_route`] global router.
//!
//! [`ToolMode`] captures the paper's compared configurations: the RePlAce
//! baseline (bound-to-bound-style initialization, reference kernels,
//! 2N-point DCT) versus DREAMPlace (random center init, merged wirelength
//! kernel, direct 2-D DCT, density scatter tricks). On this crate's CPU
//! backend the GPU rows of the paper are *simulated* by the same optimized
//! kernels — absolute GPU factors are out of reach without the hardware,
//! but every algorithmic ordering the paper reports is reproduced.
//!
//! # Examples
//!
//! ```no_run
//! use dreamplace_core::{DreamPlacer, FlowConfig, ToolMode};
//! use dp_gen::GeneratorConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = GeneratorConfig::new("demo", 2000, 2100).generate::<f64>()?;
//! let threads = dp_num::default_threads();
//! let config = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads }, &design.netlist);
//! let result = DreamPlacer::new(config).place(&design)?;
//! println!(
//!     "HPWL {:.3e} | GP {:.2}s LG {:.2}s DP {:.2}s",
//!     result.hpwl_final,
//!     result.timing.gp,
//!     result.timing.lg,
//!     result.timing.dp,
//! );
//! # Ok(())
//! # }
//! ```

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
pub mod flow;
pub mod machine;
pub mod modes;
pub mod routability;
pub mod sanitize;
pub mod scheduler;
pub mod timing_driven;
pub mod viz;

pub use checkpoint::{read_checkpoint, write_checkpoint, CheckpointError};
pub use flow::{
    DegradationEvent, DegradationFallback, DegradationTrigger, DreamPlacer, FlowConfig,
    FlowDegradations, FlowError, FlowResult, FlowStage, FlowTiming, GpFallback,
};
pub use machine::{
    CheckpointData, CheckpointPolicy, CheckpointStage, DesignHandle, DesignStamp, DurableOutcome,
    FlowFaultInjection, FlowMachine, FlowState, GpAttemptState,
};
pub use modes::ToolMode;
pub use scheduler::{
    JobId, JobOptions, JobOutcome, JobStatus, QosClass, RetryPolicy, Scheduler, SchedulerHealth,
    ServeFaultInjection,
};
pub use sanitize::{sanitize_design, SanitizeFinding, SanitizeIssue, SanitizeReport};
pub use routability::{RoutabilityConfig, RoutabilityPlacer, RoutabilityResult};
pub use timing_driven::{
    TimingDrivenConfig, TimingDrivenPlacer, TimingDrivenResult, TimingSummary,
};
