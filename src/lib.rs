//! # dreamplace
//!
//! A from-scratch Rust reproduction of **DREAMPlace** (Lin et al., DAC 2019
//! / TCAD 2020): analytical VLSI global placement cast as neural-network
//! training, with the ePlace/RePlAce electrostatic density model, fast
//! DCT-based Poisson solves, multiple gradient-descent engines, and a full
//! GP -> legalization -> detailed placement flow, plus the routability
//! extension via router-driven cell inflation.
//!
//! This facade re-exports the workspace's public API. See `DESIGN.md` for
//! the system inventory and `EXPERIMENTS.md` for the paper-vs-measured
//! record of every table and figure.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dreamplace::{DreamPlacer, FlowConfig, ToolMode};
//! use dreamplace::gen::GeneratorConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a 10k-cell synthetic design (or load Bookshelf files with
//! // `dreamplace::bookshelf::read_design`).
//! let design = GeneratorConfig::new("my-chip", 10_000, 10_500).generate::<f64>()?;
//!
//! // Configure the DREAMPlace flow on every core and place.
//! let threads = dreamplace::num::default_threads();
//! let config = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads }, &design.netlist);
//! let result = DreamPlacer::new(config).place(&design)?;
//! println!("final HPWL = {:.4e}", result.hpwl_final);
//! # Ok(())
//! # }
//! ```

pub use dreamplace_core::{
    read_checkpoint, sanitize_design, write_checkpoint, CheckpointData, CheckpointError,
    CheckpointPolicy, CheckpointStage, DegradationEvent, DegradationFallback, DegradationTrigger,
    DesignStamp,
    DreamPlacer, DurableOutcome, FlowConfig, FlowDegradations, FlowError, FlowFaultInjection,
    FlowMachine, FlowResult, FlowStage, FlowState, FlowTiming, GpAttemptState, GpFallback,
    JobId, JobOptions, JobOutcome, JobStatus, QosClass, RetryPolicy, RoutabilityConfig,
    RoutabilityPlacer, RoutabilityResult, SanitizeFinding, SanitizeIssue, SanitizeReport,
    Scheduler, SchedulerHealth, ServeFaultInjection, TimingDrivenConfig,
    TimingDrivenPlacer, TimingDrivenResult, TimingSummary, ToolMode,
};

/// `dp-serve`: the placement-as-a-service daemon (line-delimited JSON
/// protocol, shared-pool scheduler). See the `serve` subcommand.
pub mod serve;

/// Numeric substrate: precision-generic floats, atomics, complex numbers.
pub mod num {
    pub use dp_num::*;
}

/// Placement hypergraph, coordinates, and HPWL.
pub mod netlist {
    pub use dp_netlist::*;
}

/// Synthetic benchmark generation and paper-suite presets.
pub mod gen {
    pub use dp_gen::*;
}

/// Bookshelf benchmark format reading and writing.
pub mod bookshelf {
    pub use dp_bookshelf::*;
}

/// Grid global routing, congestion metrics (RC, sHPWL).
pub mod route {
    pub use dp_route::*;
}

/// Global placement engine internals (configs, schedulers, solvers).
pub mod gp {
    pub use dp_gp::*;
}

/// Static timing analysis substrate (timing-driven placement).
pub mod timing {
    pub use dp_timing::*;
}

/// Placement visualization (SVG snapshots).
pub mod viz {
    pub use dreamplace_core::viz::*;
}

/// Run telemetry: hierarchical spans, convergence traces, sharded kernel
/// counters, the JSONL trace sink, and the end-of-run report.
pub mod telemetry {
    pub use dp_telemetry::*;
}

/// Differential verification: kernel oracles, determinism replay, golden
/// records, and the schema-validating trace reader.
pub mod check {
    pub use dp_check::*;
}
