//! The full placement flow: (IO) -> sanitize -> GP -> LG -> DP.
//!
//! Beyond the paper's pipeline, the flow carries a robustness layer (the
//! counterpart of the GP engine's self-healing): a [design
//! sanitizer](crate::sanitize) runs before GP, GP and DP take wall-clock
//! budgets and LG and DP carry quality gates, all on the stages' own knobs
//! ([`FlowConfig::gp`], [`FlowConfig::lg`], [`FlowConfig::dp`]), and each
//! stage can degrade gracefully instead of failing — Abacus falls back to
//! Tetris, DP disables a misbehaving pass, sub-spectral bin grids run the
//! density operator in uniform-field mode. Every degradation is recorded in
//! [`FlowResult::degradations`] so callers see exactly what was traded
//! away; off the failure path the layer is a no-op and results are
//! bit-identical to the unguarded flow.

use std::error::Error;
use std::fmt;

use dp_dplace::{DetailedPlacer, DpPass, DpStats};
use dp_gen::GeneratedDesign;
use dp_gp::{DivergenceCause, GpConfig, GpError, GpStats, SolverKind, WirelengthModel};
use dp_lg::{Legalizer, LgError, LgStats};
use dp_netlist::{Netlist, Placement};
use dp_num::Float;

use crate::machine::{FlowMachine, FlowState};
use crate::modes::ToolMode;
use crate::sanitize::SanitizeReport;

/// Error raised by the full flow.
#[derive(Debug)]
pub enum FlowError<T> {
    /// The design sanitizer found a fatal defect before any stage ran.
    Sanitize(SanitizeReport),
    /// Global placement failed.
    Gp(GpError<T>),
    /// Legalization failed.
    Lg {
        /// The underlying legalizer error (names its stage and progress).
        error: LgError,
        /// HPWL of the global placement handed to legalization — the
        /// best-so-far quality when the flow died (NaN when unknown).
        hpwl_gp: f64,
    },
    /// The legalized placement failed the legality audit (even after the
    /// Tetris-only retry).
    IllegalResult {
        /// Number of overlapping pairs found.
        overlaps: usize,
        /// HPWL after the failed legalization attempt (NaN when unknown).
        hpwl_legal: f64,
    },
    /// Bookshelf IO round-trip failed.
    Io(std::io::Error),
    /// Writing, reading, or applying a durable checkpoint failed (see
    /// [`crate::checkpoint`]).
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl<T> FlowError<T> {
    /// One-line diagnosis naming the stage, the trigger, and the
    /// best-so-far context — what a log line or CI failure should show.
    pub fn diagnosis(&self) -> String {
        match self {
            FlowError::Sanitize(report) => {
                format!("sanitize: fatal design defects: {report}")
            }
            FlowError::Gp(e) => format!("gp: {e}"),
            FlowError::Lg { error, hpwl_gp } => {
                format!("lg: {error} (gp hpwl {hpwl_gp:.4e})")
            }
            FlowError::IllegalResult {
                overlaps,
                hpwl_legal,
            } => format!(
                "lg: audit found {overlaps} overlapping pairs after all fallbacks \
                 (hpwl {hpwl_legal:.4e})"
            ),
            FlowError::Io(e) => format!("io: {e}"),
            FlowError::Checkpoint(e) => format!("checkpoint: {e}"),
        }
    }
}

impl<T> fmt::Display for FlowError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.diagnosis())
    }
}

impl<T: fmt::Debug> Error for FlowError<T> {}

impl<T> From<GpError<T>> for FlowError<T> {
    fn from(e: GpError<T>) -> Self {
        FlowError::Gp(e)
    }
}

impl<T> From<LgError> for FlowError<T> {
    fn from(e: LgError) -> Self {
        FlowError::Lg {
            error: e,
            hpwl_gp: f64::NAN,
        }
    }
}

impl<T> From<std::io::Error> for FlowError<T> {
    fn from(e: std::io::Error) -> Self {
        FlowError::Io(e)
    }
}

/// A stage of the flow, for degradation bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// The design sanitizer.
    Sanitize,
    /// Global placement.
    Gp,
    /// Legalization.
    Lg,
    /// Detailed placement.
    Dp,
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowStage::Sanitize => write!(f, "sanitize"),
            FlowStage::Gp => write!(f, "gp"),
            FlowStage::Lg => write!(f, "lg"),
            FlowStage::Dp => write!(f, "dp"),
        }
    }
}

/// What tripped a degradation.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationTrigger {
    /// The bin grid is below the spectral solver's minimum shape.
    DegenerateGrid {
        /// The configured `(mx, my)` bin counts.
        bins: (usize, usize),
    },
    /// Global placement diverged unrecoverably.
    GpDiverged(DivergenceCause),
    /// The Abacus refinement failed.
    AbacusFailed,
    /// The Abacus refinement exceeded the displacement budget.
    DisplacementExceeded,
    /// The legality audit found overlaps after the full legalizer.
    IllegalAfterLg {
        /// Overlapping pairs found.
        overlaps: usize,
    },
    /// A DP pass worsened HPWL by this relative amount.
    DpPassWorsened {
        /// The offending pass.
        pass: DpPass,
        /// Relative HPWL worsening that tripped the gate.
        worsening: f64,
    },
    /// A stage exhausted its wall-clock budget.
    BudgetExhausted,
}

impl fmt::Display for DegradationTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationTrigger::DegenerateGrid { bins } => {
                write!(f, "bin grid {}x{} below spectral minimum", bins.0, bins.1)
            }
            DegradationTrigger::GpDiverged(cause) => write!(f, "gp diverged ({cause})"),
            DegradationTrigger::AbacusFailed => write!(f, "abacus refinement failed"),
            DegradationTrigger::DisplacementExceeded => {
                write!(f, "abacus exceeded displacement budget")
            }
            DegradationTrigger::IllegalAfterLg { overlaps } => {
                write!(f, "{overlaps} overlapping pairs after legalization")
            }
            DegradationTrigger::DpPassWorsened { pass, worsening } => {
                write!(f, "{pass} worsened hpwl by {worsening:.2e}")
            }
            DegradationTrigger::BudgetExhausted => write!(f, "wall-clock budget exhausted"),
        }
    }
}

/// The fallback the flow took in response to a trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationFallback {
    /// Density ran in uniform-field mode (spectral solve skipped).
    UniformFieldDensity,
    /// GP re-ran with the conservative preset.
    ConservativeGpPreset,
    /// The flow continued from GP's best-so-far placement.
    BestSoFarPlacement,
    /// Legalization kept the Tetris result.
    TetrisResult,
    /// Legalization re-ran without Abacus from the GP placement.
    RetryWithoutAbacus,
    /// DP disabled the offending pass and continued with the others.
    DisabledDpPass(DpPass),
    /// The stage stopped early at its budget, keeping its best result.
    StoppedStageEarly,
}

impl fmt::Display for DegradationFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationFallback::UniformFieldDensity => write!(f, "uniform-field density"),
            DegradationFallback::ConservativeGpPreset => write!(f, "conservative gp preset"),
            DegradationFallback::BestSoFarPlacement => write!(f, "best-so-far placement"),
            DegradationFallback::TetrisResult => write!(f, "kept tetris result"),
            DegradationFallback::RetryWithoutAbacus => write!(f, "retried without abacus"),
            DegradationFallback::DisabledDpPass(p) => write!(f, "disabled {p}"),
            DegradationFallback::StoppedStageEarly => write!(f, "stopped stage early"),
        }
    }
}

/// One recorded degradation: stage, trigger, and the fallback taken.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationEvent {
    /// The stage that degraded.
    pub stage: FlowStage,
    /// What tripped it.
    pub trigger: DegradationTrigger,
    /// What the flow did about it.
    pub fallback: DegradationFallback,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.stage, self.trigger, self.fallback)
    }
}

/// Log of every degradation the flow took; empty on the clean path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowDegradations {
    /// Events in the order they happened.
    pub events: Vec<DegradationEvent>,
}

impl FlowDegradations {
    /// True when nothing degraded — the flow ran the paper's pipeline
    /// untouched.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that happened in `stage`.
    pub fn for_stage(&self, stage: FlowStage) -> impl Iterator<Item = &DegradationEvent> {
        self.events.iter().filter(move |e| e.stage == stage)
    }

    pub(crate) fn record(
        &mut self,
        stage: FlowStage,
        trigger: DegradationTrigger,
        fallback: DegradationFallback,
    ) {
        self.events.push(DegradationEvent {
            stage,
            trigger,
            fallback,
        });
    }
}

impl fmt::Display for FlowDegradations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "none");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// How the flow coped with an unrecoverable global placement divergence
/// (recorded in [`FlowResult::gp_fallback`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpFallback {
    /// The configured run diverged; the conservative preset (Adam + LSE
    /// with paper-default schedulers) completed instead.
    ConservativePreset {
        /// What tripped the primary run's detector.
        cause: DivergenceCause,
    },
    /// Both the configured run and the conservative preset diverged; the
    /// flow continued from the best-so-far placement.
    BestSoFar {
        /// What tripped the last detector.
        cause: DivergenceCause,
        /// Recovery rollbacks attempted across the failed runs.
        recoveries: usize,
    },
}

/// Wall-clock seconds per flow phase (the columns of Tables II/III).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowTiming {
    /// Bookshelf write+read round-trip (0 when disabled).
    pub io: f64,
    /// Global placement.
    pub gp: f64,
    /// Legalization.
    pub lg: f64,
    /// Detailed placement.
    pub dp: f64,
    /// End to end.
    pub total: f64,
}

/// Result of the full flow.
#[derive(Debug, Clone)]
pub struct FlowResult<T> {
    /// Final (legal) placement.
    pub placement: Placement<T>,
    /// HPWL right after global placement.
    pub hpwl_gp: f64,
    /// HPWL after legalization.
    pub hpwl_legal: f64,
    /// HPWL after detailed placement (the tables' HPWL column).
    pub hpwl_final: f64,
    /// Global placement statistics.
    pub gp: GpStats,
    /// Legalization statistics.
    pub lg: LgStats,
    /// Detailed placement statistics (`None` when DP is disabled).
    pub dp: Option<DpStats>,
    /// Phase timing.
    pub timing: FlowTiming,
    /// `Some` when global placement diverged and the flow degraded
    /// gracefully instead of failing (see [`GpFallback`]). In-run
    /// rollbacks that recovered are in [`GpStats::recovery_events`].
    pub gp_fallback: Option<GpFallback>,
    /// What the design sanitizer found (and repaired); empty when clean.
    pub sanitize: SanitizeReport,
    /// Every degradation the flow took; empty on the clean path.
    pub degradations: FlowDegradations,
}

/// Flow configuration: each stage's knobs, once. The sanitizer and the GP
/// divergence ladder always run; neither costs anything on a clean run.
/// Wall-clock budgets are the stages' own: [`GpConfig::max_seconds`] (the
/// engine stops at it like an iteration cap) and
/// [`DetailedPlacer::max_seconds`] (checked between passes), both off by
/// default. So is the legalizer's displacement gate
/// ([`Legalizer::with_max_displacement`]); the DP pass gate always runs and
/// reverts any pass that worsens HPWL by more than rounding.
#[derive(Debug, Clone)]
pub struct FlowConfig<T> {
    /// Global placement configuration (see [`ToolMode::gp_config`]).
    pub gp: GpConfig<T>,
    /// Run the detailed placement stage.
    pub run_dp: bool,
    /// Detailed placement knobs.
    pub dp: DetailedPlacer,
    /// Legalizer knobs (displacement gate, fault injection, ablation).
    pub lg: Legalizer,
    /// Round-trip the design through Bookshelf files to measure IO (the
    /// paper's IO column). Uses a per-design temp directory.
    pub io_roundtrip: bool,
    /// Trace collector threaded through every stage. Disabled by default:
    /// the flow then skips all recording (two branch checks per event)
    /// and stays bit-identical to an uninstrumented build.
    pub telemetry: dp_telemetry::Telemetry,
}

impl<T: Float> FlowConfig<T> {
    /// Builds the configuration for a tool mode with flow defaults
    /// (DP enabled, IO disabled).
    pub fn for_mode(mode: ToolMode, netlist: &dp_netlist::Netlist<T>) -> Self {
        Self {
            gp: mode.gp_config(netlist),
            run_dp: true,
            dp: DetailedPlacer::new(),
            lg: Legalizer::new(),
            io_roundtrip: false,
            telemetry: dp_telemetry::Telemetry::disabled(),
        }
    }
}

/// The flow driver; see the [crate example](crate).
pub struct DreamPlacer<T> {
    config: FlowConfig<T>,
}

impl<T: Float> DreamPlacer<T> {
    /// Creates the driver.
    pub fn new(config: FlowConfig<T>) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FlowConfig<T> {
        &self.config
    }

    /// Runs the full flow on a design: a thin loop over
    /// [`FlowMachine::step`] (use the machine directly — or
    /// [`DreamPlacer::place_durable`] — for checkpoint/resume).
    ///
    /// The sanitizer runs first: fatal defects abort with
    /// [`FlowError::Sanitize`], repairable ones are fixed in a copy and
    /// reported in [`FlowResult::sanitize`]. Each later stage is guarded:
    /// GP divergence degrades through the conservative preset to the
    /// best-so-far placement, a failed or over-budget Abacus keeps the
    /// Tetris result, an illegal audit retries Tetris-only from the GP
    /// placement, and a DP pass that worsens HPWL is reverted and
    /// disabled. Every fallback taken is recorded in
    /// [`FlowResult::degradations`].
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn place(&self, design: &GeneratedDesign<T>) -> Result<FlowResult<T>, FlowError<T>> {
        let mut machine = FlowMachine::new(self.config.clone(), design);
        loop {
            if machine.step()? == FlowState::Done {
                break;
            }
        }
        machine.into_result()
    }
}

/// A known-safe GP configuration for divergence fallback: Adam at a
/// quarter-bin learning rate, LSE wirelength, and the paper's default
/// scheduler knobs (a runaway `mu_min`/`mu_max` override is the most
/// common way to make the primary configuration diverge).
pub(crate) fn conservative_preset<T: Float>(gp: &GpConfig<T>, nl: &Netlist<T>) -> GpConfig<T> {
    let mut cfg = gp.clone();
    let region = nl.region();
    let bin = (region.width().to_f64() / cfg.bins.0 as f64
        + region.height().to_f64() / cfg.bins.1 as f64)
        * 0.5;
    cfg.solver = SolverKind::Adam {
        lr: bin * 0.25,
        decay: 0.997,
    };
    cfg.wirelength = WirelengthModel::Lse;
    cfg.mu_min = 0.95;
    cfg.mu_max = 1.05;
    cfg.tcad_mu_stabilization = true;
    cfg.lambda_update_interval = 1;
    cfg
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;
    use dp_lg::check_legal;

    fn design() -> GeneratedDesign<f64> {
        GeneratorConfig::new("flow-test", 300, 330)
            .with_seed(12)
            .with_utilization(0.6)
            .generate::<f64>()
            .expect("ok")
    }

    fn quick(mode: ToolMode, d: &GeneratedDesign<f64>) -> FlowConfig<f64> {
        let mut cfg = FlowConfig::for_mode(mode, &d.netlist);
        cfg.gp.max_iters = 300;
        cfg.gp.target_overflow = 0.15;
        if let dp_gp::InitKind::WirelengthOnly { iters } = cfg.gp.init {
            cfg.gp.init = dp_gp::InitKind::WirelengthOnly {
                iters: iters.min(50),
            };
        }
        cfg
    }

    #[test]
    fn full_flow_produces_legal_improving_placement() {
        let d = design();
        let cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        let r = DreamPlacer::new(cfg).place(&d).expect("flow runs");
        assert!(r.hpwl_final <= r.hpwl_legal, "DP must not hurt");
        assert!(r.hpwl_final > 0.0);
        assert!(r.timing.gp > 0.0 && r.timing.lg > 0.0);
        // Clean design: no findings, no degradations.
        assert!(r.sanitize.is_clean(), "{}", r.sanitize);
        assert!(r.degradations.is_clean(), "{}", r.degradations);
        let report = check_legal(&d.netlist, &r.placement);
        assert!(report.is_legal(), "{report:?}");
    }

    #[test]
    fn baseline_and_dreamplace_reach_similar_quality() {
        let d = design();
        let fast = DreamPlacer::new(quick(ToolMode::DreamplaceGpuSim, &d))
            .place(&d)
            .expect("fast flow");
        let base = DreamPlacer::new(quick(ToolMode::ReplaceBaseline { threads: 1 }, &d))
            .place(&d)
            .expect("baseline flow");
        let gap = (fast.hpwl_final - base.hpwl_final).abs() / base.hpwl_final;
        assert!(
            gap < 0.12,
            "quality gap {gap} too large: {} vs {}",
            fast.hpwl_final,
            base.hpwl_final
        );
        // Baseline spends extra time in its initial placement stage.
        assert!(base.gp.timing.init > fast.gp.timing.init);
    }

    #[test]
    fn flow_falls_back_to_conservative_preset_on_divergence() {
        let d = design();
        let mut cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        // A runaway density-weight schedule: lambda multiplies by 1e120
        // every update, overflowing to infinity within a few iterations.
        // In-run rollbacks halve lambda but restore the same schedule, so
        // the run exhausts its recovery budget; the conservative preset
        // resets the schedule and completes.
        cfg.gp.mu_min = 1e120;
        cfg.gp.mu_max = 1e120;
        cfg.run_dp = false;
        let r = DreamPlacer::new(cfg).place(&d).expect("fallback completes");
        assert!(
            matches!(r.gp_fallback, Some(GpFallback::ConservativePreset { .. })),
            "{:?}",
            r.gp_fallback
        );
        // The fallback is also in the degradation log.
        assert!(
            r.degradations.for_stage(FlowStage::Gp).any(|e| matches!(
                e.fallback,
                DegradationFallback::ConservativeGpPreset
            )),
            "{}",
            r.degradations
        );
        assert!(r.hpwl_final.is_finite());
        assert!(check_legal(&d.netlist, &r.placement).is_legal());
    }

    #[test]
    fn conservative_fallback_merges_primary_exec_counters() {
        let d = design();
        let mut cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        cfg.gp.mu_min = 1e120;
        cfg.gp.mu_max = 1e120;
        cfg.run_dp = false;
        let r = DreamPlacer::new(cfg).place(&d).expect("fallback completes");
        assert!(
            matches!(r.gp_fallback, Some(GpFallback::ConservativePreset { .. })),
            "{:?}",
            r.gp_fallback
        );
        // The primary run uses WA wirelength, the conservative preset uses
        // LSE, so the two attempts record disjoint op families. Both must
        // be in the summary: before the merge fix the primary ctx's
        // counters were dropped with the ctx on fallback, undercounting
        // the run.
        let has = |prefix: &str| {
            r.gp
                .exec
                .ops
                .iter()
                .any(|(name, c)| name.starts_with(prefix) && c.calls > 0)
        };
        assert!(has("lse."), "retry ops missing: {:?}", r.gp.exec.ops);
        assert!(
            has("wa."),
            "primary attempt ops dropped on fallback: {:?}",
            r.gp.exec.ops
        );
        // Per-op wall-clock survives the merge too (satellite regression:
        // nanos, not just call counts).
        assert!(
            r.gp
                .exec
                .ops
                .iter()
                .any(|(name, c)| name.starts_with("wa.") && c.nanos > 0),
            "primary op nanos lost in merge: {:?}",
            r.gp.exec.ops
        );
    }

    #[test]
    fn flow_degrades_to_best_so_far_when_preset_also_diverges() {
        let d = design();
        let mut cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        // Poisoned gradients hit the retry too (the preset inherits the
        // fault injection), and a zero budget forbids rollbacks. A high
        // iteration floor keeps the warm-started retry from converging
        // before it reaches the poisoned evals.
        cfg.gp.max_recoveries = 0;
        cfg.gp.min_iters = 100;
        cfg.gp.fault_injection.nan_grad_evals = (60..72).collect();
        cfg.run_dp = false;
        let r = DreamPlacer::new(cfg)
            .place(&d)
            .expect("degrades, not fails");
        match r.gp_fallback {
            Some(GpFallback::BestSoFar { recoveries, .. }) => assert_eq!(recoveries, 0),
            other => panic!("expected best-so-far fallback, got {other:?}"),
        }
        // Both failed attempts' kernel counters survive into the result
        // (the old path rebuilt stats with `exec: Default::default()`).
        assert!(
            r.gp.exec.total_op_calls() > 0,
            "exec counters dropped on best-so-far fallback"
        );
        assert!(r.hpwl_final.is_finite());
        assert!(check_legal(&d.netlist, &r.placement).is_legal());
    }

    #[test]
    fn unsupported_grid_surfaces_as_gp_error() {
        let d = design();
        let mut cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        // No preset fixes a configuration error: a non-power-of-two grid
        // is rejected before the first iteration, past the divergence
        // ladder.
        cfg.gp.bins = (24, 24);
        let err = DreamPlacer::new(cfg).place(&d).expect_err("must surface");
        assert!(
            matches!(err, FlowError::Gp(dp_gp::GpError::Grid(_))),
            "unexpected error {err}"
        );
        // The diagnosis names the stage.
        assert!(err.diagnosis().starts_with("gp:"), "{}", err.diagnosis());
    }

    #[test]
    fn io_roundtrip_is_timed_and_preserves_result_quality() {
        let d = design();
        let mut cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        cfg.io_roundtrip = true;
        let r = DreamPlacer::new(cfg).place(&d).expect("flow with io");
        assert!(r.timing.io > 0.0);
        assert!(r.hpwl_final.is_finite());
    }

    #[test]
    fn injected_abacus_fault_takes_tetris_ladder() {
        // The displacement gate fires only where Abacus ends with a larger
        // maximum displacement than Tetris: seed 2 does, seed 12 does not.
        let cases = [
            (
                design(),
                Legalizer::new().with_fault_injection(dp_lg::LgFaultInjection {
                    fail_abacus: true,
                }),
                DegradationTrigger::AbacusFailed,
            ),
            (
                GeneratorConfig::new("flow-test", 300, 330)
                    .with_seed(2)
                    .with_utilization(0.6)
                    .generate::<f64>()
                    .expect("ok"),
                Legalizer::new().with_max_displacement(0.0),
                DegradationTrigger::DisplacementExceeded,
            ),
        ];
        for (d, lg, trigger) in cases {
            let mut cfg = quick(ToolMode::DreamplaceGpuSim, &d);
            cfg.lg = lg;
            let r = DreamPlacer::new(cfg).place(&d).expect("ladder survives");
            let event = r
                .degradations
                .for_stage(FlowStage::Lg)
                .next()
                .expect("lg degradation recorded");
            assert_eq!(event.trigger, trigger);
            assert_eq!(event.fallback, DegradationFallback::TetrisResult);
            assert!(check_legal(&d.netlist, &r.placement).is_legal());
        }
    }

    #[test]
    fn injected_dp_fault_disables_offending_pass() {
        let d = design();
        let mut cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        cfg.dp.fault_injection = dp_dplace::DpFaultInjection {
            worsen_pass: Some(DpPass::LocalReorder),
        };
        let r = DreamPlacer::new(cfg).place(&d).expect("ladder survives");
        let event = r
            .degradations
            .for_stage(FlowStage::Dp)
            .next()
            .expect("dp degradation recorded");
        assert!(matches!(
            event.trigger,
            DegradationTrigger::DpPassWorsened {
                pass: DpPass::LocalReorder,
                ..
            }
        ));
        assert_eq!(
            event.fallback,
            DegradationFallback::DisabledDpPass(DpPass::LocalReorder)
        );
        assert!(r.hpwl_final <= r.hpwl_legal, "guard must protect quality");
        assert!(check_legal(&d.netlist, &r.placement).is_legal());
    }

    #[test]
    fn stage_budgets_stop_gp_and_dp_early() {
        let d = design();
        let mut cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        cfg.gp.max_seconds = Some(0.0);
        cfg.dp.max_seconds = Some(0.0);
        let r = DreamPlacer::new(cfg).place(&d).expect("budgets degrade");
        assert_eq!(r.gp.iterations, 0, "gp must stop at its budget");
        assert!(
            r.degradations
                .for_stage(FlowStage::Dp)
                .any(|e| e.trigger == DegradationTrigger::BudgetExhausted),
            "{}",
            r.degradations
        );
        assert!(check_legal(&d.netlist, &r.placement).is_legal());
    }

    fn design_with_macros() -> GeneratedDesign<f64> {
        GeneratorConfig::new("flow-macros", 300, 330)
            .with_seed(12)
            .with_utilization(0.6)
            .with_macros(2, 0.1)
            .generate::<f64>()
            .expect("ok")
    }

    #[test]
    fn sanitizer_repairs_out_of_core_fixed_cell() {
        let mut d = design_with_macros();
        let c = d.netlist.num_movable();
        d.fixed_positions.x[c] = d.netlist.region().xh + 100.0;
        let cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        let r = DreamPlacer::new(cfg).place(&d).expect("repaired and placed");
        assert!(
            r.sanitize
                .finding(crate::sanitize::SanitizeIssue::FixedCellOutsideCore)
                .is_some(),
            "{}",
            r.sanitize
        );
        assert!(r.hpwl_final.is_finite());
    }

    #[test]
    fn sanitizer_fatal_report_aborts_flow() {
        let mut d = design_with_macros();
        d.fixed_positions.x[d.netlist.num_movable()] = f64::NAN;
        let cfg = quick(ToolMode::DreamplaceGpuSim, &d);
        let err = DreamPlacer::new(cfg).place(&d).expect_err("fatal");
        match err {
            FlowError::Sanitize(ref report) => assert!(report.is_fatal()),
            ref other => panic!("unexpected error {other}"),
        }
        assert!(
            err.diagnosis().starts_with("sanitize:"),
            "{}",
            err.diagnosis()
        );
    }
}
