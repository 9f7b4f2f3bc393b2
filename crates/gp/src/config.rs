//! Global placement configuration.

use std::error::Error;
use std::fmt;

use dp_density::{DctBackendKind, DensityStrategy};
use dp_netlist::Netlist;
use dp_num::Float;
use dp_wirelength::WaStrategy;

/// Which smooth wirelength model drives the optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirelengthModel {
    /// Weighted-average (paper Eq. (3)) with the given kernel strategy.
    Wa(WaStrategy),
    /// Log-sum-exp (the alternate model of §III-A).
    Lse,
}

/// The gradient-descent engine (paper §III-D, Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverKind {
    /// Nesterov with Lipschitz line search (ePlace/RePlAce default).
    Nesterov,
    /// Adam with the given learning rate and per-step decay.
    Adam {
        /// Initial learning rate (in layout units per unit gradient).
        lr: f64,
        /// Multiplicative learning-rate decay per iteration.
        decay: f64,
    },
    /// SGD with momentum, same knobs as Adam.
    SgdMomentum {
        /// Initial learning rate.
        lr: f64,
        /// Multiplicative learning-rate decay per iteration.
        decay: f64,
    },
    /// Nonlinear conjugate gradient.
    ConjugateGradient,
}

/// Initial placement mode (paper Fig. 2(b) and §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitKind {
    /// DREAMPlace style: all movable cells at the region center plus a
    /// small Gaussian noise (0.1% of region extent by default).
    RandomCenter,
    /// RePlAce-baseline style: additionally run a wirelength-only
    /// optimization of the given iteration count, emulating the
    /// bound-to-bound quadratic initial placement stage whose runtime the
    /// paper measures at 25-30% of GP (§IV-A).
    WirelengthOnly {
        /// Number of wirelength-only iterations.
        iters: usize,
    },
}

/// What tripped the divergence detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceCause {
    /// The objective value became NaN or infinite.
    NonFiniteCost,
    /// The gradient contained a NaN or infinity (its infinity norm is
    /// poisoned by any non-finite component).
    NonFiniteGradient,
    /// The solver produced a non-finite coordinate (checked before the
    /// operators touch the iterate, which assume finite positions).
    NonFinitePosition,
    /// The exact HPWL or overflow of the iterate became non-finite.
    NonFiniteHpwl,
    /// The density overflow climbed far above the best value seen, the
    /// signature of an exploding density weight.
    OverflowExplosion,
}

impl fmt::Display for DivergenceCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceCause::NonFiniteCost => write!(f, "non-finite cost"),
            DivergenceCause::NonFiniteGradient => write!(f, "non-finite gradient"),
            DivergenceCause::NonFinitePosition => write!(f, "non-finite cell position"),
            DivergenceCause::NonFiniteHpwl => write!(f, "non-finite wirelength or overflow"),
            DivergenceCause::OverflowExplosion => write!(f, "density overflow exploded"),
        }
    }
}

/// Deliberate fault injection for recovery testing. Empty means no faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Main-loop objective evaluations (0-based, counting every solver
    /// eval including line-search probes) whose gradient is poisoned with
    /// NaN after computation.
    pub nan_grad_evals: Vec<usize>,
}

/// Error raised by global placement.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError<T> {
    /// The bin grid was rejected (unsupported shape or a placement region
    /// with no area).
    Grid(dp_density::GridError),
    /// The objective diverged and the recovery budget is exhausted.
    Diverged {
        /// Iteration at which the final divergence was detected.
        iteration: usize,
        /// What tripped the detector.
        cause: DivergenceCause,
        /// Rollback attempts performed before giving up.
        recoveries: usize,
        /// Best (lowest-overflow) placement seen before divergence; the
        /// initial placement if no iteration completed healthily.
        best: Box<dp_netlist::Placement<T>>,
        /// Overflow of `best` (`f64::INFINITY` if none was measured).
        best_overflow: f64,
        /// Execution-layer counters of the aborted run, so the flow can
        /// fold its kernel time into whatever retry follows (per-op nanos
        /// must survive rollback restarts). Boxed to keep the error small.
        exec: Box<dp_autograd::ExecSummary>,
        /// Convergence-health counters of the aborted run, folded into the
        /// retry's the same way.
        counts: crate::engine::GpEvalCounts,
    },
    /// A checkpointed engine state could not be reinstated (solver kind or
    /// vector shapes disagree with the configuration/netlist).
    Resume {
        /// What was inconsistent.
        reason: String,
    },
}

impl<T> fmt::Display for GpError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::Grid(e) => write!(f, "bin grid rejected: {e}"),
            GpError::Diverged {
                iteration,
                cause,
                recoveries,
                best_overflow,
                ..
            } => {
                write!(
                    f,
                    "objective diverged at iteration {iteration} ({cause}) \
                     after {recoveries} recoveries; best-so-far overflow {best_overflow}"
                )
            }
            GpError::Resume { reason } => {
                write!(f, "engine state cannot be resumed: {reason}")
            }
        }
    }
}

impl<T: fmt::Debug> Error for GpError<T> {}

impl<T> From<dp_density::GridError> for GpError<T> {
    fn from(e: dp_density::GridError) -> Self {
        GpError::Grid(e)
    }
}

impl<T> From<dp_dct::TransformError> for GpError<T> {
    fn from(e: dp_dct::TransformError) -> Self {
        GpError::Grid(dp_density::GridError::Transform(e))
    }
}

/// How the engine obtains its execution context (worker pool ownership).
///
/// The original model is [`ExecBinding::Owned`]: every run spawns its own
/// [`dp_num::WorkerPool`] of [`GpConfig::threads`] workers and keeps it for
/// the run's lifetime. Under the shared-pool scheduler the run instead
/// executes as one tenant of a host-owned pool ([`ExecBinding::Shared`]):
/// kernels launch on the same OS threads as every other job, with the
/// scheduler holding the tenant's [`dp_num::PoolLease`] around each step.
/// Sharing changes no bits — the launch chunking depends only on the
/// thread count, so [`GpConfig::threads`] must equal the shared pool's
/// width (the scheduler enforces this).
#[derive(Clone, Default)]
pub enum ExecBinding {
    /// The run spawns and owns its pool (the classic model).
    #[default]
    Owned,
    /// The run executes as a tenant of a shared pool.
    Shared(std::sync::Arc<dp_num::PoolTenant>),
}

impl fmt::Debug for ExecBinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecBinding::Owned => write!(f, "Owned"),
            ExecBinding::Shared(t) => write!(f, "Shared(threads={})", t.threads()),
        }
    }
}

impl ExecBinding {
    /// Builds the engine's execution context for this binding: a fresh
    /// pool of `threads` workers when owned, a tenant context on the
    /// shared pool otherwise. The telemetry sink is attached either way.
    pub fn make_ctx<T: Float>(
        &self,
        threads: usize,
        telemetry: dp_telemetry::Telemetry,
    ) -> dp_autograd::ExecCtx<T> {
        match self {
            ExecBinding::Owned => dp_autograd::ExecCtx::with_telemetry(threads, telemetry),
            ExecBinding::Shared(tenant) => {
                let mut ctx = dp_autograd::ExecCtx::with_tenant(std::sync::Arc::clone(tenant));
                ctx.set_telemetry(telemetry);
                ctx
            }
        }
    }
}

/// Full configuration of the global placer.
///
/// Use [`GpConfig::auto`] for sensible defaults derived from the design
/// size, then override fields as needed.
#[derive(Debug, Clone)]
pub struct GpConfig<T> {
    /// Bin grid dimensions (powers of two).
    pub bins: (usize, usize),
    /// Target density `d_t` of paper Eq. (1b).
    pub target_density: T,
    /// Stop when overflow `tau` drops to this value (RePlAce uses ~0.07).
    pub target_overflow: T,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Minimum iterations before the stop check.
    pub min_iters: usize,
    /// Wall-clock budget in seconds (`None` = unbounded). When exceeded,
    /// the run stops at the current iterate like an iteration-cap stop —
    /// a stage guard for the flow, never an error.
    pub max_seconds: Option<f64>,
    /// Wirelength model and kernel strategy.
    pub wirelength: WirelengthModel,
    /// Density scatter strategy.
    pub density_strategy: DensityStrategy,
    /// DCT tier for the spectral solver.
    pub dct_backend: DctBackendKind,
    /// Solver engine.
    pub solver: SolverKind,
    /// Initialization mode.
    pub init: InitKind,
    /// RNG seed for the initial noise.
    pub seed: u64,
    /// Initial-noise sigma as a fraction of the region extent (paper: 0.1%).
    pub noise_frac: f64,
    /// Worker threads for the kernels. [`GpConfig::auto`] defaults to
    /// [`dp_num::default_threads`] (the `DP_THREADS` env override, else the
    /// machine's available parallelism).
    pub threads: usize,
    /// Density-weight scheduler: `mu_min` (paper: 0.95).
    pub mu_min: f64,
    /// Density-weight scheduler: `mu_max` (paper: 1.05).
    pub mu_max: f64,
    /// Apply the TCAD extension's stabilization
    /// (`mu <- mu_max * max(0.9999^k, 0.98)` when `p < 0`, §III-C).
    pub tcad_mu_stabilization: bool,
    /// Update `lambda` every this many iterations (1 normally; the
    /// routability flow slows it to 5, §III-F).
    pub lambda_update_interval: usize,
    /// Gamma schedule base coefficient, in bins (ePlace uses 8.0).
    pub gamma_base_bins: f64,
    /// Optional fence regions (paper §III-G): one electric field per
    /// region plus a default field.
    pub fence: Option<crate::fence::FenceSpec<T>>,
    /// Divergence rollbacks allowed before the run surfaces
    /// [`GpError::Diverged`] with the best placement seen. A rollback
    /// returns to the last checkpoint (one every 25 healthy iterations),
    /// halves `lambda` and doubles `gamma`, compounding across rollbacks.
    pub max_recoveries: usize,
    /// Fault injection for recovery testing (empty = no faults).
    pub fault_injection: FaultInjection,
    /// No effect: density bins always accumulate in fixed point, so every
    /// run is bit-identical across thread counts. Kept because the frozen
    /// benchmark crate (`crates/perf`) still sets it.
    pub deterministic: Option<bool>,
    /// Telemetry sink for spans, convergence traces, and kernel timers.
    /// Disabled by default; never touches the numerics either way.
    pub telemetry: dp_telemetry::Telemetry,
    /// Worker-pool ownership: run-owned (default) or shared-pool tenant.
    pub exec: ExecBinding,
}

impl<T: Float> GpConfig<T> {
    /// Defaults derived from the design: bin grid near `sqrt(#movable)`
    /// per dimension (power of two, clamped to `[16, 1024]`).
    pub fn auto(netlist: &Netlist<T>) -> Self {
        let m = Self::auto_bins(netlist.num_movable());
        Self {
            bins: (m, m),
            target_density: T::ONE,
            target_overflow: T::from_f64(0.07),
            max_iters: 1000,
            min_iters: 20,
            max_seconds: None,
            wirelength: WirelengthModel::Wa(WaStrategy::Merged),
            density_strategy: DensityStrategy::Sorted,
            dct_backend: DctBackendKind::Direct2d,
            solver: SolverKind::Nesterov,
            init: InitKind::RandomCenter,
            seed: 1,
            noise_frac: 0.001,
            threads: dp_num::default_threads(),
            mu_min: 0.95,
            mu_max: 1.05,
            tcad_mu_stabilization: true,
            lambda_update_interval: 1,
            gamma_base_bins: 4.0,
            fence: None,
            max_recoveries: 3,
            fault_injection: FaultInjection::default(),
            deterministic: None,
            telemetry: dp_telemetry::Telemetry::disabled(),
            exec: ExecBinding::default(),
        }
    }

    /// Power-of-two bin count per dimension near `sqrt(n)`, in `[16, 1024]`.
    pub fn auto_bins(num_movable: usize) -> usize {
        let target = (num_movable as f64).sqrt();
        let mut m = 16usize;
        while (m as f64) < target && m < 1024 {
            m <<= 1;
        }
        m
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_netlist::NetlistBuilder;

    #[test]
    fn auto_bins_scales_with_design() {
        assert_eq!(GpConfig::<f64>::auto_bins(100), 16);
        assert_eq!(GpConfig::<f64>::auto_bins(1000), 32);
        assert_eq!(GpConfig::<f64>::auto_bins(100_000), 512);
        assert_eq!(GpConfig::<f64>::auto_bins(100_000_000), 1024);
    }

    #[test]
    fn auto_config_is_sane() {
        let mut b = NetlistBuilder::<f64>::new(0.0, 0.0, 100.0, 100.0);
        let a = b.add_movable_cell(1.0, 1.0);
        let c = b.add_movable_cell(1.0, 1.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let cfg = GpConfig::auto(&nl);
        assert_eq!(cfg.bins, (16, 16));
        assert!(cfg.target_overflow > 0.0);
        assert_eq!(cfg.lambda_update_interval, 1);
    }
}
