//! The global placement main loop, structured as a steppable engine.
//!
//! [`GpEngine`] owns every piece of loop state (operators, solver, the
//! scheduler pair, recovery bookkeeping) and advances one kernel iteration
//! per [`GpEngine::step`] call. [`GlobalPlacer::place_from`] is a thin loop
//! over `step()`, so a driver that wants to interleave work between
//! iterations — the flow state machine, a service daemon, a durable
//! checkpointer — gets the exact same trajectory as the one-shot API.
//!
//! [`GpEngine::state`] captures the complete mutable state as a plain-data
//! [`GpEngineState`] and [`GpEngine::resume`] reinstates it: a run resumed
//! from a captured state is bit-identical to one that never stopped
//! (wall-clock phase attribution aside). That contract is what the durable
//! checkpoint layer in `dreamplace-core` persists to disk.
//!
//! # One evaluation per distinct point
//!
//! Nesterov opens step `k+1` at the reference point its last backtracking
//! probe of step `k` already evaluated. The engine keeps that evaluation —
//! raw wirelength gradient, raw density gradient, both costs — in a
//! `PointMemo` keyed on the bit pattern of the packed coordinates, and
//! `PlacementObjective::eval` answers a revisit by recombining the two
//! raw gradients with the *current* `lambda` and preconditioner, running no
//! operator at all. The density half is a pure function of the point. The
//! wirelength half is not: it was computed with the `gamma` in force when
//! the point was first evaluated, so a new `gamma` takes effect at the
//! first point evaluated after the update — the behaviour of the paper's
//! released optimizer, which hands `g_{k+1}` from the accepted probe to the
//! next step (with a fresher `lambda` than it uses). Because of that
//! staleness the memo is trajectory state: it is captured in
//! [`GpEngineState`] and persisted by the durable checkpoint, so a resumed
//! run carries the same gradient the uninterrupted run would.
//!
//! # Which point the overflow describes
//!
//! The density forward sums the overflow of the map it builds, and the memo
//! keeps it beside the energy. Nesterov's last evaluated point in a step is
//! its accepted probe `v_{k+1} = u_{k+1} + c·(u_{k+1} − u_k)`, so the
//! tripwire reads the overflow there instead of scattering the iterate
//! `u_{k+1}` a second time — as the released optimizer reads it off the
//! density map of the point it just evaluated — and brings it back to the
//! iterate: `u_{k+1} = (v_{k+1} + c·u_k) / (1 + c)`, so its overflow is
//! estimated as `(tau(v_{k+1}) + c·tau_k) / (1 + c)` from the last step's
//! value `tau_k` (`overflow_at_iterate`; about 1e-3 from the exact value on
//! average, a few 1e-2 in the first, fast steps). Read raw, the overflow
//! leads the iterate by the momentum term, and `gamma` — set from it — and
//! `lambda` — set from the iterate's HPWL — oscillate with growing
//! amplitude until the run stalls (overflow ≈ 0.5 after 1000 iterations on
//! every `flow_converged` seed tried). `gamma`, `lambda`, the explosion
//! check and the history see the estimate. Adam, SGD and CG evaluate only
//! the point they step from, a reading a whole step behind the iterate
//! (Table IV's Adam lost its HPWL edge over Nesterov with it), so they
//! scatter `u_{k+1}` as before; so do uniform-field grids, whose forward
//! builds no map. Two things stay exact for Nesterov too: the HPWL is
//! computed at `u_{k+1}` (nothing evaluated it, and the `lambda` update is
//! a difference of two of them); and an estimate that would stop the run
//! is replaced by one [`DensityOp::overflow`] at `u_{k+1}`, whose value is
//! recorded, so a converged run's final overflow is that of the placement
//! it returns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dp_autograd::{ExecCtx, ExecSummary, Gradient, Operator};
use dp_density::{BinGrid, DensityOp};
use dp_netlist::{hpwl, Netlist, Placement};
use dp_num::Float;
use dp_optim::{
    Adam, ConjugateGradient, NesterovOptimizer, ObjectiveFn, Optimizer, OptimizerSnapshot,
    SgdMomentum,
};
use dp_wirelength::{LseWirelength, WaWirelength};

use crate::config::{DivergenceCause, GpConfig, GpError, InitKind, SolverKind, WirelengthModel};
use crate::fence::FencedDensityOp;
use crate::init::initial_placement;
use crate::scheduler::{DensityWeightScheduler, GammaScheduler};

/// One iteration's diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Exact HPWL at this iterate.
    pub hpwl: f64,
    /// Density overflow `tau` of this iterate: for Nesterov estimated from
    /// the step's last evaluated point (see the [module docs](self)) unless
    /// it ends the run; exact otherwise.
    pub overflow: f64,
    /// Density weight `lambda`.
    pub lambda: f64,
    /// WA/LSE smoothing `gamma`.
    pub gamma: f64,
}

/// Wall-clock spent per phase, for the paper's breakdown figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpTiming {
    /// Initial placement (including the wirelength-only stage in
    /// RePlAce-baseline mode).
    pub init: Duration,
    /// Wirelength forward+backward.
    pub wirelength: Duration,
    /// Density forward+backward (including DCT).
    pub density: Duration,
    /// Solver arithmetic (everything inside the solver's `step` minus
    /// operator time).
    pub solver: Duration,
    /// HPWL/overflow bookkeeping and schedulers.
    pub bookkeeping: Duration,
    /// End-to-end global placement time.
    pub total: Duration,
}

/// One divergence-recovery rollback, as recorded in [`GpStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Iteration at which the tripwire fired.
    pub iteration: usize,
    /// Checkpoint iteration the run rolled back to.
    pub resumed_from: usize,
    /// What tripped the detector.
    pub cause: DivergenceCause,
    /// Density weight after the backoff.
    pub lambda: f64,
    /// Cumulative gamma relaxation factor after this rollback.
    pub gamma_boost: f64,
}

/// Summary of a global placement run.
#[derive(Debug, Clone, Default)]
pub struct GpStats {
    /// Number of kernel GP iterations executed.
    pub iterations: usize,
    /// Exact HPWL of the final placement.
    pub final_hpwl: f64,
    /// Final density overflow: exact for the returned placement when the
    /// run converged; for a Nesterov run stopped otherwise, the last step's
    /// estimate of it.
    pub final_overflow: f64,
    /// Whether the overflow target was reached (vs. iteration cap).
    pub converged: bool,
    /// Per-iteration history.
    pub history: Vec<IterRecord>,
    /// Phase timing.
    pub timing: GpTiming,
    /// Number of divergence rollbacks performed.
    pub recoveries: usize,
    /// One record per rollback, in order.
    pub recovery_events: Vec<RecoveryEvent>,
    /// Execution-layer counters: pool spawns/runs, per-op totals, and
    /// workspace reuse, from the run's [`ExecCtx`].
    pub exec: ExecSummary,
    /// Convergence-health counters: evaluations and backtracks.
    pub evals: GpEvalCounts,
}

/// Convergence health of a run as counts, cumulative across resumed lives
/// and an aborted primary attempt. Per step, ePlace reports ≈ 1.04
/// evaluated points; `wl_evals / iterations` is this engine's figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpEvalCounts {
    /// Calls of the objective by the solver (step openings plus probes).
    pub objective_evals: u64,
    /// Wirelength forward+backward passes run: one per distinct point.
    pub wl_evals: u64,
    /// Density forward+backward passes run: one per distinct point.
    pub density_evals: u64,
    /// Line-search backtracks, the sum of `StepInfo::backtracks`.
    pub backtracks: u64,
}

impl GpEvalCounts {
    /// Adds `other`'s counts to `self`.
    pub fn merge(&mut self, other: &GpEvalCounts) {
        self.objective_evals += other.objective_evals;
        self.wl_evals += other.wl_evals;
        self.density_evals += other.density_evals;
        self.backtracks += other.backtracks;
    }

    /// Objective calls answered without running an operator: memo hits
    /// (plus any non-finite probe the objective refused to evaluate).
    pub fn memo_hits(&self) -> u64 {
        self.objective_evals - self.wl_evals
    }
}

/// Result of global placement: coordinates plus statistics.
#[derive(Debug, Clone)]
pub struct GpResult<T> {
    /// Final cell-center coordinates (movable cells spread, fixed intact).
    pub placement: Placement<T>,
    /// Run statistics.
    pub stats: GpStats,
}

/// The global placer; construct with a [`GpConfig`] and call
/// [`GlobalPlacer::place`]. See the [crate example](crate).
pub struct GlobalPlacer<T> {
    config: GpConfig<T>,
}

/// The density model: single electric field, or one per fence region.
/// One instance exists per placement run; variant size is irrelevant.
#[allow(clippy::large_enum_variant)]
enum DensityModel<T: Float> {
    Single(DensityOp<T>),
    Fenced(FencedDensityOp<T>),
}

impl<T: Float> DensityModel<T> {
    fn bake_fixed(&mut self, nl: &Netlist<T>, p: &Placement<T>) {
        match self {
            DensityModel::Single(op) => op.bake_fixed(nl, p),
            DensityModel::Fenced(op) => op.bake_fixed(nl, p),
        }
    }

    fn overflow(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        match self {
            DensityModel::Single(op) => op.overflow(nl, p, ctx),
            DensityModel::Fenced(op) => op.overflow(nl, p, ctx),
        }
    }

    /// The overflow of the point the last forward evaluated, read off the
    /// map(s) it built; `None` in uniform-field mode, which builds none.
    fn last_overflow(&mut self, nl: &Netlist<T>) -> Option<T> {
        match self {
            DensityModel::Single(op) => op.last_overflow(),
            DensityModel::Fenced(op) => op.last_overflow(nl),
        }
    }

    fn is_uniform_field(&self) -> bool {
        match self {
            DensityModel::Single(op) => op.is_uniform_field(),
            DensityModel::Fenced(op) => op.is_uniform_field(),
        }
    }

    fn forward_backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        g: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) -> T {
        match self {
            DensityModel::Single(op) => op.forward_backward(nl, p, g, ctx),
            DensityModel::Fenced(op) => op.forward_backward(nl, p, g, ctx),
        }
    }
}

/// The smooth wirelength operator behind the configured model.
/// One instance exists per placement run; variant size is irrelevant.
#[allow(clippy::large_enum_variant)]
enum WlOp<T: Float> {
    Wa(WaWirelength<T>),
    Lse(LseWirelength<T>),
}

impl<T: Float> WlOp<T> {
    fn gamma(&self) -> T {
        match self {
            WlOp::Wa(op) => op.gamma(),
            WlOp::Lse(op) => op.gamma(),
        }
    }

    fn set_gamma(&mut self, gamma: T) {
        match self {
            WlOp::Wa(op) => op.set_gamma(gamma),
            WlOp::Lse(op) => op.set_gamma(gamma),
        }
    }

    fn forward_backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        g: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) -> T {
        match self {
            WlOp::Wa(op) => op.forward_backward(nl, p, g, ctx),
            WlOp::Lse(op) => op.forward_backward(nl, p, g, ctx),
        }
    }
}

/// The last evaluated point: its raw wirelength and density gradients and
/// both costs. Nesterov opens every step at the point its last
/// backtracking probe just evaluated, so [`PlacementObjective::eval`] looks
/// `params` up here before running any operator; see the
/// [module docs](self) for why the wirelength half makes this run state
/// rather than a cache.
struct PointMemo<T> {
    /// Everything but the gradients, held as it is checkpointed (its key is
    /// always `2 x movable` long here).
    entry: GpMemoEntry<T>,
    /// Raw (unpreconditioned) wirelength gradient at the key.
    wl_grad: Gradient<T>,
    /// Raw (unweighted) density gradient at the key.
    density_grad: Gradient<T>,
    /// Reference switch: on a hit, run both operators again at the recorded
    /// `gamma` instead of trusting the carried values.
    #[cfg(test)]
    always_evaluate: bool,
}

impl<T: Float> PointMemo<T> {
    /// Reinstates a captured memo (an empty one when `state` is not
    /// valid); the gradients' fixed-cell entries, which nothing reads, come
    /// back as zeros.
    fn from_state(state: GpMemoState<T>, cells: usize, movable: usize) -> Result<Self, String> {
        let mut memo = Self {
            entry: GpMemoEntry {
                key: vec![T::ZERO; 2 * movable],
                ..Default::default()
            },
            wl_grad: Gradient::zeros(cells),
            density_grad: Gradient::zeros(cells),
            #[cfg(test)]
            always_evaluate: false,
        };
        if !state.entry.valid {
            return Ok(memo);
        }
        for (name, v) in [
            ("key", &state.entry.key),
            ("wirelength gradient", &state.wl_grad),
            ("density gradient", &state.density_grad),
        ] {
            if v.len() != 2 * movable {
                return Err(format!(
                    "memo {name} length {} does not match 2 x {movable} movable cells",
                    v.len()
                ));
            }
        }
        memo.entry = state.entry;
        for (g, packed) in [
            (&mut memo.wl_grad, &state.wl_grad),
            (&mut memo.density_grad, &state.density_grad),
        ] {
            g.x[..movable].copy_from_slice(&packed[..movable]);
            g.y[..movable].copy_from_slice(&packed[movable..]);
        }
        Ok(memo)
    }

    /// The memo as plain data (movable entries only; empty when invalid).
    fn state(&self, movable: usize) -> GpMemoState<T> {
        if !self.entry.valid {
            return GpMemoState::default();
        }
        let packed = |g: &Gradient<T>| [&g.x[..movable], &g.y[..movable]].concat();
        GpMemoState {
            entry: self.entry.clone(),
            wl_grad: packed(&self.wl_grad),
            density_grad: packed(&self.density_grad),
        }
    }

    /// True when `params` is the memoised point **bitwise**: `-0.0` and
    /// `0.0` evaluate alike but are still told apart, so a hit never needs
    /// an argument about the kernels.
    fn holds(&self, params: &[T]) -> bool {
        self.entry.valid
            && self
                .entry
                .key
                .iter()
                .zip(params)
                .all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits())
    }
}

/// The memo's entry without its gradients: what the engine's memo holds as
/// it is, and what [`GpMemoState`] carries beside the packed gradients.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GpMemoEntry<T> {
    /// Whether an evaluated point is held (false until the first
    /// evaluation, and while one is in flight).
    pub valid: bool,
    /// The `gamma` the wirelength half was evaluated with.
    pub gamma: T,
    /// Smooth wirelength at `key` under `gamma`.
    pub wl_cost: T,
    /// Density energy at `key`.
    pub energy: T,
    /// Density overflow at `key`, read off the map the density forward
    /// built there (what a Nesterov step's tripwire reads after the step
    /// that evaluated it); NaN on a uniform-field grid, which builds none.
    pub overflow: T,
    /// The evaluated point, packed like the parameter vector.
    pub key: Vec<T>,
}

/// Plain-data form of the engine's memo of the last evaluated point, part of
/// [`GpEngineState`]. The gradients are packed `[x_mov..., y_mov...]` like
/// the parameter vector; an invalid memo holds no vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GpMemoState<T> {
    /// The entry as the memo holds it.
    pub entry: GpMemoEntry<T>,
    /// Raw wirelength gradient at the key under the entry's `gamma`.
    pub wl_grad: Vec<T>,
    /// Raw density gradient at the key.
    pub density_grad: Vec<T>,
}

/// Objective adapter: flat params `[x_mov..., y_mov...]` to operators, with
/// Jacobi preconditioning and per-phase timing. Borrows all of its state
/// from the engine so it can be rebuilt (for free) every step.
struct PlacementObjective<'a, T: Float> {
    nl: &'a Netlist<T>,
    ops: &'a mut Operators<T>,
    lambda: T,
    pos: &'a mut Placement<T>,
    /// Costs and raw gradients of the last evaluated point.
    memo: &'a mut PointMemo<T>,
    /// Eval indices whose gradient is poisoned (fault injection).
    faults: &'a [usize],
    t_wl: &'a mut Duration,
    t_density: &'a mut Duration,
    /// This engine's objective-call index (fault injection replay).
    evals: &'a mut usize,
    counts: &'a mut GpEvalCounts,
}

impl<'a, T: Float> PlacementObjective<'a, T> {
    fn unpack(&mut self, params: &[T]) {
        let n = self.nl.num_movable();
        self.pos.x[..n].copy_from_slice(&params[..n]);
        self.pos.y[..n].copy_from_slice(&params[n..]);
    }

    /// Runs both operators at `params` and stores the result in the memo.
    fn evaluate(&mut self, params: &[T]) {
        self.unpack(params);
        let (memo, ops) = (&mut *self.memo, &mut *self.ops);
        memo.entry.valid = false;

        let t0 = Instant::now();
        memo.wl_grad.reset();
        memo.entry.gamma = ops.wl.gamma();
        memo.entry.wl_cost =
            ops.wl
                .forward_backward(self.nl, self.pos, &mut memo.wl_grad, &mut ops.ctx);
        *self.t_wl += t0.elapsed();

        let t1 = Instant::now();
        memo.density_grad.reset();
        memo.entry.energy =
            ops.density
                .forward_backward(self.nl, self.pos, &mut memo.density_grad, &mut ops.ctx);
        memo.entry.overflow = ops
            .density
            .last_overflow(self.nl)
            .unwrap_or_else(|| T::from_f64(f64::NAN));
        *self.t_density += t1.elapsed();

        memo.entry.key.copy_from_slice(params);
        memo.entry.valid = true;
        self.counts.wl_evals += 1;
        self.counts.density_evals += 1;
    }
}

impl<'a, T: Float> ObjectiveFn<T> for PlacementObjective<'a, T> {
    fn eval(&mut self, params: &[T], grad_out: &mut [T]) -> T {
        let n = self.nl.num_movable();
        let eval_idx = *self.evals;
        *self.evals += 1;
        self.counts.objective_evals += 1;

        // A solver that consumed a poisoned gradient may probe a
        // non-finite iterate within the same step, before the engine's
        // tripwire sees it. The kernels assume finite geometry, so answer
        // with a non-finite objective instead of evaluating them.
        if !params.iter().all(|v| v.is_finite()) {
            let nan = T::from_f64(f64::NAN);
            grad_out.iter_mut().for_each(|g| *g = nan);
            return nan;
        }

        let hit = self.memo.holds(params);
        #[cfg(test)]
        if hit && self.memo.always_evaluate {
            let current = self.ops.wl.gamma();
            self.ops.wl.set_gamma(self.memo.entry.gamma);
            self.evaluate(params);
            self.ops.wl.set_gamma(current);
        }
        if !hit {
            self.evaluate(params);
        }

        // Recombine with the current lambda, then Jacobi preconditioning:
        // divide by the diagonal Hessian proxy (#pins + lambda * charge),
        // the ePlace/DREAMPlace conditioner.
        let (wl, d) = (&self.memo.wl_grad, &self.memo.density_grad);
        let (pin_counts, charges) = (&self.ops.pin_counts, &self.ops.charges);
        for i in 0..n {
            let precond = (pin_counts[i] + self.lambda * charges[i]).max(T::ONE);
            grad_out[i] = (wl.x[i] + self.lambda * d.x[i]) / precond;
            grad_out[n + i] = (wl.y[i] + self.lambda * d.y[i]) / precond;
        }
        if self.faults.contains(&eval_idx) && !grad_out.is_empty() {
            grad_out[0] = T::from_f64(f64::NAN);
        }
        self.memo.entry.wl_cost + self.lambda * self.memo.entry.energy
    }
}

/// Everything needed to roll the run back to a known-good iterate — the
/// in-memory rollback target of the divergence-recovery tripwire, and part
/// of the durable [`GpEngineState`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GpRollbackState<T> {
    /// Iteration count at capture time (0 = initial state).
    pub iteration: usize,
    /// Flat parameter vector at capture time.
    pub params: Vec<T>,
    /// Solver state at capture time.
    pub solver: OptimizerSnapshot<T>,
    /// Lambda-scheduler weight at capture time.
    pub sched_lambda: T,
    /// Lambda-scheduler update counter at capture time.
    pub sched_iteration: usize,
    /// `lambda` as applied in the objective at capture time (the scheduler
    /// may lag it by up to `lambda_update_interval` iterations).
    pub lambda: T,
    /// HPWL reference for the next scheduler update.
    pub prev_hpwl: T,
    /// History length at capture time (rollback truncates to it).
    pub history_len: usize,
    /// Overflow at capture time (1.0 for the initial checkpoint).
    pub overflow: f64,
}

/// The resumable values [`GpEngine`] holds as they are: the engine steps
/// this struct, [`GpEngine::state`] clones it into a [`GpEngineState`] and
/// [`GpEngine::resume`] moves it back in.
#[derive(Debug, Clone, Default)]
pub struct GpRunState<T> {
    /// Next iteration index to execute.
    pub next_iter: usize,
    /// Iterations executed so far (`k + 1` of the last executed step).
    pub iterations: usize,
    /// Objective calls made by this attempt's engine (drives fault
    /// injection replay; `counts.objective_evals` also covers an aborted
    /// primary attempt).
    pub evals: usize,
    /// Current flat parameter vector.
    pub params: Vec<T>,
    /// Lowest-overflow parameter vector seen.
    pub best_params: Vec<T>,
    /// Overflow of `best_params` (`inf` if none measured yet).
    pub best_overflow: f64,
    /// Density weight currently applied in the objective (the scheduler
    /// may lag it by up to `lambda_update_interval` iterations).
    pub lambda: T,
    /// Cumulative gamma relaxation across rollbacks.
    pub gamma_boost: T,
    /// Cumulative lambda backoff across rollbacks.
    pub lambda_cut: T,
    /// HPWL reference for the next scheduler update.
    pub prev_hpwl: T,
    /// Divergence rollbacks performed.
    pub recoveries: usize,
    /// One record per rollback, in order.
    pub recovery_events: Vec<RecoveryEvent>,
    /// Per-iteration history.
    pub history: Vec<IterRecord>,
    /// The in-run rollback target, shared with every capture: the engine
    /// refreshes it in place every 25 healthy iterations, copying it first
    /// only while a capture still shares it, so a capture copies none of
    /// its vectors and never sees them change.
    pub rollback: Arc<GpRollbackState<T>>,
    /// Convergence-health counters, cumulative over resumed lives and an
    /// absorbed primary attempt.
    pub counts: GpEvalCounts,
}

/// Complete plain-data snapshot of a [`GpEngine`] mid-run: the engine's
/// [`GpRunState`], plus the values only a live object holds, each taken
/// from that object.
///
/// Captured by [`GpEngine::state`]; [`GpEngine::resume`] reconstructs an
/// engine that continues bit-identically. The durable checkpoint format in
/// `dreamplace-core` serializes exactly this struct.
#[derive(Debug, Clone, Default)]
pub struct GpEngineState<T> {
    /// The values the engine holds as they are.
    pub run: GpRunState<T>,
    /// The solver's state.
    pub solver: OptimizerSnapshot<T>,
    /// Smoothing gamma currently applied in the wirelength model.
    pub gamma: T,
    /// Lambda-scheduler weight.
    pub sched_lambda: T,
    /// Lambda-scheduler update counter.
    pub sched_iteration: usize,
    /// Reference `Delta HPWL` the lambda scheduler was built with (derived
    /// from the initial HPWL, which a resumed run can no longer recompute).
    pub ref_delta: T,
    /// The last evaluated point, whose gradient the next step opens with.
    pub memo: GpMemoState<T>,
    /// Wall-clock seconds consumed by the run up to the capture point
    /// (across all processes — feeds the `max_seconds` budget on resume).
    pub consumed_seconds: f64,
    /// Cumulative execution-layer counters up to the capture point.
    pub exec: ExecSummary,
}

/// What one [`GpEngine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpStepOutcome {
    /// One iteration (or one rollback) ran; the run continues.
    Continue,
    /// The overflow target was reached; the run is done.
    Converged,
    /// The iteration cap was reached; the run is done.
    IterationCap,
    /// The wall-clock budget was exhausted; the run is done (a stage
    /// guard, never an error).
    BudgetStop,
}

impl GpStepOutcome {
    /// True when the run finished (by any stopping rule).
    pub fn is_done(self) -> bool {
        !matches!(self, GpStepOutcome::Continue)
    }
}

/// Healthy iterations between in-memory rollback checkpoints (the initial
/// state is always one).
const CHECKPOINT_INTERVAL: usize = 25;
/// Multiplier on the density weight `lambda` per rollback; compounds
/// across the rollbacks of one run.
const LAMBDA_BACKOFF: f64 = 0.5;
/// Multiplier on the smoothing `gamma` per rollback; a smoother objective
/// is easier to descend.
const GAMMA_RELAX: f64 = 2.0;
/// The overflow-explosion tripwire's ratio to the best overflow seen.
const OVERFLOW_EXPLOSION: f64 = 2.0;

/// Overflow-explosion tripwire: fires when overflow exceeds `factor` times
/// the best value seen and has climbed by at least 0.1 absolute.
fn overflow_exploded(overflow: f64, best: f64, factor: f64) -> bool {
    best.is_finite() && overflow > best * factor && overflow > best + 0.1
}

/// The stopping rule: iteration `k` ends the run at this overflow.
fn converges<T: Float>(cfg: &GpConfig<T>, overflow: f64, k: usize) -> bool {
    overflow <= cfg.target_overflow.to_f64() && k + 1 >= cfg.min_iters
}

/// The overflow of the new iterate `u_{k+1}`, estimated from `read`, the
/// overflow of the point the step evaluated last, which lies at or ahead of
/// it at `v = u_{k+1} + c·(u_{k+1} − u_k)` (`c ≥ 0`, `StepInfo::lookahead`:
/// Nesterov's extrapolated reference point; `c = 0` on its first step,
/// where the estimate is the reading itself). The iterate is the
/// interpolation `(v + c·u_k) / (1 + c)`, and so, to first order, is its
/// overflow, with `previous` — the last step's value — standing in for
/// `u_k`'s. Taken raw, the reading leads the iterate by the momentum term,
/// and `gamma` and `lambda`, driven by it and by the iterate's HPWL, fall
/// into a growing oscillation.
fn overflow_at_iterate(read: f64, c: f64, previous: f64) -> f64 {
    (read + c * previous) / (1.0 + c)
}

/// Refuses a state the engine would otherwise panic on later: the
/// wirelength model, the density-weight scheduler and every rollback assert
/// a finite positive `gamma`, `gamma_boost` and `ref_delta`; `finish`
/// turns `consumed_seconds` into a `Duration`; and the step, the best
/// iterate, a divergence rollback and the solvers copy between (or
/// assert) vectors of `2 x movable` values.
fn check_resumable<T: Float>(state: &GpEngineState<T>, movable: usize) -> Result<(), String> {
    for (name, v) in [
        ("gamma", state.gamma),
        ("gamma_boost", state.run.gamma_boost),
        ("ref_delta", state.ref_delta),
    ] {
        if !(v.is_finite() && v > T::ZERO) {
            return Err(format!("{name} {v} is not finite and positive"));
        }
    }
    if Duration::try_from_secs_f64(state.consumed_seconds).is_err() {
        return Err(format!(
            "consumed seconds {} is not a duration",
            state.consumed_seconds
        ));
    }
    let rollback = &state.run.rollback;
    let vectors = [
        ("parameter", &state.run.params[..]),
        ("best parameter", &state.run.best_params),
        ("rollback parameter", &rollback.params),
    ]
    .into_iter()
    .chain(state.solver.vectors().map(|v| ("solver", v)))
    .chain(rollback.solver.vectors().map(|v| ("rollback solver", v)));
    for (name, v) in vectors {
        if v.len() != 2 * movable {
            return Err(format!(
                "{name} vector length {} does not match 2 x {movable} movable cells",
                v.len()
            ));
        }
    }
    Ok(())
}

fn make_solver<T: Float>(kind: SolverKind, n: usize, initial_step: T) -> Box<dyn Optimizer<T>> {
    match kind {
        SolverKind::Nesterov => Box::new(NesterovOptimizer::new(n, initial_step)),
        SolverKind::Adam { lr, decay } => {
            Box::new(Adam::new(n, T::from_f64(lr)).with_decay(T::from_f64(decay)))
        }
        SolverKind::SgdMomentum { lr, decay } => {
            Box::new(SgdMomentum::new(n, T::from_f64(lr)).with_decay(T::from_f64(decay)))
        }
        SolverKind::ConjugateGradient => Box::new(ConjugateGradient::new(n, initial_step)),
    }
}

/// What both constructors build the same way: the execution context, the
/// operators (fixed cells baked in) and the preconditioner's per-cell pin
/// counts and charges.
struct Operators<T: Float> {
    ctx: ExecCtx<T>,
    wl: WlOp<T>,
    density: DensityModel<T>,
    gamma_sched: GammaScheduler<T>,
    /// Half the sum of the bin sides: the solvers' initial step.
    bin_size: T,
    /// `#pins` per movable cell (wirelength preconditioner).
    pin_counts: Vec<T>,
    /// Charge per movable cell (density preconditioner).
    charges: Vec<T>,
}

impl<T: Float> Operators<T> {
    fn new(cfg: &GpConfig<T>, nl: &Netlist<T>, fixed: &Placement<T>) -> Result<Self, GpError<T>> {
        // The persistent executor: under ExecBinding::Owned worker threads
        // spawn here, once, and every kernel launches on them; under
        // ExecBinding::Shared the kernels launch on the host's long-lived
        // pool as this run's tenant. The telemetry sink (if enabled)
        // receives mirrored kernel timings and pool busy shards.
        let ctx = cfg.exec.make_ctx(cfg.threads, cfg.telemetry.clone());
        let grid = BinGrid::new(nl.region(), cfg.bins.0, cfg.bins.1)?;
        let bin_size = (grid.bin_width() + grid.bin_height()) * T::HALF;
        let gamma_sched = GammaScheduler::new(bin_size, cfg.gamma_base_bins);
        let gamma0 = gamma_sched.gamma(T::ONE);

        let wl = match cfg.wirelength {
            WirelengthModel::Wa(strategy) => WlOp::Wa(WaWirelength::new(strategy, gamma0)),
            WirelengthModel::Lse => WlOp::Lse(LseWirelength::new(gamma0)),
        };
        let mut density = match &cfg.fence {
            None => DensityModel::Single(DensityOp::with_backend(
                grid.clone(),
                cfg.density_strategy,
                cfg.target_density,
                cfg.dct_backend,
            )?),
            Some(spec) => DensityModel::Fenced(FencedDensityOp::new(
                nl,
                grid.clone(),
                cfg.density_strategy,
                cfg.target_density,
                cfg.dct_backend,
                spec.clone(),
            )?),
        };
        density.bake_fixed(nl, fixed);

        let n = nl.num_movable();
        let pin_counts = (0..n)
            .map(|i| T::from_usize(nl.cell_pins(dp_netlist::CellId::new(i)).len()))
            .collect();
        let inv_bin_area = T::ONE / grid.bin_area();
        let charges = (0..n)
            .map(|i| nl.cell_widths()[i] * nl.cell_heights()[i] * inv_bin_area)
            .collect();
        Ok(Self {
            ctx,
            wl,
            density,
            gamma_sched,
            bin_size,
            pin_counts,
            charges,
        })
    }
}

/// The steppable global placement engine; see the [module docs](self).
pub struct GpEngine<T: Float> {
    cfg: GpConfig<T>,
    ops: Operators<T>,
    lambda_sched: DensityWeightScheduler<T>,
    /// Position scratch: movable entries overwritten by every unpack,
    /// fixed entries intact from construction.
    pos: Placement<T>,
    memo: PointMemo<T>,
    solver: Box<dyn Optimizer<T>>,
    /// The resumable values this engine holds as they are checkpointed.
    run: GpRunState<T>,
    converged: bool,
    t_wl: Duration,
    t_density: Duration,
    prev_op_time: Duration,
    timing: GpTiming,
    /// Busy time this engine has accumulated: construction plus every
    /// completed `step`. Deliberately *not* wall-clock-since-construction:
    /// under the shared-pool scheduler an engine spends most of its life
    /// parked between turns, and budget accounting must not charge a job
    /// for other jobs' time.
    busy: Duration,
    /// Seconds consumed before this process picked the run up (resume).
    consumed_before: f64,
    /// Exec counters consumed before this engine's own `ExecCtx` existed:
    /// a resumed process's prior life, or an aborted primary attempt whose
    /// counters the fallback run must not lose (empty otherwise).
    base_exec: ExecSummary,
    n: usize,
    finished: Option<GpStepOutcome>,
}

impl<T: Float> GpEngine<T> {
    /// Builds the engine from scratch: initial placement, the optional
    /// wirelength-only stage, and automatic lambda initialization.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::Grid`] for unsupported bin grids.
    pub fn new(
        cfg: GpConfig<T>,
        nl: &Netlist<T>,
        fixed: &Placement<T>,
    ) -> Result<Self, GpError<T>> {
        let pos = initial_placement(nl, fixed, cfg.noise_frac, cfg.seed);
        Self::from_placement(cfg, nl, pos, None)
    }

    /// Builds the engine from an existing placement (used by the
    /// routability loop to restart after cell inflation). `lambda0`
    /// overrides the automatic density-weight initialization when given.
    ///
    /// # Errors
    ///
    /// Same as [`GpEngine::new`].
    pub fn from_placement(
        cfg: GpConfig<T>,
        nl: &Netlist<T>,
        mut pos: Placement<T>,
        lambda0: Option<T>,
    ) -> Result<Self, GpError<T>> {
        let t_start = Instant::now();
        let mut timing = GpTiming::default();
        let mut ops = Operators::new(&cfg, nl, &pos)?;
        let Operators {
            ctx,
            wl,
            density,
            gamma_sched,
            bin_size,
            pin_counts,
            ..
        } = &mut ops;
        let n = nl.num_movable();

        // --- optional wirelength-only initial stage (RePlAce mode) ------
        let t_init = Instant::now();
        if let InitKind::WirelengthOnly { iters } = cfg.init {
            let mut scratch = pos.clone();
            let mut grad = Gradient::zeros(pos.len());
            let mut params = pack(&pos, n);
            let mut solver = ConjugateGradient::new(2 * n, *bin_size);
            let mut wl_only = |p: &[T], g: &mut [T]| -> T {
                scratch.x[..n].copy_from_slice(&p[..n]);
                scratch.y[..n].copy_from_slice(&p[n..]);
                grad.reset();
                let c = wl.forward_backward(nl, &scratch, &mut grad, ctx);
                for i in 0..n {
                    let pre = pin_counts[i].max(T::ONE);
                    g[i] = grad.x[i] / pre;
                    g[n + i] = grad.y[i] / pre;
                }
                c
            };
            for _ in 0..iters {
                let _ = solver.step(&mut wl_only, &mut params);
                clamp_params(&mut params, nl);
            }
            unpack_into(&params, &mut pos, n);
        }
        timing.init = t_init.elapsed();

        // --- gamma from the measured overflow ---------------------------
        // The schedule is a function of the overflow, and the start is not
        // always the centre cluster (overflow ~ 1): restarts after cell
        // inflation, and the conservative fallback from the best iterate,
        // begin spread out. Starting those at the gamma of overflow 1 — a
        // wirelength model ~100x smoother than the placement's — throws the
        // spreading away within ten steps and trips the overflow tripwire
        // (`restart_from_a_spread_placement_does_not_diverge`). Measuring
        // also makes the update after the first step a small move like
        // every later one, so the second step's carried wirelength gradient
        // and its probes see nearly the same objective.
        let gamma = gamma_sched.gamma(density.overflow(nl, &pos, ctx));
        wl.set_gamma(gamma);

        // --- lambda initialization --------------------------------------
        let mut g_wl = Gradient::zeros(pos.len());
        let _ = wl.forward_backward(nl, &pos, &mut g_wl, ctx);
        let mut g_d = Gradient::zeros(pos.len());
        let _ = density.forward_backward(nl, &pos, &mut g_d, ctx);
        let wl_norm = g_wl.l1_norm(n);
        let d_norm_raw = g_d.l1_norm(n);
        // A zero density gradient (uniform-field mode on degenerate grids,
        // or an all-zero-area design) must yield lambda = 0, not
        // wl_norm / MIN_POSITIVE: an astronomically large lambda poisons
        // the Jacobi preconditioner and freezes the run.
        let lambda_auto = if d_norm_raw > T::ZERO {
            wl_norm / d_norm_raw.max(T::MIN_POSITIVE)
        } else {
            T::ZERO
        };
        let lambda = lambda0.unwrap_or(lambda_auto);

        let hpwl0 = hpwl(nl, &pos);
        let params = pack(&pos, n);
        let solver = make_solver(cfg.solver, 2 * n, ops.bin_size).snapshot();
        let rollback = Arc::new(GpRollbackState {
            iteration: 0,
            params: params.clone(),
            solver: solver.clone(),
            sched_lambda: lambda,
            sched_iteration: 0,
            lambda,
            prev_hpwl: hpwl0,
            history_len: 0,
            overflow: 1.0,
        });
        let state = GpEngineState {
            run: GpRunState {
                best_params: params.clone(),
                params,
                best_overflow: f64::INFINITY,
                lambda,
                gamma_boost: T::ONE,
                lambda_cut: T::ONE,
                prev_hpwl: hpwl0,
                history: Vec::with_capacity(cfg.max_iters.min(1024)),
                rollback,
                ..Default::default()
            },
            solver,
            gamma,
            sched_lambda: lambda,
            // Eq. (18)'s reference Delta HPWL: 0.5% of the initial HPWL
            // (the paper's 3.5e5 is absolute for contest-scale designs).
            ref_delta: (hpwl0 * T::from_f64(0.005)).max(T::MIN_POSITIVE),
            ..Default::default()
        };
        Self::assemble(cfg, nl, ops, pos, state, timing, t_start)
    }

    /// Reconstructs an engine mid-run from a captured [`GpEngineState`].
    ///
    /// `cfg` and `nl` must be the same configuration and netlist the state
    /// was captured under (the durable-checkpoint layer validates this);
    /// `fixed` supplies the fixed-cell coordinates exactly as in
    /// [`GpEngine::new`]. The resumed engine's trajectory is bit-identical
    /// to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`GpError::Grid`] as in [`GpEngine::new`], or [`GpError::Resume`]
    /// when the solver snapshot does not match `cfg.solver`, a vector's
    /// length does not match the netlist, `gamma`, `gamma_boost` or
    /// `ref_delta` is not finite and positive, or `consumed_seconds` is no
    /// `Duration`.
    pub fn resume(
        cfg: GpConfig<T>,
        nl: &Netlist<T>,
        fixed: &Placement<T>,
        state: GpEngineState<T>,
    ) -> Result<Self, GpError<T>> {
        let t_start = Instant::now();
        check_resumable(&state, nl.num_movable()).map_err(|reason| GpError::Resume { reason })?;
        let mut ops = Operators::new(&cfg, nl, fixed)?;
        ops.wl.set_gamma(state.gamma);
        Self::assemble(
            cfg,
            nl,
            ops,
            fixed.clone(),
            state,
            GpTiming::default(),
            t_start,
        )
    }

    /// The engine at `state`, around the operators built for it; both
    /// constructors end here.
    fn assemble(
        cfg: GpConfig<T>,
        nl: &Netlist<T>,
        ops: Operators<T>,
        pos: Placement<T>,
        state: GpEngineState<T>,
        timing: GpTiming,
        t_start: Instant,
    ) -> Result<Self, GpError<T>> {
        let n = nl.num_movable();
        let mut lambda_sched = DensityWeightScheduler::new(
            state.sched_lambda,
            cfg.mu_min,
            cfg.mu_max,
            state.ref_delta,
            cfg.tcad_mu_stabilization,
        );
        lambda_sched.set_iteration(state.sched_iteration);
        let mut solver = make_solver(cfg.solver, 2 * n, ops.bin_size);
        solver.restore(&state.solver).map_err(|e| GpError::Resume {
            reason: e.to_string(),
        })?;
        let memo = PointMemo::from_state(state.memo, pos.len(), n)
            .map_err(|reason| GpError::Resume { reason })?;
        Ok(Self {
            cfg,
            ops,
            lambda_sched,
            pos,
            memo,
            solver,
            run: state.run,
            converged: false,
            t_wl: Duration::ZERO,
            t_density: Duration::ZERO,
            prev_op_time: Duration::ZERO,
            timing,
            busy: t_start.elapsed(),
            consumed_before: state.consumed_seconds,
            base_exec: state.exec,
            n,
            finished: None,
        })
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &GpConfig<T> {
        &self.cfg
    }

    /// Next iteration index [`GpEngine::step`] would execute.
    pub fn next_iteration(&self) -> usize {
        self.run.next_iter
    }

    /// Busy seconds this run has consumed, across all processes: the sum
    /// of construction and completed steps (plus any resumed lives), never
    /// the time spent parked between scheduler turns.
    pub fn consumed_seconds(&self) -> f64 {
        self.consumed_before + self.busy.as_secs_f64()
    }

    /// Folds counters from a prior attempt (an aborted primary run whose
    /// fallback this engine is) into the run's cumulative summaries.
    pub fn absorb_prior(&mut self, exec: ExecSummary, counts: GpEvalCounts) {
        self.base_exec.merge(&exec);
        self.run.counts.merge(&counts);
    }

    fn cumulative_exec(&self) -> ExecSummary {
        let mut exec = self.ops.ctx.summary();
        exec.merge(&self.base_exec);
        exec
    }

    /// Captures the complete mutable state: a clone of the engine's
    /// [`GpRunState`] (the rollback target shared, not copied) and each
    /// live object's own snapshot.
    pub fn state(&self) -> GpEngineState<T> {
        GpEngineState {
            run: self.run.clone(),
            solver: self.solver.snapshot(),
            gamma: self.ops.wl.gamma(),
            sched_lambda: self.lambda_sched.lambda(),
            sched_iteration: self.lambda_sched.iteration(),
            ref_delta: self.lambda_sched.ref_delta(),
            memo: self.memo.state(self.n),
            consumed_seconds: self.consumed_seconds(),
            exec: self.cumulative_exec(),
        }
    }

    /// Runs one kernel iteration (or one divergence rollback).
    ///
    /// Idempotent after the run finishes: further calls return the
    /// terminal outcome without touching any state.
    ///
    /// # Errors
    ///
    /// [`GpError::Diverged`] when the objective diverges and the rollback
    /// budget is exhausted; the error carries the best placement seen and
    /// the run's cumulative exec counters.
    pub fn step(&mut self, nl: &Netlist<T>) -> Result<GpStepOutcome, GpError<T>> {
        if let Some(done) = self.finished {
            return Ok(done);
        }
        if self.run.next_iter >= self.cfg.max_iters {
            self.finished = Some(GpStepOutcome::IterationCap);
            return Ok(GpStepOutcome::IterationCap);
        }
        // Wall-clock stage budget: stop at the current iterate, exactly
        // like running out of iterations (never an error). A resumed run
        // counts the seconds its previous lives already spent.
        if let Some(budget) = self.cfg.max_seconds {
            if self.consumed_seconds() >= budget {
                self.finished = Some(GpStepOutcome::BudgetStop);
                return Ok(GpStepOutcome::BudgetStop);
            }
        }
        let t_busy = Instant::now();
        let result = self.step_core(nl);
        self.busy += t_busy.elapsed();
        result
    }

    /// The body of one iteration; `step` wraps it to accumulate busy time.
    fn step_core(&mut self, nl: &Netlist<T>) -> Result<GpStepOutcome, GpError<T>> {
        let k = self.run.next_iter;
        self.run.next_iter = k + 1;
        self.run.iterations = k + 1;
        let tel = self.cfg.telemetry.clone();
        let _iter_span = tel.span(dp_telemetry::SpanKind::Iteration, "gp.iter");
        let t_step = Instant::now();

        let (info, cause, cur_hpwl, overflow_f, t_tripwire) = {
            let mut obj = PlacementObjective {
                nl,
                ops: &mut self.ops,
                lambda: self.run.lambda,
                pos: &mut self.pos,
                memo: &mut self.memo,
                faults: &self.cfg.fault_injection.nan_grad_evals,
                t_wl: &mut self.t_wl,
                t_density: &mut self.t_density,
                evals: &mut self.run.evals,
                counts: &mut self.run.counts,
            };
            let info = self.solver.step(&mut obj, &mut self.run.params);
            clamp_params(&mut self.run.params, nl);

            // --- divergence tripwire ------------------------------------
            // Solver health and position finiteness come first: the exact
            // HPWL/overflow operators assume finite coordinates and must
            // not see a poisoned iterate.
            let pre_cause = if !info.cost.is_finite() {
                Some(DivergenceCause::NonFiniteCost)
            } else if !info.grad_norm.is_finite() {
                Some(DivergenceCause::NonFiniteGradient)
            } else if !self.run.params.iter().all(|v| v.is_finite()) {
                Some(DivergenceCause::NonFinitePosition)
            } else {
                None
            };
            let t_trip = Instant::now();
            let (cause, cur_hpwl, overflow_f) = match pre_cause {
                Some(c) => (Some(c), T::ZERO, f64::NAN),
                None => {
                    obj.unpack(&self.run.params);
                    let h = hpwl(nl, obj.pos);
                    // The overflow of u_{k+1} from the one the memo read off
                    // the map of the step's last evaluated point, when that
                    // point is u_{k+1} or lies ahead of it (see the module
                    // docs). An estimate that would end the run is replaced
                    // by the exact overflow of u_{k+1}, the placement the
                    // run returns; solvers that evaluate only the point they
                    // step from, and uniform-field grids, which build no
                    // map, scatter u_{k+1} every step.
                    let c = info.lookahead.to_f64();
                    let ahead =
                        c >= 0.0 && obj.memo.entry.valid && !obj.ops.density.is_uniform_field();
                    let estimate = ahead.then(|| {
                        let read = obj.memo.entry.overflow.to_f64();
                        let last = self.run.history.last();
                        last.map_or(read, |r| overflow_at_iterate(read, c, r.overflow))
                    });
                    let o = match estimate {
                        Some(o) if !converges(&self.cfg, o, k) => o,
                        _ => obj
                            .ops
                            .density
                            .overflow(nl, obj.pos, &mut obj.ops.ctx)
                            .to_f64(),
                    };
                    let c = if !h.is_finite() || !o.is_finite() {
                        Some(DivergenceCause::NonFiniteHpwl)
                    } else if overflow_exploded(o, self.run.best_overflow, OVERFLOW_EXPLOSION) {
                        Some(DivergenceCause::OverflowExplosion)
                    } else {
                        None
                    };
                    (c, h, o)
                }
            };
            (info, cause, cur_hpwl, overflow_f, t_trip.elapsed())
        };
        self.run.counts.backtracks += info.backtracks as u64;
        let step_elapsed = t_step.elapsed();

        // Phase attribution: operator time accumulates inside eval, the
        // tripwire's exact HPWL (and any overflow scatter it makes) is
        // bookkeeping, and whatever remains of the step is solver
        // arithmetic.
        let op_time = self.t_wl + self.t_density;
        self.timing.solver += step_elapsed
            .saturating_sub(op_time.saturating_sub(self.prev_op_time))
            .saturating_sub(t_tripwire);
        self.timing.bookkeeping += t_tripwire;
        self.prev_op_time = op_time;
        self.timing.wirelength = self.t_wl;
        self.timing.density = self.t_density;

        let t_book = Instant::now();
        if let Some(cause) = cause {
            if self.run.recoveries >= self.cfg.max_recoveries {
                let mut best = self.pos.clone();
                unpack_into(&self.run.best_params, &mut best, self.n);
                let exec = Box::new(self.cumulative_exec());
                return Err(GpError::Diverged {
                    iteration: k,
                    cause,
                    recoveries: self.run.recoveries,
                    best: Box::new(best),
                    best_overflow: self.run.best_overflow,
                    exec,
                    counts: self.run.counts,
                });
            }
            // Roll back to the checkpoint with a tamer objective:
            // smaller density weight, smoother wirelength.
            self.run.recoveries += 1;
            self.run.params.copy_from_slice(&self.run.rollback.params);
            if self.solver.restore(&self.run.rollback.solver).is_err() {
                self.solver.reset();
            }
            let mut sched = DensityWeightScheduler::new(
                self.run.rollback.sched_lambda,
                self.cfg.mu_min,
                self.cfg.mu_max,
                self.lambda_sched.ref_delta(),
                self.cfg.tcad_mu_stabilization,
            );
            sched.set_iteration(self.run.rollback.sched_iteration);
            self.lambda_sched = sched;
            // Like gamma_boost, the backoff compounds across rollbacks:
            // re-tripping from the same checkpoint must not retry the
            // same density weight.
            self.run.lambda_cut *= T::from_f64(LAMBDA_BACKOFF);
            let lambda = self.run.rollback.lambda * self.run.lambda_cut;
            self.lambda_sched.set_lambda(lambda);
            self.run.lambda = lambda;
            self.run.gamma_boost *= T::from_f64(GAMMA_RELAX);
            let gamma = self
                .ops
                .gamma_sched
                .gamma(T::from_f64(self.run.rollback.overflow))
                * self.run.gamma_boost;
            self.ops.wl.set_gamma(gamma);
            self.run.prev_hpwl = self.run.rollback.prev_hpwl;
            self.run.history.truncate(self.run.rollback.history_len);
            tel.point(
                "recovery",
                format!(
                    "gp: {cause} at iter {k}, rolled back to {} (lambda {:.3e}, gamma x{:.2})",
                    self.run.rollback.iteration,
                    lambda.to_f64(),
                    self.run.gamma_boost.to_f64()
                ),
            );
            self.run.recovery_events.push(RecoveryEvent {
                iteration: k,
                resumed_from: self.run.rollback.iteration,
                cause,
                lambda: lambda.to_f64(),
                gamma_boost: self.run.gamma_boost.to_f64(),
            });
            self.timing.bookkeeping += t_book.elapsed();
            return Ok(GpStepOutcome::Continue);
        }

        if overflow_f < self.run.best_overflow {
            self.run.best_overflow = overflow_f;
            self.run.best_params.copy_from_slice(&self.run.params);
        }

        let gamma = self.ops.gamma_sched.gamma(T::from_f64(overflow_f)) * self.run.gamma_boost;
        self.ops.wl.set_gamma(gamma);

        if (k + 1).is_multiple_of(self.cfg.lambda_update_interval.max(1)) {
            self.run.lambda = self.lambda_sched.update(cur_hpwl - self.run.prev_hpwl);
        }
        self.run.prev_hpwl = cur_hpwl;

        tel.iteration(
            k,
            cur_hpwl.to_f64(),
            overflow_f,
            self.run.lambda.to_f64(),
            gamma.to_f64(),
        );
        self.run.history.push(IterRecord {
            iteration: k,
            hpwl: cur_hpwl.to_f64(),
            overflow: overflow_f,
            lambda: self.run.lambda.to_f64(),
            gamma: gamma.to_f64(),
        });

        if (k + 1).is_multiple_of(CHECKPOINT_INTERVAL) {
            // Refreshed in place: `make_mut` copies only while a captured
            // `GpEngineState` still shares the target, which therefore
            // never changes under its holder.
            let rb = Arc::make_mut(&mut self.run.rollback);
            rb.iteration = k + 1;
            rb.params.copy_from_slice(&self.run.params);
            self.solver.snapshot_into(&mut rb.solver);
            rb.sched_lambda = self.lambda_sched.lambda();
            rb.sched_iteration = self.lambda_sched.iteration();
            rb.lambda = self.run.lambda;
            rb.prev_hpwl = self.run.prev_hpwl;
            rb.history_len = self.run.history.len();
            rb.overflow = overflow_f;
        }
        self.timing.bookkeeping += t_book.elapsed();

        if converges(&self.cfg, overflow_f, k) {
            self.converged = true;
            self.finished = Some(GpStepOutcome::Converged);
            return Ok(GpStepOutcome::Converged);
        }
        Ok(GpStepOutcome::Continue)
    }

    /// Finalizes the run: unpacks the current iterate and assembles
    /// [`GpResult`] with cumulative statistics.
    pub fn finish(mut self, nl: &Netlist<T>) -> GpResult<T> {
        let exec = self.cumulative_exec();
        let mut pos = self.pos;
        unpack_into(&self.run.params, &mut pos, self.n);
        self.timing.total = Duration::from_secs_f64(self.consumed_before).saturating_add(self.busy);
        let stats = GpStats {
            iterations: self.run.iterations,
            final_hpwl: hpwl(nl, &pos).to_f64(),
            final_overflow: self
                .run
                .history
                .last()
                .map(|r| r.overflow)
                .unwrap_or(f64::NAN),
            converged: self.converged,
            history: self.run.history,
            timing: self.timing,
            recoveries: self.run.recoveries,
            recovery_events: self.run.recovery_events,
            exec,
            evals: self.run.counts,
        };
        GpResult {
            placement: pos,
            stats,
        }
    }
}

impl<T: Float> GlobalPlacer<T> {
    /// Creates a placer from a configuration.
    pub fn new(config: GpConfig<T>) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GpConfig<T> {
        &self.config
    }

    /// Runs global placement from scratch.
    ///
    /// `fixed` supplies the coordinates of fixed cells (movable entries are
    /// ignored).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::Grid`] for unsupported bin grids and
    /// [`GpError::Diverged`] when the objective diverges (non-finite cost,
    /// gradient, or wirelength, or exploding overflow) and the rollback
    /// budget of [`GpConfig::max_recoveries`] is exhausted;
    /// the error carries the best placement seen.
    pub fn place(&self, nl: &Netlist<T>, fixed: &Placement<T>) -> Result<GpResult<T>, GpError<T>> {
        let pos = initial_placement(nl, fixed, self.config.noise_frac, self.config.seed);
        self.place_from(nl, pos, None)
    }

    /// Runs global placement from an existing placement (used by the
    /// routability loop to restart after cell inflation). `lambda0`
    /// overrides the automatic density-weight initialization when given.
    ///
    /// # Errors
    ///
    /// Same as [`GlobalPlacer::place`].
    pub fn place_from(
        &self,
        nl: &Netlist<T>,
        pos: Placement<T>,
        lambda0: Option<T>,
    ) -> Result<GpResult<T>, GpError<T>> {
        let mut engine = GpEngine::from_placement(self.config.clone(), nl, pos, lambda0)?;
        while !engine.step(nl)?.is_done() {}
        Ok(engine.finish(nl))
    }
}

fn pack<T: Float>(pos: &Placement<T>, n: usize) -> Vec<T> {
    let mut params = Vec::with_capacity(2 * n);
    params.extend_from_slice(&pos.x[..n]);
    params.extend_from_slice(&pos.y[..n]);
    params
}

fn unpack_into<T: Float>(params: &[T], pos: &mut Placement<T>, n: usize) {
    pos.x[..n].copy_from_slice(&params[..n]);
    pos.y[..n].copy_from_slice(&params[n..]);
}

/// Clamps movable cell centers into the region (half a cell inside).
fn clamp_params<T: Float>(params: &mut [T], nl: &Netlist<T>) {
    let n = nl.num_movable();
    let r = nl.region();
    for i in 0..n {
        let hw = nl.cell_widths()[i] * T::HALF;
        let hh = nl.cell_heights()[i] * T::HALF;
        params[i] = params[i].clamp(r.xl + hw, (r.xh - hw).max(r.xl + hw));
        params[n + i] = params[n + i].clamp(r.yl + hh, (r.yh - hh).max(r.yl + hh));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;

    fn small_design_of<T: Float>() -> dp_gen::GeneratedDesign<T> {
        GeneratorConfig::new("gp-test", 300, 330)
            .with_seed(5)
            .with_utilization(0.6)
            .generate::<T>()
            .expect("valid")
    }

    fn small_design() -> dp_gen::GeneratedDesign<f64> {
        small_design_of()
    }

    fn quick_config(nl: &Netlist<f64>) -> GpConfig<f64> {
        let mut cfg = GpConfig::auto(nl);
        cfg.max_iters = 400;
        cfg.target_overflow = 0.12;
        cfg
    }

    fn op_calls(s: &GpStats) -> std::collections::BTreeMap<&'static str, u64> {
        s.exec.ops.iter().map(|(n, c)| (*n, c.calls)).collect()
    }

    #[test]
    fn nesterov_spreads_cells_and_reduces_overflow() {
        let d = small_design();
        let cfg = quick_config(&d.netlist);
        let result = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("GP runs");
        assert!(
            result.stats.final_overflow < 0.2,
            "overflow {} after {} iters",
            result.stats.final_overflow,
            result.stats.iterations
        );
        // Cells actually spread out from the center cluster.
        let region = d.netlist.region();
        let n = d.netlist.num_movable();
        let min_x = result.placement.x[..n]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max_x = result.placement.x[..n]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max_x - min_x > region.width() * 0.5,
            "spread {}",
            max_x - min_x
        );
        assert!(result.stats.final_hpwl.is_finite());
        assert!(result.stats.iterations >= 20);
    }

    #[test]
    fn run_is_deterministic() {
        let d = small_design();
        let cfg = quick_config(&d.netlist);
        let a = GlobalPlacer::new(cfg.clone())
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        let b = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        assert_eq!(a.stats.iterations, b.stats.iterations);
        assert_eq!(a.stats.final_hpwl, b.stats.final_hpwl);
        assert_eq!(a.placement.x, b.placement.x);
    }

    #[test]
    fn adam_also_converges() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        let bin = d.netlist.region().width() / cfg.bins.0 as f64;
        cfg.solver = SolverKind::Adam {
            lr: bin * 0.5,
            decay: 0.997,
        };
        let result = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        assert!(
            result.stats.final_overflow < 0.3,
            "adam overflow {}",
            result.stats.final_overflow
        );
    }

    /// Adam, SGD and CG evaluate only the point they step from, a reading a
    /// whole step behind the iterate, so their tripwire scatters the
    /// iterate: one overflow scatter per step besides the one at
    /// construction (Nesterov's make none; `timing_phases_cover_the_steps`).
    #[test]
    fn solvers_without_lookahead_scatter_the_iterate() {
        let d = small_design();
        let bin = d.netlist.region().width() / quick_config(&d.netlist).bins.0 as f64;
        for solver in [
            SolverKind::Adam {
                lr: bin * 0.5,
                decay: 0.997,
            },
            SolverKind::SgdMomentum {
                lr: bin * 0.1,
                decay: 0.997,
            },
            SolverKind::ConjugateGradient,
        ] {
            let mut cfg = quick_config(&d.netlist);
            cfg.solver = solver;
            (cfg.max_iters, cfg.min_iters, cfg.target_overflow) = (20, 20, 0.0);
            let r = GlobalPlacer::new(cfg)
                .place(&d.netlist, &d.fixed_positions)
                .expect("ok");
            assert_eq!(r.stats.iterations, 20, "{solver:?}");
            assert_eq!(op_calls(&r.stats)["density.overflow"], 1 + 20, "{solver:?}");
        }
    }

    #[test]
    fn history_shows_overflow_decreasing() {
        let d = small_design();
        let cfg = quick_config(&d.netlist);
        let result = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        let h = &result.stats.history;
        assert!(h.len() >= 20);
        let early: f64 = h[..5].iter().map(|r| r.overflow).sum::<f64>() / 5.0;
        let late: f64 = h[h.len() - 5..].iter().map(|r| r.overflow).sum::<f64>() / 5.0;
        assert!(late < early, "early {early} late {late}");
        // Gamma sharpens as overflow falls.
        assert!(h.last().expect("non-empty").gamma < h[0].gamma);
    }

    #[test]
    fn timing_phases_are_recorded() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_iters = 30;
        cfg.target_overflow = 0.0; // force all 30 iterations
        cfg.min_iters = 30;
        let result = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        let t = result.stats.timing;
        assert!(t.total > Duration::ZERO);
        assert!(t.wirelength > Duration::ZERO);
        assert!(t.density > Duration::ZERO);
        assert!(t.density + t.wirelength <= t.total);
    }

    #[test]
    fn overflow_explosion_predicate() {
        // No best yet: never trips.
        assert!(!overflow_exploded(5.0, f64::INFINITY, 2.0));
        // Needs both the ratio and the absolute climb.
        assert!(overflow_exploded(0.9, 0.3, 2.0));
        assert!(!overflow_exploded(0.35, 0.3, 2.0)); // ratio not met
        assert!(!overflow_exploded(0.09, 0.04, 2.0)); // climb below 0.1
                                                      // Disabled via infinity.
        assert!(!overflow_exploded(100.0, 0.1, f64::INFINITY));
    }

    /// A NaN injected into the gradient mid-run must trigger a rollback to
    /// the last checkpoint, after which the run completes normally.
    #[test]
    fn nan_gradient_mid_run_rolls_back_and_converges() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        // Nesterov makes at most 11 evals per iteration (1 reference + 10
        // backtracking probes); 12 consecutive poisoned evals guarantee at
        // least one lands on a reference eval whose gradient norm is
        // reported, whatever the backtracking pattern. Each detected
        // divergence advances ~2 evals (poisoned reference + one aborted
        // probe), so clearing the window takes up to 6 rollbacks — give
        // the budget headroom above that.
        cfg.fault_injection.nan_grad_evals = (60..72).collect();
        cfg.max_recoveries = 8;
        let result = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("recovers from injected NaN");
        assert!(result.stats.recoveries >= 1, "no rollback recorded");
        assert_eq!(result.stats.recoveries, result.stats.recovery_events.len());
        let event = result.stats.recovery_events[0];
        assert!(
            matches!(
                event.cause,
                DivergenceCause::NonFiniteGradient
                    | DivergenceCause::NonFiniteCost
                    | DivergenceCause::NonFinitePosition
            ),
            "{event:?}"
        );
        assert!(event.resumed_from <= event.iteration);
        assert!(event.gamma_boost > 1.0);
        // The run still reaches a usable spread.
        assert!(
            result.stats.final_overflow < 0.3,
            "overflow {} after recovery",
            result.stats.final_overflow
        );
        assert!(result.stats.final_hpwl.is_finite());
        assert!(result.placement.x.iter().all(|v| v.is_finite()));
    }

    /// Same run deterministically matches itself with recovery involved.
    #[test]
    fn recovery_is_deterministic() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.fault_injection.nan_grad_evals = (60..72).collect();
        cfg.max_recoveries = 8;
        let a = GlobalPlacer::new(cfg.clone())
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        let b = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        assert_eq!(a.stats.recoveries, b.stats.recoveries);
        assert_eq!(a.stats.final_hpwl, b.stats.final_hpwl);
        assert_eq!(a.placement.x, b.placement.x);
    }

    /// With a zero recovery budget the structured error surfaces, carrying
    /// the best placement observed before the fault.
    #[test]
    fn exhausted_recovery_budget_surfaces_best_so_far() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_recoveries = 0;
        cfg.fault_injection.nan_grad_evals = (60..72).collect();
        let err = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect_err("must diverge with no recovery budget");
        match err {
            GpError::Diverged {
                iteration,
                recoveries,
                best,
                best_overflow,
                ..
            } => {
                assert_eq!(recoveries, 0);
                assert!(iteration >= 1, "healthy iterations ran first");
                assert!(best_overflow.is_finite());
                assert!(best.x.iter().all(|v| v.is_finite()));
                assert!(best.y.iter().all(|v| v.is_finite()));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// A zero wall-clock budget stops before the first iteration but still
    /// returns the (finite) initial placement — a stage guard, not an error.
    #[test]
    fn wall_clock_budget_stops_without_error() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_seconds = Some(0.0);
        let r = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("budget stop is not an error");
        assert_eq!(r.stats.iterations, 0);
        assert!(!r.stats.converged);
        assert!(r.placement.x.iter().all(|v| v.is_finite()));
    }

    /// Sub-minimum grids run in uniform-field mode: the density term is
    /// zero (so lambda initializes to 0 instead of exploding) and the run
    /// completes with finite coordinates.
    #[test]
    fn degenerate_grid_places_with_uniform_field() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.bins = (1, 1);
        cfg.max_iters = 40;
        cfg.min_iters = 5;
        let r = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("uniform-field GP completes");
        assert!(r.stats.final_hpwl.is_finite());
        assert!(r.placement.x.iter().all(|v| v.is_finite()));
        assert!(r.stats.history.iter().all(|h| h.lambda == 0.0));
    }

    #[test]
    fn wirelength_only_init_lowers_initial_hpwl() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_iters = 1;
        cfg.min_iters = 1;
        let plain = GlobalPlacer::new(cfg.clone())
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        cfg.init = InitKind::WirelengthOnly { iters: 50 };
        let warm = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        assert!(warm.stats.timing.init > plain.stats.timing.init);
    }

    /// The RePlAce-baseline start — a wirelength optimum, whose first
    /// gradient is almost all density and whose first steps barely move the
    /// iterate — still spreads to the target. (Slower than the centre
    /// cluster: the run needs about twice the iterations.)
    #[test]
    fn wirelength_only_start_converges() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_iters = 1000;
        cfg.init = InitKind::WirelengthOnly { iters: 50 };
        let r = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        assert!(
            r.stats.converged,
            "overflow {} after {} iters",
            r.stats.final_overflow,
            r.stats.iterations
        );
    }

    /// A restart from a placement that is already spread (the routability
    /// loop after cell inflation, the conservative fallback from the best
    /// iterate) must begin at the `gamma` of that placement, not at the
    /// centre cluster's: it neither trips the overflow tripwire nor throws
    /// the spreading away.
    #[test]
    fn restart_from_a_spread_placement_does_not_diverge() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_recoveries = 0;
        let placer = GlobalPlacer::new(cfg);
        let first = placer.place(&d.netlist, &d.fixed_positions).expect("ok");
        let again = placer
            .place_from(&d.netlist, first.placement, None)
            .expect("restart does not diverge");
        let worst = again
            .stats
            .history
            .iter()
            .map(|r| r.overflow)
            .fold(0.0, f64::max);
        assert!(
            worst < 2.0 * first.stats.final_overflow + 0.1,
            "overflow climbed to {worst} from {}",
            first.stats.final_overflow
        );
    }

    /// A run snapshotted mid-flight and resumed into a fresh engine must
    /// finish bit-identically to one that never stopped — the contract the
    /// durable checkpoint layer builds on.
    #[test]
    fn state_resume_is_bit_identical_to_uninterrupted_run() {
        let d = small_design();
        let cfg = quick_config(&d.netlist);
        let golden = GlobalPlacer::new(cfg.clone())
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        for stop_at in [1usize, 17, 60] {
            let pos = initial_placement(&d.netlist, &d.fixed_positions, cfg.noise_frac, cfg.seed);
            let mut first =
                GpEngine::from_placement(cfg.clone(), &d.netlist, pos, None).expect("engine");
            let mut outcome = GpStepOutcome::Continue;
            while first.next_iteration() < stop_at && !outcome.is_done() {
                outcome = first.step(&d.netlist).expect("healthy");
            }
            let state = first.state();
            drop(first); // simulated process death

            let mut resumed =
                GpEngine::resume(cfg.clone(), &d.netlist, &d.fixed_positions, state)
                    .expect("resume");
            while !resumed.step(&d.netlist).expect("healthy").is_done() {}
            let r = resumed.finish(&d.netlist);
            assert_eq!(r.stats.iterations, golden.stats.iterations, "@{stop_at}");
            assert_eq!(
                r.stats.final_hpwl.to_bits(),
                golden.stats.final_hpwl.to_bits(),
                "@{stop_at}"
            );
            assert_eq!(r.placement.x, golden.placement.x, "@{stop_at}");
            assert_eq!(r.placement.y, golden.placement.y, "@{stop_at}");
            assert_eq!(r.stats.history.len(), golden.stats.history.len());
            // Cumulative counters across the process boundary (nanos and
            // workspace first-use counts are wall-clock/lifetime artifacts).
            // The memo is part of the state, so the resumed engine opens its
            // first step with a hit exactly like the uninterrupted run.
            assert_eq!(op_calls(&r.stats), op_calls(&golden.stats), "@{stop_at}");
            assert_eq!(r.stats.exec.pool_runs, golden.stats.exec.pool_runs, "@{stop_at}");
            assert_eq!(r.stats.evals, golden.stats.evals, "@{stop_at}");
        }
    }

    /// Resuming replays fault injection from the persisted eval counter,
    /// so recovery rollbacks land on the same iterations.
    #[test]
    fn state_resume_replays_recovery_identically() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.fault_injection.nan_grad_evals = (60..72).collect();
        cfg.max_recoveries = 8;
        let golden = GlobalPlacer::new(cfg.clone())
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        assert!(golden.stats.recoveries >= 1);

        let pos = initial_placement(&d.netlist, &d.fixed_positions, cfg.noise_frac, cfg.seed);
        let mut first =
            GpEngine::from_placement(cfg.clone(), &d.netlist, pos, None).expect("engine");
        // Stop before the poisoned eval window is reached.
        while first.next_iteration() < 3 {
            first.step(&d.netlist).expect("healthy");
        }
        let state = first.state();
        drop(first);
        let mut resumed = GpEngine::resume(cfg.clone(), &d.netlist, &d.fixed_positions, state)
            .expect("resume");
        while !resumed.step(&d.netlist).expect("recovers").is_done() {}
        let r = resumed.finish(&d.netlist);
        assert_eq!(r.stats.recoveries, golden.stats.recoveries);
        assert_eq!(r.stats.recovery_events, golden.stats.recovery_events);
        assert_eq!(r.placement.x, golden.placement.x);
    }

    /// The persisted consumed-seconds counter feeds the wall-clock budget:
    /// a resumed run whose previous life already exceeded the budget stops
    /// immediately instead of restarting the clock.
    #[test]
    fn resume_honors_consumed_budget() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_seconds = Some(3600.0); // never trips in-process
        let pos = initial_placement(&d.netlist, &d.fixed_positions, cfg.noise_frac, cfg.seed);
        let mut first =
            GpEngine::from_placement(cfg.clone(), &d.netlist, pos, None).expect("engine");
        for _ in 0..5 {
            first.step(&d.netlist).expect("healthy");
        }
        let mut state = first.state();
        assert!(state.consumed_seconds > 0.0);
        state.consumed_seconds = 3600.0; // previous life spent it all
        let mut resumed =
            GpEngine::resume(cfg, &d.netlist, &d.fixed_positions, state).expect("resume");
        let outcome = resumed.step(&d.netlist).expect("budget stop");
        assert_eq!(outcome, GpStepOutcome::BudgetStop);
        let r = resumed.finish(&d.netlist);
        assert_eq!(r.stats.iterations, 5, "no further iterations may run");
    }

    /// On an engine no capture shares, each checkpoint interval rewrites
    /// the rollback target in its existing allocation.
    #[test]
    fn rollback_refresh_reuses_its_allocation() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.min_iters = 60;
        let pos = initial_placement(&d.netlist, &d.fixed_positions, cfg.noise_frac, cfg.seed);
        let mut engine = GpEngine::from_placement(cfg, &d.netlist, pos, None).expect("engine");
        let target = Arc::as_ptr(&engine.run.rollback);
        let params = engine.run.rollback.params.as_ptr();
        for interval in [1, 2] {
            while engine.next_iteration() < interval * CHECKPOINT_INTERVAL {
                assert!(!engine.step(&d.netlist).expect("healthy").is_done());
            }
            assert_eq!(
                engine.run.rollback.iteration,
                interval * CHECKPOINT_INTERVAL
            );
            assert_eq!(engine.run.rollback.params, engine.run.params);
            assert_eq!(Arc::as_ptr(&engine.run.rollback), target, "@{interval}");
            assert_eq!(engine.run.rollback.params.as_ptr(), params, "@{interval}");
        }
    }

    /// A state captured just before a checkpoint interval keeps the
    /// rollback target it captured while the engine refreshes its own, and
    /// resuming from it reproduces the uninterrupted run bit for bit.
    #[test]
    fn captured_rollback_survives_the_next_refresh() {
        let d = small_design();
        let cfg = quick_config(&d.netlist);
        let golden = GlobalPlacer::new(cfg.clone())
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        let pos = initial_placement(&d.netlist, &d.fixed_positions, cfg.noise_frac, cfg.seed);
        let mut engine =
            GpEngine::from_placement(cfg.clone(), &d.netlist, pos, None).expect("engine");
        while engine.next_iteration() < CHECKPOINT_INTERVAL - 1 {
            engine.step(&d.netlist).expect("healthy");
        }
        let state = engine.state();
        let captured = (*state.run.rollback).clone();
        while engine.next_iteration() < CHECKPOINT_INTERVAL + 5 {
            engine.step(&d.netlist).expect("healthy");
        }
        assert_eq!(engine.run.rollback.iteration, CHECKPOINT_INTERVAL);
        assert_eq!(
            *state.run.rollback, captured,
            "a capture changed under its holder"
        );
        drop(engine);

        let mut resumed =
            GpEngine::resume(cfg, &d.netlist, &d.fixed_positions, state).expect("resume");
        while !resumed.step(&d.netlist).expect("healthy").is_done() {}
        let r = resumed.finish(&d.netlist);
        assert_eq!(r.stats.iterations, golden.stats.iterations);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.placement.x), bits(&golden.placement.x));
        assert_eq!(bits(&r.placement.y), bits(&golden.placement.y));
        assert_eq!(
            r.stats.final_hpwl.to_bits(),
            golden.stats.final_hpwl.to_bits()
        );
    }

    /// Resumes a captured state edited by `edit` and drives it like a run
    /// whose next gradients are poisoned (so a divergence rollback follows
    /// at once) up to `finish`: the engine must refuse the state with a
    /// reason naming `field`, never panic later.
    fn assert_resume_refuses(field: &str, edit: impl Fn(&mut GpEngineState<f64>)) {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        let pos = initial_placement(&d.netlist, &d.fixed_positions, cfg.noise_frac, cfg.seed);
        let mut first =
            GpEngine::from_placement(cfg.clone(), &d.netlist, pos, None).expect("engine");
        for _ in 0..5 {
            first.step(&d.netlist).expect("healthy");
        }
        let mut state = first.state();
        edit(&mut state);
        cfg.fault_injection.nan_grad_evals = (state.run.evals..state.run.evals + 2).collect();
        match GpEngine::resume(cfg, &d.netlist, &d.fixed_positions, state) {
            Err(GpError::Resume { reason }) => assert!(reason.contains(field), "{reason}"),
            Err(e) => panic!("{field}: refused for another reason: {e}"),
            Ok(mut engine) => {
                for _ in 0..10 {
                    if engine.step(&d.netlist).map_or(true, GpStepOutcome::is_done) {
                        break;
                    }
                }
                let _ = engine.finish(&d.netlist);
                panic!("{field}: a hostile state was resumed");
            }
        }
    }

    #[test]
    fn resume_refuses_a_gamma_that_is_not_finite_and_positive() {
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_resume_refuses("gamma", |s| s.gamma = v);
        }
    }

    #[test]
    fn resume_refuses_a_gamma_boost_that_is_not_finite_and_positive() {
        for v in [0.0, -2.0, f64::NAN] {
            assert_resume_refuses("gamma_boost", |s| s.run.gamma_boost = v);
        }
    }

    #[test]
    fn resume_refuses_a_ref_delta_that_is_not_finite_and_positive() {
        for v in [0.0, f64::NEG_INFINITY, f64::NAN] {
            assert_resume_refuses("ref_delta", |s| s.ref_delta = v);
        }
    }

    #[test]
    fn resume_refuses_consumed_seconds_no_duration_holds() {
        for v in [-1.0, f64::NAN, f64::INFINITY, 1e30] {
            assert_resume_refuses("consumed seconds", |s| s.consumed_seconds = v);
        }
    }

    #[test]
    fn resume_refuses_a_rollback_target_of_another_length() {
        assert_resume_refuses("rollback parameter", |s| {
            Arc::make_mut(&mut s.run.rollback).params.pop();
        });
    }

    #[test]
    fn resume_refuses_solver_vectors_of_another_length() {
        let shorten = |snapshot: &mut OptimizerSnapshot<f64>| match snapshot {
            OptimizerSnapshot::Nesterov(dp_optim::NesterovState { v: Some(v), .. }) => {
                v.pop();
            }
            other => panic!("want a stepped Nesterov snapshot, got {other:?}"),
        };
        assert_resume_refuses("solver vector", |s| shorten(&mut s.solver));
        assert_resume_refuses("rollback solver vector", |s| {
            let mut solver = s.solver.clone();
            shorten(&mut solver);
            Arc::make_mut(&mut s.run.rollback).solver = solver;
        });
    }

    /// Left/right halves as two fences, so `DensityModel::Fenced` runs.
    fn two_fences<T: Float>(nl: &Netlist<T>) -> crate::FenceSpec<T> {
        let r = nl.region();
        let mid = (r.xl + r.xh) * T::HALF;
        let n = nl.num_movable();
        crate::FenceSpec {
            regions: vec![
                dp_netlist::Rect::new(r.xl, r.yl, mid, r.yh),
                dp_netlist::Rect::new(mid, r.yl, r.xh, r.yh),
            ],
            assignment: (0..n).map(|c| Some(u16::from(c >= n / 2))).collect(),
        }
    }

    /// Runs `cfg` to completion trusting the memo's carried values, or
    /// re-evaluating both operators at the recorded `gamma` on every hit.
    fn run_with_memo<T: Float>(
        cfg: &GpConfig<T>,
        d: &dp_gen::GeneratedDesign<T>,
        always_evaluate: bool,
    ) -> GpResult<T> {
        let mut engine =
            GpEngine::new(cfg.clone(), &d.netlist, &d.fixed_positions).expect("engine");
        engine.memo.always_evaluate = always_evaluate;
        while !engine.step(&d.netlist).expect("runs").is_done() {}
        engine.finish(&d.netlist)
    }

    fn bits<T: Float>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    fn assert_same_run<T: Float>(a: &GpResult<T>, b: &GpResult<T>, tag: &str) {
        assert_eq!(bits(&a.placement.x), bits(&b.placement.x), "{tag}: x");
        assert_eq!(bits(&a.placement.y), bits(&b.placement.y), "{tag}: y");
        assert_eq!(a.stats.history, b.stats.history, "{tag}: history");
        assert_eq!(
            a.stats.final_hpwl.to_bits(),
            b.stats.final_hpwl.to_bits(),
            "{tag}: final hpwl"
        );
        assert_eq!(
            a.stats.recovery_events, b.stats.recovery_events,
            "{tag}: recoveries"
        );
    }

    /// (a) The carried values against the reference that recomputes them
    /// at the recorded `gamma` on every hit, to the bit: both density
    /// models, one and two threads, healthy and with a rollback + `lambda`
    /// backoff crossing the memo.
    fn memo_matches_reference<T: Float>() {
        let d = small_design_of::<T>();
        for threads in [1usize, 2] {
            for fenced in [false, true] {
                for faulted in [false, true] {
                    let mut cfg = GpConfig::auto(&d.netlist);
                    cfg.max_iters = 90;
                    cfg.target_overflow = T::from_f64(0.12);
                    cfg.threads = threads;
                    if fenced {
                        cfg.fence = Some(two_fences(&d.netlist));
                    }
                    if faulted {
                        cfg.fault_injection.nan_grad_evals = (60..72).collect();
                        cfg.max_recoveries = 8;
                    }
                    let tag = format!("threads {threads}, fenced {fenced}, faulted {faulted}");
                    let memo = run_with_memo(&cfg, &d, false);
                    let reference = run_with_memo(&cfg, &d, true);
                    assert_same_run(&memo, &reference, &tag);
                    assert_eq!(memo.stats.recoveries > 0, faulted, "{tag}");
                    // The reference ran the operators once more per hit (a
                    // fenced model records one density op per region);
                    // nothing else differs.
                    let (mc, rc) = (memo.stats.evals, reference.stats.evals);
                    let hits = rc.wl_evals - mc.wl_evals;
                    assert!(hits as usize >= memo.stats.iterations / 2, "{tag}");
                    // (`memo_hits` also counts refused non-finite probes.)
                    assert!(hits <= mc.memo_hits(), "{tag}");
                    assert!(faulted || hits == mc.memo_hits(), "{tag}");
                    let (mut m, r) = (op_calls(&memo.stats), op_calls(&reference.stats));
                    for (name, calls) in &mut m {
                        let per_point = *name == "wa.forward_backward"
                            || (name.starts_with("density.") && *name != "density.overflow");
                        if per_point {
                            *calls += hits * (r[name] / r["wa.forward_backward"]);
                        }
                    }
                    assert_eq!(m, r, "{tag}");
                    assert_eq!(rc.density_evals, mc.density_evals + hits, "{tag}");
                    assert_eq!(
                        (rc.objective_evals, rc.backtracks),
                        (mc.objective_evals, mc.backtracks),
                        "{tag}"
                    );
                }
            }
        }
    }

    #[test]
    fn memo_is_bit_identical_to_always_evaluating_f64() {
        memo_matches_reference::<f64>();
    }

    #[test]
    fn memo_is_bit_identical_to_always_evaluating_f32() {
        memo_matches_reference::<f32>();
    }

    /// (b) A healthy run hits exactly once per step after the first: the
    /// step opens at the point the previous step's last probe evaluated, so
    /// both operators run once per distinct point.
    #[test]
    fn healthy_run_evaluates_density_once_per_distinct_point() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_iters = 40;
        cfg.min_iters = 40;
        cfg.target_overflow = 0.0; // force all 40 iterations
        let r = GlobalPlacer::new(cfg)
            .place(&d.netlist, &d.fixed_positions)
            .expect("ok");
        assert_eq!((r.stats.iterations, r.stats.recoveries), (40, 0));
        let (calls, counts) = (op_calls(&r.stats), r.stats.evals);
        // Distinct points: the first step's opening point, then one probe
        // per step plus one per backtrack.
        assert_eq!(counts.wl_evals, 1 + 40 + counts.backtracks);
        assert_eq!(counts.density_evals, counts.wl_evals);
        assert_eq!(counts.objective_evals, counts.wl_evals + 39);
        assert_eq!(counts.memo_hits(), 39);
        // The operators agree (each also ran once to initialise lambda).
        assert_eq!(calls["wa.forward_backward"], counts.wl_evals + 1);
        assert_eq!(calls["density.forward"], calls["wa.forward_backward"]);
        assert_eq!(calls["density.backward"], calls["density.forward"]);
    }

    /// (c) Hit and miss at the objective level. A hit runs no operator and
    /// keeps the wirelength of the `gamma` it was evaluated at, whatever
    /// `gamma` is now. A miss (what happens when Nesterov exhausts its
    /// backtracks and leaves the tentative point unevaluated): one ulp away
    /// in one coordinate, and `-0.0` where the key holds `0.0`, both
    /// recompute at the current `gamma` and equal a fresh engine's
    /// evaluation bit for bit.
    #[test]
    fn memo_misses_on_one_ulp_and_on_negative_zero() {
        let d = small_design();
        let cfg = quick_config(&d.netlist);
        let nl = &d.netlist;
        let n = nl.num_movable();

        /// Cost, gradient, and the (wirelength, density) op call counts.
        fn eval(
            e: &mut GpEngine<f64>,
            nl: &Netlist<f64>,
            params: &[f64],
        ) -> (f64, Vec<f64>, (u64, u64)) {
            let mut grad = vec![0.0; params.len()];
            let cost = PlacementObjective {
                nl,
                ops: &mut e.ops,
                lambda: e.run.lambda,
                pos: &mut e.pos,
                memo: &mut e.memo,
                faults: &e.cfg.fault_injection.nan_grad_evals,
                t_wl: &mut e.t_wl,
                t_density: &mut e.t_density,
                evals: &mut e.run.evals,
                counts: &mut e.run.counts,
            }
            .eval(params, &mut grad);
            let calls = |op| e.ops.ctx.op_counter(op).calls;
            (cost, grad, (calls("wa.forward_backward"), calls("density.forward")))
        }
        let fresh = |gamma: f64| {
            let mut e = GpEngine::new(cfg.clone(), nl, &d.fixed_positions).expect("engine");
            e.ops.wl.set_gamma(gamma);
            e
        };

        let gamma0 = fresh(1.0).ops.wl.gamma();
        let mut engine = fresh(gamma0);
        let mut key = engine.run.params.clone();
        key[3] = 0.0;
        let (cost, grad, base) = eval(&mut engine, nl, &key);
        // Same bits: a hit, and the same answer — also under a new gamma.
        engine.ops.wl.set_gamma(gamma0 * 0.5);
        let (cost_hit, grad_hit, calls) = eval(&mut engine, nl, &key);
        assert_eq!(calls, base);
        assert_eq!((cost_hit.to_bits(), bits(&grad_hit)), (cost.to_bits(), bits(&grad)));
        assert_eq!(engine.memo.entry.gamma, gamma0);
        let (cost_new_gamma, ..) = eval(&mut fresh(gamma0 * 0.5), nl, &key);
        assert_ne!(cost_new_gamma.to_bits(), cost.to_bits(), "gamma matters");

        let mut one_ulp = key.clone();
        one_ulp[n + 7] = f64::from_bits(one_ulp[n + 7].to_bits() + 1);
        let mut neg_zero = key.clone();
        neg_zero[3] = -0.0;
        for (i, probe) in [one_ulp, neg_zero].iter().enumerate() {
            let (cost, grad, calls) = eval(&mut engine, nl, probe);
            let ran = 1 + i as u64;
            assert_eq!(calls, (base.0 + ran, base.1 + ran), "probe {i} must recompute");
            assert_eq!(engine.memo.entry.gamma, gamma0 * 0.5, "probe {i}");
            let (cost_fresh, grad_fresh, _) = eval(&mut fresh(gamma0 * 0.5), nl, probe);
            assert_eq!(cost.to_bits(), cost_fresh.to_bits(), "probe {i}");
            assert_eq!(bits(&grad), bits(&grad_fresh), "probe {i}");
        }
        assert_eq!(engine.run.counts.objective_evals, 4);
        assert_eq!(
            (engine.run.counts.wl_evals, engine.run.counts.density_evals),
            (3, 3)
        );
    }

    /// (d) Two engines stepped alternately — what the scheduler does —
    /// each keep their own memo and match their solo runs.
    #[test]
    fn alternately_stepped_engines_match_their_solo_runs() {
        let d = small_design();
        let mut cfgs = [quick_config(&d.netlist), quick_config(&d.netlist)];
        cfgs[0].max_iters = 60;
        cfgs[1].max_iters = 45;
        cfgs[1].seed += 1;
        let solo = cfgs.each_ref().map(|cfg| run_with_memo(cfg, &d, false));

        let mut engines = cfgs
            .each_ref()
            .map(|cfg| GpEngine::new(cfg.clone(), &d.netlist, &d.fixed_positions).expect("engine"));
        loop {
            let mut running = false;
            for e in &mut engines {
                running |= !e.step(&d.netlist).expect("healthy").is_done();
            }
            if !running {
                break;
            }
        }
        for (i, (e, solo)) in engines.into_iter().zip(&solo).enumerate() {
            let r = e.finish(&d.netlist);
            assert_same_run(&r, solo, &format!("engine {i}"));
            assert_eq!(op_calls(&r.stats), op_calls(&solo.stats), "engine {i}");
        }
    }

    /// `wirelength + density + solver + bookkeeping` covers the stepping
    /// time: the tripwire's exact HPWL is bookkeeping, not a residue folded
    /// into the solver share. The tripwire reads its overflow off the
    /// memo, so a fixed-iteration run scatters for the overflow exactly
    /// once: at construction, for the first gamma.
    #[test]
    fn timing_phases_cover_the_steps() {
        let d = small_design();
        let mut cfg = quick_config(&d.netlist);
        cfg.max_iters = 60;
        cfg.min_iters = 60;
        cfg.target_overflow = 0.0;
        let mut engine = GpEngine::new(cfg, &d.netlist, &d.fixed_positions).expect("engine");
        let built = engine.busy;
        // Construction measured the overflow once, to set the first gamma.
        let at_build = engine.ops.ctx.op_counter("density.overflow");
        assert_eq!(at_build.calls, 1);
        while !engine.step(&d.netlist).expect("healthy").is_done() {}
        let stepped = (engine.busy - built).as_secs_f64();
        let t = engine.timing;
        let phases = (t.wirelength + t.density + t.solver + t.bookkeeping).as_secs_f64();
        assert!(
            (stepped - phases).abs() <= 0.02 * stepped,
            "phases {phases} s of {stepped} s stepped"
        );
        // No step scattered for its overflow; 60 exact HPWLs are still
        // bookkeeping.
        let overflow = engine.ops.ctx.op_counter("density.overflow");
        assert_eq!(overflow.calls, 1, "the one at construction");
        assert!(t.bookkeeping > Duration::ZERO);
        assert_eq!(engine.run.history.len(), 60);
    }

    /// The tripwire estimates the iterate's overflow from the memo's
    /// reading at the accepted probe without scattering the iterate: the
    /// estimate tracks the exact overflow of every iterate closely. An
    /// estimate at the target is replaced by the exact value, which is the
    /// one recorded — so a converged run's final overflow is the overflow
    /// of the placement it returns, to the bit: both density models, f64
    /// and f32.
    fn converged_final_overflow_is_the_returned_placements<T: Float>() {
        let d = small_design_of::<T>();
        for fenced in [false, true] {
            let mut cfg = GpConfig::auto(&d.netlist);
            cfg.threads = 1;
            cfg.max_iters = 1000;
            cfg.target_overflow = T::from_f64(0.12);
            if fenced {
                cfg.fence = Some(two_fences(&d.netlist));
            }
            let tag = format!("{} fenced {fenced}", T::PRECISION_NAME);
            let mut engine =
                GpEngine::new(cfg.clone(), &d.netlist, &d.fixed_positions).expect("engine");
            // An independent density model measures each iterate exactly.
            let mut density = Operators::new(&cfg, &d.netlist, &d.fixed_positions)
                .expect("ops")
                .density;
            let mut ctx = ExecCtx::new(1);
            let mut iterate = d.fixed_positions.clone();
            let scatters = |e: &GpEngine<T>| e.ops.ctx.op_counter("density.overflow").calls;
            let (mut steps, mut confirms, mut worst) = (0, 0, 0.0f64);
            let (mut total, mut n_est) = (0.0f64, 0usize);
            loop {
                let before = scatters(&engine);
                let done = engine.step(&d.netlist).expect("healthy").is_done();
                steps += 1;
                unpack_into(&engine.run.params, &mut iterate, engine.n);
                let exact = density.overflow(&d.netlist, &iterate, &mut ctx).to_f64();
                let recorded = engine.run.history.last().expect("a step ran").overflow;
                if scatters(&engine) == before {
                    worst = worst.max((recorded - exact).abs());
                    total += (recorded - exact).abs();
                    n_est += 1;
                } else {
                    // An estimate at the target, replaced by the exact value.
                    assert_eq!(recorded.to_bits(), exact.to_bits(), "{tag} step {steps}");
                    confirms += 1;
                }
                if done {
                    break;
                }
            }
            // The early steps, where the overflow moves by 0.01-0.05 a
            // step, are the worst (~0.03 here); later ones ~1e-3.
            let mean = total / n_est as f64;
            assert!(
                worst < 0.05 && mean < 3e-3,
                "{tag}: off by {mean} on average, {worst} at worst"
            );
            let r = engine.finish(&d.netlist);
            assert!(
                r.stats.converged,
                "{tag}: overflow {}",
                r.stats.final_overflow
            );
            assert!(
                confirms >= 1 && confirms < steps / 10,
                "{tag}: {confirms} confirms"
            );
            let exact = density
                .overflow(&d.netlist, &r.placement, &mut ctx)
                .to_f64();
            assert_eq!(r.stats.final_overflow.to_bits(), exact.to_bits(), "{tag}");
            assert!(exact <= 0.12, "{tag}");
        }
    }

    #[test]
    fn converged_final_overflow_is_the_returned_placements_f64() {
        converged_final_overflow_is_the_returned_placements::<f64>();
    }

    #[test]
    fn converged_final_overflow_is_the_returned_placements_f32() {
        converged_final_overflow_is_the_returned_placements::<f32>();
    }
}
