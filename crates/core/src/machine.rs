//! The flow as an explicit, steppable, serializable state machine.
//!
//! [`DreamPlacer::place`](crate::flow::DreamPlacer::place) is a thin loop
//! over [`FlowMachine::step`]; each step executes the smallest externally
//! meaningful unit of work — one GP iteration, one DP pass, one whole LG
//! stage — and the machine can be captured between any two steps as a
//! plain-data [`CheckpointData`] and later rebuilt with
//! [`FlowMachine::resume`] such that the continued run is bit-identical to
//! one that was never interrupted.
//!
//! State graph (every run walks left to right; `Failed` is absorbing):
//!
//! ```text
//! Init -> Sanitize -> Gp{iter k} -> Lg -> Dp{pass p} -> Finish -> Done
//!    \________\____________\_________\_______\____________\----> Failed
//! ```
//!
//! The GP divergence ladder of the straight-line flow lives inside the
//! `Gp` state: a primary attempt that diverges is replaced in place by the
//! conservative-preset attempt (warm-started from the primary's best
//! iterate), and if that diverges too the machine degrades to the
//! best-so-far placement and moves on to `Lg`. Checkpoints taken mid-GP
//! record which attempt is running so a resumed process rebuilds the same
//! engine configuration.
//!
//! Durability protocol (see [`DreamPlacer::place_durable`]):
//!
//! * a checkpoint is written after every state-kind transition, every
//!   `--checkpoint-every` GP iterations, and every completed DP round;
//! * writes are atomic (tmp file + fdatasync + rename + directory fsync),
//!   so a crash mid-write leaves the previous checkpoint intact; the
//!   snapshot is captured on the flow thread (it is of that instant) while
//!   serialization and the fsync+rename run on a dedicated writer thread
//!   that coalesces superseded snapshots, and the driver joins it before
//!   reporting any outcome, so the newest snapshot is always durable — the
//!   flow just does not stall on disk;
//! * [`FlowFaultInjection::die_at`] kills the driver *before* the matching
//!   step executes and before any checkpoint for it is written — resuming
//!   therefore replays from the last durable checkpoint, which is the
//!   strongest crash model short of pulling the power cord.

use std::fmt;
use std::mem;
use std::time::Instant;

use dp_dplace::{DetailedPlacer, DpPass, DpRunState, DpStats, GuardedDpRun};
use dp_gen::GeneratedDesign;
use dp_gp::{
    DivergenceCause, GpConfig, GpEngine, GpEngineState, GpError, GpStats, GpTiming,
};
use dp_lg::{check_legal, LgFallback, LgStats};
use dp_netlist::{hpwl, Netlist, Placement};
use dp_num::Float;

use crate::checkpoint::CheckpointError;
use crate::flow::{
    conservative_preset, DegradationEvent, DegradationFallback, DegradationTrigger, DreamPlacer,
    FlowConfig, FlowDegradations, FlowError, FlowResult, FlowStage, FlowTiming, GpFallback,
};
use crate::sanitize::{sanitize_design, SanitizeReport};

/// The externally visible position of a [`FlowMachine`]: which state the
/// *next* [`FlowMachine::step`] call will execute.
///
/// Also doubles as the kill-point specification for
/// [`FlowFaultInjection`] and the `--die-at` CLI flag (`gp:40`, `dp:1`,
/// `lg`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// Input loading (optional Bookshelf round-trip).
    Init,
    /// The design sanitizer.
    Sanitize,
    /// Global placement; `iteration` is the next engine iteration index.
    Gp {
        /// Next GP iteration to execute (0-based).
        iteration: usize,
    },
    /// Legalization (runs as one step).
    Lg,
    /// Detailed placement; `pass` counts guarded pass-steps executed by
    /// this process (0-based; resumed runs restart the count).
    Dp {
        /// Next DP pass-step to execute.
        pass: usize,
    },
    /// Final HPWL audit, writeback, and result assembly.
    Finish,
    /// The run completed; [`FlowMachine::finish`] yields the result.
    Done,
    /// A step returned an error; the machine is dead.
    Failed,
}

impl fmt::Display for FlowState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowState::Init => write!(f, "init"),
            FlowState::Sanitize => write!(f, "sanitize"),
            FlowState::Gp { iteration } => write!(f, "gp:{iteration}"),
            FlowState::Lg => write!(f, "lg"),
            FlowState::Dp { pass } => write!(f, "dp:{pass}"),
            FlowState::Finish => write!(f, "finish"),
            FlowState::Done => write!(f, "done"),
            FlowState::Failed => write!(f, "failed"),
        }
    }
}

impl FlowState {
    /// Parses the `--die-at` / display syntax (`init`, `sanitize`,
    /// `gp:<iter>`, `lg`, `dp:<pass>`, `finish`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "init" => return Some(FlowState::Init),
            "sanitize" => return Some(FlowState::Sanitize),
            "lg" => return Some(FlowState::Lg),
            "finish" => return Some(FlowState::Finish),
            "done" => return Some(FlowState::Done),
            "failed" => return Some(FlowState::Failed),
            _ => {}
        }
        let (stage, idx) = s.split_once(':')?;
        let idx: usize = idx.parse().ok()?;
        match stage {
            "gp" => Some(FlowState::Gp { iteration: idx }),
            "dp" => Some(FlowState::Dp { pass: idx }),
            _ => None,
        }
    }
}

/// Fault injection for crash testing: the durable driver exits before
/// executing the named state, simulating a process death at that point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowFaultInjection {
    /// Die when the machine's pending state equals this.
    pub die_at: Option<FlowState>,
}

impl FlowFaultInjection {
    /// Kills the durable driver right before `state` would execute.
    pub fn die_at(state: FlowState) -> Self {
        Self {
            die_at: Some(state),
        }
    }
}

/// Where and how often [`DreamPlacer::place_durable`] writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding the checkpoint file (created if missing).
    pub dir: std::path::PathBuf,
    /// Checkpoint every `n` GP iterations (stage boundaries and completed
    /// DP rounds are always checkpointed). 0 disables the mid-GP cadence.
    pub every_gp_iters: usize,
}

impl CheckpointPolicy {
    /// Policy with the default cadence (every 50 GP iterations).
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_gp_iters: 50,
        }
    }

    /// Overrides the GP-iteration cadence.
    pub fn every(mut self, n: usize) -> Self {
        self.every_gp_iters = n;
        self
    }
}

/// Outcome of [`DreamPlacer::place_durable`].
#[derive(Debug)]
pub enum DurableOutcome<T> {
    /// The flow ran to completion (boxed: the result dwarfs `Killed`).
    Completed(Box<FlowResult<T>>),
    /// Fault injection killed the process before the named state ran.
    Killed {
        /// The pending state at death.
        at: FlowState,
    },
}

/// Identity of the design a checkpoint belongs to; resume refuses to
/// continue onto a different netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignStamp {
    /// Design name.
    pub name: String,
    /// Total cell count.
    pub cells: usize,
    /// Movable cell count.
    pub movable: usize,
    /// Net count.
    pub nets: usize,
}

impl DesignStamp {
    fn of<T: Float>(design: &GeneratedDesign<T>) -> Self {
        Self {
            name: design.name.clone(),
            cells: design.netlist.num_cells(),
            movable: design.netlist.num_movable(),
            nets: design.netlist.num_nets(),
        }
    }

    fn check<T: Float>(&self, design: &GeneratedDesign<T>) -> Result<(), CheckpointError> {
        let actual = Self::of(design);
        if self.name != actual.name {
            return Err(CheckpointError::DesignMismatch {
                field: "name",
                expected: self.name.clone(),
                actual: actual.name,
            });
        }
        for (field, exp, act) in [
            ("cells", self.cells, actual.cells),
            ("movable", self.movable, actual.movable),
            ("nets", self.nets, actual.nets),
        ] {
            if exp != act {
                return Err(CheckpointError::DesignMismatch {
                    field,
                    expected: exp.to_string(),
                    actual: act.to_string(),
                });
            }
        }
        Ok(())
    }
}

/// Which GP attempt of the divergence ladder is running: the machine's own
/// record, and what a checkpoint taken mid-GP stores.
#[derive(Debug, Clone)]
pub enum GpAttemptState<T> {
    /// The configured (primary) run.
    Primary,
    /// The conservative-preset retry after a primary divergence.
    Conservative {
        /// What tripped the primary run's detector.
        cause: DivergenceCause,
        /// Rollbacks the primary run attempted before giving up.
        primary_recoveries: usize,
        /// The primary run's best-so-far placement (the adoption
        /// candidate if the retry also diverges).
        primary_best: Placement<T>,
        /// Overflow of `primary_best`.
        primary_best_overflow: f64,
    },
}

/// What a finished GP stage hands on besides its placement: held by the LG,
/// DP and finish stages as it is, and recorded by an LG or DP checkpoint.
#[derive(Debug, Clone, Default)]
pub struct GpHandoff {
    /// GP stage statistics.
    pub stats: GpStats,
    /// HPWL after GP.
    pub hpwl: f64,
}

/// The legal placement and what GP and LG hand on: held by the DP and
/// finish stages as it is, and recorded by a DP checkpoint.
#[derive(Debug, Clone)]
pub struct LegalState<T> {
    /// What GP handed on.
    pub gp: GpHandoff,
    /// LG stage statistics.
    pub lg_stats: LgStats,
    /// HPWL after LG.
    pub hpwl_legal: f64,
    /// The current (legal) placement.
    pub placement: Placement<T>,
}

/// Stage-specific payload of a checkpoint: what the stage holds, plus the
/// state of its live engine or run, taken from that object.
#[derive(Debug, Clone)]
pub enum CheckpointStage<T> {
    /// Mid-GP: the engine snapshot plus the ladder position.
    Gp {
        /// Which attempt is running.
        attempt: GpAttemptState<T>,
        /// Complete engine state.
        engine: GpEngineState<T>,
    },
    /// Between GP and LG.
    Lg {
        /// What GP handed on.
        gp: GpHandoff,
        /// The GP placement LG will start from.
        gp_placement: Placement<T>,
    },
    /// Mid-DP (between guarded passes).
    Dp {
        /// The legal placement and the earlier stages' results.
        legal: LegalState<T>,
        /// Guarded-run position.
        run: DpRunState,
    },
}

/// Plain-data snapshot of a [`FlowMachine`] between steps — everything the
/// durable checkpoint format serializes.
#[derive(Debug, Clone)]
pub struct CheckpointData<T> {
    /// The design this checkpoint belongs to.
    pub design: DesignStamp,
    /// Per-stage wall-clock consumed so far (across all processes).
    pub timing: FlowTiming,
    /// Total wall-clock consumed so far (across all processes).
    pub consumed_total: f64,
    /// Degradations recorded so far.
    pub degradations: Vec<DegradationEvent>,
    /// GP fallback taken, if the ladder already resolved.
    pub gp_fallback: Option<GpFallback>,
    /// Stage payload.
    pub stage: CheckpointStage<T>,
}

impl<T: Float> CheckpointData<T> {
    /// The state a machine resumed from this checkpoint will report as
    /// pending.
    pub fn state(&self) -> FlowState {
        match &self.stage {
            CheckpointStage::Gp { engine, .. } => FlowState::Gp {
                iteration: engine.run.next_iter,
            },
            CheckpointStage::Lg { .. } => FlowState::Lg,
            CheckpointStage::Dp { .. } => FlowState::Dp { pass: 0 },
        }
    }
}

/// How a [`FlowMachine`] holds its design: borrowed for the classic
/// synchronous `place(&design)` call (zero-cost), or owned behind an `Arc`
/// so a machine can outlive its creator — the job scheduler and the
/// `dp-serve` daemon hold `FlowMachine<'static, T>` for designs that
/// arrive dynamically.
pub enum DesignHandle<'d, T: Float> {
    /// The caller keeps ownership; the machine borrows.
    Borrowed(&'d GeneratedDesign<T>),
    /// The machine shares ownership; the borrow parameter is free (pick
    /// `'static`).
    Owned(std::sync::Arc<GeneratedDesign<T>>),
}

impl<T: Float> DesignHandle<'_, T> {
    /// The design itself.
    pub fn get(&self) -> &GeneratedDesign<T> {
        match self {
            DesignHandle::Borrowed(d) => d,
            DesignHandle::Owned(d) => d,
        }
    }
}

impl<'d, T: Float> From<&'d GeneratedDesign<T>> for DesignHandle<'d, T> {
    fn from(d: &'d GeneratedDesign<T>) -> Self {
        DesignHandle::Borrowed(d)
    }
}

impl<T: Float> From<std::sync::Arc<GeneratedDesign<T>>> for DesignHandle<'static, T> {
    fn from(d: std::sync::Arc<GeneratedDesign<T>>) -> Self {
        DesignHandle::Owned(d)
    }
}

// ---------------------------------------------------------------------------
// Internal stage data
// ---------------------------------------------------------------------------

struct GpStage<T: Float> {
    nl: Netlist<T>,
    /// The effective primary configuration (telemetry attached) — the
    /// conservative preset derives from it on fallback.
    base_cfg: GpConfig<T>,
    engine: GpEngine<T>,
    attempt: GpAttemptState<T>,
    span: dp_telemetry::Span,
}

struct LgStage<T: Float> {
    nl: Netlist<T>,
    gp: GpHandoff,
    gp_placement: Placement<T>,
}

struct DpStage<T: Float> {
    nl: Netlist<T>,
    legal: LegalState<T>,
    /// The guarded run and its placer; `None` when DP is disabled.
    guarded: Option<(DetailedPlacer, GuardedDpRun)>,
    steps: usize,
    span: dp_telemetry::Span,
}

struct FinishStage<T: Float> {
    nl: Netlist<T>,
    legal: LegalState<T>,
    dp_stats: Option<DpStats>,
}

enum Stage<T: Float> {
    Init,
    Sanitize {
        nl: Box<Netlist<T>>,
        fixed: Placement<T>,
    },
    Gp(Box<GpStage<T>>),
    Lg(Box<LgStage<T>>),
    Dp(Box<DpStage<T>>),
    Finish(Box<FinishStage<T>>),
    Done(Box<FlowResult<T>>),
    Failed,
}

// ---------------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------------

/// The flow as an explicit state machine; see the [module docs](self).
pub struct FlowMachine<'d, T: Float> {
    config: FlowConfig<T>,
    design: DesignHandle<'d, T>,
    tel: dp_telemetry::Telemetry,
    flow_span: Option<dp_telemetry::Span>,
    timing: FlowTiming,
    /// Total seconds consumed by prior processes of this run.
    consumed_total: f64,
    /// Busy seconds accumulated by this process: construction/resume plus
    /// every completed `step`. Not wall-clock-since-construction — under
    /// the shared-pool scheduler a machine spends most of its life parked
    /// between turns, and neither budgets nor reported timing may charge a
    /// job for other jobs' time.
    busy: f64,
    degradations: FlowDegradations,
    sanitize: SanitizeReport,
    gp_fallback: Option<GpFallback>,
    stage: Stage<T>,
}

type StepResult<T> = Result<(Stage<T>, FlowState), FlowError<T>>;

impl<'d, T: Float> FlowMachine<'d, T> {
    /// Starts a machine at [`FlowState::Init`] on a borrowed design, or on
    /// an `Arc` of one so the machine is `'static` and can be parked in a
    /// scheduler or daemon (see [`DesignHandle`]).
    pub fn new(config: FlowConfig<T>, design: impl Into<DesignHandle<'d, T>>) -> Self {
        let design = design.into();
        let tel = config.telemetry.clone();
        let d = design.get();
        let flow_span = tel.span(dp_telemetry::SpanKind::Flow, d.name.clone());
        tel.meta("design", &d.name);
        tel.meta("cells", d.netlist.num_cells());
        tel.meta("nets", d.netlist.num_nets());
        tel.meta("threads", config.gp.threads);
        Self {
            config,
            design,
            tel,
            flow_span: Some(flow_span),
            timing: FlowTiming::default(),
            consumed_total: 0.0,
            busy: 0.0,
            degradations: FlowDegradations::default(),
            sanitize: SanitizeReport::default(),
            gp_fallback: None,
            stage: Stage::Init,
        }
    }

    /// Rebuilds a machine from a checkpoint so that stepping it to
    /// completion is bit-identical to the uninterrupted run.
    ///
    /// The deterministic prefix (input loading, sanitation) is replayed
    /// from the design rather than persisted; the checkpoint supplies
    /// everything the replay cannot reproduce (engine state, consumed
    /// wall-clock, degradation log).
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] when the checkpoint belongs to a
    /// different design or its DP run state cannot be restored,
    /// [`FlowError::Gp`] when the engine state cannot be restored, plus any
    /// error of the replayed input stages.
    pub fn resume(
        config: FlowConfig<T>,
        design: impl Into<DesignHandle<'d, T>>,
        data: CheckpointData<T>,
    ) -> Result<Self, FlowError<T>> {
        let t_resume = Instant::now();
        let design = design.into();
        data.design
            .check(design.get())
            .map_err(FlowError::Checkpoint)?;
        let at = data.state();
        let mut m = Self::new(config, design);
        m.timing = data.timing;
        m.consumed_total = data.consumed_total;
        m.degradations = FlowDegradations {
            events: data.degradations,
        };
        m.gp_fallback = data.gp_fallback;

        // Replay the deterministic prefix.
        let (nl, fixed) = m.load_inputs()?;
        let (nl, fixed) = m.sanitize_inputs(nl, fixed)?;
        m.tel.point("resume", format!("resumed at {at} from checkpoint"));

        m.stage = match data.stage {
            CheckpointStage::Gp { attempt, engine } => {
                let span = m.tel.span(dp_telemetry::SpanKind::Stage, "gp");
                let base_cfg = m.effective_gp_cfg();
                let cfg = match &attempt {
                    GpAttemptState::Primary => base_cfg.clone(),
                    GpAttemptState::Conservative { .. } => conservative_preset(&base_cfg, &nl),
                };
                let engine = GpEngine::resume(cfg, &nl, &fixed, engine)?;
                Stage::Gp(Box::new(GpStage {
                    nl,
                    base_cfg,
                    engine,
                    attempt,
                    span,
                }))
            }
            CheckpointStage::Lg { gp, gp_placement } => Stage::Lg(Box::new(LgStage {
                nl,
                gp,
                gp_placement,
            })),
            CheckpointStage::Dp { legal, run } => {
                let span = m.tel.span(dp_telemetry::SpanKind::Stage, "dp");
                let placer = m.effective_dp_cfg();
                let run = GuardedDpRun::resume(run).map_err(|reason| {
                    FlowError::Checkpoint(CheckpointError::Unresumable {
                        stage: "dp",
                        reason,
                    })
                })?;
                Stage::Dp(Box::new(DpStage {
                    nl,
                    legal,
                    guarded: Some((placer, run)),
                    steps: 0,
                    span,
                }))
            }
        };
        m.busy += t_resume.elapsed().as_secs_f64();
        Ok(m)
    }

    /// The state the next [`FlowMachine::step`] call will execute.
    pub fn state(&self) -> FlowState {
        match &self.stage {
            Stage::Init => FlowState::Init,
            Stage::Sanitize { .. } => FlowState::Sanitize,
            Stage::Gp(g) => FlowState::Gp {
                iteration: g.engine.next_iteration(),
            },
            Stage::Lg(_) => FlowState::Lg,
            Stage::Dp(d) => FlowState::Dp { pass: d.steps },
            Stage::Finish(_) => FlowState::Finish,
            Stage::Done(_) => FlowState::Done,
            Stage::Failed => FlowState::Failed,
        }
    }

    /// True once the run completed and [`FlowMachine::finish`] will yield
    /// a result.
    pub fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Done(_))
    }

    /// Busy seconds this process has spent inside the machine
    /// (construction/resume plus every completed step). Parked time under
    /// a scheduler is not charged.
    pub fn busy(&self) -> f64 {
        self.busy
    }

    /// Total busy seconds of the run including prior processes of a
    /// resumed checkpoint (the number deadlines and budgets compare
    /// against).
    pub fn consumed(&self) -> f64 {
        self.consumed_total + self.busy
    }

    /// Executes one state transition and returns the new pending state.
    ///
    /// Stepping a `Done` or `Failed` machine is a no-op returning the
    /// current state.
    ///
    /// # Errors
    ///
    /// Any [`FlowError`]; the machine transitions to
    /// [`FlowState::Failed`].
    pub fn step(&mut self) -> Result<FlowState, FlowError<T>> {
        let t_step = Instant::now();
        let stage = mem::replace(&mut self.stage, Stage::Failed);
        let outcome = match stage {
            Stage::Init => self.step_init(),
            Stage::Sanitize { nl, fixed } => self.step_sanitize(*nl, fixed),
            Stage::Gp(gp) => self.step_gp(gp),
            Stage::Lg(lg) => self.step_lg(*lg),
            Stage::Dp(dp) => self.step_dp(dp),
            Stage::Finish(fin) => self.step_finish(*fin),
            done @ Stage::Done(_) => Ok((done, FlowState::Done)),
            Stage::Failed => Ok((Stage::Failed, FlowState::Failed)),
        };
        match outcome {
            Ok((next, state)) => {
                self.stage = next;
                self.busy += t_step.elapsed().as_secs_f64();
                // The finish step assembled the result before this step's
                // own cost was known; patch the totals now that it is.
                if let Stage::Done(r) = &mut self.stage {
                    if state == FlowState::Done && r.timing.total < self.consumed_total + self.busy
                    {
                        let total = self.consumed_total + self.busy;
                        self.timing.total = total;
                        r.timing.total = total;
                    }
                }
                Ok(state)
            }
            Err(e) => {
                self.busy += t_step.elapsed().as_secs_f64();
                self.stage = Stage::Failed;
                Err(e)
            }
        }
    }

    /// Consumes a `Done` machine, yielding the flow result (`None` if the
    /// machine has not completed).
    pub fn finish(self) -> Option<FlowResult<T>> {
        match self.stage {
            Stage::Done(r) => Some(*r),
            _ => None,
        }
    }

    /// [`FlowMachine::finish`] for the crate's drivers (`place`,
    /// `place_durable`, the scheduler): a machine without a result is an
    /// error.
    pub(crate) fn into_result(self) -> Result<FlowResult<T>, FlowError<T>> {
        self.finish().ok_or_else(|| {
            FlowError::Io(std::io::Error::other(
                "flow machine completed without a result",
            ))
        })
    }

    /// Captures the machine as plain checkpoint data. Returns `None` in
    /// states with nothing durable to record (inputs not yet loaded, LG
    /// mid-flight, skipped DP, finished runs).
    pub fn capture(&self) -> Option<CheckpointData<T>> {
        let stage = match &self.stage {
            Stage::Gp(g) => CheckpointStage::Gp {
                attempt: g.attempt.clone(),
                engine: g.engine.state(),
            },
            Stage::Lg(l) => CheckpointStage::Lg {
                gp: l.gp.clone(),
                gp_placement: l.gp_placement.clone(),
            },
            Stage::Dp(d) => CheckpointStage::Dp {
                run: d.guarded.as_ref()?.1.state(),
                legal: d.legal.clone(),
            },
            _ => return None,
        };
        Some(CheckpointData {
            design: DesignStamp::of(self.design.get()),
            timing: self.timing,
            consumed_total: self.consumed_total + self.busy,
            degradations: self.degradations.events.clone(),
            gp_fallback: self.gp_fallback,
            stage,
        })
    }

    // -- helpers ----------------------------------------------------------

    fn effective_gp_cfg(&self) -> GpConfig<T> {
        let mut gp_cfg = self.config.gp.clone();
        gp_cfg.telemetry = self.tel.clone();
        gp_cfg
    }

    fn effective_dp_cfg(&self) -> DetailedPlacer {
        let mut dp = self.config.dp.clone();
        dp.telemetry = self.tel.clone();
        dp
    }

    /// Loads the inputs (optionally through the Bookshelf round-trip) into
    /// owned copies; the IO time lands in `timing.io`.
    fn load_inputs(&mut self) -> Result<(Netlist<T>, Placement<T>), FlowError<T>> {
        let io_span = self.tel.span(dp_telemetry::SpanKind::Stage, "io");
        let t_io = Instant::now();
        let design = self.design.get();
        let (nl, fixed) = if self.config.io_roundtrip {
            let dir = std::env::temp_dir().join(format!("dreamplace-io-{}", design.name));
            dp_bookshelf::write_design(&dir, &design.name, &design.netlist, &design.fixed_positions)?;
            let parsed = dp_bookshelf::read_design::<T>(&dir.join(format!("{}.aux", design.name)))
                .map_err(|e| {
                    FlowError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                })?;
            (parsed.netlist, parsed.positions)
        } else {
            (design.netlist.clone(), design.fixed_positions.clone())
        };
        self.timing.io += t_io.elapsed().as_secs_f64();
        drop(io_span);
        Ok((nl, fixed))
    }

    /// Runs the sanitizer, adopting the repaired copy when one is made.
    fn sanitize_inputs(
        &mut self,
        nl: Netlist<T>,
        fixed: Placement<T>,
    ) -> Result<(Netlist<T>, Placement<T>), FlowError<T>> {
        let sanitize_span = self.tel.span(dp_telemetry::SpanKind::Stage, "sanitize");
        let (report, repaired) = sanitize_design(&nl, &fixed);
        if report.is_fatal() {
            self.tel.point(
                "degradation",
                format!("sanitize: fatal defects -> aborted ({report})"),
            );
            return Err(FlowError::Sanitize(report));
        }
        let (nl, fixed) = match repaired {
            Some((rn, rf)) => (rn, rf),
            None => (nl, fixed),
        };
        if !report.findings.is_empty() {
            self.tel.point("sanitize", &report);
        }
        self.sanitize = report;
        drop(sanitize_span);
        Ok((nl, fixed))
    }

    // -- transitions ------------------------------------------------------

    fn step_init(&mut self) -> StepResult<T> {
        let (nl, fixed) = self.load_inputs()?;
        Ok((
            Stage::Sanitize {
                nl: Box::new(nl),
                fixed,
            },
            FlowState::Sanitize,
        ))
    }

    fn step_sanitize(&mut self, nl: Netlist<T>, fixed: Placement<T>) -> StepResult<T> {
        let (nl, fixed) = self.sanitize_inputs(nl, fixed)?;
        self.enter_gp(nl, fixed)
    }

    fn enter_gp(&mut self, nl: Netlist<T>, fixed: Placement<T>) -> StepResult<T> {
        let span = self.tel.span(dp_telemetry::SpanKind::Stage, "gp");
        let gp_cfg = self.effective_gp_cfg();
        if gp_cfg.bins.0 < 2 || gp_cfg.bins.1 < 4 {
            // The density operator runs in uniform-field mode on
            // sub-spectral grids; record it so callers know the density
            // force was traded away.
            self.tel.point(
                "degradation",
                format!(
                    "gp: degenerate grid {}x{} -> uniform-field density",
                    gp_cfg.bins.0, gp_cfg.bins.1
                ),
            );
            self.degradations.record(
                FlowStage::Gp,
                DegradationTrigger::DegenerateGrid { bins: gp_cfg.bins },
                DegradationFallback::UniformFieldDensity,
            );
        }
        let t_build = Instant::now();
        let engine = GpEngine::new(gp_cfg.clone(), &nl, &fixed)?;
        self.timing.gp += t_build.elapsed().as_secs_f64();
        let iteration = engine.next_iteration();
        Ok((
            Stage::Gp(Box::new(GpStage {
                nl,
                base_cfg: gp_cfg,
                engine,
                attempt: GpAttemptState::Primary,
                span,
            })),
            FlowState::Gp { iteration },
        ))
    }

    fn step_gp(&mut self, mut gp: Box<GpStage<T>>) -> StepResult<T> {
        let t_iter = Instant::now();
        let stepped = gp.engine.step(&gp.nl);
        self.timing.gp += t_iter.elapsed().as_secs_f64();
        match stepped {
            Ok(outcome) if !outcome.is_done() => {
                let iteration = gp.engine.next_iteration();
                Ok((Stage::Gp(gp), FlowState::Gp { iteration }))
            }
            Ok(_) => self.complete_gp(*gp),
            Err(e) => self.gp_diverged(gp, e),
        }
    }

    /// The GP divergence ladder: a diverged primary attempt is replaced by
    /// the conservative preset warm-started from its best iterate; a
    /// diverged conservative attempt degrades to the best-so-far
    /// placement.
    fn gp_diverged(&mut self, mut gp: Box<GpStage<T>>, e: GpError<T>) -> StepResult<T> {
        let GpError::Diverged {
            iteration,
            cause,
            recoveries,
            best,
            best_overflow,
            exec,
            counts,
        } = e
        else {
            // Transform errors are configuration problems; no preset fixes
            // them.
            return Err(e.into());
        };
        match gp.attempt {
            GpAttemptState::Primary => {
                let cfg = conservative_preset(&gp.base_cfg, &gp.nl);
                let t_build = Instant::now();
                let mut engine = GpEngine::from_placement(cfg, &gp.nl, (*best).clone(), None)?;
                self.timing.gp += t_build.elapsed().as_secs_f64();
                // Fold the aborted primary attempt's kernel work into the
                // retry's counters so the run's ExecSummary covers both.
                engine.absorb_prior(*exec, counts);
                gp.attempt = GpAttemptState::Conservative {
                    cause,
                    primary_recoveries: recoveries,
                    primary_best: *best,
                    primary_best_overflow: best_overflow,
                };
                gp.engine = engine;
                let iteration = gp.engine.next_iteration();
                Ok((Stage::Gp(gp), FlowState::Gp { iteration }))
            }
            GpAttemptState::Conservative {
                cause: primary_cause,
                primary_recoveries,
                primary_best,
                primary_best_overflow,
            } => {
                // Adopt whichever attempt spread the cells further and let
                // legalization take it from there.
                let (placement, overflow, cause) = if best_overflow < primary_best_overflow {
                    (*best, best_overflow, cause)
                } else {
                    (primary_best, primary_best_overflow, primary_cause)
                };
                let total_recoveries = primary_recoveries + recoveries;
                // `exec` already carries the primary attempt's counters
                // (absorbed when the conservative engine was built).
                let stats = GpStats {
                    iterations: iteration,
                    final_hpwl: hpwl(&gp.nl, &placement).to_f64(),
                    final_overflow: overflow,
                    converged: false,
                    history: Vec::new(),
                    timing: GpTiming::default(),
                    recoveries: total_recoveries,
                    recovery_events: Vec::new(),
                    exec: *exec,
                    evals: counts,
                };
                self.gp_fallback = Some(GpFallback::BestSoFar {
                    cause,
                    recoveries: total_recoveries,
                });
                let GpStage { nl, span, .. } = *gp;
                self.leave_gp(nl, placement, stats, span)
            }
        }
    }

    fn complete_gp(&mut self, gp: GpStage<T>) -> StepResult<T> {
        let GpStage {
            nl,
            engine,
            attempt,
            span,
            ..
        } = gp;
        let t_fin = Instant::now();
        let result = engine.finish(&nl);
        self.timing.gp += t_fin.elapsed().as_secs_f64();
        if let GpAttemptState::Conservative { cause, .. } = attempt {
            self.gp_fallback = Some(GpFallback::ConservativePreset { cause });
        }
        self.leave_gp(nl, result.placement, result.stats, span)
    }

    /// Common GP exit: timing, fallback bookkeeping, telemetry, and the
    /// transition into LG.
    fn leave_gp(
        &mut self,
        nl: Netlist<T>,
        gp_placement: Placement<T>,
        gp_stats: GpStats,
        span: dp_telemetry::Span,
    ) -> StepResult<T> {
        match self.gp_fallback {
            Some(GpFallback::ConservativePreset { cause }) => {
                self.tel.point(
                    "degradation",
                    format!("gp: diverged ({cause}) -> conservative preset completed"),
                );
                self.degradations.record(
                    FlowStage::Gp,
                    DegradationTrigger::GpDiverged(cause),
                    DegradationFallback::ConservativeGpPreset,
                );
            }
            Some(GpFallback::BestSoFar { cause, .. }) => {
                self.tel.point(
                    "degradation",
                    format!("gp: diverged ({cause}) -> best-so-far placement"),
                );
                self.degradations.record(
                    FlowStage::Gp,
                    DegradationTrigger::GpDiverged(cause),
                    DegradationFallback::BestSoFarPlacement,
                );
            }
            None => {}
        }
        self.tel.workspaces(
            gp_stats
                .exec
                .workspaces
                .iter()
                .map(|(name, w)| (*name, w.uses, w.reuses, w.bytes as u64)),
        );
        drop(span);
        let gp = GpHandoff {
            hpwl: hpwl(&nl, &gp_placement).to_f64(),
            stats: gp_stats,
        };
        Ok((
            Stage::Lg(Box::new(LgStage {
                nl,
                gp,
                gp_placement,
            })),
            FlowState::Lg,
        ))
    }

    fn step_lg(&mut self, lg: LgStage<T>) -> StepResult<T> {
        let LgStage {
            nl,
            gp,
            gp_placement,
        } = lg;
        let hpwl_gp = gp.hpwl;
        let lg_span = self.tel.span(dp_telemetry::SpanKind::Stage, "lg");
        let t_lg = Instant::now();
        let mut placement = gp_placement.clone();
        let mut lg_stats = self
            .config
            .lg
            .clone()
            .with_telemetry(self.tel.clone())
            .legalize(&nl, &mut placement)
            .map_err(|error| FlowError::Lg { error, hpwl_gp })?;
        match lg_stats.fallback {
            Some(LgFallback::AbacusFailed) => self.degradations.record(
                FlowStage::Lg,
                DegradationTrigger::AbacusFailed,
                DegradationFallback::TetrisResult,
            ),
            Some(LgFallback::DisplacementExceeded) => self.degradations.record(
                FlowStage::Lg,
                DegradationTrigger::DisplacementExceeded,
                DegradationFallback::TetrisResult,
            ),
            None => {}
        }
        let report = check_legal(&nl, &placement);
        if !report.is_legal() {
            // Degradation ladder: the Abacus result failed the audit.
            // Retry Tetris-only from the GP placement; if even that is
            // illegal, surface a structured error.
            let mut retry = gp_placement.clone();
            let retry_stats = self
                .config
                .lg
                .clone()
                .with_telemetry(self.tel.clone())
                .without_abacus()
                .legalize(&nl, &mut retry)
                .map_err(|error| FlowError::Lg { error, hpwl_gp })?;
            let retry_report = check_legal(&nl, &retry);
            if !retry_report.is_legal() {
                return Err(FlowError::IllegalResult {
                    overlaps: report.overlaps.max(retry_report.overlaps),
                    hpwl_legal: hpwl(&nl, &retry).to_f64(),
                });
            }
            self.tel.point(
                "degradation",
                format!(
                    "lg: {} overlaps after abacus -> retried tetris-only from gp placement",
                    report.overlaps
                ),
            );
            self.degradations.record(
                FlowStage::Lg,
                DegradationTrigger::IllegalAfterLg {
                    overlaps: report.overlaps,
                },
                DegradationFallback::RetryWithoutAbacus,
            );
            placement = retry;
            lg_stats = retry_stats;
        }
        self.timing.lg += t_lg.elapsed().as_secs_f64();
        drop(lg_span);
        let hpwl_legal = hpwl(&nl, &placement).to_f64();
        let legal = LegalState {
            gp,
            lg_stats,
            hpwl_legal,
            placement,
        };
        self.enter_dp(nl, legal)
    }

    fn enter_dp(&mut self, nl: Netlist<T>, legal: LegalState<T>) -> StepResult<T> {
        let span = self.tel.span(dp_telemetry::SpanKind::Stage, "dp");
        let guarded = self.config.run_dp.then(|| {
            let placer = self.effective_dp_cfg();
            let run = GuardedDpRun::new(&placer, &nl, &legal.placement);
            (placer, run)
        });
        let dp = DpStage {
            nl,
            legal,
            guarded,
            steps: 0,
            span,
        };
        Ok((Stage::Dp(Box::new(dp)), FlowState::Dp { pass: 0 }))
    }

    fn step_dp(&mut self, mut dp: Box<DpStage<T>>) -> StepResult<T> {
        let t_pass = Instant::now();
        let done = match &mut dp.guarded {
            Some((placer, run)) => run.step(placer, &dp.nl, &mut dp.legal.placement),
            None => true,
        };
        self.timing.dp += t_pass.elapsed().as_secs_f64();
        if !done {
            dp.steps += 1;
            let pass = dp.steps;
            return Ok((Stage::Dp(dp), FlowState::Dp { pass }));
        }
        self.complete_dp(*dp)
    }

    fn complete_dp(&mut self, dp: DpStage<T>) -> StepResult<T> {
        let DpStage {
            nl,
            legal,
            guarded,
            span,
            ..
        } = dp;
        let dp_stats = match guarded {
            None => None,
            Some((_, run)) => {
                let (stats, guard) = run.finish(&nl, &legal.placement);
                for (pass, worsening) in &guard.disabled {
                    self.degradations.record(
                        FlowStage::Dp,
                        DegradationTrigger::DpPassWorsened {
                            pass: *pass,
                            worsening: *worsening,
                        },
                        DegradationFallback::DisabledDpPass(*pass),
                    );
                }
                if guard.budget_exhausted {
                    self.degradations.record(
                        FlowStage::Dp,
                        DegradationTrigger::BudgetExhausted,
                        DegradationFallback::StoppedStageEarly,
                    );
                }
                Some(stats)
            }
        };
        drop(span);
        let fin = FinishStage {
            nl,
            legal,
            dp_stats,
        };
        Ok((Stage::Finish(Box::new(fin)), FlowState::Finish))
    }

    fn step_finish(&mut self, fin: FinishStage<T>) -> StepResult<T> {
        let FinishStage {
            nl,
            legal,
            dp_stats,
        } = fin;
        let LegalState {
            gp,
            lg_stats,
            hpwl_legal,
            placement,
        } = legal;
        let hpwl_final = hpwl(&nl, &placement).to_f64();

        // Write the final placement back when IO is being measured.
        if self.config.io_roundtrip {
            let _io_span = self.tel.span(dp_telemetry::SpanKind::Stage, "io");
            let t_io2 = Instant::now();
            let name = format!("{}-final", self.design.get().name);
            let dir =
                std::env::temp_dir().join(format!("dreamplace-io-{}", self.design.get().name));
            dp_bookshelf::write_design(&dir, &name, &nl, &placement)?;
            self.timing.io += t_io2.elapsed().as_secs_f64();
        }

        let mut timing = self.timing;
        // `step` patches this with the finish step's own cost once known.
        timing.total = self.consumed_total + self.busy;
        self.timing = timing;
        self.flow_span = None;
        Ok((
            Stage::Done(Box::new(FlowResult {
                placement,
                hpwl_gp: gp.hpwl,
                hpwl_legal,
                hpwl_final,
                gp: gp.stats,
                lg: lg_stats,
                dp: dp_stats,
                timing,
                gp_fallback: self.gp_fallback,
                sanitize: self.sanitize.clone(),
                degradations: self.degradations.clone(),
            })),
            FlowState::Done,
        ))
    }
}

// ---------------------------------------------------------------------------
// Durable driver
// ---------------------------------------------------------------------------

/// A checkpoint is due after a stage-kind transition, every
/// `every_gp_iters` GP iterations, and every completed guarded DP round
/// (one GlobalSwap + LocalReorder + IndependentSetMatching sweep — a
/// per-pass cadence buys little durability since a resumed run replays
/// the round deterministically, but costs a full serialize per pass).
fn checkpoint_due(before: FlowState, after: FlowState, every_gp_iters: usize) -> bool {
    match (before, after) {
        (FlowState::Gp { .. }, FlowState::Gp { iteration }) => {
            every_gp_iters > 0 && iteration > 0 && iteration % every_gp_iters == 0
        }
        (FlowState::Dp { .. }, FlowState::Dp { pass }) => pass % DpPass::ALL.len() == 0,
        (a, b) => mem::discriminant(&a) != mem::discriminant(&b),
    }
}

/// Background checkpoint writer: a single IO thread that serializes
/// snapshots and performs the atomic tmp+fsync+rename dance off the flow
/// thread, so the flow only pays for `capture` (a cheap clone) and never
/// waits on disk. The queue *coalesces*: when a newer snapshot is already
/// waiting, older queued ones are dropped unserialized — they would only
/// be renamed over moments later, and on a loaded disk the skipped
/// fsyncs are most of the checkpoint-overhead budget. Burst boundaries
/// (DP rounds, the GP→LG→DP→Finish cluster) thus collapse to one write,
/// while steady-state mid-GP checkpoints (tens of milliseconds apart)
/// still hit disk one-for-one. `finish` joins the thread and surfaces the
/// first IO error, and the driver always joins before reporting an
/// outcome, so the newest accepted snapshot is durable by the time the
/// caller observes `Completed`/`Killed`.
struct CheckpointWriter<T: Float> {
    tx: Option<std::sync::mpsc::SyncSender<CheckpointData<T>>>,
    handle: Option<std::thread::JoinHandle<Result<(), CheckpointError>>>,
}

impl<T: Float> CheckpointWriter<T> {
    fn spawn(dir: std::path::PathBuf) -> Self {
        let (tx, rx) = std::sync::mpsc::sync_channel::<CheckpointData<T>>(4);
        let handle = std::thread::spawn(move || {
            while let Ok(mut data) = rx.recv() {
                // Coalesce: a newer queued snapshot supersedes this one.
                while let Ok(newer) = rx.try_recv() {
                    data = newer;
                }
                let body = crate::checkpoint::serialize(&data);
                crate::checkpoint::write_serialized(&dir, &body)?;
            }
            Ok(())
        });
        Self {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Queues a snapshot; blocks only when the writer is more than a few
    /// snapshots behind. A send failure means the writer thread stopped on
    /// an IO error — the caller should `finish` to learn it.
    fn submit(&self, data: CheckpointData<T>) -> Result<(), ()> {
        match &self.tx {
            Some(tx) => tx.send(data).map_err(|_| ()),
            None => Err(()),
        }
    }

    /// Closes the queue, waits for the newest pending snapshot to hit
    /// disk, and returns the first IO error the writer encountered, if
    /// any.
    fn finish(mut self) -> Result<(), CheckpointError> {
        drop(self.tx.take());
        match self.handle.take().map(std::thread::JoinHandle::join) {
            Some(Ok(r)) => r,
            Some(Err(_)) => Err(CheckpointError::Io(std::io::Error::other(
                "checkpoint writer thread panicked",
            ))),
            None => Ok(()),
        }
    }
}

impl<T: Float> DreamPlacer<T> {
    /// Runs the flow crash-safely: steps a [`FlowMachine`], writing an
    /// atomic checkpoint at every due boundary, optionally resuming from a
    /// prior checkpoint, and optionally dying at an injected kill point
    /// (the crash-test hook of the resume test matrix).
    ///
    /// # Errors
    ///
    /// Any [`FlowError`] of the underlying flow, plus
    /// [`FlowError::Checkpoint`] for checkpoint IO failures and, before
    /// any step, for a policy on a design whose name no checkpoint can
    /// record.
    pub fn place_durable(
        &self,
        design: &GeneratedDesign<T>,
        resume_from: Option<CheckpointData<T>>,
        policy: Option<&CheckpointPolicy>,
        faults: FlowFaultInjection,
    ) -> Result<DurableOutcome<T>, FlowError<T>> {
        if policy.is_some() {
            crate::checkpoint::check_name(&design.name).map_err(FlowError::Checkpoint)?;
        }
        let mut machine = match resume_from {
            Some(data) => FlowMachine::resume(self.config().clone(), design, data)?,
            None => FlowMachine::new(self.config().clone(), design),
        };
        let writer = policy.map(|p| CheckpointWriter::spawn(p.dir.clone()));
        let outcome = loop {
            let pending = machine.state();
            if faults.die_at == Some(pending) {
                break Ok(DurableOutcome::Killed { at: pending });
            }
            if machine.is_done() {
                break machine
                    .into_result()
                    .map(|result| DurableOutcome::Completed(Box::new(result)));
            }
            let after = match machine.step() {
                Ok(after) => after,
                Err(e) => break Err(e),
            };
            if let Some(policy) = policy {
                if checkpoint_due(pending, after, policy.every_gp_iters) {
                    if let Some(data) = machine.capture() {
                        // The snapshot is of *this* instant; serialization
                        // and IO happen on the writer thread. A dead
                        // writer is reported by `finish` below.
                        if let Some(w) = &writer {
                            if w.submit(data).is_err() {
                                break Ok(DurableOutcome::Killed { at: after });
                            }
                        }
                    }
                }
            }
        };
        // Join the writer before reporting: every queued checkpoint is
        // durable once the caller sees the outcome, and write errors turn
        // the run into a checkpoint failure even if the flow succeeded.
        match (outcome, writer.map(CheckpointWriter::finish)) {
            (Err(e), _) => Err(e),
            (Ok(_), Some(Err(e))) => Err(FlowError::Checkpoint(e)),
            (Ok(outcome), _) => Ok(outcome),
        }
    }
}
