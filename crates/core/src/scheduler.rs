//! The shared-pool job scheduler: many flows, one set of worker threads.
//!
//! The classic execution model is run-owned: every [`DreamPlacer::place`]
//! call spawns its own [`dp_num::WorkerPool`] and keeps it for the run's
//! lifetime. That is the wrong shape for a placement *service* — the
//! RL-tuning loops the paper motivates need fleets of runs per design, and
//! N concurrent runs would oversubscribe the machine with N×threads
//! workers. The [`Scheduler`] inverts the ownership: one long-lived pool
//! lives in a [`PoolHost`], each job is a [`FlowMachine`] executing as a
//! [`dp_num::PoolTenant`], and the scheduler round-robins the machines,
//! holding the job's [`dp_num::PoolLease`] only for the duration of its
//! turn. Yield points are the machine's steps — one GP iteration, one DP
//! pass, one LG stage — so a huge job cannot starve a small one for longer
//! than a single step.
//!
//! # Determinism
//!
//! Sharing the pool changes no bits. A kernel launch's chunking depends
//! only on the thread count, which the scheduler pins to the host's width
//! for every job (`cfg.gp.threads = host.threads()`); the lease installs
//! the job's own telemetry shards and attributes launch counters, so even
//! observability stays per-job. Every job's placement, HPWL, and trace
//! convergence points are bit-identical to a standalone `place` run of the
//! same configuration at the same thread count — the tier-1 interleaving
//! test drives K jobs through one scheduler and compares against
//! sequential runs.
//!
//! # QoS
//!
//! [`QosClass`] maps onto the per-job stage budgets of the flow config
//! (`cfg.gp.max_seconds`, `cfg.dp.max_seconds`): tightly budgeted jobs are
//! latency-sensitive and get short turns (frequent yields), unbudgeted bulk
//! jobs get long turns (less scheduling overhead). Budgets themselves are
//! enforced *inside* the job by the engines, and they charge busy time — a
//! parked job is never billed for its neighbors' turns.
//!
//! # Metrics
//!
//! Every scheduler owns a live [`Metrics`] registry (see
//! [`Scheduler::metrics`]). Its fault counters are the only copy of those
//! counts: [`Scheduler::health`] reads the same cells a scrape renders.
//!
//! [`DreamPlacer::place`]: crate::flow::DreamPlacer::place

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dp_gen::GeneratedDesign;
use dp_gp::ExecBinding;
use dp_num::{Float, PoolHealth, PoolHost, PoolTenant};
use dp_telemetry::metrics::{Counter, Histogram, Metrics, LATENCY_BUCKETS};
use dp_telemetry::Telemetry;

use crate::flow::{conservative_preset, FlowConfig, FlowError, FlowResult};
use crate::machine::{CheckpointData, FlowMachine, FlowState};

/// Scheduling class: how many machine steps a job gets per round.
///
/// The quantum trades fairness against scheduling overhead. One machine
/// step is already a meaningful unit (a whole GP iteration), so even
/// `Interactive` makes progress every turn; `Bulk` amortizes the
/// lease/unlease bookkeeping over long turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosClass {
    /// Latency-sensitive: yield after every step.
    Interactive,
    /// The default: a handful of steps per turn.
    Batch,
    /// Throughput-oriented: long turns, minimal scheduling overhead.
    Bulk,
}

impl QosClass {
    /// Steps per scheduler turn.
    pub fn quantum(self) -> usize {
        match self {
            QosClass::Interactive => 1,
            QosClass::Batch => 8,
            QosClass::Bulk => 32,
        }
    }

    /// Derives a class from a job's stage budgets (a config's
    /// `gp.max_seconds` and `dp.max_seconds`): a job that bounded any
    /// stage's seconds is treated as latency-sensitive, a job with no
    /// budgets at all as bulk work.
    pub fn from_budgets(gp_seconds: Option<f64>, dp_seconds: Option<f64>) -> Self {
        match (gp_seconds, dp_seconds) {
            (Some(gp), _) if gp <= 10.0 => QosClass::Interactive,
            (_, Some(dp)) if dp <= 10.0 => QosClass::Interactive,
            (Some(_), _) | (_, Some(_)) => QosClass::Batch,
            (None, None) => QosClass::Bulk,
        }
    }
}

/// Retry policy for panicked or timed-out jobs (jobs that *fail* with a
/// structured [`FlowError`] are never retried — the flow's own degradation
/// ladder already exhausted its options before erroring).
///
/// Attempts count the initial run: `max_attempts == 1` means no retries.
/// Retries resume from the job's most recent durable checkpoint when one
/// was captured, restarting fresh otherwise, and wait out an exponential
/// backoff (`backoff_seconds * 2^(attempt-2)`) before readmission. With
/// `conservative_final`, the last attempt abandons the checkpoint and
/// restarts fresh under the conservative GP preset — the same last-resort
/// rung the flow itself uses for diverging runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = never retry).
    pub max_attempts: u32,
    /// Base backoff before the second attempt; doubles per retry.
    pub backoff_seconds: f64,
    /// Restart the final attempt fresh under the conservative GP preset.
    pub conservative_final: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// No retries: the first panic or timeout is terminal.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff_seconds: 0.0,
            conservative_final: false,
        }
    }

    /// The service default: three attempts, short doubling backoff, and a
    /// conservative-preset final attempt.
    pub fn standard() -> Self {
        Self {
            max_attempts: 3,
            backoff_seconds: 0.05,
            conservative_final: true,
        }
    }

    /// Backoff to wait before the given (1-based) attempt runs.
    fn backoff_for(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            return 0.0;
        }
        self.backoff_seconds * f64::from(1u32 << (attempt - 2).min(16))
    }
}

/// Deterministic fault injection for the service layer, in the style of
/// `LgFaultInjection`/`DpFaultInjection`: each knob fires at most once,
/// when the job's pending [`FlowState`] matches, so chaos tests can place
/// a failure at an exact step (`gp:12`, `dp:1`, ...).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeFaultInjection {
    /// Panic right before executing this state (contained by the
    /// scheduler's `catch_unwind`, exactly like a kernel panic).
    pub panic_at: Option<FlowState>,
    /// Sleep `stall_seconds` before executing this state, simulating a
    /// wedged step so deadline enforcement can be tested deterministically.
    pub stall_at: Option<FlowState>,
    /// Stall duration for `stall_at`.
    pub stall_seconds: f64,
    /// Suppress end-of-turn checkpoint capture, forcing a retry to restart
    /// from scratch (simulates checkpoint-write failure).
    pub fail_capture: bool,
}

impl ServeFaultInjection {
    /// Inject a panic right before `state` executes.
    pub fn panic_at(state: FlowState) -> Self {
        Self {
            panic_at: Some(state),
            ..Self::default()
        }
    }

    /// Inject a `seconds`-long stall right before `state` executes.
    pub fn stall_at(state: FlowState, seconds: f64) -> Self {
        Self {
            stall_at: Some(state),
            stall_seconds: seconds,
            ..Self::default()
        }
    }
}

/// Submission options for [`Scheduler::submit_with`].
#[derive(Debug, Clone, Default)]
pub struct JobOptions {
    /// Scheduling class; defaults from the config's stage budgets.
    pub qos: Option<QosClass>,
    /// Per-attempt busy-time deadline in seconds. `None` derives one from
    /// the stage budgets / QoS class (see [`JobOptions::derive_deadline`]);
    /// pass `Some(f64::INFINITY)` for no deadline at all.
    pub deadline_seconds: Option<f64>,
    /// Retry policy for panics and timeouts.
    pub retry: RetryPolicy,
    /// Chaos injection (testing only; default = no faults).
    pub faults: ServeFaultInjection,
}

impl JobOptions {
    /// The default deadline ladder: an explicit stage budget implies the
    /// job expects to finish within roughly its budgets (doubled, plus
    /// slack for LG and bookkeeping); otherwise the QoS class picks a
    /// conventional bound, with Bulk jobs unbounded.
    pub fn derive_deadline<T>(config: &FlowConfig<T>, qos: QosClass) -> Option<f64> {
        match (config.gp.max_seconds, config.dp.max_seconds) {
            (None, None) => match qos {
                QosClass::Interactive => Some(60.0),
                QosClass::Batch => Some(600.0),
                QosClass::Bulk => None,
            },
            (gp, dp) => Some((gp.unwrap_or(0.0) + dp.unwrap_or(0.0)) * 2.0 + 30.0),
        }
    }
}

/// Terminal outcome of a job, surfaced by [`Scheduler::take_outcome`].
#[derive(Debug)]
pub enum JobOutcome<T: Float> {
    /// The flow completed.
    Completed(Box<FlowResult<T>>),
    /// The flow returned a structured error (not retried).
    Failed(FlowError<T>),
    /// A panic escaped the flow on every allowed attempt; the scheduler
    /// contained each one and neighbors kept running.
    Panicked {
        /// The (last) panic payload, stringified.
        message: String,
        /// Pending state of the step that panicked.
        at: FlowState,
        /// Attempts consumed (== the policy's `max_attempts`).
        attempts: u32,
    },
    /// The job exceeded its per-attempt deadline on every allowed attempt.
    TimedOut {
        /// The deadline that was exceeded, in busy seconds.
        deadline_seconds: f64,
        /// Pending state when the deadline tripped.
        at: FlowState,
        /// Attempts consumed.
        attempts: u32,
    },
}

/// Aggregate fault counters of a scheduler plus its pool's health; the
/// service layer reports these in its `status` response.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerHealth {
    /// Point-in-time health of the shared worker pool.
    pub pool: PoolHealth,
    /// Job panics contained by the turn's `catch_unwind`.
    pub panics_contained: u64,
    /// Per-attempt deadline expirations.
    pub timeouts: u64,
    /// Retry attempts scheduled (panics + timeouts that had attempts
    /// left).
    pub retries: u64,
    /// Dead pool workers replaced after contained panics.
    pub workers_respawned: u64,
}

/// Identifier of a submitted job, unique within one scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Externally visible lifecycle position of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// In the run queue; `state` is the machine's pending flow state.
    Running {
        /// The machine's pending state.
        state: FlowState,
    },
    /// Completed; the result waits in [`Scheduler::take_result`].
    Done,
    /// Failed; the error waits in [`Scheduler::take_result`].
    Failed,
    /// Waiting out retry backoff after a contained panic or a deadline
    /// expiry; `attempt` is the 1-based attempt about to run.
    Retrying {
        /// The attempt number about to run.
        attempt: u32,
    },
}

/// Why a retry was scheduled (internal bookkeeping between the failing
/// turn and the terminal outcome once attempts run out).
enum FailKind {
    Panicked { message: String },
    TimedOut { deadline_seconds: f64 },
}

struct Job<T: Float> {
    id: JobId,
    qos: QosClass,
    tenant: Arc<PoolTenant>,
    /// The bound config (telemetry attached, threads pinned, exec shared),
    /// kept so retries can rebuild the machine.
    config: FlowConfig<T>,
    design: Arc<GeneratedDesign<T>>,
    /// `None` once the machine has been consumed (done/failed) or
    /// while the job waits out retry backoff.
    machine: Option<FlowMachine<'static, T>>,
    outcome: Option<JobOutcome<T>>,
    /// Per-attempt busy-seconds deadline (scheduler-side accounting).
    deadline: Option<f64>,
    retry: RetryPolicy,
    faults: ServeFaultInjection,
    /// 1-based attempt counter.
    attempt: u32,
    /// Busy seconds of the current attempt (sum of this job's turn
    /// durations — parked time is never charged).
    elapsed: f64,
    /// Most recent durable checkpoint, refreshed at turn boundaries
    /// (throttled, see [`PASSIVE_CHECKPOINT_TURNS`]) while a retry policy
    /// is active; what a retry resumes from. Dropped the moment the job
    /// reaches a terminal state.
    checkpoint: Option<CheckpointData<T>>,
    /// Parked turns since the retry checkpoint was last refreshed.
    turns_since_capture: u32,
    /// Set while waiting out retry backoff: earliest readmission time.
    retry_at: Option<Instant>,
}

impl<T: Float> Job<T> {
    fn status(&self) -> JobStatus {
        if let Some(m) = &self.machine {
            JobStatus::Running { state: m.state() }
        } else if self.retry_at.is_some() {
            JobStatus::Retrying {
                attempt: self.attempt,
            }
        } else {
            match &self.outcome {
                Some(JobOutcome::Completed(_)) | None => JobStatus::Done,
                Some(_) => JobStatus::Failed,
            }
        }
    }

    /// True while the job still occupies a run-queue slot (live machine or
    /// a pending retry).
    fn live(&self) -> bool {
        self.machine.is_some() || self.retry_at.is_some()
    }
}

/// Coarse stage label of a pending [`FlowState`] for the per-stage
/// step-latency histograms (iteration/pass indices collapse into one
/// series per stage).
fn stage_label(state: FlowState) -> &'static str {
    match state {
        FlowState::Init => "init",
        FlowState::Sanitize => "sanitize",
        FlowState::Gp { .. } => "gp",
        FlowState::Lg => "lg",
        FlowState::Dp { .. } => "dp",
        FlowState::Finish => "finish",
        FlowState::Done | FlowState::Failed => "terminal",
    }
}

/// The six stage labels [`stage_label`] can produce for a *pending*
/// (steppable) state, in flow order.
const STAGE_LABELS: [&str; 6] = ["init", "sanitize", "gp", "lg", "dp", "finish"];

/// The scheduler's instruments: cached handles on its registry (see
/// [`Scheduler::metrics`]). Every record call is a relaxed atomic; nothing
/// here feeds back into the numerics, so runs stay bit-identical.
struct SchedMetrics {
    /// `dp_sched_jobs_total{outcome=...}` — jobs by terminal outcome.
    completed: Counter,
    failed: Counter,
    panicked: Counter,
    timed_out: Counter,
    cancelled: Counter,
    /// `dp_sched_jobs_submitted_total`.
    submitted: Counter,
    /// Fault-path counters; [`Scheduler::health`] reads them back.
    panics_contained: Counter,
    timeouts: Counter,
    retries: Counter,
    workers_respawned: Counter,
    /// `dp_sched_turns_total{kind="busy"|"idle"}` — turn utilization.
    turns_busy: Counter,
    turns_idle: Counter,
    /// Convergence health of completed jobs (`GpStats::evals`).
    gp_objective_evals: Counter,
    gp_backtracks: Counter,
    /// Divergence rollbacks of completed jobs (`GpStats::recoveries`).
    gp_rollbacks: Counter,
    /// `dp_sched_step_seconds{stage=...}` — per-stage step latency.
    steps: [Histogram; STAGE_LABELS.len()],
    /// Fallback series for steps observed at a terminal state (defensive;
    /// normally unreachable).
    steps_other: Histogram,
}

impl SchedMetrics {
    fn new(metrics: &Metrics) -> Self {
        let outcome = |o: &str| {
            metrics.counter_with(
                "dp_sched_jobs_total",
                "Jobs retired by terminal outcome.",
                &[("outcome", o)],
            )
        };
        let step_hist = |stage: &str| {
            metrics.histogram_with(
                "dp_sched_step_seconds",
                "Latency of one flow-machine step, by stage.",
                &LATENCY_BUCKETS,
                &[("stage", stage)],
            )
        };
        Self {
            completed: outcome("completed"),
            failed: outcome("failed"),
            panicked: outcome("panicked"),
            timed_out: outcome("timed_out"),
            cancelled: outcome("cancelled"),
            submitted: metrics.counter(
                "dp_sched_jobs_submitted_total",
                "Jobs accepted into the run queue.",
            ),
            panics_contained: metrics.counter(
                "dp_sched_panics_contained_total",
                "Job panics contained by the turn's catch_unwind.",
            ),
            timeouts: metrics.counter(
                "dp_sched_timeouts_total",
                "Per-attempt busy-time deadline expirations.",
            ),
            retries: metrics.counter(
                "dp_sched_retries_total",
                "Retry attempts scheduled after contained panics or timeouts.",
            ),
            workers_respawned: metrics.counter(
                "dp_sched_workers_respawned_total",
                "Dead pool workers replaced after contained panics.",
            ),
            turns_busy: metrics.counter_with(
                "dp_sched_turns_total",
                "Scheduler turns by utilization (busy = the job progressed).",
                &[("kind", "busy")],
            ),
            turns_idle: metrics.counter_with(
                "dp_sched_turns_total",
                "Scheduler turns by utilization (busy = the job progressed).",
                &[("kind", "idle")],
            ),
            gp_objective_evals: metrics.counter(
                "dp_gp_objective_evals_total",
                "Objective calls made by the GP solvers of completed jobs.",
            ),
            gp_backtracks: metrics.counter(
                "dp_gp_backtracks_total",
                "Line-search backtracks taken by the GP solvers of completed jobs.",
            ),
            gp_rollbacks: metrics.counter(
                "dp_gp_rollbacks_total",
                "Divergence rollbacks taken by the GP engines of completed jobs.",
            ),
            steps: STAGE_LABELS.map(step_hist),
            steps_other: step_hist("other"),
        }
    }

    fn step_histogram(&self, state: FlowState) -> &Histogram {
        let label = stage_label(state);
        STAGE_LABELS
            .iter()
            .position(|s| *s == label)
            .map_or(&self.steps_other, |i| &self.steps[i])
    }
}

/// Parked turns between passive retry-checkpoint refreshes. Capturing
/// clones engine state, so doing it every turn would tax every served job
/// even when no fault ever occurs; a retry merely resumes a few steps
/// earlier instead (bit-identity is unaffected — resuming from any
/// checkpoint replays to the same answer).
const PASSIVE_CHECKPOINT_TURNS: u32 = 8;

/// The round-robin shared-pool scheduler; see the [module docs](self).
pub struct Scheduler<T: Float> {
    host: PoolHost,
    /// Live jobs plus terminal jobs whose outcome has not been taken yet.
    /// A job leaves when its outcome is taken or when it is cancelled, so
    /// the vector stays bounded by the jobs in flight.
    jobs: Vec<Job<T>>,
    next_id: u64,
    /// The scheduler's registry (see [`Scheduler::metrics`]).
    metrics: Metrics,
    /// Cached instrument handles on `metrics`.
    m: SchedMetrics,
}

impl<T: Float> Scheduler<T> {
    /// A scheduler around an existing host, registered (with the host's
    /// pool) on a fresh live [`Metrics`] registry.
    pub fn new(host: PoolHost) -> Self {
        let metrics = Metrics::enabled();
        host.pool().set_metrics(&metrics);
        Self {
            host,
            jobs: Vec::new(),
            next_id: 0,
            m: SchedMetrics::new(&metrics),
            metrics,
        }
    }

    /// The scheduler's metrics registry: jobs by terminal outcome, fault
    /// counters, per-stage step-latency histograms, and busy-vs-idle turn
    /// counters under `dp_sched_*`, the shared pool's instruments under
    /// `dp_pool_*`. Instrument handles are cached, so record calls on the
    /// turn path are relaxed atomics — no registry lock, no change to any
    /// placement bit. A service layer registers its own instruments on a
    /// clone, so one scrape covers every layer.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A scheduler owning a fresh pool of `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(PoolHost::new(threads))
    }

    /// The shared pool host.
    pub fn host(&self) -> &PoolHost {
        &self.host
    }

    /// Rewrites a job's config for shared execution: the job's telemetry
    /// handle is attached, the thread count is pinned to the host's width
    /// (launch chunking — and thus bit-identity — depends on it), and the
    /// GP engine is bound to the job's tenant.
    fn bind(&self, mut config: FlowConfig<T>, telemetry: Telemetry, tenant: &Arc<PoolTenant>) -> FlowConfig<T> {
        config.telemetry = telemetry;
        config.gp.threads = self.host.threads();
        config.gp.exec = ExecBinding::Shared(Arc::clone(tenant));
        config
    }

    /// Submits a fresh job. `telemetry` is the job's own sink (pass
    /// [`Telemetry::disabled`] to opt out); `qos` defaults from the
    /// config's stage budgets when `None`. No deadline, no retries, no
    /// fault injection — use [`Scheduler::submit_with`] for those.
    pub fn submit(
        &mut self,
        config: FlowConfig<T>,
        design: Arc<GeneratedDesign<T>>,
        telemetry: Telemetry,
        qos: Option<QosClass>,
    ) -> JobId {
        self.submit_with(
            config,
            design,
            telemetry,
            JobOptions {
                qos,
                // Plain submissions keep the pre-service contract: jobs run
                // to completion or structured failure, never to a deadline.
                deadline_seconds: Some(f64::INFINITY),
                ..JobOptions::default()
            },
        )
    }

    /// Submits a fresh job with explicit service options (deadline, retry
    /// policy, fault injection).
    pub fn submit_with(
        &mut self,
        config: FlowConfig<T>,
        design: Arc<GeneratedDesign<T>>,
        telemetry: Telemetry,
        opts: JobOptions,
    ) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        let qos = opts
            .qos
            .unwrap_or_else(|| QosClass::from_budgets(config.gp.max_seconds, config.dp.max_seconds));
        let deadline = opts
            .deadline_seconds
            .or_else(|| JobOptions::derive_deadline(&config, qos))
            .filter(|d| d.is_finite());
        let tenant = self.host.tenant();
        let config = self.bind(config, telemetry, &tenant);
        // Machine construction does no kernel work (the engine is built
        // lazily inside the GP entry step), so no lease is needed here.
        let machine = FlowMachine::new(config.clone(), Arc::clone(&design));
        self.jobs.push(Job {
            id,
            qos,
            tenant,
            config,
            design,
            machine: Some(machine),
            outcome: None,
            deadline,
            retry: opts.retry,
            faults: opts.faults,
            attempt: 1,
            elapsed: 0.0,
            checkpoint: None,
            turns_since_capture: 0,
            retry_at: None,
        });
        self.m.submitted.inc();
        id
    }

    /// Number of jobs still in the run queue (live machines plus jobs
    /// waiting out retry backoff).
    pub fn running(&self) -> usize {
        self.jobs.iter().filter(|j| j.live()).count()
    }

    /// Aggregate fault counters (read from the registry's cells) plus the
    /// shared pool's health.
    pub fn health(&self) -> SchedulerHealth {
        SchedulerHealth {
            pool: self.host.pool().health(),
            panics_contained: self.m.panics_contained.get(),
            timeouts: self.m.timeouts.get(),
            retries: self.m.retries.get(),
            workers_respawned: self.m.workers_respawned.get(),
        }
    }

    /// The job's lifecycle status; `None` for an id the scheduler does not
    /// hold: never submitted, or gone after its outcome was taken or a
    /// cancel.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.jobs.iter().find(|j| j.id == id).map(Job::status)
    }

    /// Steps every running job one turn (one full round-robin sweep).
    /// Returns the number of jobs still running afterwards.
    pub fn step_round(&mut self) -> usize {
        self.sweep_round();
        self.running()
    }

    /// One sweep over all live jobs; true when at least one made progress
    /// (a job waiting out retry backoff makes none).
    fn sweep_round(&mut self) -> bool {
        let ids: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| self.jobs[i].live())
            .collect();
        let mut progressed = false;
        for idx in ids {
            progressed |= self.run_turn(idx);
        }
        progressed
    }

    /// Runs rounds until every job has completed or failed. Rounds where
    /// every live job is waiting out retry backoff park briefly instead of
    /// spinning.
    pub fn run_all(&mut self) {
        while self.running() > 0 {
            if !self.sweep_round() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// One job's turn: lease the pool, step up to the quantum, release.
    /// Returns true when the job made progress (stepped, finished, failed,
    /// or scheduled a retry); false when it only waited on backoff.
    fn run_turn(&mut self, idx: usize) -> bool {
        if let Some(at) = self.jobs[idx].retry_at {
            if Instant::now() < at {
                self.m.turns_idle.inc();
                return false;
            }
            if !self.readmit(idx) {
                // Readmission itself failed; the terminal outcome is
                // recorded — that still counts as progress.
                self.m.turns_busy.inc();
                return true;
            }
        }
        let job = &mut self.jobs[idx];
        let Some(mut machine) = job.machine.take() else {
            self.m.turns_idle.inc();
            return false;
        };
        let quantum = job.qos.quantum().max(1);
        let lease = job.tenant.lease();
        let t_turn = Instant::now();

        enum Verdict<T: Float> {
            Parked,
            Done,
            Errored(FlowError<T>),
            Panicked { message: String, at: FlowState },
            TimedOut { deadline: f64, at: FlowState },
        }
        let mut verdict = Verdict::Parked;
        for _ in 0..quantum {
            let pending = machine.state();
            if job.faults.stall_at == Some(pending) {
                // Fire-once stall: wedge this step for the configured time
                // without touching the machine's computational state.
                job.faults.stall_at = None;
                std::thread::sleep(Duration::from_secs_f64(job.faults.stall_seconds.max(0.0)));
            }
            let inject_panic = job.faults.panic_at == Some(pending);
            if inject_panic {
                job.faults.panic_at = None;
            }
            // The containment boundary. A panic mid-step leaves the machine
            // in its `Failed` stage (`step` swaps the stage out before
            // executing), so the unwound machine is safe to drop; the pool
            // itself already catches panics per-launch, so workers survive.
            let t_step = Instant::now();
            let step = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected service panic at {pending}");
                }
                machine.step()
            }));
            self.m
                .step_histogram(pending)
                .observe(t_step.elapsed().as_secs_f64());
            match step {
                Err(payload) => {
                    verdict = Verdict::Panicked {
                        message: panic_message(payload),
                        at: pending,
                    };
                    break;
                }
                Ok(Ok(FlowState::Done)) => {
                    verdict = Verdict::Done;
                    break;
                }
                Ok(Err(e)) => {
                    verdict = Verdict::Errored(e);
                    break;
                }
                Ok(Ok(state)) => {
                    if let Some(deadline) = job.deadline {
                        if job.elapsed + t_turn.elapsed().as_secs_f64() > deadline {
                            verdict = Verdict::TimedOut {
                                deadline,
                                at: state,
                            };
                            break;
                        }
                    }
                }
            }
        }
        job.elapsed += t_turn.elapsed().as_secs_f64();

        match verdict {
            Verdict::Parked => {
                // Refresh the retry checkpoint at the turn boundary so a
                // later panic can resume close to where it struck. Capture
                // clones engine state, so only pay for it when a retry
                // policy is active (and the chaos knob lets it through) and
                // only every few turns — a retry from a slightly older
                // checkpoint just replays a few more steps, bit-identically.
                job.turns_since_capture = job.turns_since_capture.saturating_add(1);
                if job.retry.max_attempts > 1
                    && !job.faults.fail_capture
                    && (job.checkpoint.is_none()
                        || job.turns_since_capture >= PASSIVE_CHECKPOINT_TURNS)
                {
                    if let Some(cp) = machine.capture() {
                        job.checkpoint = Some(cp);
                        job.turns_since_capture = 0;
                    }
                }
                job.machine = Some(machine);
                drop(lease);
            }
            Verdict::Done => {
                drop(lease);
                job.checkpoint = None;
                job.outcome = Some(match machine.into_result() {
                    Ok(r) => {
                        self.m.completed.inc();
                        self.m.gp_objective_evals.add(r.gp.evals.objective_evals);
                        self.m.gp_backtracks.add(r.gp.evals.backtracks);
                        self.m.gp_rollbacks.add(r.gp.recoveries as u64);
                        JobOutcome::Completed(Box::new(r))
                    }
                    Err(e) => {
                        self.m.failed.inc();
                        JobOutcome::Failed(e)
                    }
                });
            }
            Verdict::Errored(e) => {
                drop(lease);
                job.checkpoint = None;
                job.outcome = Some(JobOutcome::Failed(e));
                self.m.failed.inc();
            }
            Verdict::Panicked { message, at } => {
                // Dropping the failed machine balances its telemetry spans.
                drop(machine);
                drop(lease);
                self.m.panics_contained.inc();
                let job = &mut self.jobs[idx];
                job.config
                    .telemetry
                    .point("panic", format!("contained panic at {at}: {message}"));
                // A panic that escaped a worker's own catch_unwind (it
                // normally cannot) leaves a dead thread; repair in place so
                // the next job's launches see a full-width pool.
                let pool = self.host.pool();
                if !pool.health().all_workers_alive() {
                    let n = pool.respawn_dead() as u64;
                    self.m.workers_respawned.add(n);
                    job.config
                        .telemetry
                        .point("pool_respawn", format!("respawned {n} dead worker(s)"));
                }
                self.fail_or_retry(idx, at, FailKind::Panicked { message });
            }
            Verdict::TimedOut { deadline, at } => {
                // The machine is healthy — capture a fresh checkpoint right
                // here so the retry loses as little work as possible.
                if !job.faults.fail_capture {
                    if let Some(cp) = machine.capture() {
                        job.checkpoint = Some(cp);
                    }
                }
                drop(machine);
                drop(lease);
                self.m.timeouts.inc();
                let job = &mut self.jobs[idx];
                job.config.telemetry.point(
                    "timeout",
                    format!("deadline {deadline:.3}s exceeded at {at}"),
                );
                self.fail_or_retry(
                    idx,
                    at,
                    FailKind::TimedOut {
                        deadline_seconds: deadline,
                    },
                );
            }
        }
        self.m.turns_busy.inc();
        true
    }

    /// Records a panic/timeout: schedules a retry when attempts remain,
    /// otherwise writes the terminal outcome. A backoff that no `Instant`
    /// can hold (it doubles per retry) ends the job like an exhausted
    /// policy.
    fn fail_or_retry(&mut self, idx: usize, at: FlowState, kind: FailKind) {
        let job = &mut self.jobs[idx];
        job.machine = None;
        let retry = (job.attempt < job.retry.max_attempts)
            .then(|| job.retry.backoff_for(job.attempt + 1))
            .and_then(|backoff| {
                let wait = Duration::try_from_secs_f64(backoff).ok()?;
                Some((backoff, Instant::now().checked_add(wait)?))
            });
        if let Some((backoff, retry_at)) = retry {
            job.attempt += 1;
            self.m.retries.inc();
            job.retry_at = Some(retry_at);
            let cause = match &kind {
                FailKind::Panicked { .. } => "panic",
                FailKind::TimedOut { .. } => "timeout",
            };
            job.config.telemetry.point(
                "retry",
                format!(
                    "attempt {}/{} scheduled after {cause} at {at} (backoff {backoff:.3}s)",
                    job.attempt, job.retry.max_attempts
                ),
            );
        } else {
            job.retry_at = None;
            job.checkpoint = None;
            match &kind {
                FailKind::Panicked { .. } => self.m.panicked.inc(),
                FailKind::TimedOut { .. } => self.m.timed_out.inc(),
            }
            job.outcome = Some(match kind {
                FailKind::Panicked { message } => JobOutcome::Panicked {
                    message,
                    at,
                    attempts: job.attempt,
                },
                FailKind::TimedOut { deadline_seconds } => JobOutcome::TimedOut {
                    deadline_seconds,
                    at,
                    attempts: job.attempt,
                },
            });
        }
    }

    /// Rebuilds the machine of a job whose backoff has elapsed: resume
    /// from the stored checkpoint when one exists, restart fresh
    /// otherwise; the final attempt optionally restarts fresh under the
    /// conservative GP preset. Returns false when the rebuild itself
    /// failed (terminal outcome recorded).
    fn readmit(&mut self, idx: usize) -> bool {
        let job = &mut self.jobs[idx];
        job.retry_at = None;
        job.elapsed = 0.0;
        let final_attempt = job.attempt >= job.retry.max_attempts;
        let conservative = final_attempt && job.retry.conservative_final;
        let mut config = job.config.clone();
        let machine = {
            let _lease = job.tenant.lease();
            if conservative {
                config.telemetry.point(
                    "retry",
                    format!(
                        "final attempt {} restarting fresh under the conservative preset",
                        job.attempt
                    ),
                );
                config.gp = conservative_preset(&config.gp, &job.design.netlist);
                Ok(FlowMachine::new(config, Arc::clone(&job.design)))
            } else if let Some(cp) = job.checkpoint.clone() {
                FlowMachine::resume(config, Arc::clone(&job.design), cp)
            } else {
                Ok(FlowMachine::new(config, Arc::clone(&job.design)))
            }
        };
        match machine {
            Ok(m) => {
                job.machine = Some(m);
                true
            }
            Err(e) => {
                job.outcome = Some(JobOutcome::Failed(e));
                self.m.failed.inc();
                false
            }
        }
    }

    /// Cancels a live job (running or awaiting retry): the job is dropped
    /// with its machine and any stored checkpoint, no outcome is produced,
    /// and its id then answers like an unknown one. Returns false when the
    /// job is unknown or already terminal.
    pub fn cancel(&mut self, id: JobId) -> bool {
        let Some(idx) = self.jobs.iter().position(|j| j.id == id) else {
            return false;
        };
        if !self.jobs[idx].live() {
            return false;
        }
        self.jobs[idx]
            .config
            .telemetry
            .point("cancel", "job cancelled by the service layer");
        self.jobs.remove(idx);
        self.m.cancelled.inc();
        true
    }

    /// Takes a finished job's structured outcome (once); the job is then
    /// dropped, so the scheduler holds no state for a job it has handed
    /// back. `None` while the job is still running or retrying, already
    /// taken, cancelled, or unknown.
    pub fn take_outcome(&mut self, id: JobId) -> Option<JobOutcome<T>> {
        let idx = self.jobs.iter().position(|j| j.id == id)?;
        let outcome = self.jobs[idx].outcome.take()?;
        self.jobs.remove(idx);
        Some(outcome)
    }

    /// [`Scheduler::take_outcome`] flattened to the pre-service result
    /// shape: panics and timeouts surface as `Err(FlowError::Io)`.
    pub fn take_result(&mut self, id: JobId) -> Option<Result<Box<FlowResult<T>>, FlowError<T>>> {
        self.take_outcome(id).map(|outcome| match outcome {
            JobOutcome::Completed(r) => Ok(r),
            JobOutcome::Failed(e) => Err(e),
            JobOutcome::Panicked {
                message,
                at,
                attempts,
            } => Err(FlowError::Io(std::io::Error::other(format!(
                "job panicked at {at} after {attempts} attempt(s): {message}"
            )))),
            JobOutcome::TimedOut {
                deadline_seconds,
                at,
                attempts,
            } => Err(FlowError::Io(std::io::Error::other(format!(
                "job exceeded its {deadline_seconds:.3}s deadline at {at} after {attempts} attempt(s)"
            )))),
        })
    }
}

/// Renders a caught panic payload (the `&str`/`String` cases cover every
/// `panic!` in this workspace).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::flow::FlowConfig;
    use crate::modes::ToolMode;
    use dp_gen::GeneratorConfig;

    fn small_design(seed: u64) -> Arc<GeneratedDesign<f64>> {
        Arc::new(
            GeneratorConfig::new(format!("sched-{seed}"), 120, 130)
                .with_seed(seed)
                .generate::<f64>()
                .expect("valid generator config"),
        )
    }

    fn small_config(design: &GeneratedDesign<f64>, threads: usize) -> FlowConfig<f64> {
        let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &design.netlist);
        cfg.gp.max_iters = 30;
        cfg.gp.min_iters = 5;
        cfg.gp.threads = threads;
        cfg
    }

    #[test]
    fn scheduled_jobs_match_standalone_runs_bitwise() {
        let threads = 2;
        let designs: Vec<_> = (0..3).map(small_design).collect();

        // Standalone baseline at the same thread count.
        let baseline: Vec<_> = designs
            .iter()
            .map(|d| {
                let cfg = small_config(d, threads);
                crate::flow::DreamPlacer::new(cfg)
                    .place(d)
                    .expect("baseline run")
            })
            .collect();

        let mut sched = Scheduler::with_threads(threads);
        let ids: Vec<_> = designs
            .iter()
            .map(|d| {
                sched.submit(
                    small_config(d, threads),
                    Arc::clone(d),
                    Telemetry::disabled(),
                    Some(QosClass::Interactive),
                )
            })
            .collect();
        sched.run_all();

        for (id, base) in ids.iter().zip(&baseline) {
            let got = sched
                .take_result(*id)
                .expect("job finished")
                .expect("job succeeded");
            assert_eq!(got.hpwl_final.to_bits(), base.hpwl_final.to_bits());
            assert_eq!(got.placement.x, base.placement.x);
            assert_eq!(got.placement.y, base.placement.y);
        }
    }

    #[test]
    fn qos_defaults_follow_budgets() {
        let d = small_design(3);
        let budgeted = |gp: Option<f64>, dp: Option<f64>| {
            let mut cfg = small_config(&d, 1);
            cfg.gp.max_seconds = gp;
            cfg.dp.max_seconds = dp;
            cfg
        };
        // (gp budget, dp budget) -> class and derived deadline.
        for (gp, dp, class, deadline) in [
            (Some(2.0), None, QosClass::Interactive, Some(34.0)),
            (Some(3600.0), None, QosClass::Batch, Some(7230.0)),
            (None, Some(5.0), QosClass::Interactive, Some(40.0)),
            (None, Some(20.0), QosClass::Batch, Some(70.0)),
            (Some(20.0), Some(5.0), QosClass::Interactive, Some(80.0)),
            (None, None, QosClass::Bulk, None),
        ] {
            let cfg = budgeted(gp, dp);
            assert_eq!(QosClass::from_budgets(gp, dp), class, "{gp:?} {dp:?}");
            assert_eq!(
                JobOptions::derive_deadline(&cfg, class),
                deadline,
                "{gp:?} {dp:?}"
            );
        }
        let unbudgeted = budgeted(None, None);
        assert_eq!(
            JobOptions::derive_deadline(&unbudgeted, QosClass::Interactive),
            Some(60.0)
        );
        assert_eq!(
            JobOptions::derive_deadline(&unbudgeted, QosClass::Batch),
            Some(600.0)
        );
        assert!(QosClass::Bulk.quantum() > QosClass::Interactive.quantum());
    }

    #[test]
    fn a_job_leaving_the_table_is_dropped_outright() {
        let d = small_design(77);
        let mut sched = Scheduler::with_threads(1);
        let id = sched.submit(
            small_config(&d, 1),
            Arc::clone(&d),
            Telemetry::disabled(),
            None,
        );
        sched.run_all();
        assert_eq!(sched.jobs.len(), 1, "outcome not taken yet: job retained");
        assert!(sched.take_result(id).is_some());
        assert!(
            sched.jobs.is_empty(),
            "taking the outcome drops the job's config/design/checkpoint"
        );
        // A taken job answers like an id that never existed...
        assert_eq!(sched.status(id), None);
        assert!(!sched.cancel(id));
        // ...and so does a cancelled one, at once.
        let id2 = sched.submit(
            small_config(&d, 1),
            Arc::clone(&d),
            Telemetry::disabled(),
            None,
        );
        assert!(sched.cancel(id2));
        assert!(sched.jobs.is_empty());
        assert_eq!(sched.status(id2), None);
        assert!(!sched.cancel(id2), "a cancelled job cannot be re-cancelled");
    }

    #[test]
    fn take_result_is_once_and_status_tracks_lifecycle() {
        let d = small_design(42);
        let mut sched = Scheduler::with_threads(1);
        let id = sched.submit(
            small_config(&d, 1),
            Arc::clone(&d),
            Telemetry::disabled(),
            None,
        );
        assert!(matches!(
            sched.status(id),
            Some(JobStatus::Running { state: FlowState::Init })
        ));
        sched.run_all();
        assert_eq!(sched.status(id), Some(JobStatus::Done));
        assert!(sched.take_result(id).is_some());
        assert!(sched.take_result(id).is_none(), "result is taken once");
        assert_eq!(sched.status(JobId(99)), None);
    }

    #[test]
    fn metrics_track_outcomes_faults_and_step_latency() {
        let d = small_design(55);
        let mut sched = Scheduler::with_threads(1);
        // A poisoned gradient makes the job that completes roll back, so
        // its rollback counter has something to count.
        let mut rolls_back = small_config(&d, 1);
        rolls_back.gp.fault_injection.nan_grad_evals = vec![10, 11];
        let ok = sched.submit(rolls_back, Arc::clone(&d), Telemetry::disabled(), None);
        let bad = sched.submit_with(
            small_config(&d, 1),
            Arc::clone(&d),
            Telemetry::disabled(),
            JobOptions {
                deadline_seconds: Some(f64::INFINITY),
                faults: ServeFaultInjection::panic_at(FlowState::Gp { iteration: 2 }),
                ..JobOptions::default()
            },
        );
        sched.run_all();
        let done = sched.take_result(ok).unwrap().expect("healthy job completes");
        assert!(sched.take_result(bad).unwrap().is_err());
        let text = sched.metrics().render();
        assert!(text.contains("dp_sched_jobs_total{outcome=\"completed\"} 1"), "{text}");
        assert!(text.contains("dp_sched_jobs_total{outcome=\"panicked\"} 1"), "{text}");
        assert!(text.contains("dp_sched_panics_contained_total 1"), "{text}");
        assert!(text.contains("dp_sched_jobs_submitted_total 2"), "{text}");
        assert!(text.contains("dp_sched_step_seconds_count{stage=\"gp\"}"), "{text}");
        assert!(text.contains("dp_sched_turns_total{kind=\"busy\"}"), "{text}");
        // Convergence health of the one completed job.
        let evals = done.gp.evals;
        assert!(evals.objective_evals > evals.wl_evals && evals.wl_evals > 0, "{evals:?}");
        assert!(done.gp.recoveries > 0, "the poisoned job must have rolled back");
        for (name, n) in [
            ("dp_gp_objective_evals_total", evals.objective_evals),
            ("dp_gp_backtracks_total", evals.backtracks),
            ("dp_gp_rollbacks_total", done.gp.recoveries as u64),
        ] {
            assert!(text.contains(&format!("{name} {n}\n")), "{name} {n}: {text}");
        }
        // The shared pool registered alongside the scheduler.
        assert!(text.contains("dp_pool_launches_total"), "{text}");
        // Cancellation lands in the outcome counters too.
        let c = sched.submit(
            small_config(&d, 1),
            Arc::clone(&d),
            Telemetry::disabled(),
            None,
        );
        assert!(sched.cancel(c));
        assert!(sched
            .metrics()
            .render()
            .contains("dp_sched_jobs_total{outcome=\"cancelled\"} 1"));
    }

    #[test]
    fn health_reads_the_registry_counters() {
        let d = small_design(56);
        let mut sched = Scheduler::with_threads(1);
        let retry = RetryPolicy {
            max_attempts: 2,
            backoff_seconds: 0.0,
            conservative_final: false,
        };
        let panics = sched.submit_with(
            small_config(&d, 1),
            Arc::clone(&d),
            Telemetry::disabled(),
            JobOptions {
                deadline_seconds: Some(f64::INFINITY),
                retry,
                faults: ServeFaultInjection::panic_at(FlowState::Gp { iteration: 2 }),
                ..JobOptions::default()
            },
        );
        let times_out = sched.submit_with(
            small_config(&d, 1),
            Arc::clone(&d),
            Telemetry::disabled(),
            JobOptions {
                deadline_seconds: Some(1e-9),
                retry,
                ..JobOptions::default()
            },
        );
        sched.run_all();
        assert!(
            sched.take_result(panics).unwrap().is_ok(),
            "the retry completes"
        );
        assert!(matches!(
            sched.take_outcome(times_out),
            Some(JobOutcome::TimedOut { attempts: 2, .. })
        ));
        let health = sched.health();
        assert_eq!(
            (health.panics_contained, health.timeouts, health.retries),
            (1, 2, 2)
        );
        let text = sched.metrics().render();
        let sample = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("no {name} sample: {text}"))
        };
        assert_eq!(
            health.panics_contained,
            sample("dp_sched_panics_contained_total")
        );
        assert_eq!(health.timeouts, sample("dp_sched_timeouts_total"));
        assert_eq!(health.retries, sample("dp_sched_retries_total"));
        assert_eq!(
            health.workers_respawned,
            sample("dp_sched_workers_respawned_total")
        );
    }

    #[test]
    fn unrepresentable_backoff_ends_the_job_instead_of_panicking() {
        let d = small_design(57);
        let mut sched = Scheduler::with_threads(1);
        let id = sched.submit_with(
            small_config(&d, 1),
            Arc::clone(&d),
            Telemetry::disabled(),
            JobOptions {
                deadline_seconds: Some(1e-9),
                retry: RetryPolicy {
                    max_attempts: 3,
                    backoff_seconds: 1e300,
                    conservative_final: false,
                },
                ..JobOptions::default()
            },
        );
        sched.run_all();
        assert!(matches!(
            sched.take_outcome(id),
            Some(JobOutcome::TimedOut { attempts: 1, .. })
        ));
        assert_eq!(sched.health().retries, 0);
    }
}
