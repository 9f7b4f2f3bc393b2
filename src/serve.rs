//! `dp-serve`: placement-as-a-service on the shared-pool scheduler.
//!
//! The daemon speaks a line-delimited JSON protocol over stdio (or a TCP
//! socket via `--listen`, where every connection is an independent
//! session): each request is one JSON object per line, each response/event
//! is one JSON object per line. Up to `slots` flows run concurrently on
//! one [`Scheduler`] sharing one worker pool; further submissions queue in
//! bounded per-QoS admission queues. Because the scheduler pins every job
//! to the host's thread count and leases the pool per turn, every job's
//! placement is bit-identical to a standalone `place` run of the same
//! config.
//!
//! # The loop
//!
//! One pass of the daemon loop ingests every waiting request line, admits
//! queued jobs into free slots by QoS class (Interactive, then Batch, then
//! Bulk; FIFO within a class), runs one scheduler round, and flushes each
//! session's buffered events once. A `submit` only enqueues, so a burst
//! that arrives in one pass is admitted in class order rather than line
//! order; a `status`, `metrics`, `cancel` or `drain` admits first, so its
//! reply reflects the submits before it. A generated design is built at
//! admission, so queued jobs hold generator parameters, not netlists.
//!
//! # Fault model (see DESIGN.md §15)
//!
//! * A job that panics mid-step is contained by the scheduler's
//!   `catch_unwind`; neighbors keep running and the daemon never exits.
//! * Panicked and timed-out jobs are retried from their most recent
//!   durable checkpoint (up to `max_attempts`, exponential backoff); every
//!   retry is a timeline event in the job's trace.
//! * A malformed request line is answered with a structured `error` event
//!   (carrying the line number) and the session stays alive; the daemon
//!   exits non-zero only on transport errors of the primary stream.
//! * A request line longer than 1 MiB is discarded in capped chunks (the
//!   reader never buffers it whole) and answered with an `error` event.
//! * Per-job `status` and `cancel` are session-scoped: another tenant's
//!   job id answers `unknown`, and only the owning session can cancel its
//!   jobs.
//! * Event writes to TCP sessions carry a short timeout, so one stalled
//!   client is disconnected instead of wedging the daemon loop for every
//!   other tenant.
//! * When the outstanding jobs (running and queued) fill the slots and the
//!   queue cap, the lowest-priority newest job is shed with an
//!   `overloaded` event and a `retry_after_seconds` hint (Bulk first, then
//!   Batch, then Interactive).
//! * A disconnected client's jobs are either detached (finish anyway,
//!   traces still saved) or cancelled, per `--on-disconnect`.
//!
//! # Requests
//!
//! ```text
//! {"cmd":"submit","aux":"designs/adaptec-ish.aux"}
//! {"cmd":"submit","preset":"small","seed":7,"max_iters":120}
//! {"cmd":"submit","cells":500,"nets":520,"seed":3,"qos":"interactive","deadline_seconds":30}
//! {"cmd":"status","job":0}
//! {"cmd":"status"}
//! {"cmd":"cancel","job":0}
//! {"cmd":"drain"}
//! ```
//!
//! `submit` accepts either a Bookshelf `aux` path or a generated design
//! (`preset` = `tiny`/`small`/`medium`, or explicit `cells`/`nets`, each
//! at most 2^24 — a larger size, or zero cells, is `rejected`), plus
//! optional `seed`, `name`, `max_iters`, `overflow`, `qos`
//! (`interactive`/`batch`/`bulk`), `gp_seconds`/`dp_seconds` stage budgets
//! (which also derive the QoS class when `qos` is absent), and the service
//! knobs `deadline_seconds`, `max_attempts`, `backoff_seconds`,
//! `conservative_final`. With `--chaos`, deterministic fault injection
//! rides along: `chaos_panic_at`/`chaos_stall_at` (a flow state such as
//! `"gp:3"`), `chaos_stall_seconds`, `chaos_no_checkpoint`, and the
//! session-level `{"cmd":"chaos","drop_after_events":N}` connection drop.
//! `status` without a `job` reports daemon-wide health (uptime, queue
//! depths, pool health, fault counters). `drain` stops accepting work and
//! exits once the queues empty; closing stdin has the same effect.
//!
//! # Events
//!
//! ```text
//! {"event":"hello","threads":2,"slots":4,"session":0,"queue_cap":16}
//! {"event":"accepted","job":0,"name":"small-7","qos":"batch"}
//! {"event":"state","job":0,"state":"gp:12"}
//! {"event":"trace","job":0,"data":{"ev":"iter",...}}
//! {"event":"retrying","job":0,"attempt":2}
//! {"event":"overloaded","job":3,"qos":"bulk","retry_after_seconds":12.0,...}
//! {"event":"error","line":4,"error":"malformed request: ..."}
//! {"event":"done","job":0,"hpwl":1.234e5,"iterations":87,"overflow":0.069,
//!  "seconds":0.41,"trace_path":"traces/job-0.jsonl"}
//! {"event":"failed","job":1,"error":"...","kind":"panic","at":"gp:3","attempts":3}
//! {"event":"bye","completed":2,"failed":0,"rejected":0,"errors":0,"shed":0,"retries":0}
//! ```
//!
//! Per-job events are ordered: `accepted`, then interleaved `state`/
//! `trace`/`retrying` progress, then exactly one terminal `done`/`failed`
//! (or `overloaded` for a shed job). `trace` events embed the job's raw
//! JSONL trace lines (the same schema `trace-check` validates) as they are
//! produced; with `trace_dir` set, the full trace is also written to
//! `trace_dir/job-N.jsonl`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bookshelf::read_design;
use crate::gen::{GeneratedDesign, GeneratorConfig};
use crate::telemetry::metrics::{Counter, Gauge, Histogram, Metrics, LATENCY_BUCKETS};
use crate::telemetry::Telemetry;
use crate::{
    FlowConfig, FlowState, JobId, JobOptions, JobOutcome, JobStatus, QosClass, RetryPolicy,
    Scheduler, ServeFaultInjection, ToolMode,
};

mod protocol;
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod wire_transcript;

use protocol::{parse_request, Fault, JobSpec, Load, Phase, Request, Source};

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// Upper bound on one write to a TCP session. The daemon loop flushes
/// session buffers synchronously, so without it a single stalled client
/// (full socket send buffer) would block a flush indefinitely and wedge
/// the scheduler for every other tenant; with it the write errors, which
/// disconnects only the slow session.
const TCP_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// What to do with a session's jobs when its connection drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisconnectPolicy {
    /// Jobs finish anyway; events are discarded, traces still saved.
    #[default]
    Detach,
    /// Running jobs are cancelled, queued jobs dropped.
    Cancel,
}

/// Daemon configuration (CLI flags of `dreamplace serve`).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads in the one shared pool.
    pub threads: usize,
    /// Maximum flows placed concurrently; further submissions queue.
    pub slots: usize,
    /// Directory for per-job JSONL traces (`job-N.jsonl`). Traces stream
    /// to the client either way; this also persists them for `trace-check`.
    pub trace_dir: Option<PathBuf>,
    /// Bound on the total of *queued* (accepted but not yet running) jobs
    /// across all QoS classes: once running plus queued jobs reach
    /// `slots + queue_cap`, the lowest-priority newest job is shed.
    pub queue_cap: usize,
    /// Default retry policy for panicked/timed-out jobs (per-job
    /// `max_attempts`/`backoff_seconds`/`conservative_final` override it).
    pub retry: RetryPolicy,
    /// Honor chaos knobs in requests (`--chaos`; off by default).
    pub allow_chaos: bool,
    /// Close sessions with no requests and no jobs for this many seconds.
    pub idle_timeout: Option<f64>,
    /// What happens to a disconnected session's jobs.
    pub on_disconnect: DisconnectPolicy,
    /// Bind address for the Prometheus-style metrics endpoint
    /// (`--metrics-listen`); `None` leaves the exposition reachable only
    /// via the `{"cmd":"metrics"}` protocol request. The registry itself
    /// is always on — it is how `status` and `bye` source their numbers —
    /// and costs relaxed atomics only.
    pub metrics_listen: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            threads: 2,
            slots: 4,
            trace_dir: None,
            queue_cap: 16,
            retry: RetryPolicy::standard(),
            allow_chaos: false,
            idle_timeout: None,
            on_disconnect: DisconnectPolicy::Detach,
            metrics_listen: None,
        }
    }
}

/// Job and request tallies: one session's, emitted as its `bye` event, or
/// the daemon's, read from the metrics registry (the daemon-wide `status`
/// and the return value of [`serve`] and [`serve_tcp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Jobs that finished with a placement.
    pub completed: usize,
    /// Jobs that errored (flow failures, unreadable designs, exhausted
    /// retries after panics/timeouts).
    pub failed: usize,
    /// Valid-JSON lines rejected before becoming jobs.
    pub rejected: usize,
    /// Malformed (non-JSON) lines answered with `error` events.
    pub errors: usize,
    /// Jobs shed by overload control (`overloaded` events).
    pub shed: usize,
    /// Retry attempts observed (`retrying` events).
    pub retries: usize,
}

/// Queue index by priority: 0 = Interactive (highest), 2 = Bulk (lowest,
/// shed first).
fn class_rank(class: QosClass) -> usize {
    match class {
        QosClass::Interactive => 0,
        QosClass::Batch => 1,
        QosClass::Bulk => 2,
    }
}

/// Length of the per-job flight-recorder window: the last this-many
/// events of the job's timeline are dumped as `job-N.postmortem.jsonl`
/// when the job ends in a contained panic or a deadline timeout.
pub const POSTMORTEM_EVENTS: usize = 64;

/// Window over which `dp_serve_placements_per_hour` is computed (recent
/// completions are extrapolated to an hourly rate).
const RATE_WINDOW: Duration = Duration::from_secs(600);

/// Cached instrument handles for the serve layer. Handles are resolved
/// once at daemon startup so the hot paths (event writes, admissions)
/// touch relaxed atomics only, never the registry lock.
struct ServeMetrics {
    sessions_total: Counter,
    sessions_open: Gauge,
    admissions: [Counter; 3],
    sheds: Counter,
    rejected: Counter,
    malformed: Counter,
    bytes_streamed: Counter,
    flushes: Counter,
    queue_depth: [Gauge; 3],
    queue_wait: [Histogram; 3],
    jobs_completed: Counter,
    jobs_failed: Counter,
    postmortems: Counter,
    placements_per_hour: Gauge,
    retry_after: Gauge,
}

impl ServeMetrics {
    fn new(metrics: &Metrics) -> Self {
        let admission = |qos| {
            metrics.counter_with(
                "dp_serve_admissions_total",
                "Jobs accepted into the admission queues.",
                &[("qos", qos)],
            )
        };
        let depth = |qos| {
            metrics.gauge_with(
                "dp_serve_queue_depth",
                "Jobs waiting in the admission queue.",
                &[("qos", qos)],
            )
        };
        let wait = |qos| {
            metrics.histogram_with(
                "dp_serve_queue_wait_seconds",
                "Seconds from acceptance to a scheduler slot.",
                &LATENCY_BUCKETS,
                &[("qos", qos)],
            )
        };
        Self {
            sessions_total: metrics.counter(
                "dp_serve_sessions_total",
                "Client sessions ever started.",
            ),
            sessions_open: metrics.gauge(
                "dp_serve_sessions_open",
                "Client sessions currently connected.",
            ),
            admissions: [admission("interactive"), admission("batch"), admission("bulk")],
            sheds: metrics.counter(
                "dp_serve_sheds_total",
                "Jobs shed by overload control (overloaded events).",
            ),
            rejected: metrics.counter(
                "dp_serve_rejected_total",
                "Valid-JSON request lines rejected before becoming jobs.",
            ),
            malformed: metrics.counter(
                "dp_serve_malformed_lines_total",
                "Request lines that were not valid JSON (or oversized).",
            ),
            bytes_streamed: metrics.counter(
                "dp_serve_bytes_streamed_total",
                "Event bytes written to client sessions, newlines included.",
            ),
            flushes: metrics.counter(
                "dp_serve_flushes_total",
                "Session output flushes; each writes out the events buffered since the last.",
            ),
            queue_depth: [depth("interactive"), depth("batch"), depth("bulk")],
            queue_wait: [wait("interactive"), wait("batch"), wait("bulk")],
            jobs_completed: metrics.counter(
                "dp_serve_jobs_completed_total",
                "Jobs that finished with a placement.",
            ),
            jobs_failed: metrics.counter(
                "dp_serve_jobs_failed_total",
                "Jobs that ended without a placement (error, panic, timeout).",
            ),
            postmortems: metrics.counter(
                "dp_serve_postmortems_total",
                "Flight-recorder dumps written for panicked/timed-out jobs.",
            ),
            placements_per_hour: metrics.gauge(
                "dp_serve_placements_per_hour",
                "Completions over the last 10 minutes, extrapolated hourly.",
            ),
            retry_after: metrics.gauge(
                "dp_serve_retry_after_seconds",
                "Current back-pressure hint sent with overloaded events.",
            ),
        }
    }
}

/// One client connection (stdio is session 0 and `critical`: a write
/// failure there is a transport error that fails the whole serve call,
/// whereas a TCP session's write failure just disconnects that session).
struct Session<'w> {
    id: u64,
    /// Events are buffered here and written out once per loop pass
    /// ([`Daemon::flush_sessions`]), not one write per event.
    out: BufWriter<Box<dyn Write + 'w>>,
    /// `out` holds events not yet flushed.
    unflushed: bool,
    /// Writes still flow; flips false on write failure / transport error /
    /// chaos drop, after which the disconnect policy applies.
    alive: bool,
    /// The client closed its input; no more requests will arrive.
    eof: bool,
    critical: bool,
    last_activity: Instant,
    stats: ServeStats,
    /// Chaos: drop the connection after this many more events.
    drop_after_events: Option<usize>,
}

impl<'w> Session<'w> {
    fn new(id: u64, out: Box<dyn Write + 'w>, critical: bool) -> Self {
        Self {
            id,
            out: BufWriter::new(out),
            unflushed: false,
            alive: true,
            eof: false,
            critical,
            last_activity: Instant::now(),
            stats: ServeStats::default(),
            drop_after_events: None,
        }
    }
}

/// What a job places, as it waits in the queue.
enum Design {
    /// Generator parameters: the netlist is built at admission, so a
    /// queued generated job costs a few words, not a design.
    Gen(GeneratorConfig),
    /// A Bookshelf design, parsed at submit so that a bad file is
    /// `rejected` rather than a `failed` job.
    Parsed(Arc<GeneratedDesign<f64>>),
}

/// A queued job's flow before admission builds it ([`Staged::build`]).
struct Staged {
    design: Design,
    /// The request, for its flow knobs (`max_iters`, `overflow`, budgets).
    spec: Box<JobSpec>,
}

impl Staged {
    /// Builds the design and its flow config, folding the request's flow
    /// knobs over DREAMPlace-CPU's defaults. Runs when the job takes a
    /// slot; a generator error is the job's `failed` message.
    fn build(self, threads: usize) -> Result<(Arc<GeneratedDesign<f64>>, FlowConfig<f64>), String> {
        let design = match self.design {
            Design::Parsed(design) => design,
            Design::Gen(gen) => Arc::new(
                gen.generate::<f64>()
                    .map_err(|e| format!("generating {}: {e}", gen.name))?,
            ),
        };
        // DREAMPlace-CPU: GPU-sim's tile-split scatter gives the same bits
        // at about 1.6x the scatter's cost on a CPU. The scheduler pins
        // `gp.threads` to the pool width either way.
        let mut config = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads }, &design.netlist);
        if let Some(iters) = self.spec.max_iters {
            config.gp.max_iters = iters;
            config.gp.min_iters = config.gp.min_iters.min(iters);
        }
        if let Some(overflow) = self.spec.overflow {
            config.gp.target_overflow = overflow;
        }
        config.gp.max_seconds = self.spec.gp_seconds;
        config.dp.max_seconds = self.spec.dp_seconds;
        Ok((design, config))
    }
}

/// One accepted job, from acceptance to its terminal event.
struct ServeJob {
    /// Protocol-visible id (`"job"` in every event).
    id: u64,
    /// Owning session (where its events go).
    session: u64,
    name: String,
    /// `Some` while queued; admission takes it to build the flow.
    staged: Option<Staged>,
    class: QosClass,
    options: JobOptions,
    telemetry: Telemetry,
    /// Cursor into the job's telemetry timeline (events already streamed).
    cursor: usize,
    /// Scheduler id once admitted to a slot.
    sched: Option<JobId>,
    last_state: Option<FlowState>,
    /// Last attempt number announced with a `retrying` event.
    last_attempt: u32,
    /// When the job was accepted; queue-wait and retry samples key off it.
    admitted_at: Instant,
}

/// What reader/acceptor threads feed the daemon loop.
enum Inbound {
    /// A new TCP connection (TCP mode only).
    Conn(TcpStream),
    Line {
        session: u64,
        line_no: u64,
        line: String,
    },
    /// A request line longer than [`MAX_LINE_BYTES`]; the excess was
    /// discarded by the reader and the line never buffered whole.
    Oversize {
        session: u64,
        line_no: u64,
    },
    Eof {
        session: u64,
    },
    /// The session's input stream failed mid-read.
    Transport {
        session: u64,
        error: String,
    },
    /// What one read of a session's input delivered, in order.
    Batch(Vec<Inbound>),
}

/// Longest accepted request line. A client that streams bytes without
/// ever sending a newline must not grow the reader's buffer without
/// bound, so past this cap the rest of the line is discarded chunk by
/// chunk and answered with a structured `error` event.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads a session's input on its own thread. Every complete line one
/// read delivered goes to the loop as one [`Inbound::Batch`], so requests
/// a client wrote together are dispatched in one ingest pass, before the
/// loop admits. Lines are split by hand + lossy UTF-8 so invalid bytes
/// become a malformed-request *line* (answered with an `error` event)
/// instead of killing the session, which `BufRead::lines` would. Line
/// length is capped at [`MAX_LINE_BYTES`] (see [`Inbound::Oversize`]).
fn spawn_reader<R: BufRead + Send + 'static>(mut input: R, session: u64, tx: mpsc::Sender<Inbound>) {
    std::thread::spawn(move || {
        let mut line_no = 0u64;
        // The unfinished line; never longer than MAX_LINE_BYTES.
        let mut line = Vec::new();
        // The unfinished line outgrew the cap: discard up to its newline.
        let mut oversize = false;
        let mut end_line = |line: &mut Vec<u8>, oversize: &mut bool, batch: &mut Vec<Inbound>| {
            line_no += 1;
            if std::mem::take(oversize) {
                batch.push(Inbound::Oversize { session, line_no });
            } else {
                let text = String::from_utf8_lossy(line);
                let text = text.trim();
                if !text.is_empty() {
                    batch.push(Inbound::Line {
                        session,
                        line_no,
                        line: text.to_string(),
                    });
                }
            }
            line.clear();
        };
        loop {
            let mut batch = Vec::new();
            let (used, eof) = match input.fill_buf() {
                Ok([]) => (0, true),
                Ok(chunk) => {
                    let mut rest = chunk;
                    loop {
                        let newline = rest.iter().position(|&b| b == b'\n');
                        let part = &rest[..newline.unwrap_or(rest.len())];
                        if !oversize && line.len() + part.len() <= MAX_LINE_BYTES {
                            line.extend_from_slice(part);
                        } else if !oversize {
                            oversize = true;
                            line.clear();
                        }
                        let Some(at) = newline else { break };
                        end_line(&mut line, &mut oversize, &mut batch);
                        rest = &rest[at + 1..];
                    }
                    (chunk.len(), false)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let _ = tx.send(Inbound::Transport {
                        session,
                        error: e.to_string(),
                    });
                    return;
                }
            };
            input.consume(used);
            if eof {
                if oversize || !line.is_empty() {
                    end_line(&mut line, &mut oversize, &mut batch);
                }
                batch.push(Inbound::Eof { session });
            }
            let sent = batch.is_empty() || tx.send(Inbound::Batch(batch)).is_ok();
            if eof || !sent {
                return;
            }
        }
    });
}

struct Daemon<'w> {
    opts: ServeOptions,
    started: Instant,
    sched: Scheduler<f64>,
    sessions: Vec<Session<'w>>,
    /// Bounded admission queues, indexed by [`class_rank`].
    queues: [VecDeque<ServeJob>; 3],
    active: Vec<ServeJob>,
    next_job: u64,
    draining: bool,
    once: bool,
    sessions_started: u64,
    /// EMA of observed job wall seconds (completed, timed-out, and
    /// retried attempts all feed it), for `retry_after_seconds` hints.
    ema_seconds: f64,
    /// Present in TCP mode so new connections can get reader threads.
    reader_tx: Option<mpsc::Sender<Inbound>>,
    /// Cached serve-layer instruments (see [`ServeMetrics`]), registered
    /// on the scheduler's registry: one service-wide registry, always on
    /// — `status` and `bye` read their daemon-wide numbers from it — and
    /// exposed over `{"cmd":"metrics"}` and (optionally)
    /// `--metrics-listen`.
    m: ServeMetrics,
    /// Completion timestamps within [`RATE_WINDOW`], for the
    /// `placements_per_hour` gauge.
    completions: VecDeque<Instant>,
}

impl<'w> Daemon<'w> {
    fn new(opts: ServeOptions, once: bool, reader_tx: Option<mpsc::Sender<Inbound>>) -> Self {
        let threads = opts.threads;
        let sched = Scheduler::with_threads(threads);
        let m = ServeMetrics::new(sched.metrics());
        Self {
            opts,
            started: Instant::now(),
            sched,
            sessions: Vec::new(),
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            active: Vec::new(),
            next_job: 0,
            draining: false,
            once,
            sessions_started: 0,
            ema_seconds: 5.0,
            reader_tx,
            m,
            completions: VecDeque::new(),
        }
    }

    /// Refreshes the registry's sampled gauges (queue depths, open
    /// sessions, the throughput window, the back-pressure hint) so a
    /// scrape — or a `status`/`bye` read — sees current values.
    fn refresh_gauges(&mut self) {
        for (rank, q) in self.queues.iter().enumerate() {
            self.m.queue_depth[rank].set(q.len() as f64);
        }
        self.m.sessions_open.set(self.open_sessions());
        while let Some(t) = self.completions.front() {
            if t.elapsed() > RATE_WINDOW {
                self.completions.pop_front();
            } else {
                break;
            }
        }
        let span = RATE_WINDOW
            .as_secs_f64()
            .min(self.started.elapsed().as_secs_f64())
            .max(1.0);
        self.m
            .placements_per_hour
            .set(self.completions.len() as f64 * 3600.0 / span);
        // retry_after() updates its own gauge as a side effect.
        let _ = self.retry_after();
    }

    /// Buffers one event line for a session; the loop flushes it
    /// ([`Self::flush_sessions`]). Dead sessions swallow events (detached
    /// jobs keep running); a write failure on the critical (stdio) session
    /// is the one fatal transport error.
    fn emit(&mut self, sid: u64, line: &str) -> Result<(), String> {
        let Some(pos) = self
            .sessions
            .iter()
            .position(|s| s.id == sid && s.alive)
        else {
            return Ok(());
        };
        let s = &mut self.sessions[pos];
        if let Err(e) = writeln!(s.out, "{line}") {
            return self.write_failed(pos, &e);
        }
        s.unflushed = true;
        self.m.bytes_streamed.add(line.len() as u64 + 1);
        match s.drop_after_events {
            Some(n) if n <= 1 => {
                s.drop_after_events = None;
                self.kill_session(sid)
            }
            Some(n) => {
                s.drop_after_events = Some(n - 1);
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Writes out what session `pos` has buffered. A failure takes the
    /// path of a failed write.
    fn flush_at(&mut self, pos: usize) -> Result<(), String> {
        let s = &mut self.sessions[pos];
        if !(s.alive && s.unflushed) {
            return Ok(());
        }
        s.unflushed = false;
        self.m.flushes.inc();
        match s.out.flush() {
            Ok(()) => Ok(()),
            Err(e) => self.write_failed(pos, &e),
        }
    }

    /// Flushes every live session: once per loop pass, so a scheduler
    /// round's events leave in one write per session, not one per event.
    fn flush_sessions(&mut self) -> Result<(), String> {
        (0..self.sessions.len()).try_for_each(|pos| self.flush_at(pos))
    }

    /// A write to session `pos` failed: the session is disconnected and
    /// what it still buffers is dropped, so a dead stream is never written
    /// again. On the critical (stdio) session this is fatal.
    fn write_failed(&mut self, pos: usize, e: &std::io::Error) -> Result<(), String> {
        let s = &mut self.sessions[pos];
        s.alive = false;
        let dead = std::mem::replace(&mut s.out, BufWriter::new(Box::new(std::io::sink())));
        drop(dead.into_parts());
        if s.critical {
            return Err(format!("client write: {e}"));
        }
        Ok(())
    }

    /// Delivers what a session has buffered and marks it disconnected; the
    /// per-loop sweep applies the disconnect policy to its jobs.
    fn kill_session(&mut self, sid: u64) -> Result<(), String> {
        let Some(pos) = self.sessions.iter().position(|s| s.id == sid) else {
            return Ok(());
        };
        let flushed = self.flush_at(pos);
        self.sessions[pos].alive = false;
        flushed
    }

    /// Bumps one tally in session `sid`'s stats; the daemon-wide count is
    /// the registry counter bumped beside it (see [`Self::totals`]).
    fn tally(&mut self, sid: u64, bump: impl Fn(&mut ServeStats)) {
        if let Some(s) = self.sessions.iter_mut().find(|s| s.id == sid) {
            bump(&mut s.stats);
        }
    }

    /// The daemon-wide tallies, read from the registry: the serve layer's
    /// counters and the scheduler's retry counter.
    fn totals(&self) -> ServeStats {
        let n = |c: &Counter| c.get() as usize;
        ServeStats {
            completed: n(&self.m.jobs_completed),
            failed: n(&self.m.jobs_failed),
            rejected: n(&self.m.rejected),
            errors: n(&self.m.malformed),
            shed: n(&self.m.sheds),
            retries: self.sched.health().retries as usize,
        }
    }

    /// A line that is not a request at all: structured `error`, and the
    /// session lives.
    fn malformed(&mut self, sid: u64, line_no: u64, what: &str) -> Result<(), String> {
        self.tally(sid, |s| s.errors += 1);
        self.m.malformed.inc();
        self.emit(sid, &protocol::error(line_no, what))
    }

    /// The daemon-wide numbers of `status` and `bye`, read back from the
    /// metrics registry (the same cells a scrape renders), so the two
    /// views agree.
    fn load(&mut self) -> Load {
        self.refresh_gauges();
        Load {
            uptime: self.sched.metrics().uptime_seconds(),
            queued: std::array::from_fn(|r| self.m.queue_depth[r].get() as u64),
            retry_after: self.m.retry_after.get(),
        }
    }

    fn session_has_jobs(&self, sid: u64) -> bool {
        let mut jobs = self.active.iter().chain(self.queues.iter().flatten());
        jobs.any(|j| j.session == sid)
    }

    fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Registers a connection as the next session and greets it.
    fn open_session(&mut self, out: Box<dyn Write + 'w>, critical: bool) -> Result<u64, String> {
        let sid = self.sessions_started;
        self.sessions_started += 1;
        self.sessions.push(Session::new(sid, out, critical));
        self.m.sessions_total.inc();
        self.m.sessions_open.set(self.open_sessions());
        let line = protocol::hello(
            self.sched.host().threads(),
            self.opts.slots,
            sid,
            self.opts.queue_cap,
        );
        self.emit(sid, &line)?;
        Ok(sid)
    }

    fn open_sessions(&self) -> f64 {
        self.sessions.iter().filter(|s| s.alive).count() as f64
    }

    /// Marks `sid`'s input as finished; on the critical (stdio) session
    /// that drains the daemon. Returns whether the session is critical.
    fn end_of_input(&mut self, sid: u64) -> bool {
        let Some(s) = self.sessions.iter_mut().find(|s| s.id == sid) else {
            return false;
        };
        s.eof = true;
        self.draining |= s.critical;
        s.critical
    }

    /// Notes client activity on `sid` (the idle timeout counts from it).
    fn touch(&mut self, sid: u64) {
        if let Some(s) = self.sessions.iter_mut().find(|s| s.id == sid) {
            s.last_activity = Instant::now();
        }
    }

    /// Load-shedding hint: expected seconds until a freed slot, from the
    /// job-seconds EMA scaled by the backlog. Every computation also
    /// lands in the `dp_serve_retry_after_seconds` gauge, so the hint a
    /// client saw and the hint a scrape shows are the same number.
    fn retry_after(&self) -> f64 {
        let backlog = (self.queued_total() + self.active.len()).max(1) as f64;
        let hint =
            (self.ema_seconds * backlog / self.opts.slots.max(1) as f64).clamp(1.0, 600.0);
        self.m.retry_after.set(hint);
        hint
    }

    fn reject(&mut self, sid: u64, why: &str) -> Result<(), String> {
        self.tally(sid, |s| s.rejected += 1);
        self.m.rejected.inc();
        self.emit(sid, &protocol::rejected(why))
    }

    /// Emits `accepted` and enqueues the job; the loop admits it.
    fn accept(&mut self, job: ServeJob) -> Result<(), String> {
        let line = protocol::accepted(job.id, &job.name, job.class);
        let sid = job.session;
        self.next_job += 1;
        let rank = class_rank(job.class);
        self.m.admissions[rank].inc();
        self.queues[rank].push_back(job);
        self.emit(sid, &line)
    }

    /// Moves queued jobs into free scheduler slots, highest priority
    /// first, building each one's design and flow config on the way in. A
    /// job whose design cannot be built ends with `failed`.
    fn admit(&mut self) -> Result<(), String> {
        while self.active.len() < self.opts.slots.max(1) {
            let Some(mut job) = self
                .queues
                .iter_mut()
                .find_map(VecDeque::pop_front)
            else {
                break;
            };
            let Some(staged) = job.staged.take() else {
                continue;
            };
            self.m.queue_wait[class_rank(job.class)]
                .observe(job.admitted_at.elapsed().as_secs_f64());
            match staged.build(self.opts.threads) {
                Ok((design, config)) => {
                    let id = self.sched.submit_with(
                        config,
                        design,
                        job.telemetry.clone(),
                        job.options.clone(),
                    );
                    job.sched = Some(id);
                    self.active.push(job);
                }
                Err(why) => {
                    self.tally(job.session, |s| s.failed += 1);
                    self.m.jobs_failed.inc();
                    self.emit(job.session, &protocol::failed(job.id, &why, None))?;
                }
            }
        }
        for (rank, q) in self.queues.iter().enumerate() {
            self.m.queue_depth[rank].set(q.len() as f64);
        }
        Ok(())
    }

    fn dispatch(&mut self, inbound: Inbound) -> Result<(), String> {
        match inbound {
            Inbound::Conn(stream) => {
                let Ok(reader) = stream.try_clone() else {
                    return Ok(());
                };
                // A stalled client whose socket send buffer fills must not
                // wedge the single daemon loop (and every other tenant)
                // behind a blocking write: bound each write, and let the
                // resulting error disconnect just this session.
                let _ = stream.set_write_timeout(Some(TCP_WRITE_TIMEOUT));
                let sid = self.open_session(Box::new(stream), false)?;
                if let Some(tx) = &self.reader_tx {
                    spawn_reader(BufReader::new(reader), sid, tx.clone());
                }
                Ok(())
            }
            Inbound::Line {
                session,
                line_no,
                line,
            } => {
                self.touch(session);
                match parse_request(&line) {
                    Err(e) => self.malformed(session, line_no, &format!("malformed request: {e}")),
                    Ok(req) => self.handle(session, req),
                }
            }
            Inbound::Oversize { session, line_no } => {
                self.touch(session);
                self.malformed(
                    session,
                    line_no,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                )
            }
            Inbound::Eof { session } => {
                // stdio: end of input means drain.
                self.end_of_input(session);
                Ok(())
            }
            Inbound::Transport { session, error } => {
                // stdin going away mid-read is end of input; a TCP
                // session's transport error just disconnects it.
                if !self.end_of_input(session) {
                    eprintln!("warning: session {session} transport: {error}");
                    self.kill_session(session)?;
                }
                Ok(())
            }
            Inbound::Batch(batch) => batch.into_iter().try_for_each(|inb| self.dispatch(inb)),
        }
    }

    fn handle(&mut self, sid: u64, req: Request) -> Result<(), String> {
        // A submit only enqueues; any other request admits first, so its
        // reply reflects the submits before it.
        if !matches!(req, Request::Submit(_)) {
            self.admit()?;
        }
        match req {
            Request::Drain => {
                self.draining = true;
                self.emit(sid, &protocol::draining())
            }
            Request::Bad(why) => self.reject(sid, &why),
            Request::Chaos { drop_after_events } => {
                if !self.opts.allow_chaos {
                    return self.reject(
                        sid,
                        "chaos injection is disabled (start the daemon with --chaos)",
                    );
                }
                if let Some(s) = self.sessions.iter_mut().find(|s| s.id == sid) {
                    s.drop_after_events = Some(drop_after_events);
                }
                self.emit(sid, &protocol::chaos(drop_after_events))
            }
            Request::Status(None) => {
                let health = self.sched.health();
                let line = protocol::daemon_status(
                    &self.load(),
                    self.opts.slots,
                    self.active.len(),
                    self.sessions.len(),
                    &self.totals(),
                    &health,
                );
                self.emit(sid, &line)
            }
            Request::Metrics => {
                self.refresh_gauges();
                self.sched.health(); // refreshes the pool gauges
                let line = protocol::metrics(&self.sched.metrics().render());
                self.emit(sid, &line)
            }
            Request::Status(Some(id)) => {
                // Jobs are session-scoped: another tenant's job answers
                // `unknown`, exactly like a job that never existed, so ids
                // leak nothing across connections.
                let mine = |j: &ServeJob| j.id == id && j.session == sid;
                let phase = if let Some(j) = self.active.iter().find(|j| mine(j)) {
                    match j.sched.and_then(|s| self.sched.status(s)) {
                        Some(JobStatus::Running { state }) => Phase::Running(state),
                        Some(JobStatus::Retrying { attempt }) => Phase::Retrying(attempt),
                        _ => Phase::Finishing,
                    }
                } else if self.queues.iter().flatten().any(mine) {
                    Phase::Queued
                } else {
                    Phase::Unknown
                };
                self.emit(sid, &protocol::job_status(id, &phase))
            }
            Request::Cancel(id) => {
                // Only the owning session may cancel a job — any client
                // could otherwise guess the small sequential ids and kill
                // other tenants' work. The owner's `cancelled` event is its
                // job's one terminal event.
                let mine = |j: &ServeJob| j.id == id && j.session == sid;
                let found = if let Some(job) = self.active.iter().find(|j| mine(j)) {
                    // The pump reaps the cancelled job from the run queue.
                    if let Some(s) = job.sched {
                        self.sched.cancel(s);
                    }
                    true
                } else {
                    self.queues.iter_mut().any(|q| {
                        let at = q.iter().position(mine);
                        at.and_then(|at| q.remove(at)).is_some()
                    })
                };
                let line = if found {
                    protocol::cancelled(id)
                } else {
                    protocol::job_status(id, &Phase::Unknown)
                };
                self.emit(sid, &line)
            }
            Request::Submit(spec) => {
                if self.draining {
                    return self.reject(sid, "daemon is draining");
                }
                if spec.faults != ServeFaultInjection::default() && !self.opts.allow_chaos {
                    return self.reject(
                        sid,
                        "chaos injection is disabled (start the daemon with --chaos)",
                    );
                }
                match build_job(spec, self.next_job, sid, &self.opts) {
                    Err(why) => self.reject(sid, &why),
                    Ok(job) => self.submit_or_shed(sid, job),
                }
            }
        }
    }

    /// Overload control: when the outstanding jobs (running and queued)
    /// fill the slots and the queue cap, shed the newest job of the
    /// lowest-priority non-empty queue — or the incoming job itself if
    /// nothing queued is lower-priority than it. Counting both, a burst
    /// ingested before admission keeps as many jobs as it would arriving
    /// line by line.
    fn submit_or_shed(&mut self, sid: u64, job: ServeJob) -> Result<(), String> {
        let queued = self.queued_total();
        if self.active.len() + queued < self.opts.slots.max(1) + self.opts.queue_cap {
            return self.accept(job);
        }
        let retry_after = self.retry_after();
        let lowest = (0..self.queues.len())
            .rev()
            .find(|&r| !self.queues[r].is_empty());
        match lowest.filter(|&l| class_rank(job.class) < l) {
            Some(l) => {
                // The incoming job outranks the queue's tail: shed that.
                if let Some(victim) = self.queues[l].pop_back() {
                    self.tally(victim.session, |s| s.shed += 1);
                    self.m.sheds.inc();
                    self.emit(
                        victim.session,
                        &protocol::overloaded(Some(victim.id), victim.class, queued, retry_after),
                    )?;
                }
                self.accept(job)
            }
            None => {
                // The incoming job is the lowest priority around: reject it
                // (no `accepted` event was emitted yet).
                self.tally(sid, |s| s.shed += 1);
                self.m.sheds.inc();
                self.emit(sid, &protocol::overloaded(None, job.class, queued, retry_after))
            }
        }
    }

    /// One scheduler round plus event streaming and job retirement.
    fn pump(&mut self) -> Result<(), String> {
        self.sched.step_round();
        let jobs = std::mem::take(&mut self.active);
        let mut still = Vec::with_capacity(jobs.len());
        for mut job in jobs {
            let Some(sid) = job.sched else { continue };
            let (cursor, lines) = job.telemetry.events_since(job.cursor);
            job.cursor = cursor;
            for data in lines {
                self.emit(job.session, &protocol::trace(job.id, &data))?;
            }
            match self.sched.status(sid) {
                Some(JobStatus::Running { state }) => {
                    if job.last_state != Some(state) {
                        job.last_state = Some(state);
                        self.emit(job.session, &protocol::state(job.id, state))?;
                    }
                    still.push(job);
                }
                Some(JobStatus::Retrying { attempt }) => {
                    if job.last_attempt != attempt {
                        job.last_attempt = attempt;
                        self.tally(job.session, |s| s.retries += 1);
                        // A retried attempt consumed real wall time without
                        // freeing a slot: feed it into the back-pressure EMA
                        // so the retry_after hint reflects faulty workloads
                        // too, not only clean completions.
                        let spent = job.admitted_at.elapsed().as_secs_f64();
                        self.ema_seconds = 0.7 * self.ema_seconds + 0.3 * spent;
                        self.emit(job.session, &protocol::retrying(job.id, attempt))?;
                    }
                    still.push(job);
                }
                None => {
                    // Only the daemon's own cancel (a client's `cancel`, or
                    // a disconnect under `--on-disconnect cancel`) takes a
                    // job out of the scheduler before `retire`. The owner
                    // already has its terminal `cancelled` event, or is
                    // gone; keep the trace for forensics.
                    save_trace(&job, &self.opts);
                }
                Some(JobStatus::Done | JobStatus::Failed) => self.retire(job, sid)?,
            }
        }
        self.active = still;
        Ok(())
    }

    /// Emits a finished job's terminal `done`/`failed` event.
    fn retire(&mut self, job: ServeJob, sid: JobId) -> Result<(), String> {
        let outcome = self.sched.take_outcome(sid);
        let trace_path = save_trace(&job, &self.opts);
        let session = job.session;
        let line = if let Some(JobOutcome::Completed(r)) = &outcome {
            self.tally(session, |s| s.completed += 1);
            self.m.jobs_completed.inc();
            self.completions.push_back(Instant::now());
            self.ema_seconds = 0.7 * self.ema_seconds + 0.3 * r.timing.total;
            protocol::done(
                job.id,
                r.hpwl_final,
                r.gp.iterations,
                r.gp.final_overflow,
                r.timing.total,
                trace_path.as_deref(),
            )
        } else {
            self.tally(session, |s| s.failed += 1);
            self.m.jobs_failed.inc();
            let (error, fault) = match outcome {
                Some(JobOutcome::Failed(e)) => (e.diagnosis(), None),
                Some(JobOutcome::Panicked {
                    message,
                    at,
                    attempts,
                }) => (
                    format!("contained panic: {message}"),
                    Some(self.fault("panic", at, attempts, &job)),
                ),
                Some(JobOutcome::TimedOut {
                    deadline_seconds,
                    at,
                    attempts,
                }) => {
                    // A timed-out job held a slot for at least its deadline
                    // — feed that into the back-pressure EMA so the
                    // retry_after hint does not understate a stalling
                    // workload.
                    self.ema_seconds = 0.7 * self.ema_seconds + 0.3 * deadline_seconds;
                    (
                        format!("exceeded its {deadline_seconds:.3}s deadline"),
                        Some(self.fault("timeout", at, attempts, &job)),
                    )
                }
                _ => ("job vanished".to_string(), None),
            };
            protocol::failed(job.id, &error, fault.as_ref())
        };
        self.emit(session, &line)
    }

    /// What a panic or timeout adds to `failed`; writes the flight-recorder
    /// dump on the way.
    fn fault(&self, kind: &'static str, at: FlowState, attempts: u32, job: &ServeJob) -> Fault {
        Fault {
            kind,
            at,
            attempts,
            postmortem: self.save_postmortem(job),
        }
    }

    /// Dumps a panicked/timed-out job's flight recorder — the last
    /// [`POSTMORTEM_EVENTS`] lines of its timeline plus one terminal
    /// `postmortem` point — to `trace_dir/job-N.postmortem.jsonl`. The
    /// window is read from the job's telemetry, so it includes the
    /// terminal turn's own points (e.g. the panic itself). Failures
    /// degrade to a warning; the terminal event still goes out.
    fn save_postmortem(&self, job: &ServeJob) -> Option<PathBuf> {
        let dir = self.opts.trace_dir.as_ref()?;
        // The timeline may have grown past the streaming cursor; starting
        // one window before the cursor covers the last window either way.
        let from = job.cursor.saturating_sub(POSTMORTEM_EVENTS);
        let (total, lines) = job.telemetry.events_since(from);
        let window = &lines[lines.len().saturating_sub(POSTMORTEM_EVENTS)..];
        let mut text: String = window.iter().flat_map(|line| [line, "\n"]).collect();
        text.push_str(&protocol::postmortem_marker(
            window.last().map(String::as_str),
            format!(
                "job {} ({}) flight recorder: last {} of {} events",
                job.id,
                job.name,
                window.len(),
                total,
            ),
        ));
        text.push('\n');
        let path = dir.join(format!("job-{}.postmortem.jsonl", job.id));
        match std::fs::write(&path, text) {
            Ok(()) => {
                self.m.postmortems.inc();
                Some(path)
            }
            Err(e) => {
                eprintln!("warning: writing {}: {e}", path.display());
                None
            }
        }
    }

    /// Session hygiene, once per loop: idle timeouts, disconnect-policy
    /// enforcement (idempotent), and retirement of finished sessions.
    fn sweep_sessions(&mut self) -> Result<(), String> {
        if let Some(t) = self.opts.idle_timeout {
            let idle: Vec<u64> = self
                .sessions
                .iter()
                .filter(|s| {
                    s.alive
                        && !s.eof
                        && !s.critical
                        && s.last_activity.elapsed().as_secs_f64() > t
                })
                .map(|s| s.id)
                .collect();
            for sid in idle {
                if self.session_has_jobs(sid) {
                    continue;
                }
                self.emit(sid, &protocol::idle_timeout(t))?;
                if let Some(s) = self.sessions.iter_mut().find(|s| s.id == sid) {
                    s.eof = true;
                }
            }
        }
        if self.opts.on_disconnect == DisconnectPolicy::Cancel {
            let dead: Vec<u64> = self
                .sessions
                .iter()
                .filter(|s| !s.alive)
                .map(|s| s.id)
                .collect();
            for sid in dead {
                let ids: Vec<JobId> = self
                    .active
                    .iter()
                    .filter(|j| j.session == sid)
                    .filter_map(|j| j.sched)
                    .collect();
                for id in ids {
                    self.sched.cancel(id);
                }
                for q in &mut self.queues {
                    q.retain(|j| j.session != sid);
                }
            }
        }
        let finished: Vec<u64> = self
            .sessions
            .iter()
            .filter(|s| {
                !s.alive || (s.eof && !s.critical && !self.session_has_jobs(s.id))
            })
            .map(|s| s.id)
            .collect();
        for sid in finished {
            self.finish_session(sid)?;
        }
        Ok(())
    }

    /// Says goodbye (when the session can still hear it) and removes it.
    fn finish_session(&mut self, sid: u64) -> Result<(), String> {
        let stats = match self.sessions.iter().find(|s| s.id == sid) {
            Some(s) if s.alive => Some(s.stats),
            Some(_) => None,
            None => return Ok(()),
        };
        if let Some(st) = stats {
            let line = protocol::bye(&st, &self.load());
            self.emit(sid, &line)?;
        }
        if let Some(pos) = self.sessions.iter().position(|s| s.id == sid) {
            self.flush_at(pos)?;
            self.sessions.remove(pos);
        }
        self.m.sessions_open.set(self.open_sessions());
        Ok(())
    }

    fn should_exit(&self, disconnected: bool) -> bool {
        self.draining
            || disconnected
            || (self.once && self.sessions_started > 0 && self.sessions.is_empty())
    }

    fn run(&mut self, rx: &mpsc::Receiver<Inbound>) -> Result<(), String> {
        loop {
            // 1. Ingest every waiting request without blocking the jobs.
            let mut disconnected = false;
            loop {
                match rx.try_recv() {
                    Ok(inb) => self.dispatch(inb)?,
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            // 2. Admit queued jobs into free slots, by class; session
            // hygiene; the replies so far go out. The sampled gauges
            // refresh here too so an out-of-band scrape (the
            // --metrics-listen thread) is at most one tick stale.
            self.admit()?;
            self.sweep_sessions()?;
            self.refresh_gauges();
            self.flush_sessions()?;
            // 3. Idle: block for the next request, or exit once drained.
            if self.active.is_empty() && self.queued_total() == 0 {
                if self.should_exit(disconnected) {
                    break;
                }
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(inb) => self.dispatch(inb)?,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
                continue;
            }
            // 4. One fair round; stream progress and retire finished jobs.
            self.pump()?;
            self.flush_sessions()?;
            // All live jobs waiting out retry backoff: park briefly.
            let any_running = self.active.iter().any(|j| {
                matches!(
                    j.sched.and_then(|s| self.sched.status(s)),
                    Some(JobStatus::Running { .. })
                )
            });
            if !self.active.is_empty() && !any_running {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// Final goodbyes to every session still around at shutdown.
    fn shutdown(&mut self) -> Result<(), String> {
        let ids: Vec<u64> = self.sessions.iter().map(|s| s.id).collect();
        for sid in ids {
            self.finish_session(sid)?;
        }
        Ok(())
    }
}

/// Runs the daemon over one connection (stdio) until the client drains
/// it. `input` runs on a reader thread (so job stepping never blocks on a
/// slow client); events are written to `output` as they happen. Returns
/// the daemon-wide tallies, read from the metrics registry.
///
/// # Errors
///
/// Returns an error only when the output stream fails (a transport
/// error); a malformed request line is answered with an `error` event and
/// an invalid one with `rejected`, both leaving the daemon running.
pub fn serve<R, W>(input: R, output: &mut W, opts: &ServeOptions) -> Result<ServeStats, String>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let (tx, rx) = mpsc::channel::<Inbound>();
    spawn_reader(input, 0, tx);
    let mut daemon = Daemon::new(opts.clone(), false, None);
    start_metrics_listener(&daemon)?;
    daemon.open_session(Box::new(output), true)?;
    daemon.run(&rx)?;
    daemon.shutdown()?;
    Ok(daemon.totals())
}

/// Runs the daemon as a multi-client TCP service: every accepted
/// connection is an independent session feeding the one shared scheduler.
/// With `once`, the listener stops after the first connection and the
/// daemon exits when that client is done; otherwise it runs until a
/// client sends `drain`. Returns the daemon-wide tallies, read from the
/// metrics registry.
///
/// # Errors
///
/// Returns an error when the daemon's internal state fails irrecoverably;
/// individual client failures only end their own sessions.
pub fn serve_tcp(
    listener: TcpListener,
    opts: &ServeOptions,
    once: bool,
) -> Result<ServeStats, String> {
    let (tx, rx) = mpsc::channel::<Inbound>();
    let acceptor_tx = tx.clone();
    std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if acceptor_tx.send(Inbound::Conn(stream)).is_err() {
                    return;
                }
                if once {
                    return;
                }
            }
            Err(_) => return,
        }
    });
    let mut daemon = Daemon::new(opts.clone(), once, Some(tx));
    start_metrics_listener(&daemon)?;
    daemon.run(&rx)?;
    daemon.shutdown()?;
    Ok(daemon.totals())
}

/// Binds `opts.metrics_listen` (when set) and serves the exposition from
/// a dedicated thread. Failing to bind is a startup error — an operator
/// who asked for a scrape endpoint should not silently run without one.
fn start_metrics_listener(daemon: &Daemon<'_>) -> Result<(), String> {
    let Some(addr) = &daemon.opts.metrics_listen else {
        return Ok(());
    };
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("metrics-listen {addr}: {e}"))?;
    if let Ok(local) = listener.local_addr() {
        eprintln!("metrics: listening on {local}");
    }
    spawn_metrics_listener(listener, daemon.sched.metrics().clone());
    Ok(())
}

/// Serves the Prometheus text exposition on `listener`, one short-lived
/// connection at a time, from its own thread. Speaks just enough HTTP for
/// a scraper (`GET <anything>` gets a 200 with headers); a client that
/// sends a blank line (or closes its write side) gets the raw text, which
/// keeps `nc`-style scrapes in shell scripts trivial.
pub fn spawn_metrics_listener(listener: TcpListener, metrics: Metrics) {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.set_write_timeout(Some(TCP_WRITE_TIMEOUT));
            let mut first = String::new();
            {
                let mut reader = BufReader::new(&mut stream);
                if reader.read_line(&mut first).is_err() {
                    continue;
                }
                // Drain the request headers (until the blank line) so the
                // client never sees a reset from unread data.
                if first.starts_with("GET ") || first.starts_with("HEAD ") {
                    let mut header = String::new();
                    while reader.read_line(&mut header).is_ok()
                        && !header.trim_end().is_empty()
                    {
                        header.clear();
                    }
                }
            }
            let body = metrics.render();
            let response = if first.starts_with("GET ") || first.starts_with("HEAD ") {
                format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    if first.starts_with("HEAD ") { "" } else { body.as_str() }
                )
            } else {
                body
            };
            let _ = stream.write_all(response.as_bytes());
            let _ = stream.flush();
        }
    });
}

/// Builds the queued job: parses a Bookshelf design (a bad file is
/// `rejected` here), keeps a generated design's parameters for admission,
/// and folds the request's service knobs over the daemon's defaults.
fn build_job(
    spec: Box<JobSpec>,
    id: u64,
    session: u64,
    defaults: &ServeOptions,
) -> Result<ServeJob, String> {
    let design = match &spec.source {
        Source::Aux(path) => {
            let parsed = read_design::<f64>(&PathBuf::from(path))
                .map_err(|e| format!("reading {path}: {e}"))?;
            Design::Parsed(Arc::new(GeneratedDesign {
                name: parsed.name,
                netlist: parsed.netlist,
                fixed_positions: parsed.positions,
            }))
        }
        Source::Gen(name, cells, nets, seed) => {
            Design::Gen(GeneratorConfig::new(name.clone(), *cells, *nets).with_seed(*seed))
        }
    };
    let name = match &design {
        Design::Parsed(d) => d.name.clone(),
        Design::Gen(gen) => gen.name.clone(),
    };
    let class = spec
        .qos
        .unwrap_or_else(|| QosClass::from_budgets(spec.gp_seconds, spec.dp_seconds));
    let retry = RetryPolicy {
        max_attempts: spec.max_attempts.unwrap_or(defaults.retry.max_attempts).max(1),
        backoff_seconds: spec
            .backoff_seconds
            .unwrap_or(defaults.retry.backoff_seconds)
            .max(0.0),
        conservative_final: spec
            .conservative_final
            .unwrap_or(defaults.retry.conservative_final),
    };
    let options = JobOptions {
        qos: Some(class),
        deadline_seconds: spec.deadline_seconds,
        retry,
        faults: spec.faults,
    };
    Ok(ServeJob {
        id,
        session,
        name,
        staged: Some(Staged { design, spec }),
        class,
        options,
        telemetry: Telemetry::enabled(),
        cursor: 0,
        sched: None,
        last_state: None,
        last_attempt: 1,
        admitted_at: Instant::now(),
    })
}

/// Persists the job's full trace (with merged kernel/worker totals) when a
/// trace directory is configured. Failures are reported inline as a meta
/// line rather than killing the daemon.
fn save_trace(job: &ServeJob, opts: &ServeOptions) -> Option<PathBuf> {
    let dir = opts.trace_dir.as_ref()?;
    let path = dir.join(format!("job-{}.jsonl", job.id));
    match job.telemetry.save_jsonl(&path) {
        Ok(_) => Some(path),
        Err(e) => {
            eprintln!("warning: writing {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::Mutex;

    /// A `Write` sink whose contents stay readable after being boxed into
    /// a session.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn test_session(id: u64, buf: &SharedBuf) -> Session<'static> {
        Session::new(id, Box::new(buf.clone()), true)
    }

    #[test]
    fn serve_session_orders_events_per_job() {
        let input = Cursor::new(
            [
                r#"{"cmd":"submit","preset":"tiny","seed":5,"max_iters":20,"qos":"interactive"}"#,
                r#"{"cmd":"submit","cells":80,"nets":90,"seed":6,"max_iters":20}"#,
                r#"{"cmd":"bogus"}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 2,
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut out, &opts).expect("serve runs");
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.errors, 0);

        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.first().unwrap().contains("\"event\":\"hello\""));
        assert!(lines.last().unwrap().contains("\"event\":\"bye\""));
        // Per job: accepted strictly before any progress, progress before done.
        for job in [0, 1] {
            let accepted = lines
                .iter()
                .position(|l| l.contains("\"event\":\"accepted\"") && l.contains(&format!("\"job\":{job},")))
                .expect("accepted event");
            let job_key = format!("\"job\":{job}");
            let first_progress = lines
                .iter()
                .position(|l| {
                    (l.contains("\"event\":\"state\"") || l.contains("\"event\":\"trace\""))
                        && l.contains(&job_key)
                })
                .expect("progress events");
            let done = lines
                .iter()
                .position(|l| l.contains("\"event\":\"done\"") && l.contains(&job_key))
                .expect("done event");
            assert!(accepted < first_progress && first_progress < done);
        }
        // The stream carries real trace lines (iteration events).
        assert!(text.contains("\"event\":\"trace\""));
        assert!(text.contains("\"ev\":\"iter\""));
    }

    #[test]
    fn served_result_is_bit_identical_to_standalone() {
        // The defining property of the shared pool, end to end through the
        // wire protocol: the streamed HPWL equals a standalone run's bits.
        // The daemon runs DREAMPlace-CPU; the GPU-sim baseline also holds
        // the two density scatters to one placement.
        let design = GeneratorConfig::new("wire-7", 120, 130)
            .with_seed(7)
            .generate::<f64>()
            .unwrap();
        let mut config = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &design.netlist);
        config.gp.max_iters = 25;
        config.gp.min_iters = config.gp.min_iters.min(25);
        config.gp.threads = 2;
        let base = crate::DreamPlacer::new(config).place(&design).unwrap();

        let input = Cursor::new(
            [
                r#"{"cmd":"submit","cells":120,"nets":130,"seed":7,"name":"wire-7","max_iters":25}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 2,
            slots: 1,
            ..ServeOptions::default()
        };
        serve(input, &mut out, &opts).expect("serve runs");
        let text = String::from_utf8(out).unwrap();
        let needle = format!("\"hpwl\":{:e}", base.hpwl_final);
        assert!(
            text.contains(&needle),
            "served HPWL differs from standalone: wanted {needle}"
        );
    }

    #[test]
    fn served_jobs_run_the_cpu_density_scatter() {
        // GPU-sim's 2x2 tile split is a comparison tier: same bits, slower
        // scatter on a CPU. A served job must not pay for it.
        let line = r#"{"cmd":"submit","preset":"tiny","seed":5,"max_iters":15}"#;
        let Ok(Request::Submit(spec)) = parse_request(line) else {
            panic!("a submit request");
        };
        let opts = ServeOptions::default();
        let job = build_job(spec, 0, 0, &opts).expect("job builds");
        // The config is built where the loop builds it: at admission.
        let staged = job.staged.expect("a queued job holds its source");
        let (_, config) = staged.build(opts.threads).expect("design builds");
        assert_eq!(
            config.gp.density_strategy,
            dp_density::DensityStrategy::Sorted
        );
    }

    #[test]
    fn malformed_line_emits_error_and_session_survives() {
        let input = Cursor::new(
            [
                "this is not json",
                r#"{"cmd":"submit","preset":"tiny","seed":5,"max_iters":15}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut out, &opts).expect("serve survives garbage");
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.completed, 1, "the session kept working after the error");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"event\":\"error\",\"line\":1,"));
        assert!(text.contains("malformed request"));
        assert!(text.contains("\"errors\":1"));
    }

    #[test]
    fn daemon_status_reports_health() {
        let input = Cursor::new([r#"{"cmd":"status"}"#, r#"{"cmd":"drain"}"#].join("\n"));
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 3,
            ..ServeOptions::default()
        };
        serve(input, &mut out, &opts).expect("serve runs");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"event\":\"status\",\"uptime_seconds\":"));
        assert!(text.contains("\"slots\":3"));
        assert!(text.contains("\"workers_alive\":"));
        assert!(text.contains("\"panics_contained\":0"));
    }

    #[test]
    fn chaos_knobs_are_rejected_without_the_flag() {
        let input = Cursor::new(
            [
                r#"{"cmd":"submit","preset":"tiny","chaos_panic_at":"gp:3"}"#,
                r#"{"cmd":"chaos","drop_after_events":2}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let stats = serve(input, &mut out, &ServeOptions::default()).expect("serve runs");
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.completed, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("chaos injection is disabled"));
    }

    #[test]
    fn unrepresentable_seconds_are_rejected_and_the_session_ends() {
        let input = Cursor::new(
            [
                concat!(
                    r#"{"cmd":"submit","preset":"tiny","seed":3,"deadline_seconds":1e-9,"#,
                    r#""backoff_seconds":1e300}"#
                ),
                concat!(
                    r#"{"cmd":"submit","preset":"tiny","seed":3,"chaos_stall_at":"gp:1","#,
                    r#""chaos_stall_seconds":1e300}"#
                ),
                r#"{"cmd":"submit","preset":"tiny","gp_seconds":-1}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            allow_chaos: true,
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut out, &opts).expect("the daemon survives");
        assert_eq!(stats.rejected, 3);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"event\":\"rejected\"").count(), 3, "{text}");
        assert!(text.contains("bad backoff_seconds"), "{text}");
        assert!(text.contains("bad chaos_stall_seconds"), "{text}");
        let last = text.lines().last().unwrap_or_default();
        assert!(last.contains("\"event\":\"bye\""), "{text}");
    }

    /// A generated design too large to allocate is rejected at parse time:
    /// generation runs outside any job's containment, where a failed
    /// allocation would abort the daemon.
    #[test]
    fn oversized_generated_design_is_rejected_and_the_session_ends() {
        let input = Cursor::new(
            [
                r#"{"cmd":"submit","cells":100000000000,"nets":10}"#,
                r#"{"cmd":"submit","cells":10,"nets":100000000000}"#,
                r#"{"cmd":"submit","cells":18446744073709551615}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut out, &opts).expect("the daemon survives");
        assert_eq!(stats.rejected, 3);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"event\":\"rejected\"").count(), 3, "{text}");
        assert_eq!(text.matches("too large").count(), 3, "{text}");
        let last = text.lines().last().unwrap_or_default();
        assert!(last.contains("\"event\":\"bye\""), "{text}");
    }

    #[test]
    fn injected_panic_retries_from_checkpoint_and_completes() {
        let input = Cursor::new(
            [
                concat!(
                    r#"{"cmd":"submit","cells":80,"nets":90,"seed":6,"max_iters":20,"#,
                    r#""qos":"interactive","chaos_panic_at":"gp:3","max_attempts":2,"#,
                    r#""backoff_seconds":0.01,"conservative_final":false}"#
                ),
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            allow_chaos: true,
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut out, &opts).expect("serve runs");
        assert_eq!(stats.completed, 1, "the retried job finished");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retries, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"event\":\"retrying\",\"job\":0,\"attempt\":2"));
        // The contained panic and the retry are timeline events in the trace.
        assert!(text.contains("injected service panic"));
        assert!(text.contains("\"event\":\"done\",\"job\":0,"));
    }

    #[test]
    fn overload_sheds_bulk_first_then_rejects_the_newest() {
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            queue_cap: 1,
            ..ServeOptions::default()
        };
        let mut d = Daemon::new(opts, false, None);
        let buf = SharedBuf::default();
        d.sessions.push(test_session(0, &buf));
        let submit = |d: &mut Daemon<'static>, line: &str| {
            d.handle(0, parse_request(line).unwrap()).unwrap();
        };
        // Job 0 takes the slot at the loop's admission step; job 1 queues
        // (Bulk).
        submit(&mut d, r#"{"cmd":"submit","preset":"tiny","seed":1,"qos":"bulk"}"#);
        submit(&mut d, r#"{"cmd":"submit","preset":"tiny","seed":2,"qos":"bulk"}"#);
        d.admit().unwrap();
        assert_eq!(d.active.len(), 1);
        assert_eq!(d.queues[2].len(), 1);
        // An interactive arrival sheds the queued Bulk job...
        submit(
            &mut d,
            r#"{"cmd":"submit","preset":"tiny","seed":3,"qos":"interactive"}"#,
        );
        assert!(d.queues[2].is_empty());
        assert_eq!(d.queues[0].len(), 1);
        // ...and a second interactive is itself rejected (nothing queued is
        // lower-priority than it).
        submit(
            &mut d,
            r#"{"cmd":"submit","preset":"tiny","seed":4,"qos":"interactive"}"#,
        );
        assert_eq!(d.queues[0].len(), 1);
        assert_eq!(d.totals().shed, 2);
        assert_eq!(d.next_job, 3, "the rejected submission consumed no job id");
        d.flush_sessions().unwrap();
        let text = buf.text();
        assert!(text.contains("\"event\":\"overloaded\",\"job\":1,"));
        assert!(text.contains("\"retry_after_seconds\":"));
        assert!(text.contains("\"error\":\"queue full\""));
        // Cancelling the queued job frees its slot.
        d.handle(0, parse_request(r#"{"cmd":"cancel","job":2}"#).unwrap())
            .unwrap();
        assert!(d.queues[0].is_empty());
        d.flush_sessions().unwrap();
        assert!(buf.text().contains("\"event\":\"cancelled\",\"job\":2}"));
    }

    #[test]
    fn cancel_and_status_are_session_scoped() {
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            ..ServeOptions::default()
        };
        let mut d = Daemon::new(opts, false, None);
        let b0 = SharedBuf::default();
        let b1 = SharedBuf::default();
        d.sessions.push(test_session(0, &b0));
        d.sessions.push(test_session(1, &b1));
        // Session 0 owns job 0 (running) and job 1 (queued; slots=1).
        for line in [
            r#"{"cmd":"submit","preset":"tiny","seed":1}"#,
            r#"{"cmd":"submit","preset":"tiny","seed":2}"#,
        ] {
            d.handle(0, parse_request(line).unwrap()).unwrap();
        }
        d.admit().unwrap();
        assert_eq!(d.active.len(), 1);
        assert_eq!(d.queues[2].len(), 1);
        // A stranger can neither see nor cancel either job.
        for line in [
            r#"{"cmd":"cancel","job":0}"#,
            r#"{"cmd":"cancel","job":1}"#,
            r#"{"cmd":"status","job":0}"#,
        ] {
            d.handle(1, parse_request(line).unwrap()).unwrap();
        }
        assert_eq!(d.active.len(), 1, "running job survives a foreign cancel");
        assert_eq!(d.queues[2].len(), 1, "queued job survives a foreign cancel");
        assert!(matches!(
            d.active[0].sched.and_then(|s| d.sched.status(s)),
            Some(JobStatus::Running { .. })
        ));
        d.flush_sessions().unwrap();
        let t1 = b1.text();
        assert!(!t1.contains("\"event\":\"cancelled\""));
        assert_eq!(t1.matches("\"phase\":\"unknown\"").count(), 3);
        // The owner can do both.
        d.handle(0, parse_request(r#"{"cmd":"status","job":0}"#).unwrap())
            .unwrap();
        d.handle(0, parse_request(r#"{"cmd":"cancel","job":0}"#).unwrap())
            .unwrap();
        d.flush_sessions().unwrap();
        let t0 = b0.text();
        assert!(t0.contains("\"phase\":\"running\""));
        assert!(t0.contains("\"event\":\"cancelled\",\"job\":0}"));
    }

    #[test]
    fn owner_cancel_streams_the_last_trace_lines_and_frees_the_slot() {
        let dir = std::env::temp_dir().join(format!("dp-serve-cancel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            trace_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let mut d = Daemon::new(opts, false, None);
        let buf = SharedBuf::default();
        d.sessions.push(test_session(0, &buf));
        for line in [
            r#"{"cmd":"submit","preset":"small","seed":1,"max_iters":400,"qos":"interactive"}"#,
            r#"{"cmd":"submit","preset":"tiny","seed":2,"max_iters":15}"#,
        ] {
            d.handle(0, parse_request(line).unwrap()).unwrap();
        }
        d.admit().unwrap();
        d.pump().unwrap();
        let running = d.active[0].sched.unwrap();
        assert!(matches!(d.sched.status(running), Some(JobStatus::Running { .. })));
        d.handle(0, parse_request(r#"{"cmd":"cancel","job":0}"#).unwrap())
            .unwrap();
        assert_eq!(d.sched.status(running), None, "the cancel dropped the job");
        assert_eq!(d.active.len(), 1, "the slot is freed by the next pass");

        // One loop pass: the pump reaps the job, then admission fills the slot.
        d.pump().unwrap();
        assert!(d.active.is_empty());
        d.admit().unwrap();
        assert_eq!(d.active.iter().map(|j| j.id).collect::<Vec<_>>(), [1]);
        assert!(d.queues.iter().all(VecDeque::is_empty));
        d.flush_sessions().unwrap();
        let text = buf.text();
        let cancelled = text.find("{\"event\":\"cancelled\",\"job\":0}").unwrap();
        assert!(
            text[cancelled..].contains("\"name\":\"cancel\""),
            "the cancel point streams after the cancelled event"
        );
        assert!(!text.contains("\"event\":\"failed\""), "{text}");
        let trace = std::fs::read_to_string(dir.join("job-0.jsonl")).unwrap();
        assert!(trace.contains("\"name\":\"cancel\""));
        let scrape = d.sched.metrics().render();
        assert!(scrape.contains("dp_sched_jobs_total{outcome=\"cancelled\"} 1"), "{scrape}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_disconnected_client_gets_its_job_cancelled() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpStream;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = ServeOptions {
            threads: 1,
            slots: 2,
            on_disconnect: DisconnectPolicy::Cancel,
            ..ServeOptions::default()
        };
        let daemon = std::thread::spawn(move || serve_tcp(listener, &opts, false));

        // The first client leaves once its job is running.
        let conn = TcpStream::connect(addr).unwrap();
        writeln!(
            &conn,
            r#"{{"cmd":"submit","preset":"small","seed":4,"max_iters":5000,"qos":"interactive"}}"#
        )
        .unwrap();
        let mut lines = BufReader::new(conn.try_clone().unwrap()).lines();
        assert!(lines.any(|l| l.unwrap().contains("\"event\":\"state\"")));
        conn.shutdown(std::net::Shutdown::Both).unwrap();
        drop((lines, conn));

        // A second client watches the scheduler cancel it, then drains.
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut lines = BufReader::new(conn.try_clone().unwrap()).lines();
        let mut cancelled = false;
        for _ in 0..1200 {
            writeln!(conn, r#"{{"cmd":"metrics"}}"#).unwrap();
            let scrape = lines
                .by_ref()
                .map(Result::unwrap)
                .find(|l| l.starts_with("{\"event\":\"metrics\""))
                .unwrap();
            if scrape.contains(r#"dp_sched_jobs_total{outcome=\"cancelled\"} 1"#) {
                cancelled = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(cancelled, "the disconnected client's job was not cancelled");
        writeln!(conn, r#"{{"cmd":"drain"}}"#).unwrap();
        let stats = daemon.join().unwrap().expect("daemon exits cleanly");
        assert_eq!((stats.completed, stats.failed), (0, 0));
    }

    #[test]
    fn an_idle_tcp_session_times_out_then_says_bye() {
        use std::io::{BufRead as _, BufReader};
        use std::net::TcpStream;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            idle_timeout: Some(0.2),
            ..ServeOptions::default()
        };
        let daemon = std::thread::spawn(move || serve_tcp(listener, &opts, true));
        let conn = TcpStream::connect(addr).unwrap();
        let events: Vec<String> = BufReader::new(&conn)
            .lines()
            .map(Result::unwrap)
            .take(3)
            .collect();
        assert!(events[0].starts_with("{\"event\":\"hello\""), "{events:?}");
        assert_eq!(events[1], "{\"event\":\"idle_timeout\",\"seconds\":0.2}");
        assert!(events[2].starts_with("{\"event\":\"bye\",\"completed\":0,"), "{events:?}");
        daemon.join().unwrap().expect("the daemon exits after its one session");
    }

    /// The unsigned field `key` of a flat JSON event line.
    fn count(line: &str, key: &str) -> u64 {
        let fields = crate::telemetry::json::parse_flat(line).unwrap();
        let value = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        value.and_then(crate::telemetry::json::Value::as_u64).unwrap()
    }

    #[test]
    fn bye_status_and_returned_totals_agree() {
        use std::os::unix::net::UnixStream;

        let (mut client, daemon_end) = UnixStream::pair().unwrap();
        let out = SharedBuf::default();
        let mut sink = out.clone();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            queue_cap: 1,
            allow_chaos: true,
            ..ServeOptions::default()
        };
        let daemon = std::thread::spawn(move || {
            serve(std::io::BufReader::new(daemon_end), &mut sink, &opts)
        });
        // Two jobs fill the slot and the queue, so the third is shed; one
        // job's panic is retried once.
        let requests = [
            concat!(
                r#"{"cmd":"submit","preset":"tiny","seed":5,"max_iters":20,"qos":"interactive","#,
                r#""chaos_panic_at":"gp:3","max_attempts":2,"backoff_seconds":0.01,"#,
                r#""conservative_final":false}"#
            ),
            r#"{"cmd":"submit","preset":"tiny","seed":6,"max_iters":20,"qos":"bulk"}"#,
            r#"{"cmd":"submit","preset":"tiny","seed":7,"max_iters":20,"qos":"bulk"}"#,
            r#"{"cmd":"bogus"}"#,
            "not json",
        ];
        writeln!(client, "{}", requests.join("\n")).unwrap();
        let mut done = 0;
        for _ in 0..2400 {
            done = out.text().matches("\"event\":\"done\"").count();
            if done == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(done, 2, "{}", out.text());
        let last = concat!(r#"{"cmd":"status"}"#, "\n", r#"{"cmd":"drain"}"#, "\n");
        client.write_all(last.as_bytes()).unwrap();
        drop(client);
        let totals = daemon.join().unwrap().expect("serve runs");

        let text = out.text();
        let line = |prefix: &str| text.lines().find(|l| l.starts_with(prefix)).unwrap();
        let status = line("{\"event\":\"status\",");
        let bye = line("{\"event\":\"bye\",");
        for (key, total, want) in [
            ("completed", totals.completed, 2),
            ("failed", totals.failed, 0),
            ("rejected", totals.rejected, 1),
            ("errors", totals.errors, 1),
            ("shed", totals.shed, 1),
            ("retries", totals.retries, 1),
        ] {
            assert_eq!(total, want, "{key}");
            assert_eq!(count(bye, key), want as u64, "bye {key}");
            assert_eq!(count(status, key), want as u64, "status {key}");
        }
    }

    /// The `job` ids of a transcript's `done` events, in stream order.
    fn done_order(text: &str) -> Vec<u64> {
        text.lines()
            .filter_map(|l| l.strip_prefix("{\"event\":\"done\",\"job\":"))
            .map(|rest| rest[..rest.find(',').unwrap()].parse().unwrap())
            .collect()
    }

    /// An output stream that counts the writes reaching it.
    #[derive(Default)]
    struct CountedWrites {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountedWrites {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_burst_in_one_input_is_served_in_class_order() {
        // One slot, and five requests in one read of the input: the reader
        // hands the loop every line of that read at once, so the bulk job
        // that arrives first is admitted after every higher class.
        let input = Cursor::new(
            [
                r#"{"cmd":"submit","preset":"tiny","seed":1,"max_iters":10,"qos":"bulk"}"#,
                r#"{"cmd":"submit","preset":"tiny","seed":2,"max_iters":10,"qos":"batch"}"#,
                r#"{"cmd":"submit","preset":"tiny","seed":3,"max_iters":10,"qos":"interactive"}"#,
                r#"{"cmd":"submit","preset":"tiny","seed":4,"max_iters":10,"qos":"interactive"}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = CountedWrites::default();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut out, &opts).expect("serve runs");
        assert_eq!(stats.completed, 4);
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(done_order(&text), [2, 3, 1, 0], "{text}");
        // Events leave in batches, not one write each.
        let writes = out.writes;
        assert!(writes > 0 && writes < text.lines().count() / 4, "{writes} writes");
    }

    #[test]
    fn queued_generated_jobs_hold_parameters_until_admitted() {
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            ..ServeOptions::default()
        };
        let mut d = Daemon::new(opts, false, None);
        let buf = SharedBuf::default();
        d.sessions.push(test_session(0, &buf));
        // Four submits in one pass, then the loop's admission step.
        for seed in 1..=4 {
            let line = format!(r#"{{"cmd":"submit","preset":"tiny","seed":{seed},"max_iters":5}}"#);
            d.handle(0, parse_request(&line).unwrap()).unwrap();
        }
        let generator_only = |d: &Daemon<'_>| {
            d.queues
                .iter()
                .flatten()
                .all(|j| matches!(j.staged, Some(Staged { design: Design::Gen(_), .. })))
        };
        assert_eq!(d.queued_total(), 4);
        assert!(generator_only(&d), "nothing is built before admission");
        d.admit().unwrap();
        assert_eq!(d.active.len(), 1);
        assert!(d.active[0].staged.is_none(), "the admitted job was built");
        assert_eq!(d.queued_total(), 3);
        assert!(generator_only(&d), "the queued three hold generator parameters");
        // When the slot frees, the next job is built as it is admitted.
        while d.active.first().is_some_and(|j| j.id == 0) {
            d.pump().unwrap();
        }
        d.admit().unwrap();
        assert_eq!(d.active[0].id, 1);
        assert!(d.active[0].staged.is_none());
        assert_eq!(d.queued_total(), 2);
        assert!(generator_only(&d));
        d.flush_sessions().unwrap();
        assert!(buf.text().contains("\"event\":\"done\",\"job\":0,"));
    }

    #[test]
    fn a_one_pass_burst_sheds_the_lowest_priority_newest_first() {
        // slots + queue_cap = 3 outstanding jobs; a burst of 3 + 2 sheds 2.
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            queue_cap: 2,
            ..ServeOptions::default()
        };
        let mut d = Daemon::new(opts, false, None);
        let buf = SharedBuf::default();
        d.sessions.push(test_session(0, &buf));
        let burst = [
            (1, "bulk"),
            (2, "bulk"),
            (3, "batch"),
            (4, "interactive"),
            (5, "interactive"),
        ];
        for (seed, qos) in burst {
            let line = format!(r#"{{"cmd":"submit","preset":"tiny","seed":{seed},"qos":"{qos}"}}"#);
            d.handle(0, parse_request(&line).unwrap()).unwrap();
        }
        d.admit().unwrap();
        assert_eq!(d.totals().shed, 2);
        // Both bulk jobs went, the newer one first; the batch job survives.
        d.flush_sessions().unwrap();
        let text = buf.text();
        let shed = |job: u64| {
            text.find(&format!("\"event\":\"overloaded\",\"job\":{job},\"qos\":\"bulk\""))
                .expect("shed event")
        };
        assert!(shed(1) < shed(0), "{text}");
        assert_eq!(d.active.iter().map(|j| j.id).collect::<Vec<_>>(), [3]);
        let queued: Vec<u64> = d.queues.iter().flatten().map(|j| j.id).collect();
        assert_eq!(queued, [4, 2]);
    }

    #[test]
    fn chaos_drop_delivers_exactly_the_events_before_it() {
        let input = Cursor::new(
            [
                r#"{"cmd":"chaos","drop_after_events":6}"#,
                r#"{"cmd":"submit","preset":"tiny","seed":5,"max_iters":10}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            allow_chaos: true,
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut out, &opts).expect("serve runs");
        assert_eq!(stats.completed, 1, "the detached job still finishes");
        let text = String::from_utf8(out).unwrap();
        // `hello`, then six events counting the `chaos` reply, each whole.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 6, "{text}");
        assert!(text.ends_with('\n'));
        assert!(lines[1].starts_with("{\"event\":\"chaos\""));
        assert!(lines.iter().all(|l| !l.contains("\"event\":\"bye\"")));
    }

    #[test]
    fn oversized_line_is_bounded_and_answered_with_an_error() {
        // An un-terminated megabyte-plus line must not grow the reader's
        // buffer without bound or kill the session: it is discarded, the
        // client gets a structured error, and the next request still works.
        let mut script = vec![b'x'; MAX_LINE_BYTES + MAX_LINE_BYTES / 2];
        script.push(b'\n');
        script.extend_from_slice(
            [
                r#"{"cmd":"submit","preset":"tiny","seed":5,"max_iters":15}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n")
            .as_bytes(),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            ..ServeOptions::default()
        };
        let stats = serve(Cursor::new(script), &mut out, &opts).expect("serve survives");
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.completed, 1, "the session kept working after the flood");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(&format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }

    #[test]
    fn tcp_serves_multiple_clients_concurrently() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpStream;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = ServeOptions {
            threads: 1,
            slots: 2,
            ..ServeOptions::default()
        };
        let daemon = std::thread::spawn(move || serve_tcp(listener, &opts, false));

        let client = move |seed: u64, drain: bool| {
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(
                conn,
                "{{\"cmd\":\"submit\",\"preset\":\"tiny\",\"seed\":{seed},\"max_iters\":15}}"
            )
            .unwrap();
            if drain {
                writeln!(conn, "{{\"cmd\":\"drain\"}}").unwrap();
            }
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut lines = Vec::new();
            for line in BufReader::new(conn).lines() {
                let Ok(line) = line else { break };
                lines.push(line);
            }
            lines
        };
        let c1 = std::thread::spawn(move || client(21, false));
        let lines1 = c1.join().unwrap();
        // Second client drains the daemon once its own job is done.
        let lines2 = client(22, true);

        for lines in [&lines1, &lines2] {
            assert!(lines.iter().any(|l| l.contains("\"event\":\"hello\"")));
            assert!(lines.iter().any(|l| l.contains("\"event\":\"done\"")));
            assert!(lines.last().unwrap().contains("\"event\":\"bye\""));
        }
        let stats = daemon.join().unwrap().expect("daemon exits cleanly");
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn metrics_request_exposes_all_three_layers() {
        let input = Cursor::new(
            [
                r#"{"cmd":"submit","preset":"tiny","seed":5,"max_iters":15,"qos":"interactive"}"#,
                "not json at all",
                r#"{"cmd":"metrics"}"#,
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            ..ServeOptions::default()
        };
        serve(input, &mut out, &opts).expect("serve runs");
        let text = String::from_utf8(out).unwrap();
        let metrics_line = text
            .lines()
            .find(|l| l.contains("\"event\":\"metrics\""))
            .expect("metrics event");
        // One scrape covers serve, scheduler, and pool series. The payload
        // is a JSON string, so series text appears with \n escapes around
        // it — substring checks still hold.
        for needle in [
            "dp_serve_sessions_total 1",
            "dp_serve_admissions_total{qos=\\\"interactive\\\"} 1",
            "dp_serve_malformed_lines_total 1",
            "dp_serve_bytes_streamed_total",
            "dp_sched_jobs_submitted_total 1",
            "dp_sched_step_seconds_bucket",
            "dp_pool_launches_total",
            "dp_pool_workers_alive",
            "dp_uptime_seconds",
        ] {
            assert!(metrics_line.contains(needle), "missing {needle} in scrape");
        }
        // The metrics request may race job completion within the final
        // round, but the enriched status/bye fields must be present.
        assert!(text.contains("\"queued_interactive\":"));
        assert!(text.contains("\"retry_after_seconds\":"));
        let bye = text.lines().last().unwrap();
        assert!(bye.contains("\"event\":\"bye\""));
        assert!(bye.contains("\"uptime_seconds\":"));
        assert!(bye.contains("\"queued_bulk\":0"));
    }

    #[test]
    fn terminal_panic_dumps_a_validated_postmortem() {
        let dir = std::env::temp_dir().join(format!(
            "dp-serve-postmortem-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let input = Cursor::new(
            [
                // max_attempts 1: the contained panic is terminal.
                concat!(
                    r#"{"cmd":"submit","cells":80,"nets":90,"seed":6,"max_iters":20,"#,
                    r#""chaos_panic_at":"gp:3","max_attempts":1}"#
                ),
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let mut out = Vec::new();
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            allow_chaos: true,
            trace_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut out, &opts).expect("serve runs");
        assert_eq!(stats.failed, 1);
        let text = String::from_utf8(out).unwrap();
        let failed = text
            .lines()
            .find(|l| l.contains("\"event\":\"failed\""))
            .expect("failed event");
        assert!(failed.contains("\"kind\":\"panic\""));
        assert!(
            failed.contains("\"postmortem_path\":"),
            "terminal event must point at the dump: {failed}"
        );
        let path = dir.join("job-0.postmortem.jsonl");
        let dump = std::fs::read_to_string(&path).expect("postmortem written");
        // The dump passes the independent dp-check validator: bounded,
        // schema-clean, terminated by the marker point.
        let s = crate::check::validate_postmortem_str(&dump).expect("valid postmortem");
        assert!(s.lines <= POSTMORTEM_EVENTS + 1);
        assert_eq!(s.panics, 1, "the contained panic is in the recording");
        assert!(dump.lines().last().unwrap().contains("\"name\":\"postmortem\""));
        // The two crates pin the same window size.
        assert_eq!(POSTMORTEM_EVENTS, crate::check::POSTMORTEM_EVENT_CAP);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic after more than a window of events: the dump is exactly the
    /// last [`POSTMORTEM_EVENTS`] timeline lines of the saved trace.
    #[test]
    fn postmortem_window_is_the_tail_of_the_saved_timeline() {
        let dir = std::env::temp_dir().join(format!(
            "dp-serve-postmortem-tail-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let input = Cursor::new(
            [
                concat!(
                    r#"{"cmd":"submit","cells":80,"nets":90,"seed":6,"max_iters":60,"#,
                    r#""chaos_panic_at":"gp:40","max_attempts":1}"#
                ),
                r#"{"cmd":"drain"}"#,
            ]
            .join("\n"),
        );
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            allow_chaos: true,
            trace_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let stats = serve(input, &mut Vec::new(), &opts).expect("serve runs");
        assert_eq!(stats.failed, 1);
        let trace = std::fs::read_to_string(dir.join("job-0.jsonl")).expect("trace written");
        // The saved trace is the timeline followed by the kernel and worker
        // totals appended when it is written.
        let timeline: Vec<&str> = trace
            .lines()
            .filter(|l| !l.starts_with(r#"{"ev":"kernel""#) && !l.starts_with(r#"{"ev":"worker""#))
            .collect();
        assert!(timeline.len() > POSTMORTEM_EVENTS, "the window must slide");
        let dump = std::fs::read_to_string(dir.join("job-0.postmortem.jsonl")).unwrap();
        let lines: Vec<&str> = dump.lines().collect();
        let (marker, window) = lines.split_last().unwrap();
        assert_eq!(window, &timeline[timeline.len() - POSTMORTEM_EVENTS..]);
        let detail = format!("last {POSTMORTEM_EVENTS} of {} events", timeline.len());
        assert!(marker.contains(&detail), "{marker}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timed_out_jobs_feed_the_backpressure_ema() {
        let opts = ServeOptions {
            threads: 1,
            slots: 1,
            allow_chaos: true,
            ..ServeOptions::default()
        };
        let mut d = Daemon::new(opts, false, None);
        let buf = SharedBuf::default();
        d.sessions.push(test_session(0, &buf));
        let before = d.ema_seconds;
        // A stalling job with a tight deadline and no retries times out.
        d.handle(
            0,
            parse_request(concat!(
                r#"{"cmd":"submit","preset":"tiny","seed":3,"max_iters":30,"#,
                r#""chaos_stall_at":"gp:2","chaos_stall_seconds":0.05,"#,
                r#""deadline_seconds":0.01,"max_attempts":1}"#
            ))
            .unwrap(),
        )
        .unwrap();
        d.admit().unwrap();
        for _ in 0..2000 {
            d.pump().unwrap();
            if d.active.is_empty() {
                break;
            }
        }
        assert!(d.active.is_empty(), "the stalled job timed out");
        assert_eq!(d.totals().failed, 1);
        assert!(
            (d.ema_seconds - before).abs() > 1e-12,
            "a timed-out job updates the EMA (was {before}, still {})",
            d.ema_seconds
        );
        d.flush_sessions().unwrap();
        assert!(buf.text().contains("\"kind\":\"timeout\""));
    }

    #[test]
    fn metrics_listener_speaks_http_and_raw() {
        use std::io::{Read as _, Write as _};
        use std::net::TcpStream;

        let metrics = Metrics::enabled();
        metrics
            .counter("dp_test_listener_total", "listener test counter")
            .add(7);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        spawn_metrics_listener(listener, metrics);

        // HTTP scrape: headers + body.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("Content-Type: text/plain"));
        assert!(response.contains("dp_test_listener_total 7"));
        assert!(response.contains("# TYPE dp_test_listener_total counter"));

        // Raw scrape: a blank line gets the bare exposition.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"\n").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("# HELP"), "raw mode has no headers: {response}");
        assert!(response.contains("dp_test_listener_total 7"));
    }
}
