//! The `dp-serve` wire protocol, in one place: request bytes →
//! [`Request`] ([`parse_request`]) and one encoder per event kind
//! (event → line). Pure — no I/O, no daemon state — so it is fuzzed
//! directly, and the only module of the daemon that knows JSON (through
//! the shared codec, [`crate::telemetry::json`]). The request and event
//! vocabulary is documented on [the parent module](super).
//!
//! The bytes are a contract: clients (`dp-perf` among them) classify lines
//! by the literal prefix `{"event":"` and read `"key":<number>` by
//! adjacency, so key order, the absence of whitespace and the float forms
//! (`{:e}`, `{:.3}`, `{:.1}`) are pinned by `wire_transcript.rs` and the
//! golden strings below.

use std::path::{Path, PathBuf};
use std::time::Duration;

use super::ServeStats;
use crate::telemetry::json::{self, Object, Value};
use crate::telemetry::{jsonl, TraceEvent};
use crate::{FlowState, QosClass, SchedulerHealth, ServeFaultInjection};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// What a submitted job should place.
#[derive(Debug, Clone)]
pub(super) enum Source {
    /// A Bookshelf `.aux` on the daemon's filesystem.
    Aux(String),
    /// A `dp-gen` design: `(name, cells, nets, seed)`.
    Gen(String, usize, usize, u64),
}

/// A parsed `submit` request.
#[derive(Debug, Clone)]
pub(super) struct JobSpec {
    pub(super) source: Source,
    pub(super) max_iters: Option<usize>,
    pub(super) overflow: Option<f64>,
    pub(super) qos: Option<QosClass>,
    pub(super) gp_seconds: Option<f64>,
    pub(super) dp_seconds: Option<f64>,
    /// Per-attempt busy-time deadline override (`None` derives one from the
    /// budgets / QoS class inside the scheduler).
    pub(super) deadline_seconds: Option<f64>,
    pub(super) max_attempts: Option<u32>,
    pub(super) backoff_seconds: Option<f64>,
    pub(super) conservative_final: Option<bool>,
    /// Chaos knobs (only honored when the daemon runs with `--chaos`).
    pub(super) faults: ServeFaultInjection,
}

#[derive(Debug)]
pub(super) enum Request {
    Submit(Box<JobSpec>),
    /// `None` asks for daemon-wide status, `Some(id)` for one job's.
    Status(Option<u64>),
    /// Full Prometheus-style exposition as a `metrics` event.
    Metrics,
    Cancel(u64),
    /// Simulated connection drop after N more events (chaos only).
    Chaos { drop_after_events: usize },
    Drain,
    /// A line that parsed as JSON but is not a valid request; the payload
    /// is the diagnosis (answered with a `rejected` event).
    Bad(String),
}

/// The largest `cells` or `nets` a generated-design `submit` may ask for:
/// 2^24, above the paper's largest design (10M cells, Table III). The
/// daemon generates the design outside any job's containment, so a size
/// whose allocation fails would abort the whole daemon.
const MAX_GENERATED: usize = 1 << 24;

/// Built-in generated-design sizes for `"preset"`.
fn preset_dims(name: &str) -> Option<(usize, usize)> {
    match name {
        "tiny" => Some((60, 70)),
        "small" => Some((200, 220)),
        "medium" => Some((800, 850)),
        _ => None,
    }
}

/// Parses one request line. `Err` means the line is not even JSON (the
/// session answers with an `error` event and stays alive); `Ok(Bad)` means
/// it is JSON but not a valid request (answered with `rejected`).
pub(super) fn parse_request(line: &str) -> Result<Request, String> {
    let fields = json::parse_flat(line)?;
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let Some(cmd) = get("cmd").and_then(Value::as_str) else {
        return Ok(Request::Bad("missing \"cmd\"".into()));
    };
    Ok(match cmd {
        "drain" | "shutdown" => Request::Drain,
        "status" => Request::Status(get("job").and_then(Value::as_u64)),
        "metrics" => Request::Metrics,
        "cancel" => match get("job").and_then(Value::as_u64) {
            Some(job) => Request::Cancel(job),
            None => Request::Bad("cancel needs a numeric \"job\"".into()),
        },
        "chaos" => match get("drop_after_events").and_then(Value::as_usize) {
            Some(n) => Request::Chaos {
                drop_after_events: n,
            },
            None => Request::Bad("chaos needs a numeric \"drop_after_events\"".into()),
        },
        "submit" => {
            let seed = get("seed").and_then(Value::as_u64).unwrap_or(1);
            let name_or = |default: String| {
                get("name").and_then(Value::as_str).map_or(default, str::to_string)
            };
            let source = if let Some(aux) = get("aux").and_then(Value::as_str) {
                Source::Aux(aux.to_string())
            } else if let Some(preset) = get("preset").and_then(Value::as_str) {
                let Some((cells, nets)) = preset_dims(preset) else {
                    return Ok(Request::Bad(format!(
                        "unknown preset {preset:?} (want tiny|small|medium)"
                    )));
                };
                Source::Gen(name_or(format!("{preset}-{seed}")), cells, nets, seed)
            } else if let Some(cells) = get("cells").and_then(Value::as_usize) {
                let nets = get("nets")
                    .and_then(Value::as_usize)
                    .unwrap_or(cells.saturating_add(cells / 20));
                if cells == 0 {
                    return Ok(Request::Bad(
                        "design of 0 cells has nothing to place (want at least 1 cell)".into(),
                    ));
                }
                if cells.max(nets) > MAX_GENERATED {
                    return Ok(Request::Bad(format!(
                        "design of {cells} cells and {nets} nets is too large \
                         (want at most {MAX_GENERATED} of each)"
                    )));
                }
                Source::Gen(name_or(format!("gen-{cells}-{seed}")), cells, nets, seed)
            } else {
                return Ok(Request::Bad(
                    "submit needs \"aux\", \"preset\", or \"cells\"".into(),
                ));
            };
            // Every duration knob must fit a `Duration`: the scheduler's
            // timers would otherwise panic on it outside any job's
            // containment.
            for key in [
                "gp_seconds",
                "dp_seconds",
                "deadline_seconds",
                "backoff_seconds",
                "chaos_stall_seconds",
            ] {
                if let Some(v) = get(key).and_then(Value::as_f64) {
                    if Duration::try_from_secs_f64(v).is_err() {
                        return Ok(Request::Bad(format!(
                            "bad {key} {v:?} (want finite, non-negative seconds)"
                        )));
                    }
                }
            }
            let qos = match get("qos").and_then(Value::as_str) {
                None => None,
                Some("interactive") => Some(QosClass::Interactive),
                Some("batch") => Some(QosClass::Batch),
                Some("bulk") => Some(QosClass::Bulk),
                Some(other) => {
                    return Ok(Request::Bad(format!(
                        "unknown qos {other:?} (want interactive|batch|bulk)"
                    )))
                }
            };
            // `Ok(None)` when the knob is absent, the diagnosis when it is
            // not a flow state.
            let flow_state = |key: &str| match get(key).and_then(Value::as_str) {
                None => Ok(None),
                Some(s) => FlowState::parse(s).map(Some).ok_or_else(|| {
                    format!("bad {key} {s:?} (want a flow state like \"gp:3\")")
                }),
            };
            let mut faults = ServeFaultInjection::default();
            match (flow_state("chaos_panic_at"), flow_state("chaos_stall_at")) {
                (Err(why), _) | (Ok(_), Err(why)) => return Ok(Request::Bad(why)),
                (Ok(panic_at), Ok(stall_at)) => {
                    faults.panic_at = panic_at;
                    faults.stall_at = stall_at;
                }
            }
            if faults.stall_at.is_some() {
                faults.stall_seconds = get("chaos_stall_seconds")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.5);
            }
            if get("chaos_no_checkpoint").and_then(Value::as_bool) == Some(true) {
                faults.fail_capture = true;
            }
            Request::Submit(Box::new(JobSpec {
                source,
                max_iters: get("max_iters").and_then(Value::as_usize),
                overflow: get("overflow").and_then(Value::as_f64),
                qos,
                gp_seconds: get("gp_seconds").and_then(Value::as_f64),
                dp_seconds: get("dp_seconds").and_then(Value::as_f64),
                deadline_seconds: get("deadline_seconds").and_then(Value::as_f64),
                max_attempts: get("max_attempts")
                    .and_then(Value::as_u64)
                    .and_then(|n| u32::try_from(n).ok()),
                backoff_seconds: get("backoff_seconds").and_then(Value::as_f64),
                conservative_final: get("conservative_final").and_then(Value::as_bool),
                faults,
            }))
        }
        other => Request::Bad(format!("unknown cmd {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// The wire name of a QoS class.
fn qos_label(class: QosClass) -> &'static str {
    match class {
        QosClass::Interactive => "interactive",
        QosClass::Batch => "batch",
        QosClass::Bulk => "bulk",
    }
}

fn event(kind: &str) -> Object {
    Object::new().str("event", kind)
}

/// Daemon-wide numbers `status` and `bye` share. They are read from the
/// metrics registry, not recomputed, so the protocol and the exposition
/// can never disagree.
pub(super) struct Load {
    pub(super) uptime: f64,
    /// Queue depths by class rank (interactive, batch, bulk).
    pub(super) queued: [u64; 3],
    pub(super) retry_after: f64,
}

impl Load {
    fn queues(&self, line: Object) -> Object {
        line.num("queued_interactive", self.queued[0])
            .num("queued_batch", self.queued[1])
            .num("queued_bulk", self.queued[2])
    }
}

pub(super) fn hello(threads: usize, slots: usize, session: u64, queue_cap: usize) -> String {
    event("hello")
        .num("threads", threads)
        .num("slots", slots)
        .num("session", session)
        .num("queue_cap", queue_cap)
        .finish()
}

pub(super) fn accepted(job: u64, name: &str, class: QosClass) -> String {
    event("accepted")
        .num("job", job)
        .str("name", name)
        .str("qos", qos_label(class))
        .finish()
}

/// A valid-JSON line that is not a valid request.
pub(super) fn rejected(why: &str) -> String {
    event("rejected").str("error", why).finish()
}

/// A line that is not JSON at all (or is oversized); `line` is its number.
pub(super) fn error(line: u64, what: &str) -> String {
    event("error").num("line", line).str("error", what).finish()
}

pub(super) fn draining() -> String {
    event("draining").finish()
}

pub(super) fn chaos(drop_after_events: usize) -> String {
    event("chaos").num("drop_after_events", drop_after_events).finish()
}

/// Daemon-wide `status` (a `status` request without a `job`).
pub(super) fn daemon_status(
    load: &Load,
    slots: usize,
    active: usize,
    sessions: usize,
    stats: &ServeStats,
    health: &SchedulerHealth,
) -> String {
    let line = event("status")
        .num("uptime_seconds", format_args!("{:.3}", load.uptime))
        .num("slots", slots)
        .num("active", active)
        .num("queued", load.queued.iter().sum::<u64>());
    load.queues(line)
        .num("retry_after_seconds", format_args!("{:.1}", load.retry_after))
        .num("sessions", sessions)
        .num("completed", stats.completed)
        .num("failed", stats.failed)
        .num("rejected", stats.rejected)
        .num("errors", stats.errors)
        .num("shed", stats.shed)
        .num("workers_alive", health.pool.workers_alive)
        .num("workers_spawned", health.pool.workers_spawned)
        .num("panics_contained", health.panics_contained)
        .num("timeouts", health.timeouts)
        .num("retries", health.retries)
        .num("workers_respawned", health.workers_respawned)
        .finish()
}

/// The Prometheus-style exposition, as one JSON string.
pub(super) fn metrics(exposition: &str) -> String {
    event("metrics").str("data", exposition).finish()
}

/// Where one job is, for a per-job `status`.
pub(super) enum Phase {
    Running(FlowState),
    Retrying(u32),
    Finishing,
    Queued,
    /// Never existed, already retired, or another session's.
    Unknown,
}

pub(super) fn job_status(job: u64, phase: &Phase) -> String {
    let line = event("status").num("job", job);
    match phase {
        Phase::Running(state) => line.str("phase", "running").str("state", &state.to_string()),
        Phase::Retrying(attempt) => line.str("phase", "retrying").num("attempt", attempt),
        Phase::Finishing => line.str("phase", "finishing"),
        Phase::Queued => line.str("phase", "queued"),
        Phase::Unknown => line.str("phase", "unknown"),
    }
    .finish()
}

pub(super) fn cancelled(job: u64) -> String {
    event("cancelled").num("job", job).finish()
}

/// Load shedding: `victim` is the queued job shed for a higher-priority
/// arrival; `None` means the arrival itself was turned away (it never got
/// a job id), in which case the queue length rides along.
pub(super) fn overloaded(
    victim: Option<u64>,
    class: QosClass,
    queued: usize,
    retry_after: f64,
) -> String {
    let line = event("overloaded");
    let (line, why) = match victim {
        Some(job) => (
            line.num("job", job).str("qos", qos_label(class)),
            "shed for a higher-priority submission",
        ),
        None => (line.str("qos", qos_label(class)).num("queued", queued), "queue full"),
    };
    line.num("retry_after_seconds", format_args!("{retry_after:.1}"))
        .str("error", why)
        .finish()
}

/// One line of the job's JSONL trace, embedded raw.
pub(super) fn trace(job: u64, record: &str) -> String {
    event("trace").num("job", job).raw("data", record).finish()
}

pub(super) fn state(job: u64, state: FlowState) -> String {
    event("state").num("job", job).str("state", &state.to_string()).finish()
}

pub(super) fn retrying(job: u64, attempt: u32) -> String {
    event("retrying").num("job", job).num("attempt", attempt).finish()
}

pub(super) fn done(
    job: u64,
    hpwl: f64,
    iterations: usize,
    overflow: f64,
    seconds: f64,
    trace_path: Option<&Path>,
) -> String {
    let line = event("done")
        .num("job", job)
        .num("hpwl", format_args!("{hpwl:e}"))
        .num("iterations", iterations)
        .num("overflow", format_args!("{overflow:e}"))
        .num("seconds", format_args!("{seconds:.3}"));
    path_field(line, "trace_path", trace_path).finish()
}

/// What a `failed` event adds when the job died of a contained panic or a
/// deadline timeout rather than a flow error.
pub(super) struct Fault {
    /// `"panic"` or `"timeout"`.
    pub(super) kind: &'static str,
    pub(super) at: FlowState,
    pub(super) attempts: u32,
    /// The flight-recorder dump, when one was written.
    pub(super) postmortem: Option<PathBuf>,
}

pub(super) fn failed(job: u64, error: &str, fault: Option<&Fault>) -> String {
    let line = event("failed").num("job", job).str("error", error);
    match fault {
        None => line,
        Some(f) => path_field(
            line.str("kind", f.kind)
                .str("at", &f.at.to_string())
                .num("attempts", f.attempts),
            "postmortem_path",
            f.postmortem.as_deref(),
        ),
    }
    .finish()
}

fn path_field(line: Object, key: &str, path: Option<&Path>) -> Object {
    match path {
        Some(p) => line.str(key, &p.display().to_string()),
        None => line,
    }
}

pub(super) fn idle_timeout(seconds: f64) -> String {
    event("idle_timeout").num("seconds", seconds).finish()
}

/// The end-of-session summary.
pub(super) fn bye(stats: &ServeStats, load: &Load) -> String {
    let line = event("bye")
        .num("completed", stats.completed)
        .num("failed", stats.failed)
        .num("rejected", stats.rejected)
        .num("errors", stats.errors)
        .num("shed", stats.shed)
        .num("retries", stats.retries)
        .num("uptime_seconds", format_args!("{:.3}", load.uptime));
    load.queues(line)
        .num("retry_after_seconds", format_args!("{:.1}", load.retry_after))
        .finish()
}

/// The trace record that terminates a flight-recorder dump: a root-level
/// `postmortem` point. It reuses the timestamp of `last` (the dump's last
/// recorded line) so the timeline stays monotone for validators.
pub(super) fn postmortem_marker(last: Option<&str>, detail: String) -> String {
    let t_ns = last
        .and_then(|line| json::parse_flat(line).ok())
        .and_then(|fields| fields.iter().find(|(k, _)| k == "t")?.1.as_u64())
        .unwrap_or(0);
    jsonl::to_json_line(&TraceEvent::Point {
        span: 0,
        name: "postmortem".into(),
        detail,
        t_ns,
        tid: 0,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn flat_parser_roundtrips_requests() {
        let fields =
            json::parse_flat(r#"{"cmd":"submit","preset":"tiny","seed":3,"overflow":0.25}"#).unwrap();
        assert_eq!(fields[0], ("cmd".into(), Value::Str("submit".into())));
        assert_eq!(fields[2], ("seed".into(), Value::Num("3".into())));
        assert!(json::parse_flat("not json").is_err());
        assert!(json::parse_flat(r#"{"a":1} extra"#).is_err());
        // Not JSON at all: a malformed line, not a Bad request.
        assert!(parse_request("not json").is_err());
        // Valid JSON, invalid request: Bad.
        assert!(matches!(
            parse_request(r#"{"cmd":"submit","preset":"nope"}"#),
            Ok(Request::Bad(_))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"drain"}"#),
            Ok(Request::Drain)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"status"}"#),
            Ok(Request::Status(None))
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"cancel","job":4}"#),
            Ok(Request::Cancel(4))
        ));
        // Chaos knobs parse into the scheduler's injection struct.
        let req = parse_request(
            r#"{"cmd":"submit","preset":"tiny","chaos_panic_at":"gp:3","max_attempts":2}"#,
        )
        .unwrap();
        match req {
            Request::Submit(spec) => {
                assert_eq!(spec.faults.panic_at, FlowState::parse("gp:3"));
                assert_eq!(spec.max_attempts, Some(2));
            }
            _ => panic!("expected submit"),
        }
        assert!(matches!(
            parse_request(r#"{"cmd":"submit","preset":"tiny","chaos_panic_at":"nope"}"#),
            Ok(Request::Bad(_))
        ));
        // Escapes survive the round trip through quote + parse_string.
        let quoted = json::quote("a\"b\\c\nd");
        let mut i = 0;
        assert_eq!(json::parse_string(quoted.as_bytes(), &mut i).unwrap(), "a\"b\\c\nd");
    }

    fn submit(line: &str) -> JobSpec {
        match parse_request(line) {
            Ok(Request::Submit(spec)) => *spec,
            other => panic!("expected a submit from {line}, got {other:?}"),
        }
    }

    #[test]
    fn request_strings_take_every_json_escape() {
        // The writer's own \u00XX form, \b and \f used to be answered with
        // `error … unsupported escape`.
        let spec = submit(r#"{"cmd":"submit","preset":"tiny","name":"\u0041\b\f\u00e9\ud83d\ude00"}"#);
        assert!(matches!(&spec.source, Source::Gen(name, ..) if name == "A\u{8}\u{c}é\u{1F600}"));
        assert!(parse_request(r#"{"cmd":"submit","preset":"tiny","name":"\ud83d"}"#).is_err());
    }

    #[test]
    fn integers_are_read_exactly_and_floats_keep_their_meaning() {
        // 2^53 + 1: rounded to …992 when every number went through f64.
        let spec = submit(r#"{"cmd":"submit","cells":50,"seed":9007199254740993}"#);
        assert!(matches!(
            &spec.source,
            Source::Gen(name, 50, 52, 9_007_199_254_740_993) if name == "gen-50-9007199254740993"
        ));
        let spec = submit(r#"{"cmd":"submit","cells":1e3,"overflow":1e-1}"#);
        assert!(matches!(&spec.source, Source::Gen(_, 1000, 1050, 1)));
        assert_eq!(spec.overflow, Some(0.1));
        for over_range in [
            r#"{"cmd":"cancel","job":29999999999999999999}"#,
            r#"{"cmd":"cancel","job":-1}"#,
            r#"{"cmd":"cancel","job":1.5}"#,
            r#"{"cmd":"submit","cells":1e308}"#,
        ] {
            assert!(matches!(parse_request(over_range), Ok(Request::Bad(_))), "{over_range}");
        }
    }

    #[test]
    fn a_design_without_cells_is_rejected_at_parse_time() {
        // The daemon builds a generated design only when the job is
        // admitted, so a size the generator refuses must be caught here to
        // stay a `rejected` request rather than a `failed` job.
        for line in [
            r#"{"cmd":"submit","cells":0,"seed":1}"#,
            r#"{"cmd":"submit","cells":0,"nets":5}"#,
        ] {
            assert!(
                matches!(parse_request(line), Ok(Request::Bad(why)) if why.contains("0 cells")),
                "{line}"
            );
        }
        assert!(matches!(&submit(r#"{"cmd":"submit","cells":1}"#).source, Source::Gen(_, 1, 1, 1)));
    }

    #[test]
    fn every_event_kind_keeps_its_bytes() {
        let stats = ServeStats {
            completed: 1,
            failed: 2,
            rejected: 3,
            errors: 4,
            shed: 5,
            retries: 6,
        };
        let load = Load {
            uptime: 1.23456,
            queued: [7, 8, 9],
            retry_after: 12.0,
        };
        let health = SchedulerHealth {
            pool: crate::num::PoolHealth {
                threads: 2,
                workers_spawned: 1,
                workers_alive: 1,
                launches: 0,
                panicked_launches: 0,
                thread_panics: 0,
                launches_since_poison: None,
            },
            panics_contained: 1,
            timeouts: 2,
            retries: 3,
            workers_respawned: 4,
        };
        let gp3 = FlowState::Gp { iteration: 3 };
        let dump = PathBuf::from("t/job-1.postmortem.jsonl");
        let fault = |kind, postmortem| Fault {
            kind,
            at: gp3,
            attempts: 3,
            postmortem,
        };
        let cases = [
            (
                hello(2, 4, 0, 16),
                r#"{"event":"hello","threads":2,"slots":4,"session":0,"queue_cap":16}"#,
            ),
            (
                accepted(0, "small-7", QosClass::Batch),
                r#"{"event":"accepted","job":0,"name":"small-7","qos":"batch"}"#,
            ),
            (
                rejected("unknown cmd \"x\""),
                r#"{"event":"rejected","error":"unknown cmd \"x\""}"#,
            ),
            (
                error(4, "malformed request: expected '{'"),
                r#"{"event":"error","line":4,"error":"malformed request: expected '{'"}"#,
            ),
            (draining(), r#"{"event":"draining"}"#),
            (chaos(2), r#"{"event":"chaos","drop_after_events":2}"#),
            (
                daemon_status(&load, 4, 2, 1, &stats, &health),
                concat!(
                    r#"{"event":"status","uptime_seconds":1.235,"slots":4,"active":2,"queued":24,"#,
                    r#""queued_interactive":7,"queued_batch":8,"queued_bulk":9,"#,
                    r#""retry_after_seconds":12.0,"sessions":1,"completed":1,"failed":2,"#,
                    r#""rejected":3,"errors":4,"shed":5,"workers_alive":1,"workers_spawned":1,"#,
                    r#""panics_contained":1,"timeouts":2,"retries":3,"workers_respawned":4}"#
                ),
            ),
            (
                metrics("# HELP a \"b\"\na 1\n"),
                r##"{"event":"metrics","data":"# HELP a \"b\"\na 1\n"}"##,
            ),
            (
                job_status(0, &Phase::Running(gp3)),
                r#"{"event":"status","job":0,"phase":"running","state":"gp:3"}"#,
            ),
            (
                job_status(0, &Phase::Retrying(2)),
                r#"{"event":"status","job":0,"phase":"retrying","attempt":2}"#,
            ),
            (
                job_status(0, &Phase::Finishing),
                r#"{"event":"status","job":0,"phase":"finishing"}"#,
            ),
            (
                job_status(5, &Phase::Queued),
                r#"{"event":"status","job":5,"phase":"queued"}"#,
            ),
            (
                job_status(41, &Phase::Unknown),
                r#"{"event":"status","job":41,"phase":"unknown"}"#,
            ),
            (cancelled(2), r#"{"event":"cancelled","job":2}"#),
            (
                overloaded(Some(3), QosClass::Bulk, 1, 12.04),
                concat!(
                    r#"{"event":"overloaded","job":3,"qos":"bulk","retry_after_seconds":12.0,"#,
                    r#""error":"shed for a higher-priority submission"}"#
                ),
            ),
            (
                overloaded(None, QosClass::Interactive, 16, 5.0),
                concat!(
                    r#"{"event":"overloaded","qos":"interactive","queued":16,"#,
                    r#""retry_after_seconds":5.0,"error":"queue full"}"#
                ),
            ),
            (
                trace(0, r#"{"ev":"end","id":2,"t":9,"tid":0}"#),
                r#"{"event":"trace","job":0,"data":{"ev":"end","id":2,"t":9,"tid":0}}"#,
            ),
            (state(0, gp3), r#"{"event":"state","job":0,"state":"gp:3"}"#),
            (retrying(0, 2), r#"{"event":"retrying","job":0,"attempt":2}"#),
            (
                done(0, 123400.0, 87, 0.069, 0.4106, Some(Path::new("traces/job-0.jsonl"))),
                concat!(
                    r#"{"event":"done","job":0,"hpwl":1.234e5,"iterations":87,"overflow":6.9e-2,"#,
                    r#""seconds":0.411,"trace_path":"traces/job-0.jsonl"}"#
                ),
            ),
            (
                done(1, 2.5, 0, 1.0, 2.0, None),
                r#"{"event":"done","job":1,"hpwl":2.5e0,"iterations":0,"overflow":1e0,"seconds":2.000}"#,
            ),
            (
                failed(1, "gp: diverged", None),
                r#"{"event":"failed","job":1,"error":"gp: diverged"}"#,
            ),
            (
                failed(1, "contained panic: boom", Some(&fault("panic", Some(dump)))),
                concat!(
                    r#"{"event":"failed","job":1,"error":"contained panic: boom","kind":"panic","#,
                    r#""at":"gp:3","attempts":3,"postmortem_path":"t/job-1.postmortem.jsonl"}"#
                ),
            ),
            (
                failed(1, "exceeded its 0.010s deadline", Some(&fault("timeout", None))),
                concat!(
                    r#"{"event":"failed","job":1,"error":"exceeded its 0.010s deadline","#,
                    r#""kind":"timeout","at":"gp:3","attempts":3}"#
                ),
            ),
            (idle_timeout(30.0), r#"{"event":"idle_timeout","seconds":30}"#),
            (idle_timeout(0.5), r#"{"event":"idle_timeout","seconds":0.5}"#),
            (
                bye(&stats, &load),
                concat!(
                    r#"{"event":"bye","completed":1,"failed":2,"rejected":3,"errors":4,"shed":5,"#,
                    r#""retries":6,"uptime_seconds":1.235,"queued_interactive":7,"queued_batch":8,"#,
                    r#""queued_bulk":9,"retry_after_seconds":12.0}"#
                ),
            ),
            (
                postmortem_marker(
                    Some(r#"{"ev":"point","span":4,"name":"panic","detail":"\"t\":1","t":977,"tid":0}"#),
                    "job 0 (a\"b) flight recorder: last 3 of 9 events".into(),
                ),
                concat!(
                    r#"{"ev":"point","span":0,"name":"postmortem","#,
                    r#""detail":"job 0 (a\"b) flight recorder: last 3 of 9 events","t":977,"tid":0}"#
                ),
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
            // Every line reads back through the shared reader, except the
            // one that embeds a nested record.
            assert_eq!(json::parse_flat(&got).is_ok(), !got.contains("\"data\":{"), "{got}");
        }
        assert!(postmortem_marker(None, String::new()).ends_with("\"t\":0,\"tid\":0}"));
    }

    /// `(not JSON, not a request, gated by --chaos, submits, other)` for a
    /// stream of lines.
    fn classify(lines: &[String]) -> [usize; 5] {
        let mut split = [0usize; 5];
        for line in lines {
            split[match parse_request(line.trim()) {
                Err(_) => 0,
                Ok(Request::Bad(_)) => 1,
                Ok(Request::Chaos { .. }) => 2,
                Ok(Request::Submit(spec)) if spec.faults != ServeFaultInjection::default() => 2,
                Ok(Request::Submit(_)) => 3,
                Ok(_) => 4,
            }] += 1;
        }
        split
    }

    #[test]
    fn fuzzed_lines_never_panic_and_split_like_the_daemon_tallies() {
        // The pure half: hostile bytes straight into the parser.
        let lines = crate::gen::fuzz::protocol_lines(0x5eed, 5000);
        let [errors, bad, gated, submits, other] = classify(&lines);
        assert_eq!(errors + bad + gated + submits + other, 5000);
        assert!(errors > 1000 && bad > 500 && submits > 500 && other > 100, "{errors} {bad} {submits} {other}");

        // The same classification must be what a daemon reports for the
        // stream of `tests/serve_faults.rs::fuzz_stream_cannot_kill_the_daemon`.
        let lines = crate::gen::fuzz::protocol_lines(0xfa57, 60);
        let [errors, bad, gated, submits, _] = classify(&lines);
        let mut script = lines.join("\n");
        script.push_str("\n{\"cmd\":\"drain\"}\n");
        let opts = super::super::ServeOptions {
            threads: 1,
            slots: 2,
            queue_cap: 4,
            ..Default::default()
        };
        let mut out = Vec::new();
        let stats = super::super::serve(std::io::Cursor::new(script), &mut out, &opts).unwrap();
        let text = String::from_utf8(out).unwrap();
        let events = |needle: &str| text.lines().filter(|l| l.contains(needle)).count();
        assert_eq!(stats.errors, errors);
        assert_eq!(stats.rejected, bad + gated);
        assert_eq!(
            events("\"event\":\"accepted\"") + events("\"error\":\"queue full\""),
            submits
        );
        // Captured at the parent commit; the reader's completion to the full
        // string grammar moves none of these lines across a boundary.
        assert_eq!((errors, bad + gated, submits), (28, 14, 15));
    }
}
