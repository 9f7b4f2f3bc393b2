//! The daemon workload: drives a real `dreamplace serve` child over stdio.
//!
//! A reader thread stamps every event line with its arrival time and
//! classifies it; the main thread writes requests and folds the stamped
//! events into per-batch timelines. The daemon computes on one thread, so
//! on a 2-vCPU host the reader and this harness have the other core.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dp_telemetry::Telemetry;
use dreamplace_core::{DreamPlacer, Scheduler};

use crate::flow::{bench_diagnostics, peak_rss_mb, Outcome};
use crate::json;
use crate::spec::MetricSet;
use crate::stats;
use crate::workloads::{burst_job, BurstJob, Scale, DAEMON_FLAGS};

/// No single wait for a daemon event may exceed this; a burst takes
/// seconds, so hitting it means the daemon hung.
const EVENT_TIMEOUT: Duration = Duration::from_secs(120);

// ---------------------------------------------------------------------------
// Event lines
// ---------------------------------------------------------------------------

/// What an event line is, as far as the timeline needs to know.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Hello,
    Accepted {
        job: u64,
    },
    /// `state` (flagged), `trace` and `retrying` progress of a job.
    Progress {
        job: u64,
        state: bool,
    },
    Done {
        job: u64,
        hpwl: f64,
        iterations: f64,
        seconds: f64,
    },
    /// Any other terminal event of a job: `failed`, `overloaded`,
    /// `cancelled`.
    Lost {
        job: u64,
        kind: String,
    },
    Status,
    /// The scrape's text exposition.
    Metrics(String),
    Bye {
        completed: f64,
        failed: f64,
        shed: f64,
        rejected: f64,
    },
    /// `rejected`, `error`, an unparsable line, or an `overloaded` with no
    /// job id: something the workload must never provoke.
    Unexpected(String),
    /// `draining` and the like.
    Other,
}

/// The value of `"key":<number>` in a flat event line.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Classifies one event line. `trace` lines are most of the stream (each
/// embeds a raw telemetry record), so they are recognised by prefix and
/// never parsed; only the rare `metrics` event goes through the JSON
/// reader.
pub fn classify(line: &str) -> Event {
    let Some(rest) = line.strip_prefix("{\"event\":\"") else {
        return Event::Unexpected(line.to_string());
    };
    let kind = &rest[..rest.find('"').unwrap_or(rest.len())];
    let job = || number_after(line, "job").map(|j| j as u64);
    let num = |key| number_after(line, key).unwrap_or(f64::NAN);
    match (kind, job()) {
        ("hello", _) => Event::Hello,
        ("accepted", Some(job)) => Event::Accepted { job },
        ("trace" | "retrying", Some(job)) => Event::Progress { job, state: false },
        ("state", Some(job)) => Event::Progress { job, state: true },
        ("done", Some(job)) => Event::Done {
            job,
            hpwl: num("hpwl"),
            iterations: num("iterations"),
            seconds: num("seconds"),
        },
        ("failed" | "overloaded" | "cancelled", Some(job)) => Event::Lost {
            job,
            kind: kind.to_string(),
        },
        ("status", _) => Event::Status,
        ("metrics", _) => match json::parse(line) {
            Ok(v) => Event::Metrics(
                v.get("data")
                    .and_then(json::Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            ),
            Err(e) => Event::Unexpected(format!("unparsable metrics event: {e}")),
        },
        ("bye", _) => Event::Bye {
            completed: num("completed"),
            failed: num("failed"),
            shed: num("shed"),
            rejected: num("rejected"),
        },
        ("rejected" | "error" | "overloaded", _) => Event::Unexpected(line.to_string()),
        _ => Event::Other,
    }
}

/// The value of an unlabelled or labelled sample in a Prometheus text
/// exposition, summed over every series of `name`.
fn scrape_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

// ---------------------------------------------------------------------------
// The daemon child
// ---------------------------------------------------------------------------

struct Stamped {
    at: Instant,
    bytes: usize,
    event: Event,
}

struct Daemon {
    child: Child,
    /// `None` once closed by [`Daemon::drain`].
    stdin: Option<ChildStdin>,
    events: Receiver<Stamped>,
    /// `None` once joined.
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `dreamplace serve` and waits for its `hello`.
    fn spawn(binary: &Path) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .arg("serve")
            .args(DAEMON_FLAGS)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdin = child.stdin.take().ok_or("daemon has no stdin")?;
        let stdout = child.stdout.take().ok_or("daemon has no stdout")?;
        let (tx, events) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::with_capacity(1 << 16, stdout).lines() {
                let Ok(line) = line else { break };
                let stamped = Stamped {
                    at: Instant::now(),
                    bytes: line.len() + 1,
                    event: classify(&line),
                };
                if tx.send(stamped).is_err() {
                    break;
                }
            }
        });
        let mut d = Self {
            child,
            stdin: Some(stdin),
            events,
            reader: Some(reader),
        };
        match d.next()?.event {
            Event::Hello => Ok(d),
            other => Err(format!("daemon greeted with {other:?} instead of hello")),
        }
    }

    fn next(&mut self) -> Result<Stamped, String> {
        self.events
            .recv_timeout(EVENT_TIMEOUT)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => format!("no daemon event for {EVENT_TIMEOUT:?}"),
                RecvTimeoutError::Disconnected => "daemon closed its output".to_string(),
            })
    }

    fn send(&mut self, lines: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon input already closed")?;
        stdin
            .write_all(lines.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the daemon: {e}"))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `drain`, reads up to `bye`, and waits for the child to exit
    /// cleanly. Returns the `bye` event.
    fn drain(mut self) -> Result<Event, String> {
        self.send("{\"cmd\":\"drain\"}\n")?;
        let bye = loop {
            match self.next()?.event {
                bye @ Event::Bye { .. } => break bye,
                Event::Unexpected(line) => return Err(format!("unexpected daemon event: {line}")),
                _ => {}
            }
        };
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "daemon reader thread panicked")?;
        }
        if !status.success() {
            return Err(format!("daemon exited with {status}: {}", stderr.trim()));
        }
        Ok(bye)
    }
}

impl Drop for Daemon {
    /// Error paths must not leave a daemon behind: a child that is still
    /// running here is killed and reaped (a drained one already exited),
    /// which closes its output and so ends the reader thread.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

// ---------------------------------------------------------------------------
// One burst
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct JobLine {
    accepted_s: Option<f64>,
    first_state_s: Option<f64>,
    done_s: Option<f64>,
    terminals: usize,
    lost: Option<String>,
    hpwl: f64,
    iterations: f64,
    busy_s: f64,
}

/// The timeline of one batch: all times are seconds since the first
/// submit byte was written.
#[derive(Debug, Clone, Default)]
struct Batch {
    jobs: Vec<JobLine>,
    makespan_s: f64,
    events: usize,
    bytes: usize,
    status_rtt_ms: Option<f64>,
    scrape_ms: Option<f64>,
    scrape_text: String,
    unexpected: Vec<String>,
}

impl Batch {
    fn latencies(&self, specs: &[BurstJob], qos: &str) -> Vec<f64> {
        self.jobs
            .iter()
            .zip(specs)
            .filter(|(_, s)| s.qos == qos)
            .filter_map(|(j, _)| j.done_s)
            .collect()
    }

    fn sum(&self, f: impl Fn(&JobLine) -> f64) -> f64 {
        self.jobs.iter().map(f).sum()
    }

    /// What is wrong with the batch's outputs, one line per job.
    fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .jobs
            .iter()
            .enumerate()
            .filter_map(|(i, j)| match (&j.lost, j.terminals) {
                (Some(kind), _) => Some(format!("job {i} ended with `{kind}`")),
                (None, 1) => None,
                (None, n) => Some(format!("job {i} has {n} terminal events")),
            })
            .collect();
        out.extend(
            self.unexpected
                .iter()
                .map(|l| format!("unexpected daemon event: {l}")),
        );
        out
    }
}

/// Submits `specs` at once and reads events until each job has a terminal
/// event. With `probe`, a `status` and a `metrics` request are sent once a
/// quarter of the jobs are done, and their round trips are timed.
fn burst(d: &mut Daemon, specs: &[BurstJob], first_job: u64, probe: bool) -> Result<Batch, String> {
    let requests: String = specs.iter().map(|s| s.submit_line() + "\n").collect();
    let mut b = Batch {
        jobs: vec![JobLine::default(); specs.len()],
        ..Batch::default()
    };
    let t0 = Instant::now();
    d.send(&requests)?;
    let (mut finished, mut status_sent, mut scrape_sent) = (0, None, None);
    // A probe still in flight at the last terminal event is waited for: its
    // reply would otherwise leak into the next batch.
    while finished < specs.len() || (probe && (b.status_rtt_ms.is_none() || b.scrape_ms.is_none()))
    {
        let Stamped { at, bytes, event } = d.next()?;
        let now_s = at.duration_since(t0).as_secs_f64();
        b.events += 1;
        b.bytes += bytes;
        let slot = |job: u64| {
            let i = usize::try_from(job.checked_sub(first_job)?).ok()?;
            (i < specs.len()).then_some(i)
        };
        match event {
            Event::Accepted { job } => {
                if let Some(i) = slot(job) {
                    b.jobs[i].accepted_s = Some(now_s);
                }
            }
            Event::Progress { job, state } => {
                if let Some(i) = slot(job).filter(|_| state) {
                    b.jobs[i].first_state_s.get_or_insert(now_s);
                }
            }
            Event::Done {
                job,
                hpwl,
                iterations,
                seconds,
            } => {
                let i = slot(job).ok_or(format!("`done` for job {job} outside the batch"))?;
                let j = &mut b.jobs[i];
                j.terminals += 1;
                j.done_s = Some(now_s);
                (j.hpwl, j.iterations, j.busy_s) = (hpwl, iterations, seconds);
                finished += 1;
                b.makespan_s = now_s;
            }
            Event::Lost { job, kind } => {
                let i = slot(job).ok_or(format!("`{kind}` for job {job} outside the batch"))?;
                b.jobs[i].terminals += 1;
                b.jobs[i].lost = Some(kind);
                finished += 1;
                b.makespan_s = now_s;
            }
            Event::Status => {
                if let Some(sent) = status_sent {
                    b.status_rtt_ms = Some(at.duration_since(sent).as_secs_f64() * 1e3);
                }
            }
            Event::Metrics(text) => {
                if let Some(sent) = scrape_sent {
                    b.scrape_ms = Some(at.duration_since(sent).as_secs_f64() * 1e3);
                }
                b.scrape_text = text;
            }
            Event::Unexpected(line) => b.unexpected.push(line),
            Event::Hello | Event::Bye { .. } | Event::Other => {}
        }
        // One probe at a time, so each round trip is measured alone.
        if probe && finished >= specs.len() / 4 {
            if status_sent.is_none() {
                status_sent = Some(Instant::now());
                d.send("{\"cmd\":\"status\"}\n")?;
            } else if b.status_rtt_ms.is_some() && scrape_sent.is_none() {
                scrape_sent = Some(Instant::now());
                d.send("{\"cmd\":\"metrics\"}\n")?;
            }
        }
    }
    Ok(b)
}

/// A cold start: spawn, `hello`, one `tiny` job to `done`, `drain`,
/// `bye`, exit. Returns its seconds.
fn cold_start(binary: &Path, seed: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut d = Daemon::spawn(binary)?;
    d.send(&format!(
        "{{\"cmd\":\"submit\",\"preset\":\"tiny\",\"seed\":{seed},\"max_iters\":30}}\n"
    ))?;
    loop {
        match d.next()?.event {
            Event::Done { .. } => break,
            Event::Lost { kind, .. } => return Err(format!("cold-start job ended with `{kind}`")),
            Event::Unexpected(line) => return Err(format!("unexpected daemon event: {line}")),
            _ => {}
        }
    }
    d.drain()?;
    Ok(t0.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

/// Where the daemon binary is: next to this executable, because both are
/// built into one target directory.
pub fn daemon_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let dir = exe.parent().ok_or("this executable has no directory")?;
    // Integration tests run from `<target>/<profile>/deps`.
    let dir = if dir.ends_with("deps") {
        dir.parent().unwrap_or(dir)
    } else {
        dir
    };
    Ok(dir.join("dreamplace"))
}

/// Builds the daemon binary with the same cargo, profile and target
/// directory this executable came from. A no-op when it is fresh; run
/// before any timing starts.
pub fn build_daemon() -> Result<PathBuf, String> {
    let binary = daemon_binary()?;
    let profile_dir = binary.parent().ok_or("daemon binary has no directory")?;
    let release = profile_dir.file_name().is_some_and(|n| n == "release");
    let target_dir = profile_dir
        .parent()
        .ok_or("profile directory has no parent")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args([
        "build",
        "--offline",
        "--quiet",
        "-p",
        "dreamplace",
        "--bin",
        "dreamplace",
    ])
    .arg("--target-dir")
    .arg(target_dir)
    .stdout(Stdio::null());
    if release {
        cmd.arg("--release");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("running cargo build for the daemon: {e}"))?;
    if !status.success() || !binary.is_file() {
        return Err(format!("building {} failed ({status})", binary.display()));
    }
    Ok(binary)
}

struct Bursts {
    setup_s: f64,
    warmup: Batch,
    timed: Vec<Batch>,
    specs: Vec<BurstJob>,
    peak_rss_mb: f64,
}

/// Cold starts, then one daemon serving a warm-up batch and the timed
/// batches; checks the outputs into `out`.
fn run_bursts(
    binary: &Path,
    seed: u64,
    scale: Scale,
    repeats: usize,
    seconds: f64,
    probe_last: bool,
    out: &mut Outcome,
) -> Result<Bursts, String> {
    let mut setup_s = f64::INFINITY;
    for _ in 0..scale.setup_repeats() {
        setup_s = setup_s.min(cold_start(binary, seed)?);
    }
    let specs: Vec<BurstJob> = (0..scale.burst_jobs())
        .map(|i| burst_job(i, seed, scale))
        .collect();
    let n = specs.len() as u64;
    let mut d = Daemon::spawn(binary)?;
    let warmup = burst(&mut d, &specs, 0, false)?;
    let mut timed = Vec::new();
    let started = Instant::now();
    while timed.len() < repeats || started.elapsed().as_secs_f64() < seconds {
        let probe = probe_last && timed.len() + 1 == repeats;
        timed.push(burst(&mut d, &specs, n * (timed.len() as u64 + 1), probe)?);
    }
    let peak = peak_rss_mb(&d.pid()).ok_or("cannot read VmHWM of the daemon")?;
    let bye = d.drain()?;

    // Output checks.
    let batches = || std::iter::once(&warmup).chain(&timed);
    let hpwl0 = warmup.sum(|j| j.hpwl);
    for (k, b) in batches().enumerate() {
        let failures = b.failures();
        out.attempted += b.jobs.len();
        out.failed += failures.len().min(b.jobs.len());
        out.check_failures
            .extend(failures.into_iter().map(|f| format!("batch {k}: {f}")));
        let hpwl = b.sum(|j| j.hpwl);
        if hpwl.to_bits() != hpwl0.to_bits() {
            out.fail(format!(
                "batch {k}: sum of HPWL {hpwl:e} differs from the warm-up batch's {hpwl0:e}"
            ));
        }
    }
    let served = (n as usize * batches().count()) as f64;
    match bye {
        Event::Bye {
            completed,
            failed,
            shed,
            rejected,
        } if completed == served && failed == 0.0 && shed == 0.0 && rejected == 0.0 => {}
        other => out.fail(format!(
            "daemon said {other:?}, expected {served} completed and nothing lost"
        )),
    }
    Ok(Bursts {
        setup_s,
        warmup,
        timed,
        specs,
        peak_rss_mb: peak,
    })
}

/// The end-to-end run of `serve_burst`.
pub fn run(seed: u64, scale: Scale, seconds: f64) -> Result<Outcome, String> {
    let binary = build_daemon()?;
    let mut out = Outcome::new(MetricSet::end_to_end());
    let b = run_bursts(
        &binary,
        seed,
        scale,
        scale.burst_repeats(),
        seconds,
        false,
        &mut out,
    )?;
    let makespans: Vec<f64> = b.timed.iter().map(|t| t.makespan_s).collect();
    let p50s: Vec<f64> = b
        .timed
        .iter()
        .map(|t| stats::median(&t.latencies(&b.specs, "interactive")))
        .collect();
    let m = &mut out.metrics;
    m.set("setup_s", b.setup_s);
    m.set("wall_s", stats::min(&makespans));
    m.set("interactive_p50_s", stats::min(&p50s));
    m.set("hpwl", b.warmup.sum(|j| j.hpwl));
    m.set("gp_iters", b.warmup.sum(|j| j.iterations));
    m.set("peak_rss_mb", b.peak_rss_mb);
    out.diagnostics = bench_diagnostics(b.warmup.makespan_s, &makespans).to_vec();
    out.notes.push(format!(
        "{} jobs per batch, {} timed batches after 1 warm-up; makespans {:?}; interactive p50 {:?}",
        b.specs.len(),
        b.timed.len(),
        makespans
            .iter()
            .map(|x| (x * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        p50s.iter()
            .map(|x| (x * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    Ok(out)
}

/// Scheduling overhead: eight of the burst's jobs through an in-process
/// `Scheduler::run_all` against the same eight placed one after another,
/// as a percentage of the sequential time.
fn sched_overhead_pct(seed: u64, scale: Scale) -> Result<f64, String> {
    let jobs: Vec<_> = (0..scale.burst_jobs().min(8))
        .map(|i| {
            let job = burst_job(i, seed, scale);
            let design = job
                .generator()
                .generate::<f64>()
                .map_err(|e| e.to_string())?;
            Ok((job, Arc::new(design)))
        })
        .collect::<Result<_, String>>()?;
    let t = Instant::now();
    for (job, design) in &jobs {
        DreamPlacer::new(job.flow_config(design, 1))
            .place(design)
            .map_err(|e| format!("sequential placement failed: {e}"))?;
    }
    let sequential = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut sched = Scheduler::<f64>::with_threads(1);
    let ids: Vec<_> = jobs
        .iter()
        .map(|(job, design)| {
            sched.submit(
                job.flow_config(design, 1),
                Arc::clone(design),
                Telemetry::disabled(),
                None,
            )
        })
        .collect();
    sched.run_all();
    let scheduled = t.elapsed().as_secs_f64();
    for id in ids {
        if !matches!(sched.take_result(id), Some(Ok(_))) {
            return Err(format!("scheduled job {id:?} did not complete"));
        }
    }
    Ok((scheduled - sequential) / sequential * 100.0)
}

/// The daemon half of the traced pass: fills `serve.*` and
/// `core.sched_overhead_pct` into `out.metrics`.
pub fn trace(seed: u64, scale: Scale, out: &mut Outcome) -> Result<(), String> {
    let binary = build_daemon()?;
    let repeats = if scale.smoke { 1 } else { 2 };
    let b = run_bursts(&binary, seed, scale, repeats, 0.0, true, out)?;
    let best = b
        .timed
        .iter()
        .min_by(|a, b| a.makespan_s.total_cmp(&b.makespan_s))
        .ok_or("no timed batch")?;
    let probed = b.timed.last().ok_or("no timed batch")?;
    let jobs = best.jobs.len() as f64;
    let waits: Vec<f64> = best
        .jobs
        .iter()
        .filter_map(|j| Some(j.first_state_s? - j.accepted_s?))
        .collect();
    let m = &mut out.metrics;
    m.set("serve.queue_wait_p50_s", stats::median(&waits));
    m.set(
        "serve.interactive_p90_s",
        stats::quantile(&best.latencies(&b.specs, "interactive"), 0.9),
    );
    m.set(
        "serve.batch_p50_s",
        stats::median(&best.latencies(&b.specs, "batch")),
    );
    m.set(
        "serve.bulk_p50_s",
        stats::median(&best.latencies(&b.specs, "bulk")),
    );
    m.set("serve.placements_per_hour", jobs / best.makespan_s * 3600.0);
    m.set("serve.busy_share", best.sum(|j| j.busy_s) / best.makespan_s);
    m.set("serve.events_per_job", best.events as f64 / jobs);
    m.set("serve.bytes_per_job", best.bytes as f64 / jobs);
    m.set(
        "serve.stream_mb_s",
        best.bytes as f64 / best.makespan_s / 1e6,
    );
    m.set(
        "serve.status_rtt_ms",
        probed.status_rtt_ms.ok_or("status probe got no reply")?,
    );
    m.set(
        "serve.metrics_scrape_ms",
        probed.scrape_ms.ok_or("metrics probe got no reply")?,
    );
    m.set(
        "serve.sched_turns",
        scrape_total(&probed.scrape_text, "dp_sched_turns_total"),
    );
    m.set(
        "serve.pool_launches",
        scrape_total(&probed.scrape_text, "dp_pool_launches_total"),
    );
    m.set("core.sched_overhead_pct", sched_overhead_pct(seed, scale)?);
    out.notes.push(format!(
        "daemon trace: {} timed batches, best makespan {:.4} s, cold start {:.4} s, daemon peak RSS {:.1} MiB",
        b.timed.len(),
        best.makespan_s,
        b.setup_s,
        b.peak_rss_mb
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_reads_every_event_kind() {
        assert_eq!(
            classify(r#"{"event":"hello","threads":1,"slots":4,"session":0,"queue_cap":256}"#),
            Event::Hello
        );
        assert_eq!(
            classify(r#"{"event":"accepted","job":12,"name":"small-7","qos":"batch"}"#),
            Event::Accepted { job: 12 }
        );
        assert_eq!(
            classify(r#"{"event":"state","job":3,"state":"gp:12"}"#),
            Event::Progress {
                job: 3,
                state: true
            }
        );
        // A trace line embeds a record with its own "job"-free fields and is
        // never parsed past the prefix.
        assert_eq!(
            classify(
                r#"{"event":"trace","job":5,"data":{"ev":"iter","hpwl":1.5e3,"event":"done"}}"#
            ),
            Event::Progress {
                job: 5,
                state: false
            }
        );
        assert_eq!(
            classify(
                r#"{"event":"done","job":0,"hpwl":1.709475938240323e3,"iterations":30,"overflow":4.44e-1,"seconds":0.006}"#
            ),
            Event::Done {
                job: 0,
                hpwl: 1.709475938240323e3,
                iterations: 30.0,
                seconds: 0.006
            }
        );
        assert_eq!(
            classify(
                r#"{"event":"failed","job":1,"error":"boom","kind":"panic","at":"gp:3","attempts":3}"#
            ),
            Event::Lost {
                job: 1,
                kind: "failed".into()
            }
        );
        assert_eq!(
            classify(
                r#"{"event":"overloaded","job":3,"qos":"bulk","retry_after_seconds":12.0,"error":"shed"}"#
            ),
            Event::Lost {
                job: 3,
                kind: "overloaded".into()
            }
        );
        assert_eq!(
            classify(
                r#"{"event":"bye","completed":160,"failed":0,"rejected":0,"errors":0,"shed":0,"retries":0}"#
            ),
            Event::Bye {
                completed: 160.0,
                failed: 0.0,
                shed: 0.0,
                rejected: 0.0
            }
        );
        assert_eq!(
            classify(r#"{"event":"status","uptime_seconds":0.001,"slots":4}"#),
            Event::Status
        );
        assert_eq!(classify(r#"{"event":"draining"}"#), Event::Other);
    }

    #[test]
    fn classifier_flags_what_the_workload_must_never_see() {
        for line in [
            r#"{"event":"rejected","error":"unknown preset"}"#,
            r#"{"event":"error","line":4,"error":"malformed request"}"#,
            r#"{"event":"overloaded","qos":"bulk","queued":256,"retry_after_seconds":1.0,"error":"queue full"}"#,
            "not json at all",
        ] {
            assert!(matches!(classify(line), Event::Unexpected(_)), "{line}");
        }
    }

    #[test]
    fn metrics_event_yields_the_exposition_text() {
        let line = r##"{"event":"metrics","data":"# TYPE dp_pool_launches_total counter\ndp_pool_launches_total 41\ndp_sched_turns_total{kind=\"busy\"} 7\ndp_sched_turns_total{kind=\"idle\"} 2\ndp_sched_turns_totalx 100\n"}"##;
        let Event::Metrics(text) = classify(line) else {
            panic!("not a metrics event");
        };
        assert_eq!(scrape_total(&text, "dp_pool_launches_total"), 41.0);
        assert_eq!(scrape_total(&text, "dp_sched_turns_total"), 9.0);
        assert_eq!(scrape_total(&text, "dp_missing"), 0.0);
    }

    #[test]
    fn batch_failures_name_lost_and_duplicated_jobs() {
        let ok = JobLine {
            terminals: 1,
            ..JobLine::default()
        };
        let b = Batch {
            jobs: vec![
                ok.clone(),
                JobLine {
                    terminals: 1,
                    lost: Some("failed".into()),
                    ..JobLine::default()
                },
                JobLine {
                    terminals: 2,
                    ..JobLine::default()
                },
            ],
            unexpected: vec!["x".into()],
            ..Batch::default()
        };
        assert_eq!(
            b.failures(),
            vec![
                "job 1 ended with `failed`",
                "job 2 has 2 terminal events",
                "unexpected daemon event: x"
            ]
        );
    }
}
