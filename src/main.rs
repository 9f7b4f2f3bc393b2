//! The `dreamplace` command-line placer.
//!
//! ```text
//! dreamplace place  <design.aux> [--out DIR] [--mode replace|cpu|gpu]
//!                   [--threads N] [--overflow F] [--svg FILE] [--no-dp]
//!                   [--trace FILE]
//!                   [--checkpoint-dir DIR] [--checkpoint-every N]
//!                   [--resume DIR | --resume-or-restart DIR] [--die-at STATE]
//! dreamplace gen    <cells> [--nets N] [--seed S] [--out DIR] [--name NAME]
//! dreamplace stats  <design.aux>
//! dreamplace serve  [--threads N] [--jobs N] [--trace-dir DIR]
//!                   [--queue-cap N] [--max-attempts N] [--backoff SECS]
//!                   [--idle-timeout SECS] [--on-disconnect detach|cancel]
//!                   [--chaos] [--listen ADDR [--once]]
//!                   [--metrics-listen ADDR]
//! dreamplace fuzz-lines [--seed S] [--count N]
//! dreamplace trace-check <trace.jsonl>
//! dreamplace checkpoint-check <flow.ckpt|DIR>
//! dreamplace metrics-dump [--cells N] [--nets N] [--seed S] [--threads N]
//!                   [--max-iters N] [--overflow F]
//! ```
//!
//! Each command accepts only the flags listed for it; any other flag is
//! refused with exit code 2 before the command does any work.
//!
//! `place` runs DREAMPlace-CPU (`--mode cpu`) on `--threads` workers
//! (default: `DP_THREADS`, else every core). `--mode gpu` and `--mode
//! replace` are the paper's comparison tiers; `gpu` always runs every core.
//!
//! `--trace` enables telemetry for the run: the flow writes a JSONL trace
//! (schema in `dp_telemetry::jsonl`) to FILE and prints the end-of-run
//! report. A failed run still writes the partial trace and report before
//! exiting non-zero. `trace-check` validates a trace against the schema
//! (balanced spans, per-thread monotone timestamps) via `dp-check`.
//!
//! `serve` starts the `dp-serve` daemon: a line-delimited JSON job queue
//! (protocol in `dreamplace::serve`) over stdio, or over TCP with
//! `--listen ADDR` (every connection is its own session; `--once` exits
//! after the first client is done). Up to `--jobs` flows share one
//! `--threads`-wide worker pool via the round-robin scheduler;
//! `--trace-dir` persists each job's JSONL trace as `job-N.jsonl` for
//! `trace-check`. Panicked and timed-out jobs are contained and retried
//! from their last checkpoint (`--max-attempts`, `--backoff`); admission
//! queues are bounded (`--queue-cap`) with lowest-priority-first shedding;
//! idle sessions close after `--idle-timeout` seconds, and a disconnected
//! client's jobs are detached or cancelled per `--on-disconnect`.
//! `--chaos` unlocks deterministic fault injection in requests
//! (`chaos_panic_at`, `chaos_stall_at`, `chaos_no_checkpoint`,
//! `{"cmd":"chaos","drop_after_events":N}`); `fuzz-lines` prints a seeded
//! stream of valid/malformed protocol lines for robustness testing.
//! `--metrics-listen ADDR` additionally serves the daemon's Prometheus
//! text exposition over TCP (the same payload a `{"cmd":"metrics"}`
//! request returns in-protocol); `metrics-dump` runs one generated design
//! through the scheduler with metrics on and prints the exposition, for
//! eyeballing series names without standing up a daemon.
//!
//! `--checkpoint-dir` makes the run durable: the flow writes an atomic
//! checkpoint at every stage boundary, every `--checkpoint-every` GP
//! iterations (default 50), and every completed DP round. `--resume DIR`
//! continues a killed run from its last checkpoint and fails if the
//! checkpoint is unusable; `--resume-or-restart DIR` logs the diagnosis
//! and starts fresh instead. `--die-at gp:40` (etc.) injects a crash for
//! testing. `checkpoint-check` validates a checkpoint file with the
//! independent `dp-check` reader (own tokenizer, own CRC).

use std::path::PathBuf;
use std::process::ExitCode;

use dreamplace::bookshelf::{read_design, write_design};
use dreamplace::gen::{GeneratedDesign, GeneratorConfig};
use dreamplace::netlist::Netlist;
use dreamplace::viz::{write_svg, SvgOptions};
use dreamplace::{DreamPlacer, FlowConfig, ToolMode};

fn usage() -> ExitCode {
    eprintln!(
        "dreamplace — analytical VLSI placement (DREAMPlace reproduction)\n\n\
         USAGE:\n  dreamplace place <design.aux> [--out DIR] [--mode replace|cpu|gpu]\n\
         \x20                 [--threads N] [--overflow F] [--svg FILE] [--no-dp]\n\
         \x20                 [--trace FILE]\n\
         \x20                 [--checkpoint-dir DIR] [--checkpoint-every N]\n\
         \x20                 [--resume DIR | --resume-or-restart DIR] [--die-at STATE]\n\
         \x20 dreamplace gen <cells> [--nets N] [--seed S] [--out DIR] [--name NAME]\n\
         \x20 dreamplace stats <design.aux>\n\
         \x20 dreamplace serve [--threads N] [--jobs N] [--trace-dir DIR] [--queue-cap N]\n\
         \x20                 [--max-attempts N] [--backoff SECS] [--idle-timeout SECS]\n\
         \x20                 [--on-disconnect detach|cancel] [--chaos] [--listen ADDR [--once]]\n\
         \x20                 [--metrics-listen ADDR]\n\
         \x20 dreamplace fuzz-lines [--seed S] [--count N]\n\
         \x20 dreamplace trace-check <trace.jsonl>\n\
         \x20 dreamplace checkpoint-check <flow.ckpt|DIR>\n\
         \x20 dreamplace metrics-dump [--cells N] [--nets N] [--seed S] [--threads N]\n\
         \x20                 [--max-iters N] [--overflow F]"
    );
    ExitCode::from(2)
}

/// A command's entry point.
type Command = fn(&Args) -> Result<(), String>;

/// Every command with the one list of flags it reads. `main` refuses any
/// other flag before the command starts.
const COMMANDS: [(&str, &[&str], Command); 8] = [
    ("place", &[
        "out", "mode", "threads", "overflow", "svg", "no-dp", "trace", "checkpoint-dir",
        "checkpoint-every", "resume", "resume-or-restart", "die-at",
    ], cmd_place),
    ("gen", &["nets", "seed", "out", "name"], cmd_gen),
    ("stats", &[], cmd_stats),
    ("serve", &[
        "threads", "jobs", "trace-dir", "queue-cap", "max-attempts", "backoff", "idle-timeout",
        "on-disconnect", "chaos", "listen", "once", "metrics-listen",
    ], cmd_serve),
    ("fuzz-lines", &["seed", "count"], cmd_fuzz_lines),
    ("trace-check", &[], cmd_trace_check),
    ("checkpoint-check", &[], cmd_checkpoint_check),
    ("metrics-dump", &[
        "cells", "nets", "seed", "threads", "max-iters", "overflow",
    ], cmd_metrics_dump),
];

/// Minimal flag parser: positional arguments plus `--key value` / `--flag`.
struct Args {
    positional: Vec<String>,
    flags: std::collections::BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut positional = Vec::new();
        let mut flags = std::collections::BTreeMap::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match raw.peek() {
                    Some(v) if !v.starts_with("--") => raw.next().unwrap_or_default(),
                    _ => "true".to_string(),
                };
                flags.insert(key.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Self { positional, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        return usage();
    };
    let Some((_, known, run)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return usage();
    };
    let args = Args::parse(argv);
    if let Some(flag) = args.flags.keys().find(|f| !known.contains(&f.as_str())) {
        eprintln!("error: `{command}` has no flag --{flag}\n");
        return usage();
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(aux: &str) -> Result<GeneratedDesign<f64>, String> {
    let parsed = read_design::<f64>(&PathBuf::from(aux)).map_err(|e| e.to_string())?;
    Ok(GeneratedDesign {
        name: parsed.name,
        netlist: parsed.netlist,
        fixed_positions: parsed.positions,
    })
}

fn print_stats(nl: &Netlist<f64>) {
    let s = nl.stats();
    println!("cells       {}", s.num_cells);
    println!("movable     {}", s.num_movable);
    println!("nets        {}", s.num_nets);
    println!("pins        {}", s.num_pins);
    println!("avg degree  {:.2}", s.avg_net_degree);
    println!("utilization {:.3}", s.utilization);
    let r = nl.region();
    println!("region      {} x {}", r.width(), r.height());
    if let Some(rows) = nl.rows() {
        println!(
            "rows        {} (height {})",
            rows.rows().len(),
            rows.row_height()
        );
    }
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let aux = args.positional.first().ok_or("missing <design.aux>")?;
    let design = load(aux)?;
    print_stats(&design.netlist);
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let cells: usize = args
        .positional
        .first()
        .ok_or("missing <cells>")?
        .parse()
        .map_err(|_| "invalid cell count")?;
    let nets = args.get_parse("nets", cells + cells / 20)?;
    let seed = args.get_parse("seed", 1u64)?;
    let name = args.get("name").unwrap_or("generated").to_string();
    let out = PathBuf::from(args.get("out").unwrap_or("."));
    let design = GeneratorConfig::new(name.clone(), cells, nets)
        .with_seed(seed)
        .generate::<f64>()
        .map_err(|e| e.to_string())?;
    write_design(&out, &name, &design.netlist, &design.fixed_positions)
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {}/{}.aux ({} cells, {} nets)",
        out.display(),
        name,
        cells,
        nets
    );
    Ok(())
}

/// Writes the JSONL trace (when requested) and prints the run report.
/// Used on both the success and the failure path so a failed run still
/// leaves a partial trace behind for diagnosis.
fn finish_trace(
    telemetry: &dreamplace::telemetry::Telemetry,
    trace_path: Option<&PathBuf>,
) -> Result<(), String> {
    let Some(path) = trace_path else {
        return Ok(());
    };
    let events = telemetry
        .save_jsonl(path)
        .map_err(|e| format!("writing trace {}: {e}", path.display()))?;
    println!("wrote {} trace events to {}", events, path.display());
    if let Some(report) = telemetry.report() {
        println!("\n{}", report.render());
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let defaults = dreamplace::serve::ServeOptions::default();
    let opts = dreamplace::serve::ServeOptions {
        threads: args.get_parse("threads", defaults.threads)?,
        slots: args.get_parse("jobs", defaults.slots)?,
        trace_dir: args.get("trace-dir").map(PathBuf::from),
        queue_cap: args.get_parse("queue-cap", defaults.queue_cap)?,
        retry: dreamplace::RetryPolicy {
            max_attempts: args
                .get_parse("max-attempts", defaults.retry.max_attempts)?
                .max(1),
            backoff_seconds: args.get_parse("backoff", defaults.retry.backoff_seconds)?,
            conservative_final: defaults.retry.conservative_final,
        },
        allow_chaos: args.get("chaos").is_some(),
        idle_timeout: match args.get("idle-timeout") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --idle-timeout: {v}"))?,
            ),
        },
        on_disconnect: match args.get("on-disconnect") {
            None => defaults.on_disconnect,
            Some("detach") => dreamplace::serve::DisconnectPolicy::Detach,
            Some("cancel") => dreamplace::serve::DisconnectPolicy::Cancel,
            Some(other) => {
                return Err(format!(
                    "unknown --on-disconnect {other} (want detach|cancel)"
                ))
            }
        },
        metrics_listen: args.get("metrics-listen").map(str::to_string),
    };
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let report = |stats: dreamplace::serve::ServeStats| {
        eprintln!(
            "daemon done: {} completed, {} failed, {} rejected, {} malformed, {} shed, {} retries",
            stats.completed, stats.failed, stats.rejected, stats.errors, stats.shed, stats.retries
        );
    };
    match args.get("listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("binding {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!("dp-serve listening on {local}");
            report(dreamplace::serve::serve_tcp(
                listener,
                &opts,
                args.get("once").is_some(),
            )?);
            Ok(())
        }
        None => {
            let reader = std::io::BufReader::new(std::io::stdin());
            let mut writer = std::io::stdout();
            report(dreamplace::serve::serve(reader, &mut writer, &opts)?);
            Ok(())
        }
    }
}

/// Prints `--count` seeded protocol lines (valid, malformed, and hostile)
/// for fuzzing the dp-serve request parser; same seed, same lines.
fn cmd_fuzz_lines(args: &Args) -> Result<(), String> {
    let seed = args.get_parse("seed", 1u64)?;
    let count = args.get_parse("count", 100usize)?;
    for line in dreamplace::gen::fuzz::protocol_lines(seed, count) {
        println!("{line}");
    }
    Ok(())
}

fn cmd_trace_check(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("missing <trace.jsonl>")?;
    // Flight-recorder dumps (`job-N.postmortem.jsonl`) carry the stricter
    // postmortem contract (bounded length, terminal marker last) on top of
    // the trace schema, so they get the dedicated validator.
    if path.ends_with(".postmortem.jsonl") {
        let s = dreamplace::check::validate_postmortem_file(&PathBuf::from(path))
            .map_err(|e| e.to_string())?;
        println!(
            "{path}: ok — postmortem of {} events ({} panics, {} timeouts, {} retries)",
            s.lines - 1,
            s.panics,
            s.timeouts,
            s.retries,
        );
        return Ok(());
    }
    let s = dreamplace::check::validate_file(&PathBuf::from(path)).map_err(|e| e.to_string())?;
    println!(
        "{path}: ok — {} events ({} spans, {} iterations, {} points of which {} degradations, \
         {} resumes, {} retries, {} panics and {} timeouts, {} kernels, {} workers, \
         {} workspaces, {} meta)",
        s.lines, s.spans, s.iters, s.points, s.degradations, s.resumes, s.retries, s.panics,
        s.timeouts, s.kernels, s.workers, s.workspaces, s.metas
    );
    Ok(())
}

/// Runs one generated design through the scheduler with metrics enabled
/// and prints the Prometheus-style exposition: a one-shot way to see the
/// scheduler/pool series (names, labels, buckets) without a daemon.
fn cmd_metrics_dump(args: &Args) -> Result<(), String> {
    use dreamplace::telemetry::Telemetry;
    let cells = args.get_parse("cells", 420usize)?;
    let nets = args.get_parse("nets", cells + cells / 10)?;
    let seed = args.get_parse("seed", 71u64)?;
    let threads = args.get_parse("threads", 2usize)?;
    let design = std::sync::Arc::new(
        GeneratorConfig::new(format!("metrics-dump-{cells}"), cells, nets)
            .with_seed(seed)
            .generate::<f64>()
            .map_err(|e| e.to_string())?,
    );
    let mut config = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads }, &design.netlist);
    config.gp.max_iters = args.get_parse("max-iters", 300usize)?;
    config.gp.target_overflow = args.get_parse("overflow", 0.12)?;
    let mut sched = dreamplace::Scheduler::with_threads(threads);
    let id = sched.submit(config, design, Telemetry::disabled(), None);
    loop {
        sched.step_round();
        match sched.status(id) {
            Some(dreamplace::JobStatus::Running { .. })
            | Some(dreamplace::JobStatus::Retrying { .. }) => continue,
            _ => break,
        }
    }
    match sched.take_outcome(id) {
        Some(dreamplace::JobOutcome::Completed(r)) => {
            eprintln!(
                "placed {cells} cells in {:.2}s (HPWL {:.6e})",
                r.timing.total, r.hpwl_final
            );
        }
        Some(dreamplace::JobOutcome::Failed(e)) => {
            eprintln!("warning: job failed: {}", e.diagnosis());
        }
        _ => eprintln!("warning: job ended without a placement"),
    }
    sched.health(); // refresh the pool gauges before the render
    print!("{}", sched.metrics().render());
    Ok(())
}

fn cmd_checkpoint_check(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("missing <flow.ckpt|DIR>")?;
    let s = dreamplace::check::validate_checkpoint_file(&PathBuf::from(path))
        .map_err(|e| e.to_string())?;
    println!(
        "{path}: ok — v{} {} checkpoint for {:?} ({} cells / {} movable / {} nets), \
         {} records, {} floats, {} degradations{}",
        s.version,
        s.stage,
        s.name,
        s.cells,
        s.movable,
        s.nets,
        s.records,
        s.floats,
        s.degradations,
        match s.gp_next_iteration {
            Some(k) => format!(", next gp iteration {k}"),
            None => String::new(),
        },
    );
    Ok(())
}

/// Parses the durable-run flags into `(resume data, policy, faults)`.
#[allow(clippy::type_complexity)]
fn durable_options(
    args: &Args,
) -> Result<
    (
        Option<dreamplace::CheckpointData<f64>>,
        Option<dreamplace::CheckpointPolicy>,
        dreamplace::FlowFaultInjection,
    ),
    String,
> {
    if args.get("resume").is_some() && args.get("resume-or-restart").is_some() {
        return Err("--resume and --resume-or-restart are mutually exclusive".into());
    }
    let resume_dir = args.get("resume").or_else(|| args.get("resume-or-restart"));
    let resume_from = match resume_dir {
        None => None,
        Some(dir) => match dreamplace::read_checkpoint::<f64>(&PathBuf::from(dir)) {
            Ok(data) => Some(data),
            Err(e) if args.get("resume-or-restart").is_some() => {
                eprintln!("warning: checkpoint unusable, restarting fresh: {e}");
                None
            }
            Err(e) => return Err(format!("checkpoint: {e}")),
        },
    };
    // Checkpointing continues into the resume directory unless overridden.
    let ckpt_dir = args.get("checkpoint-dir").or(resume_dir);
    let every = args.get_parse("checkpoint-every", 50usize)?;
    let policy = ckpt_dir.map(|d| dreamplace::CheckpointPolicy::new(d).every(every));
    let faults = match args.get("die-at") {
        None => dreamplace::FlowFaultInjection::default(),
        Some(s) => dreamplace::FlowFaultInjection::die_at(
            dreamplace::FlowState::parse(s).ok_or_else(|| {
                format!("invalid value for --die-at: {s} (want init|sanitize|gp:K|lg|dp:K|finish)")
            })?,
        ),
    };
    Ok((resume_from, policy, faults))
}

fn cmd_place(args: &Args) -> Result<(), String> {
    let aux = args.positional.first().ok_or("missing <design.aux>")?;
    let design = load(aux)?;
    print_stats(&design.netlist);

    let threads: usize = args.get_parse("threads", dreamplace::num::default_threads())?;
    let mode = match args.get("mode").unwrap_or("cpu") {
        "replace" => ToolMode::ReplaceBaseline { threads },
        "cpu" => ToolMode::DreamplaceCpu { threads },
        "gpu" => ToolMode::DreamplaceGpuSim,
        other => return Err(format!("unknown mode {other}")),
    };
    let mut config = FlowConfig::for_mode(mode, &design.netlist);
    config.gp.target_overflow = args.get_parse("overflow", 0.07)?;
    config.run_dp = args.get("no-dp").is_none();
    let trace_path = args.get("trace").map(PathBuf::from);
    let telemetry = if trace_path.is_some() {
        dreamplace::telemetry::Telemetry::enabled()
    } else {
        dreamplace::telemetry::Telemetry::disabled()
    };
    config.telemetry = telemetry.clone();

    let (resume_from, policy, faults) = durable_options(args)?;
    let resumed = resume_from.is_some();

    println!("\nplacing with {} ...", mode.label());
    let outcome = match DreamPlacer::new(config).place_durable(
        &design,
        resume_from,
        policy.as_ref(),
        faults,
    ) {
        Ok(o) => o,
        Err(e) => {
            // A failed run still emits its partial trace and report: the
            // spans are RAII so the trace is balanced up to the failure,
            // and the report's timeline shows what degraded on the way.
            if let Err(trace_err) = finish_trace(&telemetry, trace_path.as_ref()) {
                eprintln!("warning: {trace_err}");
            }
            return Err(e.diagnosis());
        }
    };
    let result = match outcome {
        dreamplace::DurableOutcome::Completed(r) => *r,
        dreamplace::DurableOutcome::Killed { at } => {
            // Injected crash (--die-at): the last durable checkpoint is on
            // disk; a later `--resume` continues from it. Exit cleanly so
            // crash-test scripts can chain the resume step.
            finish_trace(&telemetry, trace_path.as_ref())?;
            match &policy {
                Some(p) => println!(
                    "killed before {at} (fault injection); resume with --resume {}",
                    p.dir.display()
                ),
                None => println!("killed before {at} (fault injection); no checkpoint dir"),
            }
            return Ok(());
        }
    };
    if resumed {
        println!("(resumed from checkpoint)");
    }
    println!(
        "GP {:.2}s ({} iters, overflow {:.3}) | LG {:.2}s | DP {:.2}s | total {:.2}s",
        result.timing.gp,
        result.gp.iterations,
        result.gp.final_overflow,
        result.timing.lg,
        result.timing.dp,
        result.timing.total
    );
    let (evals, steps) = (result.gp.evals, result.gp.iterations.max(1) as f64);
    println!(
        "GP health: {:.2} evals/step ({} points for {} objective calls, {} memo hits), \
         {:.2} backtracks/step, {} rollbacks",
        evals.wl_evals as f64 / steps,
        evals.wl_evals,
        evals.objective_evals,
        evals.memo_hits(),
        evals.backtracks as f64 / steps,
        result.gp.recoveries,
    );
    println!("HPWL {:.6e}", result.hpwl_final);
    if !result.sanitize.is_clean() {
        println!("sanitizer: {}", result.sanitize);
    }
    if !result.degradations.is_clean() {
        println!("degraded: {}", result.degradations);
    }
    finish_trace(&telemetry, trace_path.as_ref())?;

    let out = PathBuf::from(args.get("out").unwrap_or("."));
    write_design(
        &out,
        &format!("{}-placed", design.name),
        &design.netlist,
        &result.placement,
    )
    .map_err(|e| e.to_string())?;
    println!("wrote {}/{}-placed.pl", out.display(), design.name);

    if let Some(svg) = args.get("svg") {
        write_svg(
            &PathBuf::from(svg),
            &design.netlist,
            &result.placement,
            &SvgOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        println!("wrote {svg}");
    }
    Ok(())
}
