//! `dp-perf`: the repository's performance benchmark.
//!
//! ```text
//! dp-perf run   [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! dp-perf trace [--workload W] [--seed S] [--smoke]
//! dp-perf aa    [--sets 2] [--runs N] [--seed S] [--workload W] [--out FILE] [--smoke]
//! ```
//!
//! `run` measures the end-to-end metrics of a workload (every workload
//! when none is named) with telemetry disabled, checks the outputs, and
//! prints one JSON object as its last line. `trace` (or `run --trace 1`)
//! is the separate traced pass that reports the per-layer metrics. `aa`
//! runs the benchmark as interleaved sets of the same code and says
//! whether they agree within the bounds. See `README.md` beside this
//! crate for the metric dictionary and the noise study behind the
//! estimator.

pub mod aa;
pub mod flow;
pub mod json;
pub mod serve;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use flow::Outcome;
use spec::{Metric, MetricSet};
use workloads::{Scale, Workload, DAEMON_FLAGS};

/// Default workload seed (the committed converged-golden design's).
const DEFAULT_SEED: u64 = 77;
/// `bench.noise_pct` above this draws a warning: the host was not quiet.
const NOISY_PCT: f64 = 5.0;

/// Parsed command line: a subcommand and `--key value` options
/// (`--smoke` takes no value).
struct Args {
    command: String,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let command = argv
            .first()
            .cloned()
            .ok_or("missing subcommand (run | trace | aa)")?;
        let mut options = Vec::new();
        let mut it = argv[1..].iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or(format!("unexpected argument `{arg}`"))?;
            let value = if key == "smoke" {
                "1".to_string()
            } else {
                it.next()
                    .cloned()
                    .ok_or(format!("`--{key}` needs a value"))?
            };
            options.push((key.to_string(), value));
        }
        Ok(Self { command, options })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{key} {v}` is not a valid number")),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("workload") {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::parse(name)
                .map(|w| vec![w])
                .ok_or(format!("unknown workload `{name}`")),
        }
    }

    fn scale(&self) -> Scale {
        Scale {
            smoke: self.get("smoke").is_some(),
        }
    }
}

/// `<target dir>/perf`: where spans, scratch designs and A/A output go.
/// Derived from this executable's path so it follows `CARGO_TARGET_DIR`.
fn out_dir() -> Result<PathBuf, String> {
    let binary = serve::daemon_binary()?;
    let target = binary
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable is not in a target directory")?;
    Ok(target.join("perf"))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host fingerprint that starts every report.
pub fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", tool_line("rustc", &["--version"])),
        ("git", tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ("seed", seed.to_string()),
        ("threads", "1".to_string()),
        ("daemon", format!("serve {}", DAEMON_FLAGS.join(" "))),
    ]
}

/// The fingerprint as `key="value"` pairs on one line.
pub fn fingerprint_line(seed: u64) -> String {
    let pairs: Vec<String> = fingerprint(seed)
        .iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    pairs.join(" ")
}

/// Prints a number with all the digits it was measured with.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(m.name),
                number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        body.join(",")
    )
}

/// Runs one workload (end to end, or the traced pass) and prints its
/// report. Returns whether every output check passed.
fn run_workload(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    let out_dir = out_dir()?;
    let mode = if trace { "trace" } else { "run" };
    println!(
        "# dp-perf {mode} workload={} {}",
        w.name(),
        fingerprint_line(seed)
    );
    println!("# why: {}", w.why());

    let out = if trace {
        let mut out = Outcome::new(MetricSet::per_layer());
        let mut rec = spans::Recorder::new();
        flow::trace_layers(w, seed, scale, &out_dir, &mut rec, &mut out)?;
        if w == Workload::ServeBurst {
            serve::trace(seed, scale, &mut out)?;
        }
        let path = out_dir.join(format!("{}.spans.jsonl", w.name()));
        rec.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        ));
        out
    } else if w == Workload::ServeBurst {
        serve::run(seed, scale, seconds)?
    } else {
        flow::run(w, seed, scale, seconds, &out_dir)?
    };

    for note in &out.notes {
        println!("# {note}");
    }
    let metrics = out.metrics.finish();
    for m in &metrics {
        println!("{:<34} {:>18} {}", m.name, number(m.value), m.unit);
    }
    for (name, unit, value) in &out.diagnostics {
        println!("{name:<34} {:>18} {unit}  (diagnostic)", number(*value));
    }
    let noise = out
        .diagnostics
        .iter()
        .find(|d| d.0 == "bench.noise_pct")
        .map(|d| d.2)
        .or_else(|| out.metrics.get("bench.noise_pct"));
    if let Some(noise) = noise.filter(|n| *n > NOISY_PCT) {
        eprintln!(
            "warning: {}: bench.noise_pct = {noise:.1} > {NOISY_PCT}: the host was not quiet, medians are unreliable (minima still hold)",
            w.name()
        );
    }
    for why in &out.check_failures {
        println!("CHECK FAILED: {why}");
        eprintln!("error: {}: output check failed: {why}", w.name());
    }
    println!("{}", result_line(&out, &metrics));
    Ok(out.check_failures.is_empty())
}

/// Runs the command line `argv` (without the program name).
pub fn run_cli(argv: &[String]) -> ExitCode {
    let outcome = Args::parse(argv).and_then(|args| match args.command.as_str() {
        "run" | "trace" => {
            let seed = args.number("seed", DEFAULT_SEED)?;
            let seconds = args.number("seconds", 0.0)?;
            let trace = args.command == "trace" || args.number("trace", 0u8)? != 0;
            let mut ok = true;
            for w in args.workloads()? {
                ok &= run_workload(w, seed, args.scale(), seconds, trace)?;
            }
            Ok(ok)
        }
        "aa" => aa::run(&aa::Plan {
            sets: args.number("sets", 2)?,
            runs: args.number("runs", 10)?,
            seed: args.number("seed", DEFAULT_SEED)?,
            workloads: args.workloads()?,
            smoke: args.scale().smoke,
            out: match args.get("out") {
                Some(p) => PathBuf::from(p),
                None => out_dir()?.join("aa.json"),
            },
        }),
        other => Err(format!("unknown subcommand `{other}` (run | trace | aa)")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dp-perf: {e}");
            ExitCode::from(2)
        }
    }
}
