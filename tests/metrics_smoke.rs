//! Metrics-plane smoke tests: the metrics registry must never perturb
//! the flow's numerics, its exposition must be well-formed, and the
//! panic flight recorder must leave a validated postmortem behind.
//!
//! Three guarantees, matching the metrics design contract (DESIGN.md §16):
//!
//! 1. a scheduler run (whose registry is always live) is bit-identical to
//!    an uninstrumented standalone run of the tier-1 golden configuration
//!    (instruments observe, never participate);
//! 2. the Prometheus text exposition parses cleanly — every series
//!    appears exactly once per scrape, and every `_total` counter is
//!    monotone non-decreasing across scrapes;
//! 3. a chaos-injected terminal panic in dp-serve dumps a
//!    `job-N.postmortem.jsonl` flight-recorder file that the independent
//!    `dp-check` postmortem validator accepts.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;

use dreamplace::gen::{GeneratedDesign, GeneratorConfig};
use dreamplace::serve::{serve, ServeOptions, POSTMORTEM_EVENTS};
use dreamplace::telemetry::Telemetry;
use dreamplace::{DreamPlacer, FlowConfig, FlowResult, JobOutcome, JobStatus, Scheduler, ToolMode};
use dp_gp::InitKind;

const THREADS: usize = 2;

fn build() -> GeneratedDesign<f64> {
    GeneratorConfig::new("trace-smoke", 420, 460)
        .with_seed(71)
        .with_utilization(0.6)
        .generate::<f64>()
        .expect("valid generator config")
}

/// Same configuration as the tier-1 golden regression in
/// `tests/differential.rs` / `tests/trace_smoke.rs`.
fn config(d: &GeneratedDesign<f64>) -> FlowConfig<f64> {
    let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads: THREADS }, &d.netlist);
    cfg.gp.max_iters = 300;
    cfg.gp.target_overflow = 0.12;
    cfg.gp.threads = THREADS;
    cfg.run_dp = true;
    if let InitKind::WirelengthOnly { iters } = cfg.gp.init {
        cfg.gp.init = InitKind::WirelengthOnly {
            iters: iters.min(40),
        };
    }
    cfg
}

/// Runs the golden config through the scheduler.
fn run_scheduled(sched: &mut Scheduler<f64>, d: &Arc<GeneratedDesign<f64>>) -> FlowResult<f64> {
    let id = sched.submit(config(d), Arc::clone(d), Telemetry::disabled(), None);
    loop {
        sched.step_round();
        match sched.status(id) {
            Some(JobStatus::Running { .. }) | Some(JobStatus::Retrying { .. }) => continue,
            _ => break,
        }
    }
    sched.health(); // refresh the pool gauges for a subsequent render
    match sched.take_outcome(id) {
        Some(JobOutcome::Completed(r)) => *r,
        other => panic!("golden job did not complete: {:?}", other.is_some()),
    }
}

/// Parses one exposition into `series -> value`, failing on duplicate
/// series or non-numeric samples. Comment lines (`# HELP`, `# TYPE`) are
/// checked for shape but not collected.
fn parse_scrape(text: &str) -> BTreeMap<String, f64> {
    let mut series = BTreeMap::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "unknown comment shape: {line}"
            );
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("`series value` sample line");
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            v => v.parse().unwrap_or_else(|_| panic!("non-numeric sample in {line}")),
        };
        assert!(
            series.insert(name.to_string(), value).is_none(),
            "duplicate series {name}"
        );
    }
    assert!(!series.is_empty(), "empty scrape");
    series
}

#[test]
fn metrics_enabled_run_is_bit_identical_and_scrapes_cleanly() {
    let d = Arc::new(build());
    let off = DreamPlacer::new(config(&d))
        .place(&d)
        .expect("standalone run");

    let mut sched = Scheduler::with_threads(THREADS);
    let on = run_scheduled(&mut sched, &d);

    // 1. Bit identity: the instruments observed a numerically untouched run.
    assert_eq!(off.hpwl_gp.to_bits(), on.hpwl_gp.to_bits());
    assert_eq!(off.hpwl_legal.to_bits(), on.hpwl_legal.to_bits());
    assert_eq!(off.hpwl_final.to_bits(), on.hpwl_final.to_bits());
    assert_eq!(off.gp.iterations, on.gp.iterations);
    assert_eq!(off.placement.x, on.placement.x);
    assert_eq!(off.placement.y, on.placement.y);

    // 2. The scrape parses with no duplicate series and covers the
    // scheduler and pool layers.
    let first = parse_scrape(&sched.metrics().render());
    assert_eq!(first["dp_sched_jobs_total{outcome=\"completed\"}"], 1.0);
    assert_eq!(first["dp_sched_jobs_submitted_total"], 1.0);
    assert!(first["dp_pool_launches_total"] > 0.0);
    assert!(first["dp_sched_step_seconds_count{stage=\"gp\"}"] > 0.0);
    assert!(first.contains_key("dp_uptime_seconds"));
    // Histogram buckets are cumulative: each le is >= its predecessor,
    // and the +Inf bucket equals the count.
    let gp_count = first["dp_sched_step_seconds_count{stage=\"gp\"}"];
    assert_eq!(first["dp_sched_step_seconds_bucket{stage=\"gp\",le=\"+Inf\"}"], gp_count);

    // 3. Counters are monotone across scrapes: run a second job on the
    // same scheduler and compare every `_total` sample.
    let again = run_scheduled(&mut sched, &d);
    assert_eq!(on.hpwl_final.to_bits(), again.hpwl_final.to_bits());
    let second = parse_scrape(&sched.metrics().render());
    for (name, before) in &first {
        if !name.contains("_total") {
            continue;
        }
        let after = second.get(name).unwrap_or_else(|| panic!("series {name} vanished"));
        assert!(
            after >= before,
            "counter {name} went backwards: {before} -> {after}"
        );
    }
    assert_eq!(second["dp_sched_jobs_total{outcome=\"completed\"}"], 2.0);
}

#[test]
fn chaos_panic_leaves_a_validated_postmortem() {
    let dir = std::env::temp_dir().join(format!("dp-metrics-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp trace dir");
    let input = Cursor::new(
        [
            // max_attempts 1 makes the contained panic terminal, which is
            // what triggers the flight-recorder dump.
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
    let stats = serve(input, &mut out, &opts).expect("daemon survives the panic");
    assert_eq!(stats.failed, 1);

    let text = String::from_utf8(out).expect("utf8 events");
    let failed = text
        .lines()
        .find(|l| l.contains("\"event\":\"failed\""))
        .expect("terminal failed event");
    assert!(failed.contains("\"kind\":\"panic\""));
    assert!(failed.contains("\"postmortem_path\":"));

    let path = dir.join("job-0.postmortem.jsonl");
    let summary =
        dreamplace::check::validate_postmortem_file(&path).expect("postmortem validates");
    assert!(summary.lines <= POSTMORTEM_EVENTS + 1, "dump is bounded");
    assert!(summary.panics >= 1, "the contained panic is in the recording");
    // The serve and check crates pin the same flight-recorder window.
    assert_eq!(POSTMORTEM_EVENTS, dreamplace::check::POSTMORTEM_EVENT_CAP);
    let _ = std::fs::remove_dir_all(&dir);
}
