//! Observability smoke tests: telemetry must never perturb the flow's
//! numerics, and the JSONL trace it emits must satisfy the independent
//! schema validator in `dp-check`.
//!
//! Three guarantees, matching the telemetry design contract:
//!
//! 1. a run with telemetry *enabled* is bit-identical to the same run
//!    with telemetry disabled (recording observes, never participates),
//!    so the golden full-flow regression holds either way;
//! 2. the JSONL sink round-trips through `dp_check::trace` — balanced
//!    span nesting, per-thread monotone timestamps, schema-exact keys —
//!    and covers all three placement stages;
//! 3. an adversarial design that trips a flow fallback records at least
//!    one `degradation` timeline event in the trace.

use dreamplace::gen::{GeneratedDesign, GeneratorConfig};
use dreamplace::telemetry::{Telemetry, TraceEvent};
use dreamplace::{DreamPlacer, FlowConfig, FlowResult, ToolMode};
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
/// `tests/differential.rs`, parameterized over the telemetry sink.
fn run(d: &GeneratedDesign<f64>, telemetry: Telemetry) -> FlowResult<f64> {
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
    cfg.telemetry = telemetry;
    DreamPlacer::new(cfg).place(d).expect("flow completes")
}

#[test]
fn enabled_telemetry_is_bit_identical_to_disabled() {
    let d = build();
    let off = run(&d, Telemetry::disabled());
    let on_tel = Telemetry::enabled();
    let on = run(&d, on_tel.clone());

    assert_eq!(off.hpwl_gp.to_bits(), on.hpwl_gp.to_bits());
    assert_eq!(off.hpwl_legal.to_bits(), on.hpwl_legal.to_bits());
    assert_eq!(off.hpwl_final.to_bits(), on.hpwl_final.to_bits());
    assert_eq!(off.gp.iterations, on.gp.iterations);
    assert_eq!(off.placement.x, on.placement.x);
    assert_eq!(off.placement.y, on.placement.y);

    // The instrumented run actually recorded something (this is not a
    // vacuous comparison between two disabled sinks).
    let report = on_tel.report().expect("enabled telemetry yields a report");
    assert_eq!(report.iterations as usize, on.gp.iterations);
}

#[test]
fn jsonl_trace_round_trips_through_the_independent_validator() {
    let d = build();
    let tel = Telemetry::enabled();
    let result = run(&d, tel.clone());

    let mut buf = Vec::new();
    let events = tel.write_jsonl(&mut buf).expect("serialize trace");
    let text = String::from_utf8(buf).expect("trace is utf-8");
    assert_eq!(events, text.lines().count());

    let summary = dreamplace::check::validate_str(&text)
        .unwrap_or_else(|e| panic!("trace failed validation: {e}\n--- trace head ---\n{}",
            text.lines().take(20).collect::<Vec<_>>().join("\n")));
    assert_eq!(summary.lines, events);
    // The convergence trace mirrors GpStats, one iter event per GP
    // iteration, all inside spans covering every stage.
    assert_eq!(summary.iters, result.gp.iterations);
    for stage in ["\"name\":\"gp\"", "\"name\":\"lg.", "\"name\":\"dp."] {
        assert!(text.contains(stage), "missing {stage} span in trace");
    }
    assert!(summary.kernels > 0, "kernel counters missing");
    // Every traced run carries the transform phase split of the one
    // direct-2D plan (transpose / butterfly / twiddle).
    assert!(
        text.contains("density.dct.butterfly"),
        "trace must carry the transform phase kernels"
    );
    assert!(summary.workspaces > 0, "workspace counters missing");

    // Each operator's `kernel` event carries the call count ExecCtx kept
    // for it: the one-cell timer records every call.
    let kernels = tel.snapshot();
    assert!(!result.gp.exec.ops.is_empty());
    for (name, counter) in &result.gp.exec.ops {
        let calls = kernels.iter().find_map(|ev| match ev {
            TraceEvent::Kernel { name: k, calls, .. } if k == name => Some(*calls),
            _ => None,
        });
        assert_eq!(calls, Some(counter.calls), "kernel {name}");
    }
}

#[test]
fn adversarial_design_records_degradation_events_in_the_trace() {
    let d = build();
    let tel = Telemetry::enabled();
    let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads: THREADS }, &d.netlist);
    cfg.gp.max_iters = 300;
    cfg.gp.target_overflow = 0.12;
    cfg.gp.threads = THREADS;
    // A runaway density-weight schedule diverges the primary run; the
    // flow degrades to the conservative preset (same trigger as the
    // core `flow_falls_back_to_conservative_preset_on_divergence` test).
    cfg.gp.mu_min = 1e120;
    cfg.gp.mu_max = 1e120;
    cfg.run_dp = false;
    cfg.telemetry = tel.clone();
    let r = DreamPlacer::new(cfg).place(&d).expect("flow degrades, not fails");
    assert!(!r.degradations.is_clean(), "expected a degraded run");

    let mut buf = Vec::new();
    tel.write_jsonl(&mut buf).expect("serialize trace");
    let text = String::from_utf8(buf).expect("trace is utf-8");
    let summary = dreamplace::check::validate_str(&text)
        .unwrap_or_else(|e| panic!("degraded trace failed validation: {e}"));
    assert!(
        summary.degradations >= 1,
        "no degradation event in trace despite {} flow degradations",
        r.degradations.events.len()
    );
    // The report surfaces the same timeline.
    let report = tel.report().expect("report");
    assert!(
        !report.degradations.is_empty(),
        "report lost the degradation timeline"
    );
}
