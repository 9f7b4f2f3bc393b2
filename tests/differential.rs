//! Tier-1 differential gate: seeded full-flow (GP -> LG -> DP) runs
//! compared against committed golden records, plus a same-invocation
//! bit-identity check.
//!
//! The golden files live in `results/golden/`. When an intentional
//! algorithm change shifts the numbers, regenerate them with
//! `DP_UPDATE_GOLDEN=1 cargo test --test differential` and commit the
//! diff — the point is that such shifts are always explicit in review,
//! never silent.

use std::path::PathBuf;

use dp_check::{update_requested, GoldenRecord, GoldenTolerance};
use dp_gp::InitKind;
use dreamplace::gen::{GeneratedDesign, GeneratorConfig};
use dreamplace::{DreamPlacer, FlowConfig, FlowResult, ToolMode};

struct Scenario {
    name: &'static str,
    seed: u64,
    macros: usize,
}

const THREADS: usize = 2;
const SCENARIOS: [Scenario; 2] = [
    Scenario {
        name: "golden-flat",
        seed: 71,
        macros: 0,
    },
    Scenario {
        name: "golden-macros",
        seed: 72,
        macros: 3,
    },
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/golden")
        .join(format!("{name}.json"))
}

fn build(s: &Scenario) -> GeneratedDesign<f64> {
    let mut g = GeneratorConfig::new(s.name, 420, 460)
        .with_seed(s.seed)
        .with_utilization(0.6);
    if s.macros > 0 {
        g = g.with_macros(s.macros, 0.12);
    }
    g.generate::<f64>().expect("valid generator config")
}

fn run(d: &GeneratedDesign<f64>) -> FlowResult<f64> {
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
    DreamPlacer::new(cfg).place(d).expect("flow completes")
}

#[test]
fn seeded_flow_matches_golden_records() {
    let mut failures = Vec::new();
    for s in &SCENARIOS {
        let d = build(s);
        let result = run(&d);
        let actual = GoldenRecord::from_flow(s.name, s.seed, THREADS, &result);

        let path = golden_path(s.name);
        if update_requested() {
            actual.store(&path).expect("write golden record");
            continue;
        }
        let expected = GoldenRecord::load(&path).unwrap_or_else(|e| {
            panic!(
                "missing/corrupt golden `{}` ({e}); regenerate with \
                 DP_UPDATE_GOLDEN=1 cargo test --test differential",
                path.display()
            )
        });
        if let Err(errs) = expected.compare(&actual, &GoldenTolerance::default()) {
            failures.push(format!("{}: {}", s.name, errs.join("; ")));
        }
    }
    assert!(failures.is_empty(), "golden drift:\n{}", failures.join("\n"));
}

/// Two invocations in the same process, same seed and thread count, must
/// agree bit-for-bit — stricter than the golden tolerance and independent
/// of the committed files.
#[test]
fn repeated_invocations_are_bit_identical() {
    let s = &SCENARIOS[0];
    let d = build(s);
    let a = run(&d);
    let b = run(&d);
    assert_eq!(a.hpwl_gp.to_bits(), b.hpwl_gp.to_bits());
    assert_eq!(a.hpwl_legal.to_bits(), b.hpwl_legal.to_bits());
    assert_eq!(a.hpwl_final.to_bits(), b.hpwl_final.to_bits());
    assert_eq!(a.gp.iterations, b.gp.iterations);
    assert_eq!(a.placement.x, b.placement.x);
    assert_eq!(a.placement.y, b.placement.y);
}
