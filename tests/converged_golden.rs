//! Converged-scale golden: one larger design run to the *full* overflow
//! target, compared against a committed record. The tier-1 goldens in
//! `differential.rs` stop at a relaxed overflow to stay fast; this gate
//! covers the regime they cannot — full convergence on a design an order
//! of magnitude bigger, where late-lambda density behavior and the DP
//! pass ordering actually bite.
//!
//! The test is `#[ignore]`d so `cargo test` (tier-1) never pays for it;
//! the `slow-golden` CI job runs it explicitly with
//! `cargo test --release --test converged_golden -- --ignored`.
//! Regenerate after an intentional algorithm change with
//! `DP_UPDATE_GOLDEN=1 cargo test --release --test converged_golden -- --ignored`.

use std::path::PathBuf;

use dp_check::{update_requested, GoldenRecord, GoldenTolerance};
use dreamplace::gen::GeneratorConfig;
use dreamplace::{DreamPlacer, FlowConfig, ToolMode};

const THREADS: usize = 2;
const SEED: u64 = 77;
const NAME: &str = "golden-converged";

#[test]
#[ignore = "slow: full-convergence run; exercised by the slow-golden CI job"]
fn converged_large_design_matches_golden_record() {
    let design = GeneratorConfig::new(NAME, 4000, 4300)
        .with_seed(SEED)
        .with_utilization(0.65)
        .with_macros(4, 0.10)
        .generate::<f64>()
        .expect("valid generator config");

    let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads: THREADS }, &design.netlist);
    // Full overflow target — no relaxation, no iteration haircut.
    cfg.gp.target_overflow = 0.07;
    cfg.gp.threads = THREADS;
    cfg.run_dp = true;
    let result = DreamPlacer::new(cfg).place(&design).expect("flow completes");
    assert!(
        result.gp.final_overflow <= 0.12,
        "did not converge near target: overflow {}",
        result.gp.final_overflow
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/golden")
        .join(format!("{NAME}.json"));
    let actual = GoldenRecord::from_flow(NAME, SEED, THREADS, &result);
    if update_requested() {
        actual.store(&path).expect("write golden record");
        return;
    }
    let expected = GoldenRecord::load(&path).unwrap_or_else(|e| {
        panic!(
            "missing/corrupt golden `{}` ({e}); regenerate with DP_UPDATE_GOLDEN=1 \
             cargo test --release --test converged_golden -- --ignored",
            path.display()
        )
    });
    if let Err(errs) = expected.compare(&actual, &GoldenTolerance::default()) {
        panic!("converged golden drift:\n{}", errs.join("\n"));
    }
}
