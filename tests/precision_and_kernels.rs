//! Precision (float32 vs float64) and kernel-strategy equivalence at the
//! flow level — the correctness side of the paper's Figs. 6-8 and 10-12.

use dp_density::{DctBackendKind, DensityStrategy};
use dp_wirelength::WaStrategy;
use dreamplace::gen::GeneratorConfig;
use dreamplace::{DreamPlacer, FlowConfig, ToolMode};

fn run_f64(mutate: impl FnOnce(&mut FlowConfig<f64>)) -> f64 {
    let d = GeneratorConfig::new("pk", 300, 330)
        .with_seed(9)
        .generate::<f64>()
        .expect("valid");
    let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &d.netlist);
    cfg.gp.max_iters = 250;
    cfg.gp.target_overflow = 0.15;
    mutate(&mut cfg);
    DreamPlacer::new(cfg).place(&d).expect("flow").hpwl_final
}

#[test]
fn float32_matches_float64_quality() {
    // Same design, same configuration, both precisions (paper: "quality
    // stays almost the same" when switching to float32).
    let d64 = GeneratorConfig::new("pk32", 300, 330)
        .with_seed(11)
        .generate::<f64>()
        .expect("ok");
    let d32 = GeneratorConfig::new("pk32", 300, 330)
        .with_seed(11)
        .generate::<f32>()
        .expect("ok");
    let mut c64 = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &d64.netlist);
    c64.gp.max_iters = 250;
    c64.gp.target_overflow = 0.15;
    let mut c32 = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &d32.netlist);
    c32.gp.max_iters = 250;
    c32.gp.target_overflow = 0.15;
    let h64 = DreamPlacer::new(c64)
        .place(&d64)
        .expect("f64 flow")
        .hpwl_final;
    let h32 = DreamPlacer::new(c32)
        .place(&d32)
        .expect("f32 flow")
        .hpwl_final;
    let gap = (h64 - h32).abs() / h64;
    assert!(
        gap < 0.05,
        "precision gap {:.2}% ({h64} vs {h32})",
        gap * 100.0
    );
}

#[test]
fn wirelength_strategies_give_identical_flows() {
    // The three WA kernels compute the same math, so the whole (serial,
    // deterministic) flow must agree bit-for-bit on its final HPWL within
    // float tolerance.
    let a = run_f64(|c| c.gp.wirelength = dp_gp::WirelengthModel::Wa(WaStrategy::NetByNet));
    let b = run_f64(|c| c.gp.wirelength = dp_gp::WirelengthModel::Wa(WaStrategy::Atomic));
    let m = run_f64(|c| c.gp.wirelength = dp_gp::WirelengthModel::Wa(WaStrategy::Merged));
    assert!((a - b).abs() / a < 1e-6, "{a} vs {b}");
    assert!((a - m).abs() / a < 1e-6, "{a} vs {m}");
}

#[test]
fn density_strategies_give_identical_flows() {
    let a = run_f64(|c| c.gp.density_strategy = DensityStrategy::Naive);
    let b = run_f64(|c| c.gp.density_strategy = DensityStrategy::Sorted);
    let s = run_f64(|c| c.gp.density_strategy = DensityStrategy::SortedSubthreads { tx: 2, ty: 2 });
    // Integer bins make the map independent of cell order and tile split.
    assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    assert_eq!(a.to_bits(), s.to_bits(), "{a} vs {s}");
}

#[test]
fn dct_tiers_give_identical_flows() {
    let a = run_f64(|c| c.gp.dct_backend = DctBackendKind::RowColumn2n);
    let b = run_f64(|c| c.gp.dct_backend = DctBackendKind::RowColumnN);
    let d = run_f64(|c| c.gp.dct_backend = DctBackendKind::Direct2d);
    assert!((a - b).abs() / a < 1e-6, "{a} vs {b}");
    assert!((a - d).abs() / a < 1e-6, "{a} vs {d}");
}

#[test]
fn lse_wirelength_also_places() {
    let h = run_f64(|c| c.gp.wirelength = dp_gp::WirelengthModel::Lse);
    let wa = run_f64(|_| {});
    // LSE is a different smooth model; quality should be in the same
    // ballpark, not identical.
    let gap = (h - wa).abs() / wa;
    assert!(gap < 0.2, "LSE vs WA gap {:.1}%", gap * 100.0);
}
