//! Determinism replays: same-seed bit-identity and thread-count
//! invariance of the global placer, diffed per iteration via
//! [`dp_check::replay_gp`] / [`dp_check::replay_across_threads`], plus
//! per-stage bit-identity of legalization and detailed placement via
//! [`dp_check::replay_lg`] / [`dp_check::replay_dp`].

use dp_check::{diff_placements, first_divergence, replay_across_threads, replay_dp, replay_gp, replay_lg};
use dp_dplace::DetailedPlacer;
use dp_gen::GeneratorConfig;
use dp_gp::{initial_placement, GlobalPlacer, GpConfig};
use dp_lg::Legalizer;
use dp_netlist::{Netlist, Placement};

fn design(seed: u64) -> (Netlist<f64>, Placement<f64>) {
    let d = GeneratorConfig::new("replay", 220, 250)
        .with_seed(seed)
        .with_utilization(0.6)
        .generate::<f64>()
        .expect("valid design");
    (d.netlist, d.fixed_positions)
}

fn quick_cfg(nl: &Netlist<f64>, threads: usize) -> GpConfig<f64> {
    let mut cfg = GpConfig::auto(nl);
    cfg.bins = (16, 16);
    cfg.max_iters = 30;
    cfg.min_iters = 5;
    cfg.threads = threads;
    cfg
}

#[test]
fn same_seed_same_threads_is_bit_identical() {
    let (nl, fixed) = design(91);
    for threads in [1usize, 4] {
        let cfg = quick_cfg(&nl, threads);
        let report = replay_gp(&nl, &fixed, &cfg, 2).expect("gp runs");
        assert!(report.iterations > 0);
        assert!(
            report.identical(),
            "threads {threads}: {}",
            report.divergence.as_deref().unwrap_or("?")
        );
    }
}

#[test]
fn gp_is_invariant_across_thread_counts() {
    let (nl, fixed) = design(92);
    let cfg = quick_cfg(&nl, 1);
    let report =
        replay_across_threads(&nl, &fixed, &cfg, &[1, 2, 4]).expect("gp runs");
    assert_eq!(report.runs, 3);
    assert!(
        report.identical(),
        "{}",
        report.divergence.as_deref().unwrap_or("?")
    );
    assert!(report.final_hpwl.is_finite() && report.final_hpwl > 0.0);
}

#[test]
fn legalization_replay_is_bit_identical() {
    let (nl, fixed) = design(94);
    let start = initial_placement(&nl, &fixed, 0.05, 2);
    let report = replay_lg(&nl, &start, &Legalizer::new(), 3).expect("legalizes");
    assert_eq!(report.runs, 3);
    assert!(
        report.identical(),
        "{}",
        report.divergence.as_deref().unwrap_or("?")
    );
    assert!(report.final_hpwl.is_finite() && report.final_hpwl > 0.0);
}

#[test]
fn detailed_placement_replay_is_bit_identical() {
    let (nl, fixed) = design(95);
    let mut start = initial_placement(&nl, &fixed, 0.05, 2);
    Legalizer::new()
        .legalize(&nl, &mut start)
        .expect("legalizes");
    let report = replay_dp(&nl, &start, &DetailedPlacer::new(), 3);
    assert_eq!(report.runs, 3);
    assert!(
        report.identical(),
        "{}",
        report.divergence.as_deref().unwrap_or("?")
    );
    assert!(report.final_hpwl.is_finite() && report.final_hpwl > 0.0);
}

/// The placement differ must catch single-coordinate flips (it backstops
/// both stage replayers).
#[test]
fn placement_differ_detects_single_coordinate_change() {
    let (_, fixed) = design(96);
    let mut other = fixed.clone();
    assert!(diff_placements(&fixed, &other).is_none());
    other.x[0] += 1.0;
    let d = diff_placements(&fixed, &other).expect("must differ");
    assert!(d.contains("cell 0"), "{d}");
}

/// The differ itself must not be a rubber stamp: histories from different
/// seeds are different, and the divergence message names the first
/// mismatching field.
#[test]
fn differ_detects_real_divergence() {
    let (nl, fixed) = design(93);
    let cfg_a = quick_cfg(&nl, 1);
    let mut cfg_b = cfg_a.clone();
    cfg_b.seed = cfg_a.seed ^ 0xdead;
    let a = GlobalPlacer::new(cfg_a).place(&nl, &fixed).expect("gp");
    let b = GlobalPlacer::new(cfg_b).place(&nl, &fixed).expect("gp");
    let d = first_divergence(&a.stats, &b.stats);
    assert!(d.is_some(), "different seeds produced identical histories");
    // Self-comparison is clean.
    assert!(first_divergence(&a.stats, &a.stats).is_none());
}
