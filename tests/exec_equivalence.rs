//! Tier-1 executor acceptance: kernels launched on the persistent worker
//! pool must agree with the serial path, and a placement run must spawn
//! its threads exactly once while reusing every kernel workspace and
//! evaluating the density field once per distinct point.
//!
//! The ordered per-chunk reductions (with a thread-count-invariant chunk
//! size) make the net-by-net and merged wirelength kernels bit-exact at any
//! worker count; the atomic strategy accumulates through float atomics and
//! is only reproducible to rounding; the density scatter accumulates in
//! fixed point, so it — and a whole placement — is bit-exact at any worker
//! count.

use std::sync::Arc;

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_density::{BinGrid, DensityOp, DensityStrategy};
use dp_gp::{initial_placement, GlobalPlacer, GpConfig};
use dp_wirelength::{LseWirelength, WaStrategy, WaWirelength};
use dreamplace::gen::{GeneratedDesign, GeneratorConfig};
use dreamplace::netlist::Placement;
use dreamplace::telemetry::Telemetry;
use dreamplace::{DreamPlacer, FlowConfig, FlowResult, Scheduler, ToolMode};

fn design(seed: u64, cells: usize) -> GeneratedDesign<f64> {
    GeneratorConfig::new(format!("exec-{seed}"), cells, cells + cells / 8)
        .with_seed(seed)
        .with_utilization(0.6)
        .generate::<f64>()
        .expect("valid generator config")
}

fn start(d: &GeneratedDesign<f64>) -> Placement<f64> {
    initial_placement(&d.netlist, &d.fixed_positions, 0.1, 7)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `op` serially and on a 4-worker pool; returns both (cost, grad).
fn run_both<O: Operator<f64>>(
    mut serial_op: O,
    mut pooled_op: O,
    d: &GeneratedDesign<f64>,
) -> ((f64, Gradient<f64>), (f64, Gradient<f64>)) {
    let pos = start(d);
    let n = d.netlist.num_cells();

    let mut ctx1 = ExecCtx::serial();
    let mut g1 = Gradient::zeros(n);
    let c1 = serial_op.forward_backward(&d.netlist, &pos, &mut g1, &mut ctx1);

    let mut ctx4 = ExecCtx::new(4);
    let mut g4 = Gradient::zeros(n);
    // Two evaluations through the same ctx: the second reuses the leased
    // scratch, so agreement also checks the zero-fill on reuse.
    let _ = pooled_op.forward_backward(&d.netlist, &pos, &mut g4, &mut ctx4);
    g4.reset();
    let c4 = pooled_op.forward_backward(&d.netlist, &pos, &mut g4, &mut ctx4);

    ((c1, g1), (c4, g4))
}

#[test]
fn wa_net_by_net_and_merged_are_bit_exact_across_thread_counts() {
    let d = design(11, 600);
    for strategy in [WaStrategy::NetByNet, WaStrategy::Merged] {
        let ((c1, g1), (c4, g4)) = run_both(
            WaWirelength::new(strategy, 10.0f64),
            WaWirelength::new(strategy, 10.0f64),
            &d,
        );
        assert_eq!(c1.to_bits(), c4.to_bits(), "{strategy:?} cost");
        assert_eq!(bits(&g1.x), bits(&g4.x), "{strategy:?} grad x");
        assert_eq!(bits(&g1.y), bits(&g4.y), "{strategy:?} grad y");
    }
}

#[test]
fn lse_is_bit_exact_across_thread_counts() {
    let d = design(13, 600);
    let ((c1, g1), (c4, g4)) =
        run_both(LseWirelength::new(10.0f64), LseWirelength::new(10.0f64), &d);
    assert_eq!(c1.to_bits(), c4.to_bits(), "lse cost");
    assert_eq!(bits(&g1.x), bits(&g4.x), "lse grad x");
    assert_eq!(bits(&g1.y), bits(&g4.y), "lse grad y");
}

#[test]
fn wa_atomic_matches_serial_to_rounding() {
    let d = design(17, 600);
    let ((c1, g1), (c4, g4)) = run_both(
        WaWirelength::new(WaStrategy::Atomic, 10.0f64),
        WaWirelength::new(WaStrategy::Atomic, 10.0f64),
        &d,
    );
    let rel = (c1 - c4).abs() / c1.abs().max(1.0);
    assert!(rel < 1e-9, "atomic cost rel err {rel}");
    for (a, b) in g1.x.iter().zip(&g4.x).chain(g1.y.iter().zip(&g4.y)) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    }
}

#[test]
fn density_op_is_bit_exact_across_thread_counts() {
    let d = design(19, 600);
    let m = GpConfig::<f64>::auto_bins(d.netlist.num_movable());
    let make = || {
        let grid = BinGrid::new(d.netlist.region(), m, m).expect("bins");
        let mut op = DensityOp::new(grid, DensityStrategy::Sorted, 1.0f64).expect("density op");
        op.bake_fixed(&d.netlist, &start(&d));
        op
    };
    let ((c1, g1), (c4, g4)) = run_both(make(), make(), &d);
    assert_eq!(c1.to_bits(), c4.to_bits(), "density energy");
    assert_eq!(bits(&g1.x), bits(&g4.x), "density grad x");
    assert_eq!(bits(&g1.y), bits(&g4.y), "density grad y");
}

#[test]
fn placement_run_spawns_once_and_reuses_every_workspace() {
    let d = design(23, 400);
    let mut cfg = GpConfig::auto(&d.netlist);
    cfg.threads = 3;
    cfg.max_iters = 60;
    cfg.target_overflow = 0.3;
    let r = GlobalPlacer::new(cfg)
        .place(&d.netlist, &d.fixed_positions)
        .expect("gp run");
    let exec = &r.stats.exec;

    // Spawn-once: the pool creates exactly threads-1 workers for the whole
    // run, however many iterations execute.
    assert_eq!(exec.pool_threads, 3);
    assert_eq!(exec.threads_spawned, 2, "workers spawned more than once");
    assert!(
        exec.pool_runs >= r.stats.iterations as u64,
        "pool dispatched {} launches over {} iterations",
        exec.pool_runs,
        r.stats.iterations
    );

    // Every kernel op was exercised and timed.
    assert!(!exec.ops.is_empty());
    for (name, op) in &exec.ops {
        assert!(op.calls >= 1, "op {name} never ran");
    }

    // Every kernel workspace was recycled at least once across iterations.
    assert!(!exec.workspaces.is_empty());
    for (name, ws) in &exec.workspaces {
        assert!(
            ws.reuses >= 1,
            "workspace {name} never reused (uses={}, bytes={})",
            ws.uses,
            ws.bytes
        );
        assert!(ws.bytes > 0, "workspace {name} reports no scratch");
    }
}

#[test]
fn placement_run_evaluates_density_once_per_distinct_point() {
    // Nesterov opens every step at the point its last backtracking probe
    // evaluated; that evaluation is kept, so a healthy run answers one
    // objective call per step after the first without running wirelength
    // or scatter → solve → gather again.
    let d = design(29, 400);
    let mut cfg = GpConfig::auto(&d.netlist);
    cfg.threads = 2;
    cfg.max_iters = 50;
    cfg.min_iters = 50;
    cfg.target_overflow = 0.0;
    let r = GlobalPlacer::new(cfg)
        .place(&d.netlist, &d.fixed_positions)
        .expect("gp run");
    assert_eq!((r.stats.iterations, r.stats.recoveries), (50, 0));
    let calls = |name: &str| -> u64 {
        let op = r.stats.exec.ops.iter().find(|(n, _)| *n == name);
        op.map_or(0, |(_, c)| c.calls)
    };
    // The steps read their overflow off the forward's map; the one
    // scatter is at construction, to set the first gamma.
    assert_eq!(calls("density.overflow"), 1);
    let evals = r.stats.evals;
    assert_eq!(evals.memo_hits(), 49, "one memo hit per step after the first");
    assert_eq!(evals.wl_evals, 1 + 50 + evals.backtracks, "one evaluation per point");
    // Both operators ran at every distinct point (and once to set lambda).
    assert_eq!(calls("wa.forward_backward"), evals.wl_evals + 1);
    assert_eq!(calls("density.forward"), evals.density_evals + 1);
    assert_eq!(calls("density.backward"), calls("density.forward"));
}

#[test]
fn placement_bits_do_not_depend_on_thread_count() {
    // One thread and two take the same trajectory through every entry
    // point: the CLI's mode config, and a job on a one-wide scheduler pool
    // (which pins the job's thread count to the pool's width). Float bins
    // summed in a different order would move this design's GP HPWL.
    let d = design(3, 300);
    let config = |threads| FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads }, &d.netlist);
    let solo = |threads| DreamPlacer::new(config(threads)).place(&d).expect("flow");
    let two = solo(2);

    let mut sched = Scheduler::<f64>::with_threads(1);
    let id = sched.submit(config(2), Arc::new(d.clone()), Telemetry::disabled(), None);
    sched.run_all();
    let scheduled = sched.take_result(id).expect("job finished").expect("job succeeded");

    let same = |got: &FlowResult<f64>, tag: &str| {
        assert_eq!(got.hpwl_gp.to_bits(), two.hpwl_gp.to_bits(), "{tag}: GP HPWL");
        assert_eq!(got.hpwl_final.to_bits(), two.hpwl_final.to_bits(), "{tag}: final HPWL");
        assert_eq!(bits(&got.placement.x), bits(&two.placement.x), "{tag}: x");
        assert_eq!(bits(&got.placement.y), bits(&two.placement.y), "{tag}: y");
    };
    same(&solo(1), "one-thread CLI mode");
    same(&scheduled, "one-wide scheduler job");
}
