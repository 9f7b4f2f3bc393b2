//! Differential suite: the direct 2-D DCT plan vs direct `O(n^2)` oracles.
//!
//! The fast plan (paper Algorithms 3-4: even/odd reordering + one 2-D real
//! FFT, swept in lanes) must reproduce the defining sums across shapes,
//! including non-square and minimum-size matrices, for all four transforms
//! the density solver uses; shapes it cannot serve must be structured
//! errors; and the density operator built on it must match the field
//! oracle and stay bit-exact across thread counts.

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_check::{
    charge_map_oracle, dct2_oracle, field_oracle, idct2_oracle, idct_idxst_oracle,
    idxst_idct_oracle, movable_map_oracle, OracleGrid,
};
use dp_dct::Dct2dPlan;
use dp_density::{BinGrid, DctBackendKind, DensityOp, DensityStrategy, ElectroField};
use dp_gen::GeneratorConfig;
use dp_netlist::{Netlist, Placement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(n1: usize, n2: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n1 * n2).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn assert_close(tag: &str, fast: &[f64], oracle: &[f64], tol: f64) {
    assert_eq!(fast.len(), oracle.len(), "{tag}: length mismatch");
    let scale = oracle.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (b, (f, o)) in fast.iter().zip(oracle).enumerate() {
        assert!(
            (f - o).abs() / scale < tol,
            "{tag}: bin {b} fast {f} vs oracle {o} (scale {scale})"
        );
    }
}

/// Square, tall and wide power-of-two shapes: the minimum `(2, 4)`, row
/// counts below, at and above one lane sweep, and spectrum widths on both
/// sides of a lane-window multiple.
const SHAPES: [(usize, usize); 9] = [
    (2, 4),
    (4, 4),
    (8, 4),
    (4, 8),
    (16, 16),
    (16, 8),
    (32, 8),
    (8, 32),
    (64, 16),
];

#[test]
fn dct2_matches_direct_sum() {
    for (k, &(n1, n2)) in SHAPES.iter().enumerate() {
        let x = random_matrix(n1, n2, 100 + k as u64);
        let plan: Dct2dPlan<f64> = Dct2dPlan::new(n1, n2).expect("supported shape");
        assert_close(
            &format!("dct2 {n1}x{n2}"),
            &plan.dct2(&x),
            &dct2_oracle(&x, n1, n2),
            1e-12,
        );
    }
}

#[test]
fn idct2_matches_direct_sum() {
    for (k, &(n1, n2)) in SHAPES.iter().enumerate() {
        let x = random_matrix(n1, n2, 200 + k as u64);
        let plan: Dct2dPlan<f64> = Dct2dPlan::new(n1, n2).expect("supported shape");
        assert_close(
            &format!("idct2 {n1}x{n2}"),
            &plan.idct2(&x),
            &idct2_oracle(&x, n1, n2),
            1e-12,
        );
    }
}

#[test]
fn idct_idxst_matches_direct_sum() {
    for (k, &(n1, n2)) in SHAPES.iter().enumerate() {
        let x = random_matrix(n1, n2, 300 + k as u64);
        let plan: Dct2dPlan<f64> = Dct2dPlan::new(n1, n2).expect("supported shape");
        assert_close(
            &format!("idct_idxst {n1}x{n2}"),
            &plan.idct_idxst(&x),
            &idct_idxst_oracle(&x, n1, n2),
            1e-12,
        );
    }
}

#[test]
fn idxst_idct_matches_direct_sum() {
    for (k, &(n1, n2)) in SHAPES.iter().enumerate() {
        let x = random_matrix(n1, n2, 400 + k as u64);
        let plan: Dct2dPlan<f64> = Dct2dPlan::new(n1, n2).expect("supported shape");
        assert_close(
            &format!("idxst_idct {n1}x{n2}"),
            &plan.idxst_idct(&x),
            &idxst_idct_oracle(&x, n1, n2),
            1e-12,
        );
    }
}

/// The oracle round-trip (idct2 . dct2 == identity) transfers to the fast
/// plan by the two agreement tests above; assert it directly anyway so a
/// simultaneous, self-consistent normalization error in both oracles
/// cannot slip through.
#[test]
fn round_trip_identity() {
    let (n1, n2) = (16, 8);
    let x = random_matrix(n1, n2, 7);
    let plan: Dct2dPlan<f64> = Dct2dPlan::new(n1, n2).expect("supported shape");
    let back = plan.idct2(&plan.dct2(&x));
    assert_close("roundtrip", &back, &x, 1e-12);
}

/// Unsupported shapes must be structured errors, not panics — the
/// single-bin adversarial case funnels into this path. `BinGrid::new`
/// rejects non-power-of-two grids and `DensityOp` gates on
/// `supports_spectral_solve`, so no flow ever asks the plan for these.
#[test]
fn degenerate_shapes_error_gracefully() {
    for (n1, n2) in [
        (3, 8),
        (8, 12),
        (1, 1),
        (1, 8),
        (8, 1),
        (2, 2),
        (3, 7),
        (5, 4),
        (4, 2),
        (0, 8),
    ] {
        assert!(
            Dct2dPlan::<f64>::new(n1, n2).is_err(),
            "({n1},{n2}) must be rejected"
        );
    }
}

const MX: usize = 8;
const MY: usize = 8;

fn design(seed: u64) -> (Netlist<f64>, Placement<f64>) {
    let d = GeneratorConfig::new("dct-diff", 80, 90)
        .with_seed(seed)
        .generate::<f64>()
        .expect("valid design");
    let region = d.netlist.region();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
    let mut p = d.fixed_positions.clone();
    for c in 0..d.netlist.num_movable() {
        p.x[c] = region.xl + rng.gen_range(0.08..0.92) * region.width();
        p.y[c] = region.yl + rng.gen_range(0.08..0.92) * region.height();
    }
    (d.netlist, p)
}

#[test]
fn direct_field_solve_matches_oracle() {
    let (nl, p) = design(31);
    let grid = BinGrid::new(nl.region(), MX, MY).expect("supported grid");
    let og = OracleGrid::from_region(nl.region(), MX, MY);
    let movable = movable_map_oracle(&nl, &p, &og);
    let rho = charge_map_oracle(&movable, None, &og);
    let oracle = field_oracle(&rho, MX, MY);
    let mut solver = ElectroField::<f64>::new(&grid, DctBackendKind::Direct2d).expect("grid");
    let sol = solver.solve(&rho);
    assert_close("potential", &solver.potential(&rho), &oracle.potential, 1e-9);
    assert_close("field_x", &sol.field_x, &oracle.field_x, 1e-9);
    assert_close("field_y", &sol.field_y, &oracle.field_y, 1e-9);
    let scale = oracle.energy.abs().max(1e-12);
    assert!(
        (sol.energy - oracle.energy).abs() / scale < 1e-9,
        "energy {} vs oracle {}",
        sol.energy,
        oracle.energy
    );
}

/// The bit-contract the transform layer owes the flow: with deterministic
/// (fixed-point) scatters, the density operator's energy and gradient do
/// not depend on the thread count. The float-atomic scatter mode is
/// order-dependent by design, so it cannot carry a bitwise assertion.
#[test]
fn deterministic_density_op_is_bitwise_identical_across_threads() {
    let (nl, p) = design(32);
    let grid = BinGrid::new(nl.region(), MX, MY).expect("supported grid");
    let run = |threads: usize| {
        let mut op = DensityOp::with_backend(
            grid.clone(),
            DensityStrategy::Sorted,
            1.0,
            DctBackendKind::Direct2d,
        )
        .expect("grid")
        .with_deterministic(true);
        let mut grad = Gradient::zeros(nl.num_cells());
        let mut ctx = ExecCtx::new(threads);
        let energy = op.forward_backward(&nl, &p, &mut grad, &mut ctx);
        (energy, grad)
    };
    let (e_serial, g_serial) = run(1);
    for threads in [2usize, 4] {
        let (energy, grad) = run(threads);
        assert_eq!(
            e_serial.to_bits(),
            energy.to_bits(),
            "threads {threads}: energy differs"
        );
        for c in 0..nl.num_movable() {
            assert_eq!(
                g_serial.x[c].to_bits(),
                grad.x[c].to_bits(),
                "threads {threads}: grad_x cell {c}"
            );
            assert_eq!(
                g_serial.y[c].to_bits(),
                grad.y[c].to_bits(),
                "threads {threads}: grad_y cell {c}"
            );
        }
    }
}
