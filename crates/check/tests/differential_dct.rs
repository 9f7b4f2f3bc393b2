//! Differential suite: every `dp-dct` tier vs direct `O(n^2)` oracles.
//!
//! The complex and real FFTs must reproduce the DFT; both 1-D DCT tiers
//! (2N-point and Makhoul's N-point) and the row-column 2-D tiers must
//! reproduce the DCT/IDCT/IDXST definitions. The direct 2-D plan (paper
//! Algorithms 3-4: even/odd reordering + one 2-D real FFT, swept in lanes)
//! must reproduce the defining sums across shapes, including non-square
//! and minimum-size matrices, for all four transforms the density solver
//! uses; shapes it cannot serve must be structured errors; and the density
//! operator built on it must match the field oracle and stay bit-exact
//! across thread counts.

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_check::{
    charge_map_oracle, dct2_oracle, dct_oracle, dft_oracle, field_oracle, idct2_oracle,
    idct_idxst_oracle, idct_oracle, idxst_idct_oracle, idxst_oracle, movable_map_oracle,
    OracleGrid,
};
use dp_dct::dct1d::{Dct2nPlan, DctNPlan};
use dp_dct::dct2d::{Dct1dTier, RowColumnDct2d};
use dp_dct::{Dct2dPlan, FftPlan, RfftPlan};
use dp_density::{BinGrid, DctBackendKind, DensityOp, DensityStrategy, ElectroField};
use dp_gen::GeneratorConfig;
use dp_netlist::{Netlist, Placement};
use dp_num::Complex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts `|got - want| < tol` element-wise (absolute error).
fn assert_within(tag: &str, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!((g - w).abs() < tol, "{tag}: index {k}: {g} vs {w}");
    }
}

fn complex_ramp(n: usize) -> Vec<Complex<f64>> {
    (0..n)
        .map(|i| Complex::new(i as f64 + 0.5, (i as f64 * 0.3).sin()))
        .collect()
}

#[test]
fn fft_matches_dft_oracle() {
    for n in [2usize, 4, 8, 16, 64] {
        let x = complex_ramp(n);
        let want = dft_oracle(&x);
        let mut got = x.clone();
        FftPlan::new(n).expect("power of two").forward(&mut got);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((*g - *w).abs() < 1e-9 * n as f64, "n={n} k={k}");
        }
    }
}

#[test]
fn rfft_matches_full_complex_dft() {
    for n in [4usize, 8, 16, 64, 256] {
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.1 * i as f64)
            .collect();
        let xc: Vec<Complex<f64>> = x.iter().map(|&v| Complex::from(v)).collect();
        let want = dft_oracle(&xc);
        let got = RfftPlan::new(n).expect("power of two").forward(&x);
        assert_eq!(got.len(), n / 2 + 1);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (*g - *w).abs() < 1e-9 * n as f64,
                "n={n} k={k} got={g:?} want={w:?}"
            );
        }
    }
}

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.41).sin() - 0.2 * i as f64)
        .collect()
}

/// Both 1-D tiers (2N-point and N-point) against each 1-D definition.
#[test]
fn dct1d_tiers_match_oracles() {
    for n in [4usize, 8, 16, 32, 64, 128] {
        let x = signal(n);
        let two_n = Dct2nPlan::new(n).expect("pow2");
        let n_point = DctNPlan::new(n).expect("pow2");
        for (tag, want, got_2n, got_n) in [
            ("dct", dct_oracle(&x), two_n.dct(&x), n_point.dct(&x)),
            ("idct", idct_oracle(&x), two_n.idct(&x), n_point.idct(&x)),
            ("idxst", idxst_oracle(&x), two_n.idxst(&x), n_point.idxst(&x)),
        ] {
            assert_within(&format!("2N {tag} n={n}"), &got_2n, &want, 1e-9);
            assert_within(&format!("N {tag} n={n}"), &got_n, &want, 1e-9);
        }
    }
}

#[test]
fn row_column_matches_oracle_both_tiers() {
    let (n1, n2) = (8, 4);
    let x: Vec<f64> = (0..n1 * n2)
        .map(|i| (i as f64 * 0.13).sin() + 0.01 * i as f64)
        .collect();
    let want = dct2_oracle(&x, n1, n2);
    for tier in [Dct1dTier::TwoN, Dct1dTier::NPoint] {
        let plan = RowColumnDct2d::new(n1, n2, tier).expect("pow2");
        assert_within(&format!("row-column {tier:?}"), &plan.dct2(&x), &want, 1e-9);
    }
}

fn pow2(max_log: u32) -> impl Strategy<Value = usize> {
    (2u32..=max_log).prop_map(|k| 1usize << k)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Both fast 1-D DCT tiers match the Eq. (7a) definition.
    #[test]
    fn dct_tiers_match_oracle_on_random_inputs(n in pow2(7), seed in 0u64..1000) {
        let x: Vec<f64> = (0..n).map(|i| ((seed + i as u64) % 97) as f64 - 48.0).collect();
        let want = dct_oracle(&x);
        let got_2n = Dct2nPlan::new(n).expect("pow2").dct(&x);
        let got_n = DctNPlan::new(n).expect("pow2").dct(&x);
        for k in 0..n {
            prop_assert!((got_2n[k] - want[k]).abs() < 1e-8 * n as f64);
            prop_assert!((got_n[k] - want[k]).abs() < 1e-8 * n as f64);
        }
    }

    /// IDXST via Eq. (8e) matches the Eq. (8a) definition.
    #[test]
    fn idxst_matches_oracle_on_random_inputs(
        x in proptest::collection::vec(-100.0f64..100.0, 32),
    ) {
        let want = idxst_oracle(&x);
        let got = DctNPlan::new(32).expect("pow2").idxst(&x);
        for k in 0..32 {
            prop_assert!((got[k] - want[k]).abs() < 1e-8);
        }
    }

    /// The DCT is orthogonal up to scale: under the `2/N` normalization,
    /// `sum x^2 = N c_0^2 / 4 + N/2 sum_{k>0} c_k^2`.
    #[test]
    fn dct_energy_identity(x in proptest::collection::vec(-100.0f64..100.0, 64)) {
        let c = dct_oracle(&x);
        let time: f64 = x.iter().map(|v| v * v).sum();
        let n = x.len() as f64;
        let freq = n * c[0] * c[0] / 4.0
            + (n / 2.0) * c[1..].iter().map(|v| v * v).sum::<f64>();
        prop_assert!((time - freq).abs() < 1e-6 * time.max(1.0));
    }
}

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

/// The bit-contract the transform layer owes the flow: with fixed-point
/// scatters, the density operator's energy and gradient do not depend on
/// the thread count.
#[test]
fn density_op_is_bitwise_identical_across_threads() {
    let (nl, p) = design(32);
    let grid = BinGrid::new(nl.region(), MX, MY).expect("supported grid");
    let run = |threads: usize| {
        let mut op = DensityOp::with_backend(
            grid.clone(),
            DensityStrategy::Sorted,
            1.0,
            DctBackendKind::Direct2d,
        )
        .expect("grid");
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
