//! Differential suite: the electrostatic density operator vs
//! definition-oracles.
//!
//! Covers, independently of `dp-density`'s and `dp-dct`'s internals:
//!
//! * scatter maps for every strategy (naive / sorted / sorted+subthreads),
//!   serial and parallel (fixed-point bins, to their quantization);
//! * the exact smoothing function against its restated definition;
//! * fixed (unsmoothed, clipped) maps and the overflow metric;
//! * potential / field / energy for all three DCT backends against the
//!   direct cosine-projection oracle;
//! * the backward gather against the oracle gradient;
//! * scatter, overflow and gather again at the benchmarked shape (256 x 256
//!   bins, cells a fraction of a bin to a few bins wide, one macro wider
//!   than the stencil's stack buffer);
//! * graceful errors for single-bin grids and numeric sanity on zero-area
//!   cells.

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_check::{
    charge_map_oracle, density_gradient_oracle, field_oracle, fixed_map_oracle,
    movable_map_oracle, overflow_oracle, smoothed_rect_oracle, OracleGrid,
};
use dp_density::{
    smoothed_footprint, BinGrid, DctBackendKind, DensityOp, DensityStrategy, ElectroField,
};
use dp_gen::adversarial::{adversarial_design, AdversarialCase};
use dp_gen::GeneratorConfig;
use dp_netlist::{Netlist, NetlistBuilder, Placement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MX: usize = 8;
const MY: usize = 8;

/// A design with explicit fixed macros and a deterministic random
/// placement strictly inside the region.
fn design(seed: u64) -> (Netlist<f64>, Placement<f64>) {
    let d = GeneratorConfig::new("density-diff", 80, 90)
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

fn grids(nl: &Netlist<f64>) -> (BinGrid<f64>, OracleGrid) {
    let grid = BinGrid::new(nl.region(), MX, MY).expect("supported grid");
    let oracle = OracleGrid::from_region(nl.region(), MX, MY);
    (grid, oracle)
}

/// Relative tolerance of a kernel density map (and what is computed from
/// it) against its oracle: the fixed-point bins round every update to
/// `2^-24` of a bin area.
const QUANT_TOL: f64 = 1e-6;

fn assert_maps_close(tag: &str, kernel: &[f64], oracle: &[f64], tol: f64) {
    assert_eq!(kernel.len(), oracle.len(), "{tag}: bin count mismatch");
    let scale = oracle.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (b, (k, o)) in kernel.iter().zip(oracle).enumerate() {
        assert!(
            (k - o).abs() / scale < tol,
            "{tag}: bin {b} kernel {k} vs oracle {o} (scale {scale})"
        );
    }
}

#[test]
fn smoothing_matches_restated_definition() {
    let (nl, p) = design(21);
    let (grid, og) = grids(&nl);
    for c in 0..nl.num_cells() {
        let fp = smoothed_footprint(p.x[c], p.y[c], nl.cell_widths()[c], nl.cell_heights()[c], &grid);
        let (rect, scale) =
            smoothed_rect_oracle(p.x[c], p.y[c], nl.cell_widths()[c], nl.cell_heights()[c], &og);
        assert!((fp.scale - scale).abs() < 1e-12, "cell {c} scale");
        if scale > 0.0 {
            for (got, want) in [fp.rect.xl, fp.rect.yl, fp.rect.xh, fp.rect.yh]
                .iter()
                .zip(rect)
            {
                assert!((got - want).abs() < 1e-12, "cell {c} rect {got} vs {want}");
            }
        }
    }
    // Degenerate inputs scatter nothing in both implementations.
    for (w, h) in [(f64::NAN, 1.0), (1.0, f64::INFINITY), (-1.0, 1.0)] {
        let fp = smoothed_footprint(5.0, 5.0, w, h, &grid);
        let (_, scale) = smoothed_rect_oracle(5.0, 5.0, w, h, &og);
        assert_eq!(fp.scale, 0.0);
        assert_eq!(scale, 0.0);
    }
}

#[test]
fn scatter_map_matches_oracle_for_all_strategies() {
    let (nl, p) = design(22);
    let (grid, og) = grids(&nl);
    let oracle = movable_map_oracle(&nl, &p, &og);
    for strategy in [
        DensityStrategy::Naive,
        DensityStrategy::Sorted,
        DensityStrategy::SortedSubthreads { tx: 2, ty: 2 },
    ] {
        for threads in [1usize, 4] {
            let mut op = DensityOp::new(grid.clone(), strategy, 1.0).expect("supported grid");
            let mut ctx = ExecCtx::new(threads);
            let _ = op.forward(&nl, &p, &mut ctx);
            let map = op.last_density_map().expect("map cached after forward");
            assert_maps_close(&format!("{strategy} threads {threads}"), &map, &oracle, QUANT_TOL);
        }
    }
}

#[test]
fn fixed_map_and_overflow_match_oracle() {
    // Hand-built design: a macro overhanging the region boundary must only
    // count its inside part; movable cells overflow a small target.
    let mut b = NetlistBuilder::new(0.0, 0.0, 32.0, 32.0);
    let a = b.add_movable_cell(3.0, 3.0);
    let c = b.add_movable_cell(3.0, 3.0);
    let m = b.add_fixed_cell(10.0, 6.0);
    b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0), (m, 0.0, 0.0)])
        .expect("valid");
    let nl = b.build().expect("valid");
    let mut p = Placement::zeros(nl.num_cells());
    p.x = vec![16.0, 17.0, 2.0]; // macro center near the left edge: clipped
    p.y = vec![16.0, 15.0, 16.0];

    let (grid, og) = grids(&nl);
    let fixed_oracle = fixed_map_oracle(&nl, &p, &og);
    let clipped: f64 = fixed_oracle.iter().sum();
    assert!((clipped - 7.0 * 6.0).abs() < 1e-9, "clipped macro area {clipped}");

    let mut op = DensityOp::new(grid, DensityStrategy::Sorted, 0.02).expect("supported grid");
    op.bake_fixed(&nl, &p);
    let mut ctx = ExecCtx::serial();
    let _ = op.forward(&nl, &p, &mut ctx);
    let combined = op.last_density_map().expect("map cached after forward");
    let movable_oracle = movable_map_oracle(&nl, &p, &og);
    let combined_oracle: Vec<f64> = movable_oracle
        .iter()
        .zip(&fixed_oracle)
        .map(|(m, f)| m + f)
        .collect();
    assert_maps_close("movable+fixed", &combined, &combined_oracle, QUANT_TOL);

    let tau = op.overflow(&nl, &p, &mut ctx);
    let tau_oracle = overflow_oracle(&nl, &movable_oracle, Some(&fixed_oracle), &og, 0.02);
    assert!(
        (tau - tau_oracle).abs() < QUANT_TOL,
        "overflow {tau} vs oracle {tau_oracle}"
    );
    assert!(tau_oracle > 0.0, "stacked cells at target 0.02 must overflow");
}

#[test]
fn field_solve_matches_oracle_for_all_backends() {
    let (nl, p) = design(23);
    let (grid, og) = grids(&nl);
    let movable = movable_map_oracle(&nl, &p, &og);
    let rho = charge_map_oracle(&movable, None, &og);
    let oracle = field_oracle(&rho, MX, MY);
    for backend in [
        DctBackendKind::RowColumn2n,
        DctBackendKind::RowColumnN,
        DctBackendKind::Direct2d,
    ] {
        let mut solver = ElectroField::<f64>::new(&grid, backend).expect("supported grid");
        let sol = solver.solve(&rho);
        let potential = solver.potential(&rho);
        assert_maps_close(&format!("{backend:?} potential"), &potential, &oracle.potential, 1e-9);
        assert_maps_close(&format!("{backend:?} field_x"), &sol.field_x, &oracle.field_x, 1e-9);
        assert_maps_close(&format!("{backend:?} field_y"), &sol.field_y, &oracle.field_y, 1e-9);
        let scale = oracle.energy.abs().max(1e-12);
        assert!(
            (sol.energy - oracle.energy).abs() / scale < 1e-9,
            "{backend:?}: energy {} vs oracle {}",
            sol.energy,
            oracle.energy
        );
    }
}

#[test]
fn forward_energy_and_backward_gather_match_oracle() {
    let (nl, p) = design(24);
    let (grid, og) = grids(&nl);
    let movable = movable_map_oracle(&nl, &p, &og);
    let rho = charge_map_oracle(&movable, None, &og);
    let field = field_oracle(&rho, MX, MY);
    let (ogx, ogy) = density_gradient_oracle(&nl, &p, &og, &field.field_x, &field.field_y);

    for backend in [
        DctBackendKind::RowColumn2n,
        DctBackendKind::RowColumnN,
        DctBackendKind::Direct2d,
    ] {
        for threads in [1usize, 4] {
            let mut op = DensityOp::with_backend(grid.clone(), DensityStrategy::Sorted, 1.0, backend)
                .expect("supported grid");
            let mut ctx = ExecCtx::new(threads);
            let mut grad = Gradient::zeros(nl.num_cells());
            let energy = op.forward_backward(&nl, &p, &mut grad, &mut ctx);
            // The oracle solves its own unquantized map.
            let scale = field.energy.abs().max(1e-12);
            assert!(
                (energy - field.energy).abs() / scale < QUANT_TOL,
                "{backend:?} threads {threads}: energy {energy} vs oracle {}",
                field.energy
            );
            let gscale = ogx
                .iter()
                .chain(&ogy)
                .fold(1e-12f64, |m, v| m.max(v.abs()));
            for c in 0..nl.num_movable() {
                assert!(
                    (grad.x[c] - ogx[c]).abs() / gscale < QUANT_TOL,
                    "{backend:?} threads {threads}: cell {c} grad_x {} vs oracle {}",
                    grad.x[c],
                    ogx[c]
                );
                assert!(
                    (grad.y[c] - ogy[c]).abs() / gscale < QUANT_TOL,
                    "{backend:?} threads {threads}: cell {c} grad_y {} vs oracle {}",
                    grad.y[c],
                    ogy[c]
                );
            }
        }
    }
}

#[test]
fn fine_grid_scatter_overflow_and_gather_match_oracles() {
    // `dp-perf`'s `density_bound` shape: 4-unit bins, cells 1-16 sites wide
    // and two bins tall, so most footprints are the smoothed minimum. One
    // movable macro spans 24 x 20 bins (past the stencil's 16-row stack
    // buffer), two fixed macros block capacity, one of them overhanging.
    const M: usize = 256;
    let mut rng = StdRng::seed_from_u64(0x256);
    let mut b = NetlistBuilder::new(0.0, 0.0, 1024.0, 1024.0);
    let cells: Vec<_> = (0..400)
        .map(|_| b.add_movable_cell(rng.gen_range(1..=16) as f64, 8.0))
        .collect();
    let big = b.add_movable_cell(96.0, 80.0);
    let f0 = b.add_fixed_cell(120.0, 90.0);
    let f1 = b.add_fixed_cell(64.0, 64.0);
    let pins = [cells[0], big, f0, f1].map(|c| (c, 0.0, 0.0));
    b.add_net(1.0, pins.to_vec()).expect("valid");
    let nl = b.build().expect("valid");
    let mut p = Placement::zeros(nl.num_cells());
    for c in 0..nl.num_movable() {
        // A clustered blob (so bins overflow) with a few cells over the edge.
        p.x[c] = rng.gen_range(380.0..640.0);
        p.y[c] = rng.gen_range(380.0..640.0);
    }
    for (c, xy) in [(0, (1.0, 2.0)), (1, (1023.5, 700.0)), (2, (512.0, 1026.0))] {
        (p.x[c], p.y[c]) = xy;
    }
    (p.x[401], p.y[401]) = (500.0, 520.0);
    (p.x[402], p.y[402]) = (1000.0, 300.0); // overhangs the right edge

    let grid = BinGrid::new(nl.region(), M, M).expect("supported grid");
    let og = OracleGrid::from_region(nl.region(), M, M);
    let movable_oracle = movable_map_oracle(&nl, &p, &og);
    let fixed_oracle = fixed_map_oracle(&nl, &p, &og);
    let combined_oracle: Vec<f64> = movable_oracle
        .iter()
        .zip(&fixed_oracle)
        .map(|(m, f)| m + f)
        .collect();
    let tau_oracle = overflow_oracle(&nl, &movable_oracle, Some(&fixed_oracle), &og, 0.9);
    assert!(tau_oracle > 0.1, "the blob must overflow: {tau_oracle}");

    for strategy in [
        DensityStrategy::Naive,
        DensityStrategy::Sorted,
        DensityStrategy::SortedSubthreads { tx: 2, ty: 2 },
    ] {
        for threads in [1usize, 4] {
            let tag = format!("{strategy} threads {threads}");
            let mut op = DensityOp::new(grid.clone(), strategy, 0.9).expect("supported grid");
            op.bake_fixed(&nl, &p);
            let mut ctx = ExecCtx::new(threads);
            let mut grad = Gradient::zeros(nl.num_cells());
            let _ = op.forward_backward(&nl, &p, &mut grad, &mut ctx);
            let map = op.last_density_map().expect("map cached after forward");
            assert_maps_close(&tag, &map, &combined_oracle, QUANT_TOL);

            let tau = op.overflow(&nl, &p, &mut ctx);
            assert!(
                (tau - tau_oracle).abs() < QUANT_TOL,
                "{tag}: overflow {tau} vs oracle {tau_oracle}"
            );

            // The gather does not depend on the scatter strategy, and
            // its all-bins oracle is the slow part of this test.
            if strategy != DensityStrategy::Sorted {
                continue;
            }
            // The explicit spectral sums of `field_oracle` are O(bins^2)
            // and out of reach at 65536 bins; the solver is pinned to
            // them at 8 x 8 above, so the gather is checked against the
            // oracle gradient of the solver's field for the kernel's map.
            let inv_bin = 1.0 / og.bin_area();
            let rho: Vec<f64> = map.iter().map(|a| a * inv_bin).collect();
            let sol = ElectroField::<f64>::new(&grid, DctBackendKind::Direct2d)
                .expect("supported grid")
                .solve(&rho);
            let (ogx, ogy) = density_gradient_oracle(&nl, &p, &og, &sol.field_x, &sol.field_y);
            let gscale = ogx.iter().chain(&ogy).fold(1e-12f64, |m, v| m.max(v.abs()));
            for c in 0..nl.num_movable() {
                assert!(
                    (grad.x[c] - ogx[c]).abs() / gscale < 1e-9
                        && (grad.y[c] - ogy[c]).abs() / gscale < 1e-9,
                    "{tag}: cell {c} grad ({}, {}) vs oracle ({}, {})",
                    grad.x[c],
                    grad.y[c],
                    ogx[c],
                    ogy[c]
                );
            }
        }
    }
}

#[test]
fn zero_area_cells_are_inert() {
    let d = adversarial_design::<f64>(AdversarialCase::ZeroAreaCells, 9).expect("valid");
    let nl = &d.design.netlist;
    let (grid, og) = grids(nl);
    let oracle = movable_map_oracle(nl, &d.placement, &og);
    let mut op = DensityOp::new(grid, DensityStrategy::Sorted, 1.0).expect("supported grid");
    let mut ctx = ExecCtx::serial();
    let mut grad = Gradient::zeros(nl.num_cells());
    let energy = op.forward_backward(nl, &d.placement, &mut grad, &mut ctx);
    assert!(energy.is_finite());
    let map = op.last_density_map().expect("map cached after forward");
    assert_maps_close("zero-area scatter", &map, &oracle, QUANT_TOL);
    // Fully zero-area cells feel no density force at all.
    for c in 0..nl.num_movable() {
        let area = nl.cell_widths()[c] * nl.cell_heights()[c];
        if area == 0.0 && nl.cell_widths()[c] == 0.0 && nl.cell_heights()[c] == 0.0 {
            assert_eq!(grad.x[c], 0.0, "cell {c}");
            assert_eq!(grad.y[c], 0.0, "cell {c}");
        }
        assert!(grad.x[c].is_finite() && grad.y[c].is_finite(), "cell {c}");
    }
}

#[test]
fn single_bin_grids_build_in_uniform_field_mode() {
    let d = adversarial_design::<f64>(AdversarialCase::SingleBinGrid, 3).expect("valid");
    let region = d.design.netlist.region();
    // The first suggested shape is the minimal legal grid...
    let (mx, my) = d.suggested_bins[0];
    let grid = BinGrid::new(region, mx, my).expect("minimal legal grid");
    let og = OracleGrid::from_region(region, mx, my);
    let mut op = DensityOp::new(grid, DensityStrategy::Sorted, 1.0).expect("supported grid");
    let mut ctx = ExecCtx::serial();
    let _ = op.forward(&d.design.netlist, &d.placement, &mut ctx);
    let map = op.last_density_map().expect("map cached after forward");
    let oracle = movable_map_oracle(&d.design.netlist, &d.placement, &og);
    assert_maps_close("minimal grid scatter", &map, &oracle, QUANT_TOL);
    // ...the rest are sub-spectral single-bin shapes: they now build, but
    // flag that the spectral solve must be skipped (uniform-field mode).
    for &(mx, my) in &d.suggested_bins[1..] {
        let g = BinGrid::new(region, mx, my).expect("degenerate grid builds");
        assert!(
            !g.supports_spectral_solve(),
            "grid {mx}x{my} must be flagged sub-spectral"
        );
    }
}
