//! Property-based tests of the electrostatic density system.

use dp_density::{BinGrid, DctBackendKind, DensityMapBuilder, DensityStrategy, ElectroField};
use dp_netlist::{NetlistBuilder, Placement, Rect};
use dp_num::WorkerPool;
use proptest::prelude::*;

fn build(seed: u64, cells: usize) -> (dp_netlist::Netlist<f64>, Placement<f64>) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(0.0, 0.0, 128.0, 128.0);
    let handles: Vec<_> = (0..cells)
        .map(|_| b.add_movable_cell(rng.gen_range(1.0..10.0), 8.0))
        .collect();
    b.add_net(
        1.0,
        vec![(handles[0], 0.0, 0.0), (handles[1 % cells], 0.0, 0.0)],
    )
    .expect("valid");
    let nl = b.build().expect("valid");
    let mut p = Placement::zeros(nl.num_cells());
    for i in 0..cells {
        p.x[i] = rng.gen_range(10.0..118.0);
        p.y[i] = rng.gen_range(10.0..118.0);
    }
    (nl, p)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Total scattered charge equals total movable area, for any strategy
    /// and any placement inside the region.
    #[test]
    fn charge_conservation(seed in 0u64..10_000, cells in 2usize..60) {
        let (nl, p) = build(seed, cells);
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 128.0, 128.0), 16, 16).expect("pow2");
        for strategy in [
            DensityStrategy::Naive,
            DensityStrategy::Sorted,
            DensityStrategy::SortedSubthreads { tx: 2, ty: 2 },
        ] {
            let mut map = Vec::new();
            DensityMapBuilder::new(grid.clone(), strategy)
                .build_movable_into(&nl, &p, &WorkerPool::new(1), &mut map);
            let total: f64 = map.iter().sum();
            let want = nl.total_movable_area();
            prop_assert!((total - want).abs() < 1e-6 * want, "{strategy}: {total} vs {want}");
        }
    }

    /// The Poisson solve is linear in the density: solving a*rho gives
    /// a-scaled potential, field, and a^2-scaled energy.
    #[test]
    fn solver_linearity(seed in 0u64..1000, a in 0.1f64..10.0) {
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 8, 8).expect("pow2");
        let mut solver = ElectroField::new(&grid, DctBackendKind::Direct2d).expect("plan");
        let rho: Vec<f64> = (0..64)
            .map(|i| (((seed + i as u64) * 37) % 100) as f64 / 10.0)
            .collect();
        let scaled: Vec<f64> = rho.iter().map(|v| v * a).collect();
        let s1 = solver.solve(&rho);
        let s2 = solver.solve(&scaled);
        for (p1, p2) in solver.potential(&rho).iter().zip(&solver.potential(&scaled)) {
            prop_assert!((p2 - a * p1).abs() < 1e-7 * p1.abs().max(1.0));
        }
        for (f1, f2) in s1.field_x.iter().zip(&s2.field_x) {
            prop_assert!((f2 - a * f1).abs() < 1e-7 * f1.abs().max(1.0));
        }
        prop_assert!((s2.energy - a * a * s1.energy).abs() < 1e-6 * s1.energy.abs().max(1.0));
    }

    /// Energy is non-negative (the Poisson quadratic form is PSD after DC
    /// removal) and zero only for uniform density.
    #[test]
    fn energy_nonnegative(seed in 0u64..1000) {
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 8, 8).expect("pow2");
        let mut solver = ElectroField::new(&grid, DctBackendKind::Direct2d).expect("plan");
        let rho: Vec<f64> = (0..64)
            .map(|i| (((seed ^ i as u64) * 131) % 100) as f64 / 10.0)
            .collect();
        let sol = solver.solve(&rho);
        prop_assert!(sol.energy >= -1e-9, "energy {}", sol.energy);
    }

    /// Mirroring the density map along x mirrors the x field (with sign)
    /// and preserves the energy — a symmetry of the Neumann problem.
    #[test]
    fn mirror_symmetry(seed in 0u64..1000) {
        let m = 8usize;
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), m, m).expect("pow2");
        let mut solver = ElectroField::new(&grid, DctBackendKind::Direct2d).expect("plan");
        let rho: Vec<f64> = (0..m * m)
            .map(|i| (((seed + i as u64) * 53) % 100) as f64)
            .collect();
        let mut mirrored = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                mirrored[(m - 1 - i) * m + j] = rho[i * m + j];
            }
        }
        let s1 = solver.solve(&rho);
        let s2 = solver.solve(&mirrored);
        prop_assert!((s1.energy - s2.energy).abs() < 1e-6 * s1.energy.max(1.0));
        for i in 0..m {
            for j in 0..m {
                let a = s1.field_x[i * m + j];
                let b = -s2.field_x[(m - 1 - i) * m + j];
                prop_assert!((a - b).abs() < 1e-7 * a.abs().max(1.0), "({i},{j})");
            }
        }
    }
}
