//! Fence regions via multiple electric fields (paper §III-G).
//!
//! The paper sketches the extension: "fence regions can be implemented by
//! introducing multiple electric fields, e.g., one for each region, to
//! enable independent spreading between regions." This module does exactly
//! that: each fence region gets its own [`DensityOp`] whose
//!
//! * movable charge is restricted to the cells assigned to the region
//!   (mask), and
//! * fixed charge additionally fills everything *outside* the fence
//!   rectangle, so the region's field pushes its cells inside.
//!
//! Unassigned cells live in the default region, for which every fence
//! rectangle is a blockage. The fence constraint is soft during global
//! placement (like the density constraint itself); legalization of fenced
//! designs is out of scope here, matching the paper's sketch.

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_dct::TransformError;
use dp_density::{BinGrid, DctBackendKind, DensityOp, DensityStrategy};
use dp_netlist::{Netlist, Placement, Rect};
use dp_num::Float;

/// A fence-region specification.
#[derive(Debug, Clone)]
pub struct FenceSpec<T> {
    /// Fence rectangles (exclusive regions).
    pub regions: Vec<Rect<T>>,
    /// Per movable cell: `Some(r)` assigns it to `regions[r]`, `None`
    /// leaves it in the default region.
    pub assignment: Vec<Option<u16>>,
}

impl<T: Float> FenceSpec<T> {
    /// Fraction of assigned cells whose centers lie inside their fence at
    /// the given placement — the quality metric for the soft constraint.
    pub fn containment(&self, p: &Placement<T>) -> f64 {
        let mut assigned = 0usize;
        let mut inside = 0usize;
        for (c, a) in self.assignment.iter().enumerate() {
            if let Some(r) = a {
                assigned += 1;
                let rect = self.regions[*r as usize];
                if rect.contains(dp_netlist::Point::new(p.x[c], p.y[c])) {
                    inside += 1;
                }
            }
        }
        if assigned == 0 {
            1.0
        } else {
            inside as f64 / assigned as f64
        }
    }
}

/// A density operator with one electric field per fence region plus a
/// default field; see the [module docs](self).
pub struct FencedDensityOp<T: Float> {
    /// One operator per region; the last one is the default region.
    ops: Vec<DensityOp<T>>,
    /// Blockage (area units) each region's fixed map must include, i.e.
    /// everything outside its fence (or all fences, for the default).
    extra_fixed: Vec<Vec<T>>,
    spec: FenceSpec<T>,
}

impl<T: Float> FencedDensityOp<T> {
    /// Builds the per-region operators.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] for unsupported grids.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the movable cell count
    /// or references an unknown region.
    pub fn new(
        nl: &Netlist<T>,
        grid: BinGrid<T>,
        strategy: DensityStrategy,
        target_density: T,
        backend: DctBackendKind,
        spec: FenceSpec<T>,
    ) -> Result<Self, TransformError> {
        let n = nl.num_movable();
        assert_eq!(spec.assignment.len(), n, "assignment length mismatch");
        for a in spec.assignment.iter().flatten() {
            assert!(
                (*a as usize) < spec.regions.len(),
                "unknown fence region {a}"
            );
        }
        let num_regions = spec.regions.len();
        let mut ops = Vec::with_capacity(num_regions + 1);
        let mut extra_fixed = Vec::with_capacity(num_regions + 1);

        for r in 0..=num_regions {
            // Region r for r < num_regions; default region otherwise.
            let mask: Vec<bool> = (0..n)
                .map(|c| match spec.assignment[c] {
                    Some(a) => (a as usize) == r,
                    None => r == num_regions,
                })
                .collect();
            let op = DensityOp::with_backend(grid.clone(), strategy, target_density, backend)?
                .with_mask(mask);

            // Blockage map: outside the fence (region ops) or inside every
            // fence (default op).
            let mut blockage = vec![T::ZERO; grid.num_bins()];
            for i in 0..grid.mx() {
                for j in 0..grid.my() {
                    let bin = grid.bin_rect(i, j);
                    let blocked = if r < num_regions {
                        bin.area() - bin.overlap_area(&spec.regions[r])
                    } else {
                        let mut covered = T::ZERO;
                        for fence in &spec.regions {
                            covered += bin.overlap_area(fence);
                        }
                        covered.min(bin.area())
                    };
                    blockage[grid.index(i, j)] = blocked;
                }
            }
            ops.push(op);
            extra_fixed.push(blockage);
        }
        Ok(Self {
            ops,
            extra_fixed,
            spec,
        })
    }

    /// The fence specification.
    pub fn spec(&self) -> &FenceSpec<T> {
        &self.spec
    }

    /// Bakes fixed-cell maps plus the fence blockages into every region op.
    pub fn bake_fixed(&mut self, nl: &Netlist<T>, p: &Placement<T>) {
        for (op, extra) in self.ops.iter_mut().zip(&self.extra_fixed) {
            op.bake_fixed(nl, p);
            op.add_fixed_density(extra);
        }
    }

    /// Area-weighted overflow across regions.
    pub fn overflow(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        self.combine(nl, |op| Some(op.overflow(nl, p, ctx)))
            .unwrap_or(T::ZERO)
    }

    /// [`FencedDensityOp::overflow`] of the maps the last forward pass
    /// built, one per region ([`DensityOp::last_overflow`]); `None` when a
    /// region with cells has none (uniform-field mode).
    pub fn last_overflow(&mut self, nl: &Netlist<T>) -> Option<T> {
        self.combine(nl, |op| op.last_overflow())
    }

    /// Weights each region's overflow by its share of movable area (the
    /// mask's area each region operator normalises by), so the combined
    /// value is comparable to the single-field overflow. Regions without
    /// movable area are skipped.
    fn combine(
        &mut self,
        nl: &Netlist<T>,
        mut region: impl FnMut(&mut DensityOp<T>) -> Option<T>,
    ) -> Option<T> {
        let mut total_area = T::ZERO;
        let mut acc = T::ZERO;
        for op in &mut self.ops {
            let area = op.movable_area(nl);
            if area > T::ZERO {
                acc += region(op)? * area;
                total_area += area;
            }
        }
        Some(if total_area > T::ZERO {
            acc / total_area
        } else {
            T::ZERO
        })
    }

    /// Whether the regions' operators run in uniform-field mode (they
    /// share one grid, so all or none do).
    pub fn is_uniform_field(&self) -> bool {
        self.ops.iter().any(DensityOp::is_uniform_field)
    }
}

impl<T: Float> Operator<T> for FencedDensityOp<T> {
    fn name(&self) -> &'static str {
        "fenced-density"
    }

    fn forward(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        self.ops.iter_mut().map(|op| op.forward(nl, p, ctx)).sum()
    }

    fn backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) {
        for op in self.ops.iter_mut() {
            op.backward(nl, p, grad, ctx);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_netlist::NetlistBuilder;

    fn design() -> (Netlist<f64>, Placement<f64>, FenceSpec<f64>) {
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let cells: Vec<_> = (0..8).map(|_| b.add_movable_cell(4.0, 4.0)).collect();
        b.add_net(1.0, vec![(cells[0], 0.0, 0.0), (cells[4], 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..8 {
            p.x[i] = 32.0;
            p.y[i] = 32.0;
        }
        // Left half fences cells 0-3, right half cells 4-7.
        let spec = FenceSpec {
            regions: vec![
                Rect::new(0.0, 0.0, 32.0, 64.0),
                Rect::new(32.0, 0.0, 64.0, 64.0),
            ],
            assignment: (0..8).map(|c| Some(if c < 4 { 0u16 } else { 1 })).collect(),
        };
        (nl, p, spec)
    }

    #[test]
    fn fence_fields_pull_cells_toward_their_regions() {
        let (nl, p, spec) = design();
        let grid = BinGrid::new(nl.region(), 16, 16).expect("pow2");
        let mut op = FencedDensityOp::new(
            &nl,
            grid,
            DensityStrategy::Sorted,
            1.0,
            DctBackendKind::Direct2d,
            spec,
        )
        .expect("builds");
        op.bake_fixed(&nl, &p);
        let mut ctx = ExecCtx::serial();
        let mut g = Gradient::zeros(nl.num_cells());
        let _ = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        // All cells sit on the boundary (x = 32): the left-fence cells must
        // be pushed left (positive gradient decreases x under descent) and
        // right-fence cells right.
        for c in 0..4 {
            assert!(g.x[c] > 0.0, "left cell {c}: {:?}", &g.x[..8]);
        }
        for c in 4..8 {
            assert!(g.x[c] < 0.0, "right cell {c}: {:?}", &g.x[..8]);
        }
    }

    #[test]
    fn containment_metric() {
        let (_nl, mut p, spec) = design();
        // Everyone on the boundary center counts as inside the left fence
        // only through <=; place properly instead.
        for c in 0..4 {
            p.x[c] = 16.0;
        }
        for c in 4..8 {
            p.x[c] = 48.0;
        }
        assert_eq!(spec.containment(&p), 1.0);
        p.x[0] = 60.0; // escapes its fence
        assert_eq!(spec.containment(&p), 7.0 / 8.0);
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn rejects_bad_assignment_length() {
        let (nl, _p, mut spec) = design();
        spec.assignment.pop();
        let grid = BinGrid::new(nl.region(), 8, 8).expect("pow2");
        let _ = FencedDensityOp::new(
            &nl,
            grid,
            DensityStrategy::Sorted,
            1.0,
            DctBackendKind::Direct2d,
            spec,
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod gp_integration_tests {
    use super::*;
    use crate::{GlobalPlacer, GpConfig};
    use dp_gen::GeneratorConfig;

    /// End-to-end: global placement with a two-fence specification confines
    /// most cells to their regions, while the unfenced run does not.
    #[test]
    fn fenced_gp_confines_cells() {
        let d = GeneratorConfig::new("fence-gp", 200, 220)
            .with_seed(8)
            .with_utilization(0.35)
            .generate::<f64>()
            .expect("valid");
        let nl = &d.netlist;
        let region = nl.region();
        let mid = (region.xl + region.xh) * 0.5;
        let spec = FenceSpec {
            regions: vec![
                Rect::new(region.xl, region.yl, mid, region.yh),
                Rect::new(mid, region.yl, region.xh, region.yh),
            ],
            // First half of the cells to the left fence, second half to
            // the right — fences contain related logic, and the generator's
            // nets connect nearby indices.
            assignment: (0..nl.num_movable())
                .map(|c| Some(u16::from(c >= nl.num_movable() / 2)))
                .collect(),
        };

        let mut cfg = GpConfig::auto(nl);
        cfg.max_iters = 800;
        cfg.target_overflow = 0.15;
        let plain = GlobalPlacer::new(cfg.clone())
            .place(nl, &d.fixed_positions)
            .expect("plain gp");
        cfg.fence = Some(spec.clone());
        let fenced = GlobalPlacer::new(cfg)
            .place(nl, &d.fixed_positions)
            .expect("fenced gp");

        let c_plain = spec.containment(&plain.placement);
        let c_fenced = spec.containment(&fenced.placement);
        assert!(
            c_fenced > 0.85,
            "fenced containment {c_fenced} (plain {c_plain})"
        );
        assert!(c_fenced > c_plain + 0.2, "{c_fenced} vs {c_plain}");
    }
}
