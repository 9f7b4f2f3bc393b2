//! The density penalty operator `D(x, y)` of paper Eq. (2).
//!
//! Forward: density map -> DCT -> scaled spectrum -> fields + energy (paper
//! Fig. 4b, minus the potential IDCT: the energy is summed over the
//! spectrum).
//! Backward: field gather per cell, the "dynamic bipartite graph backward"
//! of §III-B2 — each cell collects the force from its overlapped bins,
//! weighted by overlap area.

use std::sync::Arc;

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_dct::TransformError;
use dp_netlist::{Netlist, Placement};
use dp_num::parallel::DisjointSlice;
use dp_num::Float;

use crate::bins::BinGrid;
use crate::electro::{DctBackendKind, ElectroField, FieldSolution};
use crate::map::{for_each_overlap, smoothed_footprint, DensityMapBuilder, DensityStrategy};

/// The electrostatic density operator.
///
/// The returned cost is the system energy `0.5 * sum_b rho_b * psi_b` (in
/// bin units); its gradient with respect to a cell position is the negative
/// electric force on the cell's charge. Use [`DensityOp::bake_fixed`] once
/// before placement so fixed macros repel movable cells, and
/// [`DensityOp::overflow`] for the stopping criterion.
///
/// See the crate-level example.
pub struct DensityOp<T: Float> {
    builder: DensityMapBuilder<T>,
    /// `None` on grids below the spectral minimum ([`BinGrid::
    /// supports_spectral_solve`]): the operator then runs in uniform-field
    /// mode — zero energy, zero field, overflow still exact.
    solver: Option<ElectroField<T>>,
    target_density: T,
    fixed_map: Option<Vec<T>>,
    /// Optional movable-cell mask (fence regions): only masked cells carry
    /// charge and receive force.
    mask: Option<Vec<bool>>,
    /// Last movable-only density map (area units), kept for overflow.
    last_movable_map: Option<Vec<T>>,
    /// Last field solution, reused by `backward` after a `forward`.
    cache: Option<FieldSolution<T>>,
}

impl<T: Float> DensityOp<T> {
    /// Creates the operator with the default DCT tier (direct 2-D).
    ///
    /// `target_density` is the `d_t` of paper Eq. (1b), in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] if the grid shape is unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `target_density` is not in `(0, 1]`.
    pub fn new(
        grid: BinGrid<T>,
        strategy: DensityStrategy,
        target_density: T,
    ) -> Result<Self, TransformError> {
        Self::with_backend(grid, strategy, target_density, DctBackendKind::Direct2d)
    }

    /// Creates the operator with an explicit DCT tier (Fig. 11/12 benches).
    ///
    /// On grids below the spectral minimum (single-bin shapes like
    /// `(1, 1)`/`(1, 4)`/`(2, 1)`) no transform plan is built and the
    /// operator runs in **uniform-field mode**: the density a sub-minimum
    /// grid resolves is constant per bin row/column, so the correct field
    /// is zero everywhere — forward returns zero energy, backward adds no
    /// force, and only [`DensityOp::overflow`] (which needs no solve)
    /// stays active. [`DensityOp::is_uniform_field`] reports the mode.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] if the grid shape is unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `target_density` is not in `(0, 1]`.
    pub fn with_backend(
        grid: BinGrid<T>,
        strategy: DensityStrategy,
        target_density: T,
        backend: DctBackendKind,
    ) -> Result<Self, TransformError> {
        assert!(
            target_density > T::ZERO && target_density <= T::ONE,
            "target density must be in (0, 1]"
        );
        let solver = if grid.supports_spectral_solve() {
            Some(ElectroField::new(&grid, backend)?)
        } else {
            None
        };
        Ok(Self {
            builder: DensityMapBuilder::new(grid, strategy),
            solver,
            target_density,
            fixed_map: None,
            mask: None,
            last_movable_map: None,
            cache: None,
        })
    }

    /// Enables deterministic fixed-point density accumulation (bitwise
    /// run-to-run reproducible scatters; paper §V future work).
    pub fn with_deterministic(mut self, deterministic: bool) -> Self {
        self.builder.set_deterministic(deterministic);
        self
    }

    /// Restricts the operator to cells with `mask[c] == true`: only those
    /// scatter charge and receive force (fence-region support, §III-G).
    pub fn with_mask(mut self, mask: Vec<bool>) -> Self {
        self.builder.set_mask(Some(mask.clone()));
        self.mask = Some(mask);
        self
    }

    /// The bin grid.
    pub fn grid(&self) -> &BinGrid<T> {
        self.builder.grid()
    }

    /// `true` when the grid is below the spectral minimum and the operator
    /// degraded to the uniform-field mode (zero energy and force).
    pub fn is_uniform_field(&self) -> bool {
        self.solver.is_none()
    }

    /// The target density `d_t`.
    pub fn target_density(&self) -> T {
        self.target_density
    }

    /// Precomputes the fixed-cell density map from the (immutable) fixed
    /// cell positions. Call once before the placement loop.
    pub fn bake_fixed(&mut self, nl: &Netlist<T>, p: &Placement<T>) {
        self.fixed_map = Some(self.builder.build_fixed(nl, p));
    }

    /// Adds extra fixed density (area units per bin) on top of the baked
    /// fixed-cell map — used by fence regions to block the area outside a
    /// fence.
    ///
    /// # Panics
    ///
    /// Panics if `extra` does not match the bin count.
    pub fn add_fixed_density(&mut self, extra: &[T]) {
        assert_eq!(extra.len(), self.grid().num_bins(), "bin count mismatch");
        match &mut self.fixed_map {
            Some(map) => {
                for (m, e) in map.iter_mut().zip(extra) {
                    *m += *e;
                }
            }
            None => self.fixed_map = Some(extra.to_vec()),
        }
    }

    /// The total density map (movable + fixed) of the last forward pass,
    /// in area units, or `None` before the first forward.
    pub fn last_density_map(&self) -> Option<Vec<T>> {
        let movable = self.last_movable_map.as_ref()?;
        let mut map = movable.clone();
        if let Some(fixed) = &self.fixed_map {
            for (m, f) in map.iter_mut().zip(fixed) {
                *m += *f;
            }
        }
        Some(map)
    }

    /// ePlace's density overflow
    /// `tau = sum_b max(0, rho_b - capacity_b) / total movable area`,
    /// where a bin's capacity is the target density times the bin area not
    /// blocked by fixed cells. This is the global placement stopping
    /// criterion (RePlAce stops near `tau = 0.07..0.10`).
    pub fn overflow(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        let t0 = ctx.op_timer();
        let pool = Arc::clone(ctx.pool());
        let mut movable = self.last_movable_map.take().unwrap_or_default();
        self.builder.build_movable_into(nl, p, &pool, &mut movable);
        let overflow = self.overflow_of_map(nl, &movable);
        self.last_movable_map = Some(movable);
        ctx.record_op("density.overflow", t0);
        overflow
    }

    fn overflow_of_map(&self, nl: &Netlist<T>, movable: &[T]) -> T {
        let bin_area = self.grid().bin_area();
        let capacity = |fixed: T| (self.target_density * (bin_area - fixed)).max(T::ZERO);
        let mut over = T::ZERO;
        match &self.fixed_map {
            Some(fixed) => {
                for (m, f) in movable.iter().zip(fixed) {
                    over += (*m - capacity(*f)).max(T::ZERO);
                }
            }
            None => {
                // No fixed map baked: every bin has the full capacity.
                let full = capacity(T::ZERO);
                for m in movable {
                    over += (*m - full).max(T::ZERO);
                }
            }
        }
        let area: T = match &self.mask {
            Some(mask) => (0..nl.num_movable())
                .filter(|&c| mask[c])
                .map(|c| nl.cell_widths()[c] * nl.cell_heights()[c])
                .sum(),
            None => nl.total_movable_area(),
        };
        // No movable area (empty mask or all zero-area cells) means nothing
        // can overflow; dividing would turn the stopping criterion into NaN.
        // (A NaN area still yields NaN so the divergence tripwire fires.)
        if area <= T::ZERO {
            return T::ZERO;
        }
        over / area
    }

    /// Builds the charge map used for the field solve into `rho`: movable
    /// (smoothed) plus fixed contributions, in density units
    /// (area / bin area).
    fn charge_map_into(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        pool: &dp_num::WorkerPool,
        rho: &mut Vec<T>,
    ) {
        let mut movable = self.last_movable_map.take().unwrap_or_default();
        self.builder.build_movable_into(nl, p, pool, &mut movable);
        let inv_bin = T::ONE / self.grid().bin_area();
        rho.clear();
        match &self.fixed_map {
            Some(fixed) => rho.extend(
                movable
                    .iter()
                    .zip(fixed)
                    .map(|(&m, &f)| m * inv_bin + f * inv_bin),
            ),
            None => rho.extend(movable.iter().map(|&m| m * inv_bin)),
        }
        self.last_movable_map = Some(movable);
    }
}

impl<T: Float> Operator<T> for DensityOp<T> {
    fn name(&self) -> &'static str {
        "density"
    }

    fn forward(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        let t0 = ctx.op_timer();
        if self.solver.is_none() {
            // Uniform-field mode: a sub-minimum grid cannot resolve a
            // non-uniform density, so field and energy are identically
            // zero; there is nothing to scatter or solve.
            ctx.record_op("density.forward", t0);
            return T::ZERO;
        }
        let pool = Arc::clone(ctx.pool());
        let bins_reused = self.builder.bins_bytes() > 0;
        let dct_reused = self.solver.as_ref().is_some_and(|s| s.scratch_bytes() > 0);
        let sol_reused = self.cache.is_some();
        let mut rho = ctx.lease("density.rho", self.grid().num_bins());
        self.charge_map_into(nl, p, &pool, &mut rho);
        // Reuse the previous solution's buffers as the solve target.
        let mut sol = self.cache.take().unwrap_or_default();
        if let Some(solver) = &mut self.solver {
            solver.solve_into(&rho, &mut sol);
            // The direct 2-D transforms accumulate a transpose/butterfly/
            // twiddle split inside the solve; mirror it into the op counters
            // so the run report can break transform time down by phase (the
            // row-column comparison tiers carry no timers and report zero).
            let phases = solver.take_transform_phases();
            if phases.total_nanos() > 0 {
                ctx.record_op_nanos("density.dct.transpose", phases.transpose_nanos);
                ctx.record_op_nanos("density.dct.butterfly", phases.butterfly_nanos);
                ctx.record_op_nanos("density.dct.twiddle", phases.twiddle_nanos);
            }
        }
        let energy = sol.energy;
        ctx.note_workspace("density.bins", self.builder.bins_bytes(), bins_reused);
        ctx.note_workspace(
            "density.dct_scratch",
            self.solver.as_ref().map_or(0, |s| s.scratch_bytes()),
            dct_reused,
        );
        ctx.note_workspace("density.solution", sol.bytes(), sol_reused);
        self.cache = Some(sol);
        ctx.release("density.rho", rho);
        ctx.record_op("density.forward", t0);
        energy
    }

    fn backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) {
        if self.cache.is_none() {
            let _ = self.forward(nl, p, ctx);
        }
        let t0 = ctx.op_timer();
        let Some(sol) = self.cache.take() else {
            // Uniform-field mode never populates the cache: the force is
            // identically zero, so the gradient is untouched.
            return;
        };
        let pool = Arc::clone(ctx.pool());
        let grid = self.grid().clone();
        let n_mov = nl.num_movable();
        let inv_bin = T::ONE / grid.bin_area();
        let (bw, bh) = (grid.bin_width(), grid.bin_height());
        {
            let gx = DisjointSlice::new(&mut grad.x);
            let gy = DisjointSlice::new(&mut grad.y);
            let field_x = &sol.field_x;
            let field_y = &sol.field_y;
            let mask = self.mask.as_deref();
            pool.run(n_mov, pool.chunk_for(n_mov), |range| {
                for c in range {
                    if let Some(mask) = mask {
                        if !mask[c] {
                            continue;
                        }
                    }
                    let fp = smoothed_footprint(
                        p.x[c],
                        p.y[c],
                        nl.cell_widths()[c],
                        nl.cell_heights()[c],
                        &grid,
                    );
                    let (is, js) = grid.overlapped_bins(&fp.rect);
                    let mut fx = T::ZERO;
                    let mut fy = T::ZERO;
                    for_each_overlap(&grid, &fp.rect, is, js, |idx, a| {
                        if a > T::ZERO {
                            let q = a * fp.scale * inv_bin;
                            fx += q * field_x[idx];
                            fy += q * field_y[idx];
                        }
                    });
                    // Gradient = -force; convert from bin units to layout
                    // units (one bin along x spans bin_width layout units).
                    // SAFETY: cell index `c` is unique to this chunk.
                    unsafe {
                        gx.write(c, gx.read(c) - fx / bw);
                        gy.write(c, gy.read(c) - fy / bh);
                    }
                }
            });
        }
        self.cache = Some(sol);
        ctx.record_op("density.backward", t0);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_autograd::ExecCtx;
    use dp_netlist::{NetlistBuilder, Rect};

    fn grid(m: usize) -> BinGrid<f64> {
        BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), m, m).expect("pow2")
    }

    fn two_cell_design() -> (Netlist<f64>, Placement<f64>) {
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let a = b.add_movable_cell(8.0, 8.0);
        let c = b.add_movable_cell(8.0, 8.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        (nl, Placement::zeros(2))
    }

    #[test]
    fn overlapping_cells_repel() {
        let mut ctx = ExecCtx::serial();
        let (nl, mut p) = two_cell_design();
        // Slightly offset overlapping cells near the center.
        p.x = vec![30.0, 34.0];
        p.y = vec![32.0, 32.0];
        let mut op = DensityOp::new(grid(16), DensityStrategy::Sorted, 1.0).expect("plan");
        let mut g = Gradient::zeros(2);
        let energy = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        assert!(energy > 0.0);
        // Gradient descent moves cells opposite the gradient: the left cell
        // must be pushed left (positive gradient) and the right cell right.
        assert!(g.x[0] > 0.0, "left cell gradient {:?}", g.x);
        assert!(g.x[1] < 0.0, "right cell gradient {:?}", g.x);
    }

    #[test]
    fn spread_cells_have_lower_energy() {
        let mut ctx = ExecCtx::serial();
        let (nl, mut p) = two_cell_design();
        let mut op = DensityOp::new(grid(16), DensityStrategy::Sorted, 1.0).expect("plan");
        p.x = vec![32.0, 32.0];
        p.y = vec![32.0, 32.0];
        let stacked = op.forward(&nl, &p, &mut ctx);
        p.x = vec![16.0, 48.0];
        let spread = op.forward(&nl, &p, &mut ctx);
        assert!(spread < stacked, "spread {spread} vs stacked {stacked}");
    }

    #[test]
    fn gradient_direction_matches_finite_differences() {
        let mut ctx = ExecCtx::serial();
        // The gathered force approximates the discrete cost's gradient; we
        // check directional agreement rather than exact equality.
        let (nl, mut p) = two_cell_design();
        p.x = vec![28.0, 36.0];
        p.y = vec![30.0, 34.0];
        let mut op = DensityOp::new(grid(16), DensityStrategy::Sorted, 1.0).expect("plan");
        let mut g = Gradient::zeros(2);
        let _ = op.forward_backward(&nl, &p, &mut g, &mut ctx);

        let eps = 0.5; // half a bin is a robust probe for the smoothed map
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for i in 0..2 {
            for axis in 0..2 {
                let coord = if axis == 0 { &mut p.x } else { &mut p.y };
                let orig = coord[i];
                coord[i] = orig + eps;
                let fp = op.forward(&nl, &p, &mut ctx);
                let coord = if axis == 0 { &mut p.x } else { &mut p.y };
                coord[i] = orig - eps;
                let fm = op.forward(&nl, &p, &mut ctx);
                let coord = if axis == 0 { &mut p.x } else { &mut p.y };
                coord[i] = orig;
                let fd = (fp - fm) / (2.0 * eps);
                let an = if axis == 0 { g.x[i] } else { g.y[i] };
                dot += fd * an;
                na += an * an;
                nb += fd * fd;
            }
        }
        let cosine = dot / (na.sqrt() * nb.sqrt());
        assert!(cosine > 0.95, "cosine similarity {cosine}");
    }

    #[test]
    fn overflow_decreases_when_spreading() {
        let mut ctx = ExecCtx::serial();
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let cells: Vec<_> = (0..16).map(|_| b.add_movable_cell(8.0, 8.0)).collect();
        b.add_net(1.0, vec![(cells[0], 0.0, 0.0), (cells[1], 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut op = DensityOp::new(grid(16), DensityStrategy::Sorted, 1.0).expect("plan");

        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..16 {
            p.x[i] = 32.0;
            p.y[i] = 32.0;
        }
        let stacked = op.overflow(&nl, &p, &mut ctx);
        for i in 0..16 {
            p.x[i] = 8.0 + 16.0 * (i % 4) as f64;
            p.y[i] = 8.0 + 16.0 * (i / 4) as f64;
        }
        let spread = op.overflow(&nl, &p, &mut ctx);
        assert!(stacked > 0.5, "stacked overflow {stacked}");
        assert!(spread < stacked * 0.2, "spread overflow {spread}");
    }

    #[test]
    fn fixed_macro_repels_movable_cell() {
        let mut ctx = ExecCtx::serial();
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let a = b.add_movable_cell(4.0, 4.0);
        let c = b.add_movable_cell(4.0, 4.0);
        let f = b.add_fixed_cell(24.0, 24.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0), (f, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        p.x = vec![20.0, 44.0, 32.0];
        p.y = vec![32.0, 32.0, 32.0]; // macro at center, cells at its flanks
        let mut op = DensityOp::new(grid(16), DensityStrategy::Sorted, 1.0).expect("plan");
        op.bake_fixed(&nl, &p);
        let mut g = Gradient::zeros(nl.num_cells());
        let _ = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        // The macro pushes the left cell further left, the right cell right.
        assert!(g.x[0] > 0.0);
        assert!(g.x[1] < 0.0);
    }

    #[test]
    fn overflow_respects_fixed_capacity() {
        let mut ctx = ExecCtx::serial();
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let a = b.add_movable_cell(8.0, 8.0);
        let c = b.add_movable_cell(8.0, 8.0);
        let f = b.add_fixed_cell(16.0, 16.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0), (f, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        p.x = vec![32.0, 32.0, 32.0];
        p.y = vec![32.0, 32.0, 32.0]; // movable cells sit on the macro
        let mut with_fixed = DensityOp::new(grid(16), DensityStrategy::Sorted, 1.0).expect("plan");
        with_fixed.bake_fixed(&nl, &p);
        let mut without_fixed =
            DensityOp::new(grid(16), DensityStrategy::Sorted, 1.0).expect("plan");
        let tau_with = with_fixed.overflow(&nl, &p, &mut ctx);
        let tau_without = without_fixed.overflow(&nl, &p, &mut ctx);
        assert!(tau_with > tau_without, "{tau_with} vs {tau_without}");
    }

    #[test]
    #[should_panic(expected = "target density")]
    fn rejects_bad_target_density() {
        let _ = DensityOp::<f64>::new(grid(8), DensityStrategy::Naive, 0.0);
    }

    fn uniform_mode_case(mx: usize, my: usize) {
        let mut ctx = ExecCtx::serial();
        let (nl, mut p) = two_cell_design();
        p.x = vec![30.0, 34.0];
        p.y = vec![32.0, 32.0];
        let g = BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), mx, my).expect("degenerate shape");
        let mut op = DensityOp::new(g, DensityStrategy::Sorted, 1.0).expect("uniform mode");
        assert!(op.is_uniform_field(), "({mx},{my})");
        // Forward/backward are exact zeros — the field a sub-minimum grid
        // resolves is uniform — while overflow stays a real number.
        let mut grad = Gradient::zeros(2);
        let energy = op.forward_backward(&nl, &p, &mut grad, &mut ctx);
        assert_eq!(energy, 0.0, "({mx},{my})");
        assert!(grad.x.iter().chain(&grad.y).all(|&v| v == 0.0));
        let tau = op.overflow(&nl, &p, &mut ctx);
        assert!(tau.is_finite() && tau >= 0.0, "({mx},{my}): tau {tau}");
    }

    #[test]
    fn single_bin_grid_runs_in_uniform_field_mode() {
        uniform_mode_case(1, 1);
    }

    #[test]
    fn one_column_grid_runs_in_uniform_field_mode() {
        uniform_mode_case(1, 4);
    }

    #[test]
    fn one_row_grid_runs_in_uniform_field_mode() {
        uniform_mode_case(2, 1);
    }

    #[test]
    fn spectral_capable_grid_is_not_uniform_mode() {
        let g = BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 2, 4).expect("minimal");
        let op = DensityOp::new(g, DensityStrategy::Sorted, 1.0).expect("plan");
        assert!(!op.is_uniform_field());
    }

    #[test]
    fn zero_movable_area_overflow_is_zero() {
        let mut ctx = ExecCtx::serial();
        // All-zero-area cells: every bin is empty and the normalizing area
        // is zero; the overflow must be 0, not NaN.
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let a = b.add_movable_cell(0.0, 0.0);
        let c = b.add_movable_cell(0.0, 0.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(2);
        p.x = vec![32.0, 32.0];
        p.y = vec![32.0, 32.0];
        let mut op = DensityOp::new(grid(16), DensityStrategy::Sorted, 1.0).expect("plan");
        let tau = op.overflow(&nl, &p, &mut ctx);
        assert_eq!(tau, 0.0);
        // The energy of an empty charge map is finite (exactly zero).
        let mut g = Gradient::zeros(2);
        let energy = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        assert!(energy.abs() < 1e-12, "energy {energy}");
        assert!(g.x.iter().chain(&g.y).all(|v| v.is_finite()));
    }
}
