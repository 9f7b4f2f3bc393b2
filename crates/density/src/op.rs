//! The density penalty operator `D(x, y)` of paper Eq. (2).
//!
//! Forward: density map -> DCT -> scaled spectrum -> fields + energy (paper
//! Fig. 4b, minus the potential IDCT: the energy is summed over the
//! spectrum). The pass that turns the map into charge writes it straight
//! into the cached solution's `field_x`, where the whole solve then runs
//! (see [`crate::electro`]), and also sums the map's overflow, so the
//! stopping criterion of the evaluated point costs no second scatter.
//! Besides the fixed-point bins and the movable and fixed maps, one forward
//! holds the transform work and the two field buffers, nothing else
//! grid-sized.
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
/// before placement so fixed macros repel movable cells. The stopping
/// criterion comes for free with every forward pass
/// ([`DensityOp::last_overflow`]: the overflow of the map the pass built)
/// or, at any other point, from [`DensityOp::overflow`].
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
    /// Overflow of the last map built, by a forward or by `overflow`.
    last_overflow: Option<T>,
    /// `(movable cell count, movable area)` the overflow is normalised by —
    /// summed once per netlist, keyed like the scatter's cell order.
    movable_area: Option<(usize, T)>,
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
            last_overflow: None,
            movable_area: None,
            cache: None,
        })
    }

    /// No-op: accumulation is always fixed-point. Kept because the frozen
    /// benchmark crate (`crates/perf`) still calls it.
    pub fn with_deterministic(self, _deterministic: bool) -> Self {
        self
    }

    /// Restricts the operator to cells with `mask[c] == true`: only those
    /// scatter charge and receive force (fence-region support, §III-G).
    pub fn with_mask(mut self, mask: Vec<bool>) -> Self {
        self.builder.set_mask(Some(mask.clone()));
        self.mask = Some(mask);
        self.movable_area = None;
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
    ///
    /// Scatters the movable cells at `p` for it. A forward pass computes the
    /// same number for the point it evaluates as a by-product
    /// ([`DensityOp::last_overflow`]) — bit for bit what this returns there.
    pub fn overflow(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        let t0 = ctx.op_timer();
        let pool = Arc::clone(ctx.pool());
        let mut movable = self.last_movable_map.take().unwrap_or_default();
        self.builder.build_movable_into(nl, p, &pool, &mut movable);
        let capacity = self.capacity();
        let over = match &self.fixed_map {
            Some(fixed) => movable
                .iter()
                .zip(fixed)
                .fold(T::ZERO, |over, (&m, &f)| over + excess(m, capacity(f))),
            None => {
                let full = capacity(T::ZERO);
                movable
                    .iter()
                    .fold(T::ZERO, |over, &m| over + excess(m, full))
            }
        };
        self.last_movable_map = Some(movable);
        let overflow = self.normalise(nl, over);
        ctx.record_op("density.overflow", t0);
        overflow
    }

    /// The overflow of the last density map this operator built — by a
    /// forward pass (the point it evaluated) or by [`DensityOp::overflow`].
    /// `None` before the first, and after a forward in uniform-field mode,
    /// which builds no map.
    pub fn last_overflow(&self) -> Option<T> {
        self.last_overflow
    }

    /// The movable area the overflow is normalised by: of the masked cells
    /// (fence regions) or of every movable cell. Summed once per netlist
    /// (per movable-cell count, like the scatter's cell order).
    pub fn movable_area(&mut self, nl: &Netlist<T>) -> T {
        let n = nl.num_movable();
        if let Some((cells, area)) = self.movable_area {
            if cells == n {
                return area;
            }
        }
        let area: T = match &self.mask {
            Some(mask) => (0..n)
                .filter(|&c| mask[c])
                .map(|c| nl.cell_widths()[c] * nl.cell_heights()[c])
                .sum(),
            None => nl.total_movable_area(),
        };
        self.movable_area = Some((n, area));
        area
    }

    /// A bin's capacity from its fixed area: the target density times the
    /// bin area not blocked by fixed cells.
    fn capacity(&self) -> impl Fn(T) -> T {
        let (target, bin_area) = (self.target_density, self.grid().bin_area());
        move |fixed: T| (target * (bin_area - fixed)).max(T::ZERO)
    }

    /// `tau` from the summed excess of a map; records it as the last
    /// overflow.
    fn normalise(&mut self, nl: &Netlist<T>, over: T) -> T {
        let area = self.movable_area(nl);
        // No movable area (empty mask or all zero-area cells) means nothing
        // can overflow; dividing would turn the stopping criterion into NaN.
        // (A NaN area still yields NaN so the divergence tripwire fires.)
        let overflow = if area <= T::ZERO {
            T::ZERO
        } else {
            over / area
        };
        self.last_overflow = Some(overflow);
        overflow
    }

    /// Builds the charge map used for the field solve into `rho`: movable
    /// (smoothed) plus fixed contributions, in density units
    /// (area / bin area). The same pass sums the map's overflow excess, in
    /// the order [`DensityOp::overflow`] does, and records the overflow.
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
        let capacity = self.capacity();
        let mut over = T::ZERO;
        rho.clear();
        match &self.fixed_map {
            Some(fixed) => rho.extend(movable.iter().zip(fixed).map(|(&m, &f)| {
                over += excess(m, capacity(f));
                m * inv_bin + f * inv_bin
            })),
            None => {
                let full = capacity(T::ZERO);
                rho.extend(movable.iter().map(|&m| {
                    over += excess(m, full);
                    m * inv_bin
                }));
            }
        }
        self.last_movable_map = Some(movable);
        self.normalise(nl, over);
    }
}

/// One bin's contribution to the overflow: its movable area above its
/// capacity.
#[inline]
fn excess<T: Float>(movable: T, capacity: T) -> T {
    (movable - capacity).max(T::ZERO)
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
            // zero; there is nothing to scatter or solve (and so no map to
            // read an overflow off).
            self.last_overflow = None;
            ctx.record_op("density.forward", t0);
            return T::ZERO;
        }
        let pool = Arc::clone(ctx.pool());
        let bins_reused = self.builder.bins_bytes() > 0;
        let dct_reused = self.solver.as_ref().is_some_and(|s| s.scratch_bytes() > 0);
        let sol_reused = self.cache.is_some();
        // The previous solution's buffers are the solve's only grids: the
        // charge map goes straight into `field_x`.
        let mut sol = self.cache.take().unwrap_or_default();
        self.charge_map_into(nl, p, &pool, &mut sol.field_x);
        if let Some(solver) = &mut self.solver {
            solver.solve_in_place(&mut sol);
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
        let (inv_bw, inv_bh) = grid.inv_bin_size();
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
                    let spans = grid.spans(&fp.rect);
                    let (is, js) = grid.bins_of(&spans);
                    let mut fx = T::ZERO;
                    let mut fy = T::ZERO;
                    for_each_overlap(&grid, &spans, is, js, |idx, a| {
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
                        gx.write(c, gx.read(c) - fx * inv_bw);
                        gy.write(c, gy.read(c) - fy * inv_bh);
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
    fn one_forward_holds_bins_spectrum_lanes_and_two_field_buffers() {
        let mut ctx = ExecCtx::serial();
        let (nl, mut p) = two_cell_design();
        p.x = vec![30.0, 34.0];
        p.y = vec![32.0, 32.0];
        let m = 256;
        let mut op = DensityOp::new(grid(m), DensityStrategy::Sorted, 1.0).expect("plan");
        let mut g = Gradient::zeros(2);
        let _ = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        let held: usize = ctx
            .summary()
            .workspaces
            .iter()
            .filter(|(name, _)| name.starts_with("density."))
            .map(|(_, w)| w.bytes)
            .sum();
        let complex = std::mem::size_of::<dp_num::Complex<f64>>();
        let bins = m * m * std::mem::size_of::<i64>();
        let spectrum = m * (m / 2 + 1) * complex;
        let lanes = (m / 2 + m / 2 + 1) * dp_dct::dct2d::LANES * complex;
        let field = m * m * std::mem::size_of::<f64>();
        let budget = bins + spectrum + lanes + 2 * field;
        assert!(held <= budget, "density workspaces {held} B > {budget} B");
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
