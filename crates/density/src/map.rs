//! Density map accumulation — the "dynamic bipartite graph forward"
//! (paper §III-B1, Fig. 5a).
//!
//! Every movable cell scatters its (smoothed) area into the bins it
//! overlaps. The paper's GPU kernels fight warp-level load imbalance with
//! two tricks benchmarked in Figs. 6 and 12, both reproduced here:
//!
//! * **sort cells by area** so neighbouring workers handle similar sizes;
//! * **update one cell with multiple workers** — the cell's bin rectangle is
//!   split into `tx x ty` tiles that become independent work items
//!   (the paper settles on 2x2).
//!
//! Cells smaller than `sqrt(2) x bin` are stretched with proportionally
//! reduced density (ePlace's local smoothing), preserving total charge while
//! keeping the map — and hence the gradient — smooth as cells cross bin
//! boundaries.

use dp_netlist::{Netlist, Placement, Rect};
use dp_num::{AtomicFloat, FixedPointCell, Float, WorkerPool};

use crate::bins::BinGrid;

/// Work partitioning strategy for the density map scatter (Figs. 6 / 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DensityStrategy {
    /// One work item per cell, original cell order (the DAC'19 baseline).
    Naive,
    /// One work item per cell, cells sorted by area (TCAD trick 1).
    Sorted,
    /// Sorted cells, each split into `tx x ty` tile jobs (TCAD trick 2;
    /// the paper picks 2x2).
    SortedSubthreads {
        /// Horizontal tile count per cell.
        tx: usize,
        /// Vertical tile count per cell.
        ty: usize,
    },
}

impl std::fmt::Display for DensityStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DensityStrategy::Naive => write!(f, "naive"),
            DensityStrategy::Sorted => write!(f, "sorted"),
            DensityStrategy::SortedSubthreads { tx, ty } => write!(f, "sorted+{tx}x{ty}"),
        }
    }
}

/// The smoothed footprint of a cell: a possibly stretched rectangle plus a
/// density scale that keeps total charge equal to the true cell area.
#[derive(Debug, Clone, Copy)]
pub struct Footprint<T> {
    /// The (possibly stretched) rectangle the cell's charge occupies.
    pub rect: Rect<T>,
    /// Density scale applied inside [`Footprint::rect`] so that
    /// `rect.area() * scale` equals the true cell area.
    pub scale: T,
}

/// Computes the ePlace-smoothed footprint of a movable cell centered at
/// `(cx, cy)`: cells narrower than `sqrt(2)` bins are stretched to that
/// width with proportionally reduced density. Public so differential
/// oracles (`dp-check`) can state the scatter definition independently and
/// cross-check this exact function.
pub fn smoothed_footprint<T: Float>(
    cx: T,
    cy: T,
    w: T,
    h: T,
    grid: &BinGrid<T>,
) -> Footprint<T> {
    // Non-finite positions (a diverged placement) or non-finite/negative
    // dimensions (a corrupted netlist) must not panic the scatter: such a
    // cell contributes no charge and the divergence tripwire upstream
    // reports the bad coordinates.
    let finite = cx.to_f64().is_finite()
        && cy.to_f64().is_finite()
        && w.to_f64().is_finite()
        && h.to_f64().is_finite();
    if !finite || w < T::ZERO || h < T::ZERO {
        return Footprint {
            rect: Rect::new(T::ZERO, T::ZERO, T::ZERO, T::ZERO),
            scale: T::ZERO,
        };
    }
    let sqrt2 = T::from_f64(std::f64::consts::SQRT_2);
    let min_w = grid.bin_width() * sqrt2;
    let min_h = grid.bin_height() * sqrt2;
    let (w2, sx) = if w < min_w {
        (min_w, w / min_w)
    } else {
        (w, T::ONE)
    };
    let (h2, sy) = if h < min_h {
        (min_h, h / min_h)
    } else {
        (h, T::ONE)
    };
    Footprint {
        rect: Rect::from_center(cx, cy, w2, h2),
        scale: sx * sy,
    }
}

/// Reusable builder for movable/fixed density maps over a [`BinGrid`].
///
/// Densities are in **area units**: bin value = total (smoothed) cell area
/// overlapping the bin. Divide by [`BinGrid::bin_area`] for utilization.
pub struct DensityMapBuilder<T: Float> {
    grid: BinGrid<T>,
    strategy: DensityStrategy,
    /// Cell order used by the scatter (sorted by area for the TCAD path).
    order: Vec<u32>,
    order_valid_for: usize,
    /// Optional movable-cell mask: when set, only `mask[c] == true` cells
    /// scatter (fence-region support, paper §III-G).
    mask: Option<Vec<bool>>,
    /// Deterministic fixed-point accumulation (run-to-run reproducible
    /// under any thread interleaving; paper §V future work).
    deterministic: bool,
    /// Persistent accumulation bins (float-atomic mode), reset per build.
    float_bins: Vec<FloatBins<T>>,
    /// Persistent accumulation bins (fixed-point mode), reset per build.
    fixed_bins: Vec<FixedPointCell>,
}

type FloatBins<T> = <T as Float>::Atomic;

impl<T: Float> DensityMapBuilder<T> {
    /// Creates a builder over `grid` with the given scatter strategy.
    pub fn new(grid: BinGrid<T>, strategy: DensityStrategy) -> Self {
        Self {
            grid,
            strategy,
            order: Vec::new(),
            order_valid_for: usize::MAX,
            mask: None,
            deterministic: false,
            float_bins: Vec::new(),
            fixed_bins: Vec::new(),
        }
    }

    /// Enables deterministic fixed-point accumulation: bins accumulate in
    /// scaled integers, making multithreaded scatters bit-reproducible
    /// (the paper's §V determinism plan). Costs one rounding at `2^-24`
    /// of a bin area per update.
    pub fn with_deterministic(mut self, deterministic: bool) -> Self {
        self.set_deterministic(deterministic);
        self
    }

    /// In-place variant of [`DensityMapBuilder::with_deterministic`].
    pub fn set_deterministic(&mut self, deterministic: bool) {
        self.deterministic = deterministic;
    }

    /// Restricts the scatter to cells with `mask[c] == true` (fence-region
    /// support). Pass `None` to clear.
    ///
    /// # Panics
    ///
    /// Panics (on the next build) if the mask length does not match the
    /// movable cell count.
    pub fn set_mask(&mut self, mask: Option<Vec<bool>>) {
        self.mask = mask;
        self.order_valid_for = usize::MAX; // rebuild the order
    }

    /// The grid this builder scatters into.
    pub fn grid(&self) -> &BinGrid<T> {
        &self.grid
    }

    /// The active strategy.
    pub fn strategy(&self) -> DensityStrategy {
        self.strategy
    }

    fn ensure_order(&mut self, nl: &Netlist<T>) {
        let n = nl.num_movable();
        if self.order_valid_for == n {
            return;
        }
        if let Some(mask) = &self.mask {
            assert_eq!(mask.len(), n, "mask length must match movable cells");
            self.order = (0..n as u32).filter(|&c| mask[c as usize]).collect();
        } else {
            self.order = (0..n as u32).collect();
        }
        if !matches!(self.strategy, DensityStrategy::Naive) {
            let areas: Vec<T> = (0..n)
                .map(|i| nl.cell_widths()[i] * nl.cell_heights()[i])
                .collect();
            // NaN areas (a corrupted netlist) must not panic the scatter;
            // they sort arbitrarily and the divergence tripwire upstream
            // reports the poisoned map.
            self.order.sort_by(|&a, &b| {
                areas[a as usize]
                    .partial_cmp(&areas[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        self.order_valid_for = n;
    }

    /// Heap bytes held by the persistent accumulation bins.
    pub fn bins_bytes(&self) -> usize {
        self.float_bins.capacity() * std::mem::size_of::<FloatBins<T>>()
            + self.fixed_bins.capacity() * std::mem::size_of::<FixedPointCell>()
    }

    /// Resets (or grows) the accumulation bins for the active mode, so a
    /// placement run allocates them exactly once.
    fn reset_bins(&mut self) {
        let n = self.grid.num_bins();
        if self.deterministic {
            if self.fixed_bins.len() == n {
                for b in &self.fixed_bins {
                    b.reset();
                }
            } else {
                self.fixed_bins = FixedPointCell::vec_with(n, 1 << 24);
            }
        } else if self.float_bins.len() == n {
            for b in &self.float_bins {
                b.store(T::ZERO);
            }
        } else {
            self.float_bins = (0..n).map(|_| FloatBins::<T>::new(T::ZERO)).collect();
        }
    }

    /// Scatters all movable cells into `out` (area units), running the
    /// scatter on `pool` and reusing the builder's persistent bins.
    pub fn build_movable_into(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        pool: &WorkerPool,
        out: &mut Vec<T>,
    ) {
        self.ensure_order(nl);
        // Accumulation backend: float atomics (fast) or fixed-point
        // integers (deterministic, thread-count invariant). The fixed-point
        // scale is relative to a bin area so precision is size-independent.
        self.reset_bins();
        let inv_bin_area = 1.0 / self.grid.bin_area().to_f64();
        let deterministic = self.deterministic;
        let float_bins = &self.float_bins;
        let fixed_bins = &self.fixed_bins;
        let bins_add = |idx: usize, v: T| {
            if deterministic {
                // Accumulate in bin-area units for scale-free precision.
                fixed_bins[idx].add(v.to_f64() * inv_bin_area);
            } else {
                float_bins[idx].fetch_add(v);
            }
        };
        let grid = &self.grid;
        let order = &self.order;

        let scatter_cell = |cell: usize, tile: Option<(usize, usize, usize, usize)>| {
            let fp = smoothed_footprint(
                p.x[cell],
                p.y[cell],
                nl.cell_widths()[cell],
                nl.cell_heights()[cell],
                grid,
            );
            let (is, js) = grid.overlapped_bins(&fp.rect);
            let (is, js) = match tile {
                None => (is, js),
                Some((tx, ty, u, v)) => (split_range(is, tx, u), split_range(js, ty, v)),
            };
            for i in is {
                for j in js.clone() {
                    let a = grid.bin_rect(i, j).overlap_area(&fp.rect);
                    if a > T::ZERO {
                        bins_add(grid.index(i, j), a * fp.scale);
                    }
                }
            }
        };

        match self.strategy {
            DensityStrategy::Naive | DensityStrategy::Sorted => {
                let n = order.len();
                pool.run(n, pool.chunk_for(n), |range| {
                    for k in range {
                        scatter_cell(order[k] as usize, None);
                    }
                });
            }
            DensityStrategy::SortedSubthreads { tx, ty } => {
                let per_cell = tx * ty;
                let jobs = order.len() * per_cell;
                pool.run(jobs, pool.chunk_for(jobs), |range| {
                    for job in range {
                        let k = job / per_cell;
                        let t = job % per_cell;
                        scatter_cell(order[k] as usize, Some((tx, ty, t % tx, t / tx)));
                    }
                });
            }
        }
        out.clear();
        if deterministic {
            let bin_area = self.grid.bin_area();
            out.extend(
                self.fixed_bins
                    .iter()
                    .map(|b| T::from_f64(b.load()) * bin_area),
            );
        } else {
            out.extend(self.float_bins.iter().map(|b| b.load()));
        }
    }

    /// Scatters fixed cells (no smoothing; they do not move, so the map can
    /// be cached by the caller). Contributions are clipped to the region.
    pub fn build_fixed(&self, nl: &Netlist<T>, p: &Placement<T>) -> Vec<T> {
        let mut bins = vec![T::ZERO; self.grid.num_bins()];
        for c in nl.num_movable()..nl.num_cells() {
            let rect = Rect::from_center(p.x[c], p.y[c], nl.cell_widths()[c], nl.cell_heights()[c]);
            let (is, js) = self.grid.overlapped_bins(&rect);
            for i in is {
                for j in js.clone() {
                    let a = self.grid.bin_rect(i, j).overlap_area(&rect);
                    bins[self.grid.index(i, j)] += a;
                }
            }
        }
        bins
    }
}

/// Splits `range` into `parts` nearly equal sub-ranges and returns part `k`.
fn split_range(range: std::ops::Range<usize>, parts: usize, k: usize) -> std::ops::Range<usize> {
    let len = range.len();
    let base = len / parts;
    let rem = len % parts;
    let start = range.start + base * k + k.min(rem);
    let size = base + usize::from(k < rem);
    start..(start + size).min(range.end)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_netlist::NetlistBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// One scatter of the movable cells on a fresh `threads`-wide pool.
    pub(super) fn scatter(
        mut builder: DensityMapBuilder<f64>,
        nl: &Netlist<f64>,
        p: &Placement<f64>,
        threads: usize,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        builder.build_movable_into(nl, p, &WorkerPool::new(threads), &mut out);
        out
    }

    fn design(seed: u64, n: usize) -> (Netlist<f64>, Placement<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let cells: Vec<_> = (0..n)
            .map(|_| b.add_movable_cell(rng.gen_range(1.0..6.0), 4.0))
            .collect();
        b.add_net(1.0, vec![(cells[0], 0.0, 0.0), (cells[1], 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..n {
            p.x[i] = rng.gen_range(8.0..56.0);
            p.y[i] = rng.gen_range(8.0..56.0);
        }
        (nl, p)
    }

    fn grid() -> BinGrid<f64> {
        BinGrid::new(dp_netlist::Rect::new(0.0, 0.0, 64.0, 64.0), 16, 16).expect("pow2")
    }

    #[test]
    fn mass_is_conserved() {
        let (nl, p) = design(1, 40);
        let map = scatter(DensityMapBuilder::new(grid(), DensityStrategy::Sorted), &nl, &p, 1);
        let total: f64 = map.iter().sum();
        let expect: f64 = nl.total_movable_area();
        assert!(
            (total - expect).abs() < 1e-9 * expect,
            "total {total} vs area {expect}"
        );
    }

    #[test]
    fn zero_area_cells_scatter_nothing() {
        // Zero-area cells (e.g. Bookshelf terminals modelled as points) are
        // smoothed to a min-size footprint with density scale 0, so the map
        // stays finite and mass equals the real movable area.
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        b.add_movable_cell(8.0, 8.0);
        b.add_movable_cell(0.0, 0.0);
        b.add_movable_cell(0.0, 4.0);
        let a0 = b.add_movable_cell(4.0, 4.0);
        let a1 = b.add_movable_cell(4.0, 4.0);
        b.add_net(1.0, vec![(a0, 0.0, 0.0), (a1, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..nl.num_cells() {
            p.x[i] = 8.0 + 10.0 * i as f64;
            p.y[i] = 32.0;
        }
        for strategy in [
            DensityStrategy::Naive,
            DensityStrategy::Sorted,
            DensityStrategy::SortedSubthreads { tx: 2, ty: 2 },
        ] {
            let map = scatter(DensityMapBuilder::new(grid(), strategy), &nl, &p, 1);
            assert!(map.iter().all(|v| v.is_finite()), "{strategy}");
            let total: f64 = map.iter().sum();
            let expect = 8.0 * 8.0 + 4.0 * 4.0 + 4.0 * 4.0;
            assert!((total - expect).abs() < 1e-9, "{strategy}: total {total}");
        }
    }

    #[test]
    fn non_finite_cell_area_does_not_panic_sort() {
        // The sorted strategies order cells by area; a NaN area must not
        // abort the whole scatter with a comparator panic.
        let (nl, p) = design(4, 10);
        let mut widths = nl.cell_widths().to_vec();
        widths[3] = f64::NAN;
        let nl = nl.with_cell_sizes(widths, nl.cell_heights().to_vec());
        let map = scatter(DensityMapBuilder::new(grid(), DensityStrategy::Sorted), &nl, &p, 1);
        assert_eq!(map.len(), grid().num_bins());
        // The corrupted cell scatters nothing; the map stays finite.
        assert!(map.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn strategies_agree() {
        let (nl, p) = design(2, 60);
        let reference =
            scatter(DensityMapBuilder::new(grid(), DensityStrategy::Naive), &nl, &p, 1);
        for strategy in [
            DensityStrategy::Sorted,
            DensityStrategy::SortedSubthreads { tx: 2, ty: 2 },
            DensityStrategy::SortedSubthreads { tx: 4, ty: 1 },
        ] {
            let map = scatter(DensityMapBuilder::new(grid(), strategy), &nl, &p, 1);
            for (a, b) in map.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-9, "{strategy}");
            }
        }
    }

    #[test]
    fn threads_agree() {
        let (nl, p) = design(3, 50);
        let serial = scatter(DensityMapBuilder::new(grid(), DensityStrategy::Sorted), &nl, &p, 1);
        let parallel = scatter(DensityMapBuilder::new(grid(), DensityStrategy::Sorted), &nl, &p, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn smoothing_preserves_charge_and_spreads_it() {
        let g = grid(); // bin 4x4
        let fp = smoothed_footprint(32.0, 32.0, 1.0, 1.0, &g);
        // stretched to sqrt(2)*4 in both dims
        let sq2 = std::f64::consts::SQRT_2;
        assert!((fp.rect.width() - 4.0 * sq2).abs() < 1e-12);
        assert!((fp.rect.area() * fp.scale - 1.0).abs() < 1e-12);
        // large cells are untouched
        let fp = smoothed_footprint(32.0, 32.0, 20.0, 10.0, &g);
        assert_eq!(fp.rect.width(), 20.0);
        assert_eq!(fp.scale, 1.0);
    }

    #[test]
    fn fixed_map_counts_macros() {
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let a = b.add_movable_cell(1.0, 1.0);
        let c = b.add_movable_cell(1.0, 1.0);
        let f = b.add_fixed_cell(16.0, 16.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0), (f, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        p.x[2] = 8.0;
        p.y[2] = 8.0; // macro covering [0,16]x[0,16]
        let builder = DensityMapBuilder::new(grid(), DensityStrategy::Sorted);
        let map = builder.build_fixed(&nl, &p);
        let total: f64 = map.iter().sum();
        assert!((total - 256.0).abs() < 1e-9);
        // fully inside bins are saturated at bin area
        assert!((map[0] - 16.0).abs() < 1e-9);
    }

    #[test]
    fn split_range_partitions() {
        let r = 3..18;
        let mut acc = Vec::new();
        for k in 0..4 {
            acc.extend(split_range(r.clone(), 4, k));
        }
        assert_eq!(acc, (3..18).collect::<Vec<_>>());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod deterministic_tests {
    use super::tests::scatter;
    use super::*;
    use dp_netlist::NetlistBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn design(seed: u64) -> (Netlist<f64>, Placement<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let cells: Vec<_> = (0..200)
            .map(|_| b.add_movable_cell(rng.gen_range(1.0..6.0), 4.0))
            .collect();
        b.add_net(1.0, vec![(cells[0], 0.0, 0.0), (cells[1], 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..200 {
            p.x[i] = rng.gen_range(4.0..60.0);
            p.y[i] = rng.gen_range(4.0..60.0);
        }
        (nl, p)
    }

    fn grid() -> BinGrid<f64> {
        BinGrid::new(dp_netlist::Rect::new(0.0, 0.0, 64.0, 64.0), 16, 16).expect("pow2")
    }

    #[test]
    fn fixed_point_mode_is_bit_reproducible_across_threads() {
        let (nl, p) = design(5);
        let runs: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let builder = DensityMapBuilder::new(grid(), DensityStrategy::Sorted);
                scatter(builder.with_deterministic(true), &nl, &p, 4)
            })
            .collect();
        // Bitwise identical across repeated multithreaded runs.
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn fixed_point_matches_float_within_quantization() {
        let (nl, p) = design(6);
        let sorted = || DensityMapBuilder::new(grid(), DensityStrategy::Sorted);
        let float = scatter(sorted(), &nl, &p, 1);
        let fixed = scatter(sorted().with_deterministic(true), &nl, &p, 1);
        let bin_area = grid().bin_area();
        for (a, b) in float.iter().zip(&fixed) {
            // Up to ~200 updates per bin, each quantized at 2^-24 bin areas.
            assert!(
                (a - b).abs() < 200.0 * bin_area / (1 << 24) as f64 + 1e-9,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn fixed_point_conserves_charge_to_quantization() {
        let (nl, p) = design(7);
        let builder = DensityMapBuilder::new(grid(), DensityStrategy::Sorted);
        let map = scatter(builder.with_deterministic(true), &nl, &p, 1);
        let total: f64 = map.iter().sum();
        let want = nl.total_movable_area();
        assert!((total - want).abs() / want < 1e-5, "{total} vs {want}");
    }
}
