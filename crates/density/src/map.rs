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

use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};

use dp_netlist::{Netlist, Placement, Rect};
use dp_num::atomic::round_to_i64;
use dp_num::{Float, WorkerPool};

use crate::bins::{BinGrid, Spans};

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
/// width with proportionally reduced density — `w` times the grid's cached
/// `1 / (sqrt(2) * bin_width)`, a multiply rather than a division. Public
/// so differential oracles (`dp-check`) can state the scatter definition
/// independently and cross-check this exact function.
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
    let (min_w, min_h, inv_min_w, inv_min_h) = grid.stretch();
    let (w2, sx) = if w < min_w {
        (min_w, w * inv_min_w)
    } else {
        (w, T::ONE)
    };
    let (h2, sy) = if h < min_h {
        (min_h, h * inv_min_h)
    } else {
        (h, T::ONE)
    };
    Footprint {
        rect: Rect::from_center(cx, cy, w2, h2),
        scale: sx * sy,
    }
}

/// Longest bin-row span (`js.len()`) whose overlap heights fit the stencil's
/// stack buffer. Standard cells span two or three bin rows; only macros on
/// fine grids exceed this and take the per-bin fallback.
const STENCIL_SPAN: usize = 16;

/// The one overlap stencil shared by the movable scatter, the fixed-cell
/// scatter and the force gather: calls `f(bin index, overlap area)` for
/// every bin of `is x js`, `i`-major, where the area is
/// `x.overlap(i) * y.overlap(j)` of the rect's [`BinSpan`]s — its overlap
/// with `grid.bin_rect(i, j)` measured in bin units, where bin edges are
/// exact (to rounding, the same area).
///
/// The overlap is separable, so the heights are computed once per cell and
/// the width once per bin column, and each bin costs one multiply.
/// `is`/`js` may be sub-ranges of the overlapped bins (the tile split of
/// [`DensityStrategy::SortedSubthreads`]).
#[inline]
pub(crate) fn for_each_overlap<T: Float>(
    grid: &BinGrid<T>,
    (x, y): &Spans<T>,
    is: Range<usize>,
    js: Range<usize>,
    mut f: impl FnMut(usize, T),
) {
    if js.len() > STENCIL_SPAN {
        for i in is {
            let w = x.overlap(i);
            for j in js.clone() {
                f(grid.index(i, j), w * y.overlap(j));
            }
        }
        return;
    }
    let mut heights = [T::ZERO; STENCIL_SPAN];
    let heights = &mut heights[..js.len()];
    for (h, j) in heights.iter_mut().zip(js.clone()) {
        *h = y.overlap(j);
    }
    for i in is {
        let w = x.overlap(i);
        // `js` may be empty and start one past the last row.
        let row = grid.index(i, 0) + js.start;
        for (k, &h) in heights.iter().enumerate() {
            f(row + k, w * h);
        }
    }
}

/// Fixed-point units per bin area: bins accumulate
/// `round(area / bin_area * 2^24)` as integers, so precision is independent
/// of the layout's scale and, integer addition being associative, every
/// thread count and interleaving gives one map (paper §V names fixed-point
/// accumulation as the route to run-to-run determinism).
///
/// Range: one update is a cell's smoothed overlap with one bin, which is at
/// most one bin area, so at most `2^24` units. A bin's sum is therefore at
/// most `num_movable * 2^24`, which stays below `i64::MAX` for any design
/// under `2^39` movable cells.
const FIXED_SCALE: f64 = (1u64 << 24) as f64;

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
    /// Accumulation bins in units of `1 / FIXED_SCALE` bin areas, allocated
    /// by the first build and reused after.
    bins: Vec<AtomicI64>,
    /// The bins are all zero. The drain that ends a build reads and clears
    /// them in one pass, so the next build starts scattering at once; the
    /// flag is down from the first update until that drain finishes, and a
    /// build that finds it down (a panic mid-scatter was contained and the
    /// builder reused, as the serve retry path does) zeroes the bins first.
    bins_clean: bool,
}

impl<T: Float> DensityMapBuilder<T> {
    /// Creates a builder over `grid` with the given scatter strategy.
    pub fn new(grid: BinGrid<T>, strategy: DensityStrategy) -> Self {
        Self {
            grid,
            strategy,
            order: Vec::new(),
            order_valid_for: usize::MAX,
            mask: None,
            bins: Vec::new(),
            bins_clean: true,
        }
    }

    /// No-op: accumulation is always fixed-point. Kept because the frozen
    /// benchmark crate (`crates/perf`) still calls it.
    pub fn with_deterministic(self, _deterministic: bool) -> Self {
        self
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

    /// Heap bytes held by the persistent accumulation bins: one `i64` per
    /// bin (512 KiB at 256 x 256).
    pub fn bins_bytes(&self) -> usize {
        self.bins.capacity() * std::mem::size_of::<AtomicI64>()
    }

    /// Scatters all movable cells into `out` (area units), running the
    /// scatter on `pool` and reusing the builder's persistent bins.
    ///
    /// A one-thread pool runs every chunk on the calling thread, so its
    /// updates are plain load/add/store instead of bus-locked
    /// read-modify-writes; integer sums are order-free, so the map does not
    /// depend on which path ran.
    pub fn build_movable_into(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        pool: &WorkerPool,
        out: &mut Vec<T>,
    ) {
        self.ensure_order(nl);
        let n = self.grid.num_bins();
        if self.bins.len() != n || !self.bins_clean {
            self.bins = (0..n).map(|_| AtomicI64::new(0)).collect();
        }
        self.bins_clean = false;
        // Bin-area units for scale-free precision. Scaling by the power of
        // two `FIXED_SCALE` is exact, so folding it into the reciprocal
        // changes no rounding.
        let scale = 1.0 / self.grid.bin_area().to_f64() * FIXED_SCALE;
        let quantise = |v: T| round_to_i64(v.to_f64() * scale);
        let b = &self.bins;
        if pool.threads() <= 1 {
            self.scatter(nl, p, pool, |idx, v| {
                let bin = &b[idx];
                let sum = bin.load(Ordering::Relaxed).wrapping_add(quantise(v));
                bin.store(sum, Ordering::Relaxed);
            });
        } else {
            self.scatter(nl, p, pool, |idx, v| {
                b[idx].fetch_add(quantise(v), Ordering::Relaxed);
            });
        }
        // Drain: read each bin and leave it zero for the next build.
        let bin_area = self.grid.bin_area();
        out.clear();
        out.extend(self.bins.iter_mut().map(|c| {
            let raw = std::mem::take(c.get_mut());
            T::from_f64(raw as f64 / FIXED_SCALE) * bin_area
        }));
        self.bins_clean = true;
    }

    /// The scatter proper: every cell of `order` (or every tile of every
    /// cell) pushes `add(bin index, smoothed overlap area)` through the
    /// shared stencil.
    fn scatter<A>(&self, nl: &Netlist<T>, p: &Placement<T>, pool: &WorkerPool, add: A)
    where
        A: Fn(usize, T) + Sync,
    {
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
            let spans = grid.spans(&fp.rect);
            let (is, js) = grid.bins_of(&spans);
            let (is, js) = match tile {
                None => (is, js),
                Some((tx, ty, u, v)) => (split_range(is, tx, u), split_range(js, ty, v)),
            };
            for_each_overlap(grid, &spans, is, js, |idx, a| {
                if a > T::ZERO {
                    add(idx, a * fp.scale);
                }
            });
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
    }

    /// Scatters fixed cells (no smoothing; they do not move, so the map can
    /// be cached by the caller). Contributions are clipped to the region.
    pub fn build_fixed(&self, nl: &Netlist<T>, p: &Placement<T>) -> Vec<T> {
        let mut bins = vec![T::ZERO; self.grid.num_bins()];
        for c in nl.num_movable()..nl.num_cells() {
            let rect = Rect::from_center(p.x[c], p.y[c], nl.cell_widths()[c], nl.cell_heights()[c]);
            let spans = self.grid.spans(&rect);
            let (is, js) = self.grid.bins_of(&spans);
            for_each_overlap(&self.grid, &spans, is, js, |idx, a| bins[idx] += a);
        }
        bins
    }
}

/// Splits `range` into `parts` nearly equal sub-ranges and returns part `k`.
fn split_range(range: Range<usize>, parts: usize, k: usize) -> Range<usize> {
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
mod fixed_point_tests {
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
    fn fixed_point_map_is_one_map_for_every_thread_count_and_strategy() {
        // Integer sums are order-free, so the single-writer add of a
        // one-thread pool, the locked add of wider pools, and every cell
        // order and tile split produce the same bits — which is what makes
        // the pool-width switch in `build_movable_into` unobservable.
        let (nl, p) = design(5);
        let reference = scatter(DensityMapBuilder::new(grid(), DensityStrategy::Naive), &nl, &p, 1);
        for strategy in [
            DensityStrategy::Naive,
            DensityStrategy::Sorted,
            DensityStrategy::SortedSubthreads { tx: 2, ty: 2 },
            DensityStrategy::SortedSubthreads { tx: 4, ty: 1 },
        ] {
            for threads in [1, 2, 4] {
                for _ in 0..2 {
                    let map = scatter(DensityMapBuilder::new(grid(), strategy), &nl, &p, threads);
                    assert_eq!(map, reference, "{strategy} on {threads} threads");
                }
            }
        }
    }

    #[test]
    fn fixed_point_conserves_charge_to_quantization() {
        let (nl, p) = design(7);
        let map = scatter(DensityMapBuilder::new(grid(), DensityStrategy::Sorted), &nl, &p, 1);
        let total: f64 = map.iter().sum();
        let want = nl.total_movable_area();
        assert!((total - want).abs() / want < 1e-5, "{total} vs {want}");
    }

    #[test]
    fn cells_stacked_on_one_bin_drain_to_exactly_their_area() {
        // Cells two bins square, aligned to bin edges (wide enough to skip
        // smoothing): every update is one whole bin area, the largest a
        // single update can be, `FIXED_SCALE` units. N of them sum exactly.
        const N: usize = 1000;
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let cells: Vec<_> = (0..N).map(|_| b.add_movable_cell(8.0, 8.0)).collect();
        b.add_net(1.0, vec![(cells[0], 0.0, 0.0), (cells[1], 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        p.x.fill(24.0);
        p.y.fill(40.0);
        let g = grid();
        let map = scatter(DensityMapBuilder::new(g.clone(), DensityStrategy::Sorted), &nl, &p, 2);
        let covered = [g.index(5, 9), g.index(5, 10), g.index(6, 9), g.index(6, 10)];
        for (bin, v) in map.iter().enumerate() {
            let want = if covered.contains(&bin) { N as f64 * g.bin_area() } else { 0.0 };
            assert_eq!(*v, want, "bin {bin}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod stencil_tests {
    use super::tests::scatter;
    use super::*;
    use dp_netlist::NetlistBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// `(bin index, area bits)` bin by bin: the product of the rect's span
    /// overlaps, and — to rounding — the overlap of the bin's rectangle.
    fn per_bin_reference(
        grid: &BinGrid<f64>,
        rect: &Rect<f64>,
        is: Range<usize>,
        js: Range<usize>,
    ) -> Vec<(usize, u64)> {
        let (x, y) = grid.spans(rect);
        let mut out = Vec::new();
        for i in is {
            for j in js.clone() {
                let a = x.overlap(i) * y.overlap(j);
                let exact = grid.bin_rect(i, j).overlap_area(rect);
                assert!(
                    (a - exact).abs() <= 1e-12 * grid.bin_area(),
                    "({i},{j}) of {rect:?}"
                );
                out.push((grid.index(i, j), a.to_bits()));
            }
        }
        out
    }

    fn stencil(
        grid: &BinGrid<f64>,
        rect: &Rect<f64>,
        is: Range<usize>,
        js: Range<usize>,
    ) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let spans = grid.spans(rect);
        for_each_overlap(grid, &spans, is, js, |idx, a| out.push((idx, a.to_bits())));
        out
    }

    #[test]
    fn stencil_areas_are_the_per_bin_overlaps_bit_for_bit() {
        // Bin sizes that are not exact in binary, so a reordered operation
        // would show; 64 rows so a tall footprint outgrows the stack buffer.
        let region = Rect::new(-3.7, 1.3, 96.4, 211.9);
        let grid = BinGrid::new(region, 16, 64).expect("pow2");
        let mut rng = StdRng::seed_from_u64(20);
        let mut footprints = vec![
            // inside, on bin boundaries, straddling each edge, outside
            smoothed_footprint(40.0, 100.0, 9.0, 8.0, &grid),
            smoothed_footprint(-3.7, 1.3, 12.0, 8.0, &grid),
            smoothed_footprint(96.0, 211.0, 30.0, 30.0, &grid),
            smoothed_footprint(-40.0, 500.0, 5.0, 5.0, &grid),
            // zero-area and non-finite cells
            smoothed_footprint(50.0, 50.0, 0.0, 0.0, &grid),
            smoothed_footprint(50.0, 50.0, 0.0, 8.0, &grid),
            smoothed_footprint(f64::NAN, 50.0, 4.0, 8.0, &grid),
            smoothed_footprint(50.0, f64::INFINITY, 4.0, 8.0, &grid),
            smoothed_footprint(50.0, 50.0, f64::NAN, 8.0, &grid),
            // taller than STENCIL_SPAN rows: the per-bin fallback
            smoothed_footprint(48.0, 100.0, 40.0, 150.0, &grid),
            smoothed_footprint(48.0, 100.0, 1e6, 1e6, &grid),
        ];
        for _ in 0..200 {
            footprints.push(smoothed_footprint(
                rng.gen_range(-20.0..120.0),
                rng.gen_range(-20.0..240.0),
                rng.gen_range(0.0..20.0),
                rng.gen_range(0.0..70.0),
                &grid,
            ));
        }
        let mut long_spans = 0;
        for fp in &footprints {
            let (is, js) = grid.overlapped_bins(&fp.rect);
            long_spans += usize::from(js.len() > STENCIL_SPAN);
            assert_eq!(
                stencil(&grid, &fp.rect, is.clone(), js.clone()),
                per_bin_reference(&grid, &fp.rect, is.clone(), js.clone()),
                "{fp:?}"
            );
            // Every tile of every split the sub-worker strategy can ask for.
            for (tx, ty) in [(2, 2), (4, 1), (1, 4), (3, 5)] {
                let mut tiled = Vec::new();
                for u in 0..tx {
                    for v in 0..ty {
                        let (ti, tj) = (
                            split_range(is.clone(), tx, u),
                            split_range(js.clone(), ty, v),
                        );
                        let got = stencil(&grid, &fp.rect, ti.clone(), tj.clone());
                        assert_eq!(got, per_bin_reference(&grid, &fp.rect, ti, tj));
                        tiled.extend(got);
                    }
                }
                let mut whole = per_bin_reference(&grid, &fp.rect, is.clone(), js.clone());
                tiled.sort_unstable();
                whole.sort_unstable();
                assert_eq!(tiled, whole, "{tx}x{ty} tiles of {fp:?}");
            }
        }
        assert!(long_spans >= 2, "the fallback path must be exercised");
    }

    fn bits(map: &[f64]) -> Vec<u64> {
        map.iter().map(|v| v.to_bits()).collect()
    }

    /// Standard cells plus one macro spanning more than `STENCIL_SPAN` bins,
    /// some cells hanging over the region's edges.
    fn design() -> (Netlist<f64>, Placement<f64>) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
        let cells: Vec<_> = (0..150)
            .map(|_| b.add_movable_cell(rng.gen_range(0.5..7.0), 2.0))
            .collect();
        b.add_movable_cell(30.0, 40.0);
        b.add_net(1.0, vec![(cells[0], 0.0, 0.0), (cells[1], 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for c in 0..nl.num_cells() {
            p.x[c] = rng.gen_range(-1.0..65.0);
            p.y[c] = rng.gen_range(-1.0..65.0);
        }
        (nl, p)
    }

    fn grid() -> BinGrid<f64> {
        BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 32, 32).expect("pow2")
    }

    #[test]
    fn fixed_point_matches_float_within_quantization() {
        // A plain `f64` per-bin sum of the stencil's overlaps, cell by cell.
        let (nl, p) = design();
        let g = grid();
        let mut want = vec![0.0f64; g.num_bins()];
        let mut updates = vec![0usize; g.num_bins()];
        for c in 0..nl.num_movable() {
            let fp = smoothed_footprint(
                p.x[c],
                p.y[c],
                nl.cell_widths()[c],
                nl.cell_heights()[c],
                &g,
            );
            let (is, js) = g.overlapped_bins(&fp.rect);
            for (idx, a) in per_bin_reference(&g, &fp.rect, is, js) {
                want[idx] += f64::from_bits(a) * fp.scale;
                updates[idx] += 1;
            }
        }
        let got = scatter(DensityMapBuilder::new(g.clone(), DensityStrategy::Sorted), &nl, &p, 1);
        let unit = g.bin_area() / FIXED_SCALE;
        for ((a, b), k) in got.iter().zip(&want).zip(&updates) {
            // Each update rounds to half a unit; the sums add rounding.
            assert!((a - b).abs() <= (*k as f64 * 0.5 + 1.0) * unit, "{a} vs {b}");
        }
    }

    #[test]
    fn a_build_after_a_contained_panic_equals_a_fresh_builders() {
        // The drain leaves the bins zero for the next build; a scatter that
        // dies halfway leaves them dirty instead. A placement shorter than
        // the netlist makes the scatter index out of bounds after the first
        // half of the cells has been accumulated.
        let (nl, p) = design();
        let mut short = p.clone();
        short.x.truncate(nl.num_movable() / 2);
        let pool = WorkerPool::new(1);
        let fresh = || DensityMapBuilder::new(grid(), DensityStrategy::Naive);
        let mut builder = fresh();
        let mut map = Vec::new();
        builder.build_movable_into(&nl, &p, &pool, &mut map);
        assert!(builder.bins_clean);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            builder.build_movable_into(&nl, &short, &pool, &mut Vec::new());
        }));
        assert!(died.is_err(), "the short placement must panic the scatter");
        assert!(!builder.bins_clean);
        let dirty = builder.bins.iter().any(|c| c.load(Ordering::Relaxed) != 0);
        assert!(dirty, "the interrupted scatter must leave charge behind");

        builder.build_movable_into(&nl, &p, &pool, &mut map);
        assert_eq!(bits(&map), bits(&scatter(fresh(), &nl, &p, 1)));
        assert!(builder.bins_clean);
    }
}
