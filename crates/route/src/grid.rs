//! The routing grid: per-tile, per-direction usage and capacity.

use dp_netlist::Rect;
use dp_num::Float;

/// A `gx x gy` grid of routing tiles with horizontal and vertical track
/// capacities (aggregated over same-direction layers).
///
/// Usage counts wires *passing through* a tile in each direction; a tile's
/// congestion is `usage / capacity` per direction.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    gx: usize,
    gy: usize,
    cap_h: u32,
    cap_v: u32,
    usage_h: Vec<u32>,
    usage_v: Vec<u32>,
    /// Region geometry for coordinate mapping.
    xl: f64,
    yl: f64,
    tile_w: f64,
    tile_h: f64,
}

impl RoutingGrid {
    /// Creates an empty grid over `region` with the given tile counts and
    /// per-direction capacities.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or capacity is zero.
    pub fn new<T: Float>(region: Rect<T>, gx: usize, gy: usize, cap_h: u32, cap_v: u32) -> Self {
        assert!(gx > 0 && gy > 0, "grid dimensions must be positive");
        assert!(cap_h > 0 && cap_v > 0, "capacities must be positive");
        Self {
            gx,
            gy,
            cap_h,
            cap_v,
            usage_h: vec![0; gx * gy],
            usage_v: vec![0; gx * gy],
            xl: region.xl.to_f64(),
            yl: region.yl.to_f64(),
            tile_w: region.width().to_f64() / gx as f64,
            tile_h: region.height().to_f64() / gy as f64,
        }
    }

    /// Grid width in tiles.
    pub fn gx(&self) -> usize {
        self.gx
    }

    /// Grid height in tiles.
    pub fn gy(&self) -> usize {
        self.gy
    }

    /// Horizontal capacity per tile.
    pub fn cap_h(&self) -> u32 {
        self.cap_h
    }

    /// Vertical capacity per tile.
    pub fn cap_v(&self) -> u32 {
        self.cap_v
    }

    /// Tile index containing a point (clamped to the grid).
    pub fn tile_of<T: Float>(&self, x: T, y: T) -> (usize, usize) {
        let i = ((x.to_f64() - self.xl) / self.tile_w).floor();
        let j = ((y.to_f64() - self.yl) / self.tile_h).floor();
        (
            (i.max(0.0) as usize).min(self.gx - 1),
            (j.max(0.0) as usize).min(self.gy - 1),
        )
    }

    /// Flat index of tile `(i, j)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.gx && j < self.gy);
        i * self.gy + j
    }

    /// Horizontal usage at `(i, j)`.
    pub fn usage_h(&self, i: usize, j: usize) -> u32 {
        self.usage_h[self.index(i, j)]
    }

    /// Vertical usage at `(i, j)`.
    pub fn usage_v(&self, i: usize, j: usize) -> u32 {
        self.usage_v[self.index(i, j)]
    }

    /// Adds (or removes, `delta < 0`) horizontal demand along row `j` from
    /// tile `i0` to `i1` inclusive.
    pub fn add_h(&mut self, j: usize, i0: usize, i1: usize, delta: i32) {
        let (a, b) = (i0.min(i1), i0.max(i1));
        for i in a..=b {
            let idx = self.index(i, j);
            self.usage_h[idx] = (self.usage_h[idx] as i64 + delta as i64).max(0) as u32;
        }
    }

    /// Adds (or removes) vertical demand along column `i` from tile `j0` to
    /// `j1` inclusive.
    pub fn add_v(&mut self, i: usize, j0: usize, j1: usize, delta: i32) {
        let (a, b) = (j0.min(j1), j0.max(j1));
        for j in a..=b {
            let idx = self.index(i, j);
            self.usage_v[idx] = (self.usage_v[idx] as i64 + delta as i64).max(0) as u32;
        }
    }

    /// Congestion ratio of a tile: `max(usage_h/cap_h, usage_v/cap_v)` —
    /// the per-tile quantity Eq. (19) raises to its exponent.
    pub fn congestion(&self, i: usize, j: usize) -> f64 {
        let h = self.usage_h(i, j) as f64 / self.cap_h as f64;
        let v = self.usage_v(i, j) as f64 / self.cap_v as f64;
        h.max(v)
    }

    /// All directed congestion values (`usage/cap` for both directions of
    /// every tile), for the RC metric.
    pub fn congestion_values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(2 * self.gx * self.gy);
        for idx in 0..self.gx * self.gy {
            out.push(self.usage_h[idx] as f64 / self.cap_h as f64);
            out.push(self.usage_v[idx] as f64 / self.cap_v as f64);
        }
        out
    }

    /// Total overflow: `sum max(0, usage - cap)` over tiles and directions.
    pub fn total_overflow(&self) -> u64 {
        let mut t = 0u64;
        for idx in 0..self.gx * self.gy {
            t += self.usage_h[idx].saturating_sub(self.cap_h) as u64;
            t += self.usage_v[idx].saturating_sub(self.cap_v) as u64;
        }
        t
    }

    /// Incremental cost of adding one more wire in a direction through a
    /// tile: 1 plus a steep congestion penalty past capacity.
    pub fn step_cost(&self, i: usize, j: usize, horizontal: bool) -> f64 {
        let (u, c) = if horizontal {
            (self.usage_h(i, j), self.cap_h)
        } else {
            (self.usage_v(i, j), self.cap_v)
        };
        let r = (u as f64 + 1.0) / c as f64;
        if r <= 1.0 {
            1.0 + 0.1 * r
        } else {
            1.0 + 0.1 + 20.0 * (r - 1.0)
        }
    }

    /// Tile width in layout units.
    pub fn tile_width(&self) -> f64 {
        self.tile_w
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn grid() -> RoutingGrid {
        RoutingGrid::new(Rect::new(0.0f64, 0.0, 80.0, 40.0), 8, 4, 4, 4)
    }

    #[test]
    fn tile_mapping() {
        let g = grid();
        assert_eq!(g.tile_of(0.0, 0.0), (0, 0));
        assert_eq!(g.tile_of(79.9, 39.9), (7, 3));
        assert_eq!(g.tile_of(-5.0, 100.0), (0, 3));
        assert_eq!(g.tile_width(), 10.0);
    }

    #[test]
    fn demand_add_remove_round_trips() {
        let mut g = grid();
        g.add_h(1, 2, 5, 1);
        assert_eq!(g.usage_h(3, 1), 1);
        assert_eq!(g.usage_h(3, 2), 0);
        g.add_h(1, 5, 2, -1); // reversed order, negative delta
        assert_eq!(g.usage_h(3, 1), 0);
        assert_eq!(g.total_overflow(), 0);
    }

    #[test]
    fn overflow_counts_past_capacity() {
        let mut g = grid();
        for _ in 0..6 {
            g.add_v(0, 0, 0, 1);
        }
        assert_eq!(g.usage_v(0, 0), 6);
        assert_eq!(g.total_overflow(), 2);
        assert!((g.congestion(0, 0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn step_cost_rises_steeply_past_capacity() {
        let mut g = grid();
        let cheap = g.step_cost(0, 0, true);
        for _ in 0..4 {
            g.add_h(0, 0, 0, 1);
        }
        let expensive = g.step_cost(0, 0, true);
        assert!(expensive > cheap * 3.0, "{cheap} vs {expensive}");
    }

    #[test]
    fn usage_never_goes_negative() {
        let mut g = grid();
        g.add_h(0, 0, 3, -5);
        assert_eq!(g.usage_h(2, 0), 0);
    }
}
