//! Global swap: exchange equal-size cell pairs toward their optimal
//! regions.

use dp_netlist::{CellId, Netlist, Placement};
use dp_num::Float;

use crate::incremental::IncrementalHpwl;

/// For each movable cell, computes its preferred location (the median of
/// its nets' bounding-box centers, the classic "optimal region" proxy) and
/// tries swapping with equal-size cells near that location; commits
/// HPWL-improving swaps. Returns the number of committed swaps.
pub fn global_swap<T: Float>(nl: &Netlist<T>, p: &mut Placement<T>) -> usize {
    let n = nl.num_movable();
    let mut inc = IncrementalHpwl::new(nl, p);
    let eps = T::from_f64(1e-9);

    // Spatial buckets of movable cells for candidate lookup.
    let region = nl.region();
    let bucket = (region.width().to_f64() / 16.0).max(1e-9);
    let key = |x: T, y: T| -> (i64, i64) {
        (
            (x.to_f64() / bucket).floor() as i64,
            (y.to_f64() / bucket).floor() as i64,
        )
    };
    let mut grid = BucketGrid::new((0..n).map(|c| (key(p.x[c], p.y[c]), c)));
    let mut median = MedianScratch::default();

    let mut swaps = 0usize;
    for c in 0..n {
        let target = optimal_position(nl, p, c, &mut median);
        let (tx, ty) = match target {
            Some(t) => t,
            None => continue,
        };
        // Already close to the target: skip.
        if (p.x[c] - tx).abs().to_f64() < bucket && (p.y[c] - ty).abs().to_f64() < bucket {
            continue;
        }
        let (bx, by) = key(tx, ty);
        let mut best: Option<(T, usize)> = None;
        for dx in -1..=1 {
            for dy in -1..=1 {
                for other in grid.get((bx + dx, by + dy)) {
                    if other == c
                        || nl.cell_widths()[other] != nl.cell_widths()[c]
                        || nl.cell_heights()[other] != nl.cell_heights()[c]
                    {
                        continue;
                    }
                    let ids = [CellId::new(c), CellId::new(other)];
                    let before = inc.cost_of_cells(nl, &ids);
                    swap_positions(p, c, other);
                    let after = inc.eval_cells(nl, p, &ids);
                    swap_positions(p, c, other); // restore
                    let gain = before - after;
                    if gain > eps && best.is_none_or(|(g, _)| gain > g) {
                        best = Some((gain, other));
                    }
                }
            }
        }
        if let Some((_, other)) = best {
            let (kc, ko) = (key(p.x[c], p.y[c]), key(p.x[other], p.y[other]));
            swap_positions(p, c, other);
            inc.update_cells(nl, p, &[CellId::new(c), CellId::new(other)]);
            // Keep the buckets in sync.
            if kc != ko {
                grid.replace(kc, c, other);
                grid.replace(ko, other, c);
            }
            swaps += 1;
        }
    }
    swaps
}

/// Cells bucketed by integer key on a dense row-major grid over the
/// occupied keys, each bucket in insertion order: a lookup visits a key's
/// candidates in the order a hash map of `Vec`s would. Entries carry their
/// key, and a grid wider than [`BucketGrid::MAX_SIDE`] per axis (only
/// reachable from far-out or non-finite positions) clamps keys to its edge
/// buckets, which lookups then filter by key.
pub(crate) struct BucketGrid {
    lo: (i64, i64),
    side: (i64, i64),
    buckets: Vec<Vec<((i64, i64), usize)>>,
}

impl BucketGrid {
    const MAX_SIDE: i64 = 512;

    /// Buckets every `(key, cell)` in order.
    pub(crate) fn new(entries: impl Iterator<Item = ((i64, i64), usize)> + Clone) -> Self {
        let (mut lo, mut hi) = ((i64::MAX, i64::MAX), (i64::MIN, i64::MIN));
        for ((kx, ky), _) in entries.clone() {
            lo = (lo.0.min(kx), lo.1.min(ky));
            hi = (hi.0.max(kx), hi.1.max(ky));
        }
        let side = |lo: i64, hi: i64| {
            hi.saturating_sub(lo)
                .saturating_add(1)
                .clamp(1, Self::MAX_SIDE)
        };
        let side = (side(lo.0, hi.0), side(lo.1, hi.1));
        let mut grid = Self {
            lo,
            side,
            buckets: vec![Vec::new(); (side.0 * side.1) as usize],
        };
        for (key, cell) in entries {
            let b = grid.bucket(key);
            grid.buckets[b].push((key, cell));
        }
        grid
    }

    fn bucket(&self, (kx, ky): (i64, i64)) -> usize {
        let ix = kx.saturating_sub(self.lo.0).clamp(0, self.side.0 - 1);
        let iy = ky.saturating_sub(self.lo.1).clamp(0, self.side.1 - 1);
        (iy * self.side.0 + ix) as usize
    }

    /// The cells at `key`, in insertion order.
    pub(crate) fn get(&self, key: (i64, i64)) -> impl Iterator<Item = usize> + '_ {
        self.buckets[self.bucket(key)]
            .iter()
            .filter(move |&&(k, _)| k == key)
            .map(|&(_, c)| c)
    }

    /// Replaces `old` (at `key`) by `new`, appended last at `key`.
    pub(crate) fn replace(&mut self, key: (i64, i64), old: usize, new: usize) {
        let b = self.bucket(key);
        self.buckets[b].retain(|&entry| entry != (key, old));
        self.buckets[b].push((key, new));
    }
}

/// Reused storage for [`optimal_position`]'s per-net box centers.
#[derive(Debug, Default)]
pub(crate) struct MedianScratch<T> {
    xs: Vec<T>,
    ys: Vec<T>,
}

/// The median of the incident nets' bounding-box centers, computed with the
/// cell's own pins excluded; `None` for cells with no external connections.
pub(crate) fn optimal_position<T: Float>(
    nl: &Netlist<T>,
    p: &Placement<T>,
    cell: usize,
    scratch: &mut MedianScratch<T>,
) -> Option<(T, T)> {
    let cid = CellId::new(cell);
    let MedianScratch { xs, ys } = scratch;
    xs.clear();
    ys.clear();
    for &pin in nl.cell_pins(cid) {
        let net = nl.pin_net(pin);
        let mut x_lo = T::INFINITY;
        let mut x_hi = T::NEG_INFINITY;
        let mut y_lo = T::INFINITY;
        let mut y_hi = T::NEG_INFINITY;
        let mut external = false;
        for &q in nl.net_pins(net) {
            let oc = nl.pin_cell(q);
            if oc == cid {
                continue;
            }
            external = true;
            let (dx, dy) = nl.pin_offset(q);
            let px = p.x[oc.index()] + dx;
            let py = p.y[oc.index()] + dy;
            x_lo = x_lo.min(px);
            x_hi = x_hi.max(px);
            y_lo = y_lo.min(py);
            y_hi = y_hi.max(py);
        }
        if external {
            xs.push((x_lo + x_hi) * T::HALF);
            ys.push((y_lo + y_hi) * T::HALF);
        }
    }
    if xs.is_empty() {
        return None;
    }
    Some((median(xs), median(ys)))
}

fn median<T: Float>(v: &mut [T]) -> T {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v[v.len() / 2]
}

fn swap_positions<T: Float>(p: &mut Placement<T>, a: usize, b: usize) {
    p.x.swap(a, b);
    p.y.swap(a, b);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_lg::check_legal;
    use dp_netlist::{hpwl, NetlistBuilder, RowGrid};

    /// Two cells placed at each other's ideal location must swap.
    #[test]
    fn swaps_mutually_misplaced_cells() {
        let rows = RowGrid::uniform(0.0, 0.0, 100.0, 8.0, 8.0, 1.0);
        let mut b = NetlistBuilder::new(0.0, 0.0, 100.0, 8.0).with_rows(rows);
        let a = b.add_movable_cell(2.0, 8.0);
        let c = b.add_movable_cell(2.0, 8.0);
        let l = b.add_fixed_cell(2.0, 8.0);
        let r = b.add_fixed_cell(2.0, 8.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (r, 0.0, 0.0)])
            .expect("valid");
        b.add_net(1.0, vec![(c, 0.0, 0.0), (l, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        p.x = vec![5.0, 95.0, 1.0, 99.0]; // a left (wants right), c right (wants left)
        p.y = vec![4.0; 4];
        let before = hpwl(&nl, &p);
        let swaps = global_swap(&nl, &mut p);
        assert_eq!(swaps, 1);
        assert!(hpwl(&nl, &p) < before * 0.2, "big win expected");
        assert!(p.x[0] > p.x[1]);
        assert!(check_legal(&nl, &p).is_legal());
    }

    /// The grid visits each key's cells in the order a `HashMap` of `Vec`s
    /// does, through swaps, also when far-out keys clamp into edge buckets.
    #[test]
    fn bucket_grid_matches_a_hash_map_of_vecs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashMap;

        let mut rng = StdRng::seed_from_u64(11);
        for spread in [3i64, 40, 5_000] {
            let far = [i64::MIN, -1 << 40, 1 << 40, i64::MAX];
            let mut keys: Vec<(i64, i64)> = (0..300)
                .map(|_| {
                    let mut k = || {
                        if rng.gen_bool(0.03) {
                            far[rng.gen_range(0..far.len())]
                        } else {
                            rng.gen_range(-spread..spread)
                        }
                    };
                    (k(), k())
                })
                .collect();
            let mut grid = BucketGrid::new(keys.iter().copied().zip(0..));
            let mut model: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
            for (c, &k) in keys.iter().enumerate() {
                model.entry(k).or_default().push(c);
            }
            for _ in 0..500 {
                let (a, b) = (rng.gen_range(0..keys.len()), rng.gen_range(0..keys.len()));
                let (ka, kb) = (keys[a], keys[b]);
                if a == b || ka == kb {
                    continue;
                }
                grid.replace(ka, a, b);
                grid.replace(kb, b, a);
                for (k, old, new) in [(ka, a, b), (kb, b, a)] {
                    let v = model.get_mut(&k).expect("occupied");
                    v.retain(|&x| x != old);
                    v.push(new);
                }
                keys.swap(a, b);
            }
            let probes = keys
                .iter()
                .flat_map(|&(x, y)| [(x, y), (x.wrapping_add(1), y), (x, y.wrapping_sub(1))]);
            for k in probes.chain(far.iter().map(|&f| (f, 0))) {
                let want = model.get(&k).cloned().unwrap_or_default();
                assert_eq!(grid.get(k).collect::<Vec<_>>(), want, "key {k:?}");
            }
        }
    }

    #[test]
    fn ignores_cells_of_different_width() {
        let rows = RowGrid::uniform(0.0, 0.0, 100.0, 8.0, 8.0, 1.0);
        let mut b = NetlistBuilder::new(0.0, 0.0, 100.0, 8.0).with_rows(rows);
        let a = b.add_movable_cell(2.0, 8.0);
        let c = b.add_movable_cell(4.0, 8.0); // different width
        let l = b.add_fixed_cell(2.0, 8.0);
        let r = b.add_fixed_cell(2.0, 8.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (r, 0.0, 0.0)])
            .expect("valid");
        b.add_net(1.0, vec![(c, 0.0, 0.0), (l, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        p.x = vec![5.0, 95.0, 1.0, 99.0];
        p.y = vec![4.0; 4];
        assert_eq!(global_swap(&nl, &mut p), 0);
    }
}
