//! Local reordering: exhaustive permutation of small windows within rows.

use dp_netlist::{CellId, Netlist, Placement};
use dp_num::Float;

use crate::bbox::MoveCosts;
use crate::incremental::IncrementalHpwl;

/// Re-sequences every window of `k` consecutive cells per row when a
/// permutation lowers HPWL; returns the number of committed improvements.
///
/// Cells in a window are repacked consecutively from the window's left
/// edge, which always fits inside the original span, so legality is
/// preserved. A permutation is priced by widening the window's cached net
/// boxes (`crate::bbox`) with its cells' packed positions; the placement
/// is only written for the committed order.
///
/// # Panics
///
/// Panics if `k < 2` (window of one is meaningless) or `k > 4`
/// (factorial blow-up guard).
pub fn local_reorder<T: Float>(nl: &Netlist<T>, p: &mut Placement<T>, k: usize) -> usize {
    assert!((2..=4).contains(&k), "window size must be 2..=4");
    let rows = group_rows(nl, p);
    let mut inc = IncrementalHpwl::new(nl, p);
    let mut costs = MoveCosts::default();
    let mut improvements = 0usize;
    let eps = T::from_f64(1e-9);
    let widths = nl.cell_widths();

    for mut row in rows {
        if row.len() < k {
            continue;
        }
        for w0 in 0..=row.len() - k {
            let window: [usize; 4] = std::array::from_fn(|i| if i < k { row[w0 + i] } else { 0 });
            let ids = window.map(CellId::new);
            let (window, ids) = (&window[..k], &ids[..k]);
            // Left edge of the packed window.
            let start = window
                .iter()
                .map(|&c| p.x[c] - widths[c] * T::HALF)
                .fold(T::INFINITY, T::min);

            let before = inc.cost_of_cells(nl, ids);
            costs.build(nl, p, ids);
            // at[s] = center of window cell s under the probed order.
            let mut at = [(T::ZERO, T::ZERO); 4];
            for (a, &c) in at.iter_mut().zip(window) {
                a.1 = p.y[c];
            }

            let mut best_cost = before;
            let mut best_perm: Option<[usize; 4]> = None;
            let mut perm = [0, 1, 2, 3];
            permute(&mut perm[..k], 0, &mut |order| {
                let mut x = start;
                for &slot in order {
                    let w = widths[window[slot]];
                    at[slot].0 = x + w * T::HALF;
                    x += w;
                }
                let cost = costs.cost(&at[..k]);
                if cost + eps < best_cost {
                    best_cost = cost;
                    let mut best = [0; 4];
                    best[..k].copy_from_slice(order);
                    best_perm = Some(best);
                }
            });

            // Commit the best order if it improves.
            if let Some(order) = best_perm {
                let order = &order[..k];
                let mut x = start;
                for &slot in order {
                    let c = window[slot];
                    let w = widths[c];
                    p.x[c] = x + w * T::HALF;
                    x += w;
                }
                inc.update_cells(nl, p, ids);
                // Keep the row list in x order so the next (overlapping)
                // window packs against the committed neighbors.
                for (i, &slot) in order.iter().enumerate() {
                    row[w0 + i] = window[slot];
                }
                improvements += 1;
            }
        }
    }
    improvements
}

/// Groups movable cells into row *segments* by their (legal) y coordinate,
/// sorted by x and split wherever a fixed blockage lies between two
/// neighbours — windows must never pack a cell across a macro.
pub(crate) fn group_rows<T: Float>(nl: &Netlist<T>, p: &Placement<T>) -> Vec<Vec<usize>> {
    // Single-row cells only; movable macros (taller than the common row
    // height) are treated as blockages like fixed cells.
    let row_h = nl
        .rows()
        .map(|r| r.row_height().to_f64())
        .unwrap_or_else(|| {
            (0..nl.num_movable())
                .map(|c| nl.cell_heights()[c].to_f64())
                .fold(f64::INFINITY, f64::min)
        });
    let mut by_y: std::collections::BTreeMap<i64, Vec<usize>> = std::collections::BTreeMap::new();
    let mut tall: Vec<usize> = Vec::new();
    for c in 0..nl.num_movable() {
        if nl.cell_heights()[c].to_f64() > row_h + 1e-9 {
            tall.push(c);
            continue;
        }
        let key = (p.y[c].to_f64() * 1024.0).round() as i64;
        by_y.entry(key).or_default().push(c);
    }

    // Fixed cells and movable macros as (y-interval, x-interval) blockages.
    let blockages: Vec<(f64, f64, f64, f64)> = (nl.num_movable()..nl.num_cells())
        .chain(tall)
        .map(|i| {
            let w = nl.cell_widths()[i].to_f64();
            let h = nl.cell_heights()[i].to_f64();
            let (cx, cy) = (p.x[i].to_f64(), p.y[i].to_f64());
            (cy - h / 2.0, cy + h / 2.0, cx - w / 2.0, cx + w / 2.0)
        })
        .collect();

    let mut out = Vec::new();
    for (_, mut row) in by_y {
        row.sort_by(|&a, &b| p.x[a].partial_cmp(&p.x[b]).unwrap_or(std::cmp::Ordering::Equal));
        if row.is_empty() {
            continue;
        }
        // Blockage x-intervals overlapping this row's y band.
        let y0 = p.y[row[0]].to_f64() - nl.cell_heights()[row[0]].to_f64() / 2.0;
        let y1 = p.y[row[0]].to_f64() + nl.cell_heights()[row[0]].to_f64() / 2.0;
        let blocked: Vec<(f64, f64)> = blockages
            .iter()
            .filter(|&&(byl, byh, ..)| byl < y1 - 1e-9 && byh > y0 + 1e-9)
            .map(|&(_, _, bxl, bxh)| (bxl, bxh))
            .collect();

        let mut segment: Vec<usize> = Vec::new();
        let mut prev_end = f64::NEG_INFINITY;
        for &c in &row {
            let ll = p.x[c].to_f64() - nl.cell_widths()[c].to_f64() / 2.0;
            let split = blocked
                .iter()
                .any(|&(bxl, bxh)| bxl >= prev_end - 1e-9 && bxh <= ll + 1e-9);
            if split && !segment.is_empty() {
                out.push(std::mem::take(&mut segment));
            }
            prev_end = ll + nl.cell_widths()[c].to_f64();
            segment.push(c);
        }
        if !segment.is_empty() {
            out.push(segment);
        }
    }
    out
}

fn permute(v: &mut [usize], k: usize, f: &mut impl FnMut(&[usize])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, f);
        v.swap(k, i);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_lg::check_legal;
    use dp_netlist::{hpwl, NetlistBuilder, RowGrid};

    /// Two cells in the wrong order relative to their anchors: reordering
    /// must swap them.
    #[test]
    fn swaps_crossed_pair() {
        let rows = RowGrid::uniform(0.0, 0.0, 40.0, 8.0, 8.0, 1.0);
        let mut b = NetlistBuilder::new(0.0, 0.0, 40.0, 8.0).with_rows(rows);
        let a = b.add_movable_cell(2.0, 8.0);
        let c = b.add_movable_cell(2.0, 8.0);
        let l = b.add_fixed_cell(2.0, 8.0); // left anchor
        let r = b.add_fixed_cell(2.0, 8.0); // right anchor
        b.add_net(1.0, vec![(a, 0.0, 0.0), (r, 0.0, 0.0)])
            .expect("valid");
        b.add_net(1.0, vec![(c, 0.0, 0.0), (l, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        // a sits left of c, but a wants to be right (anchored at 39).
        p.x = vec![11.0, 13.0, 1.0, 39.0];
        p.y = vec![4.0, 4.0, 4.0, 4.0];
        let before = hpwl(&nl, &p);
        let n = local_reorder(&nl, &mut p, 2);
        assert_eq!(n, 1);
        assert!(hpwl(&nl, &p) < before);
        assert!(p.x[0] > p.x[1], "cells swapped: {:?}", p.x);
        assert!(check_legal(&nl, &p).is_legal());
    }

    #[test]
    fn no_moves_on_already_optimal_row() {
        let rows = RowGrid::uniform(0.0, 0.0, 40.0, 8.0, 8.0, 1.0);
        let mut b = NetlistBuilder::new(0.0, 0.0, 40.0, 8.0).with_rows(rows);
        let a = b.add_movable_cell(2.0, 8.0);
        let c = b.add_movable_cell(2.0, 8.0);
        let l = b.add_fixed_cell(2.0, 8.0);
        let r = b.add_fixed_cell(2.0, 8.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (l, 0.0, 0.0)])
            .expect("valid");
        b.add_net(1.0, vec![(c, 0.0, 0.0), (r, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        p.x = vec![5.0, 7.0, 1.0, 39.0];
        p.y = vec![4.0, 4.0, 4.0, 4.0];
        // Already in the right order and adjacent: no strict improvement.
        let n = local_reorder(&nl, &mut p, 2);
        assert_eq!(n, 0);
    }
}
