//! Independent-set matching: optimal re-assignment of same-size cell
//! batches via the Hungarian solver.

use dp_netlist::{CellId, Netlist, Placement};
use dp_num::Float;

use crate::bbox::MoveCosts;
use crate::hungarian::{hungarian, HungarianScratch};
use crate::incremental::IncrementalHpwl;

/// Batches same-size, net-independent cells and solves the exact
/// assignment of cells to the batch's current slots; commits batches whose
/// optimal assignment lowers HPWL. Returns the number of cells actually
/// moved.
///
/// Independence (no two batch members share a net) makes per-cell costs
/// additive, so the Hungarian optimum is the true batch optimum — the same
/// construction as NTUplace3/ABCDPlace ISM.
///
/// Each cost entry widens the cell's net boxes, built once per batch, with
/// its own pins at the slot (`crate::bbox`), and a batch whose every cell
/// already sits in its cheapest slot skips the solve: rounded addition is
/// monotone, so no assignment can then undercut the current one.
pub fn independent_set_matching<T: Float>(
    nl: &Netlist<T>,
    p: &mut Placement<T>,
    batch_size: usize,
) -> usize {
    let batch_size = batch_size.clamp(2, 16);
    let n = nl.num_movable();
    let mut inc = IncrementalHpwl::new(nl, p);
    let mut costs = MoveCosts::default();
    let mut solver = HungarianScratch::default();
    let mut batch: Vec<usize> = Vec::with_capacity(batch_size);
    let mut ids: Vec<CellId> = Vec::with_capacity(batch_size);
    let mut slots: Vec<(T, T)> = Vec::with_capacity(batch_size);
    let mut cost: Vec<f64> = Vec::with_capacity(batch_size * batch_size);
    // `net_batch[net] == stamp` marks the nets the batch being built uses.
    let mut net_batch = vec![0u32; nl.num_nets()];
    let mut stamp = 0u32;

    // Group movable cells by (width, height) bit patterns.
    let mut groups: std::collections::BTreeMap<(u64, u64), Vec<usize>> =
        std::collections::BTreeMap::new();
    for c in 0..n {
        let k = (
            nl.cell_widths()[c].to_f64().to_bits(),
            nl.cell_heights()[c].to_f64().to_bits(),
        );
        groups.entry(k).or_default().push(c);
    }

    let mut moved = 0usize;
    for (_, mut cells) in groups {
        if cells.len() < 2 {
            continue;
        }
        // Order spatially (row-major) so batches are local.
        cells.sort_by(|&a, &b| {
            (p.y[a], p.x[a])
                .partial_cmp(&(p.y[b], p.x[b]))
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut cursor = 0usize;
        while cursor < cells.len() {
            // Build a net-independent batch starting at `cursor`.
            batch.clear();
            stamp += 1;
            let mut next_cursor = None;
            for (off, &c) in cells[cursor..].iter().enumerate() {
                let pins = nl.cell_pins(CellId::new(c));
                if pins
                    .iter()
                    .any(|&pin| net_batch[nl.pin_net(pin).index()] == stamp)
                {
                    continue;
                }
                for &pin in pins {
                    net_batch[nl.pin_net(pin).index()] = stamp;
                }
                batch.push(c);
                if next_cursor.is_none() {
                    next_cursor = Some(cursor + off + 1);
                }
                if batch.len() == batch_size {
                    break;
                }
            }
            cursor = next_cursor.unwrap_or(cells.len()).max(cursor + 1);
            if batch.len() < 2 {
                continue;
            }

            slots.clear();
            slots.extend(batch.iter().map(|&c| (p.x[c], p.y[c])));
            let b = batch.len();
            // cost[i * b + j] = HPWL of cell i's nets with cell i at slot j.
            cost.clear();
            for &c in &batch {
                costs.build(nl, p, &[CellId::new(c)]);
                cost.extend(slots.iter().map(|&slot| costs.cost(&[slot]).to_f64()));
            }
            if diagonal_is_row_minimum(&cost, b) {
                continue;
            }
            let assign = hungarian(&cost, b, &mut solver);
            let current: f64 = (0..b).map(|i| cost[i * b + i]).sum();
            let optimal: f64 = (0..b).map(|i| cost[i * b + assign[i]]).sum();
            if optimal + 1e-9 < current {
                ids.clear();
                ids.extend(batch.iter().map(|&c| CellId::new(c)));
                for i in 0..b {
                    let c = batch[i];
                    p.x[c] = slots[assign[i]].0;
                    p.y[c] = slots[assign[i]].1;
                    if assign[i] != i {
                        moved += 1;
                    }
                }
                inc.update_cells(nl, p, &ids);
            }
        }
    }
    moved
}

/// True when every cell already sits in its cheapest slot. The commit
/// test `optimal + 1e-9 < current` then cannot pass: both sums add rows
/// `0..b` in order, each optimal term is `>=` its diagonal term, and
/// rounded addition is monotone, so `optimal >= current`. Skipping the
/// solve drops no batch the solve would commit; a NaN entry never skips.
fn diagonal_is_row_minimum(cost: &[f64], b: usize) -> bool {
    cost.chunks_exact(b)
        .enumerate()
        .all(|(i, row)| row.iter().all(|&c| row[i] <= c))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_lg::check_legal;
    use dp_netlist::{hpwl, NetlistBuilder, RowGrid};

    /// Three cells cyclically misplaced across three slots: ISM must find
    /// the rotation that global-swap's pairwise moves may miss.
    #[test]
    fn solves_three_cycle() {
        let rows = RowGrid::uniform(0.0, 0.0, 120.0, 16.0, 8.0, 1.0);
        let mut b = NetlistBuilder::new(0.0, 0.0, 120.0, 16.0).with_rows(rows);
        let cells: Vec<_> = (0..3).map(|_| b.add_movable_cell(2.0, 8.0)).collect();
        let anchors: Vec<_> = (0..3).map(|_| b.add_fixed_cell(2.0, 8.0)).collect();
        for i in 0..3 {
            b.add_net(1.0, vec![(cells[i], 0.0, 0.0), (anchors[i], 0.0, 0.0)])
                .expect("valid");
        }
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        // Cells in the bottom row, rotated by one slot relative to their
        // anchors, which sit in the top row at x = 10, 60, 110.
        p.x = vec![60.0, 110.0, 10.0, 10.0, 60.0, 110.0];
        p.y = vec![4.0, 4.0, 4.0, 12.0, 12.0, 12.0];
        let before = hpwl(&nl, &p);
        let moved = independent_set_matching(&nl, &mut p, 8);
        assert_eq!(moved, 3, "all three cells rotate");
        let after = hpwl(&nl, &p);
        assert!(
            (after - 24.0).abs() < 1e-9,
            "optimal is 3 nets x 8 dy: {before} -> {after}"
        );
        assert!(check_legal(&nl, &p).is_legal());
    }

    /// Whenever the skip fires, the solve path would not have committed:
    /// random `b x b` matrices, diagonals pulled down to (or tied with)
    /// their row minimum, entries drawn from a small set of inexact
    /// decimals so sums round and ties are common.
    #[test]
    fn hungarian_skip_never_drops_a_committable_batch() {
        use crate::hungarian::{hungarian, HungarianScratch};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(2029);
        let mut solver = HungarianScratch::default();
        let values = [0.1, 0.2, 0.3, 0.7, 1e-9, 3e-10, 1234.5678, 1234.5679, 9.0e7];
        let mut fired = 0;
        for round in 0..20_000 {
            let b = 2 + round % 15;
            let mut cost: Vec<f64> = (0..b * b)
                .map(|_| values[rng.gen_range(0..values.len())] * rng.gen_range(1..4) as f64)
                .collect();
            for i in 0..b {
                let row = &mut cost[i * b..(i + 1) * b];
                let min = row.iter().copied().fold(f64::INFINITY, f64::min);
                if rng.gen_bool(0.9) {
                    row[i] = min;
                }
            }
            if !diagonal_is_row_minimum(&cost, b) {
                continue;
            }
            fired += 1;
            let assign = hungarian(&cost, b, &mut solver);
            let current: f64 = (0..b).map(|i| cost[i * b + i]).sum();
            let optimal: f64 = (0..b).map(|i| cost[i * b + assign[i]]).sum();
            assert!(optimal + 1e-9 >= current, "b={b} cost={cost:?}");
        }
        assert!(fired > 1000, "the skip fired only {fired} times");
        assert!(!diagonal_is_row_minimum(&[f64::NAN, 1.0, 1.0, 0.0], 2));
    }

    #[test]
    fn batches_respect_net_independence() {
        // Two cells sharing a net can never be in one batch, so a case
        // where only a joint move helps must remain unchanged.
        let rows = RowGrid::uniform(0.0, 0.0, 40.0, 8.0, 8.0, 1.0);
        let mut b = NetlistBuilder::new(0.0, 0.0, 40.0, 8.0).with_rows(rows);
        let a = b.add_movable_cell(2.0, 8.0);
        let c = b.add_movable_cell(2.0, 8.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        p.x = vec![5.0, 15.0];
        p.y = vec![4.0, 4.0];
        let before = hpwl(&nl, &p);
        let moved = independent_set_matching(&nl, &mut p, 8);
        assert_eq!(moved, 0);
        assert_eq!(hpwl(&nl, &p), before);
    }
}
