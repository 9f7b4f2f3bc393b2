//! Test oracle: the detailed-placement passes as they were before moves
//! were priced by bounding boxes. Every probe mutates the placement and
//! re-walks each incident net with [`IncrementalHpwl::eval_cells`]; the
//! Hungarian solver allocates per call; global swap buckets cells in a
//! `HashMap`. The production passes must reproduce these bit for bit.

use std::collections::{BTreeMap, HashMap};

use dp_netlist::{hpwl, CellId, NetId, Netlist, Placement};
use dp_num::Float;

use crate::incremental::IncrementalHpwl;
use crate::reorder::group_rows;
use crate::{DpStats, ISM_BATCH, MAX_ROUNDS, WINDOW};

/// [`crate::DetailedPlacer::run`]'s round loop over the reference passes, without
/// the pass gate (`runtime` is 0).
pub(crate) fn run<T: Float>(nl: &Netlist<T>, p: &mut Placement<T>) -> DpStats {
    let initial = hpwl(nl, p).to_f64();
    let mut moves = 0usize;
    for _ in 0..MAX_ROUNDS {
        let before = moves;
        moves += global_swap(nl, p);
        moves += local_reorder(nl, p, WINDOW);
        moves += independent_set_matching(nl, p, ISM_BATCH);
        if moves == before {
            break;
        }
    }
    DpStats {
        initial_hpwl: initial,
        final_hpwl: hpwl(nl, p).to_f64(),
        moves,
        runtime: 0.0,
    }
}

pub(crate) fn global_swap<T: Float>(nl: &Netlist<T>, p: &mut Placement<T>) -> usize {
    let n = nl.num_movable();
    let mut inc = IncrementalHpwl::new(nl, p);
    let eps = T::from_f64(1e-9);
    let region = nl.region();
    let bucket = (region.width().to_f64() / 16.0).max(1e-9);
    let key = |x: T, y: T| -> (i64, i64) {
        (
            (x.to_f64() / bucket).floor() as i64,
            (y.to_f64() / bucket).floor() as i64,
        )
    };
    let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for c in 0..n {
        grid.entry(key(p.x[c], p.y[c])).or_default().push(c);
    }

    let mut swaps = 0usize;
    for c in 0..n {
        let Some((tx, ty)) = optimal_position(nl, p, c) else {
            continue;
        };
        if (p.x[c] - tx).abs().to_f64() < bucket && (p.y[c] - ty).abs().to_f64() < bucket {
            continue;
        }
        let (bx, by) = key(tx, ty);
        let mut best: Option<(T, usize)> = None;
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(cands) = grid.get(&(bx + dx, by + dy)) else {
                    continue;
                };
                for &other in cands {
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
                    swap_positions(p, c, other);
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
            if kc != ko {
                if let Some(v) = grid.get_mut(&kc) {
                    v.retain(|&x| x != c);
                    v.push(other);
                }
                if let Some(v) = grid.get_mut(&ko) {
                    v.retain(|&x| x != other);
                    v.push(c);
                }
            }
            swaps += 1;
        }
    }
    swaps
}

fn optimal_position<T: Float>(nl: &Netlist<T>, p: &Placement<T>, cell: usize) -> Option<(T, T)> {
    let cid = CellId::new(cell);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
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
    let median = |v: &mut Vec<T>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v[v.len() / 2]
    };
    Some((median(&mut xs), median(&mut ys)))
}

fn swap_positions<T: Float>(p: &mut Placement<T>, a: usize, b: usize) {
    p.x.swap(a, b);
    p.y.swap(a, b);
}

pub(crate) fn local_reorder<T: Float>(nl: &Netlist<T>, p: &mut Placement<T>, k: usize) -> usize {
    let rows = group_rows(nl, p);
    let mut inc = IncrementalHpwl::new(nl, p);
    let mut improvements = 0usize;
    let eps = T::from_f64(1e-9);

    for mut row in rows {
        if row.len() < k {
            continue;
        }
        for w0 in 0..=row.len() - k {
            let window: Vec<usize> = row[w0..w0 + k].to_vec();
            let ids: Vec<CellId> = window.iter().map(|&c| CellId::new(c)).collect();
            let start = window
                .iter()
                .map(|&c| p.x[c] - nl.cell_widths()[c] * T::HALF)
                .fold(T::INFINITY, T::min);

            let before = inc.cost_of_cells(nl, &ids);
            let saved: Vec<T> = window.iter().map(|&c| p.x[c]).collect();

            let mut best_cost = before;
            let mut best_perm: Option<Vec<usize>> = None;
            let mut perm: Vec<usize> = (0..k).collect();
            permute(&mut perm, 0, &mut |order| {
                let mut x = start;
                for &slot in order {
                    let c = window[slot];
                    let w = nl.cell_widths()[c];
                    p.x[c] = x + w * T::HALF;
                    x += w;
                }
                let cost = inc.eval_cells(nl, p, &ids);
                if cost + eps < best_cost {
                    best_cost = cost;
                    best_perm = Some(order.to_vec());
                }
            });

            for (i, &c) in window.iter().enumerate() {
                p.x[c] = saved[i];
            }
            if let Some(order) = best_perm {
                let mut x = start;
                for &slot in &order {
                    let c = window[slot];
                    let w = nl.cell_widths()[c];
                    p.x[c] = x + w * T::HALF;
                    x += w;
                }
                inc.update_cells(nl, p, &ids);
                for (i, &slot) in order.iter().enumerate() {
                    row[w0 + i] = window[slot];
                }
                improvements += 1;
            }
        }
    }
    improvements
}

fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
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

pub(crate) fn independent_set_matching<T: Float>(
    nl: &Netlist<T>,
    p: &mut Placement<T>,
    batch_size: usize,
) -> usize {
    let batch_size = batch_size.clamp(2, 16);
    let n = nl.num_movable();
    let mut inc = IncrementalHpwl::new(nl, p);

    let mut groups: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
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
        cells.sort_by(|&a, &b| {
            (p.y[a], p.x[a])
                .partial_cmp(&(p.y[b], p.x[b]))
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut cursor = 0usize;
        while cursor < cells.len() {
            let mut batch: Vec<usize> = Vec::with_capacity(batch_size);
            let mut nets_used: Vec<NetId> = Vec::new();
            let mut next_cursor = None;
            for (off, &c) in cells[cursor..].iter().enumerate() {
                let cell_nets: Vec<NetId> = nl
                    .cell_pins(CellId::new(c))
                    .iter()
                    .map(|&pin| nl.pin_net(pin))
                    .collect();
                if cell_nets.iter().any(|net| nets_used.contains(net)) {
                    continue;
                }
                nets_used.extend(cell_nets);
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

            let slots: Vec<(T, T)> = batch.iter().map(|&c| (p.x[c], p.y[c])).collect();
            let b = batch.len();
            let mut cost = vec![vec![0.0f64; b]; b];
            for i in 0..b {
                let c = batch[i];
                let (ox, oy) = (p.x[c], p.y[c]);
                let ids = [CellId::new(c)];
                for j in 0..b {
                    p.x[c] = slots[j].0;
                    p.y[c] = slots[j].1;
                    cost[i][j] = inc.eval_cells(nl, p, &ids).to_f64();
                }
                p.x[c] = ox;
                p.y[c] = oy;
            }
            let assign = hungarian(&cost);
            let current: f64 = (0..b).map(|i| cost[i][i]).sum();
            let optimal: f64 = (0..b).map(|i| cost[i][assign[i]]).sum();
            if optimal + 1e-9 < current {
                let ids: Vec<CellId> = batch.iter().map(|&c| CellId::new(c)).collect();
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

/// The Hungarian solver on a nested matrix, allocating per row.
pub(crate) fn hungarian(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    let inf = f64::INFINITY;
    let mut u = vec![0.0; n + 1];
    let mut v = vec![0.0; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assign = vec![0usize; n];
    for j in 1..=n {
        if p[j] != 0 {
            assign[p[j] - 1] = j - 1;
        }
    }
    assign
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{global_swap, independent_set_matching, local_reorder, DetailedPlacer};
    use dp_gen::GeneratorConfig;
    use dp_gp::initial_placement;
    use dp_lg::Legalizer;
    use dp_netlist::{BuilderCell, NetlistBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A legalized generated design (fixed blockages, movable macros,
    /// random pin offsets) rebuilt with the net shapes the box costs must
    /// get right: 1-pin nets, nets with two pins on one cell, nets wholly
    /// on one cell (inside any ISM batch that holds it) and nets wholly
    /// inside a reorder window of row neighbours.
    fn design<T: Float>(seed: u64) -> (Netlist<T>, Placement<T>) {
        let cells = 120 + 40 * (seed as usize % 4);
        let d = GeneratorConfig::new("oracle", cells, cells + cells / 8)
            .with_seed(seed)
            .with_utilization(0.5 + 0.05 * (seed % 5) as f64)
            .with_macros(1 + seed as usize % 3, 0.1)
            .with_movable_macros(2, 2)
            .generate::<T>()
            .expect("generates");
        let mut p = initial_placement(&d.netlist, &d.fixed_positions, 0.05, seed);
        Legalizer::new()
            .legalize(&d.netlist, &mut p)
            .expect("legalizes");
        (with_special_nets(&d.netlist, &p, seed), p)
    }

    fn with_special_nets<T: Float>(nl: &Netlist<T>, p: &Placement<T>, seed: u64) -> Netlist<T> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let r = nl.region();
        let mut b = NetlistBuilder::new(r.xl, r.yl, r.xh, r.yh)
            .with_rows(nl.rows().expect("generated designs have rows").clone())
            .allow_degenerate_nets(true);
        let (w, h) = (nl.cell_widths(), nl.cell_heights());
        let cells: Vec<BuilderCell> = (0..nl.num_cells())
            .map(|c| {
                if c < nl.num_movable() {
                    b.add_movable_cell(w[c], h[c])
                } else {
                    b.add_fixed_cell(w[c], h[c])
                }
            })
            .collect();
        for net in nl.nets() {
            let pins = nl
                .net_pins(net)
                .iter()
                .map(|&q| {
                    let (dx, dy) = nl.pin_offset(q);
                    (cells[nl.pin_cell(q).index()], dx, dy)
                })
                .collect();
            b.add_net(nl.net_weight(net), pins).expect("valid");
        }
        let n = nl.num_movable();
        let pin = |rng: &mut StdRng, c: usize| {
            let dx = T::from_f64(rng.gen_range(-0.45..0.45)) * w[c];
            let dy = T::from_f64(rng.gen_range(-0.45..0.45)) * h[c];
            (cells[c], dx, dy)
        };
        let weight = |rng: &mut StdRng| T::from_f64(rng.gen_range(0.5..2.0));
        for _ in 0..6 {
            let c = rng.gen_range(0..n);
            let wt = weight(&mut rng);
            b.add_net(wt, vec![pin(&mut rng, c)]).expect("1-pin net");
            let c = rng.gen_range(0..n);
            let wt = weight(&mut rng);
            let both = vec![pin(&mut rng, c), pin(&mut rng, c)];
            b.add_net(wt, both).expect("net wholly on one cell");
            let (c, o, f) = (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..nl.num_cells()),
            );
            let wt = weight(&mut rng);
            let shared = vec![
                pin(&mut rng, c),
                pin(&mut rng, o),
                pin(&mut rng, c),
                pin(&mut rng, f),
            ];
            b.add_net(wt, shared)
                .expect("two pins of one cell on a shared net");
        }
        // Nets over row neighbours: each lies inside every reorder window
        // that covers its cells.
        let mut by_row: Vec<usize> = (0..n).collect();
        by_row.sort_by(|&a, &c| {
            (p.y[a], p.x[a])
                .partial_cmp(&(p.y[c], p.x[c]))
                .expect("finite")
        });
        for pair in by_row.windows(3).step_by(17) {
            if pair.iter().all(|&c| p.y[c] == p.y[pair[0]]) {
                let wt = weight(&mut rng);
                let two = vec![pin(&mut rng, pair[0]), pin(&mut rng, pair[1])];
                b.add_net(wt, two).expect("window net");
                let wt = weight(&mut rng);
                let three = pair.iter().map(|&c| pin(&mut rng, c)).collect();
                b.add_net(wt, three).expect("window net");
            }
        }
        b.build().expect("valid")
    }

    fn assert_same<T: Float>(what: &str, got: &Placement<T>, want: &Placement<T>) {
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.x), bits(&want.x), "{what}: x");
        assert_eq!(bits(&got.y), bits(&want.y), "{what}: y");
    }

    /// Each pass, at every window and batch size, and the whole driver
    /// make the reference's moves and land on its bits.
    fn passes_match_the_reference<T: Float>() {
        for seed in 0..24u64 {
            let (nl, p0) = design::<T>(seed);
            let tag = |pass: &str| format!("{} seed {seed} {pass}", T::PRECISION_NAME);

            let (mut got, mut want) = (p0.clone(), p0.clone());
            assert_eq!(
                global_swap(&nl, &mut got),
                global_swap(&nl, &mut want),
                "{}",
                tag("swap")
            );
            assert_same(&tag("swap"), &got, &want);
            // Later passes start from the swapped placement, as in a run.
            let p1 = got;
            for k in 2..=4 {
                let (mut got, mut want) = (p1.clone(), p1.clone());
                assert_eq!(
                    local_reorder(&nl, &mut got, k),
                    local_reorder(&nl, &mut want, k),
                    "{}",
                    tag(&format!("reorder k={k}"))
                );
                assert_same(&tag(&format!("reorder k={k}")), &got, &want);
            }
            for batch in [2, 5, 8, 16] {
                let (mut got, mut want) = (p1.clone(), p1.clone());
                assert_eq!(
                    independent_set_matching(&nl, &mut got, batch),
                    independent_set_matching(&nl, &mut want, batch),
                    "{}",
                    tag(&format!("ism batch={batch}"))
                );
                assert_same(&tag(&format!("ism batch={batch}")), &got, &want);
            }

            let (mut got, mut want) = (p0.clone(), p0);
            let stats = DetailedPlacer::new().run(&nl, &mut got);
            let oracle = run(&nl, &mut want);
            assert_same(&tag("run"), &got, &want);
            assert_eq!(stats.moves, oracle.moves, "{}", tag("run moves"));
            assert!(
                stats.moves > 0,
                "{}: the design must exercise the passes",
                tag("run")
            );
            assert_eq!(stats.initial_hpwl.to_bits(), oracle.initial_hpwl.to_bits());
            assert_eq!(
                stats.final_hpwl.to_bits(),
                oracle.final_hpwl.to_bits(),
                "{}",
                tag("run")
            );
        }
    }

    #[test]
    fn passes_match_the_reference_in_f64() {
        passes_match_the_reference::<f64>();
    }

    #[test]
    fn passes_match_the_reference_in_f32() {
        passes_match_the_reference::<f32>();
    }
}
