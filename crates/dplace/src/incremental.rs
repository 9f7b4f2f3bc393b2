//! Incremental HPWL evaluation for move-based detailed placement.

use dp_netlist::{net_hpwl, CellId, NetId, Netlist, Placement};
use dp_num::Float;

/// Caches per-net HPWL so that a candidate move only re-evaluates the nets
/// incident to the touched cells.
///
/// # Examples
///
/// ```
/// use dp_dplace::IncrementalHpwl;
/// use dp_netlist::{CellId, NetlistBuilder, Placement};
///
/// # fn main() -> Result<(), dp_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
/// let a = b.add_movable_cell(1.0, 1.0);
/// let c = b.add_movable_cell(1.0, 1.0);
/// b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])?;
/// let nl = b.build()?;
/// let mut p = Placement::zeros(2);
/// p.x[1] = 4.0;
/// let mut inc = IncrementalHpwl::new(&nl, &p);
/// assert_eq!(inc.total(), 4.0);
/// p.x[1] = 2.0;
/// inc.update_cells(&nl, &p, &[CellId::new(1)]);
/// assert_eq!(inc.total(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalHpwl<T> {
    per_net: Vec<T>,
    total: T,
}

impl<T: Float> IncrementalHpwl<T> {
    /// Builds the cache at the given placement.
    pub fn new(nl: &Netlist<T>, p: &Placement<T>) -> Self {
        let per_net: Vec<T> = nl
            .nets()
            .map(|net| nl.net_weight(net) * net_hpwl(nl, p, net))
            .collect();
        let total = per_net.iter().copied().sum();
        Self { per_net, total }
    }

    /// Current total weighted HPWL.
    pub fn total(&self) -> T {
        self.total
    }

    /// Weighted HPWL of the nets incident to `cells` at the current cache.
    pub fn cost_of_cells(&self, nl: &Netlist<T>, cells: &[CellId]) -> T {
        let mut sum = T::ZERO;
        for_each_distinct_net(nl, cells, |net| sum += self.per_net[net.index()]);
        sum
    }

    /// Evaluates (without committing) the weighted HPWL the nets incident
    /// to `cells` would have at placement `p`.
    pub fn eval_cells(&self, nl: &Netlist<T>, p: &Placement<T>, cells: &[CellId]) -> T {
        let mut sum = T::ZERO;
        for_each_distinct_net(nl, cells, |net| {
            sum += nl.net_weight(net) * net_hpwl(nl, p, net);
        });
        sum
    }

    /// Evaluates the weighted HPWL of the nets incident to cells `a` and
    /// `b` as if their positions were exchanged, without mutating `p` —
    /// the read-only probe the batched (concurrent) operators need.
    pub fn eval_cells_swapped(&self, nl: &Netlist<T>, p: &Placement<T>, a: usize, b: usize) -> T {
        let coord = |c: usize| -> (T, T) {
            if c == a {
                (p.x[b], p.y[b])
            } else if c == b {
                (p.x[a], p.y[a])
            } else {
                (p.x[c], p.y[c])
            }
        };
        let mut sum = T::ZERO;
        for_each_distinct_net(nl, &[CellId::new(a), CellId::new(b)], |net| {
            let mut x_lo = T::INFINITY;
            let mut x_hi = T::NEG_INFINITY;
            let mut y_lo = T::INFINITY;
            let mut y_hi = T::NEG_INFINITY;
            for &q in nl.net_pins(net) {
                let c = nl.pin_cell(q).index();
                let (dx, dy) = nl.pin_offset(q);
                let (cx, cy) = coord(c);
                let px = cx + dx;
                let py = cy + dy;
                x_lo = x_lo.min(px);
                x_hi = x_hi.max(px);
                y_lo = y_lo.min(py);
                y_hi = y_hi.max(py);
            }
            sum += nl.net_weight(net) * (x_hi - x_lo + y_hi - y_lo);
        });
        sum
    }

    /// Recomputes the nets incident to `cells` from placement `p` and
    /// updates the cached total.
    pub fn update_cells(&mut self, nl: &Netlist<T>, p: &Placement<T>, cells: &[CellId]) {
        for_each_distinct_net(nl, cells, |net| {
            let fresh = nl.net_weight(net) * net_hpwl(nl, p, net);
            self.total += fresh - self.per_net[net.index()];
            self.per_net[net.index()] = fresh;
        });
    }
}

/// Calls `f` once per distinct net incident to `cells`, in first-seen
/// order (cells in order, each cell's pins in order) — the net order every
/// cost in this crate sums in.
pub(crate) fn for_each_distinct_net<T: Float>(
    nl: &Netlist<T>,
    cells: &[CellId],
    mut f: impl FnMut(NetId),
) {
    let mut seen = SeenNets::new();
    for &c in cells {
        for &pin in nl.cell_pins(c) {
            let net = nl.pin_net(pin);
            if seen.insert(net) {
                f(net);
            }
        }
    }
}

/// A set of nets that lives on the stack up to [`SeenNets::INLINE`]
/// members and spills to the heap beyond (high-pin macros), so a move
/// probe allocates nothing.
struct SeenNets {
    inline: [NetId; SeenNets::INLINE],
    len: usize,
    spill: Vec<NetId>,
}

impl SeenNets {
    const INLINE: usize = 32;

    fn new() -> Self {
        Self {
            inline: [NetId::new(0); Self::INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Adds `net`; `true` when it was not yet a member.
    fn insert(&mut self, net: NetId) -> bool {
        if self.inline[..self.len].contains(&net) || self.spill.contains(&net) {
            return false;
        }
        if self.len < Self::INLINE {
            self.inline[self.len] = net;
            self.len += 1;
        } else {
            self.spill.push(net);
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_netlist::{hpwl, NetlistBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_case(seed: u64) -> (Netlist<f64>, Placement<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(0.0, 0.0, 50.0, 50.0);
        let cells: Vec<_> = (0..20).map(|_| b.add_movable_cell(1.0, 1.0)).collect();
        for _ in 0..30 {
            let deg = rng.gen_range(2..5);
            let pins = (0..deg)
                .map(|_| (cells[rng.gen_range(0..20)], 0.0, 0.0))
                .collect();
            b.add_net(rng.gen_range(0.5..2.0), pins).expect("valid");
        }
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..20 {
            p.x[i] = rng.gen_range(0.0..50.0);
            p.y[i] = rng.gen_range(0.0..50.0);
        }
        (nl, p)
    }

    #[test]
    fn matches_full_recomputation_after_updates() {
        let (nl, mut p) = random_case(4);
        let mut inc = IncrementalHpwl::new(&nl, &p);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let c = rng.gen_range(0..20);
            p.x[c] = rng.gen_range(0.0..50.0);
            p.y[c] = rng.gen_range(0.0..50.0);
            inc.update_cells(&nl, &p, &[CellId::new(c)]);
        }
        let exact = hpwl(&nl, &p);
        assert!((inc.total() - exact).abs() < 1e-9 * exact.max(1.0));
    }

    #[test]
    fn eval_does_not_mutate() {
        let (nl, mut p) = random_case(5);
        let inc = IncrementalHpwl::new(&nl, &p);
        let before = inc.total();
        p.x[0] += 5.0;
        let _ = inc.eval_cells(&nl, &p, &[CellId::new(0)]);
        assert_eq!(inc.total(), before);
    }

    #[test]
    fn delta_consistency() {
        // total' - total == eval(after) - cost(before) for the touched nets
        let (nl, mut p) = random_case(6);
        let mut inc = IncrementalHpwl::new(&nl, &p);
        let cells = [CellId::new(3)];
        let before_cost = inc.cost_of_cells(&nl, &cells);
        let total_before = inc.total();
        p.x[3] += 7.0;
        let after_cost = inc.eval_cells(&nl, &p, &cells);
        inc.update_cells(&nl, &p, &cells);
        assert!(((inc.total() - total_before) - (after_cost - before_cost)).abs() < 1e-9);
    }
}
