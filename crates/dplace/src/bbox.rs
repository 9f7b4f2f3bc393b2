//! Bounding-box move costs: a candidate position of a few moving cells is
//! priced by widening each incident net's box over the pins that stay
//! put, instead of re-walking every pin of every net for every probe.
//!
//! [`MoveCosts::cost`] is bitwise [`IncrementalHpwl::eval_cells`] over the
//! moving cells placed at the probed positions:
//!
//! * both visit the nets in the same first-seen order and sum
//!   `weight * (xh - xl + yh - yl)` from `T::ZERO`;
//! * `min`/`max` are exact, so a box widened in another pin order holds the
//!   same extremes. Only the sign of a zero extreme can differ, and the
//!   subtractions and the zero-started sum absorb it;
//! * a pin coordinate is `center + offset`, the same expression `net_hpwl`
//!   evaluates;
//! * a 1-pin net widens the empty box to `px - px + py - py = 0`, the zero
//!   `net_hpwl` returns early, and a net whose pins all sit on moving cells
//!   widens from `±∞`.
//!
//! [`IncrementalHpwl::eval_cells`]: crate::IncrementalHpwl::eval_cells

use dp_netlist::{CellId, Netlist, Placement};
use dp_num::Float;

use crate::incremental::for_each_distinct_net;

/// The nets of a set of moving cells, each as the box of its pins on the
/// other cells plus the offsets of its pins on the moving ones. Rebuilt in
/// place by [`MoveCosts::build`], so a pass reuses one allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct MoveCosts<T> {
    nets: Vec<NetBox<T>>,
    pins: Vec<MovingPin<T>>,
}

#[derive(Debug, Clone, Copy)]
struct NetBox<T> {
    weight: T,
    xl: T,
    xh: T,
    yl: T,
    yh: T,
    /// This net's moving pins are `pins[start..end]`.
    start: usize,
    end: usize,
}

#[derive(Debug, Clone, Copy)]
struct MovingPin<T> {
    /// Index into the `movers` slice the costs were built for.
    mover: usize,
    dx: T,
    dy: T,
}

impl<T: Float> MoveCosts<T> {
    /// Rebuilds the boxes for the nets incident to `movers`, from every
    /// other cell's position in `p`.
    pub(crate) fn build(&mut self, nl: &Netlist<T>, p: &Placement<T>, movers: &[CellId]) {
        self.nets.clear();
        self.pins.clear();
        for_each_distinct_net(nl, movers, |net| {
            let start = self.pins.len();
            let mut xl = T::INFINITY;
            let mut xh = T::NEG_INFINITY;
            let mut yl = T::INFINITY;
            let mut yh = T::NEG_INFINITY;
            for &q in nl.net_pins(net) {
                let cell = nl.pin_cell(q);
                let (dx, dy) = nl.pin_offset(q);
                if let Some(mover) = movers.iter().position(|&m| m == cell) {
                    self.pins.push(MovingPin { mover, dx, dy });
                } else {
                    let px = p.x[cell.index()] + dx;
                    let py = p.y[cell.index()] + dy;
                    xl = xl.min(px);
                    xh = xh.max(px);
                    yl = yl.min(py);
                    yh = yh.max(py);
                }
            }
            self.nets.push(NetBox {
                weight: nl.net_weight(net),
                xl,
                xh,
                yl,
                yh,
                start,
                end: self.pins.len(),
            });
        });
    }

    /// Weighted HPWL of the nets with mover `k`'s center at `at[k]`.
    pub(crate) fn cost(&self, at: &[(T, T)]) -> T {
        let mut sum = T::ZERO;
        for net in &self.nets {
            let (mut xl, mut xh, mut yl, mut yh) = (net.xl, net.xh, net.yl, net.yh);
            for pin in &self.pins[net.start..net.end] {
                let (x, y) = at[pin.mover];
                let px = x + pin.dx;
                let py = y + pin.dy;
                xl = xl.min(px);
                xh = xh.max(px);
                yl = yl.min(py);
                yh = yh.max(py);
            }
            sum += net.weight * (xh - xl + yh - yl);
        }
        sum
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::IncrementalHpwl;
    use dp_netlist::NetlistBuilder;

    /// Every special net shape on one moving cell: a 1-pin net, a net with
    /// two pins on the mover only, and a shared net where the mover has two
    /// pins; the box cost is the walked cost bit for bit at every probe.
    #[test]
    fn box_cost_is_the_walked_cost_on_special_nets() {
        let mut b = NetlistBuilder::new(0.0, 0.0, 50.0, 50.0).allow_degenerate_nets(true);
        let m = b.add_movable_cell(2.0, 1.0);
        let o = b.add_movable_cell(2.0, 1.0);
        let f = b.add_fixed_cell(4.0, 4.0);
        b.add_net(1.5, vec![(m, 0.25, -0.5)]).expect("valid");
        b.add_net(0.7, vec![(m, -0.5, 0.1), (m, 0.75, 0.3)])
            .expect("valid");
        b.add_net(
            2.0,
            vec![(o, 0.1, 0.2), (m, -0.9, 0.4), (f, 1.0, -1.0), (m, 0.9, 0.0)],
        )
        .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::<f64>::zeros(3);
        p.x = vec![10.0, 31.3, 22.0];
        p.y = vec![4.5, 17.25, 40.0];
        let inc = IncrementalHpwl::new(&nl, &p);
        let ids = [CellId::new(0)];
        let mut costs = MoveCosts::default();
        costs.build(&nl, &p, &ids);
        for &(x, y) in &[
            (10.0, 4.5),
            (0.0, 0.0),
            (33.1, 12.7),
            (22.0, 40.0),
            (49.0, 1.0e-3),
        ] {
            p.x[0] = x;
            p.y[0] = y;
            let walked = inc.eval_cells(&nl, &p, &ids);
            assert_eq!(
                costs.cost(&[(x, y)]).to_bits(),
                walked.to_bits(),
                "at ({x}, {y})"
            );
        }
    }
}
