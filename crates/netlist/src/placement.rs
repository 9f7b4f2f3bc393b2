//! Cell coordinates and the exact HPWL metric.

use dp_num::Float;

use crate::netlist::{NetId, Netlist, PinId};

/// Cell-center coordinates for every cell of a [`Netlist`].
///
/// In the paper's analogy these are the network weights `w = (x, y)` being
/// trained. Fixed cells also carry coordinates here; the engine simply never
/// updates entries at indices `>= num_movable`.
///
/// # Examples
///
/// ```
/// let mut p = dp_netlist::Placement::<f64>::zeros(3);
/// p.x[1] = 4.0;
/// assert_eq!(p.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Placement<T> {
    /// Cell-center x coordinates, indexed by cell id.
    pub x: Vec<T>,
    /// Cell-center y coordinates, indexed by cell id.
    pub y: Vec<T>,
}

impl<T: Float> Placement<T> {
    /// All-zero coordinates for `n` cells.
    pub fn zeros(n: usize) -> Self {
        Self {
            x: vec![T::ZERO; n],
            y: vec![T::ZERO; n],
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when the placement holds no cells.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Exact half-perimeter wirelength of a single net at the given placement.
///
/// Returns zero for degenerate nets.
pub fn net_hpwl<T: Float>(netlist: &Netlist<T>, placement: &Placement<T>, net: NetId) -> T {
    let pins = netlist.net_pin_range(net);
    if pins.len() < 2 {
        return T::ZERO;
    }
    let mut x_min = T::INFINITY;
    let mut x_max = T::NEG_INFINITY;
    let mut y_min = T::INFINITY;
    let mut y_max = T::NEG_INFINITY;
    for pin in pins.map(PinId::new) {
        let cell = netlist.pin_cell(pin).index();
        let (dx, dy) = netlist.pin_offset(pin);
        let px = placement.x[cell] + dx;
        let py = placement.y[cell] + dy;
        x_min = x_min.min(px);
        x_max = x_max.max(px);
        y_min = y_min.min(py);
        y_max = y_max.max(py);
    }
    x_max - x_min + y_max - y_min
}

/// Exact weighted HPWL over all nets — the paper's quality metric.
///
/// # Examples
///
/// See the crate-level example.
pub fn hpwl<T: Float>(netlist: &Netlist<T>, placement: &Placement<T>) -> T {
    netlist
        .nets()
        .map(|net| netlist.net_weight(net) * net_hpwl(netlist, placement, net))
        .sum()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn line_netlist() -> (Netlist<f64>, Placement<f64>) {
        let mut b = NetlistBuilder::new(0.0, 0.0, 100.0, 100.0);
        let cells: Vec<_> = (0..4).map(|_| b.add_movable_cell(1.0, 1.0)).collect();
        b.add_net(1.0, vec![(cells[0], 0.0, 0.0), (cells[1], 0.0, 0.0)])
            .expect("valid");
        b.add_net(
            3.0,
            vec![
                (cells[1], 0.0, 0.0),
                (cells[2], 0.0, 0.0),
                (cells[3], 0.0, 0.0),
            ],
        )
        .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for (i, v) in [
            (0usize, (0.0, 0.0)),
            (1, (2.0, 1.0)),
            (2, (5.0, 4.0)),
            (3, (3.0, 9.0)),
        ] {
            p.x[i] = v.0;
            p.y[i] = v.1;
        }
        (nl, p)
    }

    #[test]
    fn net_hpwl_matches_hand_computation() {
        let (nl, p) = line_netlist();
        assert_eq!(net_hpwl(&nl, &p, NetId::new(0)), 2.0 + 1.0);
        assert_eq!(net_hpwl(&nl, &p, NetId::new(1)), 3.0 + 8.0);
    }

    #[test]
    fn total_hpwl_is_weighted() {
        let (nl, p) = line_netlist();
        assert_eq!(hpwl(&nl, &p), 1.0 * 3.0 + 3.0 * 11.0);
    }

    #[test]
    fn pin_offsets_shift_bounding_box() {
        let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
        let a = b.add_movable_cell(2.0, 2.0);
        let c = b.add_movable_cell(2.0, 2.0);
        b.add_net(1.0, vec![(a, 1.0, 0.0), (c, -1.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(2);
        p.x = vec![0.0, 10.0];
        // pins at 1.0 and 9.0
        assert_eq!(hpwl(&nl, &p), 8.0);
    }

    /// `net_hpwl` as it was before it addressed pins by range: every pin
    /// through `net_pins`.
    fn net_hpwl_through_net_pins<T: Float>(nl: &Netlist<T>, p: &Placement<T>, net: NetId) -> T {
        let pins = nl.net_pins(net);
        if pins.len() < 2 {
            return T::ZERO;
        }
        let (mut x_min, mut x_max) = (T::INFINITY, T::NEG_INFINITY);
        let (mut y_min, mut y_max) = (T::INFINITY, T::NEG_INFINITY);
        for &pin in pins {
            let cell = nl.pin_cell(pin).index();
            let (dx, dy) = nl.pin_offset(pin);
            x_min = x_min.min(p.x[cell] + dx);
            x_max = x_max.max(p.x[cell] + dx);
            y_min = y_min.min(p.y[cell] + dy);
            y_max = y_max.max(p.y[cell] + dy);
        }
        x_max - x_min + y_max - y_min
    }

    /// Degrees {0, 1, 2, 3, 17, 300}, pin offsets, non-unit weights and
    /// coincident pins.
    fn assert_range_walk_is_the_indirect_walk<T: Float>() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let t = T::from_f64;
        let mut rng = StdRng::seed_from_u64(65);
        let mut b =
            NetlistBuilder::new(t(0.0), t(0.0), t(200.0), t(200.0)).allow_degenerate_nets(true);
        let cells: Vec<_> = (0..300)
            .map(|_| b.add_movable_cell(t(1.0), t(2.0)))
            .collect();
        for i in 0..600 {
            let deg = if i % 97 == 5 {
                300
            } else {
                [2, 0, 3, 17, 1, 2][i % 6]
            };
            let mut pins = Vec::with_capacity(deg);
            for k in 0..deg {
                if i % 11 == 4 && k > 0 {
                    pins.push(pins[0]);
                } else {
                    let c = cells[rng.gen_range(0..cells.len())];
                    pins.push((c, t(rng.gen_range(-0.5..0.5)), t(rng.gen_range(-1.0..1.0))));
                }
            }
            b.add_net(t(rng.gen_range(0.25..3.0)), pins)
                .expect("degenerate nets allowed");
        }
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..nl.num_cells() {
            p.x[i] = t(rng.gen_range(0.0..200.0));
            p.y[i] = t(rng.gen_range(0.0..200.0));
        }
        let bits = |v: T| v.to_f64().to_bits();
        for net in nl.nets() {
            let want = net_hpwl_through_net_pins(&nl, &p, net);
            assert_eq!(bits(net_hpwl(&nl, &p, net)), bits(want), "net {net:?}");
        }
        let want: T = nl
            .nets()
            .map(|net| nl.net_weight(net) * net_hpwl_through_net_pins(&nl, &p, net))
            .sum();
        assert_eq!(bits(hpwl(&nl, &p)), bits(want));
    }

    #[test]
    fn range_walk_is_bitwise_the_indirect_walk() {
        assert_range_walk_is_the_indirect_walk::<f64>();
        assert_range_walk_is_the_indirect_walk::<f32>();
    }

    #[test]
    fn hpwl_is_translation_invariant() {
        let (nl, p) = line_netlist();
        let base = hpwl(&nl, &p);
        let mut shifted = p.clone();
        for v in shifted.x.iter_mut() {
            *v += 7.5;
        }
        for v in shifted.y.iter_mut() {
            *v -= 2.25;
        }
        assert!((hpwl(&nl, &shifted) - base).abs() < 1e-12);
    }
}
