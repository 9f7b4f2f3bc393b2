//! Exact HPWL as an operator (forward metric + subgradient backward).
//!
//! HPWL is the quality metric of every table in the paper, and its
//! per-iteration delta drives the density weight scheduler (paper Eq. (18)).
//! The backward pass provides the standard subgradient (+1 on the max pin,
//! -1 on the min pin per axis), which is occasionally useful for debugging
//! optimizers against the smooth models.

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_netlist::{hpwl, Netlist, PinId, Placement};
use dp_num::Float;

/// Exact weighted HPWL operator.
///
/// # Examples
///
/// ```
/// use dp_autograd::{ExecCtx, Operator};
/// use dp_netlist::{NetlistBuilder, Placement};
/// use dp_wirelength::HpwlOp;
///
/// # fn main() -> Result<(), dp_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
/// let a = b.add_movable_cell(1.0, 1.0);
/// let c = b.add_movable_cell(1.0, 1.0);
/// b.add_net(2.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])?;
/// let nl = b.build()?;
/// let mut p = Placement::zeros(nl.num_cells());
/// p.x[1] = 3.0;
/// let mut ctx = ExecCtx::serial();
/// assert_eq!(HpwlOp::default().forward(&nl, &p, &mut ctx), 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HpwlOp;

impl HpwlOp {
    /// Creates the operator.
    pub fn new() -> Self {
        Self
    }
}

impl<T: Float> Operator<T> for HpwlOp {
    fn name(&self) -> &'static str {
        "hpwl"
    }

    fn forward(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        let t0 = ctx.op_timer();
        let cost = hpwl(nl, p);
        ctx.record_op("hpwl.forward", t0);
        cost
    }

    fn backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: &mut Gradient<T>,
        _ctx: &mut ExecCtx<T>,
    ) {
        for net in nl.nets() {
            let w = nl.net_weight(net);
            let pins = nl.net_pin_range(net);
            if pins.len() < 2 {
                continue; // degenerate nets carry no wirelength
            }
            let mut x_lo = (T::INFINITY, 0usize);
            let mut x_hi = (T::NEG_INFINITY, 0usize);
            let mut y_lo = (T::INFINITY, 0usize);
            let mut y_hi = (T::NEG_INFINITY, 0usize);
            for pin in pins.map(PinId::new) {
                let cell = nl.pin_cell(pin).index();
                let (dx, dy) = nl.pin_offset(pin);
                let px = p.x[cell] + dx;
                let py = p.y[cell] + dy;
                if px < x_lo.0 {
                    x_lo = (px, cell);
                }
                if px > x_hi.0 {
                    x_hi = (px, cell);
                }
                if py < y_lo.0 {
                    y_lo = (py, cell);
                }
                if py > y_hi.0 {
                    y_hi = (py, cell);
                }
            }
            grad.x[x_hi.1] += w;
            grad.x[x_lo.1] -= w;
            grad.y[y_hi.1] += w;
            grad.y[y_lo.1] -= w;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_netlist::NetlistBuilder;

    #[test]
    fn subgradient_points_outward() {
        let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
        let a = b.add_movable_cell(1.0, 1.0);
        let c = b.add_movable_cell(1.0, 1.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(2);
        p.x = vec![1.0, 5.0];
        p.y = vec![2.0, 2.0];
        let mut g = Gradient::zeros(2);
        let mut ctx = ExecCtx::serial();
        let mut op = HpwlOp::new();
        let cost = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        assert_eq!(cost, 4.0);
        assert_eq!(g.x, vec![-1.0, 1.0]);
        // equal y: hi and lo resolve to the first strict extremum updates
        assert_eq!(g.y.iter().copied().sum::<f64>(), 0.0);
    }

    #[test]
    fn weighted_nets_scale_subgradient() {
        let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
        let a = b.add_movable_cell(1.0, 1.0);
        let c = b.add_movable_cell(1.0, 1.0);
        b.add_net(3.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(2);
        p.x = vec![0.0, 2.0];
        let mut g = Gradient::zeros(2);
        let mut ctx = ExecCtx::serial();
        let mut op = HpwlOp::new();
        let _ = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        assert_eq!(g.x, vec![-3.0, 3.0]);
    }
}
