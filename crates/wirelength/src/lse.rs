//! Log-sum-exp (LSE) wirelength, the alternate smooth model.
//!
//! The paper notes (§III-A) that the framework also implements the classic
//! LSE wirelength of Naylor et al.:
//!
//! `WL_e = gamma * (ln sum_i e^{x_i/gamma} + ln sum_i e^{-x_i/gamma})` per
//! axis, with gradient given by the softmax weights. LSE *over*-estimates
//! HPWL (WA underestimates), which the tests assert.
//!
//! Kernels launch on the [`ExecCtx`]'s persistent pool; the cost reduction
//! is ordered with a thread-count-invariant chunk size, so results are
//! bit-exact at any worker count.

use std::sync::Arc;

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_netlist::{NetId, Netlist, Placement};
use dp_num::parallel::DisjointSlice;
use dp_num::{reduce_chunk_size, Float};

use crate::stable_exps;

/// The LSE wirelength operator (net-level parallel, fused backward).
///
/// # Examples
///
/// ```
/// use dp_autograd::{ExecCtx, Operator};
/// use dp_netlist::{NetlistBuilder, Placement};
/// use dp_wirelength::LseWirelength;
///
/// # fn main() -> Result<(), dp_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
/// let a = b.add_movable_cell(1.0, 1.0);
/// let c = b.add_movable_cell(1.0, 1.0);
/// b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])?;
/// let nl = b.build()?;
/// let mut p = Placement::zeros(nl.num_cells());
/// p.x[1] = 5.0;
/// let mut ctx = ExecCtx::serial();
/// let mut op = LseWirelength::new(0.05);
/// let cost = op.forward(&nl, &p, &mut ctx);
/// assert!(cost >= 5.0 && cost < 5.5); // LSE upper-bounds HPWL
/// # Ok(())
/// # }
/// ```
pub struct LseWirelength<T: Float> {
    gamma: T,
    pin_x: Vec<T>,
    pin_y: Vec<T>,
}

impl<T: Float> LseWirelength<T> {
    /// Creates the operator with smoothing parameter `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive.
    pub fn new(gamma: T) -> Self {
        assert!(gamma > T::ZERO, "gamma must be positive");
        Self {
            gamma,
            pin_x: Vec::new(),
            pin_y: Vec::new(),
        }
    }

    /// The current smoothing parameter.
    pub fn gamma(&self) -> T {
        self.gamma
    }

    /// Updates the smoothing parameter.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive.
    pub fn set_gamma(&mut self, gamma: T) {
        assert!(gamma > T::ZERO, "gamma must be positive");
        self.gamma = gamma;
    }

    fn update_pin_positions(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) {
        let n = nl.num_pins();
        let reused = !self.pin_x.is_empty();
        self.pin_x.resize(n, T::ZERO);
        self.pin_y.resize(n, T::ZERO);
        for pin in 0..n {
            let pid = dp_netlist::PinId::new(pin);
            let cell = nl.pin_cell(pid).index();
            let (dx, dy) = nl.pin_offset(pid);
            self.pin_x[pin] = p.x[cell] + dx;
            self.pin_y[pin] = p.y[cell] + dy;
        }
        ctx.note_workspace(
            "lse.pin_pos",
            (self.pin_x.capacity() + self.pin_y.capacity()) * std::mem::size_of::<T>(),
            reused,
        );
    }

    /// One net / one axis: returns the LSE wirelength and optionally writes
    /// per-pin gradients (softmax difference) into `out`.
    fn net_lse(
        coords: &[T],
        pins: &[dp_netlist::PinId],
        gamma: T,
        weight: T,
        out: Option<&DisjointSlice<'_, T>>,
    ) -> T {
        if pins.len() < 2 {
            // Degenerate net: zero wirelength and (the freshly zeroed)
            // zero pin gradients.
            return T::ZERO;
        }
        let mut hi = T::NEG_INFINITY;
        let mut lo = T::INFINITY;
        for &pin in pins {
            let v = coords[pin.index()];
            hi = hi.max(v);
            lo = lo.min(v);
        }
        let inv_gamma = T::ONE / gamma;
        let mut sum_p = T::ZERO;
        let mut sum_m = T::ZERO;
        for &pin in pins {
            let (ep, em) = stable_exps(coords[pin.index()], hi, lo, inv_gamma);
            sum_p += ep;
            sum_m += em;
        }
        if let Some(out) = out {
            // Softmax weights through one reciprocal per net and axis.
            let (inv_p, inv_m) = (T::ONE / sum_p, T::ONE / sum_m);
            for &pin in pins {
                let (ep, em) = stable_exps(coords[pin.index()], hi, lo, inv_gamma);
                let sp = ep * inv_p;
                let sm = em * inv_m;
                // SAFETY: each pin belongs to exactly one net (caller
                // partitions nets across workers).
                unsafe { out.write(pin.index(), weight * (sp - sm)) };
            }
        }
        // gamma*(ln sum e^{x/g} + ln sum e^{-x/g})
        //  = gamma*(ln sum_p + hi/g + ln sum_m - lo/g)
        gamma * (sum_p.ln() + sum_m.ln()) + (hi - lo)
    }

    fn run(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: Option<&mut Gradient<T>>,
        ctx: &mut ExecCtx<T>,
    ) -> T {
        self.update_pin_positions(nl, p, ctx);
        let pool = Arc::clone(ctx.pool());
        let nets = nl.num_nets();
        let pins = nl.num_pins();
        let chunk = reduce_chunk_size(nets);
        let gamma = self.gamma;
        let want_grad = grad.is_some();
        let mut pin_gx = ctx.lease("wl.pin_grad.x", pins);
        let mut pin_gy = ctx.lease("wl.pin_grad.y", pins);
        let total = {
            let gx = DisjointSlice::new(&mut pin_gx);
            let gy = DisjointSlice::new(&mut pin_gy);
            let px = &self.pin_x;
            let py = &self.pin_y;
            pool.reduce_in_order(
                nets,
                chunk,
                T::ZERO,
                |range| {
                    let mut local = T::ZERO;
                    for e in range {
                        let net = NetId::new(e);
                        let w = nl.net_weight(net);
                        let net_pins = nl.net_pins(net);
                        let ox = want_grad.then_some(&gx);
                        let oy = want_grad.then_some(&gy);
                        local += w * Self::net_lse(px, net_pins, gamma, w, ox);
                        local += w * Self::net_lse(py, net_pins, gamma, w, oy);
                    }
                    local
                },
                |a, b| a + b,
            )
        };
        if let Some(grad) = grad {
            let cells = nl.num_cells();
            let chunk = pool.chunk_for(cells);
            let gx = DisjointSlice::new(&mut grad.x);
            let gy = DisjointSlice::new(&mut grad.y);
            pool.run(cells, chunk, |range| {
                for c in range {
                    let cid = dp_netlist::CellId::new(c);
                    let mut ax = T::ZERO;
                    let mut ay = T::ZERO;
                    for &pin in nl.cell_pins(cid) {
                        ax += pin_gx[pin.index()];
                        ay += pin_gy[pin.index()];
                    }
                    // SAFETY: cell index `c` is unique to this chunk.
                    unsafe {
                        gx.write(c, gx.read(c) + ax);
                        gy.write(c, gy.read(c) + ay);
                    }
                }
            });
        }
        ctx.release("wl.pin_grad.x", pin_gx);
        ctx.release("wl.pin_grad.y", pin_gy);
        total
    }
}

impl<T: Float> Operator<T> for LseWirelength<T> {
    fn name(&self) -> &'static str {
        "lse-wirelength"
    }

    fn forward(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        let t0 = ctx.op_timer();
        let cost = self.run(nl, p, None, ctx);
        ctx.record_op("lse.forward", t0);
        cost
    }

    fn backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) {
        let t0 = ctx.op_timer();
        let _ = self.run(nl, p, Some(grad), ctx);
        ctx.record_op("lse.backward", t0);
    }

    fn forward_backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) -> T {
        let t0 = ctx.op_timer();
        let cost = self.run(nl, p, Some(grad), ctx);
        ctx.record_op("lse.forward_backward", t0);
        cost
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_autograd::check_gradient;
    use dp_netlist::{hpwl, NetlistBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_design(seed: u64) -> (Netlist<f64>, Placement<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(0.0, 0.0, 50.0, 50.0);
        let handles: Vec<_> = (0..12).map(|_| b.add_movable_cell(1.0, 1.0)).collect();
        for _ in 0..20 {
            let deg = rng.gen_range(2..5);
            let pins = (0..deg)
                .map(|_| (handles[rng.gen_range(0..12)], 0.0, 0.0))
                .collect();
            b.add_net(1.0, pins).expect("valid");
        }
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..nl.num_cells() {
            p.x[i] = rng.gen_range(0.0..50.0);
            p.y[i] = rng.gen_range(0.0..50.0);
        }
        (nl, p)
    }

    #[test]
    fn lse_upper_bounds_hpwl() {
        let (nl, p) = random_design(3);
        let exact = hpwl(&nl, &p).to_f64();
        let mut ctx = ExecCtx::serial();
        let mut op = LseWirelength::new(0.5);
        let cost = op.forward(&nl, &p, &mut ctx).to_f64();
        assert!(
            cost >= exact - 1e-9,
            "LSE overestimates HPWL: {cost} vs {exact}"
        );
    }

    #[test]
    fn lse_converges_to_hpwl() {
        let (nl, p) = random_design(5);
        let exact = hpwl(&nl, &p).to_f64();
        let mut ctx = ExecCtx::serial();
        let mut prev = f64::INFINITY;
        for gamma in [2.0, 0.5, 0.1, 0.02] {
            let mut op = LseWirelength::new(gamma);
            let err = (op.forward(&nl, &p, &mut ctx).to_f64() - exact).abs();
            assert!(err <= prev + 1e-9);
            prev = err;
        }
        assert!(prev / exact < 0.01);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (nl, p) = random_design(9);
        let mut op = LseWirelength::new(0.8);
        let report = check_gradient(&mut op, &nl, &p, &[], 1e-5);
        assert!(report.within(1e-5), "{report:?}");
    }

    /// 0- and 1-pin nets must contribute exactly zero wirelength and zero
    /// gradient — no NaN from `ln 0` or `inf - inf`.
    #[test]
    fn degenerate_nets_contribute_zero() {
        let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0).allow_degenerate_nets(true);
        let a = b.add_movable_cell(1.0, 1.0);
        let c = b.add_movable_cell(1.0, 1.0);
        let lone = b.add_movable_cell(1.0, 1.0);
        b.add_net(2.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        b.add_net(1.0, vec![(lone, 0.1, -0.2)]).expect("allowed");
        b.add_net(1.0, vec![]).expect("allowed");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(3);
        p.x = vec![1.0, 6.0, 3.0];
        p.y = vec![2.0, 4.0, 8.0];
        let mut ctx = ExecCtx::serial();
        let mut op = LseWirelength::new(0.7);
        let mut g = Gradient::zeros(3);
        let cost = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        assert!(cost.is_finite());
        assert!(g.x.iter().chain(&g.y).all(|v| v.is_finite()));
        assert_eq!(g.x[2], 0.0, "lone cell feels no force");
        assert_eq!(g.y[2], 0.0);
        // A 2-pin-net-only reference gives the same cost.
        let mut rb = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
        let ra = rb.add_movable_cell(1.0, 1.0);
        let rc = rb.add_movable_cell(1.0, 1.0);
        let _ = rb.add_movable_cell(1.0, 1.0);
        rb.add_net(2.0, vec![(ra, 0.0, 0.0), (rc, 0.0, 0.0)])
            .expect("valid");
        let ref_nl = rb.build().expect("valid");
        let ref_cost = LseWirelength::new(0.7).forward(&ref_nl, &p, &mut ctx);
        assert!((cost - ref_cost).abs() < 1e-12, "{cost} vs {ref_cost}");
    }

    #[test]
    fn threads_do_not_change_results() {
        let (nl, p) = random_design(7);
        let mut ctx_s = ExecCtx::serial();
        let mut ctx_p = ExecCtx::new(3);
        let mut serial = LseWirelength::new(0.4);
        let mut parallel = LseWirelength::new(0.4);
        let mut gs = dp_autograd::Gradient::zeros(nl.num_cells());
        let mut gp = dp_autograd::Gradient::zeros(nl.num_cells());
        let cs = serial.forward_backward(&nl, &p, &mut gs, &mut ctx_s);
        let cp = parallel.forward_backward(&nl, &p, &mut gp, &mut ctx_p);
        // Ordered reduction + disjoint writes: bit-exact across threads.
        assert_eq!(cs.to_bits(), cp.to_bits());
        for i in 0..nl.num_cells() {
            assert_eq!(gs.x[i].to_bits(), gp.x[i].to_bits());
            assert_eq!(gs.y[i].to_bits(), gp.y[i].to_bits());
        }
    }
}
