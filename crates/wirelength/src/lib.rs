//! Wirelength operators: exact HPWL, weighted-average (WA), and log-sum-exp
//! (LSE).
//!
//! The WA operator is the paper's workhorse (Eq. (3), gradient Eq. (6)) and
//! comes in the three parallelization strategies compared in Fig. 10:
//!
//! * [`WaStrategy::NetByNet`] — one worker per net, forward and backward as
//!   separate passes with cached intermediates;
//! * [`WaStrategy::Atomic`] — pin-level parallelism with atomic max/min/add
//!   into global scratch arrays (paper Algorithm 1);
//! * [`WaStrategy::Merged`] — net-level fused forward+backward with no
//!   global intermediates (paper Algorithm 2), the fastest variant.
//!
//! All strategies compute the same function to rounding; the test suite
//! asserts the equivalence and validates gradients with finite differences.
//!
//! CPU parallelism uses dynamically scheduled chunks of size
//! `|E| / (threads * 16)` as the paper prescribes for heterogeneous net
//! degrees (§III-A). Kernels launch on the persistent worker pool carried
//! by the [`dp_autograd::ExecCtx`] every operator call receives; scratch
//! buffers are leased from the ctx and reused across iterations.
//!
//! # Examples
//!
//! ```
//! use dp_autograd::{ExecCtx, Gradient, Operator};
//! use dp_netlist::{NetlistBuilder, Placement};
//! use dp_wirelength::{WaStrategy, WaWirelength};
//!
//! # fn main() -> Result<(), dp_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new(0.0, 0.0, 100.0, 100.0);
//! let a = b.add_movable_cell(1.0, 1.0);
//! let c = b.add_movable_cell(1.0, 1.0);
//! b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])?;
//! let nl = b.build()?;
//! let mut p = Placement::zeros(nl.num_cells());
//! p.x[1] = 10.0;
//!
//! let mut op = WaWirelength::<f64>::new(WaStrategy::Merged, 0.1);
//! let mut ctx = ExecCtx::serial();
//! let mut g = Gradient::zeros(nl.num_cells());
//! let cost = op.forward_backward(&nl, &p, &mut g, &mut ctx);
//! assert!((cost - 10.0).abs() < 0.1); // WA tracks HPWL closely at small gamma
//! assert!(g.x[0] < 0.0 && g.x[1] > 0.0); // pull the cells together
//! # Ok(())
//! # }
//! ```

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod exp;
pub mod hpwl_op;
pub mod lse;
pub mod wa;

/// The two stabilised exponentials of a pin at `v` in a net spanning
/// `[lo, hi]`: `e^{(v - hi)/gamma}` and `e^{(lo - v)/gamma}`, both in
/// `[0, 1]`. Takes `1/gamma` so that no kernel divides per pin. The
/// net-by-net and atomic WA strategies and LSE evaluate their exponents
/// here; the merged WA kernel forms the same two arguments by the same
/// expressions and sweeps them through [`exp_nonpos_in_place`], which keeps
/// every strategy comparable to the bit. Both arguments are `≤ 0`, so
/// they go through the libm-free kernels of `exp.rs`: [`exp::exp_nonpos`]
/// for `f64`, [`exp::exp_nonpos_single`] for `f32` (widened exactly, its
/// result rounded back once).
#[inline]
pub(crate) fn stable_exps<T: dp_num::Float>(v: T, hi: T, lo: T, inv_gamma: T) -> (T, T) {
    (
        exp_nonpos_t((v - hi) * inv_gamma),
        exp_nonpos_t((lo - v) * inv_gamma),
    )
}

/// Replaces every argument `x ≤ 0` of `xs` with `e^x`, bitwise as
/// [`stable_exps`] evaluates it: one straight loop, since neither kernel
/// branches, which the compiler vectorizes.
#[inline]
pub(crate) fn exp_nonpos_in_place<T: dp_num::Float>(xs: &mut [T]) {
    for x in xs {
        *x = exp_nonpos_t(*x);
    }
}

#[inline(always)]
fn exp_nonpos_t<T: dp_num::Float>(x: T) -> T {
    let x = x.to_f64();
    T::from_f64(if std::mem::size_of::<T>() == std::mem::size_of::<f32>() {
        exp::exp_nonpos_single(x)
    } else {
        exp::exp_nonpos(x)
    })
}

pub use hpwl_op::HpwlOp;
pub use lse::LseWirelength;
pub use wa::{WaStrategy, WaWirelength};
