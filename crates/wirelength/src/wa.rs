//! Weighted-average (WA) wirelength forward and backward.
//!
//! Implements paper Eq. (3) with the max/min exponent stabilization of
//! §III-A and the analytic gradient Eq. (6), in the three parallelization
//! strategies of Fig. 10. All strategies share the structure:
//!
//! 1. compute pin coordinates `p = cell_center + offset`;
//! 2. per net and axis, the stabilized terms
//!    `a_i^+ = exp((p_i - max_j p_j)/gamma)`,
//!    `b^+ = sum a_i^+`, `c^+ = sum p_i a_i^+` (and the `-` mirror);
//! 3. `WL_e = c^+/b^+ - c^-/b^-` per axis (forward) and Eq. (6) per pin
//!    (backward), scattered to cells through the cell-pin CSR.
//!
//! No kernel divides per pin: the exponent arguments are formed with
//! `1/gamma` ([`crate::stable_exps`]) and Eq. (6) is applied through
//! [`NetGradient`], whose four coefficients cost one reciprocal of `b^±`
//! per net and axis. Every strategy goes through those two helpers, so they
//! differ in schedule and memory traffic only, never in arithmetic.
//!
//! Every `a_i^±` is evaluated once per pass. The two-pass strategies keep
//! them in per-pin arrays between forward and backward. The merged strategy
//! (the production default) works one reduction chunk of nets at a time,
//! split into blocks of consecutive nets with at most [`BLOCK_PINS`] pins
//! (a larger net is a block of its own). A block's pins form one contiguous
//! range, because pins are numbered net by net, and it runs three passes:
//!
//! 1. per net, one walk takes the max/min of both axes, then each pin's four
//!    exponent arguments go into a scratch owned by the chunk invocation;
//! 2. one branch-free loop turns every argument of the block into its
//!    exponential ([`crate::exp_nonpos_in_place`]);
//! 3. per net, `b±`/`c±` of both axes accumulate in pin order, the cost adds
//!    the x term and then the y term, and Eq. (6) writes both axes' pin
//!    gradients.
//!
//! Per net, these are the expressions and summation orders of one walk per
//! axis, so the bits are too. The forward-only entry point (line search)
//! runs the same chunks with the gradient writes skipped.
//!
//! # Execution model
//!
//! Kernels launch on the [`ExecCtx`]'s persistent worker pool; per-pin
//! gradient scratch is leased from the ctx registry and the per-axis
//! intermediates live in operator-owned workspaces that are reset — never
//! reallocated — between iterations. Cost totals use
//! [`WorkerPool::reduce_in_order`] with a thread-count-invariant chunk
//! size, so the net-by-net and merged strategies are bit-exact across
//! thread counts; the atomic strategy accumulates through floating-point
//! atomics and is only reproducible to rounding (paper §V).

use std::ops::Range;
use std::sync::Arc;

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_netlist::{NetId, Netlist, Placement};
use dp_num::parallel::DisjointSlice;
use dp_num::{reduce_chunk_size, AtomicFloat, Float, WorkerPool};

use crate::{exp_nonpos_in_place, stable_exps};

/// Eq. (6) for one net and axis with everything that does not depend on the
/// pin hoisted out of the pin loop — one reciprocal of `b±` per net and axis
/// instead of two divisions per pin:
///
/// ```text
/// dWL/dv_i = (k0+ + v_i k1+) a_i+ - (k0- - v_i k1-) a_i-
/// k0± = (b± ∓ c±/gamma) / b±²,   k1± = (b±/gamma) / b±² = 1/(gamma b±)
/// ```
#[derive(Clone, Copy)]
struct NetGradient<T> {
    k0_plus: T,
    k1_plus: T,
    k0_minus: T,
    k1_minus: T,
}

impl<T: Float> NetGradient<T> {
    #[inline]
    fn new(inv_gamma: T, b_plus: T, b_minus: T, c_plus: T, c_minus: T) -> Self {
        let r_plus = T::ONE / b_plus;
        let r_minus = T::ONE / b_minus;
        Self {
            k0_plus: (b_plus - inv_gamma * c_plus) * (r_plus * r_plus),
            k1_plus: inv_gamma * r_plus,
            k0_minus: (b_minus + inv_gamma * c_minus) * (r_minus * r_minus),
            k1_minus: inv_gamma * r_minus,
        }
    }

    /// Gradient of the pin at `v` with exponentials `a±`.
    #[inline]
    fn pin(&self, v: T, a_plus: T, a_minus: T) -> T {
        (self.k0_plus + v * self.k1_plus) * a_plus - (self.k0_minus - v * self.k1_minus) * a_minus
    }
}

/// `b±` and `c±` of one net along one axis, accumulated in pin order.
struct NetSums<T> {
    b_plus: T,
    b_minus: T,
    c_plus: T,
    c_minus: T,
}

impl<T: Float> NetSums<T> {
    const ZERO: Self = Self {
        b_plus: T::ZERO,
        b_minus: T::ZERO,
        c_plus: T::ZERO,
        c_minus: T::ZERO,
    };

    #[inline]
    fn add(&mut self, v: T, a_plus: T, a_minus: T) {
        self.b_plus += a_plus;
        self.b_minus += a_minus;
        self.c_plus += v * a_plus;
        self.c_minus += v * a_minus;
    }

    /// Eq. (3): `c+/b+ - c-/b-`.
    #[inline]
    fn wirelength(&self) -> T {
        self.c_plus / self.b_plus - self.c_minus / self.b_minus
    }

    #[inline]
    fn gradient(&self, inv_gamma: T) -> NetGradient<T> {
        NetGradient::new(
            inv_gamma,
            self.b_plus,
            self.b_minus,
            self.c_plus,
            self.c_minus,
        )
    }
}

/// Pin budget of one block of [`merged_chunk`]. A block's scratch holds four
/// values per pin (16 KB in `f64`), so it stays in L1 however large the
/// design and its reduction chunks are; a larger net is a block of its own.
const BLOCK_PINS: usize = 512;

/// One reduction chunk of the merged strategy (paper Algorithm 2): the
/// weighted cost of the nets `nets` and, when `grads` is given, their pins'
/// weighted Eq. (6) gradients, in the three passes of the module docs per
/// block of consecutive nets with at most [`BLOCK_PINS`] pins. The cost
/// accumulates net by net across blocks, so the blocking moves no bit.
/// Degenerate nets (fewer than two pins) add nothing and write nothing.
fn merged_chunk<T: Float>(
    nl: &Netlist<T>,
    (px, py): (&[T], &[T]),
    inv_gamma: T,
    nets: Range<usize>,
    grads: Option<(&DisjointSlice<'_, T>, &DisjointSlice<'_, T>)>,
) -> T {
    // Per pin `[x+, x-, y+, y-]`: the exponent arguments, then their
    // exponentials. Owned by this invocation, never a per-pin global
    // (Algorithm 2); degenerate nets' slots are zero.
    let mut a = Vec::new();
    let mut local = T::ZERO;
    let mut start = nets.start;
    while start < nets.end {
        let base = nl.net_pin_range(NetId::new(start)).start;
        let mut end = start + 1;
        while end < nets.end && nl.net_pin_range(NetId::new(end)).end - base <= BLOCK_PINS {
            end += 1;
        }
        let (block, pins_end) = (start..end, nl.net_pin_range(NetId::new(end - 1)).end);
        start = end;
        let slots = |pins: &Range<usize>| 4 * (pins.start - base)..4 * (pins.end - base);
        a.clear();
        a.resize(4 * (pins_end - base), T::ZERO);
        for e in block.clone() {
            let pins = nl.net_pin_range(NetId::new(e));
            if pins.len() < 2 {
                continue;
            }
            let (xs, ys) = (&px[pins.clone()], &py[pins.clone()]);
            let (mut hx, mut lx) = (T::NEG_INFINITY, T::INFINITY);
            let (mut hy, mut ly) = (T::NEG_INFINITY, T::INFINITY);
            for (&x, &y) in xs.iter().zip(ys) {
                hx = hx.max(x);
                lx = lx.min(x);
                hy = hy.max(y);
                ly = ly.min(y);
            }
            for ((&x, &y), s) in xs.iter().zip(ys).zip(a[slots(&pins)].chunks_exact_mut(4)) {
                s[0] = (x - hx) * inv_gamma;
                s[1] = (lx - x) * inv_gamma;
                s[2] = (y - hy) * inv_gamma;
                s[3] = (ly - y) * inv_gamma;
            }
        }
        exp_nonpos_in_place(&mut a);
        for e in block {
            let net = NetId::new(e);
            let pins = nl.net_pin_range(net);
            if pins.len() < 2 {
                continue;
            }
            let w = nl.net_weight(net);
            let (xs, ys, a) = (&px[pins.clone()], &py[pins.clone()], &a[slots(&pins)]);
            let (mut sx, mut sy) = (NetSums::ZERO, NetSums::ZERO);
            for ((&x, &y), s) in xs.iter().zip(ys).zip(a.chunks_exact(4)) {
                sx.add(x, s[0], s[1]);
                sy.add(y, s[2], s[3]);
            }
            local += w * sx.wirelength();
            local += w * sy.wirelength();
            if let Some((gx, gy)) = grads {
                let (nx, ny) = (sx.gradient(inv_gamma), sy.gradient(inv_gamma));
                for (((pin, &x), &y), s) in pins.zip(xs).zip(ys).zip(a.chunks_exact(4)) {
                    // SAFETY: `pin` indexed `px` above and `gx`/`gy` are as long
                    // (asserted by the caller); net ranges are disjoint and nets
                    // are partitioned across chunks.
                    unsafe {
                        gx.write(pin, w * nx.pin(x, s[0], s[1]));
                        gy.write(pin, w * ny.pin(y, s[2], s[3]));
                    }
                }
            }
        }
    }
    local
}

/// Parallelization strategy for the WA kernels (paper Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaStrategy {
    /// One worker per net; forward and backward are separate passes with
    /// per-pin/per-net intermediates cached in between.
    NetByNet,
    /// Pin-level parallelism with atomic max/min/add scratch arrays
    /// (paper Algorithm 1).
    Atomic,
    /// Net-level fused forward+backward without global intermediates
    /// (paper Algorithm 2).
    Merged,
}

impl std::fmt::Display for WaStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WaStrategy::NetByNet => "net-by-net",
            WaStrategy::Atomic => "atomic",
            WaStrategy::Merged => "merged",
        };
        f.write_str(s)
    }
}

/// Per-axis cached intermediates for the two-pass strategies.
#[derive(Debug, Clone)]
struct AxisCache<T> {
    /// `a^+` per pin.
    a_plus: Vec<T>,
    /// `a^-` per pin.
    a_minus: Vec<T>,
    /// `b^+` per net.
    b_plus: Vec<T>,
    /// `b^-` per net.
    b_minus: Vec<T>,
    /// `c^+` per net.
    c_plus: Vec<T>,
    /// `c^-` per net.
    c_minus: Vec<T>,
}

impl<T> Default for AxisCache<T> {
    fn default() -> Self {
        Self {
            a_plus: Vec::new(),
            a_minus: Vec::new(),
            b_plus: Vec::new(),
            b_minus: Vec::new(),
            c_plus: Vec::new(),
            c_minus: Vec::new(),
        }
    }
}

impl<T: Float> AxisCache<T> {
    /// Resizes to the current design and zero-fills every entry. The
    /// explicit zeroing is load-bearing: degenerate nets leave their `a`/`c`
    /// slots untouched and the backward pass relies on them being zero, so
    /// a recycled buffer must not leak the previous iteration's values.
    fn reset(&mut self, pins: usize, nets: usize) {
        for (buf, len) in [
            (&mut self.a_plus, pins),
            (&mut self.a_minus, pins),
            (&mut self.b_plus, nets),
            (&mut self.b_minus, nets),
            (&mut self.c_plus, nets),
            (&mut self.c_minus, nets),
        ] {
            buf.clear();
            buf.resize(len, T::ZERO);
        }
    }

    /// Bytes of scratch currently held.
    fn bytes(&self) -> usize {
        (self.a_plus.capacity()
            + self.a_minus.capacity()
            + self.b_plus.capacity()
            + self.b_minus.capacity()
            + self.c_plus.capacity()
            + self.c_minus.capacity())
            * std::mem::size_of::<T>()
    }
}

/// Resets an atomic scratch vector to `n` cells all holding `init`,
/// reusing the allocation.
fn reset_atomic_vec<A: AtomicFloat>(v: &mut Vec<A>, n: usize, init: A::Value) {
    v.truncate(n);
    for cell in v.iter() {
        cell.store(init);
    }
    while v.len() < n {
        v.push(A::new(init));
    }
}

/// Persistent per-net scratch for the atomic strategy (paper Algorithm 1):
/// max/min and `b`/`c` accumulators, reset — not reallocated — per launch.
struct AtomicNetScratch<T: Float> {
    hi: Vec<T::Atomic>,
    lo: Vec<T::Atomic>,
    b_plus: Vec<T::Atomic>,
    b_minus: Vec<T::Atomic>,
    c_plus: Vec<T::Atomic>,
    c_minus: Vec<T::Atomic>,
}

impl<T: Float> AtomicNetScratch<T> {
    fn empty() -> Self {
        Self {
            hi: Vec::new(),
            lo: Vec::new(),
            b_plus: Vec::new(),
            b_minus: Vec::new(),
            c_plus: Vec::new(),
            c_minus: Vec::new(),
        }
    }

    fn reset(&mut self, nets: usize) {
        reset_atomic_vec(&mut self.hi, nets, T::NEG_INFINITY);
        reset_atomic_vec(&mut self.lo, nets, T::INFINITY);
        reset_atomic_vec(&mut self.b_plus, nets, T::ZERO);
        reset_atomic_vec(&mut self.b_minus, nets, T::ZERO);
        reset_atomic_vec(&mut self.c_plus, nets, T::ZERO);
        reset_atomic_vec(&mut self.c_minus, nets, T::ZERO);
    }

    fn bytes(&self) -> usize {
        (self.hi.capacity()
            + self.lo.capacity()
            + self.b_plus.capacity()
            + self.b_minus.capacity()
            + self.c_plus.capacity()
            + self.c_minus.capacity())
            * std::mem::size_of::<T::Atomic>()
    }
}

/// The WA wirelength operator.
///
/// See the [crate-level example](crate) for usage. `gamma` controls the
/// smoothness/accuracy trade-off of the HPWL approximation and is rescheduled
/// by the global placer every iteration.
pub struct WaWirelength<T: Float> {
    strategy: WaStrategy,
    gamma: T,
    /// Pin coordinates refreshed at each forward.
    pin_x: Vec<T>,
    pin_y: Vec<T>,
    /// Per-axis intermediates storage; survives invalidation so the
    /// allocation is reused across iterations.
    cache: Option<(AxisCache<T>, AxisCache<T>)>,
    /// Whether `cache` holds intermediates from the latest forward.
    cache_valid: bool,
    atomic_scratch: AtomicNetScratch<T>,
}

impl<T: Float> WaWirelength<T> {
    /// Creates the operator with the given strategy and smoothing `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive.
    pub fn new(strategy: WaStrategy, gamma: T) -> Self {
        assert!(gamma > T::ZERO, "gamma must be positive");
        Self {
            strategy,
            gamma,
            pin_x: Vec::new(),
            pin_y: Vec::new(),
            cache: None,
            cache_valid: false,
            atomic_scratch: AtomicNetScratch::empty(),
        }
    }

    /// The active strategy.
    pub fn strategy(&self) -> WaStrategy {
        self.strategy
    }

    /// The current smoothing parameter.
    pub fn gamma(&self) -> T {
        self.gamma
    }

    /// Updates the smoothing parameter (invalidates cached intermediates;
    /// their storage is kept for reuse).
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive.
    pub fn set_gamma(&mut self, gamma: T) {
        assert!(gamma > T::ZERO, "gamma must be positive");
        self.gamma = gamma;
        self.cache_valid = false;
    }

    /// Refreshes pin coordinates from cell centers.
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
            "wa.pin_pos",
            (self.pin_x.capacity() + self.pin_y.capacity()) * std::mem::size_of::<T>(),
            reused,
        );
    }

    /// Forward pass of the net-by-net strategy for one axis, filling `cache`.
    ///
    /// The cost reduction folds per-chunk partials in chunk order with a
    /// thread-count-invariant chunk size, so the total is bit-exact at any
    /// worker count.
    fn forward_axis_net_by_net(
        &self,
        nl: &Netlist<T>,
        coords: &[T],
        cache: &mut AxisCache<T>,
        pool: &WorkerPool,
    ) -> T {
        let nets = nl.num_nets();
        let chunk = reduce_chunk_size(nets);
        let inv_gamma = T::ONE / self.gamma;
        let a_plus = DisjointSlice::new(&mut cache.a_plus);
        let a_minus = DisjointSlice::new(&mut cache.a_minus);
        let b_plus = DisjointSlice::new(&mut cache.b_plus);
        let b_minus = DisjointSlice::new(&mut cache.b_minus);
        let c_plus = DisjointSlice::new(&mut cache.c_plus);
        let c_minus = DisjointSlice::new(&mut cache.c_minus);
        pool.reduce_in_order(
            nets,
            chunk,
            T::ZERO,
            |range| {
                let mut local = T::ZERO;
                for e in range {
                    let net = NetId::new(e);
                    let pins = nl.net_pins(net);
                    if pins.len() < 2 {
                        // Degenerate net: zero wirelength. `b = 1` with the
                        // zeroed `a`/`c` entries makes the backward pass
                        // yield exact-zero pin gradients without dividing
                        // by zero.
                        unsafe {
                            b_plus.write(e, T::ONE);
                            b_minus.write(e, T::ONE);
                        }
                        continue;
                    }
                    let mut hi = T::NEG_INFINITY;
                    let mut lo = T::INFINITY;
                    for &pin in pins {
                        let v = coords[pin.index()];
                        hi = hi.max(v);
                        lo = lo.min(v);
                    }
                    let mut bp = T::ZERO;
                    let mut bm = T::ZERO;
                    let mut cp = T::ZERO;
                    let mut cm = T::ZERO;
                    for &pin in pins {
                        let v = coords[pin.index()];
                        let (ap, am) = stable_exps(v, hi, lo, inv_gamma);
                        // SAFETY: each pin belongs to exactly one net, and
                        // nets are partitioned across chunks.
                        unsafe {
                            a_plus.write(pin.index(), ap);
                            a_minus.write(pin.index(), am);
                        }
                        bp += ap;
                        bm += am;
                        cp += v * ap;
                        cm += v * am;
                    }
                    // SAFETY: net index `e` is unique to this chunk.
                    unsafe {
                        b_plus.write(e, bp);
                        b_minus.write(e, bm);
                        c_plus.write(e, cp);
                        c_minus.write(e, cm);
                    }
                    local += nl.net_weight(net) * (cp / bp - cm / bm);
                }
                local
            },
            |a, b| a + b,
        )
    }

    /// Forward pass of the atomic strategy (paper Algorithm 1) for one axis.
    ///
    /// The per-net `b`/`c` terms accumulate through floating-point atomics,
    /// so unlike the other strategies this one is only reproducible to
    /// rounding across thread counts.
    fn forward_axis_atomic(
        &mut self,
        nl: &Netlist<T>,
        coords: &[T],
        cache: &mut AxisCache<T>,
        pool: &WorkerPool,
    ) -> T {
        let nets = nl.num_nets();
        let pins = nl.num_pins();
        let pin_chunk = pool.chunk_for(pins);
        let inv_gamma = T::ONE / self.gamma;
        self.atomic_scratch.reset(nets);
        let scratch = &self.atomic_scratch;

        // x+/x- kernel: atomic max/min per net.
        let hi = &scratch.hi;
        let lo = &scratch.lo;
        pool.run(pins, pin_chunk, |range| {
            for p in range {
                let e = nl.pin_net(dp_netlist::PinId::new(p)).index();
                hi[e].fetch_max(coords[p]);
                lo[e].fetch_min(coords[p]);
            }
        });

        // a+/a- kernel: per-pin stabilized exponentials. The kernel is
        // purely elementwise (no cross-pin reduction), so the 4-wide unroll
        // below changes neither results nor rounding — each pin's value is
        // computed by the exact same expression in the same order — it only
        // hands the autovectorizer four independent chains per block.
        {
            let a_plus = DisjointSlice::new(&mut cache.a_plus);
            let a_minus = DisjointSlice::new(&mut cache.a_minus);
            pool.run(pins, pin_chunk, |range| {
                let pin_exp = |p: usize| {
                    let net = nl.pin_net(dp_netlist::PinId::new(p));
                    let e = net.index();
                    // Pins of degenerate nets get `a = 0` so the backward
                    // pass yields exact-zero gradients for them.
                    if nl.net_degree(net) < 2 {
                        return;
                    }
                    let (ap, am) = stable_exps(coords[p], hi[e].load(), lo[e].load(), inv_gamma);
                    // SAFETY: pin index `p` is unique to this chunk.
                    unsafe {
                        a_plus.write(p, ap);
                        a_minus.write(p, am);
                    }
                };
                let mut p = range.start;
                while p + 4 <= range.end {
                    pin_exp(p);
                    pin_exp(p + 1);
                    pin_exp(p + 2);
                    pin_exp(p + 3);
                    p += 4;
                }
                for q in p..range.end {
                    pin_exp(q);
                }
            });
        }

        // b and c kernels: atomic adds per net.
        let bp = &scratch.b_plus;
        let bm = &scratch.b_minus;
        let a_plus_ref = &cache.a_plus;
        let a_minus_ref = &cache.a_minus;
        pool.run(pins, pin_chunk, |range| {
            for p in range {
                let e = nl.pin_net(dp_netlist::PinId::new(p)).index();
                bp[e].fetch_add(a_plus_ref[p]);
                bm[e].fetch_add(a_minus_ref[p]);
            }
        });
        let cp = &scratch.c_plus;
        let cm = &scratch.c_minus;
        pool.run(pins, pin_chunk, |range| {
            for p in range {
                let e = nl.pin_net(dp_netlist::PinId::new(p)).index();
                cp[e].fetch_add(coords[p] * a_plus_ref[p]);
                cm[e].fetch_add(coords[p] * a_minus_ref[p]);
            }
        });

        // WL kernel per net + ordered reduction.
        let net_chunk = reduce_chunk_size(nets);
        let b_plus = DisjointSlice::new(&mut cache.b_plus);
        let b_minus = DisjointSlice::new(&mut cache.b_minus);
        let c_plus = DisjointSlice::new(&mut cache.c_plus);
        let c_minus = DisjointSlice::new(&mut cache.c_minus);
        pool.reduce_in_order(
            nets,
            net_chunk,
            T::ZERO,
            |range| {
                let mut local = T::ZERO;
                for e in range {
                    if nl.net_degree(NetId::new(e)) < 2 {
                        // Degenerate net: `b = 1` pairs with the zeroed
                        // `a`/`c` entries for exact-zero gradients.
                        unsafe {
                            b_plus.write(e, T::ONE);
                            b_minus.write(e, T::ONE);
                        }
                        continue;
                    }
                    let (vbp, vbm, vcp, vcm) =
                        (bp[e].load(), bm[e].load(), cp[e].load(), cm[e].load());
                    // SAFETY: net index `e` is unique to this chunk.
                    unsafe {
                        b_plus.write(e, vbp);
                        b_minus.write(e, vbm);
                        c_plus.write(e, vcp);
                        c_minus.write(e, vcm);
                    }
                    local += nl.net_weight(NetId::new(e)) * (vcp / vbp - vcm / vbm);
                }
                local
            },
            |a, b| a + b,
        )
    }

    /// Backward pass shared by net-by-net and atomic: per-pin Eq. (6) from
    /// the cache, then CSR scatter to cells. Pin gradient scratch is leased
    /// from the ctx registry.
    fn backward_from_cache(
        &self,
        nl: &Netlist<T>,
        cache_x: &AxisCache<T>,
        cache_y: &AxisCache<T>,
        grad: &mut Gradient<T>,
        pool: &WorkerPool,
        ctx: &mut ExecCtx<T>,
    ) {
        let pins = nl.num_pins();
        // A netlist change between forward and backward would silently read
        // stale-shaped workspaces; catch it where the reuse happens.
        debug_assert_eq!(cache_x.a_plus.len(), pins, "WA cache pins out of date");
        debug_assert_eq!(
            cache_x.b_plus.len(),
            nl.num_nets(),
            "WA cache nets out of date"
        );
        debug_assert_eq!(cache_y.a_plus.len(), pins, "WA cache pins out of date");
        debug_assert_eq!(
            cache_y.b_plus.len(),
            nl.num_nets(),
            "WA cache nets out of date"
        );
        let chunk = pool.chunk_for(pins);
        let inv_gamma = T::ONE / self.gamma;
        let mut pin_gx = ctx.lease("wl.pin_grad.x", pins);
        let mut pin_gy = ctx.lease("wl.pin_grad.y", pins);
        {
            let gx = DisjointSlice::new(&mut pin_gx);
            let gy = DisjointSlice::new(&mut pin_gy);
            let px = &self.pin_x;
            let py = &self.pin_y;
            pool.run(pins, chunk, |range| {
                for p in range {
                    let pid = dp_netlist::PinId::new(p);
                    let e = nl.pin_net(pid).index();
                    let w = nl.net_weight(NetId::new(e));
                    // The pin-parallel pass has no net loop to hoist out of;
                    // it goes through the same coefficients so its bits
                    // match the merged kernel's.
                    let [dx, dy] = [(cache_x, px), (cache_y, py)].map(|(c, coords)| {
                        NetGradient::new(
                            inv_gamma,
                            c.b_plus[e],
                            c.b_minus[e],
                            c.c_plus[e],
                            c.c_minus[e],
                        )
                        .pin(coords[p], c.a_plus[p], c.a_minus[p])
                    });
                    // SAFETY: pin index `p` is unique to this chunk.
                    unsafe {
                        gx.write(p, w * dx);
                        gy.write(p, w * dy);
                    }
                }
            });
        }
        scatter_pin_grads_to_cells(nl, &pin_gx, &pin_gy, grad, pool);
        ctx.release("wl.pin_grad.x", pin_gx);
        ctx.release("wl.pin_grad.y", pin_gy);
    }

    /// Fused forward+backward of the merged strategy (paper Algorithm 2):
    /// [`merged_chunk`] per reduction chunk, then the pin gradients
    /// scattered to cells.
    fn merged_forward_backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) -> T {
        self.update_pin_positions(nl, p, ctx);
        let pool = Arc::clone(ctx.pool());
        let pins = nl.num_pins();
        let mut pin_gx = ctx.lease("wl.pin_grad.x", pins);
        let mut pin_gy = ctx.lease("wl.pin_grad.y", pins);
        let total = {
            let gx = DisjointSlice::new(&mut pin_gx);
            let gy = DisjointSlice::new(&mut pin_gy);
            // The unchecked gradient writes rely on one slot per pin.
            assert!(gx.len() == pins && gy.len() == pins && self.pin_x.len() == pins);
            self.merged_cost(nl, &pool, Some((&gx, &gy)))
        };
        scatter_pin_grads_to_cells(nl, &pin_gx, &pin_gy, grad, &pool);
        ctx.release("wl.pin_grad.x", pin_gx);
        ctx.release("wl.pin_grad.y", pin_gy);
        self.cache_valid = false;
        total
    }

    /// Forward-only evaluation used by line search: the merged kernel's
    /// chunks without their gradient writes, touching no cache.
    fn cost_only(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        self.update_pin_positions(nl, p, ctx);
        let pool = Arc::clone(ctx.pool());
        self.merged_cost(nl, &pool, None)
    }

    /// The merged kernel's cost at the current pin positions: the
    /// [`merged_chunk`] partials folded in chunk order with a
    /// thread-count-invariant chunk size. Pin gradients go to `grads` when
    /// given.
    fn merged_cost(
        &self,
        nl: &Netlist<T>,
        pool: &WorkerPool,
        grads: Option<(&DisjointSlice<'_, T>, &DisjointSlice<'_, T>)>,
    ) -> T {
        let coords = (self.pin_x.as_slice(), self.pin_y.as_slice());
        let inv_gamma = T::ONE / self.gamma;
        let nets = nl.num_nets();
        pool.reduce_in_order(
            nets,
            reduce_chunk_size(nets),
            T::ZERO,
            |range| merged_chunk(nl, coords, inv_gamma, range, grads),
            |a, b| a + b,
        )
    }
}

impl<T: Float> Operator<T> for WaWirelength<T> {
    fn name(&self) -> &'static str {
        "wa-wirelength"
    }

    fn forward(&mut self, nl: &Netlist<T>, p: &Placement<T>, ctx: &mut ExecCtx<T>) -> T {
        let t0 = ctx.op_timer();
        let cost = match self.strategy {
            WaStrategy::Merged => self.cost_only(nl, p, ctx),
            WaStrategy::NetByNet | WaStrategy::Atomic => {
                self.update_pin_positions(nl, p, ctx);
                let pool = Arc::clone(ctx.pool());
                let pins = nl.num_pins();
                let nets = nl.num_nets();
                let cache_reused = self.cache.is_some();
                let scratch_reused = !self.atomic_scratch.hi.is_empty();
                let (mut cx, mut cy) = self.cache.take().unwrap_or_default();
                cx.reset(pins, nets);
                cy.reset(pins, nets);
                // Move the coordinate buffers out so the axis passes can
                // borrow `self` without aliasing them.
                let px = std::mem::take(&mut self.pin_x);
                let py = std::mem::take(&mut self.pin_y);
                let cost = match self.strategy {
                    WaStrategy::NetByNet => {
                        self.forward_axis_net_by_net(nl, &px, &mut cx, &pool)
                            + self.forward_axis_net_by_net(nl, &py, &mut cy, &pool)
                    }
                    _ => {
                        self.forward_axis_atomic(nl, &px, &mut cx, &pool)
                            + self.forward_axis_atomic(nl, &py, &mut cy, &pool)
                    }
                };
                self.pin_x = px;
                self.pin_y = py;
                ctx.note_workspace("wa.axis_cache", cx.bytes() + cy.bytes(), cache_reused);
                if matches!(self.strategy, WaStrategy::Atomic) {
                    ctx.note_workspace(
                        "wa.atomic_scratch",
                        self.atomic_scratch.bytes(),
                        scratch_reused,
                    );
                }
                self.cache = Some((cx, cy));
                self.cache_valid = true;
                cost
            }
        };
        ctx.record_op("wa.forward", t0);
        cost
    }

    fn backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) {
        match self.strategy {
            WaStrategy::Merged => {
                let t0 = ctx.op_timer();
                let n = grad.len();
                let mut scratch = Gradient {
                    x: ctx.lease("wl.backward.scratch.x", n),
                    y: ctx.lease("wl.backward.scratch.y", n),
                };
                let _ = self.merged_forward_backward(nl, p, &mut scratch, ctx);
                grad.axpy(T::ONE, &scratch);
                let Gradient { x, y } = scratch;
                ctx.release("wl.backward.scratch.x", x);
                ctx.release("wl.backward.scratch.y", y);
                ctx.record_op("wa.backward", t0);
            }
            _ => {
                if !self.cache_valid || self.cache.is_none() {
                    let _ = self.forward(nl, p, ctx);
                }
                let t0 = ctx.op_timer();
                let pool = Arc::clone(ctx.pool());
                // The branch above guarantees a populated, valid cache.
                if let Some((cx, cy)) = self.cache.take() {
                    self.backward_from_cache(nl, &cx, &cy, grad, &pool, ctx);
                    self.cache = Some((cx, cy));
                }
                ctx.record_op("wa.backward", t0);
            }
        }
    }

    fn forward_backward(
        &mut self,
        nl: &Netlist<T>,
        p: &Placement<T>,
        grad: &mut Gradient<T>,
        ctx: &mut ExecCtx<T>,
    ) -> T {
        match self.strategy {
            WaStrategy::Merged => {
                let t0 = ctx.op_timer();
                let cost = self.merged_forward_backward(nl, p, grad, ctx);
                ctx.record_op("wa.forward_backward", t0);
                cost
            }
            _ => {
                let cost = self.forward(nl, p, ctx);
                self.backward(nl, p, grad, ctx);
                cost
            }
        }
    }
}

/// Accumulates per-pin gradients into per-cell gradients through the
/// cell-pin CSR (each cell's pins are disjoint from other cells').
fn scatter_pin_grads_to_cells<T: Float>(
    nl: &Netlist<T>,
    pin_gx: &[T],
    pin_gy: &[T],
    grad: &mut Gradient<T>,
    pool: &WorkerPool,
) {
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
            // SAFETY: cell index `c` is unique to this chunk (single
            // reader/writer per slot).
            unsafe {
                gx.write(c, gx.read(c) + ax);
                gy.write(c, gy.read(c) + ay);
            }
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_autograd::check_gradient;
    use dp_netlist::{hpwl, NetlistBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_design(seed: u64, cells: usize, nets: usize) -> (Netlist<f64>, Placement<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(0.0, 0.0, 100.0, 100.0);
        let handles: Vec<_> = (0..cells).map(|_| b.add_movable_cell(1.0, 2.0)).collect();
        for _ in 0..nets {
            let deg = rng.gen_range(2..=6.min(cells));
            let mut pins = Vec::new();
            for _ in 0..deg {
                let c = handles[rng.gen_range(0..cells)];
                pins.push((c, rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)));
            }
            b.add_net(rng.gen_range(0.5..2.0), pins).expect("valid net");
        }
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(nl.num_cells());
        for i in 0..nl.num_cells() {
            p.x[i] = rng.gen_range(0.0..100.0);
            p.y[i] = rng.gen_range(0.0..100.0);
        }
        (nl, p)
    }

    impl<T: Float> WaWirelength<T> {
        /// The merged kernel as it was before the exp-once rewrite: one net
        /// and axis at a time, pins addressed through `net_pins`, `a±`
        /// recomputed in the gradient loop. Kept as the bit-exact reference
        /// for the three-pass production chunks.
        fn merged_two_exp_reference(
            &mut self,
            nl: &Netlist<T>,
            p: &Placement<T>,
            grad: &mut Gradient<T>,
            ctx: &mut ExecCtx<T>,
        ) -> T {
            self.update_pin_positions(nl, p, ctx);
            let pool = Arc::clone(ctx.pool());
            let nets = nl.num_nets();
            let inv_gamma = T::ONE / self.gamma;
            let mut pin_gx = vec![T::ZERO; nl.num_pins()];
            let mut pin_gy = vec![T::ZERO; nl.num_pins()];
            let total = {
                let gx = DisjointSlice::new(&mut pin_gx);
                let gy = DisjointSlice::new(&mut pin_gy);
                let px = &self.pin_x;
                let py = &self.pin_y;
                pool.reduce_in_order(
                    nets,
                    reduce_chunk_size(nets),
                    T::ZERO,
                    |range| {
                        let mut local = T::ZERO;
                        for e in range {
                            let net = NetId::new(e);
                            let w = nl.net_weight(net);
                            let net_pins = nl.net_pins(net);
                            if net_pins.len() < 2 {
                                continue;
                            }
                            for (coords, out) in [(px, &gx), (py, &gy)] {
                                let mut hi = T::NEG_INFINITY;
                                let mut lo = T::INFINITY;
                                for &pin in net_pins {
                                    let v = coords[pin.index()];
                                    hi = hi.max(v);
                                    lo = lo.min(v);
                                }
                                let mut bp = T::ZERO;
                                let mut bm = T::ZERO;
                                let mut cp = T::ZERO;
                                let mut cm = T::ZERO;
                                for &pin in net_pins {
                                    let v = coords[pin.index()];
                                    let (ap, am) = stable_exps(v, hi, lo, inv_gamma);
                                    bp += ap;
                                    bm += am;
                                    cp += v * ap;
                                    cm += v * am;
                                }
                                local += w * (cp / bp - cm / bm);
                                for &pin in net_pins {
                                    let v = coords[pin.index()];
                                    let (ap, am) = stable_exps(v, hi, lo, inv_gamma);
                                    let g =
                                        NetGradient::new(inv_gamma, bp, bm, cp, cm).pin(v, ap, am);
                                    // SAFETY: each pin belongs to exactly
                                    // one net.
                                    unsafe { out.write(pin.index(), w * g) };
                                }
                            }
                        }
                        local
                    },
                    |a, b| a + b,
                )
            };
            scatter_pin_grads_to_cells(nl, &pin_gx, &pin_gy, grad, &pool);
            total
        }
    }

    /// 1300 nets (reduction chunks of 5) cycling through degrees
    /// {0, 1, 2, 3, 17} with a 600-pin net every 211th — over
    /// [`BLOCK_PINS`], so its chunk splits into a block before it, its own
    /// block and a block after it — non-unit weights, nets whose pins all
    /// coincide (`hi == lo`) and nets with duplicated pins.
    fn mixed_degree_design<T: Float>(seed: u64) -> (Netlist<T>, Placement<T>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = T::from_f64;
        let cells = 400;
        let mut b =
            NetlistBuilder::new(t(0.0), t(0.0), t(200.0), t(200.0)).allow_degenerate_nets(true);
        let handles: Vec<_> = (0..cells)
            .map(|_| b.add_movable_cell(t(1.0), t(2.0)))
            .collect();
        for i in 0..1300 {
            let deg = if i % 211 == 7 {
                600
            } else {
                [2, 3, 0, 17, 1, 2, 3, 2][i % 8]
            };
            let mut pins = Vec::with_capacity(deg);
            for k in 0..deg {
                let coincident = i % 13 == 5 || (i % 7 == 3 && k == 1);
                if coincident && k > 0 {
                    pins.push(pins[0]);
                } else {
                    let c = handles[rng.gen_range(0..cells)];
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
        (nl, p)
    }

    /// How many exponent arguments `(v - hi)/gamma`, `(lo - v)/gamma` of
    /// `nl` at `p` fall in the `f64` kernel's subnormal band
    /// `[ln 2^-1075, ln 2^-1022)` and below it.
    fn tiny_lanes<T: Float>(nl: &Netlist<T>, p: &Placement<T>, gamma: f64) -> [usize; 2] {
        let mut counts = [0; 2];
        for net in nl.nets().filter(|&e| nl.net_degree(e) >= 2) {
            for axis in [0, 1] {
                let vs: Vec<f64> = nl
                    .net_pins(net)
                    .iter()
                    .map(|&pin| {
                        let (c, (dx, dy)) = (nl.pin_cell(pin).index(), nl.pin_offset(pin));
                        [p.x[c] + dx, p.y[c] + dy][axis].to_f64()
                    })
                    .collect();
                let hi = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let lo = vs.iter().copied().fold(f64::INFINITY, f64::min);
                for x in vs
                    .iter()
                    .flat_map(|&v| [(v - hi) / gamma, (lo - v) / gamma])
                {
                    if x < -745.14 {
                        counts[1] += 1;
                    } else if x < -708.39 {
                        counts[0] += 1;
                    }
                }
            }
        }
        counts
    }

    fn assert_exp_once_matches_two_exp_reference<T: Float>() {
        let (nl, p) = mixed_degree_design::<T>(31);
        assert_eq!(reduce_chunk_size(nl.num_nets()), 5);
        let degrees: std::collections::BTreeSet<_> = nl.nets().map(|e| nl.net_degree(e)).collect();
        assert!([0, 1, 2, 3, 17, 600].iter().all(|d| degrees.contains(d)));
        const _: () = assert!(600 > BLOCK_PINS && 4 * 17 < BLOCK_PINS);
        // gamma 0.1 sends lanes into the subnormal band and below the zero
        // edge, where the exponential's selects pick the other scale.
        let [subnormal, zero] = tiny_lanes(&nl, &p, 0.1);
        assert!(subnormal > 100 && zero > 100, "{subnormal} {zero}");
        assert_eq!(tiny_lanes(&nl, &p, 0.6), [0, 0]);
        let bits = |v: T| v.to_f64().to_bits();
        for gamma in [0.1, 0.6, 8.0] {
            for threads in [1usize, 2, 4] {
                let mut ctx = ExecCtx::new(threads);
                let mut op = WaWirelength::new(WaStrategy::Merged, T::from_f64(gamma));
                let mut g = Gradient::zeros(nl.num_cells());
                let cost = op.forward_backward(&nl, &p, &mut g, &mut ctx);
                let mut g_ref = Gradient::zeros(nl.num_cells());
                let cost_ref = op.merged_two_exp_reference(&nl, &p, &mut g_ref, &mut ctx);
                let tag = format!("gamma {gamma} threads {threads}");
                assert!(cost.to_f64().is_finite(), "{tag}");
                assert_eq!(bits(cost), bits(cost_ref), "{tag}");
                // The forward-only path runs the same chunks.
                assert_eq!(bits(op.forward(&nl, &p, &mut ctx)), bits(cost_ref), "{tag}");
                for i in 0..nl.num_cells() {
                    assert_eq!(bits(g.x[i]), bits(g_ref.x[i]), "{tag}: x[{i}]");
                    assert_eq!(bits(g.y[i]), bits(g_ref.y[i]), "{tag}: y[{i}]");
                }
            }
        }
    }

    #[test]
    fn exp_once_kernel_matches_two_exp_reference_to_the_bit_f64() {
        assert_exp_once_matches_two_exp_reference::<f64>();
    }

    #[test]
    fn exp_once_kernel_matches_two_exp_reference_to_the_bit_f32() {
        assert_exp_once_matches_two_exp_reference::<f32>();
    }

    #[test]
    fn wa_approaches_hpwl_as_gamma_shrinks() {
        let (nl, p) = random_design(7, 20, 30);
        let exact = hpwl(&nl, &p).to_f64();
        let mut ctx = ExecCtx::serial();
        let mut prev_err = f64::INFINITY;
        for gamma in [4.0, 1.0, 0.25, 0.05] {
            let mut op = WaWirelength::new(WaStrategy::Merged, gamma);
            let cost = op.forward(&nl, &p, &mut ctx).to_f64();
            let err = (cost - exact).abs();
            assert!(err <= prev_err + 1e-9, "error must shrink with gamma");
            prev_err = err;
        }
        assert!(prev_err / exact < 0.01, "gamma=0.05 should be within 1%");
    }

    #[test]
    fn strategies_agree_on_cost_and_gradient() {
        let (nl, p) = random_design(11, 25, 40);
        let mut ctx = ExecCtx::serial();
        let mut results = Vec::new();
        for strategy in [WaStrategy::NetByNet, WaStrategy::Atomic, WaStrategy::Merged] {
            let mut op = WaWirelength::new(strategy, 0.7);
            let mut g = Gradient::zeros(nl.num_cells());
            let cost = op.forward_backward(&nl, &p, &mut g, &mut ctx);
            results.push((cost, g));
        }
        let (c0, g0) = &results[0];
        for (c, g) in &results[1..] {
            assert!((c - c0).abs() < 1e-9 * c0.abs());
            for i in 0..nl.num_cells() {
                assert!((g.x[i] - g0.x[i]).abs() < 1e-9);
                assert!((g.y[i] - g0.y[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn threads_do_not_change_results() {
        let (nl, p) = random_design(13, 30, 50);
        for strategy in [WaStrategy::NetByNet, WaStrategy::Atomic, WaStrategy::Merged] {
            let mut ctx_s = ExecCtx::serial();
            let mut ctx_p = ExecCtx::new(4);
            let mut serial = WaWirelength::new(strategy, 0.5);
            let mut parallel = WaWirelength::new(strategy, 0.5);
            let mut gs = Gradient::zeros(nl.num_cells());
            let mut gp = Gradient::zeros(nl.num_cells());
            let cs = serial.forward_backward(&nl, &p, &mut gs, &mut ctx_s);
            let cp = parallel.forward_backward(&nl, &p, &mut gp, &mut ctx_p);
            assert!((cs - cp).abs() < 1e-9 * cs.abs(), "{strategy}");
            for i in 0..nl.num_cells() {
                assert!((gs.x[i] - gp.x[i]).abs() < 1e-9, "{strategy}");
            }
            // The non-atomic strategies use ordered reductions and disjoint
            // writes only, so they are bit-exact across thread counts.
            if !matches!(strategy, WaStrategy::Atomic) {
                assert_eq!(cs.to_bits(), cp.to_bits(), "{strategy}");
                for i in 0..nl.num_cells() {
                    assert_eq!(gs.x[i].to_bits(), gp.x[i].to_bits(), "{strategy}");
                    assert_eq!(gs.y[i].to_bits(), gp.y[i].to_bits(), "{strategy}");
                }
            }
        }
    }

    #[test]
    fn workspaces_are_reused_across_iterations() {
        let (nl, p) = random_design(29, 20, 30);
        for strategy in [WaStrategy::NetByNet, WaStrategy::Atomic, WaStrategy::Merged] {
            let mut ctx = ExecCtx::serial();
            let mut op = WaWirelength::new(strategy, 0.7);
            let mut g = Gradient::zeros(nl.num_cells());
            for _ in 0..3 {
                g.reset();
                let _ = op.forward_backward(&nl, &p, &mut g, &mut ctx);
            }
            let summary = ctx.summary();
            for (key, ws) in &summary.workspaces {
                assert!(
                    ws.reuses >= 1,
                    "{strategy}: workspace {key} was never reused: {ws:?}"
                );
            }
            // Pin gradient scratch must be tracked for every strategy.
            assert!(
                summary
                    .workspaces
                    .iter()
                    .any(|(k, _)| *k == "wl.pin_grad.x"),
                "{strategy}"
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (nl, p) = random_design(17, 10, 15);
        for strategy in [WaStrategy::NetByNet, WaStrategy::Atomic, WaStrategy::Merged] {
            let mut op = WaWirelength::new(strategy, 1.0);
            let report = check_gradient(&mut op, &nl, &p, &[], 1e-5);
            assert!(report.within(1e-5), "{strategy}: {report:?}");
        }
    }

    #[test]
    fn net_gradient_sums_to_zero() {
        // WA is translation-invariant, so the gradient over one net's pins
        // must sum to zero.
        let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
        let cells: Vec<_> = (0..4).map(|_| b.add_movable_cell(1.0, 1.0)).collect();
        b.add_net(1.0, cells.iter().map(|&c| (c, 0.0, 0.0)).collect())
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(4);
        p.x = vec![1.0, 3.5, 2.0, 9.0];
        p.y = vec![0.0, 4.0, 8.0, 2.0];
        let mut ctx = ExecCtx::serial();
        let mut op = WaWirelength::new(WaStrategy::Merged, 0.8);
        let mut g = Gradient::zeros(4);
        let _ = op.forward_backward(&nl, &p, &mut g, &mut ctx);
        let sx: f64 = g.x.iter().sum();
        let sy: f64 = g.y.iter().sum();
        assert!(sx.abs() < 1e-10 && sy.abs() < 1e-10);
    }

    #[test]
    fn wa_lower_bounds_hpwl() {
        let (nl, p) = random_design(23, 15, 25);
        let exact = hpwl(&nl, &p).to_f64();
        let mut ctx = ExecCtx::serial();
        let mut op = WaWirelength::new(WaStrategy::NetByNet, 0.5);
        let cost = op.forward(&nl, &p, &mut ctx).to_f64();
        assert!(
            cost <= exact + 1e-9,
            "WA underestimates HPWL: {cost} vs {exact}"
        );
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn rejects_non_positive_gamma() {
        let _ = WaWirelength::<f64>::new(WaStrategy::Merged, 0.0);
    }

    /// 0- and 1-pin nets must contribute exactly zero wirelength and zero
    /// gradient under every strategy — no NaN from 0/0 softmax terms.
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

        let mut ref_b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
        let ra = ref_b.add_movable_cell(1.0, 1.0);
        let rc = ref_b.add_movable_cell(1.0, 1.0);
        let _ = ref_b.add_movable_cell(1.0, 1.0);
        ref_b
            .add_net(2.0, vec![(ra, 0.0, 0.0), (rc, 0.0, 0.0)])
            .expect("valid");
        let ref_nl = ref_b.build().expect("valid");

        let mut p = Placement::zeros(3);
        p.x = vec![1.0, 6.0, 3.0];
        p.y = vec![2.0, 4.0, 8.0];
        let mut ctx = ExecCtx::serial();
        for strategy in [WaStrategy::NetByNet, WaStrategy::Atomic, WaStrategy::Merged] {
            let mut op = WaWirelength::new(strategy, 0.7);
            let mut g = Gradient::zeros(3);
            let cost = op.forward_backward(&nl, &p, &mut g, &mut ctx);
            let mut ref_op = WaWirelength::new(strategy, 0.7);
            let ref_cost = ref_op.forward(&ref_nl, &p, &mut ctx);
            assert!(
                (cost - ref_cost).abs() < 1e-12,
                "{strategy}: {cost} vs {ref_cost}"
            );
            assert!(g.x.iter().chain(&g.y).all(|v| v.is_finite()), "{strategy}");
            assert_eq!(g.x[2], 0.0, "{strategy}: lone cell feels no force");
            assert_eq!(g.y[2], 0.0, "{strategy}");
            // Forward-only (line search) path too.
            assert!(op.forward(&nl, &p, &mut ctx).is_finite(), "{strategy}");
        }
    }
}
