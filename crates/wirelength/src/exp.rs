//! `e^x` for `x ≤ 0`, without libm.
//!
//! Every exponential the smooth wirelength models form is stabilised by the
//! net's max/min (`crate::stable_exps`), so its argument is never positive
//! and its result lies in `[0, 1]`. These kernels know that and skip the
//! overflow handling a general `exp` pays for. Both write
//! `e^x = 2^(k>>7) · 2^((k&127)/128) · e^r` with `k = round(x·128/ln2)`
//! rounded by the `1.5·2^52` shifter, read the middle factor from one
//! 128-entry table, and build the power of two in the exponent bits. They
//! differ in how much of `e^r` they need:
//!
//! * [`exp_nonpos`] (`f64`) reduces `r = x − (k/128)·ln2` with a Cody–Waite
//!   split of `ln2/128`, so `|r| ≤ ln2/256` is exact up to the split's tail,
//!   and evaluates `e^r − 1` as the degree-5 Taylor polynomial (truncation
//!   `|r|^6/720 < 6e-19`). The result is within 1 ulp of `e^x`; against
//!   glibc it is at most 1 ulp apart and bit-equal on about 85% of draws.
//!   It has no branch: subnormal results build the scale in two steps and
//!   anything below `ln(2^-1075)` gives `+0`, both chosen by selects, so the
//!   merged WA kernel evaluates a whole chunk's exponentials in one
//!   vectorized loop (`crate::exp_nonpos_in_place`).
//! * [`exp_nonpos_single`] serves `f32`: the argument widens exactly, the
//!   `f64` reduction error is far below an `f32` ulp, so the Cody–Waite tail
//!   and three polynomial terms go (degree 2, truncation `< 4e-9` relative,
//!   about 3% of an `f32` ulp), and one rounding back to `f32` lands within
//!   1 ulp of `e^x` (bit-equal to glibc's `expf` on about 99% of draws).
//!   Widening into the `f64` kernel instead measured slower than libm's
//!   `expf` on `core.f32_wall_s`.
//!
//! In both, `0` and `−0` give exactly 1, `−inf` gives `+0` and NaN
//! propagates (so the optimizer's non-finite tripwire still fires). Nothing
//! here calls libm, so the wirelength operators' bits do not depend on the
//! host's math library.

/// `128 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `ln 2 / 128`.
const LN2_N: f64 = f64::from_bits(0x3f76_2e42_fefa_39ef);
/// `ln 2 / 128` to 33 significant bits, so `k·LN2_N_HI` is exact for every
/// `|k| < 2^20` the kernel meets (`|x| < 746` gives `|k| < 2^18`).
const LN2_N_HI: f64 = f64::from_bits(0x3f76_2e42_fef0_0000);
/// `ln 2 / 128 − LN2_N_HI`.
const LN2_N_LO: f64 = f64::from_bits(0x3d64_73de_6af2_78ed);
/// `1.5·2^52`: adding it rounds to an integer, which then sits in the low
/// mantissa bits (two's complement, for `|k| < 2^51`).
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// Below this the result may be subnormal (`ln(2^-1022) = −708.3964…`).
const NORMAL_EDGE: f64 = -708.39;
/// Below this the result rounds to `+0` (`ln(2^-1075) = −745.1332…`).
const ZERO_EDGE: f64 = -745.14;
/// `e^-104 < 2^-150`, which rounds to `+0` in `f32`.
const SINGLE_ZERO_EDGE: f64 = -104.0;

/// `2^(j/128)` for `j = 0..128`, correctly rounded.
#[rustfmt::skip]
const TABLE: [u64; 128] = [
    0x3ff0000000000000, 0x3ff0163da9fb3335, 0x3ff02c9a3e778061, 0x3ff04315e86e7f85,
    0x3ff059b0d3158574, 0x3ff0706b29ddf6de, 0x3ff0874518759bc8, 0x3ff09e3ecac6f383,
    0x3ff0b5586cf9890f, 0x3ff0cc922b7247f7, 0x3ff0e3ec32d3d1a2, 0x3ff0fb66affed31b,
    0x3ff11301d0125b51, 0x3ff12abdc06c31cc, 0x3ff1429aaea92de0, 0x3ff15a98c8a58e51,
    0x3ff172b83c7d517b, 0x3ff18af9388c8dea, 0x3ff1a35beb6fcb75, 0x3ff1bbe084045cd4,
    0x3ff1d4873168b9aa, 0x3ff1ed5022fcd91d, 0x3ff2063b88628cd6, 0x3ff21f49917ddc96,
    0x3ff2387a6e756238, 0x3ff251ce4fb2a63f, 0x3ff26b4565e27cdd, 0x3ff284dfe1f56381,
    0x3ff29e9df51fdee1, 0x3ff2b87fd0dad990, 0x3ff2d285a6e4030b, 0x3ff2ecafa93e2f56,
    0x3ff306fe0a31b715, 0x3ff32170fc4cd831, 0x3ff33c08b26416ff, 0x3ff356c55f929ff1,
    0x3ff371a7373aa9cb, 0x3ff38cae6d05d866, 0x3ff3a7db34e59ff7, 0x3ff3c32dc313a8e5,
    0x3ff3dea64c123422, 0x3ff3fa4504ac801c, 0x3ff4160a21f72e2a, 0x3ff431f5d950a897,
    0x3ff44e086061892d, 0x3ff46a41ed1d0057, 0x3ff486a2b5c13cd0, 0x3ff4a32af0d7d3de,
    0x3ff4bfdad5362a27, 0x3ff4dcb299fddd0d, 0x3ff4f9b2769d2ca7, 0x3ff516daa2cf6642,
    0x3ff5342b569d4f82, 0x3ff551a4ca5d920f, 0x3ff56f4736b527da, 0x3ff58d12d497c7fd,
    0x3ff5ab07dd485429, 0x3ff5c9268a5946b7, 0x3ff5e76f15ad2148, 0x3ff605e1b976dc09,
    0x3ff6247eb03a5585, 0x3ff6434634ccc320, 0x3ff6623882552225, 0x3ff68155d44ca973,
    0x3ff6a09e667f3bcd, 0x3ff6c012750bdabf, 0x3ff6dfb23c651a2f, 0x3ff6ff7df9519484,
    0x3ff71f75e8ec5f74, 0x3ff73f9a48a58174, 0x3ff75feb564267c9, 0x3ff780694fde5d3f,
    0x3ff7a11473eb0187, 0x3ff7c1ed0130c132, 0x3ff7e2f336cf4e62, 0x3ff80427543e1a12,
    0x3ff82589994cce13, 0x3ff8471a4623c7ad, 0x3ff868d99b4492ed, 0x3ff88ac7d98a6699,
    0x3ff8ace5422aa0db, 0x3ff8cf3216b5448c, 0x3ff8f1ae99157736, 0x3ff9145b0b91ffc6,
    0x3ff93737b0cdc5e5, 0x3ff95a44cbc8520f, 0x3ff97d829fde4e50, 0x3ff9a0f170ca07ba,
    0x3ff9c49182a3f090, 0x3ff9e86319e32323, 0x3ffa0c667b5de565, 0x3ffa309bec4a2d33,
    0x3ffa5503b23e255d, 0x3ffa799e1330b358, 0x3ffa9e6b5579fdbf, 0x3ffac36bbfd3f37a,
    0x3ffae89f995ad3ad, 0x3ffb0e07298db666, 0x3ffb33a2b84f15fb, 0x3ffb59728de5593a,
    0x3ffb7f76f2fb5e47, 0x3ffba5b030a1064a, 0x3ffbcc1e904bc1d2, 0x3ffbf2c25bd71e09,
    0x3ffc199bdd85529c, 0x3ffc40ab5fffd07a, 0x3ffc67f12e57d14b, 0x3ffc8f6d9406e7b5,
    0x3ffcb720dcef9069, 0x3ffcdf0b555dc3fa, 0x3ffd072d4a07897c, 0x3ffd2f87080d89f2,
    0x3ffd5818dcfba487, 0x3ffd80e316c98398, 0x3ffda9e603db3285, 0x3ffdd321f301b460,
    0x3ffdfc97337b9b5f, 0x3ffe264614f5a129, 0x3ffe502ee78b3ff6, 0x3ffe7a51fbc74c83,
    0x3ffea4afa2a490da, 0x3ffecf482d8e67f1, 0x3ffefa1bee615a27, 0x3fff252b376bba97,
    0x3fff50765b6e4540, 0x3fff7bfdad9cbe14, 0x3fffa7c1819e90d8, 0x3fffd3c22b8f71f1,
];

/// `e^x` for `x ≤ 0` (or NaN); see the module documentation.
///
/// Branch-free, so a loop over many arguments pipelines: arguments below
/// [`ZERO_EDGE`] are clamped to it (whose result rounds to `+0`), and below
/// [`NORMAL_EDGE`] the scale is built `2^1022` too large and the product
/// scaled back by one multiply, which rounds once. Both choices are selects;
/// the `×1.0` of the normal case is exact.
#[inline]
pub(crate) fn exp_nonpos(x: f64) -> f64 {
    debug_assert!(x <= 0.0 || x.is_nan(), "exp_nonpos called with {x}");
    // NaN fails the comparison and passes.
    let x = if x < ZERO_EDGE { ZERO_EDGE } else { x };
    let tiny = x < NORMAL_EDGE;
    let (k, p) = reduce(x);
    let s = scale(k + if tiny { 1022 * 128 } else { 0 });
    (s + s * p) * if tiny { f64::from_bits(1 << 52) } else { 1.0 }
}

/// `e^x` for a widened `f32` argument `x ≤ 0` (or NaN), accurate enough
/// for one rounding to `f32`; see the module documentation.
#[inline]
pub(crate) fn exp_nonpos_single(x: f64) -> f64 {
    debug_assert!(x <= 0.0 || x.is_nan(), "exp_nonpos_single called with {x}");
    // A clamp rather than a branch; NaN fails the comparison and passes.
    let x = if x < SINGLE_ZERO_EDGE {
        SINGLE_ZERO_EDGE
    } else {
        x
    };
    let z = x * INV_LN2_N;
    let (k, kd) = round_shifted(z);
    let r = z - kd; // |r| ≤ 1/2, in units of ln2/128
    let s = scale(k);
    s + s * (r * (LN2_N + r * (LN2_N * LN2_N * 0.5)))
}

/// `(round(z), round(z) as f64)` by the shifter, for `|z| < 2^51`.
#[inline(always)]
fn round_shifted(z: f64) -> (i64, f64) {
    let kd = z + SHIFT;
    (
        kd.to_bits().wrapping_sub(SHIFT.to_bits()) as i64,
        kd - SHIFT,
    )
}

/// `2^(k/128)` for `k ≥ −1022·128`: a table entry with `k>>7` added to its
/// exponent bits. Only bits 7–18 of `k` reach them, so the shift can be
/// unsigned.
#[inline(always)]
fn scale(k: i64) -> f64 {
    f64::from_bits(TABLE[(k & 127) as usize].wrapping_add(((k as u64) >> 7) << 52))
}

/// `(k, e^r − 1)` with `x = (k/128)·ln2 + r`, `|r| ≤ ln2/256`: the
/// Cody–Waite reduction and the degree-5 Taylor polynomial of the `f64`
/// kernel.
#[inline(always)]
fn reduce(x: f64) -> (i64, f64) {
    let (k, kd) = round_shifted(x * INV_LN2_N);
    let r = x - kd * LN2_N_HI - kd * LN2_N_LO;
    let r2 = r * r;
    let p = r + r2 * (0.5 + r * (1.0 / 6.0)) + r2 * r2 * (1.0 / 24.0 + r * (1.0 / 120.0));
    (k, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded, dependency-free stream of mantissa bits.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    const DRAWS_PER_BINADE: usize = 1_000_000;

    /// `e^x` of `f32` through the generic path the operators call.
    fn exp_f32(x: f32) -> f32 {
        crate::stable_exps(x, 0.0, x, 1.0).0
    }

    /// Asserts the kernel and libm are at most 1 ulp apart at `x`.
    fn within_one_ulp(x: f64) {
        let (got, want) = (exp_nonpos(x), x.exp());
        assert!(
            got.to_bits().abs_diff(want.to_bits()) <= 1,
            "x = {x:e}: {got:e} vs libm {want:e}"
        );
    }

    fn within_one_ulp_f32(x: f32) {
        let (got, want) = (exp_f32(x), x.exp());
        assert!(
            got.to_bits().abs_diff(want.to_bits()) <= 1,
            "x = {x:e}: {got:e} vs libm {want:e}"
        );
    }

    #[test]
    fn f64_is_within_one_ulp_of_libm_on_every_binade() {
        let mut bits = Bits(28);
        // |x| in [2^b, 2^(b+1)), b = -30..=9, clipped to (−745, 0].
        for b in -30i64..=9 {
            let mut drawn = 0;
            while drawn < DRAWS_PER_BINADE {
                let x = -f64::from_bits((((1023 + b) as u64) << 52) | (bits.next() >> 12));
                if x > -745.0 {
                    within_one_ulp(x);
                    drawn += 1;
                }
            }
        }
    }

    #[test]
    fn f32_through_the_generic_path_is_within_one_ulp_of_libm() {
        let mut bits = Bits(32);
        // |x| in [2^b, 2^(b+1)), b = -30..=6, clipped to (−104, 0].
        for b in -30i32..=6 {
            let mut drawn = 0;
            while drawn < DRAWS_PER_BINADE {
                let m = (bits.next() >> 41) as u32;
                let x = -f32::from_bits((((127 + b) as u32) << 23) | m);
                if x > -104.0 {
                    within_one_ulp_f32(x);
                    drawn += 1;
                }
            }
        }
    }

    /// [`exp_nonpos`] as it was before it lost its branch: the subnormal
    /// and zero results on a cold path. The bitwise reference for the
    /// branch-free kernel.
    fn exp_nonpos_branchy(x: f64) -> f64 {
        if x < NORMAL_EDGE {
            if x < ZERO_EDGE {
                return 0.0;
            }
            let (k, p) = reduce(x);
            let s = scale_signed(k + 1022 * 128);
            return (s + s * p) * f64::from_bits(1 << 52);
        }
        let (k, p) = reduce(x);
        let s = scale_signed(k);
        s + s * p
    }

    /// [`scale`] with the arithmetic shift it had beside the branch.
    fn scale_signed(k: i64) -> f64 {
        f64::from_bits(TABLE[(k & 127) as usize].wrapping_add(((k >> 7) as u64) << 52))
    }

    /// `xs` through the vectorized sweep of the merged WA kernel.
    fn sweep<T: dp_num::Float>(xs: &[T]) -> Vec<T> {
        let mut out = xs.to_vec();
        crate::exp_nonpos_in_place(&mut out);
        out
    }

    fn assert_same_bits<T: dp_num::Float>(xs: &[T], got: &[T], want: &[T], what: &str) {
        for ((x, g), w) in xs.iter().zip(got).zip(want) {
            let (g, w) = (g.to_f64(), w.to_f64());
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: x = {:e}: {g:e} vs {w:e}",
                x.to_f64()
            );
        }
    }

    #[test]
    fn branch_free_kernel_is_bitwise_the_branchy_one() {
        let mut bits = Bits(30);
        // Uniform over (−800, 0]: about 11% of the draws land below the
        // normal edge, 7% below the zero edge.
        let mut xs: Vec<f64> = (0..1_200_000)
            .map(|_| -800.0 * ((bits.next() >> 11) as f64 / (1u64 << 53) as f64))
            .collect();
        // Both edges, ulp by ulp on either side.
        for edge in [
            NORMAL_EDGE,
            ZERO_EDGE,
            -708.396_418_532_264_1,
            -745.133_219_101_941_2,
        ] {
            xs.extend((0..128).map(|i| f64::from_bits(edge.to_bits() - 64 + i)));
        }
        xs.extend([0.0, -0.0, f64::NEG_INFINITY, f64::MIN, f64::NAN, -f64::NAN]);
        let want: Vec<f64> = xs.iter().map(|&x| exp_nonpos_branchy(x)).collect();
        let one_call: Vec<f64> = xs.iter().map(|&x| exp_nonpos(x)).collect();
        assert_same_bits(&xs, &one_call, &want, "one call");
        assert_same_bits(&xs, &sweep(&xs), &want, "sweep");
        assert!(exp_nonpos(f64::NAN).is_nan());
        assert_eq!(exp_nonpos(-0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp_nonpos(f64::NEG_INFINITY).to_bits(), 0);
    }

    #[test]
    fn single_sweeps_are_bitwise_one_calls() {
        let mut bits = Bits(31);
        let mut xs: Vec<f32> = (0..1_000_000)
            .map(|_| -110.0 * ((bits.next() >> 40) as f32 / (1u32 << 24) as f32))
            .collect();
        xs.extend([0.0, -0.0, f32::NEG_INFINITY, f32::MIN, f32::NAN, -104.0]);
        let want: Vec<f32> = xs.iter().map(|&x| exp_f32(x)).collect();
        assert_same_bits(&xs, &sweep(&xs), &want, "sweep");
    }

    #[test]
    fn subnormal_results_stay_within_one_ulp() {
        let mut bits = Bits(1022);
        for _ in 0..200_000 {
            let u = (bits.next() >> 11) as f64 / (1u64 << 53) as f64;
            within_one_ulp(-708.0 - 37.2 * u); // (−745.2, −708]
        }
    }

    #[test]
    fn edges() {
        assert_eq!(exp_nonpos(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp_nonpos(-0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp_f32(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_f32(-0.0).to_bits(), 1.0f32.to_bits());
        assert!(exp_nonpos(f64::NAN).is_nan());
        assert!(exp_nonpos(-f64::NAN).is_nan());
        assert!(exp_f32(f32::NAN).is_nan());
        for x in [f64::NEG_INFINITY, f64::MIN, -1e6, -745.15, ZERO_EDGE] {
            assert_eq!(exp_nonpos(x).to_bits(), 0, "x = {x}");
        }
        for x in [f32::NEG_INFINITY, f32::MIN, -1e6, -104.0, -103.98] {
            assert_eq!(exp_f32(x).to_bits(), 0, "x = {x}");
        }
        // f32: both sides of the normal edge (ln 2^-126) and of the last
        // subnormal (ln 2^-149) agree with libm.
        for x in [-87.336_55, -87.336_54, -87.34, -103.27, -103.28, -103.97] {
            within_one_ulp_f32(x);
        }
        assert_eq!(exp_f32(-103.27).to_bits(), 1);
        // f64: both sides of both underflow edges agree with libm.
        let normal_edge = -708.396_418_532_264_1;
        let zero_edge = -745.133_219_101_941_2;
        for x in [
            NORMAL_EDGE,
            normal_edge,
            f64::from_bits(normal_edge.to_bits() + 1),
            f64::from_bits(normal_edge.to_bits() - 1),
            zero_edge,
            f64::from_bits(zero_edge.to_bits() + 1),
            f64::from_bits(zero_edge.to_bits() - 1),
            -745.13,
            -744.44,
        ] {
            within_one_ulp(x);
        }
        // The smallest subnormal is reached, not flushed.
        assert_eq!(exp_nonpos(-745.13).to_bits(), 1);
        assert!(exp_nonpos(normal_edge) < f64::MIN_POSITIVE * 1.000_001);
    }

    #[test]
    fn table_entries_are_within_one_ulp_of_exp2() {
        for (j, &t) in TABLE.iter().enumerate() {
            let want = (j as f64 / 128.0).exp2();
            assert!(t.abs_diff(want.to_bits()) <= 1, "j = {j}");
        }
    }

    /// Pins the kernels' output bits: a toolchain or refactor that moves
    /// them would move every placement, and must show up here first.
    #[test]
    fn pinned_bits() {
        let got: Vec<u64> = (0..64)
            .map(|i| {
                let t = (i as f64 + 0.5) / 64.0;
                exp_nonpos(-745.0 * t * t * t).to_bits()
            })
            .collect();
        assert_eq!(got, PINNED);
        let got: Vec<u32> = (0..64)
            .map(|i| {
                let t = (i as f32 + 0.5) / 64.0;
                exp_f32(-103.0 * t * t * t).to_bits()
            })
            .collect();
        assert_eq!(got, PINNED_F32);
    }

    #[rustfmt::skip]
    const PINNED_F32: [u32; 64] = [
        0x3f7ffcc8, 0x3f7fa927, 0x3f7e6ee4, 0x3f7bb937, 0x3f76ff0b, 0x3f6fccdf, 0x3f65d093, 0x3f58e551,
        0x3f491d90, 0x3f36c89a, 0x3f22718d, 0x3f0cd653, 0x3eedad72, 0x3ec2baa5, 0x3e9a8b38, 0x3e6d0f27,
        0x3e2f4ac8, 0x3df958e5, 0x3daa2d2e, 0x3d5e5fab, 0x3d0ac339, 0x3ca501d1, 0x3c3a848d, 0x3bc7f0d8,
        0x3b4ac758, 0x3ac21d70, 0x3a2efad3, 0x39942daf, 0x38eb35ca, 0x382e8ca3, 0x3771a930, 0x369bae91,
        0x35ba3ab4, 0x34ce5719, 0x33d342ee, 0x32c7678b, 0x31ad1a22, 0x3089e134, 0x2f491047, 0x2e05e194,
        0x2ca270a3, 0x2b3324cc, 0x29b326be, 0x28221428, 0x26845745, 0x24c29842, 0x230083ef, 0x21181fd4,
        0x1f20fe79, 0x1d17f8ed, 0x1aff4fd2, 0x18be638c, 0x167b7c7c, 0x1412c25b, 0x1196fdd4, 0x0f089d55,
        0x0c58e599, 0x0996b477, 0x06b6e0e0, 0x03c1550f, 0x00b1a24a, 0x00023611, 0x00000618, 0x0000000f,
    ];

    #[rustfmt::skip]
    const PINNED: [u64; 64] = [
        0x3feffd1721df3d22, 0x3fefb1cd28dd19a4, 0x3fee9c305c8022b6, 0x3fec543bc4218157,
        0x3fe8b2f27997b253, 0x3fe3f18d8283a332, 0x3fdd52fdffdc344f, 0x3fd34bf68003f4af,
        0x3fc658fb055292f9, 0x3fb66388aceab250, 0x3fa3135e148b51bd, 0x3f8b2d4c6efb2b40,
        0x3f6fd306b026add5, 0x3f4e1cd881056599, 0x3f26a25dad742084, 0x3efa929334ce415c,
        0x3ec7f359cf29ff78, 0x3e904b1581edb754, 0x3e5072e98a3860ea, 0x3e083a029ae59e8b,
        0x3db9969e6af0a11d, 0x3d630dc22f403ceb, 0x3d03aaab3fff2744, 0x3c9ba98e81f663b7,
        0x3c2a1008de3094e3, 0x3bb02b8f3deec809, 0x3b29fac0a8c91611, 0x3a9a9087e7cdacdc,
        0x3a00fec199aa5144, 0x395ac06e87489929, 0x38a976a1f3a6079f, 0x37ecd118797f30d8,
        0x37230f214cac3c56, 0x364cf835a5eddfda, 0x3568df0ea6850641, 0x3477b6ada0b7e045,
        0x3378af57c552d66c, 0x326b94881e578546, 0x315041f6902f5b7c, 0x3023e1e565ed869f,
        0x2ee8cbf522a9787e, 0x2d9f0136adaf4f13, 0x2c431ac073b0e584, 0x2ad6cffa5b2ae358,
        0x2959f29e96f88f85, 0x27cba375b3a7f60a, 0x262b1a46dc3df26b, 0x24780dc9ea48b385,
        0x22b2fe9a084f881d, 0x20da3d80dfd34722, 0x1eef2c12fe06a2c3, 0x1cef4e33f662aec2,
        0x1ada2105ca82d2bc, 0x18b1d18213d88aa5, 0x16738525f6330cf1, 0x1420e2d5867a3503,
        0x11b6adeeb59ec04a, 0x0f373f18cd5f180f, 0x0ca1e08cdbb591a1, 0x09f447d388c498ed,
        0x0730aec802b2705f, 0x045390b1146a204e, 0x016014922e411660, 0x0000000001235ee4,
    ];
}
