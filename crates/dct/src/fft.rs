//! Iterative radix-2 complex FFT with precomputed twiddle factors.

use dp_num::{Complex, Float};

use crate::{check_pow2, TransformError};

/// A reusable FFT plan for a fixed power-of-two length.
///
/// The plan precomputes the bit-reversal permutation and the twiddle factors
/// `e^{-2 pi i k / n}` for `k < n/2`, which are shared by the forward and
/// inverse transforms. The density operator runs several transforms of the
/// same size every placement iteration, so plan reuse matters.
///
/// # Examples
///
/// ```
/// use dp_num::Complex;
/// use dp_dct::FftPlan;
///
/// # fn main() -> Result<(), dp_dct::TransformError> {
/// let plan: FftPlan<f64> = FftPlan::new(4)?;
/// let mut data = vec![
///     Complex::new(1.0, 0.0),
///     Complex::new(0.0, 0.0),
///     Complex::new(0.0, 0.0),
///     Complex::new(0.0, 0.0),
/// ];
/// plan.forward(&mut data);
/// // The DFT of a unit impulse is flat.
/// assert!(data.iter().all(|z| (z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan<T> {
    n: usize,
    bit_rev: Vec<u32>,
    /// Twiddles `e^{-2 pi i k / n}` for `k = 0..n/2`.
    twiddles: Vec<Complex<T>>,
}

impl<T: Float> FftPlan<T> {
    /// Creates a plan for length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::NonPowerOfTwo`] unless `n` is a power of two
    /// and at least 2.
    pub fn new(n: usize) -> Result<Self, TransformError> {
        check_pow2(n)?;
        let bits = n.trailing_zeros();
        let bit_rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        let twiddles = (0..n / 2)
            .map(|k| {
                Complex::cis(T::from_f64(
                    -2.0 * std::f64::consts::PI * k as f64 / n as f64,
                ))
            })
            .collect();
        Ok(Self {
            n,
            bit_rev,
            twiddles,
        })
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place unnormalized forward DFT:
    /// `X[k] = sum_n x[n] e^{-2 pi i n k / N}`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward(&self, data: &mut [Complex<T>]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan length");
        self.permute(data);
        self.butterflies(data, false);
    }

    /// In-place normalized inverse DFT:
    /// `x[n] = (1/N) sum_k X[k] e^{+2 pi i n k / N}`.
    ///
    /// `inverse(forward(x)) == x` up to rounding.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse(&self, data: &mut [Complex<T>]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan length");
        self.permute(data);
        self.butterflies(data, true);
        let scale = T::ONE / T::from_usize(self.n);
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }

    /// In-place unnormalized inverse DFT (no `1/N` factor). Useful when the
    /// caller folds normalization into surrounding kernels.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse_unnormalized(&self, data: &mut [Complex<T>]) {
        assert_eq!(data.len(), self.n, "buffer length must match plan length");
        self.permute(data);
        self.butterflies(data, true);
    }

    fn permute(&self, data: &mut [Complex<T>]) {
        for i in 0..self.n {
            let j = self.bit_rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn butterflies(&self, data: &mut [Complex<T>], invert: bool) {
        let n = self.n;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let tw = self.twiddles[k * stride];
                    let tw = if invert { tw.conj() } else { tw };
                    let a = data[start + k];
                    let b = data[start + k + half] * tw;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }

    // --- Lane-batched kernels ------------------------------------------
    //
    // `lanes` independent signals interleaved in one buffer: element `i`
    // of lane `l` lives at `data[i * stride + l]` with `lanes <= stride`.
    // With `stride == lanes` this is a packed column-major batch; with
    // `stride > lanes` it is an in-place window over `lanes` adjacent
    // columns of a wider row-major matrix (how the direct 2-D plan runs
    // its column FFTs without any transpose).
    //
    // Every lane executes exactly the operation sequence of the scalar
    // [`FftPlan::forward`]/[`FftPlan::inverse`] path, so per-lane results
    // are bitwise identical to the unbatched transforms. The win is
    // memory shape: each butterfly loads its twiddle once and streams two
    // contiguous `lanes`-wide runs the autovectorizer can lift to SIMD.
    //
    // They are `#[inline]` so every caller's codegen unit holds its own
    // copy: otherwise their machine code depends on which unit rustc's
    // partitioning puts them in, and a change elsewhere in the workspace
    // (in detailed placement) once moved them away from the 2-D plan and
    // slowed the 256x256 solve by about 8%.

    /// Asserts the lane-window layout invariants. `lanes <= stride` is the
    /// scratch-aliasing guard: it guarantees the two rows of every
    /// butterfly occupy disjoint index ranges, so a sweep never reads a
    /// lane it wrote in the same sweep.
    fn check_lanes(&self, data: &[Complex<T>], stride: usize, lanes: usize) {
        assert!(lanes >= 1, "lane batch must be non-empty");
        assert!(
            lanes <= stride,
            "lane window ({lanes}) must fit within the row stride ({stride}) \
             so same-sweep rows never alias"
        );
        assert!(
            data.len() >= (self.n - 1) * stride + lanes,
            "lane buffer too short: need {} elements, got {}",
            (self.n - 1) * stride + lanes,
            data.len()
        );
    }

    /// Bit-reversal permutation applied to whole lane runs.
    #[inline]
    pub fn permute_lanes(&self, data: &mut [Complex<T>], stride: usize, lanes: usize) {
        self.check_lanes(data, stride, lanes);
        for i in 0..self.n {
            let j = self.bit_rev[i] as usize;
            if i < j {
                for l in 0..lanes {
                    data.swap(i * stride + l, j * stride + l);
                }
            }
        }
    }

    /// The butterfly passes over `lanes` interleaved signals: one twiddle
    /// load per butterfly shared across the whole lane run.
    #[inline]
    pub fn butterflies_lanes(
        &self,
        data: &mut [Complex<T>],
        stride: usize,
        lanes: usize,
        invert: bool,
    ) {
        self.check_lanes(data, stride, lanes);
        let n = self.n;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let tw_stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let tw = self.twiddles[k * tw_stride];
                    let tw = if invert { tw.conj() } else { tw };
                    let p = (start + k) * stride;
                    let q = (start + k + half) * stride;
                    // `lanes <= stride` makes p + lanes <= q, so the two
                    // runs are provably disjoint and the split suffices.
                    let (head, tail) = data.split_at_mut(q);
                    let pa = &mut head[p..p + lanes];
                    let qa = &mut tail[..lanes];
                    butterfly_run(pa, qa, tw);
                }
            }
            len <<= 1;
        }
    }

    /// Elementwise `1/N` normalization over every lane (the inverse
    /// transform's scaling step, applied exactly as the scalar path does).
    #[inline]
    pub fn scale_lanes(&self, data: &mut [Complex<T>], stride: usize, lanes: usize) {
        self.check_lanes(data, stride, lanes);
        let scale = T::ONE / T::from_usize(self.n);
        for i in 0..self.n {
            for z in &mut data[i * stride..i * stride + lanes] {
                *z = z.scale(scale);
            }
        }
    }

    /// Lane-batched [`FftPlan::forward`]: unnormalized forward DFT of
    /// `lanes` interleaved signals. Bitwise identical per lane to the
    /// scalar transform.
    #[inline]
    pub fn forward_lanes(&self, data: &mut [Complex<T>], stride: usize, lanes: usize) {
        self.permute_lanes(data, stride, lanes);
        self.butterflies_lanes(data, stride, lanes, false);
    }

    /// Lane-batched [`FftPlan::inverse`] (normalized). Bitwise identical
    /// per lane to the scalar transform.
    #[inline]
    pub fn inverse_lanes(&self, data: &mut [Complex<T>], stride: usize, lanes: usize) {
        self.permute_lanes(data, stride, lanes);
        self.butterflies_lanes(data, stride, lanes, true);
        self.scale_lanes(data, stride, lanes);
    }
}

/// One butterfly over a contiguous lane run.
///
/// The lanes are independent dependency chains — no cross-lane reads — so
/// every lane computes exactly what the scalar [`FftPlan::forward`] does.
/// A plain loop is deliberate: hand-unrolling it four wide made the f64
/// sweeps ~7% faster but the f32 ones ~50% slower (256x256, this host), so
/// the autovectorizer is left to pick the width per element type.
#[inline]
fn butterfly_run<T: Float>(pa: &mut [Complex<T>], qa: &mut [Complex<T>], tw: Complex<T>) {
    for (a, b) in pa.iter_mut().zip(qa.iter_mut()) {
        let x = *a;
        let y = *b * tw;
        *a = x + y;
        *b = x - y;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<Complex<f64>> {
        (0..n)
            .map(|i| Complex::new(i as f64 + 0.5, (i as f64 * 0.3).sin()))
            .collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(
            FftPlan::<f64>::new(3).unwrap_err(),
            TransformError::NonPowerOfTwo { n: 3 }
        );
        assert_eq!(
            FftPlan::<f64>::new(0).unwrap_err(),
            TransformError::NonPowerOfTwo { n: 0 }
        );
        assert_eq!(
            FftPlan::<f64>::new(1).unwrap_err(),
            TransformError::NonPowerOfTwo { n: 1 }
        );
    }

    #[test]
    fn inverse_round_trips() {
        for n in [2usize, 8, 32, 128] {
            let x = ramp(n);
            let mut y = x.clone();
            let plan = FftPlan::new(n).expect("power of two");
            plan.forward(&mut y);
            plan.inverse(&mut y);
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-10 * n as f64);
            }
        }
    }

    #[test]
    fn linearity_under_f32() {
        let n = 16;
        let plan = FftPlan::<f32>::new(n).expect("power of two");
        let a: Vec<Complex<f32>> = (0..n).map(|i| Complex::new(i as f32, 0.0)).collect();
        let b: Vec<Complex<f32>> = (0..n)
            .map(|i| Complex::new(0.0, (i as f32).cos()))
            .collect();
        let sum: Vec<Complex<f32>> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();

        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        plan.forward(&mut fs);
        for i in 0..n {
            assert!((fs[i] - (fa[i] + fb[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 64;
        let x = ramp(n);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x;
        let plan = FftPlan::new(n).expect("power of two");
        plan.forward(&mut y);
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn forward_rejects_wrong_length() {
        let plan = FftPlan::<f64>::new(8).expect("power of two");
        let mut data = vec![Complex::zero(); 4];
        plan.forward(&mut data);
    }

    /// Packs `lanes` copies of per-lane signals into the interleaved
    /// layout: element `i` of lane `l` at `i * lanes + l`.
    fn interleave(signals: &[Vec<Complex<f64>>]) -> Vec<Complex<f64>> {
        let lanes = signals.len();
        let n = signals[0].len();
        let mut out = vec![Complex::zero(); n * lanes];
        for (l, s) in signals.iter().enumerate() {
            for (i, &z) in s.iter().enumerate() {
                out[i * lanes + l] = z;
            }
        }
        out
    }

    #[test]
    fn lane_batched_forward_is_bitwise_equal_to_scalar() {
        for lanes in [1usize, 2, 3, 4, 5, 8] {
            let n = 16;
            let plan = FftPlan::<f64>::new(n).expect("power of two");
            let signals: Vec<Vec<Complex<f64>>> = (0..lanes)
                .map(|l| {
                    (0..n)
                        .map(|i| {
                            Complex::new(
                                ((i * 7 + l * 13) as f64 * 0.31).sin(),
                                ((i + l) as f64 * 0.17).cos(),
                            )
                        })
                        .collect()
                })
                .collect();
            let mut batched = interleave(&signals);
            plan.forward_lanes(&mut batched, lanes, lanes);
            for (l, s) in signals.iter().enumerate() {
                let mut want = s.clone();
                plan.forward(&mut want);
                for i in 0..n {
                    let got = batched[i * lanes + l];
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (want[i].re.to_bits(), want[i].im.to_bits()),
                        "lanes={lanes} lane={l} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_batched_inverse_is_bitwise_equal_to_scalar() {
        let n = 32;
        let lanes = 6;
        let plan = FftPlan::<f64>::new(n).expect("power of two");
        let signals: Vec<Vec<Complex<f64>>> =
            (0..lanes).map(|l| ramp(n).into_iter().map(|z| z.scale(l as f64 + 0.5)).collect()).collect();
        let mut batched = interleave(&signals);
        plan.inverse_lanes(&mut batched, lanes, lanes);
        for (l, s) in signals.iter().enumerate() {
            let mut want = s.clone();
            plan.inverse(&mut want);
            for i in 0..n {
                let got = batched[i * lanes + l];
                assert_eq!(got.re.to_bits(), want[i].re.to_bits(), "lane={l} i={i}");
                assert_eq!(got.im.to_bits(), want[i].im.to_bits(), "lane={l} i={i}");
            }
        }
    }

    #[test]
    fn strided_lane_window_transforms_adjacent_columns_in_place() {
        // A 8-row x 6-column matrix; transform columns 2..5 in place via a
        // strided lane window and compare against per-column scalar FFTs.
        let (n, cols) = (8usize, 6usize);
        let plan = FftPlan::<f64>::new(n).expect("power of two");
        let mat: Vec<Complex<f64>> = (0..n * cols)
            .map(|i| Complex::new((i as f64 * 0.21).sin(), (i as f64 * 0.4).cos()))
            .collect();
        let mut got = mat.clone();
        let (c0, lanes) = (2usize, 3usize);
        plan.forward_lanes(&mut got[c0..], cols, lanes);
        for c in 0..cols {
            let mut col: Vec<Complex<f64>> = (0..n).map(|r| mat[r * cols + c]).collect();
            let inside = (c0..c0 + lanes).contains(&c);
            if inside {
                plan.forward(&mut col);
            }
            for r in 0..n {
                let want = col[r];
                let g = got[r * cols + c];
                assert_eq!(g.re.to_bits(), want.re.to_bits(), "col {c} row {r}");
                assert_eq!(g.im.to_bits(), want.im.to_bits(), "col {c} row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "never alias")]
    fn lane_window_wider_than_stride_is_rejected() {
        // The scratch-aliasing guard: lanes > stride would make a butterfly
        // read lanes written in the same sweep.
        let plan = FftPlan::<f64>::new(4).expect("power of two");
        let mut data = vec![Complex::zero(); 16];
        plan.forward_lanes(&mut data, 2, 3);
    }
}
