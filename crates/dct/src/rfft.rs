//! One-sided real FFT built on a half-length complex FFT.
//!
//! The paper's Algorithm 3 stresses that "due to the symmetric property of
//! FFT for real input sequences, we utilize one-sided real FFT/IFFT to save
//! almost half of the sequence". This module implements exactly that: an
//! `N`-point real transform computed with an `N/2`-point complex FFT plus a
//! linear-time untangling pass.

use dp_num::{Complex, Float};

use crate::fft::FftPlan;
use crate::{check_pow2, TransformError};

/// A reusable real-FFT plan for a fixed power-of-two length `n >= 4`.
///
/// [`RfftPlan::forward`] maps `n` reals to the `n/2 + 1` non-redundant
/// spectrum bins of the unnormalized DFT; [`RfftPlan::inverse`] maps back
/// (including the `1/n` normalization), so the pair round-trips.
///
/// # Examples
///
/// ```
/// use dp_dct::RfftPlan;
///
/// # fn main() -> Result<(), dp_dct::TransformError> {
/// let plan: RfftPlan<f64> = RfftPlan::new(8)?;
/// let x: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
/// let spec = plan.forward(&x);
/// assert_eq!(spec.len(), 5);
/// let back = plan.inverse(&spec);
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RfftPlan<T> {
    n: usize,
    half: FftPlan<T>,
    /// `e^{-pi i k / (n/2) / ... }` untangling phases `e^{-2 pi i k / n}`.
    phases: Vec<Complex<T>>,
}

impl<T: Float> RfftPlan<T> {
    /// Creates a plan for real transforms of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::NonPowerOfTwo`] unless `n` is a power of
    /// two, and [`TransformError::TooShort`] for `n == 2` (the packing trick
    /// needs `n/2 >= 2`).
    pub fn new(n: usize) -> Result<Self, TransformError> {
        check_pow2(n)?;
        if n < 4 {
            return Err(TransformError::TooShort { n, min: 4 });
        }
        let half = FftPlan::new(n / 2)?;
        let phases = (0..n / 2 + 1)
            .map(|k| {
                Complex::cis(T::from_f64(
                    -2.0 * std::f64::consts::PI * k as f64 / n as f64,
                ))
            })
            .collect();
        Ok(Self { n, half, phases })
    }

    /// The real transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The half-length complex plan backing this real transform (shared
    /// with the direct 2-D plan so one twiddle table serves every row of a
    /// lane sweep).
    pub(crate) fn half_plan(&self) -> &FftPlan<T> {
        &self.half
    }

    /// The untangling phases `e^{-2 pi i k / n}` for `k = 0..=n/2`.
    pub(crate) fn untangle_phases(&self) -> &[Complex<T>] {
        &self.phases
    }

    /// Forward one-sided real DFT (unnormalized): returns `n/2 + 1` bins
    /// `X[k] = sum_n x[n] e^{-2 pi i n k / N}` for `k = 0..=n/2`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    pub fn forward(&self, x: &[T]) -> Vec<Complex<T>> {
        let m = self.n / 2;
        let mut scratch = vec![Complex::zero(); m];
        let mut out = vec![Complex::zero(); m + 1];
        self.forward_into(x, &mut out, &mut scratch);
        out
    }

    /// Allocation-free [`RfftPlan::forward`]: packs pairs into `scratch`
    /// (length `n/2`), runs the half-length FFT there, and untangles into
    /// `out` (length `n/2 + 1`). Bitwise identical to the allocating path.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn forward_into(&self, x: &[T], out: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        assert_eq!(x.len(), self.n, "buffer length must match plan length");
        let m = self.n / 2;
        assert_eq!(out.len(), m + 1, "spectrum length must be n/2 + 1");
        assert_eq!(scratch.len(), m, "scratch length must be n/2");
        // Pack adjacent pairs into complex numbers: z[k] = x[2k] + i x[2k+1].
        for (k, z) in scratch.iter_mut().enumerate() {
            *z = Complex::new(x[2 * k], x[2 * k + 1]);
        }
        self.half.forward(scratch);
        // Untangle: with E/O the DFTs of even/odd subsequences,
        //   Z[k] = E[k] + i O[k],  conj(Z[m-k]) = E[k] - i O[k]
        // and X[k] = E[k] + e^{-2 pi i k / N} O[k].
        for (k, o_slot) in out.iter_mut().enumerate() {
            let zk = if k == m { scratch[0] } else { scratch[k] };
            let zmk = scratch[(m - k) % m];
            let e = (zk + zmk.conj()).scale(T::HALF);
            let o = (zk - zmk.conj()).scale(T::HALF).mul_i().scale(-T::ONE); // -i*(..)/1 => O[k]
            *o_slot = e + self.phases[k] * o;
        }
    }

    /// Inverse one-sided real DFT with `1/n` normalization: consumes the
    /// `n/2 + 1` non-redundant bins and returns `n` reals, such that
    /// `inverse(forward(x)) == x`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != n/2 + 1`.
    pub fn inverse(&self, spec: &[Complex<T>]) -> Vec<T> {
        let m = self.n / 2;
        let mut scratch = vec![Complex::zero(); m];
        let mut out = vec![T::ZERO; self.n];
        self.inverse_into(spec, &mut out, &mut scratch);
        out
    }

    /// Allocation-free [`RfftPlan::inverse`]: repacks into `scratch`
    /// (length `n/2`), runs the half-length inverse FFT there, and
    /// interleaves into `out` (length `n`). Bitwise identical to the
    /// allocating path.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn inverse_into(&self, spec: &[Complex<T>], out: &mut [T], scratch: &mut [Complex<T>]) {
        assert_eq!(
            spec.len(),
            self.n / 2 + 1,
            "spectrum length must be n/2 + 1"
        );
        let m = self.n / 2;
        assert_eq!(out.len(), self.n, "buffer length must match plan length");
        assert_eq!(scratch.len(), m, "scratch length must be n/2");
        // Repack: E[k] = (X[k] + conj(X[m-k]))/2,
        //         O[k] = (X[k] - conj(X[m-k]))/2 * e^{+2 pi i k / N},
        //         Z[k] = E[k] + i O[k].
        for (k, z) in scratch.iter_mut().enumerate() {
            let xk = spec[k];
            let xmk = spec[m - k].conj();
            let e = (xk + xmk).scale(T::HALF);
            let o = (xk - xmk).scale(T::HALF) * self.phases[k].conj();
            *z = e + o.mul_i();
        }
        self.half.inverse(scratch);
        for (k, z) in scratch.iter().enumerate() {
            out[2 * k] = z.re;
            out[2 * k + 1] = z.im;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.1 * i as f64)
            .collect()
    }

    #[test]
    fn round_trips() {
        for n in [4usize, 32, 128] {
            let x = signal(n);
            let plan = RfftPlan::new(n).expect("power of two");
            let back = plan.inverse(&plan.forward(&x));
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-10 * n as f64);
            }
        }
    }

    #[test]
    fn dc_and_nyquist_bins_are_real() {
        let n = 16;
        let x = signal(n);
        let plan = RfftPlan::new(n).expect("power of two");
        let spec = plan.forward(&x);
        assert!(spec[0].im.abs() < 1e-12);
        assert!(spec[n / 2].im.abs() < 1e-12);
    }

    #[test]
    fn rejects_too_short_lengths() {
        assert_eq!(
            RfftPlan::<f64>::new(2).unwrap_err(),
            TransformError::TooShort { n: 2, min: 4 }
        );
        assert_eq!(
            RfftPlan::<f64>::new(6).unwrap_err(),
            TransformError::NonPowerOfTwo { n: 6 }
        );
    }

    #[test]
    fn works_in_f32() {
        let n = 32;
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.2).cos()).collect();
        let plan = RfftPlan::<f32>::new(n).expect("power of two");
        let back = plan.inverse(&plan.forward(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
