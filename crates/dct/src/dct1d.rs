//! 1-D DCT/IDCT/IDXST in the paper's two 1-D implementation tiers.
//!
//! # Normalization convention
//!
//! Throughout the workspace, `dct` returns `(2/N)` times the paper's
//! Eq. (7a) and `idct` evaluates Eq. (7b) verbatim, which makes the pair
//! mutually inverse (`idct(dct(x)) == x`); this matches the output of the
//! paper's Algorithm 3. `idxst` evaluates Eq. (8a) and is computed from
//! `idct` via the reversal identity Eq. (8e).
//!
//! # Tiers
//!
//! * [`Dct2nPlan`] — "DCT-2N": mirror-extend to length `2N` and run one
//!   (real) FFT of length `2N`. This is the baseline the paper attributes to
//!   TensorFlow and beats in Fig. 11.
//! * [`DctNPlan`] — "DCT-N": Makhoul's algorithm, one `N`-point one-sided
//!   real FFT plus linear-time reorder/phase kernels (paper Algorithm 3).

use dp_num::{Complex, Float};

use crate::fft::FftPlan;
use crate::rfft::RfftPlan;
use crate::TransformError;

/// The 2N-point tier: DCT/IDCT via a length-`2N` transform.
///
/// # Examples
///
/// ```
/// use dp_dct::dct1d::Dct2nPlan;
///
/// # fn main() -> Result<(), dp_dct::TransformError> {
/// let plan: Dct2nPlan<f64> = Dct2nPlan::new(8)?;
/// let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
/// let back = plan.idct(&plan.dct(&x));
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-10);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dct2nPlan<T> {
    n: usize,
    rfft2n: RfftPlan<T>,
    fft2n: FftPlan<T>,
    /// `e^{-i pi k / (2N)}` for `k = 0..=N`.
    phases: Vec<Complex<T>>,
}

impl<T: Float> Dct2nPlan<T> {
    /// Creates a plan for length `n` (power of two, `>= 2`).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::NonPowerOfTwo`] for unsupported lengths.
    pub fn new(n: usize) -> Result<Self, TransformError> {
        crate::check_pow2(n)?;
        let rfft2n = RfftPlan::new(2 * n)?;
        let fft2n = FftPlan::new(2 * n)?;
        let phases = (0..=n)
            .map(|k| {
                Complex::cis(T::from_f64(
                    -std::f64::consts::PI * k as f64 / (2.0 * n as f64),
                ))
            })
            .collect();
        Ok(Self {
            n,
            rfft2n,
            fft2n,
            phases,
        })
    }

    /// The logical transform length `N`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DCT (library normalization; see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    pub fn dct(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n, "buffer length must match plan length");
        let n = self.n;
        // Mirror extension: [x0..x_{N-1}, x_{N-1}..x0].
        let mut ext = Vec::with_capacity(2 * n);
        ext.extend_from_slice(x);
        ext.extend(x.iter().rev().copied());
        let spec = self.rfft2n.forward(&ext);
        // DCT_unnorm(k) = Re(e^{-i pi k / 2N} X2[k]) / 2; scale by 2/N.
        let scale = T::ONE / T::from_usize(n);
        (0..n)
            .map(|k| (self.phases[k] * spec[k]).re * scale)
            .collect()
    }

    /// Inverse DCT (exact inverse of [`Dct2nPlan::dct`]).
    ///
    /// Computed with a zero-padded complex inverse FFT of length `2N`, the
    /// direct 2N-point analogue of Eq. (7b).
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the plan length.
    pub fn idct(&self, c: &[T]) -> Vec<T> {
        assert_eq!(c.len(), self.n, "buffer length must match plan length");
        let n = self.n;
        // y[k] = Re( sum_{m=0}^{N-1} c'[m] e^{i pi m / 2N} e^{2 pi i m k / 2N} )
        // with c'[0] = c[0]/2; evaluate with one unnormalized inverse FFT.
        let mut buf = vec![Complex::zero(); 2 * n];
        buf[0] = Complex::from(c[0] * T::HALF);
        for m in 1..n {
            buf[m] = self.phases[m].conj().scale(c[m]);
        }
        self.fft2n.inverse_unnormalized(&mut buf);
        buf[..n].iter().map(|z| z.re).collect()
    }

    /// IDXST via the reversal identity Eq. (8e):
    /// `IDXST(x)_k = (-1)^k IDCT({x_{N-n}})_k` with `x_N = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    pub fn idxst(&self, x: &[T]) -> Vec<T> {
        idxst_via_idct(x, |rev| self.idct(rev))
    }
}

/// The N-point tier (paper Algorithm 3): DCT/IDCT with one `N`-point
/// one-sided real FFT plus linear pre/post processing.
///
/// # Examples
///
/// ```
/// use dp_dct::dct1d::DctNPlan;
///
/// # fn main() -> Result<(), dp_dct::TransformError> {
/// let plan: DctNPlan<f64> = DctNPlan::new(16)?;
/// let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).cos()).collect();
/// let back = plan.idct(&plan.dct(&x));
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-10);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DctNPlan<T> {
    n: usize,
    rfft: RfftPlan<T>,
    /// `e^{-i pi k / (2N)}` for `k = 0..=N/2` and the mirrored tail handled
    /// via conjugation; stored for `k = 0..N`.
    phases: Vec<Complex<T>>,
}

impl<T: Float> DctNPlan<T> {
    /// Creates a plan for length `n` (power of two, `>= 4` so the inner
    /// real FFT is valid).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::NonPowerOfTwo`] for unsupported lengths.
    pub fn new(n: usize) -> Result<Self, TransformError> {
        crate::check_pow2(n)?;
        let rfft = RfftPlan::new(n)?;
        let phases = (0..n)
            .map(|k| {
                Complex::cis(T::from_f64(
                    -std::f64::consts::PI * k as f64 / (2.0 * n as f64),
                ))
            })
            .collect();
        Ok(Self { n, rfft, phases })
    }

    /// The transform length `N`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DCT per Algorithm 3 (library normalization).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    pub fn dct(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n, "buffer length must match plan length");
        let n = self.n;
        // Reorder kernel: x'[t] = x[2t] for t < N/2, else x[2(N-t)-1].
        let mut perm = vec![T::ZERO; n];
        for t in 0..n / 2 {
            perm[t] = x[2 * t];
        }
        for t in n / 2..n {
            perm[t] = x[2 * (n - t) - 1];
        }
        let spec = self.rfft.forward(&perm); // one-sided, length N/2+1
                                             // y[t] = (2/N) Re(X[t] e^{-i pi t / 2N}); for t > N/2 use Hermitian
                                             // symmetry X[t] = conj(X[N-t]).
        let scale = T::TWO / T::from_usize(n);
        (0..n)
            .map(|t| {
                let xt = if t <= n / 2 {
                    spec[t]
                } else {
                    spec[n - t].conj()
                };
                (xt * self.phases[t]).re * scale
            })
            .collect()
    }

    /// Inverse DCT per Algorithm 3 (exact inverse of [`DctNPlan::dct`]).
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` differs from the plan length.
    pub fn idct(&self, c: &[T]) -> Vec<T> {
        assert_eq!(c.len(), self.n, "buffer length must match plan length");
        let n = self.n;
        // Preprocess: V[k] = (N/2) e^{+i pi k / 2N} (c[k] - i c[N-k]),
        // one-sided for k = 0..=N/2 with c[N] = 0.
        let half_n = T::from_usize(n) * T::HALF;
        let spec: Vec<Complex<T>> = (0..=n / 2)
            .map(|k| {
                let cnk = if k == 0 { T::ZERO } else { c[n - k] };
                let v = Complex::new(c[k], -cnk);
                (self.phases[k].conj() * v).scale(half_n)
            })
            .collect();
        let v = self.rfft.inverse(&spec);
        // Inverse reorder: y[2t] = v[t], y[2t+1] = v[N-1-t].
        let mut y = vec![T::ZERO; n];
        for t in 0..n / 2 {
            y[2 * t] = v[t];
            y[2 * t + 1] = v[n - 1 - t];
        }
        y
    }

    /// IDXST via the reversal identity Eq. (8e).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    pub fn idxst(&self, x: &[T]) -> Vec<T> {
        idxst_via_idct(x, |rev| self.idct(rev))
    }
}

/// Shared IDXST implementation: reverse-shift the input per Eq. (8e), run
/// the provided IDCT, then flip alternate signs.
fn idxst_via_idct<T: Float>(x: &[T], idct: impl Fn(&[T]) -> Vec<T>) -> Vec<T> {
    let n = x.len();
    // rev[m] = x[N - m] with x[N] = 0 => rev[0] = 0, rev[m] = x[N-m].
    let mut rev = vec![T::ZERO; n];
    for m in 1..n {
        rev[m] = x[n - m];
    }
    let mut y = idct(&rev);
    for (k, v) in y.iter_mut().enumerate() {
        if k % 2 == 1 {
            *v = -*v;
        }
    }
    y
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.41).sin() - 0.2 * i as f64)
            .collect()
    }

    #[test]
    fn round_trips_both_tiers() {
        for n in [8usize, 64, 256] {
            let x = signal(n);
            let p2n = Dct2nPlan::new(n).expect("pow2");
            let pn = DctNPlan::new(n).expect("pow2");
            let r1 = p2n.idct(&p2n.dct(&x));
            let r2 = pn.idct(&pn.dct(&x));
            for ((a, b), w) in r1.iter().zip(&r2).zip(&x) {
                assert!((a - w).abs() < 1e-8);
                assert!((b - w).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn f32_accuracy_is_reasonable() {
        let n = 128;
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin()).collect();
        let plan = DctNPlan::<f32>::new(n).expect("pow2");
        let back = plan.idct(&plan.dct(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3);
        }
    }
}
