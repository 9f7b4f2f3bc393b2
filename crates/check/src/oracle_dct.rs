//! Direct `O(n^2)` oracles for the FFT and the DCT family (paper Eqs.
//! (7)–(9)): the workspace's one copy of each defining sum.
//!
//! Each transform is written as its defining sum in the library
//! normalization (the one under which `idct(dct(x)) == x`):
//!
//! * DFT: `X[k] = sum_n x[n] e^{-2 pi i n k / N}` (unnormalized);
//! * 1-D DCT: `y[k] = (2/N) sum_n x[n] cos(pi (n+1/2) k / N)`;
//! * 1-D IDCT: `y[k] = x[0]/2 + sum_{n>=1} x[n] cos(pi n (k+1/2) / N)`;
//! * 1-D IDXST: `y[k] = sum_n x[n] sin(pi n (k+1/2) / N)`.
//!
//! 2-D transforms apply the row transform along the second axis and the
//! column transform along the first, exactly like `dp_dct`'s plans; the
//! mixed transforms pair IDXST on one axis with IDCT on the other (paper
//! Eq. (9), the electric-field transforms). Matrices are row-major
//! `n1 x n2` (`x[i * n2 + j]`). Every length is accepted, powers of two
//! or not.
//!
//! No FFT, no recursion, no reordering tricks: these run in quadratic time
//! and exist purely so the fast plans have something trustworthy to be
//! compared against.

use std::f64::consts::PI;

use dp_num::Complex;

/// `cos(pi (n + 1/2) k / len)` — forward DCT basis.
fn fwd(n: usize, k: usize, len: usize) -> f64 {
    (PI * (n as f64 + 0.5) * k as f64 / len as f64).cos()
}

/// `cos(pi n (k + 1/2) / len)` — inverse DCT basis.
fn inv_cos(n: usize, k: usize, len: usize) -> f64 {
    (PI * n as f64 * (k as f64 + 0.5) / len as f64).cos()
}

/// `sin(pi n (k + 1/2) / len)` — inverse DXST basis.
fn inv_sin(n: usize, k: usize, len: usize) -> f64 {
    (PI * n as f64 * (k as f64 + 0.5) / len as f64).sin()
}

/// Unnormalized DFT: `X[k] = sum_n x[n] e^{-2 pi i n k / N}`.
///
/// # Examples
///
/// ```
/// use dp_num::Complex;
/// let spec = dp_check::dft_oracle(&[Complex::new(1.0, 0.0); 4]);
/// assert!((spec[0].re - 4.0).abs() < 1e-12);
/// assert!(spec[1].abs() < 1e-12);
/// ```
pub fn dft_oracle(x: &[Complex<f64>]) -> Vec<Complex<f64>> {
    let len = x.len();
    (0..len)
        .map(|k| {
            x.iter().enumerate().fold(Complex::zero(), |acc, (n, &xn)| {
                acc + xn * Complex::cis(-2.0 * PI * (n * k) as f64 / len as f64)
            })
        })
        .collect()
}

/// 1-D DCT, paper Eq. (7a) scaled by `2/N`:
/// `y[k] = (2/N) sum_n x[n] fwd(n,k,N)`.
pub fn dct_oracle(x: &[f64]) -> Vec<f64> {
    let len = x.len();
    let scale = 2.0 / len as f64;
    (0..len)
        .map(|k| {
            scale
                * x.iter()
                    .enumerate()
                    .map(|(n, v)| v * fwd(n, k, len))
                    .sum::<f64>()
        })
        .collect()
}

/// 1-D IDCT, paper Eq. (7b) verbatim:
/// `y[k] = sum_n c_n x[n] inv_cos(n,k,N)` with `c_0 = 1/2`; the inverse
/// of [`dct_oracle`].
pub fn idct_oracle(x: &[f64]) -> Vec<f64> {
    let len = x.len();
    (0..len)
        .map(|k| {
            x.iter()
                .enumerate()
                .map(|(n, v)| half0(n) * v * inv_cos(n, k, len))
                .sum()
        })
        .collect()
}

/// 1-D IDXST, paper Eq. (8a): `y[k] = sum_n x[n] inv_sin(n,k,N)`.
pub fn idxst_oracle(x: &[f64]) -> Vec<f64> {
    let len = x.len();
    (0..len)
        .map(|k| {
            x.iter()
                .enumerate()
                .map(|(n, v)| v * inv_sin(n, k, len))
                .sum()
        })
        .collect()
}

fn assert_shape(x: &[f64], n1: usize, n2: usize) {
    assert_eq!(x.len(), n1 * n2, "matrix shape mismatch: {} != {n1}x{n2}", x.len());
}

/// Forward 2-D DCT by the defining quadruple sum:
/// `Y[k1][k2] = (4/(n1 n2)) sum_{i,j} x[i][j] fwd(i,k1,n1) fwd(j,k2,n2)`.
///
/// # Panics
///
/// Panics if `x.len() != n1 * n2`.
pub fn dct2_oracle(x: &[f64], n1: usize, n2: usize) -> Vec<f64> {
    assert_shape(x, n1, n2);
    let scale = 4.0 / (n1 * n2) as f64;
    let mut out = vec![0.0; n1 * n2];
    for k1 in 0..n1 {
        for k2 in 0..n2 {
            let mut acc = 0.0;
            for i in 0..n1 {
                for j in 0..n2 {
                    acc += x[i * n2 + j] * fwd(i, k1, n1) * fwd(j, k2, n2);
                }
            }
            out[k1 * n2 + k2] = scale * acc;
        }
    }
    out
}

/// `1/2` on the DC term, `1` elsewhere — the inverse-DCT weighting.
fn half0(u: usize) -> f64 {
    if u == 0 {
        0.5
    } else {
        1.0
    }
}

/// Inverse 2-D DCT:
/// `Y[i][j] = sum_{u,v} c_u c_v X[u][v] inv_cos(u,i,n1) inv_cos(v,j,n2)`
/// with `c_0 = 1/2`.
///
/// # Panics
///
/// Panics if `x.len() != n1 * n2`.
pub fn idct2_oracle(x: &[f64], n1: usize, n2: usize) -> Vec<f64> {
    assert_shape(x, n1, n2);
    let mut out = vec![0.0; n1 * n2];
    for i in 0..n1 {
        for j in 0..n2 {
            let mut acc = 0.0;
            for u in 0..n1 {
                for v in 0..n2 {
                    acc += half0(u) * half0(v) * x[u * n2 + v] * inv_cos(u, i, n1)
                        * inv_cos(v, j, n2);
                }
            }
            out[i * n2 + j] = acc;
        }
    }
    out
}

/// IDXST along rows (second axis), IDCT along columns (first axis) —
/// the x-field transform of paper Eq. (9a):
/// `Y[i][j] = sum_{u,v} c_u X[u][v] inv_cos(u,i,n1) inv_sin(v,j,n2)`.
///
/// # Panics
///
/// Panics if `x.len() != n1 * n2`.
pub fn idct_idxst_oracle(x: &[f64], n1: usize, n2: usize) -> Vec<f64> {
    assert_shape(x, n1, n2);
    let mut out = vec![0.0; n1 * n2];
    for i in 0..n1 {
        for j in 0..n2 {
            let mut acc = 0.0;
            for u in 0..n1 {
                for v in 1..n2 {
                    acc += half0(u) * x[u * n2 + v] * inv_cos(u, i, n1) * inv_sin(v, j, n2);
                }
            }
            out[i * n2 + j] = acc;
        }
    }
    out
}

/// IDCT along rows, IDXST along columns — the y-field transform of paper
/// Eq. (9b):
/// `Y[i][j] = sum_{u,v} c_v X[u][v] inv_sin(u,i,n1) inv_cos(v,j,n2)`.
///
/// # Panics
///
/// Panics if `x.len() != n1 * n2`.
pub fn idxst_idct_oracle(x: &[f64], n1: usize, n2: usize) -> Vec<f64> {
    assert_shape(x, n1, n2);
    let mut out = vec![0.0; n1 * n2];
    for i in 0..n1 {
        for j in 0..n2 {
            let mut acc = 0.0;
            for u in 1..n1 {
                for v in 0..n2 {
                    acc += half0(v) * x[u * n2 + v] * inv_sin(u, i, n1) * inv_cos(v, j, n2);
                }
            }
            out[i * n2 + j] = acc;
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1 * i as f64).collect()
    }

    /// The oracle pair is self-consistent at every length, powers of two
    /// or not: `idct(dct(x)) == x`.
    #[test]
    fn idct_inverts_dct_at_every_length() {
        for len in 2..40 {
            for seed in [0u64, 17, 523] {
                let x: Vec<f64> = (0..len)
                    .map(|i| ((seed + i as u64) % 83) as f64 / 7.0)
                    .collect();
                for (a, b) in x.iter().zip(&idct_oracle(&dct_oracle(&x))) {
                    assert!((a - b).abs() < 1e-9, "len {len} seed {seed}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn dct_of_constant_is_dc_only() {
        let c = dct_oracle(&[3.0; 8]);
        assert!((c[0] - 6.0).abs() < 1e-12, "DC = (2/N)*N*3 = 6");
        assert!(c[1..].iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn idct2_inverts_dct2() {
        let (n1, n2) = (8, 4);
        let x = ramp(n1 * n2);
        let back = idct2_oracle(&dct2_oracle(&x, n1, n2), n1, n2);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn dc_input_transforms_to_constant() {
        let (n1, n2) = (4, 4);
        let mut spec = vec![0.0; 16];
        spec[0] = 4.0; // DC coefficient
        let y = idct2_oracle(&spec, n1, n2);
        for v in &y {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn idxst_of_dc_is_zero() {
        let (n1, n2) = (4, 8);
        let mut spec = vec![0.0; n1 * n2];
        spec[0] = 3.0;
        assert!(idct_idxst_oracle(&spec, n1, n2).iter().all(|&v| v == 0.0));
        assert!(idxst_idct_oracle(&spec, n1, n2).iter().all(|&v| v == 0.0));
    }
}
