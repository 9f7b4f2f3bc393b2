//! FFT and discrete cosine/sine transform substrate.
//!
//! The electrostatic density penalty of ePlace/DREAMPlace solves Poisson's
//! equation spectrally (paper Eq. (5)), which requires fast 2-D DCT/IDCT and
//! the mixed IDCT·IDXST / IDXST·IDCT transforms (paper Eq. (9)). The paper
//! benchmarks three implementation tiers in Fig. 11, and all three are
//! provided here:
//!
//! * **2N-point** — DCT via a mirror-extended FFT of length 2N
//!   (the TensorFlow approach the paper compares against);
//! * **N-point** — Makhoul's N-point real-FFT algorithm (paper Algorithm 3);
//! * **2-D N-point** — the direct 2-D decomposition with a single 2-D real
//!   FFT call (paper Algorithm 4, Eqs. (10)-(17)).
//!
//! Transform conventions match the paper: [`dct1d`] documents the exact
//! normalization (`dct` returns `(2/N)` times Eq. (7a) so that `idct`,
//! which evaluates Eq. (7b) verbatim, is its exact inverse).
//!
//! All fast paths require power-of-two lengths — placement bin grids are
//! powers of two — and return [`TransformError`] otherwise. The `O(N^2)`
//! definitions every tier is tested against live in `dp_check::oracle_dct`
//! (its `differential_dct` suite), not in this production crate.
//!
//! # Examples
//!
//! ```
//! use dp_dct::dct2d::Dct2dPlan;
//!
//! # fn main() -> Result<(), dp_dct::TransformError> {
//! let plan: Dct2dPlan<f64> = Dct2dPlan::new(8, 8)?;
//! let data = vec![1.0f64; 64];
//! let coeffs = plan.dct2(&data);
//! let back = plan.idct2(&coeffs);
//! assert!(back.iter().all(|&v| (v - 1.0).abs() < 1e-12));
//! # Ok(())
//! # }
//! ```

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dct1d;
pub mod dct2d;
pub mod fft;
pub mod rfft;

use std::error::Error;
use std::fmt;

pub use dct2d::{Dct2dPlan, Transform2d, TransformPhases};
pub use fft::FftPlan;
pub use rfft::RfftPlan;

/// Error raised when a transform is requested for an unsupported length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformError {
    /// The fast transforms require a power-of-two length of at least 2.
    NonPowerOfTwo {
        /// The offending length.
        n: usize,
    },
    /// The length is a power of two but below what the plan needs (the
    /// real-FFT packing trick needs `n/2 >= 2`).
    TooShort {
        /// The offending length.
        n: usize,
        /// The smallest length the plan accepts.
        min: usize,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::NonPowerOfTwo { n } => {
                write!(f, "transform length {n} is not a power of two >= 2")
            }
            TransformError::TooShort { n, min } => {
                write!(f, "transform length {n} is below the minimum {min}")
            }
        }
    }
}

impl Error for TransformError {}

/// Validates that `n` is a power of two and at least 2.
pub(crate) fn check_pow2(n: usize) -> Result<(), TransformError> {
    if n >= 2 && n.is_power_of_two() {
        Ok(())
    } else {
        Err(TransformError::NonPowerOfTwo { n })
    }
}
