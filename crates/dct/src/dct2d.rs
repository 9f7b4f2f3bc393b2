//! 2-D DCT/IDCT and the mixed IDCT·IDXST / IDXST·IDCT transforms.
//!
//! Two implementations are provided, mirroring the paper's Fig. 11
//! comparison:
//!
//! * [`RowColumnDct2d`] — the conventional row-column decomposition using a
//!   1-D tier ([`Dct1dTier::TwoN`] or [`Dct1dTier::NPoint`]) along each axis;
//! * [`Dct2dPlan`] — the direct 2-D algorithm of paper Algorithm 4
//!   (Eqs. (10)-(17)): one 2-D real FFT plus fully parallel linear-time
//!   pre/post-processing kernels.
//!
//! Matrices are row-major with shape `(n1, n2)`; element `(i, j)` lives at
//! `i * n2 + j`. "Dimension 1" indexes rows (`n1`), "dimension 2" indexes
//! columns (`n2`), matching the paper's `x(n1, n2)` notation.
//!
//! [`Dct2dPlan`] lays its 2-D real FFT out for memory locality and
//! autovectorization:
//!
//! * **Row pass** — [`LANES`] rows are packed lane-interleaved (element `k`
//!   of lane `l` at `k * lanes + l`) and swept by the `*_lanes` kernels of
//!   [`FftPlan`], so each butterfly loads its twiddle once and applies it
//!   to the whole lane run.
//! * **Column pass** — the one-sided spectrum is already lane-interleaved
//!   when read column-major (stride `n2/2 + 1`), so the column FFTs run
//!   *in place* over strided lane windows with no transpose at all.
//! * **Pack/unpack** — the row pack reads its input through the Eq. 10
//!   even/odd reorder, and the inverse row interleave writes its output
//!   through the Eq. 13 inverse reorder (with the mixed transforms' sign),
//!   so no reordered copy of the matrix exists; the lane block ↔ spectrum
//!   moves go through a cache-blocked tiled transpose.
//! * **Two halves** — every transform reads its whole input into the
//!   spectrum of [`Dct2dWork`] before it writes any output, so one code
//!   path serves the `_with` methods and [`Dct2dPlan::transform_in_place`].
//!
//! Every step is a permutation, an elementwise map, or an independent
//! per-lane FFT — there are no cross-element reductions — so the plan is
//! **bitwise identical** to composing scalar [`RfftPlan`] rows and
//! [`FftPlan`] columns. Each sweep also charges its wall-clock into a
//! [`TransformPhases`] accumulator on the work object, splitting transform
//! time into transpose / butterfly / twiddle phases for the run report.

use std::time::Instant;

use dp_num::{Complex, Float};

use crate::dct1d::{Dct2nPlan, DctNPlan};
use crate::fft::FftPlan;
use crate::rfft::RfftPlan;
use crate::TransformError;

/// Which 1-D algorithm a [`RowColumnDct2d`] uses along each axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dct1dTier {
    /// DCT via a 2N-point FFT ("DCT-2N" in Fig. 11).
    TwoN,
    /// Makhoul's N-point real-FFT algorithm, paper Algorithm 3 ("DCT-N").
    NPoint,
}

enum TierPlan<T> {
    TwoN(Dct2nPlan<T>),
    NPoint(DctNPlan<T>),
}

impl<T: Float> TierPlan<T> {
    fn new(tier: Dct1dTier, n: usize) -> Result<Self, TransformError> {
        Ok(match tier {
            Dct1dTier::TwoN => TierPlan::TwoN(Dct2nPlan::new(n)?),
            Dct1dTier::NPoint => TierPlan::NPoint(DctNPlan::new(n)?),
        })
    }

    fn dct(&self, x: &[T]) -> Vec<T> {
        match self {
            TierPlan::TwoN(p) => p.dct(x),
            TierPlan::NPoint(p) => p.dct(x),
        }
    }

    fn idct(&self, x: &[T]) -> Vec<T> {
        match self {
            TierPlan::TwoN(p) => p.idct(x),
            TierPlan::NPoint(p) => p.idct(x),
        }
    }

    fn idxst(&self, x: &[T]) -> Vec<T> {
        match self {
            TierPlan::TwoN(p) => p.idxst(x),
            TierPlan::NPoint(p) => p.idxst(x),
        }
    }
}

/// Row-column 2-D transforms with a selectable 1-D tier.
///
/// # Examples
///
/// ```
/// use dp_dct::dct2d::{Dct1dTier, RowColumnDct2d};
///
/// # fn main() -> Result<(), dp_dct::TransformError> {
/// let plan: RowColumnDct2d<f64> = RowColumnDct2d::new(4, 8, Dct1dTier::NPoint)?;
/// let x = vec![2.0f64; 32];
/// let back = plan.idct2(&plan.dct2(&x));
/// assert!(back.iter().all(|v| (v - 2.0).abs() < 1e-10));
/// # Ok(())
/// # }
/// ```
pub struct RowColumnDct2d<T> {
    n1: usize,
    n2: usize,
    row_plan: TierPlan<T>,
    col_plan: TierPlan<T>,
}

impl<T: Float> RowColumnDct2d<T> {
    /// Creates a plan for `n1 x n2` matrices using `tier` along both axes.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::NonPowerOfTwo`] if either dimension is
    /// unsupported by the chosen tier.
    pub fn new(n1: usize, n2: usize, tier: Dct1dTier) -> Result<Self, TransformError> {
        Ok(Self {
            n1,
            n2,
            row_plan: TierPlan::new(tier, n2)?,
            col_plan: TierPlan::new(tier, n1)?,
        })
    }

    /// Matrix shape `(n1, n2)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n1, self.n2)
    }

    /// 2-D forward DCT (rows then columns).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn dct2(&self, x: &[T]) -> Vec<T> {
        let rows = self.apply_rows(x, |p, r| p.dct(r));
        self.apply_cols(&rows, |p, c| p.dct(c))
    }

    /// 2-D inverse DCT.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn idct2(&self, x: &[T]) -> Vec<T> {
        let rows = self.apply_rows(x, |p, r| p.idct(r));
        self.apply_cols(&rows, |p, c| p.idct(c))
    }

    /// IDCT along dimension 1, IDXST along dimension 2.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn idct_idxst(&self, x: &[T]) -> Vec<T> {
        let rows = self.apply_rows(x, |p, r| p.idxst(r));
        self.apply_cols(&rows, |p, c| p.idct(c))
    }

    /// IDXST along dimension 1, IDCT along dimension 2.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn idxst_idct(&self, x: &[T]) -> Vec<T> {
        let rows = self.apply_rows(x, |p, r| p.idct(r));
        self.apply_cols(&rows, |p, c| p.idxst(c))
    }

    fn apply_rows(&self, x: &[T], f: impl Fn(&TierPlan<T>, &[T]) -> Vec<T>) -> Vec<T> {
        assert_eq!(x.len(), self.n1 * self.n2, "matrix shape mismatch");
        let mut out = Vec::with_capacity(x.len());
        for r in 0..self.n1 {
            out.extend(f(&self.row_plan, &x[r * self.n2..(r + 1) * self.n2]));
        }
        out
    }

    fn apply_cols(&self, x: &[T], f: impl Fn(&TierPlan<T>, &[T]) -> Vec<T>) -> Vec<T> {
        let mut out = vec![T::ZERO; x.len()];
        let mut col = vec![T::ZERO; self.n1];
        for c in 0..self.n2 {
            for r in 0..self.n1 {
                col[r] = x[r * self.n2 + c];
            }
            let t = f(&self.col_plan, &col);
            for r in 0..self.n1 {
                out[r * self.n2 + c] = t[r];
            }
        }
        out
    }
}

/// Rows (or spectrum columns) processed per lane sweep.
///
/// Eight f64 lanes are 64 bytes of reals — one cache line — per packed
/// element, and a whole number of SIMD registers at any vector width; wider
/// sweeps grow the lane scratch past L1 for placement-sized grids without
/// further amortizing the (already per-sweep) twiddle loads.
pub const LANES: usize = 8;

/// Wall-clock split of [`Dct2dPlan`] transform time, in nanoseconds.
///
/// * `transpose` — packing/unpacking, tiled transposes, permutations;
/// * `butterfly` — the FFT butterfly sweeps themselves;
/// * `twiddle` — pre/post-processing that multiplies by phase tables
///   (Makhoul untangling, the `W1`/`W2` DCT factors, sign flips).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformPhases {
    /// Nanoseconds spent moving data (packs, transposes, permutations).
    pub transpose_nanos: u64,
    /// Nanoseconds spent in FFT butterfly sweeps.
    pub butterfly_nanos: u64,
    /// Nanoseconds spent in phase-table multiplies and sign fixups.
    pub twiddle_nanos: u64,
}

impl TransformPhases {
    /// Sum of all three phases.
    pub fn total_nanos(&self) -> u64 {
        self.transpose_nanos + self.butterfly_nanos + self.twiddle_nanos
    }
}

fn nanos_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Reusable scratch for [`Dct2dPlan`] transforms, plus the per-phase timer
/// accumulator.
///
/// Every transform runs through these buffers instead of allocating; one
/// `Dct2dWork` per solver amortizes every per-transform allocation away.
/// Buffers grow on demand and are reset by each call, so one work object
/// can serve plans of different shapes (at the cost of a regrow). It holds
/// no real-valued matrix: inputs are read, and outputs written, through
/// the Eq. 10 permutation directly.
#[derive(Debug, Clone, Default)]
pub struct Dct2dWork<T> {
    /// One-sided spectrum scratch, `n1 * (n2/2 + 1)`: the only state a
    /// transform carries from its input half to its output half.
    spec: Vec<Complex<T>>,
    /// Lane-interleaved half-FFT scratch, `(n2/2) * LANES`.
    lanes: Vec<Complex<T>>,
    /// Lane-interleaved untangle scratch, `(n2/2 + 1) * LANES`.
    lanes2: Vec<Complex<T>>,
    phases: TransformPhases,
}

impl<T: Float> Dct2dWork<T> {
    /// Creates an empty work object (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of scratch currently held (for workspace counters).
    pub fn bytes(&self) -> usize {
        (self.spec.capacity() + self.lanes.capacity() + self.lanes2.capacity())
            * std::mem::size_of::<Complex<T>>()
    }

    /// Zeroes the lane scratch for sweeps over rows of `m` complex pairs
    /// (and their `m + 1` spectrum bins).
    fn reset_lanes(&mut self, m: usize) {
        self.lanes.clear();
        self.lanes.resize(m * LANES, Complex::zero());
        self.lanes2.clear();
        self.lanes2.resize((m + 1) * LANES, Complex::zero());
    }

    /// Drains the phase timers, returning the accumulated split and
    /// resetting the counters to zero.
    pub fn take_phases(&mut self) -> TransformPhases {
        std::mem::take(&mut self.phases)
    }
}

/// One of the four transforms of paper Algorithm 4, as accepted by
/// [`Dct2dPlan::transform_in_place`].
///
/// A mixed transform is the plain IDCT of its input flipped along one
/// dimension (Eqs. 14/16, the flipped-in edge row or column zero) with the
/// odd output rows or columns negated (Eqs. 15/17). Both are index
/// arithmetic inside the plan's input and output halves: no flipped copy
/// is built and the output is written once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform2d {
    /// Forward DCT along both dimensions (`2D_DCT`).
    Dct2,
    /// IDCT along both dimensions (`2D_IDCT`).
    Idct2,
    /// IDXST along dimension 1, IDCT along dimension 2 (Eqs. 16-17; the X
    /// electric field, Eq. (9c)).
    IdxstIdct,
    /// IDCT along dimension 1, IDXST along dimension 2 (Eqs. 14-15; the Y
    /// electric field, Eq. (9d)).
    IdctIdxst,
}

/// Edge length of the square tiles used by [`transpose_tiled`].
///
/// 16 complex-f64 elements per tile row is 256 bytes — four cache lines —
/// so a 16×16 tile touches 64 lines on each side, well within L1.
const TRANSPOSE_TILE: usize = 16;

/// Cache-blocked out-of-place transpose: `dst[c * rows + r] = src[r * cols + c]`.
///
/// `src` is `rows x cols` row-major; `dst` becomes `cols x rows` row-major.
/// Pure memory movement — callers rely on this being bitwise exact.
///
/// # Panics
///
/// Panics if either slice is shorter than `rows * cols`.
fn transpose_tiled<U: Copy>(src: &[U], rows: usize, cols: usize, dst: &mut [U]) {
    assert!(src.len() >= rows * cols, "transpose source too short");
    assert!(dst.len() >= rows * cols, "transpose destination too short");
    for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let r1 = (r0 + TRANSPOSE_TILE).min(rows);
        for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let c1 = (c0 + TRANSPOSE_TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// The direct 2-D plan of paper Algorithm 4: each transform is one 2-D real
/// FFT call wrapped in linear-time pre/post-processing.
///
/// This is the tier labelled "DCT-2D-N" in Fig. 11 and the one the density
/// operator uses in the optimized configuration. The 2-D real FFT is swept
/// [`LANES`] signals at a time (see the module docs), which changes memory
/// shape only: every output is bitwise what per-row [`RfftPlan`] and
/// per-column [`FftPlan`] transforms produce.
///
/// Each transform is two halves joined only by the spectrum in
/// [`Dct2dWork`]: the first reads the whole input into it, the second
/// writes the whole output from it. So the `_with` variants (input, work,
/// output buffer) and [`Dct2dPlan::transform_in_place`] (one buffer, input
/// on entry and output on return) run the same code; the plain methods
/// allocate fresh buffers per call.
///
/// # Examples
///
/// ```
/// use dp_dct::Dct2dPlan;
///
/// # fn main() -> Result<(), dp_dct::TransformError> {
/// let plan: Dct2dPlan<f64> = Dct2dPlan::new(8, 16)?;
/// let x: Vec<f64> = (0..128).map(|i| (i as f64 * 0.05).sin()).collect();
/// let back = plan.idct2(&plan.dct2(&x));
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-10);
/// }
/// # Ok(())
/// # }
/// ```
pub struct Dct2dPlan<T> {
    n1: usize,
    n2: usize,
    row_rfft: RfftPlan<T>,
    col_fft: FftPlan<T>,
    /// `e^{-i pi k / (2 n1)}` for `k = 0..n1`.
    w1: Vec<Complex<T>>,
    /// `e^{-i pi k / (2 n2)}` for `k = 0..n2`.
    w2: Vec<Complex<T>>,
    /// Precomputed even/odd reorder maps (Algorithm 3) for both axes.
    r1: Vec<usize>,
    r2: Vec<usize>,
}

impl<T: Float> Dct2dPlan<T> {
    /// Creates a direct 2-D plan for `n1 x n2` matrices (both powers of two,
    /// `n1 >= 2`, `n2 >= 4`).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::NonPowerOfTwo`] when a dimension is not a
    /// power of two of at least 2, and [`TransformError::TooShort`] for
    /// `n2 == 2`.
    pub fn new(n1: usize, n2: usize) -> Result<Self, TransformError> {
        crate::check_pow2(n1)?;
        crate::check_pow2(n2)?;
        let row_rfft = RfftPlan::new(n2)?;
        let col_fft = FftPlan::new(n1)?;
        let phase = |k: usize, n: usize| {
            Complex::cis(T::from_f64(
                -std::f64::consts::PI * k as f64 / (2.0 * n as f64),
            ))
        };
        Ok(Self {
            n1,
            n2,
            row_rfft,
            col_fft,
            w1: (0..n1).map(|k| phase(k, n1)).collect(),
            w2: (0..n2).map(|k| phase(k, n2)).collect(),
            r1: reorder_index(n1),
            r2: reorder_index(n2),
        })
    }

    /// Matrix shape `(n1, n2)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n1, self.n2)
    }

    /// The forward DCT's input half: the 2-D real FFT of `x` seen through
    /// the Eq. 10 reorder, into `work.spec` (`n1 x (n2/2 + 1)` complex
    /// bins, unnormalized), rows then columns.
    ///
    /// The reorder is folded into the row pack: lane `l` of the sweep at
    /// row `r0` is row `r1[r0 + l]` of `x`, and its pair `k` is
    /// `x[.., r2[2k]] + i x[.., r2[2k + 1]]` (Makhoul packing of the
    /// reordered row), so no reordered copy of `x` is ever built.
    fn rfft2_consume(&self, x: &[T], work: &mut Dct2dWork<T>) {
        let (n1, n2) = (self.n1, self.n2);
        let n2h = n2 / 2 + 1;
        let m = n2 / 2;
        let half = self.row_rfft.half_plan();
        let phases = self.row_rfft.untangle_phases();
        work.spec.resize(n1 * n2h, Complex::zero());
        work.reset_lanes(m);
        // Row pass: LANES rows per sweep, lane-interleaved so every
        // butterfly's twiddle load is shared across the whole sweep.
        for r0 in (0..n1).step_by(LANES) {
            let b = LANES.min(n1 - r0);
            let t0 = Instant::now();
            for (l, &src) in self.r1[r0..r0 + b].iter().enumerate() {
                let row = &x[src * n2..(src + 1) * n2];
                for (k, cols) in self.r2.chunks_exact(2).enumerate() {
                    work.lanes[k * b + l] = Complex::new(row[cols[0]], row[cols[1]]);
                }
            }
            work.phases.transpose_nanos += nanos_since(t0);
            let t0 = Instant::now();
            half.forward_lanes(&mut work.lanes[..m * b], b, b);
            work.phases.butterfly_nanos += nanos_since(t0);
            // Untangle all lanes with the shared phase table: with E/O the
            // DFTs of the even/odd subsequences, X[k] = E[k] + e^{-2 pi i k / N} O[k].
            let t0 = Instant::now();
            for (k, &phase) in phases.iter().enumerate().take(n2h) {
                let kk = if k == m { 0 } else { k };
                let km = (m - k) % m;
                for l in 0..b {
                    let zk = work.lanes[kk * b + l];
                    let zmk = work.lanes[km * b + l];
                    let e = (zk + zmk.conj()).scale(T::HALF);
                    let o = (zk - zmk.conj()).scale(T::HALF).mul_i().scale(-T::ONE);
                    work.lanes2[k * b + l] = e + phase * o;
                }
            }
            work.phases.twiddle_nanos += nanos_since(t0);
            // Scatter the lane block back to row-major spectrum rows.
            let t0 = Instant::now();
            transpose_tiled(
                &work.lanes2[..n2h * b],
                n2h,
                b,
                &mut work.spec[r0 * n2h..(r0 + b) * n2h],
            );
            work.phases.transpose_nanos += nanos_since(t0);
        }
        // Column pass: the row-major spectrum read column-wise IS a lane
        // window (stride n2h), so the column FFTs run in place — no
        // transpose, and `lanes <= stride` holds by construction.
        let t0 = Instant::now();
        for c0 in (0..n2h).step_by(LANES) {
            let b = LANES.min(n2h - c0);
            self.col_fft.forward_lanes(&mut work.spec[c0..], n2h, b);
        }
        work.phases.butterfly_nanos += nanos_since(t0);
    }

    /// The inverse transforms' output half: the inverse 2-D real FFT of
    /// `work.spec` with full `1/(n1 n2)` normalization (columns in place,
    /// then rows), written into `out` through the Eq. 13 inverse reorder.
    ///
    /// The un-reorder is folded into the row interleave: real column `j` of
    /// sweep row `i` lands at `out[r1[i]][r2[j]]`, negated where `kind`'s
    /// sign alternation (Eqs. 15/17) makes that destination odd — which the
    /// permutation makes a property of the source index (`i >= N1/2` for
    /// `IdxstIdct`, `j >= N2/2` for `IdctIdxst`), so the sign is fixed per
    /// lane and per pair.
    fn irfft2_produce(&self, kind: Transform2d, work: &mut Dct2dWork<T>, out: &mut [T]) {
        let (n1, n2) = (self.n1, self.n2);
        let n2h = n2 / 2 + 1;
        let m = n2 / 2;
        let half = self.row_rfft.half_plan();
        let phases = self.row_rfft.untangle_phases();
        // Column pass first (in place, strided lane windows).
        let t0 = Instant::now();
        for c0 in (0..n2h).step_by(LANES) {
            let b = LANES.min(n2h - c0);
            self.col_fft.inverse_lanes(&mut work.spec[c0..], n2h, b);
        }
        work.phases.butterfly_nanos += nanos_since(t0);
        work.reset_lanes(m);
        for r0 in (0..n1).step_by(LANES) {
            let b = LANES.min(n1 - r0);
            // Gather the spectrum rows lane-interleaved.
            let t0 = Instant::now();
            transpose_tiled(
                &work.spec[r0 * n2h..(r0 + b) * n2h],
                b,
                n2h,
                &mut work.lanes2[..n2h * b],
            );
            work.phases.transpose_nanos += nanos_since(t0);
            // Repack with the shared conjugate phase table:
            // E[k] = (X[k] + conj(X[m-k]))/2,
            // O[k] = (X[k] - conj(X[m-k]))/2 * e^{+2 pi i k / N},
            // Z[k] = E[k] + i O[k].
            let t0 = Instant::now();
            for (k, &phase) in phases.iter().enumerate().take(m) {
                for l in 0..b {
                    let xk = work.lanes2[k * b + l];
                    let xmk = work.lanes2[(m - k) * b + l].conj();
                    let e = (xk + xmk).scale(T::HALF);
                    let o = (xk - xmk).scale(T::HALF) * phase.conj();
                    work.lanes[k * b + l] = e + o.mul_i();
                }
            }
            work.phases.twiddle_nanos += nanos_since(t0);
            let t0 = Instant::now();
            half.inverse_lanes(&mut work.lanes[..m * b], b, b);
            work.phases.butterfly_nanos += nanos_since(t0);
            // Interleave back to real rows, through the inverse reorder.
            let t0 = Instant::now();
            for (l, &dst) in self.r1[r0..r0 + b].iter().enumerate() {
                let neg_row = kind == Transform2d::IdxstIdct && r0 + l >= n1 / 2;
                let row = &mut out[dst * n2..(dst + 1) * n2];
                for (k, cols) in self.r2.chunks_exact(2).enumerate() {
                    // `N2/2` is even, so both reals of pair `k` sit on the
                    // same side of it.
                    let neg = neg_row || (kind == Transform2d::IdctIdxst && 2 * k >= m);
                    let z = work.lanes[k * b + l];
                    row[cols[0]] = if neg { -z.re } else { z.re };
                    row[cols[1]] = if neg { -z.im } else { z.im };
                }
            }
            work.phases.transpose_nanos += nanos_since(t0);
        }
    }

    /// Eq. 11 with Hermitian wrap:
    /// `y = (1/(N1 N2)) * 2 Re{ W1(k1) [W2(k2) V(k1,k2)
    ///                                  + conj(W2(k2)) V(k1,(N2-k2)%N2)] }`,
    /// where the one-sided storage supplies
    /// `V(k1, k2) = conj(V((N1-k1)%N1, N2-k2))` for `k2 > N2/2`.
    ///
    /// Columns `k2` and `N2 - k2` read the same two stored bins (one from
    /// row `k1`, one conjugated from its Hermitian partner row) in swapped
    /// roles, so the interior walks `1..N2/2` once and writes both; columns
    /// `0` and `N2/2` are their own wrap partners.
    fn dct2_post(&self, spec: &[Complex<T>], out: &mut [T]) {
        let (n1, n2) = (self.n1, self.n2);
        let n2h = n2 / 2 + 1;
        let m = n2 / 2;
        let scale = T::TWO / T::from_usize(n1 * n2);
        for (k1, out_row) in out.chunks_exact_mut(n2).enumerate() {
            let w1 = self.w1[k1];
            let partner_row = if k1 == 0 { 0 } else { n1 - k1 };
            let row = &spec[k1 * n2h..(k1 + 1) * n2h];
            let partner = &spec[partner_row * n2h..(partner_row + 1) * n2h];
            let term = |k2: usize, v: Complex<T>, vr: Complex<T>| {
                let inner = self.w2[k2] * v + self.w2[k2].conj() * vr;
                (w1 * inner).re * scale
            };
            out_row[0] = term(0, row[0], row[0]);
            out_row[m] = term(m, row[m], row[m]);
            for k2 in 1..m {
                let (v, vr) = (row[k2], partner[k2].conj());
                out_row[k2] = term(k2, v, vr);
                out_row[n2 - k2] = term(n2 - k2, vr, v);
            }
        }
    }

    /// Eq. 12:
    /// `V(k1,k2) = (N1 N2 / 4) conj(W1) conj(W2)
    ///             [c(k1,k2) - c(N1-k1, N2-k2) - i(c(N1-k1,k2) + c(k1,N2-k2))]`
    /// with `c(N1,.) = c(.,N2) = 0` (zero padding, not wraparound: `c` is
    /// data).
    ///
    /// `c` is `x` seen through `kind`'s input flip (Eqs. 14/16): the mixed
    /// transforms read row `N1-k1` (column `N2-k2`) of `x` where the plain
    /// IDCT reads row `k1` (column `k2`), and zero on the flipped-in edge —
    /// a change of index, never of arithmetic. Only spectrum row `0` and
    /// column `0` ever touch the padding or that edge, so they go through
    /// the bounds-aware `at`; every interior bin reads its four inputs
    /// straight from two rows of `x`.
    fn idct2_pre(&self, x: &[T], kind: Transform2d, spec: &mut Vec<Complex<T>>) {
        let (n1, n2) = (self.n1, self.n2);
        let n2h = n2 / 2 + 1;
        let quarter = T::from_usize(n1 * n2) * T::from_f64(0.25);
        let at = |k1: usize, k2: usize| -> T {
            if k1 >= n1 || k2 >= n2 {
                return T::ZERO;
            }
            match kind {
                Transform2d::IdxstIdct if k1 > 0 => x[(n1 - k1) * n2 + k2],
                Transform2d::IdctIdxst if k2 > 0 => x[k1 * n2 + (n2 - k2)],
                Transform2d::IdxstIdct | Transform2d::IdctIdxst => T::ZERO,
                _ => x[k1 * n2 + k2],
            }
        };
        let bin = |w: Complex<T>, a: T, b: T, p: T, q: T| {
            (w * Complex::new(a - b, -(p + q))).scale(quarter)
        };
        let edge = |k1: usize, k2: usize| {
            bin(
                self.w1[k1].conj() * self.w2[k2].conj(),
                at(k1, k2),
                at(n1 - k1, n2 - k2),
                at(n1 - k1, k2),
                at(k1, n2 - k2),
            )
        };
        spec.resize(n1 * n2h, Complex::zero());
        for (k2, slot) in spec[..n2h].iter_mut().enumerate() {
            *slot = edge(0, k2);
        }
        for k1 in 1..n1 {
            spec[k1 * n2h] = edge(k1, 0);
            // Rows of `x` holding c(k1, .) and c(N1-k1, .).
            let (near, far) = match kind {
                Transform2d::IdxstIdct => (n1 - k1, k1),
                _ => (k1, n1 - k1),
            };
            let near = &x[near * n2..(near + 1) * n2];
            let far = &x[far * n2..(far + 1) * n2];
            let w1 = self.w1[k1].conj();
            let out = &mut spec[k1 * n2h..(k1 + 1) * n2h];
            for (k2, slot) in out.iter_mut().enumerate().skip(1) {
                // Columns of `x` holding c(., k2) and c(., N2-k2).
                let (fwd, rev) = match kind {
                    Transform2d::IdctIdxst => (n2 - k2, k2),
                    _ => (k2, n2 - k2),
                };
                let w = w1 * self.w2[k2].conj();
                *slot = bin(w, near[fwd], far[rev], far[fwd], near[rev]);
            }
        }
    }

    /// A transform's input half: reads all of `x` into `work.spec`.
    fn consume(&self, kind: Transform2d, x: &[T], work: &mut Dct2dWork<T>) {
        assert_eq!(x.len(), self.n1 * self.n2, "matrix shape mismatch");
        match kind {
            Transform2d::Dct2 => self.rfft2_consume(x, work),
            _ => {
                let t0 = Instant::now();
                self.idct2_pre(x, kind, &mut work.spec);
                work.phases.twiddle_nanos += nanos_since(t0);
            }
        }
    }

    /// A transform's output half: writes every element of `out` from
    /// `work.spec`.
    fn produce(&self, kind: Transform2d, work: &mut Dct2dWork<T>, out: &mut [T]) {
        match kind {
            Transform2d::Dct2 => {
                let t0 = Instant::now();
                self.dct2_post(&work.spec, out);
                work.phases.twiddle_nanos += nanos_since(t0);
            }
            _ => self.irfft2_produce(kind, work, out),
        }
    }

    /// `kind` of `x` into `out` (resized to the matrix), reusing `work`.
    fn transform_with(
        &self,
        kind: Transform2d,
        x: &[T],
        work: &mut Dct2dWork<T>,
        out: &mut Vec<T>,
    ) {
        self.consume(kind, x, work);
        out.resize(self.n1 * self.n2, T::ZERO);
        self.produce(kind, work, out);
    }

    /// `kind` of `x`, written back over `x`; bitwise what the matching
    /// `_with` method writes into a separate buffer. The input half reads
    /// all of `x` before the output half writes any of it, so the only
    /// scratch is `work`'s spectrum and lanes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn transform_in_place(&self, kind: Transform2d, x: &mut [T], work: &mut Dct2dWork<T>) {
        self.consume(kind, x, work);
        self.produce(kind, work, x);
    }

    /// Forward 2-D DCT (paper Algorithm 4, `2D_DCT`) into `out`, reusing
    /// `work`'s buffers.
    ///
    /// Matches `RowColumnDct2d::dct2` exactly (library normalization).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn dct2_with(&self, x: &[T], work: &mut Dct2dWork<T>, out: &mut Vec<T>) {
        self.transform_with(Transform2d::Dct2, x, work, out);
    }

    /// Forward 2-D DCT returning a fresh buffer; see
    /// [`Dct2dPlan::dct2_with`] for the allocation-free variant.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn dct2(&self, x: &[T]) -> Vec<T> {
        let mut work = Dct2dWork::new();
        let mut out = Vec::new();
        self.dct2_with(x, &mut work, &mut out);
        out
    }

    /// Inverse 2-D DCT (paper Algorithm 4, `2D_IDCT`) into `out`, reusing
    /// `work`'s buffers; the exact inverse of [`Dct2dPlan::dct2_with`].
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != n1 * n2`.
    pub fn idct2_with(&self, c: &[T], work: &mut Dct2dWork<T>, out: &mut Vec<T>) {
        self.transform_with(Transform2d::Idct2, c, work, out);
    }

    /// Inverse 2-D DCT returning a fresh buffer; see
    /// [`Dct2dPlan::idct2_with`] for the allocation-free variant.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != n1 * n2`.
    pub fn idct2(&self, c: &[T]) -> Vec<T> {
        let mut work = Dct2dWork::new();
        let mut out = Vec::new();
        self.idct2_with(c, &mut work, &mut out);
        out
    }

    /// IDCT along dimension 1, IDXST along dimension 2 (paper Algorithm 4,
    /// `IDCT_IDXST`; used for the Y electric field, Eq. (9d)) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn idct_idxst_with(&self, x: &[T], work: &mut Dct2dWork<T>, out: &mut Vec<T>) {
        self.transform_with(Transform2d::IdctIdxst, x, work, out);
    }

    /// [`Dct2dPlan::idct_idxst_with`] returning a fresh buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn idct_idxst(&self, x: &[T]) -> Vec<T> {
        let mut work = Dct2dWork::new();
        let mut out = Vec::new();
        self.idct_idxst_with(x, &mut work, &mut out);
        out
    }

    /// IDXST along dimension 1, IDCT along dimension 2 (paper Algorithm 4,
    /// `IDXST_IDCT`; used for the X electric field, Eq. (9c)) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn idxst_idct_with(&self, x: &[T], work: &mut Dct2dWork<T>, out: &mut Vec<T>) {
        self.transform_with(Transform2d::IdxstIdct, x, work, out);
    }

    /// [`Dct2dPlan::idxst_idct_with`] returning a fresh buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n1 * n2`.
    pub fn idxst_idct(&self, x: &[T]) -> Vec<T> {
        let mut work = Dct2dWork::new();
        let mut out = Vec::new();
        self.idxst_idct_with(x, &mut work, &mut out);
        out
    }
}

/// The 1-D even/odd reorder of Algorithm 3 as an index map:
/// `out[t] = 2t` for `t < n/2`, else `2(n - t) - 1`.
fn reorder_index(n: usize) -> Vec<usize> {
    (0..n)
        .map(|t| if t < n / 2 { 2 * t } else { 2 * (n - t) - 1 })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn matrix(n1: usize, n2: usize) -> Vec<f64> {
        (0..n1 * n2)
            .map(|i| (i as f64 * 0.13).sin() + 0.01 * i as f64)
            .collect()
    }

    /// Test-only reference sweeps: the 2-D real FFT of the row-major
    /// `real` composed from scalar `RfftPlan::forward_into` per row and
    /// scalar `FftPlan::forward` per gathered column — what the lane sweeps
    /// must reproduce bit for bit.
    fn scalar_rfft2<T: Float>(plan: &Dct2dPlan<T>, real: &[T]) -> Vec<Complex<T>> {
        let (n1, n2) = plan.shape();
        let n2h = n2 / 2 + 1;
        let mut spec = vec![Complex::zero(); n1 * n2h];
        let mut scratch = vec![Complex::zero(); n2 / 2];
        for r in 0..n1 {
            plan.row_rfft.forward_into(
                &real[r * n2..(r + 1) * n2],
                &mut spec[r * n2h..(r + 1) * n2h],
                &mut scratch,
            );
        }
        scalar_columns(&mut spec, n2h, |col| plan.col_fft.forward(col));
        spec
    }

    /// Applies `f` to each gathered column of a row-major `? x n2h` matrix.
    fn scalar_columns<T: Float>(
        spec: &mut [Complex<T>],
        n2h: usize,
        f: impl Fn(&mut [Complex<T>]),
    ) {
        for c in 0..n2h {
            let mut col: Vec<Complex<T>> = spec.iter().skip(c).step_by(n2h).copied().collect();
            f(&mut col);
            for (slot, v) in spec.iter_mut().skip(c).step_by(n2h).zip(col) {
                *slot = v;
            }
        }
    }

    /// Scalar inverse of [`scalar_rfft2`]: columns first, then rows.
    fn scalar_irfft2<T: Float>(plan: &Dct2dPlan<T>, mut spec: Vec<Complex<T>>) -> Vec<T> {
        let (n1, n2) = plan.shape();
        let n2h = n2 / 2 + 1;
        scalar_columns(&mut spec, n2h, |col| plan.col_fft.inverse(col));
        let mut real = vec![T::ZERO; n1 * n2];
        let mut scratch = vec![Complex::zero(); n2 / 2];
        for r in 0..n1 {
            plan.row_rfft.inverse_into(
                &spec[r * n2h..(r + 1) * n2h],
                &mut real[r * n2..(r + 1) * n2],
                &mut scratch,
            );
        }
        real
    }

    /// Eq. 10 as a materialised copy: `real[i][j] = x[r1[i]][r2[j]]`.
    fn reorder<T: Float>(plan: &Dct2dPlan<T>, x: &[T]) -> Vec<T> {
        let n2 = plan.n2;
        let mut real = vec![T::ZERO; x.len()];
        for (i, &src_i) in plan.r1.iter().enumerate() {
            for (j, &src_j) in plan.r2.iter().enumerate() {
                real[i * n2 + j] = x[src_i * n2 + src_j];
            }
        }
        real
    }

    /// Eq. 13, the inverse of [`reorder`]: `out[r1[i]][r2[j]] = real[i][j]`.
    fn unreorder<T: Float>(plan: &Dct2dPlan<T>, real: &[T]) -> Vec<T> {
        let n2 = plan.n2;
        let mut out = vec![T::ZERO; real.len()];
        for (i, &dst_i) in plan.r1.iter().enumerate() {
            for (j, &dst_j) in plan.r2.iter().enumerate() {
                out[dst_i * n2 + dst_j] = real[i * n2 + j];
            }
        }
        out
    }

    /// Eq. 11 one output at a time: every bin of the wrapped spectrum read
    /// through Hermitian symmetry `V(k1, k2) = conj(V((n1-k1)%n1, n2-k2))`.
    fn definitional_dct2_post<T: Float>(plan: &Dct2dPlan<T>, spec: &[Complex<T>]) -> Vec<T> {
        let (n1, n2) = plan.shape();
        let n2h = n2 / 2 + 1;
        let spec_at = |k1: usize, k2: usize| -> Complex<T> {
            if k2 < n2h {
                spec[k1 * n2h + k2]
            } else {
                spec[(n1 - k1) % n1 * n2h + (n2 - k2)].conj()
            }
        };
        let scale = T::TWO / T::from_usize(n1 * n2);
        let mut out = vec![T::ZERO; n1 * n2];
        for k1 in 0..n1 {
            for k2 in 0..n2 {
                let v = spec_at(k1, k2);
                let vr = spec_at(k1, (n2 - k2) % n2);
                let inner = plan.w2[k2] * v + plan.w2[k2].conj() * vr;
                out[k1 * n2 + k2] = (plan.w1[k1] * inner).re * scale;
            }
        }
        out
    }

    /// Eq. 12 one bin at a time: all four inputs through one zero-padding
    /// accessor.
    fn definitional_idct2_pre<T: Float>(plan: &Dct2dPlan<T>, c: &[T]) -> Vec<Complex<T>> {
        let (n1, n2) = plan.shape();
        let n2h = n2 / 2 + 1;
        let quarter = T::from_usize(n1 * n2) * T::from_f64(0.25);
        let at = |k1: usize, k2: usize| -> T {
            if k1 >= n1 || k2 >= n2 {
                T::ZERO
            } else {
                c[k1 * n2 + k2]
            }
        };
        let mut spec = vec![Complex::zero(); n1 * n2h];
        for k1 in 0..n1 {
            for k2 in 0..n2h {
                let bracket = Complex::new(
                    at(k1, k2) - at(n1 - k1, n2 - k2),
                    -(at(n1 - k1, k2) + at(k1, n2 - k2)),
                );
                let w = plan.w1[k1].conj() * plan.w2[k2].conj();
                spec[k1 * n2h + k2] = (w * bracket).scale(quarter);
            }
        }
        spec
    }

    fn reference_dct2<T: Float>(plan: &Dct2dPlan<T>, x: &[T]) -> Vec<T> {
        definitional_dct2_post(plan, &scalar_rfft2(plan, &reorder(plan, x)))
    }

    fn reference_idct2<T: Float>(plan: &Dct2dPlan<T>, c: &[T]) -> Vec<T> {
        unreorder(plan, &scalar_irfft2(plan, definitional_idct2_pre(plan, c)))
    }

    /// Eq. 14: dimension 2 flipped, `x(., 0) -> 0`, as a materialised copy.
    fn flip_dim2<T: Float>(x: &[T], n1: usize, n2: usize) -> Vec<T> {
        let mut flipped = vec![T::ZERO; n1 * n2];
        for i in 0..n1 {
            for j in 1..n2 {
                flipped[i * n2 + j] = x[i * n2 + n2 - j];
            }
        }
        flipped
    }

    /// Eq. 16: dimension 1 flipped, `x(0, .) -> 0`, as a materialised copy.
    fn flip_dim1<T: Float>(x: &[T], n1: usize, n2: usize) -> Vec<T> {
        let mut flipped = vec![T::ZERO; n1 * n2];
        for i in 1..n1 {
            for j in 0..n2 {
                flipped[i * n2 + j] = x[(n1 - i) * n2 + j];
            }
        }
        flipped
    }

    /// Eq. 15: negates the odd columns in a second walk over `out`.
    fn negate_odd_columns<T: Float>(out: &mut [T], n2: usize) {
        for (idx, v) in out.iter_mut().enumerate() {
            if idx % n2 % 2 == 1 {
                *v = -*v;
            }
        }
    }

    /// Eq. 17: negates the odd rows in a second walk over `out`.
    fn negate_odd_rows<T: Float>(out: &mut [T], n2: usize) {
        for (idx, v) in out.iter_mut().enumerate() {
            if idx / n2 % 2 == 1 {
                *v = -*v;
            }
        }
    }

    /// Eqs. 14-15 around the reference IDCT.
    fn reference_idct_idxst<T: Float>(plan: &Dct2dPlan<T>, x: &[T]) -> Vec<T> {
        let (n1, n2) = plan.shape();
        let mut out = reference_idct2(plan, &flip_dim2(x, n1, n2));
        negate_odd_columns(&mut out, n2);
        out
    }

    /// Eqs. 16-17 around the reference IDCT.
    fn reference_idxst_idct<T: Float>(plan: &Dct2dPlan<T>, x: &[T]) -> Vec<T> {
        let (n1, n2) = plan.shape();
        let mut out = reference_idct2(plan, &flip_dim1(x, n1, n2));
        negate_odd_rows(&mut out, n2);
        out
    }

    /// Algorithm 4's mixed transforms as written: a flipped copy through
    /// the production `idct2_with`, then the sign pass. What the folded
    /// pre/post kernels must reproduce bit for bit.
    fn assert_folded_mixed_transforms_match_flip_idct2_sign<T: Float>() {
        let mut work = Dct2dWork::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (n1, n2) in [(2, 4), (4, 4), (8, 16), (16, 8), (64, 16), (256, 256)] {
            let x: Vec<T> = matrix(n1, n2).into_iter().map(T::from_f64).collect();
            let plan = Dct2dPlan::<T>::new(n1, n2).expect("pow2");
            let check = |name: &str, got: &[T], want: &[T]| {
                assert_eq!(got.len(), want.len());
                for (k, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g.to_f64().to_bits(),
                        w.to_f64().to_bits(),
                        "{name} {} ({n1},{n2}) idx {k}",
                        T::PRECISION_NAME
                    );
                }
            };
            plan.idct_idxst_with(&x, &mut work, &mut got);
            plan.idct2_with(&flip_dim2(&x, n1, n2), &mut work, &mut want);
            negate_odd_columns(&mut want, n2);
            check("idct_idxst", &got, &want);

            plan.idxst_idct_with(&x, &mut work, &mut got);
            plan.idct2_with(&flip_dim1(&x, n1, n2), &mut work, &mut want);
            negate_odd_rows(&mut want, n2);
            check("idxst_idct", &got, &want);
        }
    }

    #[test]
    fn folded_mixed_transforms_are_bitwise_the_flip_idct2_sign_composition() {
        assert_folded_mixed_transforms_match_flip_idct2_sign::<f64>();
        assert_folded_mixed_transforms_match_flip_idct2_sign::<f32>();
    }

    fn assert_lane_sweeps_match_scalar_reference<T: Float>() {
        type Pair<T> = (
            &'static str,
            fn(&Dct2dPlan<T>, &[T]) -> Vec<T>,
            fn(&Dct2dPlan<T>, &[T]) -> Vec<T>,
        );
        let pairs: [Pair<T>; 4] = [
            ("dct2", Dct2dPlan::dct2, reference_dct2),
            ("idct2", Dct2dPlan::idct2, reference_idct2),
            ("idct_idxst", Dct2dPlan::idct_idxst, reference_idct_idxst),
            ("idxst_idct", Dct2dPlan::idxst_idct, reference_idxst_idct),
        ];
        // Fewer rows than LANES, exactly LANES, several sweeps, and n2h on
        // both sides of a lane-window multiple.
        for (n1, n2) in [(2, 8), (8, 16), (16, 8), (32, 32)] {
            let x: Vec<T> = matrix(n1, n2).into_iter().map(T::from_f64).collect();
            let plan = Dct2dPlan::<T>::new(n1, n2).expect("pow2");
            for (name, fast, reference) in pairs {
                let got = fast(&plan, &x);
                let want = reference(&plan, &x);
                assert_eq!(got.len(), want.len());
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    // f32 -> f64 is injective, so this is bit equality.
                    assert_eq!(
                        g.to_f64().to_bits(),
                        w.to_f64().to_bits(),
                        "{name} {} ({n1},{n2}) idx {k}",
                        T::PRECISION_NAME
                    );
                }
            }
        }
    }

    #[test]
    fn lane_sweeps_are_bitwise_identical_to_scalar_rows_and_columns() {
        assert_lane_sweeps_match_scalar_reference::<f64>();
        assert_lane_sweeps_match_scalar_reference::<f32>();
    }

    fn assert_in_place_matches_with<T: Float>() {
        type With<T> = fn(&Dct2dPlan<T>, &[T], &mut Dct2dWork<T>, &mut Vec<T>);
        let pairs: [(Transform2d, With<T>); 4] = [
            (Transform2d::Dct2, Dct2dPlan::dct2_with),
            (Transform2d::Idct2, Dct2dPlan::idct2_with),
            (Transform2d::IdxstIdct, Dct2dPlan::idxst_idct_with),
            (Transform2d::IdctIdxst, Dct2dPlan::idct_idxst_with),
        ];
        let mut work = Dct2dWork::new();
        for (n1, n2) in [(2, 4), (16, 16), (8, 32), (64, 16)] {
            let x: Vec<T> = matrix(n1, n2).into_iter().map(T::from_f64).collect();
            let plan = Dct2dPlan::<T>::new(n1, n2).expect("pow2");
            for (kind, with) in pairs {
                let mut want = Vec::new();
                with(&plan, &x, &mut work, &mut want);
                let mut got = x.clone();
                plan.transform_in_place(kind, &mut got, &mut work);
                let bits = |v: &[T]| v.iter().map(|e| e.to_f64().to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{kind:?} {} ({n1},{n2})",
                    T::PRECISION_NAME
                );
            }
        }
    }

    #[test]
    fn in_place_transforms_are_bitwise_the_with_transforms() {
        assert_in_place_matches_with::<f64>();
        assert_in_place_matches_with::<f32>();
    }

    #[test]
    fn unsupported_shapes_say_what_is_wrong() {
        let message = |n1, n2| match Dct2dPlan::<f64>::new(n1, n2) {
            Ok(_) => panic!("({n1},{n2}) must be rejected"),
            Err(e) => e.to_string(),
        };
        assert_eq!(message(4, 2), "transform length 2 is below the minimum 4");
        assert_eq!(
            message(0, 8),
            "transform length 0 is not a power of two >= 2"
        );
        assert_eq!(
            message(3, 8),
            "transform length 3 is not a power of two >= 2"
        );
    }

    #[test]
    fn phase_counters_accumulate_and_drain() {
        let plan = Dct2dPlan::<f64>::new(32, 32).expect("pow2");
        let mut work = Dct2dWork::new();
        let mut out = Vec::new();
        plan.dct2_with(&matrix(32, 32), &mut work, &mut out);
        let phases = work.take_phases();
        assert!(phases.butterfly_nanos > 0, "butterfly sweeps take time");
        assert_eq!(work.take_phases(), TransformPhases::default());
    }

    #[test]
    fn direct_2d_round_trips() {
        let (n1, n2) = (32, 16);
        let x = matrix(n1, n2);
        let plan = Dct2dPlan::new(n1, n2).expect("pow2");
        let back = plan.idct2(&plan.dct2(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn mixed_transforms_match_row_column() {
        let (n1, n2) = (16, 8);
        let x = matrix(n1, n2);
        let direct = Dct2dPlan::new(n1, n2).expect("pow2");
        let rc = RowColumnDct2d::new(n1, n2, Dct1dTier::NPoint).expect("pow2");
        let a = direct.idct_idxst(&x);
        let b = rc.idct_idxst(&x);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9);
        }
        let a = direct.idxst_idct(&x);
        let b = rc.idxst_idct(&x);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_tiled_round_trips_odd_shapes() {
        // Shapes straddling the tile edge, including the n2h = n2/2 + 1
        // odd column counts the spectrum buffers actually use.
        for (rows, cols) in [(1, 1), (1, 9), (9, 1), (16, 16), (17, 5), (32, 17)] {
            let src: Vec<u32> = (0..rows * cols).map(|i| i as u32).collect();
            let mut t = vec![0u32; rows * cols];
            let mut back = vec![0u32; rows * cols];
            transpose_tiled(&src, rows, cols, &mut t);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t[c * rows + r], src[r * cols + c]);
                }
            }
            transpose_tiled(&t, cols, rows, &mut back);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn work_reuse_across_overlapping_shapes_is_bitwise_clean() {
        // One Dct2dWork serving plans of different (overlapping) shapes must
        // produce outputs bitwise identical to a fresh work per call: stale
        // lanes from a previous, larger shape must never leak into a later
        // transform's sweep.
        let shapes = [(32usize, 8usize), (8, 32), (4, 4), (16, 16)];
        let mut shared = Dct2dWork::new();
        for &(n1, n2) in &shapes {
            let plan = Dct2dPlan::<f64>::new(n1, n2).expect("pow2");
            let x = matrix(n1, n2);
            let mut out_shared = Vec::new();
            let mut out_fresh = Vec::new();
            plan.dct2_with(&x, &mut shared, &mut out_shared);
            plan.dct2_with(&x, &mut Dct2dWork::new(), &mut out_fresh);
            for (a, b) in out_shared.iter().zip(&out_fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "dct2 shape ({n1},{n2})");
            }
            plan.idxst_idct_with(&x, &mut shared, &mut out_shared);
            plan.idxst_idct_with(&x, &mut Dct2dWork::new(), &mut out_fresh);
            for (a, b) in out_shared.iter().zip(&out_fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "idxst_idct shape ({n1},{n2})");
            }
        }
    }

    #[test]
    fn all_three_tiers_agree_on_dct2() {
        let (n1, n2) = (16, 16);
        let x = matrix(n1, n2);
        let t2n = RowColumnDct2d::new(n1, n2, Dct1dTier::TwoN)
            .expect("pow2")
            .dct2(&x);
        let tn = RowColumnDct2d::new(n1, n2, Dct1dTier::NPoint)
            .expect("pow2")
            .dct2(&x);
        let t2d = Dct2dPlan::new(n1, n2).expect("pow2").dct2(&x);
        for ((a, b), c) in t2n.iter().zip(&tn).zip(&t2d) {
            assert!((a - b).abs() < 1e-9);
            assert!((a - c).abs() < 1e-9);
        }
    }
}
