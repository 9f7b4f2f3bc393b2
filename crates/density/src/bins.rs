//! The bin grid discretizing the placement region.

use std::error::Error;
use std::fmt;
use std::ops::Range;

use dp_dct::TransformError;
use dp_netlist::Rect;
use dp_num::Float;

/// Error raised when constructing a [`BinGrid`].
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// The bin counts are unsupported by the fast-transform plans
    /// downstream.
    Transform(TransformError),
    /// The placement region has zero, negative, or non-finite extent:
    /// every bin would be zero-sized and bin lookups would divide by zero.
    DegenerateRegion {
        /// Region width in layout units.
        width: f64,
        /// Region height in layout units.
        height: f64,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Transform(e) => e.fmt(f),
            GridError::DegenerateRegion { width, height } => {
                write!(f, "placement region {width} x {height} has no area")
            }
        }
    }
}

impl Error for GridError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GridError::Transform(e) => Some(e),
            GridError::DegenerateRegion { .. } => None,
        }
    }
}

impl From<TransformError> for GridError {
    fn from(e: TransformError) -> Self {
        GridError::Transform(e)
    }
}

/// An `mx x my` grid of bins over the placement region.
///
/// Bin `(i, j)` covers `[xl + i*bw, xl + (i+1)*bw] x [yl + j*bh, ...]` and is
/// stored row-major with `i` (the x index) as dimension 1, matching the
/// layout the DCT plans expect.
///
/// # Examples
///
/// ```
/// use dp_netlist::Rect;
///
/// # fn main() -> Result<(), dp_density::GridError> {
/// let grid = dp_density::BinGrid::new(Rect::new(0.0f64, 0.0, 64.0, 32.0), 8, 4)?;
/// assert_eq!(grid.bin_width(), 8.0);
/// assert_eq!(grid.bin_height(), 8.0);
/// assert_eq!(grid.num_bins(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinGrid<T> {
    region: Rect<T>,
    mx: usize,
    my: usize,
    bin_w: T,
    bin_h: T,
    /// `1 / bin_w` and `1 / bin_h`: bin lookups and the force gather
    /// multiply by these instead of dividing per cell.
    inv_bin_w: T,
    inv_bin_h: T,
    /// `sqrt(2) * bin_w` and `sqrt(2) * bin_h`, the narrowest footprint
    /// ePlace's smoothing lets a cell have, and their reciprocals (the
    /// density scale of a stretched footprint is `w / stretch_w`).
    stretch_w: T,
    stretch_h: T,
    inv_stretch_w: T,
    inv_stretch_h: T,
}

impl<T: Float> BinGrid<T> {
    /// Creates a grid with `mx x my` bins (both powers of two, down to a
    /// single bin per axis) over a region with positive area.
    ///
    /// Shapes below the spectral solver's minimum (`mx >= 2`, `my >= 4`)
    /// are accepted: [`BinGrid::supports_spectral_solve`] reports whether
    /// the fast-transform plans can run on this grid, and the density
    /// operator degrades to a uniform-field mode (zero field, zero energy)
    /// when they cannot — the physically correct answer for a density map
    /// the grid cannot resolve.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::Transform`] for non-power-of-two bin counts and
    /// [`GridError::DegenerateRegion`] when the region has no area (which
    /// would make every bin zero-sized).
    pub fn new(region: Rect<T>, mx: usize, my: usize) -> Result<Self, GridError> {
        if !mx.is_power_of_two() {
            return Err(TransformError::NonPowerOfTwo { n: mx }.into());
        }
        if !my.is_power_of_two() {
            return Err(TransformError::NonPowerOfTwo { n: my }.into());
        }
        let (w, h) = (region.width().to_f64(), region.height().to_f64());
        // The finiteness checks also reject NaN extents, which compare
        // false against everything.
        if !w.is_finite() || !h.is_finite() || w <= 0.0 || h <= 0.0 {
            return Err(GridError::DegenerateRegion {
                width: w,
                height: h,
            });
        }
        let bin_w = region.width() / T::from_usize(mx);
        let bin_h = region.height() / T::from_usize(my);
        let sqrt2 = T::from_f64(std::f64::consts::SQRT_2);
        let (stretch_w, stretch_h) = (bin_w * sqrt2, bin_h * sqrt2);
        Ok(Self {
            region,
            mx,
            my,
            bin_w,
            bin_h,
            inv_bin_w: T::ONE / bin_w,
            inv_bin_h: T::ONE / bin_h,
            stretch_w,
            stretch_h,
            inv_stretch_w: T::ONE / stretch_w,
            inv_stretch_h: T::ONE / stretch_h,
        })
    }

    /// The covered region.
    pub fn region(&self) -> Rect<T> {
        self.region
    }

    /// Bin count along x.
    pub fn mx(&self) -> usize {
        self.mx
    }

    /// Bin count along y.
    pub fn my(&self) -> usize {
        self.my
    }

    /// Total number of bins.
    pub fn num_bins(&self) -> usize {
        self.mx * self.my
    }

    /// Whether the fast-transform plans downstream support this shape
    /// (`mx >= 2` and `my >= 4`). Below that, the spectral Poisson solve
    /// cannot run and density operators fall back to a uniform field.
    pub fn supports_spectral_solve(&self) -> bool {
        self.mx >= 2 && self.my >= 4
    }

    /// Bin width in layout units.
    pub fn bin_width(&self) -> T {
        self.bin_w
    }

    /// Bin height in layout units.
    pub fn bin_height(&self) -> T {
        self.bin_h
    }

    /// Bin area in layout units.
    pub fn bin_area(&self) -> T {
        self.bin_w * self.bin_h
    }

    /// `(1 / bin_width, 1 / bin_height)`.
    pub(crate) fn inv_bin_size(&self) -> (T, T) {
        (self.inv_bin_w, self.inv_bin_h)
    }

    /// The smoothing's minimum footprint `sqrt(2) x` a bin, per axis, and
    /// its reciprocals: `(stretch_w, stretch_h, 1 / stretch_w, 1 / stretch_h)`.
    pub(crate) fn stretch(&self) -> (T, T, T, T) {
        (
            self.stretch_w,
            self.stretch_h,
            self.inv_stretch_w,
            self.inv_stretch_h,
        )
    }

    /// Flat index of bin `(i, j)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.mx && j < self.my);
        i * self.my + j
    }

    /// The rectangle of bin `(i, j)` in layout units.
    pub fn bin_rect(&self, i: usize, j: usize) -> Rect<T> {
        let xl = self.region.xl + self.bin_w * T::from_usize(i);
        let yl = self.region.yl + self.bin_h * T::from_usize(j);
        Rect::new(xl, yl, xl + self.bin_w, yl + self.bin_h)
    }

    /// `rect`'s x and y extents in bin units (see [`BinSpan`]): one
    /// subtraction and one multiply by `1 / bin size` per edge.
    #[inline]
    pub(crate) fn spans(&self, rect: &Rect<T>) -> Spans<T> {
        let span = |lo: T, hi: T, origin: T, inv: T, size: T| BinSpan {
            lo: (lo - origin) * inv,
            hi: (hi - origin) * inv,
            size,
        };
        let r = &self.region;
        (
            span(rect.xl, rect.xh, r.xl, self.inv_bin_w, self.bin_w),
            span(rect.yl, rect.yh, r.yl, self.inv_bin_h, self.bin_h),
        )
    }

    /// The bin index ranges `(i0..i1, j0..j1)` of two spans: exactly the
    /// bins of positive overlap (see [`BinSpan::bins`]).
    #[inline]
    pub(crate) fn bins_of(&self, (x, y): &Spans<T>) -> (Range<usize>, Range<usize>) {
        (x.bins(self.mx), y.bins(self.my))
    }

    /// Inclusive-exclusive bin index ranges `(i0..i1, j0..j1)` overlapped by
    /// `rect`, clamped to the grid; empty ranges when fully outside.
    ///
    /// Exactly the bins the density stencil gives a positive overlap: it
    /// measures overlaps in bin units, where bin edges are the integers,
    /// so the range and the overlaps are computed against the same exact
    /// edges (see `BinSpan`) — with a multiply, not a division.
    #[inline]
    pub fn overlapped_bins(&self, rect: &Rect<T>) -> (Range<usize>, Range<usize>) {
        self.bins_of(&self.spans(rect))
    }
}

/// The x and y [`BinSpan`]s of one rect.
pub(crate) type Spans<T> = (BinSpan<T>, BinSpan<T>);

/// One axis of a rect in bin units: its edges as fractional bin indices
/// (`(x - region origin) * (1 / bin size)`), so bin `i` spans exactly
/// `[i, i + 1]` — integers, exact in floating point. The density stencil
/// computes every overlap against these edges ([`BinSpan::overlap`]) and
/// every bin range from them ([`BinSpan::bins`]), so the two agree by
/// construction: a range never omits a bin of positive overlap and, for a
/// span of positive width, never includes one of zero overlap. (Measuring
/// against rounded layout-unit edges `origin + bin_w * i` instead, as the
/// stencil did before, ranges from `floor`/`ceil` of a division omit
/// one-ulp slivers when a rect edge sits on or next to a bin edge.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinSpan<T> {
    lo: T,
    hi: T,
    /// Bin size along the axis, scaling overlaps back to layout units.
    size: T,
}

impl<T: Float> BinSpan<T> {
    /// `floor(lo)..ceil(hi)`, clamped to the `n` bins of the axis: every
    /// bin `i` outside it has `i + 1 <= lo` or `i >= hi`, so zero overlap,
    /// and every bin inside it has `i < hi` and `i + 1 > lo`, so a positive
    /// one when `lo < hi`. Empty when the span lies outside the grid or is
    /// NaN.
    #[inline]
    pub(crate) fn bins(&self, n: usize) -> Range<usize> {
        floor_index(self.lo.to_f64()).min(n)..ceil_index(self.hi.to_f64()).min(n)
    }

    /// Length of the span's overlap with bin `i`, in layout units:
    /// `max(0, min(hi, i + 1) - max(lo, i)) * size`.
    #[inline]
    pub(crate) fn overlap(&self, i: usize) -> T {
        let edge = T::from_usize(i);
        ((edge + T::ONE).min(self.hi) - edge.max(self.lo)).max(T::ZERO) * self.size
    }
}

/// `v.floor().max(0.0) as usize` without the libm call `floor` compiles to
/// on baseline x86-64: a float-to-integer cast truncates toward zero (which
/// is `floor` for `v >= 0`) and saturates, sending every negative value and
/// NaN to 0 and everything beyond the `usize` range to `usize::MAX`.
#[inline]
fn floor_index(v: f64) -> usize {
    v as usize
}

/// `v.ceil().max(0.0) as usize` by exact integer conversion: the truncation
/// `t` is exact in `f64` whenever `v` has a fractional part (`v < 2^52`), so
/// `t < v` holds exactly when `v` is positive and not an integer.
#[inline]
fn ceil_index(v: f64) -> usize {
    let t = v as usize;
    t.saturating_add(usize::from((t as f64) < v))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid() -> BinGrid<f64> {
        BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 8, 8).expect("pow2")
    }

    #[test]
    fn rejects_non_power_of_two_dimensions() {
        let r = Rect::new(0.0f64, 0.0, 10.0, 10.0);
        assert!(BinGrid::new(r, 3, 8).is_err());
        assert!(BinGrid::new(r, 8, 6).is_err());
        assert!(BinGrid::new(r, 0, 8).is_err());
        assert!(BinGrid::new(r, 8, 0).is_err());
    }

    #[test]
    fn sub_spectral_shapes_build_but_report_no_solve_support() {
        // The formerly-erroring degenerate shapes: each builds into a
        // usable grid (overflow and bin lookups work) that reports the
        // spectral solve as unsupported.
        let r = Rect::new(0.0f64, 0.0, 10.0, 10.0);
        for (mx, my) in [(1, 1), (1, 4), (2, 1), (8, 2)] {
            let g = BinGrid::new(r, mx, my).unwrap_or_else(|e| panic!("({mx},{my}): {e}"));
            assert!(!g.supports_spectral_solve(), "({mx},{my})");
            assert_eq!(g.num_bins(), mx * my);
            let (is, js) = g.overlapped_bins(&Rect::new(1.0, 1.0, 9.0, 9.0));
            assert_eq!(is, 0..mx);
            assert_eq!(js, 0..my);
            let mut total = 0.0;
            for i in 0..g.mx() {
                for j in 0..g.my() {
                    total += g.bin_rect(i, j).area();
                }
            }
            assert!((total - r.area()).abs() < 1e-9, "({mx},{my})");
        }
        // The minimum spectral shape still reports support.
        let g = BinGrid::new(r, 2, 4).expect("minimal spectral shape");
        assert!(g.supports_spectral_solve());
    }

    #[test]
    fn rejects_degenerate_region() {
        // Zero-width, zero-height, and NaN extents all yield the typed
        // error instead of a grid with zero-sized bins. (The NaN rect is
        // built from raw fields; `Rect::new` already rejects it.)
        for r in [
            Rect::new(0.0f64, 0.0, 0.0, 10.0),
            Rect::new(0.0f64, 0.0, 10.0, 0.0),
            Rect {
                xl: 0.0f64,
                yl: 0.0,
                xh: f64::NAN,
                yh: 10.0,
            },
        ] {
            match BinGrid::new(r, 8, 8) {
                Err(GridError::DegenerateRegion { .. }) => {}
                other => panic!("expected DegenerateRegion, got {other:?}"),
            }
        }
    }

    #[test]
    fn bin_rect_tiles_region() {
        let g = grid();
        let mut total = 0.0;
        for i in 0..g.mx() {
            for j in 0..g.my() {
                total += g.bin_rect(i, j).area();
            }
        }
        assert!((total - g.region().area()).abs() < 1e-9);
    }

    #[test]
    fn overlapped_bins_cover_rect() {
        let g = grid();
        let r = Rect::new(10.0, 20.0, 30.0, 25.0);
        let (is, js) = g.overlapped_bins(&r);
        assert_eq!(is, 1..4); // bins [8,16),[16,24),[24,32)
        assert_eq!(js, 2..4); // bins [16,24),[24,32)
                              // sum of overlaps equals the rect area
        let mut sum = 0.0;
        for i in is.clone() {
            for j in js.clone() {
                sum += g.bin_rect(i, j).overlap_area(&r);
            }
        }
        assert!((sum - r.area()).abs() < 1e-9);
    }

    #[test]
    fn integer_floor_and_ceil_equal_libm_on_edges_and_across_binades() {
        let check = |v: f64| {
            assert_eq!(floor_index(v), v.floor().max(0.0) as usize, "floor {v:e}");
            assert_eq!(ceil_index(v), v.ceil().max(0.0) as usize, "ceil {v:e}");
        };
        let p51 = (1u64 << 51) as f64;
        for v in [
            0.0,
            0.5,
            0.49999999999999994,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            p51 - 1.0,
            p51 - 0.5,
            p51,
            p51 + 1.0,
            2.0 * p51,
            2.0 * p51 - 0.5,
            9223372036854775808.0,  // 2^63
            18446744073709551616.0, // 2^64: past usize
            1e300,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            f64::INFINITY,
        ] {
            check(v);
            check(-v);
        }
        // Raw bit patterns (every binade, NaNs included), plus a draw pinned
        // to the index range a real grid produces.
        let mut rng = StdRng::seed_from_u64(0x5eed_0014);
        for _ in 0..500_000 {
            let bits: u64 = rng.gen();
            check(f64::from_bits(bits));
            let exp = 1015 + (bits >> 52) % 72; // 2^-8 .. 2^63
            check(f64::from_bits((bits & !(0x7ffu64 << 52)) | (exp << 52)));
        }
    }

    #[test]
    fn overlapped_bins_match_the_libm_definition() {
        // The ranges the pre-stencil code computed with `floor`/`ceil`.
        let g = grid();
        let libm = |r: &Rect<f64>| {
            let lo = |x: f64, n: usize| ((x / 8.0).floor().max(0.0) as usize).min(n);
            let hi = |x: f64, n: usize| ((x / 8.0).ceil().max(0.0) as usize).min(n);
            (lo(r.xl, 8)..hi(r.xh, 8), lo(r.yl, 8)..hi(r.yh, 8))
        };
        for r in [
            Rect::new(10.0, 20.0, 30.0, 25.0),
            Rect::new(8.0, 8.0, 16.0, 24.0),
            Rect::new(-5.0, 60.0, 3.0, 70.0),
            Rect::new(-20.0, -20.0, -10.0, -10.0),
            Rect::new(100.0, 100.0, 110.0, 110.0),
            Rect::new(0.0, 0.0, 0.0, 0.0),
            Rect::new(-1e300, -1e300, 1e300, 1e300),
            Rect::new(63.999, 0.001, 64.0, 0.002),
        ] {
            assert_eq!(g.overlapped_bins(&r), libm(&r), "{r:?}");
        }
    }

    /// `v` moved one unit in the last place of `T`.
    fn ulp<T: Float>(v: T, up: bool) -> T {
        if std::mem::size_of::<T>() == 4 {
            let f = v.to_f64() as f32;
            T::from_f64(f64::from(if up { f.next_up() } else { f.next_down() }))
        } else {
            let f = v.to_f64();
            T::from_f64(if up { f.next_up() } else { f.next_down() })
        }
    }

    /// Checks one axis of one rect: `range` must hold exactly the bins of
    /// positive overlap — all of them (no omission) and, for a span of
    /// positive width, nothing else. Positive overlap holds on an interval
    /// of bins, so the range and two bins to either side decide it; an
    /// empty range is checked against every bin.
    fn assert_exact(span: &BinSpan<impl Float>, n: usize, range: &Range<usize>, what: &str) {
        let wide = span.lo < span.hi;
        let probe = if range.is_empty() {
            0..n
        } else {
            range.start.saturating_sub(2)..(range.end + 2).min(n)
        };
        for i in probe {
            let positive = span.overlap(i) > Float::ZERO;
            if range.contains(&i) {
                assert_eq!(positive, wide, "bin {i} inside {range:?}: {what}");
            } else {
                assert!(
                    !positive,
                    "bin {i} of positive overlap omitted by {range:?}: {what}"
                );
            }
        }
    }

    /// Satellite proof for the multiply-based bin lookup: over 10^6 rects
    /// per precision, with edges exactly on the grid's computed bin edges
    /// (`bin_rect`'s, `origin + bin_w * i`), one ulp to either side of them,
    /// within a bin of them, or anywhere in and around the region
    /// (zero-width rects included), `overlapped_bins` never omits a bin
    /// whose stencil overlap is positive — and holds no other bin.
    fn lookup_is_exact<T: Float>(seed: u64) {
        let f = T::from_f64;
        let grids = [
            BinGrid::new(Rect::new(f(-3.7), f(1.3), f(96.4), f(211.9)), 16, 64),
            BinGrid::new(
                Rect::new(f(1234.567), f(-89.01), f(2012.3), f(244.29)),
                256,
                64,
            ),
            BinGrid::new(Rect::new(f(0.0), f(0.0), f(1000.1), f(333.3)), 8, 256),
        ]
        .map(|g| g.expect("pow2"));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rects = 0usize;
        for g in &grids {
            let r = g.region();
            // One coordinate near bin `k`'s low or high edge along an axis
            // of `n` bins: on it, one ulp off it, within a bin of it, or
            // (one time in five) anywhere over the axis plus a bin of
            // margin.
            let near = |rng: &mut StdRng, (l, h): (T, T), lo: T, hi: T, n: usize| {
                let e = if rng.gen() { l } else { h };
                let size = (hi - lo) / T::from_usize(n);
                match rng.gen_range(0..5) {
                    0 => e,
                    1 => ulp(e, true),
                    2 => ulp(e, false),
                    3 => e + size * f(rng.gen_range(-1.0..1.0)),
                    _ => f(rng.gen_range((lo - size).to_f64()..(hi + size).to_f64())),
                }
            };
            let x_edges = |i: usize| (g.bin_rect(i, 0).xl, g.bin_rect(i, 0).xh);
            let y_edges = |j: usize| (g.bin_rect(0, j).yl, g.bin_rect(0, j).yh);
            for _ in 0..350_000 {
                // Two edges at most four bins apart, like a cell's.
                let mut coord = |n: usize, edges: &dyn Fn(usize) -> (T, T), lo: T, hi: T| {
                    let k = rng.gen_range(0..n);
                    let k2 = (k + rng.gen_range(0..4)).min(n - 1);
                    let a = near(&mut rng, edges(k), lo, hi, n);
                    let b = near(&mut rng, edges(k2), lo, hi, n);
                    (a.min(b), a.max(b))
                };
                let (xl, xh) = coord(g.mx(), &x_edges, r.xl, r.xh);
                let (yl, yh) = coord(g.my(), &y_edges, r.yl, r.yh);
                let rect = Rect { xl, yl, xh, yh };
                let (x, y) = g.spans(&rect);
                let (is, js) = g.overlapped_bins(&rect);
                let what = format!("{} {rect:?} on {r:?}", T::PRECISION_NAME);
                assert_exact(&x, g.mx(), &is, &what);
                assert_exact(&y, g.my(), &js, &what);
                rects += 1;
            }
        }
        assert!(rects >= 1_000_000);
    }

    #[test]
    fn multiply_based_lookup_never_omits_an_overlapped_bin_f64() {
        lookup_is_exact::<f64>(0xb1_5f64);
    }

    #[test]
    fn multiply_based_lookup_never_omits_an_overlapped_bin_f32() {
        lookup_is_exact::<f32>(0xb1_5f32);
    }

    #[test]
    fn out_of_region_rect_yields_empty_ranges() {
        let g = grid();
        let r = Rect::new(100.0, 100.0, 110.0, 110.0);
        let (is, js) = g.overlapped_bins(&r);
        assert!(is.is_empty() && js.is_empty());
        let r = Rect::new(-20.0, -20.0, -10.0, -10.0);
        let (is, js) = g.overlapped_bins(&r);
        assert!(is.is_empty() || js.is_empty());
    }

    #[test]
    fn boundary_alignment() {
        let g = grid();
        // A rect exactly on bin boundaries overlaps exactly those bins.
        let r = Rect::new(8.0, 8.0, 16.0, 24.0);
        let (is, js) = g.overlapped_bins(&r);
        assert_eq!(is, 1..2);
        assert_eq!(js, 1..3);
    }
}
