//! Legality checking: overlaps, row alignment, region containment.

use dp_netlist::{Netlist, Placement, Rect};
use dp_num::Float;

/// Result of a legality check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LegalityReport {
    /// Pairs of movable cells (or movable-fixed pairs) whose interiors
    /// overlap.
    pub overlaps: usize,
    /// Movable cells whose bottom edge is not on a row boundary.
    pub off_row: usize,
    /// Movable cells extending outside the placement region.
    pub out_of_region: usize,
    /// Movable cells not aligned to the site grid (informational; not part
    /// of [`LegalityReport::is_legal`] because macros may sit off-grid and
    /// shift segment boundaries).
    pub off_site: usize,
}

impl LegalityReport {
    /// `true` when there are no overlaps, off-row cells, or out-of-region
    /// cells.
    pub fn is_legal(&self) -> bool {
        self.overlaps == 0 && self.off_row == 0 && self.out_of_region == 0
    }
}

/// Checks a placement for legality (O(n log n) sweep by row).
///
/// # Examples
///
/// See the crate-level example.
pub fn check_legal<T: Float>(nl: &Netlist<T>, p: &Placement<T>) -> LegalityReport {
    let mut report = LegalityReport::default();
    let eps = 1e-6;
    let region = nl.region();

    let rects: Vec<Rect<T>> = (0..nl.num_cells())
        .map(|i| Rect::from_center(p.x[i], p.y[i], nl.cell_widths()[i], nl.cell_heights()[i]))
        .collect();

    // Row / site / region checks.
    if let Some(rows) = nl.rows() {
        let row_h = rows.row_height().to_f64();
        let y0 = rows.rows().first().map(|r| r.y.to_f64()).unwrap_or(0.0);
        for rect in rects.iter().take(nl.num_movable()) {
            let yl = rect.yl.to_f64();
            let rel = (yl - y0) / row_h;
            if (rel - rel.round()).abs() > eps {
                report.off_row += 1;
            }
            if let Some(row) = rows.row_of_y(rect.yl) {
                let r = rows.rows()[row];
                let sx = ((rect.xl - r.xl) / r.site_width).to_f64();
                if (sx - sx.round()).abs() > eps {
                    report.off_site += 1;
                }
            }
        }
    }
    for rect in rects.iter().take(nl.num_movable()) {
        if rect.xl.to_f64() < region.xl.to_f64() - eps
            || rect.xh.to_f64() > region.xh.to_f64() + eps
            || rect.yl.to_f64() < region.yl.to_f64() - eps
            || rect.yh.to_f64() > region.yh.to_f64() + eps
        {
            report.out_of_region += 1;
        }
    }

    // Overlaps: bucket cells by bottom y (row), sweep each bucket by x.
    let mut by_band: std::collections::HashMap<i64, Vec<usize>> = std::collections::HashMap::new();
    let band = nl
        .rows()
        .map(|rw| rw.row_height().to_f64())
        .unwrap_or(1.0)
        .max(1e-9);
    for (i, r) in rects.iter().enumerate() {
        // Fixed macros can span several bands; register in each.
        let lo = (r.yl.to_f64() / band).floor() as i64;
        let hi = ((r.yh.to_f64() - 1e-9) / band).floor() as i64;
        for b in lo..=hi {
            by_band.entry(b).or_default().push(i);
        }
    }
    let mut counted = std::collections::HashSet::new();
    for (_, mut bucket) in by_band {
        // Non-finite coordinates compare `Equal`; the sweep still counts
        // their overlaps (overlap_area of a NaN rect is 0, so corrupted
        // cells show up via the bounds check instead).
        bucket.sort_by(|&a, &b| {
            rects[a]
                .xl
                .partial_cmp(&rects[b].xl)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for k in 0..bucket.len() {
            let a = bucket[k];
            for &b in &bucket[k + 1..] {
                if rects[b].xl.to_f64() >= rects[a].xh.to_f64() - eps {
                    break;
                }
                // Skip fixed-fixed pairs; only movable placement is judged.
                if a >= nl.num_movable() && b >= nl.num_movable() {
                    continue;
                }
                let ov = rects[a].overlap_area(&rects[b]).to_f64();
                if ov > eps
                    && overlaps_beyond_rounding(&rects[a], &rects[b])
                    && counted.insert((a.min(b), a.max(b)))
                {
                    report.overlaps += 1;
                }
            }
        }
    }
    report
}

/// `true` when both extents of the overlap of `a` and `b` are wider than a
/// few ulps of `T` at the coordinates' magnitude. `Rect::from_center`
/// rounds each edge of a site-snapped cell separately, so in `f32` two
/// abutting cells can share an edge one ulp apart; that is rounding, not an
/// overlap. In `f64` the tolerance is about 1e-12 and counts nothing new.
fn overlaps_beyond_rounding<T: Float>(a: &Rect<T>, b: &Rect<T>) -> bool {
    let wider = |lo: T, hi: T| {
        let (lo, hi) = (lo.to_f64(), hi.to_f64());
        hi - lo > 4.0 * T::EPSILON.to_f64() * lo.abs().max(hi.abs()).max(1.0)
    };
    wider(a.xl.max(b.xl), a.xh.min(b.xh)) && wider(a.yl.max(b.yl), a.yh.min(b.yh))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_netlist::{NetlistBuilder, RowGrid};

    fn netlist() -> Netlist<f64> {
        let rows = RowGrid::uniform(0.0, 0.0, 40.0, 16.0, 8.0, 1.0);
        let mut b = NetlistBuilder::new(0.0, 0.0, 40.0, 16.0).with_rows(rows);
        let a = b.add_movable_cell(4.0, 8.0);
        let c = b.add_movable_cell(4.0, 8.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        b.build().expect("valid")
    }

    #[test]
    fn legal_placement_passes() {
        let nl = netlist();
        let mut p = Placement::zeros(2);
        p.x = vec![2.0, 10.0];
        p.y = vec![4.0, 4.0];
        let r = check_legal(&nl, &p);
        assert!(r.is_legal(), "{r:?}");
        assert_eq!(r.off_site, 0);
    }

    #[test]
    fn overlap_detected() {
        let nl = netlist();
        let mut p = Placement::zeros(2);
        p.x = vec![2.0, 4.0];
        p.y = vec![4.0, 4.0];
        let r = check_legal(&nl, &p);
        assert_eq!(r.overlaps, 1);
        assert!(!r.is_legal());
    }

    #[test]
    fn off_row_detected() {
        let nl = netlist();
        let mut p = Placement::zeros(2);
        p.x = vec![2.0, 10.0];
        p.y = vec![5.5, 4.0];
        let r = check_legal(&nl, &p);
        assert_eq!(r.off_row, 1);
    }

    #[test]
    fn out_of_region_detected() {
        let nl = netlist();
        let mut p = Placement::zeros(2);
        p.x = vec![-2.0, 10.0];
        p.y = vec![4.0, 4.0];
        let r = check_legal(&nl, &p);
        assert_eq!(r.out_of_region, 1);
    }

    #[test]
    fn touching_cells_are_legal() {
        let nl = netlist();
        let mut p = Placement::zeros(2);
        p.x = vec![2.0, 6.0]; // [0,4] and [4,8]
        p.y = vec![4.0, 4.0];
        let r = check_legal(&nl, &p);
        assert!(r.is_legal(), "{r:?}");
    }

    /// Two 4×8 cells in one row whose shared edge sits near 62: cell 0
    /// spans `[58, 62]`, cell 1 starts `gap` to the left of 62.
    fn abutment<T: Float>(gap: T) -> LegalityReport {
        let t = T::from_f64;
        let rows = RowGrid::uniform(t(0.0), t(0.0), t(128.0), t(16.0), t(8.0), t(1.0));
        let mut b = NetlistBuilder::new(t(0.0), t(0.0), t(128.0), t(16.0)).with_rows(rows);
        let a = b.add_movable_cell(t(4.0), t(8.0));
        let c = b.add_movable_cell(t(4.0), t(8.0));
        b.add_net(T::ONE, vec![(a, T::ZERO, T::ZERO), (c, T::ZERO, T::ZERO)])
            .expect("valid");
        let nl = b.build().expect("valid");
        let mut p = Placement::zeros(2);
        p.x = vec![t(60.0), t(64.0) - gap];
        p.y = vec![t(4.0), t(4.0)];
        check_legal(&nl, &p)
    }

    fn rounding_is_not_an_overlap<T: Float>() {
        // One ulp in [32, 64): the f32 case overlaps by 3.05e-5 in area,
        // above the absolute area epsilon.
        let ulp = T::EPSILON * T::from_f64(32.0);
        assert_eq!(abutment(ulp).overlaps, 0, "{}", T::PRECISION_NAME);
        assert_eq!(abutment(T::ZERO).overlaps, 0);
        assert_eq!(abutment(T::from_f64(1e-3)).overlaps, 1);
        assert_eq!(abutment(T::ONE).overlaps, 1); // one site
    }

    #[test]
    fn one_ulp_abutment_is_legal_and_real_overlaps_are_not_f32() {
        rounding_is_not_an_overlap::<f32>();
    }

    #[test]
    fn one_ulp_abutment_is_legal_and_real_overlaps_are_not_f64() {
        rounding_is_not_an_overlap::<f64>();
    }

    #[test]
    fn off_site_is_informational() {
        let nl = netlist();
        let mut p = Placement::zeros(2);
        p.x = vec![2.25, 10.0];
        p.y = vec![4.0, 4.0];
        let r = check_legal(&nl, &p);
        assert_eq!(r.off_site, 1);
        assert!(r.is_legal());
    }
}
