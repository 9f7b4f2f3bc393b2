//! Placement visualization: SVG snapshots.
//!
//! Small but invaluable for an open-source placer: a picture of the
//! placement (cells, macros, optional fence regions).

use std::io::Write;
use std::path::Path;

use dp_netlist::{Netlist, Placement};
use dp_num::Float;

/// Options for [`write_svg`].
#[derive(Debug, Clone)]
pub struct SvgOptions {
    /// Output image width in pixels (height follows the aspect ratio).
    pub width_px: f64,
    /// Fence rectangles to outline, if any.
    pub fences: Vec<(f64, f64, f64, f64)>,
    /// Optional per-movable-cell group index for coloring (e.g. fence
    /// region); cells without a group render in the default color.
    pub groups: Option<Vec<Option<u16>>>,
}

impl Default for SvgOptions {
    fn default() -> Self {
        Self {
            width_px: 800.0,
            fences: Vec::new(),
            groups: None,
        }
    }
}

const GROUP_COLORS: [&str; 6] = [
    "#4878cf", "#d65f5f", "#6acc65", "#b47cc7", "#c4ad66", "#77bedb",
];

/// Writes an SVG snapshot of the placement.
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Examples
///
/// ```no_run
/// use dreamplace_core::viz::{write_svg, SvgOptions};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let design = dp_gen::GeneratorConfig::new("v", 100, 110).generate::<f64>()?;
/// # let p = dp_gp::initial_placement(&design.netlist, &design.fixed_positions, 0.2, 1);
/// write_svg("placement.svg".as_ref(), &design.netlist, &p, &SvgOptions::default())?;
/// # Ok(())
/// # }
/// ```
pub fn write_svg<T: Float>(
    path: &Path,
    nl: &Netlist<T>,
    p: &Placement<T>,
    options: &SvgOptions,
) -> std::io::Result<()> {
    let region = nl.region();
    let (rx, ry, rw, rh) = (
        region.xl.to_f64(),
        region.yl.to_f64(),
        region.width().to_f64(),
        region.height().to_f64(),
    );
    let scale = options.width_px / rw;
    let height_px = rh * scale;
    // SVG y grows downward; flip so the layout's y grows upward.
    let tx = |x: f64| (x - rx) * scale;
    let ty = |y: f64| height_px - (y - ry) * scale;

    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        options.width_px, height_px, options.width_px, height_px
    )?;
    writeln!(
        out,
        r##"<rect x="0" y="0" width="{:.0}" height="{:.0}" fill="#fafafa" stroke="#333"/>"##,
        options.width_px, height_px
    )?;

    // Fixed macros first (dark), then movable cells.
    for c in 0..nl.num_cells() {
        let w = nl.cell_widths()[c].to_f64() * scale;
        let h = nl.cell_heights()[c].to_f64() * scale;
        let x = tx(p.x[c].to_f64()) - w / 2.0;
        let y = ty(p.y[c].to_f64()) - h / 2.0;
        let fill = if c >= nl.num_movable() {
            "#444444"
        } else {
            match &options.groups {
                Some(groups) => match groups.get(c).copied().flatten() {
                    Some(g) => GROUP_COLORS[g as usize % GROUP_COLORS.len()],
                    None => "#9fb4d0",
                },
                None => "#9fb4d0",
            }
        };
        writeln!(
            out,
            r#"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{fill}" fill-opacity="0.8" stroke="none"/>"#
        )?;
    }

    for &(fx, fy, fxh, fyh) in &options.fences {
        let x = tx(fx);
        let y = ty(fyh);
        let w = (fxh - fx) * scale;
        let h = (fyh - fy) * scale;
        writeln!(
            out,
            r##"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="none" stroke="#d62728" stroke-width="2" stroke-dasharray="6,4"/>"##
        )?;
    }
    writeln!(out, "</svg>")?;
    out.flush()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;
    use dp_gp::initial_placement;

    #[test]
    fn svg_contains_all_cells() {
        let d = GeneratorConfig::new("viz", 40, 44)
            .with_macros(2, 0.2)
            .generate::<f64>()
            .expect("ok");
        let p = initial_placement(&d.netlist, &d.fixed_positions, 0.2, 1);
        let path = std::env::temp_dir().join("dp-viz-test.svg");
        let options = SvgOptions {
            fences: vec![(0.0, 0.0, 10.0, 10.0)],
            groups: Some((0..40).map(|c| (c % 2 == 0).then_some(0u16)).collect()),
            ..SvgOptions::default()
        };
        write_svg(&path, &d.netlist, &p, &options).expect("writes");
        let svg = std::fs::read_to_string(&path).expect("reads");
        // background + cells + fence
        assert_eq!(svg.matches("<rect").count(), 1 + d.netlist.num_cells() + 1);
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.ends_with("</svg>\n"));
    }
}
