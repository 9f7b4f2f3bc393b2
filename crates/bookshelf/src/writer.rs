//! Bookshelf writer: emits `.aux/.nodes/.nets/.pl/.scl/.wts`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::decimal;

use dp_gen::RoutingHints;
use dp_netlist::{Netlist, Placement};
use dp_num::Float;

/// Writes `<name>.{aux,nodes,nets,pl,scl,wts}` into `dir`.
///
/// Cell names are synthesized as `o<i>` and nets as `n<i>` (matching the
/// contest suites' style); `positions` supplies fixed-cell coordinates and
/// any current movable coordinates (cell centers; converted to the
/// Bookshelf lower-left convention on output). Numbers are written as `{}`
/// prints them (see [`crate::decimal`]).
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
pub fn write_design<T: Float>(
    dir: &Path,
    name: &str,
    nl: &Netlist<T>,
    positions: &Placement<T>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = |ext: &str| dir.join(format!("{name}.{ext}"));

    // .aux
    std::fs::write(
        path("aux"),
        format!("RowBasedPlacement : {name}.nodes {name}.nets {name}.wts {name}.pl {name}.scl\n"),
    )?;

    // .nodes
    let (widths, heights) = (nl.cell_widths(), nl.cell_heights());
    let mut nodes = Out::create(&path("nodes"))?;
    nodes.text("UCLA nodes 1.0").end()?;
    nodes.text("NumNodes : ").int(nl.num_cells()).end()?;
    nodes.text("NumTerminals : ");
    nodes.int(nl.num_cells() - nl.num_movable()).end()?;
    for c in 0..nl.num_cells() {
        nodes.text("  o").int(c).text(" ").num(widths[c].to_f64());
        nodes.text(" ").num(heights[c].to_f64());
        if c >= nl.num_movable() {
            nodes.text(" terminal");
        }
        nodes.end()?;
    }
    nodes.finish()?;

    // .nets
    let mut nets = Out::create(&path("nets"))?;
    nets.text("UCLA nets 1.0").end()?;
    nets.text("NumNets : ").int(nl.num_nets()).end()?;
    nets.text("NumPins : ").int(nl.num_pins()).end()?;
    for net in nl.nets() {
        let pins = nl.net_pins(net);
        nets.text("NetDegree : ").int(pins.len());
        nets.text(" n").int(net.index()).end()?;
        for &pin in pins {
            let (dx, dy) = nl.pin_offset(pin);
            nets.text("  o").int(nl.pin_cell(pin).index()).text(" B : ");
            nets.num(dx.to_f64()).text(" ").num(dy.to_f64()).end()?;
        }
    }
    nets.finish()?;

    // .wts (net weights)
    let mut wts = Out::create(&path("wts"))?;
    wts.text("UCLA wts 1.0").end()?;
    for net in nl.nets() {
        wts.text("  n").int(net.index()).text(" ");
        wts.num(nl.net_weight(net).to_f64()).end()?;
    }
    wts.finish()?;

    // .pl (lower-left corners)
    let mut pl = Out::create(&path("pl"))?;
    pl.text("UCLA pl 1.0").end()?;
    for c in 0..nl.num_cells() {
        let x = positions.x[c] - widths[c] * T::HALF;
        let y = positions.y[c] - heights[c] * T::HALF;
        pl.text("o").int(c).text(" ").num(x.to_f64()).text(" ");
        pl.num(y.to_f64()).text(" : N");
        if c >= nl.num_movable() {
            pl.text(" /FIXED");
        }
        pl.end()?;
    }
    pl.finish()?;

    // .scl
    let mut scl = Out::create(&path("scl"))?;
    scl.text("UCLA scl 1.0").end()?;
    if let Some(rows) = nl.rows() {
        scl.text("NumRows : ").int(rows.rows().len()).end()?;
        for row in rows.rows() {
            let site = row.site_width.to_f64();
            scl.text("CoreRow Horizontal").end()?;
            scl.text("  Coordinate    : ").num(row.y.to_f64()).end()?;
            scl.text("  Height        : ")
                .num(row.height.to_f64())
                .end()?;
            scl.text("  Sitewidth     : ").num(site).end()?;
            scl.text("  Sitespacing   : ").num(site).end()?;
            scl.text("  Siteorient    : 1").end()?;
            scl.text("  Sitesymmetry  : 1").end()?;
            scl.text("  SubrowOrigin  : ").num(row.xl.to_f64());
            scl.text("  NumSites : ").int(row.num_sites()).end()?;
            scl.text("End").end()?;
        }
    } else {
        scl.text("NumRows : 0").end()?;
    }
    scl.finish()
}

/// Bytes held before they go to the file: `BufWriter`'s default.
const OUT_CAPACITY: usize = 8 * 1024;

/// Room kept free for the next line, so that a line (written names and
/// numbers take a few dozen bytes) does not grow the buffer.
const LINE_ROOM: usize = 256;

/// One output file, written a line at a time: each line is built in one
/// reused buffer, which goes to the file once less than `LINE_ROOM` of
/// its `OUT_CAPACITY` bytes is free. Not generic, so the byte work
/// compiles once, in this crate.
struct Out {
    file: File,
    buf: Vec<u8>,
}

impl Out {
    fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Out {
            file: File::create(path)?,
            buf: Vec::with_capacity(OUT_CAPACITY),
        })
    }

    fn text(&mut self, s: &str) -> &mut Self {
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    fn int(&mut self, n: usize) -> &mut Self {
        decimal::push_u64(&mut self.buf, n as u64);
        self
    }

    fn num(&mut self, x: f64) -> &mut Self {
        decimal::push_f64(&mut self.buf, x);
        self
    }

    /// Ends the line.
    fn end(&mut self) -> std::io::Result<()> {
        self.buf.push(b'\n');
        if self.buf.len() > OUT_CAPACITY - LINE_ROOM {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(mut self) -> std::io::Result<()> {
        self.file.write_all(&self.buf)
    }
}

/// Writes the DAC 2012-style `<name>.route` routing-resource file and
/// appends it to the design's `.aux` line.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_route_file(dir: &Path, name: &str, hints: &RoutingHints) -> std::io::Result<()> {
    let path = dir.join(format!("{name}.route"));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "route 1.0")?;
    writeln!(out, "NumLayers          : {}", hints.num_layers)?;
    // Alternating preferred directions starting horizontal: vertical layers
    // get 0 horizontal capacity and vice versa (contest convention).
    let h: Vec<String> = (0..hints.num_layers)
        .map(|l| {
            if l % 2 == 0 {
                hints.capacity_h.to_string()
            } else {
                "0".into()
            }
        })
        .collect();
    let v: Vec<String> = (0..hints.num_layers)
        .map(|l| {
            if l % 2 == 1 {
                hints.capacity_v.to_string()
            } else {
                "0".into()
            }
        })
        .collect();
    writeln!(out, "HorizontalCapacity : {}", h.join(" "))?;
    writeln!(out, "VerticalCapacity   : {}", v.join(" "))?;
    writeln!(
        out,
        "TileSize           : {} {}",
        hints.tile_sites, hints.tile_sites
    )?;
    out.flush()?;
    // Append to the aux line.
    let aux_path = dir.join(format!("{name}.aux"));
    let mut aux = std::fs::read_to_string(&aux_path)?;
    if !aux.contains(&format!("{name}.route")) {
        aux = format!("{} {name}.route\n", aux.trim_end());
        std::fs::write(&aux_path, aux)?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;

    /// The `writeln!` writer `write_design` replaced, kept to pin its bytes.
    fn reference_write_design<T: Float>(
        dir: &Path,
        name: &str,
        nl: &Netlist<T>,
        positions: &Placement<T>,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = |ext: &str| dir.join(format!("{name}.{ext}"));

        // .aux
        let mut aux = BufWriter::new(std::fs::File::create(path("aux"))?);
        writeln!(
            aux,
            "RowBasedPlacement : {name}.nodes {name}.nets {name}.wts {name}.pl {name}.scl"
        )?;
        aux.flush()?;

        // .nodes
        let mut nodes = BufWriter::new(std::fs::File::create(path("nodes"))?);
        writeln!(nodes, "UCLA nodes 1.0")?;
        writeln!(nodes, "NumNodes : {}", nl.num_cells())?;
        writeln!(
            nodes,
            "NumTerminals : {}",
            nl.num_cells() - nl.num_movable()
        )?;
        for c in 0..nl.num_cells() {
            let w = nl.cell_widths()[c].to_f64();
            let h = nl.cell_heights()[c].to_f64();
            if c < nl.num_movable() {
                writeln!(nodes, "  o{c} {w} {h}")?;
            } else {
                writeln!(nodes, "  o{c} {w} {h} terminal")?;
            }
        }
        nodes.flush()?;

        // .nets
        let mut nets = BufWriter::new(std::fs::File::create(path("nets"))?);
        writeln!(nets, "UCLA nets 1.0")?;
        writeln!(nets, "NumNets : {}", nl.num_nets())?;
        writeln!(nets, "NumPins : {}", nl.num_pins())?;
        for net in nl.nets() {
            let pins = nl.net_pins(net);
            writeln!(nets, "NetDegree : {} n{}", pins.len(), net.index())?;
            for &pin in pins {
                let cell = nl.pin_cell(pin).index();
                let (dx, dy) = nl.pin_offset(pin);
                writeln!(nets, "  o{cell} B : {} {}", dx.to_f64(), dy.to_f64())?;
            }
        }
        nets.flush()?;

        // .wts (net weights)
        let mut wts = BufWriter::new(std::fs::File::create(path("wts"))?);
        writeln!(wts, "UCLA wts 1.0")?;
        for net in nl.nets() {
            writeln!(wts, "  n{} {}", net.index(), nl.net_weight(net).to_f64())?;
        }
        wts.flush()?;

        // .pl (lower-left corners)
        let mut pl = BufWriter::new(std::fs::File::create(path("pl"))?);
        writeln!(pl, "UCLA pl 1.0")?;
        for c in 0..nl.num_cells() {
            let x = positions.x[c] - nl.cell_widths()[c] * T::HALF;
            let y = positions.y[c] - nl.cell_heights()[c] * T::HALF;
            let suffix = if c < nl.num_movable() { "" } else { " /FIXED" };
            writeln!(pl, "o{c} {} {} : N{suffix}", x.to_f64(), y.to_f64())?;
        }
        pl.flush()?;

        // .scl
        let mut scl = BufWriter::new(std::fs::File::create(path("scl"))?);
        writeln!(scl, "UCLA scl 1.0")?;
        if let Some(rows) = nl.rows() {
            writeln!(scl, "NumRows : {}", rows.rows().len())?;
            for row in rows.rows() {
                let num_sites = row.num_sites();
                writeln!(scl, "CoreRow Horizontal")?;
                writeln!(scl, "  Coordinate    : {}", row.y.to_f64())?;
                writeln!(scl, "  Height        : {}", row.height.to_f64())?;
                writeln!(scl, "  Sitewidth     : {}", row.site_width.to_f64())?;
                writeln!(scl, "  Sitespacing   : {}", row.site_width.to_f64())?;
                writeln!(scl, "  Siteorient    : 1")?;
                writeln!(scl, "  Sitesymmetry  : 1")?;
                writeln!(
                    scl,
                    "  SubrowOrigin  : {}  NumSites : {}",
                    row.xl.to_f64(),
                    num_sites
                )?;
                writeln!(scl, "End")?;
            }
        } else {
            writeln!(scl, "NumRows : 0")?;
        }
        scl.flush()?;
        Ok(())
    }

    /// A generated design with macros, then fractional and negative
    /// coordinates, fractional sizes and non-unit weights drawn from `seed`.
    fn varied_design<T: Float>(seed: u64) -> (Netlist<T>, Placement<T>) {
        use rand::{Rng, SeedableRng};
        let d = GeneratorConfig::new("p", 300, 330)
            .with_macros(3, 0.1)
            .with_seed(seed)
            .generate::<T>()
            .expect("valid design");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut vary = |x: T, lo: f64| -> T {
            let x = x.to_f64();
            T::from_f64(match rng.gen_range(0..4) {
                0 => x,
                1 => x * rng.gen_range(lo..3.0),
                2 => (x * 8.0).round() / 8.0 + 0.125,
                _ => x + rng.gen_range(-1e-3..1e-3),
            })
        };
        let widths = d
            .netlist
            .cell_widths()
            .iter()
            .map(|&w| vary(w, 0.1))
            .collect();
        let heights = d
            .netlist
            .cell_heights()
            .iter()
            .map(|&h| vary(h, 0.1))
            .collect();
        let mut p = d.fixed_positions.clone();
        for (x, y) in p.x.iter_mut().zip(&mut p.y) {
            *x = vary(*x, -2.0) - T::from_f64(40.0);
            *y = vary(*y, -2.0);
        }
        let weights = d
            .netlist
            .nets()
            .map(|_| T::from_f64(rng.gen_range(0.0..4.0)))
            .collect();
        let nl = d
            .netlist
            .with_cell_sizes(widths, heights)
            .with_net_weights(weights);
        (nl, p)
    }

    /// Writes `varied_design(seed)` with both writers and compares every
    /// file byte for byte.
    fn assert_parity<T: Float>(dir: &Path, seed: u64) {
        let (nl, p) = varied_design::<T>(seed);
        write_design(&dir.join("new"), "p", &nl, &p).expect("writes");
        reference_write_design(&dir.join("old"), "p", &nl, &p).expect("writes");
        for ext in ["aux", "nodes", "nets", "wts", "pl", "scl"] {
            let file = format!("p.{ext}");
            let got = std::fs::read(dir.join("new").join(&file)).expect("read");
            let want = std::fs::read(dir.join("old").join(&file)).expect("read");
            assert!(got == want, "seed {seed}: {file} differs");
        }
    }

    #[test]
    fn write_design_is_byte_equal_to_the_writeln_writer() {
        let dir = std::env::temp_dir().join(format!("dp-bookshelf-parity-{}", std::process::id()));
        for seed in [1, 2, 3] {
            assert_parity::<f64>(&dir, seed);
            assert_parity::<f32>(&dir, seed);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_all_five_files() {
        let d = GeneratorConfig::new("w", 32, 40)
            .generate::<f64>()
            .expect("ok");
        let dir = std::env::temp_dir().join("dp-bookshelf-writer-test");
        write_design(&dir, "w", &d.netlist, &d.fixed_positions).expect("writes");
        for ext in ["aux", "nodes", "nets", "pl", "scl", "wts"] {
            let p = dir.join(format!("w.{ext}"));
            assert!(p.exists(), "{p:?} missing");
            assert!(std::fs::metadata(&p).expect("stat").len() > 0);
        }
    }

    #[test]
    fn nodes_header_counts_match() {
        let d = GeneratorConfig::new("w2", 20, 25)
            .with_macros(2, 0.2)
            .generate::<f64>()
            .expect("ok");
        let dir = std::env::temp_dir().join("dp-bookshelf-writer-test2");
        write_design(&dir, "w2", &d.netlist, &d.fixed_positions).expect("writes");
        let nodes = std::fs::read_to_string(dir.join("w2.nodes")).expect("read");
        assert!(nodes.contains(&format!("NumNodes : {}", d.netlist.num_cells())));
        assert!(nodes.contains("NumTerminals : 2"));
        assert_eq!(nodes.matches("terminal").count(), 2);
    }
}
