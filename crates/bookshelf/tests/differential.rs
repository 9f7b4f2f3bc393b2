//! Differential pin for the reader: three generated designs, shaped like
//! the ledger's flow workloads at reduced size, are written to disk and
//! read back, and every array the reader produces is hashed bit for bit.
//! The hashes were recorded from the whole-file reader that preceded the
//! streaming one; any change to what `read_design` returns moves them.

use std::path::PathBuf;

use dp_bookshelf::{read_design, write_design};
use dp_gen::GeneratorConfig;
use dp_netlist::PinId;

/// FNV-1a over 64-bit words, fed one little-endian byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn design_hash(g: GeneratorConfig, tag: &str) -> u64 {
    let d = g.generate::<f64>().expect("valid design");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dp-bookshelf-diff-{tag}-{}", std::process::id()));
    write_design(&dir, tag, &d.netlist, &d.fixed_positions).expect("write");
    let back = read_design::<f64>(&dir.join(format!("{tag}.aux")));
    std::fs::remove_dir_all(&dir).ok();
    let back = back.expect("reparse");
    let (nl, pos) = (&back.netlist, &back.positions);

    let mut h = Fnv::new();
    h.word(nl.num_cells() as u64);
    h.word(nl.num_movable() as u64);
    for (&w, &ht) in nl.cell_widths().iter().zip(nl.cell_heights()) {
        h.float(w);
        h.float(ht);
    }
    for net in nl.nets() {
        h.float(nl.net_weight(net));
        let r = nl.net_pin_range(net);
        h.word(r.start as u64);
        h.word(r.end as u64);
    }
    for p in 0..nl.num_pins() {
        let pin = PinId::new(p);
        h.word(nl.pin_cell(pin).index() as u64);
        let (dx, dy) = nl.pin_offset(pin);
        h.float(dx);
        h.float(dy);
    }
    for (&x, &y) in pos.x.iter().zip(&pos.y) {
        h.float(x);
        h.float(y);
    }
    let rows = nl.rows().map(|g| g.rows()).unwrap_or(&[]);
    h.word(rows.len() as u64);
    for r in rows {
        for v in [r.y, r.height, r.xl, r.xh, r.site_width] {
            h.float(v);
        }
    }
    let reg = nl.region();
    for v in [reg.xl, reg.yl, reg.xh, reg.yh] {
        h.float(v);
    }
    h.0
}

#[test]
fn flow_converged_shape_reads_to_the_recorded_bits() {
    let n = 400;
    let g = GeneratorConfig::new("diff-fc", n, n + n * 3 / 40)
        .with_seed(77)
        .with_utilization(0.65)
        .with_macros(4, 0.10);
    assert_eq!(design_hash(g, "diff-fc"), FLOW_CONVERGED);
}

#[test]
fn wl_bound_shape_reads_to_the_recorded_bits() {
    let n = 600;
    let mut g = GeneratorConfig::new("diff-wl", n, 2 * n).with_seed(77);
    g.avg_net_degree = 5.0;
    assert_eq!(design_hash(g, "diff-wl"), WL_BOUND);
}

#[test]
fn density_bound_shape_reads_to_the_recorded_bits() {
    let n = 1600;
    let mut g = GeneratorConfig::new("diff-db", n, n / 2).with_seed(77);
    g.avg_net_degree = 2.0;
    g.cell_width_sites = (1, 16);
    assert_eq!(design_hash(g, "diff-db"), DENSITY_BOUND);
}

const FLOW_CONVERGED: u64 = 15_784_154_868_932_048_262;
const WL_BOUND: u64 = 1_937_246_193_737_828_696;
const DENSITY_BOUND: u64 = 12_341_173_054_031_399_877;
