//! Regenerates paper Fig. 7: global placement runtime per ISPD 2005 design
//! for the baseline and DREAMPlace configurations, in float64 and float32.
//!
//! ```text
//! DP_SCALE=64 cargo run -p dp-bench --release --bin fig7
//! ```
//!
//! A flow that fails prints `n/a (<diagnosis>)` in its cell, and the binary
//! then exits non-zero after the whole table.

use dp_bench::{cell, gp_seconds, hr, scale};
use dreamplace_core::ToolMode;

fn main() {
    println!("Fig. 7 (GP runtime, seconds) at 1/{} scale", scale());
    hr(100);
    println!(
        "{:<10} | {:>14} {:>14} {:>14} | {:>14} {:>14} {:>14}",
        "design",
        "RePlAce f64",
        "DP-CPU f64",
        "DP-GPUsim f64",
        "RePlAce f32",
        "DP-CPU f32",
        "DP-GPUsim f32"
    );
    hr(100);
    let threads = dp_num::default_threads();
    let modes = [
        ToolMode::ReplaceBaseline { threads },
        ToolMode::DreamplaceCpu { threads },
        ToolMode::DreamplaceGpuSim,
    ];
    let mut failed = false;
    for preset in dp_gen::ispd2005_suite() {
        let preset = preset.scaled_down(scale());
        let d64 = preset.config.generate::<f64>().expect("generates");
        let d32 = preset.config.generate::<f32>().expect("generates");
        let row: Vec<Result<f64, String>> = modes
            .iter()
            .map(|m| gp_seconds(*m, &d64))
            .chain(modes.iter().map(|m| gp_seconds(*m, &d32)))
            .collect();
        failed |= row.iter().any(Result::is_err);
        let c: Vec<String> = row.iter().map(|r| cell(r, 14)).collect();
        println!(
            "{:<10} | {} {} {} | {} {} {}",
            preset.config.name, c[0], c[1], c[2], c[3], c[4], c[5]
        );
    }
    hr(100);
    println!(
        "paper shape: DREAMPlace consistently faster than the baseline on every\n\
         design; float32 faster than float64 (paper: ~1.3-1.4x)"
    );
    if failed {
        eprintln!("fig7: at least one flow failed (cells marked n/a)");
        std::process::exit(1);
    }
}
