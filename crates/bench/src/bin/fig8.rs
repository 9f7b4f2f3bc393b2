//! Regenerates paper Fig. 8: average GP runtime ratio over the ISPD 2005
//! suite versus thread count, for both tools and both precisions,
//! normalized to DREAMPlace GPU-sim float64.
//!
//! ```text
//! DP_SCALE=128 cargo run -p dp-bench --release --bin fig8
//! ```
//!
//! A configuration with a failed flow prints `n/a (<diagnosis>)` in its
//! cell, and the binary then exits non-zero after the whole table.

use dp_bench::{cell, gp_seconds, hr, ratio_row, scale};
use dp_gen::GeneratedDesign;
use dp_num::Float;
use dreamplace_core::ToolMode;

/// GP seconds of `mode` on every design, or the first failure.
fn times<T: Float>(mode: ToolMode, designs: &[GeneratedDesign<T>]) -> Result<Vec<f64>, String> {
    designs.iter().map(|d| gp_seconds(mode, d)).collect()
}

fn main() {
    // Fig. 8 sweeps threads; use a subset of the suite to keep the sweep
    // affordable (the ratios are averaged anyway).
    println!("Fig. 8 (average GP runtime ratios) at 1/{} scale", scale());
    let suite: Vec<_> = dp_gen::ispd2005_suite().into_iter().take(4).collect();
    let d64: Vec<_> = suite
        .iter()
        .map(|p| {
            p.clone()
                .scaled_down(scale())
                .config
                .generate::<f64>()
                .expect("ok")
        })
        .collect();
    let d32: Vec<_> = suite
        .iter()
        .map(|p| {
            p.clone()
                .scaled_down(scale())
                .config
                .generate::<f32>()
                .expect("ok")
        })
        .collect();

    // Reference: GPU-sim float64.
    let reference = times(ToolMode::DreamplaceGpuSim, &d64);
    let ratio = |t: Result<Vec<f64>, String>| -> Result<f64, String> {
        let reference = reference
            .as_ref()
            .map_err(|why| format!("reference: {why}"))?;
        Ok(ratio_row(&t?, reference))
    };
    let mut failed = false;
    let mut show = |r: Result<f64, String>| {
        failed |= r.is_err();
        cell(&r, 10)
    };

    hr(74);
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "1 thread", "2 threads", "4 threads", "precision"
    );
    hr(74);
    for (label, is_baseline) in [("RePlAce", true), ("DREAMPlace-CPU", false)] {
        for precision in ["float64", "float32"] {
            let mut cells = Vec::new();
            for threads in [1usize, 2, 4] {
                let mode = if is_baseline {
                    ToolMode::ReplaceBaseline { threads }
                } else {
                    ToolMode::DreamplaceCpu { threads }
                };
                let t = if precision == "float64" {
                    times(mode, &d64)
                } else {
                    times(mode, &d32)
                };
                cells.push(show(ratio(t)));
            }
            println!(
                "{:<26} {} {} {} {:>10}",
                label, cells[0], cells[1], cells[2], precision
            );
        }
    }
    let reference_cell = show(reference.clone().map(|_| 1.0));
    let gpusim32 = show(ratio(times(ToolMode::DreamplaceGpuSim, &d32)));
    println!(
        "{:<26} {} {:>10} {:>10} {:>10}",
        "DREAMPlace-GPUsim", reference_cell, "-", "-", "float64"
    );
    println!(
        "{:<26} {} {:>10} {:>10} {:>10}",
        "DREAMPlace-GPUsim", gpusim32, "-", "-", "float32"
    );
    hr(74);
    println!(
        "paper shape: baseline slowest at every thread count; float32 < float64.\n\
         note: thread columns beyond the host's core count (threads={}) show\n\
         scheduling overhead instead of the paper's ~3-5x CPU scaling\n\
         (see EXPERIMENTS.md).",
        dp_num::default_threads()
    );
    if failed {
        eprintln!("fig8: at least one flow failed (cells marked n/a)");
        std::process::exit(1);
    }
}
