//! Quickstart: generate a design, run the full DREAMPlace flow, report the
//! paper-style metrics.
//!
//! ```text
//! cargo run --release --example quickstart [num_cells]
//! ```

use dreamplace::gen::GeneratorConfig;
use dreamplace::netlist::hpwl;
use dreamplace::{DreamPlacer, FlowConfig, ToolMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let num_cells: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(5_000);

    println!("== DREAMPlace quickstart ==");
    let design = GeneratorConfig::new("quickstart", num_cells, num_cells + num_cells / 20)
        .with_seed(42)
        .with_utilization(0.7)
        .generate::<f64>()?;
    let stats = design.netlist.stats();
    println!(
        "design: {} cells, {} nets, {} pins, avg degree {:.2}, utilization {:.2}",
        stats.num_cells, stats.num_nets, stats.num_pins, stats.avg_net_degree, stats.utilization
    );

    let threads = dreamplace::num::default_threads();
    let config = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads }, &design.netlist);
    let result = DreamPlacer::new(config).place(&design)?;

    println!("\nphase        time (s)");
    println!(
        "GP           {:8.3}  ({} iterations, overflow {:.3})",
        result.timing.gp, result.gp.iterations, result.gp.final_overflow
    );
    println!(
        "LG           {:8.3}  (avg displacement {:.2})",
        result.timing.lg, result.lg.avg_displacement
    );
    if let Some(dp) = &result.dp {
        println!(
            "DP           {:8.3}  ({} moves)",
            result.timing.dp, dp.moves
        );
    }
    println!("total        {:8.3}", result.timing.total);

    println!("\nHPWL after GP  {:.4e}", result.hpwl_gp);
    println!("HPWL legal     {:.4e}", result.hpwl_legal);
    println!("HPWL final     {:.4e}", result.hpwl_final);
    debug_assert_eq!(result.hpwl_final, hpwl(&design.netlist, &result.placement));
    Ok(())
}
