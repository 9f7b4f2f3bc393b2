//! Timing-driven placement via net weighting (paper §III-G): place, run
//! static timing analysis, up-weight critical nets, place again.
//!
//! ```text
//! cargo run --release --example timing_driven [num_cells] [rounds]
//! ```

use dp_timing::TimingConfig;
use dreamplace::gen::GeneratorConfig;
use dreamplace::{FlowConfig, TimingDrivenConfig, TimingDrivenPlacer, ToolMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let num_cells: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2_000);
    let rounds: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2);

    let design = GeneratorConfig::new("timing-demo", num_cells, num_cells + 100)
        .with_seed(9)
        .generate::<f64>()?;
    let flow = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &design.netlist);
    let config = TimingDrivenConfig {
        flow,
        timing: TimingConfig::default(),
        rounds,
    };
    let result = TimingDrivenPlacer::new(config).place(&design)?;

    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>12}",
        "round", "WNS", "TNS", "crit. delay", "HPWL"
    );
    for (k, s) in result.history.iter().enumerate() {
        println!(
            "{:<8} {:>12.3} {:>12.1} {:>14.3} {:>12.4e}",
            if k == 0 {
                "initial".to_string()
            } else {
                format!("{k}")
            },
            s.wns,
            s.tns,
            s.max_arrival,
            s.hpwl
        );
    }
    let i = result.initial;
    let f = result.final_timing;
    println!(
        "\nWNS improved by {:.1}%; HPWL cost {:.2}%",
        100.0 * (f.wns - i.wns) / i.wns.abs().max(1e-12),
        100.0 * (f.hpwl - i.hpwl) / i.hpwl
    );
    Ok(())
}
