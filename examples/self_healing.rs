//! Self-healing global placement: poison a window of gradient evaluations
//! with NaN mid-run and watch the engine roll back to its last checkpoint,
//! soften the schedule, and still converge (DESIGN.md §8).

use dreamplace::gen::GeneratorConfig;
use dreamplace::{DreamPlacer, FlowConfig, ToolMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let d = GeneratorConfig::new("heal", 2000, 2100)
        .with_seed(7)
        .generate::<f64>()?;
    let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &d.netlist);
    cfg.run_dp = false;
    // Poison objective evaluations 120..126 with NaN gradients. Each
    // detected divergence only advances ~2 evals past the window, so give
    // the rollback budget headroom.
    cfg.gp.fault_injection.nan_grad_evals = (120..126).collect();
    cfg.gp.max_recoveries = 8;
    let r = DreamPlacer::new(cfg).place(&d)?;
    println!(
        "final HPWL {:.4e} (overflow {:.3}) after {} rollbacks",
        r.hpwl_final, r.gp.final_overflow, r.gp.recoveries
    );
    for e in &r.gp.recovery_events {
        println!(
            "  iter {:>4} -> rolled back to {:>4}: {} (lambda {:.3e}, gamma x{:.1})",
            e.iteration, e.resumed_from, e.cause, e.lambda, e.gamma_boost
        );
    }
    assert!(r.hpwl_final.is_finite() && r.gp.recoveries > 0);
    Ok(())
}
