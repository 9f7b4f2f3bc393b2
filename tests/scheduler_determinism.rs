//! Tier-1 concurrency-determinism gate: K jobs interleaved on the
//! shared-pool [`Scheduler`] must be *bit-identical* — placements, HPWL,
//! and trace convergence points — to the same jobs run sequentially as
//! standalone `place` calls. This is the defining property of the
//! ownership inversion: sharing the pool changes no bits. (A job resumed
//! from its checkpoint mid-interleave is covered by the retry path in
//! `tests/serve_faults.rs`.)

use std::sync::Arc;

use dreamplace::gen::{GeneratedDesign, GeneratorConfig};
use dreamplace::telemetry::{Telemetry, TraceEvent};
use dreamplace::{DreamPlacer, FlowConfig, QosClass, Scheduler, ToolMode};

const THREADS: usize = 2;

fn design(seed: u64) -> Arc<GeneratedDesign<f64>> {
    Arc::new(
        GeneratorConfig::new(format!("interleave-{seed}"), 130, 140)
            .with_seed(seed)
            .generate::<f64>()
            .expect("valid generator config"),
    )
}

fn config(d: &GeneratedDesign<f64>) -> FlowConfig<f64> {
    let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &d.netlist);
    cfg.gp.max_iters = 30;
    cfg.gp.min_iters = cfg.gp.min_iters.min(5);
    cfg.gp.threads = THREADS;
    cfg
}

/// The timing-free content of a trace: convergence points and timeline
/// markers, in order. Span ids, timestamps, and thread ids legitimately
/// differ between runs; the numbers the flow computed must not.
fn fingerprint(tel: &Telemetry) -> Vec<String> {
    tel.snapshot()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Iter {
                iteration,
                hpwl,
                overflow,
                lambda,
                gamma,
                ..
            } => Some(format!(
                "iter {iteration} {:016x} {:016x} {:016x} {:016x}",
                hpwl.to_bits(),
                overflow.to_bits(),
                lambda.to_bits(),
                gamma.to_bits()
            )),
            TraceEvent::Point { name, detail, .. } => Some(format!("point {name} {detail}")),
            _ => None,
        })
        .collect()
}

#[test]
fn interleaved_jobs_match_sequential_bitwise_including_traces() {
    let designs: Vec<_> = (20..23).map(design).collect();

    // Sequential baseline: each job standalone, its own pool, own trace.
    let baseline: Vec<_> = designs
        .iter()
        .map(|d| {
            let tel = Telemetry::enabled();
            let mut cfg = config(d);
            cfg.telemetry = tel.clone();
            let r = DreamPlacer::new(cfg).place(d).expect("baseline run");
            (r, fingerprint(&tel))
        })
        .collect();

    // The same jobs interleaved on one shared pool, one step each per
    // round (Interactive = maximal interleaving), per-job telemetry.
    let mut sched = Scheduler::<f64>::with_threads(THREADS);
    let submitted: Vec<_> = designs
        .iter()
        .map(|d| {
            let tel = Telemetry::enabled();
            let mut cfg = config(d);
            cfg.telemetry = tel.clone();
            let id = sched.submit(cfg, Arc::clone(d), tel.clone(), Some(QosClass::Interactive));
            (id, tel)
        })
        .collect();
    sched.run_all();

    for ((id, tel), (base, base_print)) in submitted.iter().zip(&baseline) {
        let got = sched
            .take_result(*id)
            .expect("job finished")
            .expect("job succeeded");
        assert_eq!(
            got.hpwl_final.to_bits(),
            base.hpwl_final.to_bits(),
            "shared-pool HPWL differs from standalone"
        );
        assert_eq!(got.placement.x, base.placement.x);
        assert_eq!(got.placement.y, base.placement.y);
        assert_eq!(got.gp.iterations, base.gp.iterations);
        assert_eq!(
            &fingerprint(tel),
            base_print,
            "trace convergence points differ from standalone"
        );
    }
}
