//! Tier-1 concurrency-determinism gate: K jobs interleaved on the
//! shared-pool [`Scheduler`] must be *bit-identical* — placements, HPWL,
//! and trace convergence points — to the same jobs run sequentially as
//! standalone `place` calls, including a job that is evicted to a
//! checkpoint and resumed mid-interleave. This is the defining property
//! of the ownership inversion: sharing the pool changes no bits.

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

#[test]
fn job_resumed_from_checkpoint_mid_interleave_stays_bit_identical() {
    let d0 = design(30);
    let d1 = design(31);

    let base = DreamPlacer::new(config(&d0)).place(&d0).expect("baseline");

    let mut sched = Scheduler::<f64>::with_threads(THREADS);
    let id0 = sched.submit(
        config(&d0),
        Arc::clone(&d0),
        Telemetry::disabled(),
        Some(QosClass::Interactive),
    );
    let id1 = sched.submit(
        config(&d1),
        Arc::clone(&d1),
        Telemetry::disabled(),
        Some(QosClass::Interactive),
    );

    // Interleave until job 0 is somewhere inside GP, then evict it to a
    // checkpoint while job 1 keeps running.
    for _ in 0..12 {
        sched.step_round();
    }
    let data = sched.evict(id0).expect("job 0 capturable mid-GP");
    assert_eq!(sched.status(id0), None, "an evicted job leaves the table");

    // Resume it into the still-running scheduler (migration) and finish.
    let tel = Telemetry::enabled();
    let mut cfg = config(&d0);
    cfg.telemetry = tel.clone();
    let id0b = sched
        .submit_resume(cfg, Arc::clone(&d0), data, tel.clone(), Some(QosClass::Interactive))
        .expect("resubmit after evict");
    sched.run_all();

    let got = sched
        .take_result(id0b)
        .expect("resumed job finished")
        .expect("resumed job succeeded");
    assert_eq!(got.hpwl_final.to_bits(), base.hpwl_final.to_bits());
    assert_eq!(got.placement.x, base.placement.x);
    assert_eq!(got.placement.y, base.placement.y);
    // The resumed trace records the resume point on its timeline.
    assert!(
        fingerprint(&tel).iter().any(|l| l.starts_with("point resume")),
        "resumed run should log a resume point"
    );

    let other = sched
        .take_result(id1)
        .expect("job 1 finished")
        .expect("job 1 succeeded");
    let solo = DreamPlacer::new(config(&d1)).place(&d1).expect("solo");
    assert_eq!(other.hpwl_final.to_bits(), solo.hpwl_final.to_bits());
}
