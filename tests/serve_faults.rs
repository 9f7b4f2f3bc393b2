//! Tier-1 fault-isolation gate for the service layer: the chaos matrix of
//! ISSUE 9. With panics, stalls, and checkpoint-write failures injected
//! into individual jobs on a shared [`Scheduler`], the scheduler must
//! never die, surviving neighbor jobs must stay *bit-identical* to solo
//! runs, and retried jobs must resume from their last checkpoint to the
//! same answer. A final test pipes a seeded fuzz stream of malformed
//! protocol lines through the dp-serve daemon and asserts it survives.

use std::sync::Arc;

use dreamplace::gen::{GeneratedDesign, GeneratorConfig};
use dreamplace::serve::{serve, ServeOptions};
use dreamplace::telemetry::{Telemetry, TraceEvent};
use dreamplace::{
    DreamPlacer, FlowConfig, FlowState, JobOptions, JobOutcome, JobStatus, QosClass, RetryPolicy,
    Scheduler, ServeFaultInjection, ToolMode,
};

const THREADS: usize = 2;

fn design(seed: u64) -> Arc<GeneratedDesign<f64>> {
    Arc::new(
        GeneratorConfig::new(format!("chaos-{seed}"), 130, 140)
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

fn solo(d: &Arc<GeneratedDesign<f64>>) -> dreamplace::FlowResult<f64> {
    DreamPlacer::new(config(d))
        .place(d)
        .expect("solo baseline run")
}

/// The timing-free content of a trace (same idiom as the scheduler
/// determinism gate): convergence numbers bit-exact, timeline points by
/// name+detail, in order.
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

fn options(retry: RetryPolicy, faults: ServeFaultInjection) -> JobOptions {
    JobOptions {
        qos: Some(QosClass::Interactive),
        // No wall deadline unless a test sets one: chaos tests control
        // their own failure modes.
        deadline_seconds: Some(f64::INFINITY),
        retry,
        faults,
    }
}

#[test]
fn contained_panic_leaves_neighbor_jobs_bit_identical() {
    let designs: Vec<_> = (50..53).map(design).collect();
    let baselines: Vec<_> = designs.iter().map(solo).collect();

    let mut sched = Scheduler::<f64>::with_threads(THREADS);
    let ids: Vec<_> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let faults = if i == 1 {
                ServeFaultInjection::panic_at(FlowState::Gp { iteration: 3 })
            } else {
                ServeFaultInjection::default()
            };
            sched.submit_with(
                config(d),
                Arc::clone(d),
                Telemetry::disabled(),
                options(RetryPolicy::none(), faults),
            )
        })
        .collect();
    sched.run_all();

    // The faulted job terminates as a contained panic after one attempt.
    match sched.take_outcome(ids[1]).expect("outcome recorded") {
        JobOutcome::Panicked {
            message,
            at,
            attempts,
        } => {
            assert!(message.contains("injected service panic"), "{message}");
            assert_eq!(at, FlowState::Gp { iteration: 3 });
            assert_eq!(attempts, 1);
        }
        other => panic!("expected Panicked, got {other:?}"),
    }

    // Neighbors are bit-identical to their solo baselines.
    for &i in &[0usize, 2] {
        match sched.take_outcome(ids[i]).expect("outcome recorded") {
            JobOutcome::Completed(r) => {
                assert_eq!(r.hpwl_final.to_bits(), baselines[i].hpwl_final.to_bits());
                assert_eq!(r.placement.x, baselines[i].placement.x);
                assert_eq!(r.placement.y, baselines[i].placement.y);
            }
            other => panic!("neighbor job {i} did not complete: {other:?}"),
        }
    }

    let health = sched.health();
    assert_eq!(health.panics_contained, 1);
    assert_eq!(health.retries, 0);
    assert!(
        health.pool.all_workers_alive(),
        "pool workers must survive a contained job panic"
    );
}

#[test]
fn retried_panic_resumes_from_checkpoint_to_the_same_bits() {
    let d = design(60);
    let base = solo(&d);
    // An unfaulted neighbour shares the pool while the faulted job panics,
    // waits out its backoff and resumes from its checkpoint. The backoff is
    // zero, so the job is readmitted on the round after its panic: rounds,
    // not the build's speed, order it against the neighbour, which is only
    // as far along as the faulted job was and so is still running.
    let neighbour = design(61);
    let neighbour_base = solo(&neighbour);
    let base_tel = {
        let tel = Telemetry::enabled();
        let mut cfg = config(&d);
        cfg.telemetry = tel.clone();
        DreamPlacer::new(cfg).place(&d).expect("baseline");
        tel
    };

    let mut sched = Scheduler::<f64>::with_threads(THREADS);
    let tel = Telemetry::enabled();
    let mut cfg = config(&d);
    cfg.telemetry = tel.clone();
    let id = sched.submit_with(
        cfg,
        Arc::clone(&d),
        tel.clone(),
        options(
            RetryPolicy {
                max_attempts: 2,
                backoff_seconds: 0.0,
                conservative_final: false,
            },
            ServeFaultInjection::panic_at(FlowState::Gp { iteration: 5 }),
        ),
    );
    let neighbour_id = sched.submit_with(
        config(&neighbour),
        Arc::clone(&neighbour),
        Telemetry::disabled(),
        options(RetryPolicy::none(), ServeFaultInjection::default()),
    );
    // Step until both finish, noting whether the neighbour was still
    // running once the faulted job had resumed: the resumed attempt and
    // the neighbour then shared the pool.
    let (mut retried, mut resumed_beside_neighbour) = (false, false);
    while sched.step_round() > 0 {
        match sched.status(id) {
            Some(JobStatus::Retrying { .. }) => retried = true,
            Some(JobStatus::Running { .. }) if retried => {
                resumed_beside_neighbour |=
                    matches!(sched.status(neighbour_id), Some(JobStatus::Running { .. }));
            }
            _ => {}
        }
    }
    assert!(
        resumed_beside_neighbour,
        "the neighbour must still run while the retried job resumes"
    );

    // The retry resumed from the checkpoint taken at the turn boundary
    // before the panic, so the final answer is bit-identical to an
    // unfaulted run — same HPWL, same coordinates, same overflow target.
    match sched.take_outcome(id).expect("outcome recorded") {
        JobOutcome::Completed(r) => {
            assert_eq!(r.hpwl_final.to_bits(), base.hpwl_final.to_bits());
            assert_eq!(r.placement.x, base.placement.x);
            assert_eq!(r.placement.y, base.placement.y);
            assert_eq!(
                r.gp.final_overflow.to_bits(),
                base.gp.final_overflow.to_bits(),
                "retried job must converge to the same overflow target"
            );
        }
        other => panic!("expected Completed, got {other:?}"),
    }
    match sched.take_outcome(neighbour_id).expect("neighbour outcome recorded") {
        JobOutcome::Completed(r) => {
            assert_eq!(r.hpwl_final.to_bits(), neighbour_base.hpwl_final.to_bits());
            assert_eq!(r.placement.x, neighbour_base.placement.x);
            assert_eq!(r.placement.y, neighbour_base.placement.y);
        }
        other => panic!("neighbour job did not complete: {other:?}"),
    }

    // The timeline narrates the fault: panic point, retry point, resume
    // point — and the convergence iterations after the resume match the
    // baseline's tail bit-for-bit.
    let print = fingerprint(&tel);
    assert!(print.iter().any(|l| l.starts_with("point panic")));
    assert!(print.iter().any(|l| l.starts_with("point retry")));
    assert!(print.iter().any(|l| l.starts_with("point resume")));
    let base_print = fingerprint(&base_tel);
    let base_last = base_print.last().expect("baseline has events");
    assert_eq!(
        print.last().expect("faulted run has events"),
        base_last,
        "final convergence point must match the unfaulted baseline"
    );

    let health = sched.health();
    assert_eq!(health.panics_contained, 1);
    assert_eq!(health.retries, 1);
}

#[test]
fn stall_past_deadline_times_out_then_retry_completes() {
    let d = design(61);
    let base = solo(&d);

    let mut sched = Scheduler::<f64>::with_threads(THREADS);
    let tel = Telemetry::enabled();
    let mut cfg = config(&d);
    cfg.telemetry = tel.clone();
    let id = sched.submit_with(
        cfg,
        Arc::clone(&d),
        tel.clone(),
        JobOptions {
            qos: Some(QosClass::Interactive),
            // Busy-time deadline well under the injected stall but far
            // above what the tiny design actually needs.
            deadline_seconds: Some(0.75),
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_seconds: 0.01,
                conservative_final: false,
            },
            faults: ServeFaultInjection::stall_at(FlowState::Gp { iteration: 2 }, 1.5),
        },
    );
    sched.run_all();

    match sched.take_outcome(id).expect("outcome recorded") {
        JobOutcome::Completed(r) => {
            assert_eq!(r.hpwl_final.to_bits(), base.hpwl_final.to_bits());
            assert_eq!(r.placement.x, base.placement.x);
        }
        other => panic!("expected Completed after timeout retry, got {other:?}"),
    }
    let print = fingerprint(&tel);
    assert!(print.iter().any(|l| l.starts_with("point timeout")));
    assert!(print.iter().any(|l| l.starts_with("point retry")));

    let health = sched.health();
    assert_eq!(health.timeouts, 1);
    assert_eq!(health.retries, 1);
}

#[test]
fn checkpoint_write_failure_forces_fresh_restart_retry() {
    let d = design(62);
    let base = solo(&d);

    let mut sched = Scheduler::<f64>::with_threads(THREADS);
    let tel = Telemetry::enabled();
    let mut cfg = config(&d);
    cfg.telemetry = tel.clone();
    let mut faults = ServeFaultInjection::panic_at(FlowState::Gp { iteration: 4 });
    faults.fail_capture = true;
    let id = sched.submit_with(
        cfg,
        Arc::clone(&d),
        tel.clone(),
        options(
            RetryPolicy {
                max_attempts: 2,
                backoff_seconds: 0.01,
                conservative_final: false,
            },
            faults,
        ),
    );
    sched.run_all();

    // With checkpointing sabotaged there is nothing to resume from; the
    // retry restarts fresh and — the flow being deterministic — still
    // lands on the baseline bits.
    match sched.take_outcome(id).expect("outcome recorded") {
        JobOutcome::Completed(r) => {
            assert_eq!(r.hpwl_final.to_bits(), base.hpwl_final.to_bits());
            assert_eq!(r.placement.x, base.placement.x);
            assert_eq!(r.placement.y, base.placement.y);
        }
        other => panic!("expected Completed, got {other:?}"),
    }
    let print = fingerprint(&tel);
    assert!(print.iter().any(|l| l.starts_with("point retry")));
    assert!(
        !print.iter().any(|l| l.starts_with("point resume")),
        "fresh restart must not claim a checkpoint resume"
    );
}

#[test]
fn conservative_final_attempt_restarts_fresh_and_completes() {
    let d = design(63);

    let mut sched = Scheduler::<f64>::with_threads(THREADS);
    let tel = Telemetry::enabled();
    let mut cfg = config(&d);
    cfg.telemetry = tel.clone();
    let id = sched.submit_with(
        cfg,
        Arc::clone(&d),
        tel.clone(),
        options(
            RetryPolicy {
                max_attempts: 2,
                backoff_seconds: 0.01,
                conservative_final: true,
            },
            ServeFaultInjection::panic_at(FlowState::Gp { iteration: 6 }),
        ),
    );
    sched.run_all();

    match sched.take_outcome(id).expect("outcome recorded") {
        JobOutcome::Completed(r) => assert!(r.hpwl_final.is_finite()),
        other => panic!("expected Completed, got {other:?}"),
    }
    assert!(
        fingerprint(&tel)
            .iter()
            .any(|l| l.starts_with("point retry") && l.contains("conservative")),
        "final attempt must announce the conservative preset"
    );
}

#[test]
fn exhausted_deadline_attempts_surface_terminal_timeout() {
    let d0 = design(64);
    let d1 = design(65);
    let base1 = solo(&d1);

    let mut sched = Scheduler::<f64>::with_threads(THREADS);
    // Job 0: an impossible deadline — every attempt trips immediately.
    let id0 = sched.submit_with(
        config(&d0),
        Arc::clone(&d0),
        Telemetry::disabled(),
        JobOptions {
            qos: Some(QosClass::Interactive),
            deadline_seconds: Some(0.0),
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_seconds: 0.01,
                conservative_final: false,
            },
            faults: ServeFaultInjection::default(),
        },
    );
    // Job 1: a healthy neighbor sharing the pool.
    let id1 = sched.submit_with(
        config(&d1),
        Arc::clone(&d1),
        Telemetry::disabled(),
        options(RetryPolicy::none(), ServeFaultInjection::default()),
    );
    sched.run_all();

    match sched.take_outcome(id0).expect("outcome recorded") {
        JobOutcome::TimedOut {
            deadline_seconds,
            attempts,
            ..
        } => {
            assert_eq!(deadline_seconds, 0.0);
            assert_eq!(attempts, 2, "both allowed attempts were consumed");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    match sched.take_outcome(id1).expect("outcome recorded") {
        JobOutcome::Completed(r) => {
            assert_eq!(r.hpwl_final.to_bits(), base1.hpwl_final.to_bits());
        }
        other => panic!("neighbor must survive the timeout storm: {other:?}"),
    }

    let health = sched.health();
    assert_eq!(health.timeouts, 2);
    assert_eq!(health.retries, 1);
}

#[test]
fn fuzz_stream_cannot_kill_the_daemon() {
    // A seeded mix of valid submits, malformed JSON, truncated objects,
    // and binary garbage; `drain` is appended so the session ends only
    // when *we* say so. Every malformed line must yield a structured
    // `error` event with the session still alive.
    let mut script = dreamplace::gen::fuzz::protocol_lines(0xfa57, 60).join("\n");
    script.push_str("\n{\"cmd\":\"drain\"}\n");

    let mut out = Vec::new();
    let opts = ServeOptions {
        threads: 1,
        slots: 2,
        queue_cap: 4,
        ..ServeOptions::default()
    };
    let stats = serve(std::io::Cursor::new(script.into_bytes()), &mut out, &opts)
        .expect("daemon survives the fuzz stream");

    assert!(stats.errors > 0, "fuzz stream must contain malformed lines");
    assert!(
        stats.completed + stats.rejected > 0,
        "fuzz stream must contain well-formed requests"
    );
    let text = String::from_utf8(out).expect("protocol output is UTF-8");
    let last = text.lines().last().expect("daemon said something");
    assert!(
        last.contains("\"event\":\"bye\""),
        "session must end with a bye summary, got: {last}"
    );
    assert_eq!(
        text.matches("\"event\":\"error\"").count(),
        stats.errors,
        "every malformed line maps to one structured error event"
    );
}
