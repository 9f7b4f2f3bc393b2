//! Tier-1 crash/resume gate: a run killed at any state boundary (and at
//! arbitrary mid-GP iterations) and resumed from its last durable
//! checkpoint must be **bit-identical** to the uninterrupted run — same
//! final positions, same HPWL trajectory, same degradation timeline, and
//! equal merged execution counters (the engine's memo of the last
//! evaluated point is checkpointed, so a resume repeats no evaluation).
//!
//! Also covers the failure modes around the checkpoint file itself:
//! corruption is detected by CRC and surfaces as a structured
//! `FlowError::Checkpoint`, a checkpoint of the previous format version is
//! refused, resuming onto the wrong design is refused, and wall-clock
//! budgets account for time consumed before the crash.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use dp_gp::InitKind;
use dreamplace::gen::{GeneratedDesign, GeneratorConfig};
use dreamplace::{
    read_checkpoint, CheckpointData, CheckpointError, CheckpointPolicy, CheckpointStage,
    DreamPlacer, DurableOutcome, FlowConfig, FlowError, FlowFaultInjection, FlowResult, FlowState,
    GpAttemptState, GpFallback, ToolMode,
};

const THREADS: usize = 2;

fn design() -> GeneratedDesign<f64> {
    GeneratorConfig::new("resume-matrix", 420, 460)
        .with_seed(71)
        .with_utilization(0.6)
        .generate::<f64>()
        .expect("valid generator config")
}

fn other_design() -> GeneratedDesign<f64> {
    GeneratorConfig::new("resume-other", 300, 330)
        .with_seed(72)
        .with_utilization(0.6)
        .generate::<f64>()
        .expect("valid generator config")
}

fn config(d: &GeneratedDesign<f64>) -> FlowConfig<f64> {
    let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads: THREADS }, &d.netlist);
    cfg.gp.max_iters = 300;
    cfg.gp.target_overflow = 0.12;
    cfg.gp.threads = THREADS;
    if let InitKind::WirelengthOnly { iters } = cfg.gp.init {
        cfg.gp.init = InitKind::WirelengthOnly {
            iters: iters.min(40),
        };
    }
    cfg
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dp-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `cfg` to completion without checkpoints or kills.
fn uninterrupted(d: &GeneratedDesign<f64>, cfg: FlowConfig<f64>) -> FlowResult<f64> {
    match DreamPlacer::new(cfg)
        .place_durable(d, None, None, FlowFaultInjection::default())
        .expect("uninterrupted run")
    {
        DurableOutcome::Completed(r) => *r,
        DurableOutcome::Killed { at } => panic!("uninjected run died at {at}"),
    }
}

/// Kills the flow right before `at`, then resumes from the checkpoint
/// directory in a second driver invocation (a fresh "process" as far as
/// the machine is concerned) and runs to completion. Also returns the
/// checkpoint the second invocation resumed from (`None`: no checkpoint
/// yet).
fn killed_then_resumed(
    d: &GeneratedDesign<f64>,
    cfg: &FlowConfig<f64>,
    at: FlowState,
    tag: &str,
    telemetry: Option<&dreamplace::telemetry::Telemetry>,
) -> (FlowResult<f64>, Option<CheckpointData<f64>>) {
    let dir = tmp_dir(tag);
    let policy = CheckpointPolicy::new(&dir).every(10);

    let outcome = DreamPlacer::new(cfg.clone())
        .place_durable(d, None, Some(&policy), FlowFaultInjection::die_at(at))
        .expect("killed run");
    match outcome {
        DurableOutcome::Killed { at: died } => assert_eq!(died, at, "died at the wrong state"),
        DurableOutcome::Completed(_) => panic!("kill point {at} was never reached"),
    }

    // Kills before the first checkpoint (init/sanitize) leave no file;
    // the resume then degenerates to a fresh run, like the CLI's
    // `--resume-or-restart`.
    let resume_from = match read_checkpoint::<f64>(&dir) {
        Ok(data) => Some(data),
        Err(CheckpointError::Missing { .. }) => None,
        Err(e) => panic!("unreadable checkpoint after kill at {at}: {e}"),
    };
    let mut cfg = cfg.clone();
    if let Some(tel) = telemetry {
        cfg.telemetry = tel.clone();
    }
    let outcome = DreamPlacer::new(cfg)
        .place_durable(
            d,
            resume_from.clone(),
            Some(&policy),
            FlowFaultInjection::default(),
        )
        .expect("resumed run");
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        DurableOutcome::Completed(r) => (*r, resume_from),
        DurableOutcome::Killed { at } => panic!("resumed run died at {at} without injection"),
    }
}

/// Everything deterministic must match bit-for-bit; only wall-clock
/// fields (timings, per-op nanos) are exempt.
fn assert_bit_identical(golden: &FlowResult<f64>, r: &FlowResult<f64>, tag: &str) {
    assert_eq!(golden.placement.x, r.placement.x, "{tag}: x positions");
    assert_eq!(golden.placement.y, r.placement.y, "{tag}: y positions");
    assert_eq!(
        golden.hpwl_gp.to_bits(),
        r.hpwl_gp.to_bits(),
        "{tag}: hpwl_gp"
    );
    assert_eq!(
        golden.hpwl_legal.to_bits(),
        r.hpwl_legal.to_bits(),
        "{tag}: hpwl_legal"
    );
    assert_eq!(
        golden.hpwl_final.to_bits(),
        r.hpwl_final.to_bits(),
        "{tag}: hpwl_final"
    );

    // GP trajectory: every iteration record, recovery, and counter.
    assert_eq!(golden.gp.iterations, r.gp.iterations, "{tag}: gp iters");
    assert_eq!(golden.gp.converged, r.gp.converged, "{tag}: gp converged");
    assert_eq!(golden.gp.history, r.gp.history, "{tag}: gp history");
    assert_eq!(
        golden.gp.recovery_events, r.gp.recovery_events,
        "{tag}: gp recoveries"
    );

    // Legalization and detailed placement outcomes (runtime excluded).
    assert_eq!(
        golden.lg.avg_displacement.to_bits(),
        r.lg.avg_displacement.to_bits(),
        "{tag}: lg avg displacement"
    );
    assert_eq!(
        golden.lg.max_displacement.to_bits(),
        r.lg.max_displacement.to_bits(),
        "{tag}: lg max displacement"
    );
    assert_eq!(golden.lg.fallback, r.lg.fallback, "{tag}: lg fallback");
    assert_eq!(
        golden.dp.as_ref().map(|s| (s.moves, s.final_hpwl.to_bits())),
        r.dp.as_ref().map(|s| (s.moves, s.final_hpwl.to_bits())),
        "{tag}: dp moves/hpwl"
    );

    // Degradation timeline and GP fallback state.
    assert_eq!(golden.gp_fallback, r.gp_fallback, "{tag}: gp fallback");
    assert_eq!(
        golden.degradations.events, r.degradations.events,
        "{tag}: degradation timeline"
    );

    // Merged counters: the resumed process folds the checkpointed
    // counters into its own and lands on the uninterrupted totals at every
    // kill point. (Nanos and spawn counts are wall-clock noise.)
    let calls = |r: &FlowResult<f64>| -> Vec<(&'static str, u64)> {
        r.gp.exec.ops.iter().map(|(n, c)| (*n, c.calls)).collect()
    };
    assert_eq!(calls(golden), calls(r), "{tag}: per-op call counts");
    assert_eq!(golden.gp.exec.pool_runs, r.gp.exec.pool_runs, "{tag}: pool runs");
    assert_eq!(golden.gp.evals, r.gp.evals, "{tag}: evaluation counts");
}

#[test]
fn killed_and_resumed_matches_uninterrupted_at_every_state() {
    let d = design();
    let golden = uninterrupted(&d, config(&d));
    assert!(golden.gp.iterations > 40, "matrix assumes a long GP run");

    // Every stage boundary plus mid-GP kills both on and off the
    // checkpoint cadence (every 10 iterations).
    let matrix = [
        FlowState::Init,
        FlowState::Sanitize,
        FlowState::Gp { iteration: 0 },
        FlowState::Gp { iteration: 1 },
        FlowState::Gp { iteration: 13 },
        FlowState::Gp { iteration: 40 },
        FlowState::Lg,
        FlowState::Dp { pass: 0 },
        FlowState::Dp { pass: 1 },
        FlowState::Finish,
    ];
    let mut resumed_mid_gp = 0;
    for at in matrix {
        let tag = format!("kill at {at}");
        let (r, resumed_from) = killed_then_resumed(
            &d,
            &config(&d),
            at,
            &at.to_string().replace(':', "-"),
            None,
        );
        // The resumes that depend on the checkpointed memo: inside GP,
        // after the first step.
        let mid_gp = matches!(
            resumed_from.map(|data| data.state()),
            Some(FlowState::Gp { iteration }) if iteration >= 1
        );
        resumed_mid_gp += usize::from(mid_gp);
        assert_bit_identical(&golden, &r, &tag);
    }
    assert_eq!(resumed_mid_gp, 2, "gp:13 and gp:40 resume from gp:10 and gp:40");
}

#[test]
fn killed_inside_the_conservative_attempt_resumes_bit_identically() {
    let d = design();
    // Poisoned evaluations and no rollback budget: the primary (Nesterov,
    // several evaluations per step) diverges at iteration 23, and the
    // conservative retry (Adam, one per step) runs until it reaches the
    // same evaluation indices at iteration 60, then degrades to the
    // best-so-far placement of the two attempts.
    let mut cfg = config(&d);
    cfg.gp.max_recoveries = 0;
    cfg.gp.fault_injection.nan_grad_evals = (60..72).collect();
    let golden = uninterrupted(&d, cfg.clone());
    assert!(
        matches!(golden.gp_fallback, Some(GpFallback::BestSoFar { .. })),
        "{:?}",
        golden.gp_fallback
    );

    // Iterations the primary never reaches: gp:33 resumes from the
    // conservative attempt's gp:30 checkpoint, gp:40 from its own.
    for iteration in [33, 40] {
        let at = FlowState::Gp { iteration };
        let tag = format!("conservative kill at {at}");
        let (r, resumed_from) = killed_then_resumed(
            &d,
            &cfg,
            at,
            &format!("conservative-{iteration}"),
            None,
        );
        let stage = resumed_from.map(|data| data.stage);
        assert!(
            matches!(
                stage,
                Some(CheckpointStage::Gp {
                    attempt: GpAttemptState::Conservative { .. },
                    ..
                })
            ),
            "{tag}: checkpoint not taken inside the conservative attempt"
        );
        assert_bit_identical(&golden, &r, &tag);
    }
}

#[test]
fn resumed_trace_carries_a_resume_point_and_validates() {
    let d = design();
    let tel = dreamplace::telemetry::Telemetry::enabled();
    let (r, _) = killed_then_resumed(
        &d,
        &config(&d),
        FlowState::Gp { iteration: 17 },
        "traced",
        Some(&tel),
    );
    assert!(r.hpwl_final > 0.0);
    let mut buf = Vec::new();
    tel.write_jsonl(&mut buf).expect("serialize trace");
    let text = String::from_utf8(buf).expect("utf8 trace");
    let summary = dreamplace::check::validate_str(&text).expect("resumed trace validates");
    assert_eq!(summary.resumes, 1, "resumed run must emit one resume point");
}

#[test]
fn corrupt_checkpoint_surfaces_structured_error_and_restart_matches_golden() {
    let d = design();
    let dir = tmp_dir("corrupt");
    let policy = CheckpointPolicy::new(&dir).every(10);
    DreamPlacer::new(config(&d))
        .place_durable(
            &d,
            None,
            Some(&policy),
            FlowFaultInjection::die_at(FlowState::Lg),
        )
        .expect("killed run");

    // Truncate the checkpoint to simulate a torn disk.
    let file = dir.join("flow.ckpt");
    let text = std::fs::read_to_string(&file).expect("checkpoint");
    std::fs::write(&file, &text[..text.len() / 3]).expect("truncate");

    let err = read_checkpoint::<f64>(&dir).expect_err("truncated checkpoint must fail");
    assert!(
        matches!(err, CheckpointError::CrcMismatch { .. }),
        "want CrcMismatch, got {err:?}"
    );
    // The structured flow error carries a one-line diagnosis.
    let diag = FlowError::<f64>::Checkpoint(err).diagnosis();
    assert!(diag.starts_with("checkpoint:"), "diagnosis {diag:?}");

    // `--resume-or-restart` semantics: fall back to a fresh run, which
    // must match the uninterrupted golden exactly.
    let golden = uninterrupted(&d, config(&d));
    let restarted = match DreamPlacer::new(config(&d))
        .place_durable(&d, None, Some(&policy), FlowFaultInjection::default())
        .expect("restarted run")
    {
        DurableOutcome::Completed(r) => *r,
        DurableOutcome::Killed { at } => panic!("uninjected run died at {at}"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    assert_bit_identical(&golden, &restarted, "restart after corruption");
}

/// `tests/fixtures/flow_v1.ckpt` and `flow_v2.ckpt` were written by the
/// last `DPCKPT` v1 and v2 builds (mid-GP; v1 without the memo block, v2
/// without the memo's overflow): resuming from either would open the next
/// step without the gradient, or the tripwire without the overflow, the
/// killed run held, so both are refused.
#[test]
fn checkpoint_of_the_previous_format_version_is_refused() {
    for found in [1, 2] {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/flow_v{found}.ckpt"));
        match read_checkpoint::<f64>(&fixture) {
            Err(CheckpointError::VersionSkew { found: f, supported: 3 }) if f == found => {}
            other => panic!("want VersionSkew {{ found: {found}, supported: 3 }}, got {other:?}"),
        }
        match dreamplace::check::checkpoint::validate_checkpoint_file(&fixture) {
            Err(dreamplace::check::checkpoint::CkptError::Version { found: f, supported: 3 })
                if f == found => {}
            other => panic!("want Version {{ found: {found}, supported: 3 }}, got {other:?}"),
        }
    }
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_design() {
    let d = design();
    let dir = tmp_dir("mismatch");
    let policy = CheckpointPolicy::new(&dir).every(10);
    DreamPlacer::new(config(&d))
        .place_durable(
            &d,
            None,
            Some(&policy),
            FlowFaultInjection::die_at(FlowState::Lg),
        )
        .expect("killed run");
    let data = read_checkpoint::<f64>(&dir).expect("checkpoint");

    let other = other_design();
    let err = DreamPlacer::new(config(&other))
        .place_durable(&other, Some(data), None, FlowFaultInjection::default())
        .expect_err("resuming onto another design must fail");
    let _ = std::fs::remove_dir_all(&dir);
    match err {
        FlowError::Checkpoint(CheckpointError::DesignMismatch { .. }) => {}
        other => panic!("want DesignMismatch, got {other:?}"),
    }
}

#[test]
fn gp_budget_counts_time_consumed_before_the_crash() {
    let d = design();
    let dir = tmp_dir("budget");
    let policy = CheckpointPolicy::new(&dir).every(10);
    DreamPlacer::new(config(&d))
        .place_durable(
            &d,
            None,
            Some(&policy),
            FlowFaultInjection::die_at(FlowState::Gp { iteration: 25 }),
        )
        .expect("killed run");
    let checkpoint = read_checkpoint::<f64>(&dir).expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let at_iteration = match checkpoint.state() {
        FlowState::Gp { iteration } => iteration,
        other => panic!("expected a GP checkpoint, got {other}"),
    };

    // Control: with a generous budget the resumed run finishes GP well
    // past the checkpointed iteration.
    let mut generous = config(&d);
    generous.gp.max_seconds = Some(3600.0);
    let r = match DreamPlacer::new(generous)
        .place_durable(
            &d,
            Some(checkpoint.clone()),
            None,
            FlowFaultInjection::default(),
        )
        .expect("resumed run")
    {
        DurableOutcome::Completed(r) => *r,
        DurableOutcome::Killed { at } => panic!("uninjected run died at {at}"),
    };
    assert!(
        r.gp.iterations > at_iteration,
        "control run should keep iterating past {at_iteration}"
    );

    // With the pre-crash wall-clock marked as spent, the same budget is
    // already exhausted at resume: GP must stop immediately instead of
    // restarting its clock from zero.
    let mut spent = checkpoint;
    if let CheckpointStage::Gp { engine, .. } = &mut spent.stage {
        engine.consumed_seconds = 3600.0;
    } else {
        panic!("expected a GP-stage checkpoint");
    }
    let mut cfg = config(&d);
    cfg.gp.max_seconds = Some(3600.0);
    let r = match DreamPlacer::new(cfg)
        .place_durable(&d, Some(spent), None, FlowFaultInjection::default())
        .expect("resumed run under exhausted budget")
    {
        DurableOutcome::Completed(r) => *r,
        DurableOutcome::Killed { at } => panic!("uninjected run died at {at}"),
    };
    assert_eq!(
        r.gp.iterations, at_iteration,
        "budget must include pre-crash time: no further GP iterations"
    );
    assert!(!r.gp.converged, "a budget stop is not convergence");
}

/// Reads the checkpoint a run killed right before `at` leaves behind.
fn checkpoint_at(d: &GeneratedDesign<f64>, at: FlowState, tag: &str) -> CheckpointData<f64> {
    let dir = tmp_dir(tag);
    let policy = CheckpointPolicy::new(&dir).every(10);
    DreamPlacer::new(config(d))
        .place_durable(d, None, Some(&policy), FlowFaultInjection::die_at(at))
        .expect("killed run");
    let data = read_checkpoint::<f64>(&dir).expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    data
}

/// Stage states a library caller hands over itself (no reader in
/// between) are refused with the stage's resume error, never a panic.
#[test]
fn resume_refuses_stage_states_the_stages_cannot_continue() {
    let d = design();
    let mut data = checkpoint_at(&d, FlowState::Gp { iteration: 40 }, "hostile-gp");
    let CheckpointStage::Gp { engine, .. } = &mut data.stage else {
        panic!("want a GP checkpoint");
    };
    std::sync::Arc::make_mut(&mut engine.run.rollback)
        .params
        .pop();
    let err = DreamPlacer::new(config(&d))
        .place_durable(&d, Some(data), None, FlowFaultInjection::default())
        .expect_err("a short rollback target must be refused");
    match err {
        FlowError::Gp(dreamplace::gp::GpError::Resume { reason }) => {
            assert!(reason.contains("rollback parameter"), "{reason}");
        }
        other => panic!("want GpError::Resume, got {other:?}"),
    }

    let mut data = checkpoint_at(&d, FlowState::Dp { pass: 1 }, "hostile-dp");
    let CheckpointStage::Dp { run, .. } = &mut data.stage else {
        panic!("want a DP checkpoint");
    };
    run.pass_idx = 9;
    let err = DreamPlacer::new(config(&d))
        .place_durable(&d, Some(data), None, FlowFaultInjection::default())
        .expect_err("a pass cursor past the passes must be refused");
    match err {
        FlowError::Checkpoint(CheckpointError::Unresumable { stage: "dp", reason }) => {
            assert!(reason.contains("cursor 9"), "{reason}");
        }
        other => panic!("want Unresumable, got {other:?}"),
    }
}

/// The `design` record ends its line with the design's name, so a durable
/// run whose name that record cannot carry (blank, a line feed, a trailing
/// carriage return) is refused before its first step rather than leaving
/// checkpoints that no reader accepts.
#[test]
fn a_design_name_no_checkpoint_can_record_is_refused_before_the_first_step() {
    for name in ["", " ", "two\nlines", "crlf\r"] {
        let d = GeneratorConfig::new(name, 60, 66)
            .with_seed(5)
            .generate::<f64>()
            .expect("valid generator config");
        let dir = tmp_dir("unrecordable-name");
        let policy = CheckpointPolicy::new(&dir).every(10);
        let err = DreamPlacer::new(config(&d))
            .place_durable(&d, None, Some(&policy), FlowFaultInjection::default())
            .expect_err("an unrecordable name must be refused");
        match err {
            FlowError::Checkpoint(CheckpointError::UnrecordableName { name: got }) => {
                assert_eq!(got, name);
            }
            other => panic!("{name:?}: want UnrecordableName, got {other:?}"),
        }
        assert!(!dir.exists(), "{name:?}: nothing may be written");
    }
}
