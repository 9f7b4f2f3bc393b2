//! Durable on-disk checkpoint format for the flow state machine.
//!
//! Like the JSONL trace writer/`dp-check` reader pair, the format is
//! hand-rolled text (the offline build has no `serde`): a magic line,
//! a CRC32 over the payload, then one record per line. Floats round-trip
//! bit-exactly in one of two textual forms:
//!
//! * scalar records use shortest-round-trip scientific notation (`{:e}` —
//!   the standard library guarantees the printed digits parse back to the
//!   identical bits), plus `NaN`/`inf`/`-inf` tokens;
//! * bulk `vec` records use the raw IEEE-754 bit pattern, `x`-prefixed
//!   hex (`x3fe5551d68c692aa`) — exact by construction and ~5x faster to
//!   emit and parse, which is what keeps mid-GP checkpoints (fourteen
//!   solver/rollback/memo vectors) inside the < 5% wall-clock overhead
//!   budget.
//!
//! Readers accept either float form in any position.
//!
//! ```text
//! DPCKPT v2
//! crc 0x1a2b3c4d            <- CRC32 (poly 0xEDB88320) of everything below
//! design <cells> <movable> <nets> <name>
//! stage gp|lg|dp
//! timing <io> <gp> <lg> <dp> <total>
//! consumed <secs>
//! ...stage-specific records...
//! end
//! ```
//!
//! v2 (the carried wirelength gradient) added, to the GP stage, an
//! `eng.evals` record and the `memo` block — the engine's last evaluated
//! point, which is run state since its wirelength half depends on the
//! `gamma` it was evaluated at:
//!
//! ```text
//! eng.evals <objective> <wirelength> <density> <backtracks>
//! memo <valid 0|1> <gamma> <wl_cost> <energy>
//! vec memo.key <len> ...        <- 2 x movable when valid, else empty
//! vec memo.wl <len> ...
//! vec memo.density <len> ...
//! ```
//!
//! and a `gp.evals` record (same four counts) after `gp.timing` in the
//! finished-GP statistics of the LG/DP stages. v1 files are refused as
//! [`CheckpointError::VersionSkew`].
//!
//! Durability: [`write_checkpoint`] writes to `<file>.tmp`, fsyncs, then
//! renames over the previous checkpoint, so a crash mid-write never
//! corrupts the last good checkpoint. Readers verify magic, version, and
//! CRC before touching the payload and report structured
//! [`CheckpointError`]s (surfaced as `FlowError::Checkpoint` with a
//! `diagnosis()` one-liner).
//!
//! The independent validator in `dp-check` re-implements this reader from
//! the format notes above (own tokenizer, own CRC) — keep the two in sync
//! through the golden fixtures in `tests/`.

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dp_autograd::{ExecSummary, OpCounter, WorkspaceCounter};
use dp_dplace::{DpGuardReport, DpPass, DpRunState};
use dp_gp::{DivergenceCause, GpEngineState, GpEvalCounts, GpMemoState, GpRollbackState, GpStats,
    GpTiming, IterRecord, RecoveryEvent};
use dp_lg::{LgFallback, LgStats};
use dp_netlist::Placement;
use dp_num::Float;
use dp_optim::OptimizerSnapshot;

use crate::flow::{
    DegradationEvent, DegradationFallback, DegradationTrigger, FlowStage, FlowTiming, GpFallback,
};
use crate::machine::{CheckpointData, CheckpointStage, DesignStamp, GpAttemptState};

/// Magic first line; bump the version on any layout change.
pub const MAGIC: &str = "DPCKPT";
/// Current format version.
pub const VERSION: u32 = 2;
/// File name inside a checkpoint directory.
pub const FILE_NAME: &str = "flow.ckpt";

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// No checkpoint at the given path.
    Missing {
        /// The path probed.
        path: PathBuf,
    },
    /// The first line is not `DPCKPT v<N>`.
    BadMagic {
        /// What the first line actually was.
        found: String,
    },
    /// The file is a checkpoint, but of an unsupported format version.
    VersionSkew {
        /// Version found in the file.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The payload does not hash to the recorded CRC (truncation or
    /// bit rot).
    CrcMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
    /// A record is malformed.
    Corrupt {
        /// 1-based line number in the file.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The checkpoint belongs to a different design.
    DesignMismatch {
        /// Which identity field disagreed.
        field: &'static str,
        /// Value in the checkpoint.
        expected: String,
        /// Value of the design being resumed.
        actual: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io failure: {e}"),
            CheckpointError::Missing { path } => {
                write!(f, "no checkpoint at {}", path.display())
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file (first line {found:?})")
            }
            CheckpointError::VersionSkew { found, supported } => write!(
                f,
                "format version {found} not supported (reader supports v{supported})"
            ),
            CheckpointError::CrcMismatch { expected, actual } => write!(
                f,
                "payload crc {actual:#010x} does not match header {expected:#010x} \
                 (truncated or corrupt)"
            ),
            CheckpointError::Corrupt { line, reason } => {
                write!(f, "corrupt record at line {line}: {reason}")
            }
            CheckpointError::DesignMismatch {
                field,
                expected,
                actual,
            } => write!(
                f,
                "checkpoint is for a different design: {field} {expected} != {actual}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// CRC32 lookup table (reflected, polynomial `0xEDB88320`), built at
/// compile time. The table-driven form processes a byte per step instead
/// of a bit, which keeps the checksum out of the checkpoint-overhead
/// budget on multi-hundred-KB payloads.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (reflected, polynomial `0xEDB88320`) over the checkpoint payload;
/// `dp_check::checkpoint` recomputes it independently.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The checkpoint file inside `dir`.
pub fn checkpoint_file(dir: &Path) -> PathBuf {
    dir.join(FILE_NAME)
}

/// Serializes and atomically writes a checkpoint into `dir`
/// (`dir/flow.ckpt`), creating the directory if needed.
///
/// # Errors
///
/// [`CheckpointError::Io`] only.
pub fn write_checkpoint<T: Float>(
    dir: &Path,
    data: &CheckpointData<T>,
) -> Result<(), CheckpointError> {
    write_serialized(dir, &serialize(data))
}

/// Atomically writes already-serialized checkpoint contents into `dir`.
///
/// Split out from [`write_checkpoint`] so the durable flow driver can
/// serialize on the flow thread (the snapshot must be taken synchronously)
/// and hand the finished bytes to a background writer that absorbs the
/// fsync latency.
///
/// # Errors
///
/// [`CheckpointError::Io`] only.
pub fn write_serialized(dir: &Path, body: &str) -> Result<(), CheckpointError> {
    std::fs::create_dir_all(dir)?;
    let path = checkpoint_file(dir);
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        // fdatasync: the contents must be on disk before the rename makes
        // the file visible (no zero-length checkpoint after power loss),
        // but the inode metadata flush of a full fsync buys nothing here
        // and measurably eats into the < 5% overhead budget.
        f.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Reads and verifies a checkpoint from `path` (a `flow.ckpt` file or a
/// directory containing one).
///
/// # Errors
///
/// See [`CheckpointError`].
pub fn read_checkpoint<T: Float>(path: &Path) -> Result<CheckpointData<T>, CheckpointError> {
    let file = if path.is_dir() {
        checkpoint_file(path)
    } else {
        path.to_path_buf()
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CheckpointError::Missing { path: file })
        }
        Err(e) => return Err(e.into()),
    };
    deserialize(&text)
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn push_f64(out: &mut String, v: f64) {
    use fmt::Write as _;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-inf");
    } else {
        // Shortest scientific form that round-trips bit-exactly (std
        // guarantee) — substantially faster than fixed-precision `{:.17e}`.
        let _ = write!(out, "{v:e}");
    }
}

fn push_float<T: Float>(out: &mut String, v: T) {
    push_f64(out, v.to_f64());
}

/// Encodes one float as its raw IEEE-754 bit pattern, `x`-prefixed
/// lowercase hex (`x3fe5551d68c692aa`). Bulk `vec` records use this form:
/// it is exact by construction (including NaN payload and signed-zero
/// bits), and both emitting and parsing are ~5x faster than decimal —
/// which is what keeps mid-GP checkpoints (fourteen solver/rollback/memo
/// vectors) inside the < 5% overhead budget. Scalar records stay
/// decimal for readability; readers accept either form anywhere.
fn push_f64_bits(out: &mut String, v: f64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bits = v.to_bits();
    let mut buf = [0u8; 17];
    buf[0] = b'x';
    for i in 0..16 {
        buf[1 + i] = HEX[((bits >> (60 - 4 * i)) & 0xF) as usize];
    }
    // buf is pure ASCII by construction.
    out.push_str(std::str::from_utf8(&buf).unwrap_or("x0000000000000000"));
}

fn push_vec<T: Float>(out: &mut String, name: &str, v: &[T]) {
    use fmt::Write as _;
    let _ = write!(out, "vec {name} {}", v.len());
    for &x in v {
        out.push(' ');
        push_f64_bits(out, x.to_f64());
    }
    out.push('\n');
}

fn push_opt_vec<T: Float>(out: &mut String, name: &str, v: Option<&Vec<T>>) {
    match v {
        Some(v) => push_vec(out, name, v),
        None => {
            out.push_str("vec ");
            out.push_str(name);
            out.push_str(" none\n");
        }
    }
}

fn cause_token(c: DivergenceCause) -> &'static str {
    match c {
        DivergenceCause::NonFiniteCost => "non-finite-cost",
        DivergenceCause::NonFiniteGradient => "non-finite-gradient",
        DivergenceCause::NonFinitePosition => "non-finite-position",
        DivergenceCause::NonFiniteHpwl => "non-finite-hpwl",
        DivergenceCause::OverflowExplosion => "overflow-explosion",
    }
}

fn parse_cause(tok: &str) -> Option<DivergenceCause> {
    Some(match tok {
        "non-finite-cost" => DivergenceCause::NonFiniteCost,
        "non-finite-gradient" => DivergenceCause::NonFiniteGradient,
        "non-finite-position" => DivergenceCause::NonFinitePosition,
        "non-finite-hpwl" => DivergenceCause::NonFiniteHpwl,
        "overflow-explosion" => DivergenceCause::OverflowExplosion,
        _ => return None,
    })
}

fn flow_stage_token(s: FlowStage) -> &'static str {
    match s {
        FlowStage::Sanitize => "sanitize",
        FlowStage::Gp => "gp",
        FlowStage::Lg => "lg",
        FlowStage::Dp => "dp",
    }
}

fn parse_flow_stage(tok: &str) -> Option<FlowStage> {
    Some(match tok {
        "sanitize" => FlowStage::Sanitize,
        "gp" => FlowStage::Gp,
        "lg" => FlowStage::Lg,
        "dp" => FlowStage::Dp,
        _ => return None,
    })
}

fn push_trigger(out: &mut String, t: &DegradationTrigger) {
    use fmt::Write as _;
    match t {
        DegradationTrigger::DegenerateGrid { bins } => {
            let _ = write!(out, "degenerate-grid {} {}", bins.0, bins.1);
        }
        DegradationTrigger::GpDiverged(c) => {
            let _ = write!(out, "gp-diverged {}", cause_token(*c));
        }
        DegradationTrigger::AbacusFailed => out.push_str("abacus-failed"),
        DegradationTrigger::DisplacementExceeded => out.push_str("displacement-exceeded"),
        DegradationTrigger::IllegalAfterLg { overlaps } => {
            let _ = write!(out, "illegal-after-lg {overlaps}");
        }
        DegradationTrigger::DpPassWorsened { pass, worsening } => {
            let _ = write!(out, "dp-pass-worsened {} ", pass.index());
            push_f64(out, *worsening);
        }
        DegradationTrigger::BudgetExhausted => out.push_str("budget-exhausted"),
    }
}

fn push_fallback(out: &mut String, fb: DegradationFallback) {
    use fmt::Write as _;
    match fb {
        DegradationFallback::UniformFieldDensity => out.push_str("uniform-field-density"),
        DegradationFallback::ConservativeGpPreset => out.push_str("conservative-gp-preset"),
        DegradationFallback::BestSoFarPlacement => out.push_str("best-so-far-placement"),
        DegradationFallback::TetrisResult => out.push_str("tetris-result"),
        DegradationFallback::RetryWithoutAbacus => out.push_str("retry-without-abacus"),
        DegradationFallback::DisabledDpPass(p) => {
            let _ = write!(out, "disabled-dp-pass {}", p.index());
        }
        DegradationFallback::StoppedStageEarly => out.push_str("stopped-stage-early"),
    }
}

fn push_exec(out: &mut String, exec: &ExecSummary) {
    use fmt::Write as _;
    let _ = writeln!(
        out,
        "exec.pool {} {} {}",
        exec.pool_threads, exec.threads_spawned, exec.pool_runs
    );
    let _ = writeln!(out, "exec.ops {}", exec.ops.len());
    for (name, c) in &exec.ops {
        let _ = writeln!(out, "op {} {} {name}", c.calls, c.nanos);
    }
    let _ = writeln!(out, "exec.ws {}", exec.workspaces.len());
    for (name, w) in &exec.workspaces {
        let _ = writeln!(out, "ws {} {} {} {name}", w.uses, w.reuses, w.bytes);
    }
}

fn push_solver<T: Float>(out: &mut String, snap: &OptimizerSnapshot<T>, prefix: &str) {
    use fmt::Write as _;
    match snap {
        OptimizerSnapshot::Nesterov {
            a,
            alpha,
            v,
            u_prev,
            g_prev,
            v_prev,
        } => {
            let _ = writeln!(out, "{prefix} nesterov");
            out.push_str("sv.scalars ");
            push_float(out, *a);
            out.push(' ');
            push_float(out, *alpha);
            out.push('\n');
            push_opt_vec(out, "v", v.as_ref());
            push_opt_vec(out, "u_prev", u_prev.as_ref());
            push_opt_vec(out, "g_prev", g_prev.as_ref());
            push_opt_vec(out, "v_prev", v_prev.as_ref());
        }
        OptimizerSnapshot::Adam { lr, t, m, v } => {
            let _ = writeln!(out, "{prefix} adam");
            out.push_str("sv.scalars ");
            push_float(out, *lr);
            let _ = write!(out, " {t}");
            out.push('\n');
            push_vec(out, "m", m);
            push_vec(out, "v", v);
        }
        OptimizerSnapshot::SgdMomentum { lr, velocity } => {
            let _ = writeln!(out, "{prefix} sgd-momentum");
            out.push_str("sv.scalars ");
            push_float(out, *lr);
            out.push('\n');
            push_vec(out, "velocity", velocity);
        }
        OptimizerSnapshot::ConjugateGradient {
            alpha,
            g_prev,
            d_prev,
            p_prev,
        } => {
            let _ = writeln!(out, "{prefix} conjugate-gradient");
            out.push_str("sv.scalars ");
            push_float(out, *alpha);
            out.push('\n');
            push_opt_vec(out, "g_prev", g_prev.as_ref());
            push_opt_vec(out, "d_prev", d_prev.as_ref());
            push_opt_vec(out, "p_prev", p_prev.as_ref());
        }
    }
}

fn push_history(out: &mut String, tag: &str, hist: &[IterRecord]) {
    use fmt::Write as _;
    let _ = writeln!(out, "{tag} {}", hist.len());
    // Raw-bits floats: the history is bulk per-iteration data (hundreds of
    // records late in GP, re-serialized into every checkpoint) and decimal
    // formatting of it was a measurable slice of the overhead budget.
    for h in hist {
        let _ = write!(out, "h {} ", h.iteration);
        push_f64_bits(out, h.hpwl);
        out.push(' ');
        push_f64_bits(out, h.overflow);
        out.push(' ');
        push_f64_bits(out, h.lambda);
        out.push(' ');
        push_f64_bits(out, h.gamma);
        out.push('\n');
    }
}

fn push_recoveries(out: &mut String, tag: &str, evs: &[RecoveryEvent]) {
    use fmt::Write as _;
    let _ = writeln!(out, "{tag} {}", evs.len());
    for r in evs {
        let _ = write!(
            out,
            "r {} {} {} ",
            r.iteration,
            r.resumed_from,
            cause_token(r.cause)
        );
        push_f64(out, r.lambda);
        out.push(' ');
        push_f64(out, r.gamma_boost);
        out.push('\n');
    }
}

fn push_evals(out: &mut String, tag: &str, c: &GpEvalCounts) {
    use fmt::Write as _;
    let _ = writeln!(
        out,
        "{tag} {} {} {} {}",
        c.objective_evals, c.wl_evals, c.density_evals, c.backtracks
    );
}

fn push_memo<T: Float>(out: &mut String, m: &GpMemoState<T>) {
    use fmt::Write as _;
    let _ = write!(out, "memo {}", u8::from(m.valid));
    for v in [m.gamma, m.wl_cost, m.energy] {
        out.push(' ');
        push_float(out, v);
    }
    out.push('\n');
    push_vec(out, "memo.key", &m.key);
    push_vec(out, "memo.wl", &m.wl_grad);
    push_vec(out, "memo.density", &m.density_grad);
}

fn push_gp_stats(out: &mut String, s: &GpStats) {
    use fmt::Write as _;
    let _ = write!(out, "gp.stats {} ", s.iterations);
    push_f64(out, s.final_hpwl);
    out.push(' ');
    push_f64(out, s.final_overflow);
    let _ = write!(out, " {} {}", u8::from(s.converged), s.recoveries);
    out.push('\n');
    out.push_str("gp.timing");
    for d in [
        s.timing.init,
        s.timing.wirelength,
        s.timing.density,
        s.timing.solver,
        s.timing.bookkeeping,
        s.timing.total,
    ] {
        out.push(' ');
        push_f64(out, d.as_secs_f64());
    }
    out.push('\n');
    push_evals(out, "gp.evals", &s.evals);
    push_history(out, "gp.hist", &s.history);
    push_recoveries(out, "gp.recov", &s.recovery_events);
    push_exec(out, &s.exec);
}

fn push_placement<T: Float>(out: &mut String, prefix: &str, p: &Placement<T>) {
    push_vec(out, &format!("{prefix}.x"), &p.x);
    push_vec(out, &format!("{prefix}.y"), &p.y);
}

fn push_lg_stats(out: &mut String, s: &LgStats) {
    out.push_str("lg.stats ");
    push_f64(out, s.avg_displacement);
    out.push(' ');
    push_f64(out, s.max_displacement);
    out.push(' ');
    push_f64(out, s.runtime);
    out.push(' ');
    out.push_str(match s.fallback {
        None => "none",
        Some(LgFallback::AbacusFailed) => "abacus-failed",
        Some(LgFallback::DisplacementExceeded) => "displacement-exceeded",
    });
    out.push('\n');
}

fn push_dp_run(out: &mut String, r: &DpRunState) {
    use fmt::Write as _;
    let _ = write!(
        out,
        "dp.run {} {} {} {} {} {} {} {} {} ",
        r.round,
        r.pass_idx,
        r.moves,
        r.moves_at_round_start,
        u8::from(r.enabled[0]),
        u8::from(r.enabled[1]),
        u8::from(r.enabled[2]),
        r.report.reverts,
        u8::from(r.report.budget_exhausted),
    );
    match r.injected_pending {
        Some(p) => {
            let _ = write!(out, "{}", p.index() as i64);
        }
        None => out.push_str("-1"),
    }
    out.push(' ');
    push_f64(out, r.initial_hpwl);
    out.push(' ');
    push_f64(out, r.consumed_seconds);
    out.push('\n');
    let _ = writeln!(out, "dp.disabled {}", r.report.disabled.len());
    for (pass, worsening) in &r.report.disabled {
        let _ = write!(out, "dd {} ", pass.index());
        push_f64(out, *worsening);
        out.push('\n');
    }
}

/// Serializes a checkpoint to the full file contents (header + payload).
pub fn serialize<T: Float>(data: &CheckpointData<T>) -> String {
    use fmt::Write as _;
    // Mid-GP checkpoints run to a couple hundred KB (solver + rollback
    // vectors); start big enough that growth doubling stays rare.
    let mut p = String::with_capacity(1 << 16);

    let _ = writeln!(
        p,
        "design {} {} {} {}",
        data.design.cells, data.design.movable, data.design.nets, data.design.name
    );
    let stage_tag = match &data.stage {
        CheckpointStage::Gp { .. } => "gp",
        CheckpointStage::Lg { .. } => "lg",
        CheckpointStage::Dp { .. } => "dp",
    };
    let _ = writeln!(p, "stage {stage_tag}");
    p.push_str("timing");
    for v in [
        data.timing.io,
        data.timing.gp,
        data.timing.lg,
        data.timing.dp,
        data.timing.total,
    ] {
        p.push(' ');
        push_f64(&mut p, v);
    }
    p.push('\n');
    p.push_str("consumed ");
    push_f64(&mut p, data.consumed_total);
    p.push('\n');

    match data.gp_fallback {
        None => p.push_str("fallback none\n"),
        Some(GpFallback::ConservativePreset { cause }) => {
            let _ = writeln!(p, "fallback conservative {}", cause_token(cause));
        }
        Some(GpFallback::BestSoFar { cause, recoveries }) => {
            let _ = writeln!(p, "fallback best-so-far {} {recoveries}", cause_token(cause));
        }
    }

    let _ = writeln!(p, "degradations {}", data.degradations.len());
    for e in &data.degradations {
        let _ = write!(p, "degr {} ", flow_stage_token(e.stage));
        push_trigger(&mut p, &e.trigger);
        p.push(' ');
        push_fallback(&mut p, e.fallback);
        p.push('\n');
    }

    match &data.stage {
        CheckpointStage::Gp { attempt, engine } => {
            match attempt {
                GpAttemptState::Primary => p.push_str("gp.attempt primary\n"),
                GpAttemptState::Conservative {
                    cause,
                    primary_recoveries,
                    primary_best,
                    primary_best_overflow,
                } => {
                    let _ = write!(
                        p,
                        "gp.attempt conservative {} {primary_recoveries} ",
                        cause_token(*cause)
                    );
                    push_f64(&mut p, *primary_best_overflow);
                    p.push('\n');
                    push_placement(&mut p, "pbest", primary_best);
                }
            }
            let _ = writeln!(
                p,
                "eng.counters {} {} {} {} {}",
                engine.next_iter,
                engine.iterations,
                engine.evals,
                engine.recoveries,
                engine.sched_iteration
            );
            push_evals(&mut p, "eng.evals", &engine.counts);
            p.push_str("eng.scalars");
            for v in [
                engine.lambda,
                engine.gamma,
                engine.gamma_boost,
                engine.lambda_cut,
                engine.sched_lambda,
                engine.ref_delta,
                engine.prev_hpwl,
            ] {
                p.push(' ');
                push_float(&mut p, v);
            }
            p.push(' ');
            push_f64(&mut p, engine.best_overflow);
            p.push(' ');
            push_f64(&mut p, engine.consumed_seconds);
            p.push('\n');
            push_vec(&mut p, "params", &engine.params);
            push_vec(&mut p, "best", &engine.best_params);
            push_solver(&mut p, &engine.solver, "solver");
            push_history(&mut p, "eng.hist", &engine.history);
            push_recoveries(&mut p, "eng.recov", &engine.recovery_events);
            let rb = &engine.rollback;
            let _ = write!(
                p,
                "rollback {} {} {} ",
                rb.iteration, rb.sched_iteration, rb.history_len
            );
            push_float(&mut p, rb.sched_lambda);
            p.push(' ');
            push_float(&mut p, rb.lambda);
            p.push(' ');
            push_float(&mut p, rb.prev_hpwl);
            p.push(' ');
            push_f64(&mut p, rb.overflow);
            p.push('\n');
            push_vec(&mut p, "rb.params", &rb.params);
            push_solver(&mut p, &rb.solver, "solver.rb");
            push_memo(&mut p, &engine.memo);
            push_exec(&mut p, &engine.exec);
        }
        CheckpointStage::Lg {
            gp_stats,
            hpwl_gp,
            gp_placement,
        } => {
            push_gp_stats(&mut p, gp_stats);
            p.push_str("hpwl.gp ");
            push_f64(&mut p, *hpwl_gp);
            p.push('\n');
            push_placement(&mut p, "gp", gp_placement);
        }
        CheckpointStage::Dp {
            gp_stats,
            hpwl_gp,
            lg_stats,
            hpwl_legal,
            placement,
            run,
        } => {
            push_gp_stats(&mut p, gp_stats);
            p.push_str("hpwl.gp ");
            push_f64(&mut p, *hpwl_gp);
            p.push('\n');
            push_lg_stats(&mut p, lg_stats);
            p.push_str("hpwl.legal ");
            push_f64(&mut p, *hpwl_legal);
            p.push('\n');
            push_placement(&mut p, "cur", placement);
            push_dp_run(&mut p, run);
        }
    }
    p.push_str("end\n");

    let crc = crc32(p.as_bytes());
    format!("{MAGIC} v{VERSION}\ncrc {crc:#010x}\n{p}")
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Line cursor with 1-based positions for error reporting.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    fn new(payload: &'a str, start_line: usize) -> Self {
        Self {
            lines: payload.lines(),
            line_no: start_line,
        }
    }

    fn corrupt(&self, reason: impl Into<String>) -> CheckpointError {
        CheckpointError::Corrupt {
            line: self.line_no,
            reason: reason.into(),
        }
    }

    fn next_line(&mut self) -> Result<&'a str, CheckpointError> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or(CheckpointError::Corrupt {
                line: self.line_no,
                reason: "unexpected end of file".into(),
            })
    }

    /// Next line, split into tokens, with the first token required to be
    /// `tag`.
    fn record(&mut self, tag: &str) -> Result<Vec<&'a str>, CheckpointError> {
        let line = self.next_line()?;
        let toks: Vec<&str> = line.split(' ').collect();
        if toks.first() != Some(&tag) {
            return Err(self.corrupt(format!(
                "expected `{tag}` record, found {:?}",
                toks.first().copied().unwrap_or("")
            )));
        }
        Ok(toks)
    }
}

fn parse_f64(cur: &Cursor<'_>, tok: &str) -> Result<f64, CheckpointError> {
    match tok {
        "NaN" => Ok(f64::NAN),
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        // Raw-bits form (`x` + 16 hex digits), the bulk-vector encoding.
        _ if tok.as_bytes().first() == Some(&b'x') => {
            let hex = &tok[1..];
            if hex.len() != 16 {
                return Err(cur.corrupt(format!("bad float bits {tok:?}")));
            }
            u64::from_str_radix(hex, 16)
                .map(f64::from_bits)
                .map_err(|_| cur.corrupt(format!("bad float bits {tok:?}")))
        }
        _ => tok
            .parse::<f64>()
            .map_err(|_| cur.corrupt(format!("bad float {tok:?}"))),
    }
}

fn parse_float<T: Float>(cur: &Cursor<'_>, tok: &str) -> Result<T, CheckpointError> {
    Ok(T::from_f64(parse_f64(cur, tok)?))
}

fn parse_usize(cur: &Cursor<'_>, tok: &str) -> Result<usize, CheckpointError> {
    tok.parse::<usize>()
        .map_err(|_| cur.corrupt(format!("bad integer {tok:?}")))
}

fn parse_u64(cur: &Cursor<'_>, tok: &str) -> Result<u64, CheckpointError> {
    tok.parse::<u64>()
        .map_err(|_| cur.corrupt(format!("bad integer {tok:?}")))
}

fn parse_bool01(cur: &Cursor<'_>, tok: &str) -> Result<bool, CheckpointError> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(cur.corrupt(format!("bad flag {tok:?} (want 0|1)"))),
    }
}

fn need<'t>(cur: &Cursor<'_>, toks: &[&'t str], idx: usize) -> Result<&'t str, CheckpointError> {
    toks.get(idx)
        .copied()
        .ok_or_else(|| cur.corrupt(format!("missing field {idx}")))
}

fn read_vec<T: Float>(cur: &mut Cursor<'_>, name: &str) -> Result<Vec<T>, CheckpointError> {
    let toks = cur.record("vec")?;
    let found = need(cur, &toks, 1)?;
    if found != name {
        return Err(cur.corrupt(format!("expected vector {name:?}, found {found:?}")));
    }
    let len = parse_usize(cur, need(cur, &toks, 2)?)?;
    if toks.len() != 3 + len {
        return Err(cur.corrupt(format!(
            "vector {name:?} declares {len} values but carries {}",
            toks.len().saturating_sub(3)
        )));
    }
    let mut v = Vec::with_capacity(len);
    for tok in &toks[3..] {
        v.push(parse_float::<T>(cur, tok)?);
    }
    Ok(v)
}

fn read_opt_vec<T: Float>(
    cur: &mut Cursor<'_>,
    name: &str,
) -> Result<Option<Vec<T>>, CheckpointError> {
    let toks = cur.record("vec")?;
    let found = need(cur, &toks, 1)?;
    if found != name {
        return Err(cur.corrupt(format!("expected vector {name:?}, found {found:?}")));
    }
    if need(cur, &toks, 2)? == "none" {
        return Ok(None);
    }
    let len = parse_usize(cur, need(cur, &toks, 2)?)?;
    if toks.len() != 3 + len {
        return Err(cur.corrupt(format!("vector {name:?} length mismatch")));
    }
    let mut v = Vec::with_capacity(len);
    for tok in &toks[3..] {
        v.push(parse_float::<T>(cur, tok)?);
    }
    Ok(Some(v))
}

fn read_placement<T: Float>(
    cur: &mut Cursor<'_>,
    prefix: &str,
) -> Result<Placement<T>, CheckpointError> {
    let x = read_vec::<T>(cur, &format!("{prefix}.x"))?;
    let y = read_vec::<T>(cur, &format!("{prefix}.y"))?;
    if x.len() != y.len() {
        return Err(cur.corrupt(format!(
            "placement {prefix:?} x/y length mismatch: {} vs {}",
            x.len(),
            y.len()
        )));
    }
    Ok(Placement { x, y })
}

fn read_exec(cur: &mut Cursor<'_>) -> Result<ExecSummary, CheckpointError> {
    let toks = cur.record("exec.pool")?;
    let pool_threads = parse_usize(cur, need(cur, &toks, 1)?)?;
    let threads_spawned = parse_usize(cur, need(cur, &toks, 2)?)?;
    let pool_runs = parse_u64(cur, need(cur, &toks, 3)?)?;
    let toks = cur.record("exec.ops")?;
    let n_ops = parse_usize(cur, need(cur, &toks, 1)?)?;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let toks = cur.record("op")?;
        let calls = parse_u64(cur, need(cur, &toks, 1)?)?;
        let nanos = parse_u64(cur, need(cur, &toks, 2)?)?;
        let name = need(cur, &toks, 3)?;
        // Op names are interned `&'static str` keys in the live summary;
        // a resurrected checkpoint leaks one small string per op name,
        // bounded by the op-name vocabulary.
        let name: &'static str = Box::leak(name.to_string().into_boxed_str());
        ops.push((name, OpCounter { calls, nanos }));
    }
    let toks = cur.record("exec.ws")?;
    let n_ws = parse_usize(cur, need(cur, &toks, 1)?)?;
    let mut workspaces = Vec::with_capacity(n_ws);
    for _ in 0..n_ws {
        let toks = cur.record("ws")?;
        let uses = parse_u64(cur, need(cur, &toks, 1)?)?;
        let reuses = parse_u64(cur, need(cur, &toks, 2)?)?;
        let bytes = parse_usize(cur, need(cur, &toks, 3)?)?;
        let name = need(cur, &toks, 4)?;
        let name: &'static str = Box::leak(name.to_string().into_boxed_str());
        workspaces.push((
            name,
            WorkspaceCounter {
                uses,
                reuses,
                bytes,
            },
        ));
    }
    Ok(ExecSummary {
        pool_threads,
        threads_spawned,
        pool_runs,
        ops,
        workspaces,
    })
}

fn read_solver<T: Float>(
    cur: &mut Cursor<'_>,
    prefix: &str,
) -> Result<OptimizerSnapshot<T>, CheckpointError> {
    let toks = cur.record(prefix)?;
    let tag = need(cur, &toks, 1)?;
    match tag {
        "nesterov" => {
            let s = cur.record("sv.scalars")?;
            let a = parse_float::<T>(cur, need(cur, &s, 1)?)?;
            let alpha = parse_float::<T>(cur, need(cur, &s, 2)?)?;
            let v = read_opt_vec::<T>(cur, "v")?;
            let u_prev = read_opt_vec::<T>(cur, "u_prev")?;
            let g_prev = read_opt_vec::<T>(cur, "g_prev")?;
            let v_prev = read_opt_vec::<T>(cur, "v_prev")?;
            Ok(OptimizerSnapshot::Nesterov {
                a,
                alpha,
                v,
                u_prev,
                g_prev,
                v_prev,
            })
        }
        "adam" => {
            let s = cur.record("sv.scalars")?;
            let lr = parse_float::<T>(cur, need(cur, &s, 1)?)?;
            let t = need(cur, &s, 2)?
                .parse::<u32>()
                .map_err(|_| cur.corrupt("bad adam step counter"))?;
            let m = read_vec::<T>(cur, "m")?;
            let v = read_vec::<T>(cur, "v")?;
            Ok(OptimizerSnapshot::Adam { lr, t, m, v })
        }
        "sgd-momentum" => {
            let s = cur.record("sv.scalars")?;
            let lr = parse_float::<T>(cur, need(cur, &s, 1)?)?;
            let velocity = read_vec::<T>(cur, "velocity")?;
            Ok(OptimizerSnapshot::SgdMomentum { lr, velocity })
        }
        "conjugate-gradient" => {
            let s = cur.record("sv.scalars")?;
            let alpha = parse_float::<T>(cur, need(cur, &s, 1)?)?;
            let g_prev = read_opt_vec::<T>(cur, "g_prev")?;
            let d_prev = read_opt_vec::<T>(cur, "d_prev")?;
            let p_prev = read_opt_vec::<T>(cur, "p_prev")?;
            Ok(OptimizerSnapshot::ConjugateGradient {
                alpha,
                g_prev,
                d_prev,
                p_prev,
            })
        }
        _ => Err(cur.corrupt(format!("unknown solver tag {tag:?}"))),
    }
}

fn read_history(cur: &mut Cursor<'_>, tag: &str) -> Result<Vec<IterRecord>, CheckpointError> {
    let toks = cur.record(tag)?;
    let n = parse_usize(cur, need(cur, &toks, 1)?)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let toks = cur.record("h")?;
        out.push(IterRecord {
            iteration: parse_usize(cur, need(cur, &toks, 1)?)?,
            hpwl: parse_f64(cur, need(cur, &toks, 2)?)?,
            overflow: parse_f64(cur, need(cur, &toks, 3)?)?,
            lambda: parse_f64(cur, need(cur, &toks, 4)?)?,
            gamma: parse_f64(cur, need(cur, &toks, 5)?)?,
        });
    }
    Ok(out)
}

fn read_recoveries(cur: &mut Cursor<'_>, tag: &str) -> Result<Vec<RecoveryEvent>, CheckpointError> {
    let toks = cur.record(tag)?;
    let n = parse_usize(cur, need(cur, &toks, 1)?)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let toks = cur.record("r")?;
        let cause_tok = need(cur, &toks, 3)?;
        out.push(RecoveryEvent {
            iteration: parse_usize(cur, need(cur, &toks, 1)?)?,
            resumed_from: parse_usize(cur, need(cur, &toks, 2)?)?,
            cause: parse_cause(cause_tok)
                .ok_or_else(|| cur.corrupt(format!("unknown divergence cause {cause_tok:?}")))?,
            lambda: parse_f64(cur, need(cur, &toks, 4)?)?,
            gamma_boost: parse_f64(cur, need(cur, &toks, 5)?)?,
        });
    }
    Ok(out)
}

fn read_evals(cur: &mut Cursor<'_>, tag: &str) -> Result<GpEvalCounts, CheckpointError> {
    let toks = cur.record(tag)?;
    Ok(GpEvalCounts {
        objective_evals: parse_u64(cur, need(cur, &toks, 1)?)?,
        wl_evals: parse_u64(cur, need(cur, &toks, 2)?)?,
        density_evals: parse_u64(cur, need(cur, &toks, 3)?)?,
        backtracks: parse_u64(cur, need(cur, &toks, 4)?)?,
    })
}

fn read_memo<T: Float>(cur: &mut Cursor<'_>) -> Result<GpMemoState<T>, CheckpointError> {
    let toks = cur.record("memo")?;
    Ok(GpMemoState {
        valid: parse_bool01(cur, need(cur, &toks, 1)?)?,
        gamma: parse_float::<T>(cur, need(cur, &toks, 2)?)?,
        wl_cost: parse_float::<T>(cur, need(cur, &toks, 3)?)?,
        energy: parse_float::<T>(cur, need(cur, &toks, 4)?)?,
        key: read_vec::<T>(cur, "memo.key")?,
        wl_grad: read_vec::<T>(cur, "memo.wl")?,
        density_grad: read_vec::<T>(cur, "memo.density")?,
    })
}

fn read_gp_stats(cur: &mut Cursor<'_>) -> Result<GpStats, CheckpointError> {
    let toks = cur.record("gp.stats")?;
    let iterations = parse_usize(cur, need(cur, &toks, 1)?)?;
    let final_hpwl = parse_f64(cur, need(cur, &toks, 2)?)?;
    let final_overflow = parse_f64(cur, need(cur, &toks, 3)?)?;
    let converged = parse_bool01(cur, need(cur, &toks, 4)?)?;
    let recoveries = parse_usize(cur, need(cur, &toks, 5)?)?;
    let toks = cur.record("gp.timing")?;
    let mut secs = [0.0f64; 6];
    for (i, s) in secs.iter_mut().enumerate() {
        *s = parse_f64(cur, need(cur, &toks, 1 + i)?)?;
    }
    let timing = GpTiming {
        init: std::time::Duration::from_secs_f64(secs[0]),
        wirelength: std::time::Duration::from_secs_f64(secs[1]),
        density: std::time::Duration::from_secs_f64(secs[2]),
        solver: std::time::Duration::from_secs_f64(secs[3]),
        bookkeeping: std::time::Duration::from_secs_f64(secs[4]),
        total: std::time::Duration::from_secs_f64(secs[5]),
    };
    let evals = read_evals(cur, "gp.evals")?;
    let history = read_history(cur, "gp.hist")?;
    let recovery_events = read_recoveries(cur, "gp.recov")?;
    let exec = read_exec(cur)?;
    Ok(GpStats {
        iterations,
        final_hpwl,
        final_overflow,
        converged,
        history,
        timing,
        recoveries,
        recovery_events,
        exec,
        evals,
    })
}

fn read_scalar_record(cur: &mut Cursor<'_>, tag: &str) -> Result<f64, CheckpointError> {
    let toks = cur.record(tag)?;
    parse_f64(cur, need(cur, &toks, 1)?)
}

fn read_lg_stats(cur: &mut Cursor<'_>) -> Result<LgStats, CheckpointError> {
    let toks = cur.record("lg.stats")?;
    let avg_displacement = parse_f64(cur, need(cur, &toks, 1)?)?;
    let max_displacement = parse_f64(cur, need(cur, &toks, 2)?)?;
    let runtime = parse_f64(cur, need(cur, &toks, 3)?)?;
    let fallback = match need(cur, &toks, 4)? {
        "none" => None,
        "abacus-failed" => Some(LgFallback::AbacusFailed),
        "displacement-exceeded" => Some(LgFallback::DisplacementExceeded),
        other => return Err(cur.corrupt(format!("unknown lg fallback {other:?}"))),
    };
    Ok(LgStats {
        avg_displacement,
        max_displacement,
        runtime,
        fallback,
    })
}

fn read_dp_pass(cur: &Cursor<'_>, tok: &str) -> Result<DpPass, CheckpointError> {
    let idx = parse_usize(cur, tok)?;
    DpPass::from_index(idx).ok_or_else(|| cur.corrupt(format!("bad dp pass index {idx}")))
}

fn read_dp_run(cur: &mut Cursor<'_>) -> Result<DpRunState, CheckpointError> {
    let toks = cur.record("dp.run")?;
    let round = parse_usize(cur, need(cur, &toks, 1)?)?;
    let pass_idx = parse_usize(cur, need(cur, &toks, 2)?)?;
    let moves = parse_usize(cur, need(cur, &toks, 3)?)?;
    let moves_at_round_start = parse_usize(cur, need(cur, &toks, 4)?)?;
    let enabled = [
        parse_bool01(cur, need(cur, &toks, 5)?)?,
        parse_bool01(cur, need(cur, &toks, 6)?)?,
        parse_bool01(cur, need(cur, &toks, 7)?)?,
    ];
    let reverts = parse_usize(cur, need(cur, &toks, 8)?)?;
    let budget_exhausted = parse_bool01(cur, need(cur, &toks, 9)?)?;
    let injected_tok = need(cur, &toks, 10)?;
    let injected_pending = if injected_tok == "-1" {
        None
    } else {
        Some(read_dp_pass(cur, injected_tok)?)
    };
    let initial_hpwl = parse_f64(cur, need(cur, &toks, 11)?)?;
    let consumed_seconds = parse_f64(cur, need(cur, &toks, 12)?)?;
    let toks = cur.record("dp.disabled")?;
    let n = parse_usize(cur, need(cur, &toks, 1)?)?;
    let mut disabled = Vec::with_capacity(n);
    for _ in 0..n {
        let toks = cur.record("dd")?;
        let pass = read_dp_pass(cur, need(cur, &toks, 1)?)?;
        let worsening = parse_f64(cur, need(cur, &toks, 2)?)?;
        disabled.push((pass, worsening));
    }
    Ok(DpRunState {
        round,
        pass_idx,
        moves,
        moves_at_round_start,
        enabled,
        report: DpGuardReport {
            disabled,
            reverts,
            budget_exhausted,
        },
        injected_pending,
        initial_hpwl,
        consumed_seconds,
    })
}

fn read_degradation(cur: &mut Cursor<'_>) -> Result<DegradationEvent, CheckpointError> {
    let toks = cur.record("degr")?;
    let stage_tok = need(cur, &toks, 1)?;
    let stage = parse_flow_stage(stage_tok)
        .ok_or_else(|| cur.corrupt(format!("unknown flow stage {stage_tok:?}")))?;
    let mut i = 2;
    let trig_tok = need(cur, &toks, i)?;
    i += 1;
    let trigger = match trig_tok {
        "degenerate-grid" => {
            let mx = parse_usize(cur, need(cur, &toks, i)?)?;
            let my = parse_usize(cur, need(cur, &toks, i + 1)?)?;
            i += 2;
            DegradationTrigger::DegenerateGrid { bins: (mx, my) }
        }
        "gp-diverged" => {
            let c = need(cur, &toks, i)?;
            i += 1;
            DegradationTrigger::GpDiverged(
                parse_cause(c)
                    .ok_or_else(|| cur.corrupt(format!("unknown divergence cause {c:?}")))?,
            )
        }
        "abacus-failed" => DegradationTrigger::AbacusFailed,
        "displacement-exceeded" => DegradationTrigger::DisplacementExceeded,
        "illegal-after-lg" => {
            let overlaps = parse_usize(cur, need(cur, &toks, i)?)?;
            i += 1;
            DegradationTrigger::IllegalAfterLg { overlaps }
        }
        "dp-pass-worsened" => {
            let pass = read_dp_pass(cur, need(cur, &toks, i)?)?;
            let worsening = parse_f64(cur, need(cur, &toks, i + 1)?)?;
            i += 2;
            DegradationTrigger::DpPassWorsened { pass, worsening }
        }
        "budget-exhausted" => DegradationTrigger::BudgetExhausted,
        other => return Err(cur.corrupt(format!("unknown trigger {other:?}"))),
    };
    let fb_tok = need(cur, &toks, i)?;
    i += 1;
    let fallback = match fb_tok {
        "uniform-field-density" => DegradationFallback::UniformFieldDensity,
        "conservative-gp-preset" => DegradationFallback::ConservativeGpPreset,
        "best-so-far-placement" => DegradationFallback::BestSoFarPlacement,
        "tetris-result" => DegradationFallback::TetrisResult,
        "retry-without-abacus" => DegradationFallback::RetryWithoutAbacus,
        "disabled-dp-pass" => {
            let pass = read_dp_pass(cur, need(cur, &toks, i)?)?;
            i += 1;
            DegradationFallback::DisabledDpPass(pass)
        }
        "stopped-stage-early" => DegradationFallback::StoppedStageEarly,
        other => return Err(cur.corrupt(format!("unknown fallback {other:?}"))),
    };
    if toks.len() != i {
        return Err(cur.corrupt(format!(
            "trailing tokens on degradation record: {:?}",
            &toks[i..]
        )));
    }
    Ok(DegradationEvent {
        stage,
        trigger,
        fallback,
    })
}

/// Parses full file contents (header + payload) into checkpoint data.
///
/// # Errors
///
/// See [`CheckpointError`].
pub fn deserialize<T: Float>(text: &str) -> Result<CheckpointData<T>, CheckpointError> {
    // Header: magic + version.
    let mut header = text.lines();
    let magic_line = header.next().unwrap_or("");
    let version = match magic_line.strip_prefix("DPCKPT v") {
        Some(v) => v.parse::<u32>().map_err(|_| CheckpointError::BadMagic {
            found: magic_line.to_string(),
        })?,
        None => {
            return Err(CheckpointError::BadMagic {
                found: magic_line.chars().take(40).collect(),
            })
        }
    };
    if version != VERSION {
        return Err(CheckpointError::VersionSkew {
            found: version,
            supported: VERSION,
        });
    }
    let crc_line = header.next().unwrap_or("");
    let expected_crc = crc_line
        .strip_prefix("crc 0x")
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or(CheckpointError::Corrupt {
            line: 2,
            reason: "missing or malformed crc header".into(),
        })?;

    // Payload starts right after the two header lines.
    let header_len = magic_line.len() + 1 + crc_line.len() + 1;
    let payload = text.get(header_len..).unwrap_or("");
    let actual_crc = crc32(payload.as_bytes());
    if actual_crc != expected_crc {
        return Err(CheckpointError::CrcMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }

    let mut cur = Cursor::new(payload, 2);

    let toks = cur.record("design")?;
    let cells = parse_usize(&cur, need(&cur, &toks, 1)?)?;
    let movable = parse_usize(&cur, need(&cur, &toks, 2)?)?;
    let nets = parse_usize(&cur, need(&cur, &toks, 3)?)?;
    if toks.len() < 5 {
        return Err(cur.corrupt("design record missing name"));
    }
    let name = toks[4..].join(" ");
    let design = DesignStamp {
        name,
        cells,
        movable,
        nets,
    };

    let toks = cur.record("stage")?;
    let stage_tag = need(&cur, &toks, 1)?.to_string();

    let toks = cur.record("timing")?;
    let timing = FlowTiming {
        io: parse_f64(&cur, need(&cur, &toks, 1)?)?,
        gp: parse_f64(&cur, need(&cur, &toks, 2)?)?,
        lg: parse_f64(&cur, need(&cur, &toks, 3)?)?,
        dp: parse_f64(&cur, need(&cur, &toks, 4)?)?,
        total: parse_f64(&cur, need(&cur, &toks, 5)?)?,
    };
    let consumed_total = read_scalar_record(&mut cur, "consumed")?;

    let toks = cur.record("fallback")?;
    let gp_fallback = match need(&cur, &toks, 1)? {
        "none" => None,
        "conservative" => {
            let c = need(&cur, &toks, 2)?;
            Some(GpFallback::ConservativePreset {
                cause: parse_cause(c)
                    .ok_or_else(|| cur.corrupt(format!("unknown divergence cause {c:?}")))?,
            })
        }
        "best-so-far" => {
            let c = need(&cur, &toks, 2)?;
            Some(GpFallback::BestSoFar {
                cause: parse_cause(c)
                    .ok_or_else(|| cur.corrupt(format!("unknown divergence cause {c:?}")))?,
                recoveries: parse_usize(&cur, need(&cur, &toks, 3)?)?,
            })
        }
        other => return Err(cur.corrupt(format!("unknown gp fallback {other:?}"))),
    };

    let toks = cur.record("degradations")?;
    let n_degr = parse_usize(&cur, need(&cur, &toks, 1)?)?;
    let mut degradations = Vec::with_capacity(n_degr);
    for _ in 0..n_degr {
        degradations.push(read_degradation(&mut cur)?);
    }

    let stage = match stage_tag.as_str() {
        "gp" => {
            let toks = cur.record("gp.attempt")?;
            let attempt = match need(&cur, &toks, 1)? {
                "primary" => GpAttemptState::Primary,
                "conservative" => {
                    let c = need(&cur, &toks, 2)?;
                    let cause = parse_cause(c)
                        .ok_or_else(|| cur.corrupt(format!("unknown divergence cause {c:?}")))?;
                    let primary_recoveries = parse_usize(&cur, need(&cur, &toks, 3)?)?;
                    let primary_best_overflow = parse_f64(&cur, need(&cur, &toks, 4)?)?;
                    let primary_best = read_placement::<T>(&mut cur, "pbest")?;
                    GpAttemptState::Conservative {
                        cause,
                        primary_recoveries,
                        primary_best,
                        primary_best_overflow,
                    }
                }
                other => return Err(cur.corrupt(format!("unknown gp attempt {other:?}"))),
            };
            let toks = cur.record("eng.counters")?;
            let next_iter = parse_usize(&cur, need(&cur, &toks, 1)?)?;
            let iterations = parse_usize(&cur, need(&cur, &toks, 2)?)?;
            let evals = parse_usize(&cur, need(&cur, &toks, 3)?)?;
            let recoveries = parse_usize(&cur, need(&cur, &toks, 4)?)?;
            let sched_iteration = parse_usize(&cur, need(&cur, &toks, 5)?)?;
            let counts = read_evals(&mut cur, "eng.evals")?;
            let toks = cur.record("eng.scalars")?;
            let lambda = parse_float::<T>(&cur, need(&cur, &toks, 1)?)?;
            let gamma = parse_float::<T>(&cur, need(&cur, &toks, 2)?)?;
            let gamma_boost = parse_float::<T>(&cur, need(&cur, &toks, 3)?)?;
            let lambda_cut = parse_float::<T>(&cur, need(&cur, &toks, 4)?)?;
            let sched_lambda = parse_float::<T>(&cur, need(&cur, &toks, 5)?)?;
            let ref_delta = parse_float::<T>(&cur, need(&cur, &toks, 6)?)?;
            let prev_hpwl = parse_float::<T>(&cur, need(&cur, &toks, 7)?)?;
            let best_overflow = parse_f64(&cur, need(&cur, &toks, 8)?)?;
            let consumed_seconds = parse_f64(&cur, need(&cur, &toks, 9)?)?;
            let params = read_vec::<T>(&mut cur, "params")?;
            let best_params = read_vec::<T>(&mut cur, "best")?;
            let solver = read_solver::<T>(&mut cur, "solver")?;
            let history = read_history(&mut cur, "eng.hist")?;
            let recovery_events = read_recoveries(&mut cur, "eng.recov")?;
            let toks = cur.record("rollback")?;
            let rb_iteration = parse_usize(&cur, need(&cur, &toks, 1)?)?;
            let rb_sched_iteration = parse_usize(&cur, need(&cur, &toks, 2)?)?;
            let rb_history_len = parse_usize(&cur, need(&cur, &toks, 3)?)?;
            let rb_sched_lambda = parse_float::<T>(&cur, need(&cur, &toks, 4)?)?;
            let rb_lambda = parse_float::<T>(&cur, need(&cur, &toks, 5)?)?;
            let rb_prev_hpwl = parse_float::<T>(&cur, need(&cur, &toks, 6)?)?;
            let rb_overflow = parse_f64(&cur, need(&cur, &toks, 7)?)?;
            let rb_params = read_vec::<T>(&mut cur, "rb.params")?;
            let rb_solver = read_solver::<T>(&mut cur, "solver.rb")?;
            let memo = read_memo::<T>(&mut cur)?;
            let exec = read_exec(&mut cur)?;
            CheckpointStage::Gp {
                attempt,
                engine: GpEngineState {
                    next_iter,
                    iterations,
                    evals,
                    params,
                    best_params,
                    best_overflow,
                    solver,
                    lambda,
                    gamma,
                    gamma_boost,
                    lambda_cut,
                    sched_lambda,
                    sched_iteration,
                    ref_delta,
                    prev_hpwl,
                    recoveries,
                    recovery_events,
                    history,
                    rollback: Arc::new(GpRollbackState {
                        iteration: rb_iteration,
                        params: rb_params,
                        solver: rb_solver,
                        sched_lambda: rb_sched_lambda,
                        sched_iteration: rb_sched_iteration,
                        lambda: rb_lambda,
                        prev_hpwl: rb_prev_hpwl,
                        history_len: rb_history_len,
                        overflow: rb_overflow,
                    }),
                    consumed_seconds,
                    exec,
                    counts,
                    memo,
                },
            }
        }
        "lg" => {
            let gp_stats = read_gp_stats(&mut cur)?;
            let hpwl_gp = read_scalar_record(&mut cur, "hpwl.gp")?;
            let gp_placement = read_placement::<T>(&mut cur, "gp")?;
            CheckpointStage::Lg {
                gp_stats,
                hpwl_gp,
                gp_placement,
            }
        }
        "dp" => {
            let gp_stats = read_gp_stats(&mut cur)?;
            let hpwl_gp = read_scalar_record(&mut cur, "hpwl.gp")?;
            let lg_stats = read_lg_stats(&mut cur)?;
            let hpwl_legal = read_scalar_record(&mut cur, "hpwl.legal")?;
            let placement = read_placement::<T>(&mut cur, "cur")?;
            let run = read_dp_run(&mut cur)?;
            CheckpointStage::Dp {
                gp_stats,
                hpwl_gp,
                lg_stats,
                hpwl_legal,
                placement,
                run,
            }
        }
        other => return Err(cur.corrupt(format!("unknown stage tag {other:?}"))),
    };

    let _ = cur.record("end")?;

    // Cross-field invariants the reader can check cheaply.
    if let CheckpointStage::Gp { engine, .. } = &stage {
        if engine.params.len() != 2 * design.movable {
            return Err(CheckpointError::Corrupt {
                line: 0,
                reason: format!(
                    "parameter vector length {} does not match 2 x {} movable cells",
                    engine.params.len(),
                    design.movable
                ),
            });
        }
        let memo = &engine.memo;
        if memo.valid
            && [&memo.key, &memo.wl_grad, &memo.density_grad]
                .iter()
                .any(|v| v.len() != 2 * design.movable)
        {
            return Err(CheckpointError::Corrupt {
                line: 0,
                reason: format!(
                    "memo vectors do not all hold 2 x {} movable-cell values",
                    design.movable
                ),
            });
        }
    }

    Ok(CheckpointData {
        design,
        timing,
        consumed_total,
        degradations,
        gp_fallback,
        stage,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::flow::FlowConfig;
    use crate::machine::{CheckpointStage, FlowMachine, FlowState};
    use crate::modes::ToolMode;
    use dp_gen::{GeneratedDesign, GeneratorConfig};

    fn design() -> GeneratedDesign<f64> {
        GeneratorConfig::new("ckpt test", 120, 132)
            .with_seed(9)
            .with_utilization(0.6)
            .generate::<f64>()
            .expect("ok")
    }

    fn config(d: &GeneratedDesign<f64>) -> FlowConfig<f64> {
        let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads: 1 }, &d.netlist);
        cfg.gp.max_iters = 120;
        cfg.gp.target_overflow = 0.2;
        cfg
    }

    /// Steps a fresh machine until `stop(state)` and captures there.
    fn capture_at(stop: impl Fn(FlowState) -> bool) -> CheckpointData<f64> {
        let d = design();
        let mut machine = FlowMachine::new(config(&d), &d);
        loop {
            let state = machine.step().expect("flow step");
            if stop(state) {
                return machine.capture().expect("capturable state");
            }
            assert!(state != FlowState::Done, "stop state never reached");
        }
    }

    fn gp_checkpoint() -> CheckpointData<f64> {
        capture_at(|s| matches!(s, FlowState::Gp { iteration } if iteration >= 3))
    }

    #[test]
    fn gp_stage_round_trips_bit_exactly() {
        let data = gp_checkpoint();
        let text = serialize(&data);
        let back = deserialize::<f64>(&text).expect("round trip");
        // Bit-exactness without PartialEq on the whole tree: a second
        // serialization of the reread data must be byte-identical.
        assert_eq!(text, serialize(&back));
        assert!(matches!(back.stage, CheckpointStage::Gp { .. }));
        assert_eq!(back.design.name, "ckpt test");
    }

    #[test]
    fn lg_and_dp_stages_round_trip_bit_exactly() {
        for stop in [
            FlowState::Lg,
            FlowState::Dp { pass: 0 },
            FlowState::Dp { pass: 1 },
        ] {
            let data = capture_at(|s| s == stop);
            let text = serialize(&data);
            let back = deserialize::<f64>(&text).expect("round trip");
            assert_eq!(text, serialize(&back), "stop state {stop}");
        }
    }

    #[test]
    fn non_finite_floats_survive_the_text_format() {
        let mut data = gp_checkpoint();
        if let CheckpointStage::Gp { engine, .. } = &mut data.stage {
            engine.prev_hpwl = f64::NAN;
            engine.best_overflow = f64::INFINITY;
        }
        data.timing.total = f64::NEG_INFINITY;
        let text = serialize(&data);
        let back = deserialize::<f64>(&text).expect("round trip");
        assert_eq!(text, serialize(&back));
    }

    #[test]
    fn write_read_through_directory_is_atomic_and_faithful() {
        let data = gp_checkpoint();
        let dir = std::env::temp_dir().join(format!("dp-ckpt-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_checkpoint(&dir, &data).expect("write");
        // The tmp file must not survive a successful write.
        assert!(!checkpoint_file(&dir).with_extension("ckpt.tmp").exists());
        let back = read_checkpoint::<f64>(&dir).expect("read");
        assert_eq!(serialize(&data), serialize(&back));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_reported_as_missing() {
        let dir = std::env::temp_dir().join(format!("dp-ckpt-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        match read_checkpoint::<f64>(&dir) {
            Err(CheckpointError::Missing { .. }) => {}
            other => panic!("want Missing, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_in_payload_is_caught_by_crc() {
        let text = serialize(&gp_checkpoint());
        // Flip one digit inside the payload body.
        let idx = text.rfind("end\n").unwrap() - 2;
        let mut bytes = text.into_bytes();
        bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
        let text = String::from_utf8(bytes).unwrap();
        match deserialize::<f64>(&text) {
            Err(CheckpointError::CrcMismatch { .. }) => {}
            other => panic!("want CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_caught_by_crc() {
        let text = serialize(&gp_checkpoint());
        let cut = &text[..text.len() / 2];
        match deserialize::<f64>(cut) {
            Err(CheckpointError::CrcMismatch { .. }) => {}
            other => panic!("want CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn foreign_file_is_rejected_by_magic() {
        match deserialize::<f64>("ev span begin\nnot a checkpoint\n") {
            Err(CheckpointError::BadMagic { .. }) => {}
            other => panic!("want BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn older_and_newer_versions_are_rejected_as_skew() {
        let text = serialize(&gp_checkpoint());
        for found in [1, 99] {
            let skewed = text.replacen("DPCKPT v2", &format!("DPCKPT v{found}"), 1);
            match deserialize::<f64>(&skewed) {
                Err(CheckpointError::VersionSkew { found: f, supported: VERSION })
                    if f == found => {}
                other => panic!("want VersionSkew for v{found}, got {other:?}"),
            }
        }
    }

    #[test]
    fn gp_checkpoint_carries_the_last_evaluated_point() {
        let data = gp_checkpoint();
        let CheckpointStage::Gp { engine, .. } = &data.stage else {
            panic!("gp stage");
        };
        let dim = 2 * data.design.movable;
        assert!(engine.memo.valid, "three steps in, a point has been evaluated");
        assert_eq!(
            [engine.memo.key.len(), engine.memo.wl_grad.len(), engine.memo.density_grad.len()],
            [dim; 3]
        );
        assert!(engine.counts.wl_evals > 0 && engine.counts.objective_evals > engine.counts.wl_evals);

        // A valid memo of the wrong length is caught by the reader even
        // with a correct CRC.
        let mut short = data.clone();
        if let CheckpointStage::Gp { engine, .. } = &mut short.stage {
            engine.memo.wl_grad.pop();
        }
        match deserialize::<f64>(&serialize(&short)) {
            Err(CheckpointError::Corrupt { reason, .. }) => assert!(reason.contains("memo")),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn tampered_record_with_fixed_crc_is_caught_by_schema() {
        let text = serialize(&gp_checkpoint());
        let payload_start = text.find("\ncrc 0x").unwrap() + 1 + "crc 0x00000000\n".len();
        let tampered = text[payload_start..].replacen("stage gp", "stage zz", 1);
        let crc = crc32(tampered.as_bytes());
        let fixed = format!("{MAGIC} v{VERSION}\ncrc {crc:#010x}\n{tampered}");
        match deserialize::<f64>(&fixed) {
            Err(CheckpointError::Corrupt { .. }) => {}
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn design_name_with_spaces_round_trips() {
        let data = gp_checkpoint();
        assert_eq!(data.design.name, "ckpt test");
        let back = deserialize::<f64>(&serialize(&data)).expect("round trip");
        assert_eq!(back.design.name, "ckpt test");
    }
}
