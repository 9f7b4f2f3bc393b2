//! Schema-validating reader for `dreamplace-core` flow checkpoints.
//!
//! Deliberately independent of the writer/reader pair in
//! `dreamplace_core::checkpoint` — this module re-derives the `DPCKPT v3`
//! format from its documented grammar with its own tokenizer and its own
//! CRC32 (both are table-driven; this one builds its table at run time with
//! a branching bit step, the core's is a compile-time constant built with a
//! branch-free mask), so an encode bug cannot hide behind a shared
//! implementation. The checks, in order:
//!
//! 1. header: magic line `DPCKPT v<N>` with a supported version, then a
//!    `crc 0x<8 hex>` line whose CRC32 (poly `0xEDB88320`) matches the
//!    payload bytes exactly;
//! 2. record schema: every payload line is a known record with the right
//!    arity and token types for its position in the stage-specific
//!    grammar (a `gp.timing` field, like the engine's consumed seconds, is
//!    seconds some `Duration` can hold; the engine's `gamma`, its boost and
//!    its reference delta are positive, as the engine asserts), ending in a
//!    single `end` with nothing after it;
//! 3. cross-field invariants: `movable <= cells`, every parameter/solver
//!    vector is `2 x movable` long, every placement is `cells` long with
//!    matching x/y lengths, the GP history is strictly increasing and
//!    stays below the next-iteration counter, the scheduler iteration
//!    never exceeds the engine iteration, rollback state points inside
//!    the recorded history, the `memo` block's three vectors are `2 x
//!    movable` long when it is valid and empty when it is not, a valid
//!    memo's `gamma` is positive, its overflow is not negative (`NaN`
//!    allowed: a uniform-field grid has none), no more operator evaluations
//!    than objective calls are recorded, workspace reuses never exceed
//!    uses, and DP pass indices are in range.
//!
//! The CLI exposes this as `dreamplace checkpoint-check <file|dir>`; the
//! CI crash-resume job runs it on the checkpoint left behind by an
//! injected kill before resuming from it.

use std::fmt;
use std::path::Path;
use std::time::Duration;

/// Version this validator understands (kept in lockstep with
/// `dreamplace_core::checkpoint::VERSION` through the cross-validation
/// tests).
pub const SUPPORTED_VERSION: u32 = 3;

/// Why a checkpoint failed validation.
#[derive(Debug)]
pub enum CkptError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The two-line header is malformed (magic or crc line).
    Header(String),
    /// The file is a checkpoint of an unsupported format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this validator supports.
        supported: u32,
    },
    /// The payload does not hash to the header CRC.
    Crc {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
    /// A record failed parsing or an invariant, with its 1-based line.
    Line {
        /// 1-based line number in the file.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "io: {e}"),
            CkptError::Header(msg) => write!(f, "header: {msg}"),
            CkptError::Version { found, supported } => {
                write!(f, "version v{found} not supported (validator knows v{supported})")
            }
            CkptError::Crc { expected, actual } => write!(
                f,
                "payload crc {actual:#010x} does not match header {expected:#010x}"
            ),
            CkptError::Line { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// What a valid checkpoint contained, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptSummary {
    /// Format version from the header.
    pub version: u32,
    /// Stage tag (`gp`, `lg`, `dp`).
    pub stage: String,
    /// Design name from the identity stamp.
    pub name: String,
    /// Total cell count.
    pub cells: usize,
    /// Movable cell count.
    pub movable: usize,
    /// Net count.
    pub nets: usize,
    /// Payload records validated (including `end`).
    pub records: usize,
    /// Float tokens validated.
    pub floats: usize,
    /// Degradation events recorded.
    pub degradations: usize,
    /// For GP-stage checkpoints, the next engine iteration to execute.
    pub gp_next_iteration: Option<usize>,
}

/// Table-driven CRC32 (reflected, poly `0xEDB88320`), its table built per
/// call with a branching bit step — a different construction from the
/// core's compile-time table on purpose.
fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Validates a checkpoint file (or a directory containing `flow.ckpt`).
///
/// # Errors
///
/// See [`CkptError`].
pub fn validate_checkpoint_file(path: &Path) -> Result<CkptSummary, CkptError> {
    let file = if path.is_dir() {
        path.join("flow.ckpt")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file)?;
    validate_checkpoint_str(&text)
}

/// Line cursor over the payload with 1-based file positions.
struct Cur<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    /// 1-based line number of the last line handed out.
    line: usize,
    records: usize,
    floats: usize,
}

impl<'a> Cur<'a> {
    fn err(&self, msg: impl Into<String>) -> CkptError {
        CkptError::Line {
            line: self.line,
            msg: msg.into(),
        }
    }

    /// Next payload line tokenized on whitespace, with the leading token
    /// required to be `tag`.
    fn rec(&mut self, tag: &str) -> Result<Vec<&'a str>, CkptError> {
        let Some((i, line)) = self.lines.next() else {
            self.line += 1;
            return Err(self.err(format!("unexpected end of file, expected `{tag}`")));
        };
        // Payload starts on file line 3.
        self.line = i + 3;
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.first().copied() != Some(tag) {
            return Err(self.err(format!(
                "expected `{tag}` record, found {:?}",
                toks.first().copied().unwrap_or("")
            )));
        }
        self.records += 1;
        Ok(toks)
    }

    fn field<'t>(&self, toks: &[&'t str], idx: usize) -> Result<&'t str, CkptError> {
        toks.get(idx)
            .copied()
            .ok_or_else(|| self.err(format!("missing field {idx}")))
    }

    fn usize(&self, toks: &[&str], idx: usize) -> Result<usize, CkptError> {
        let tok = self.field(toks, idx)?;
        tok.parse()
            .map_err(|_| self.err(format!("bad integer {tok:?} at field {idx}")))
    }

    fn u64(&self, toks: &[&str], idx: usize) -> Result<u64, CkptError> {
        let tok = self.field(toks, idx)?;
        tok.parse()
            .map_err(|_| self.err(format!("bad integer {tok:?} at field {idx}")))
    }

    fn f64(&mut self, toks: &[&str], idx: usize) -> Result<f64, CkptError> {
        let tok = self.field(toks, idx)?;
        let v = match tok {
            "NaN" => f64::NAN,
            "inf" => f64::INFINITY,
            "-inf" => f64::NEG_INFINITY,
            // Raw IEEE-754 bits, `x` + 16 lowercase hex digits — the bulk
            // `vec` encoding. Implemented here from the format notes,
            // independently of the core reader.
            _ if tok.starts_with('x') => {
                let hex = &tok[1..];
                if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(self.err(format!("bad float bits {tok:?} at field {idx}")));
                }
                u64::from_str_radix(hex, 16)
                    .map(f64::from_bits)
                    .map_err(|_| self.err(format!("bad float bits {tok:?} at field {idx}")))?
            }
            _ => tok
                .parse()
                .map_err(|_| self.err(format!("bad float {tok:?} at field {idx}")))?,
        };
        self.floats += 1;
        Ok(v)
    }

    fn flag(&self, toks: &[&str], idx: usize) -> Result<bool, CkptError> {
        match self.field(toks, idx)? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(self.err(format!("bad flag {other:?} at field {idx} (want 0|1)"))),
        }
    }

    fn arity(&self, toks: &[&str], n: usize) -> Result<(), CkptError> {
        if toks.len() != n {
            return Err(self.err(format!(
                "`{}` record carries {} fields, want {}",
                toks.first().copied().unwrap_or(""),
                toks.len() - 1,
                n - 1
            )));
        }
        Ok(())
    }

    /// `vec <name> <len> <floats...>` with the expected length, or
    /// (when `optional`) `vec <name> none`. Returns the length read.
    fn vec(&mut self, name: &str, want_len: usize, optional: bool) -> Result<usize, CkptError> {
        let toks = self.rec("vec")?;
        let found = self.field(&toks, 1)?;
        if found != name {
            return Err(self.err(format!("expected vector {name:?}, found {found:?}")));
        }
        if optional && self.field(&toks, 2)? == "none" {
            self.arity(&toks, 3)?;
            return Ok(0);
        }
        let len = self.usize(&toks, 2)?;
        if len != want_len {
            return Err(self.err(format!(
                "vector {name:?} has length {len}, want {want_len}"
            )));
        }
        self.arity(&toks, 3 + len)?;
        for i in 0..len {
            self.f64(&toks, 3 + i)?;
        }
        Ok(len)
    }

    /// A placement: `<prefix>.x` and `<prefix>.y`, both `cells` long.
    fn placement(&mut self, prefix: &str, cells: usize) -> Result<(), CkptError> {
        self.vec(&format!("{prefix}.x"), cells, false)?;
        self.vec(&format!("{prefix}.y"), cells, false)?;
        Ok(())
    }
}

const CAUSES: [&str; 5] = [
    "non-finite-cost",
    "non-finite-gradient",
    "non-finite-position",
    "non-finite-hpwl",
    "overflow-explosion",
];

fn is_cause(tok: &str) -> bool {
    CAUSES.contains(&tok)
}

/// Validates full checkpoint file contents.
///
/// # Errors
///
/// See [`CkptError`].
pub fn validate_checkpoint_str(text: &str) -> Result<CkptSummary, CkptError> {
    // -- Header ------------------------------------------------------------
    let mut header = text.lines();
    let magic = header.next().unwrap_or("");
    let version: u32 = magic
        .strip_prefix("DPCKPT v")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            CkptError::Header(format!(
                "first line {:?} is not `DPCKPT v<N>`",
                magic.chars().take(40).collect::<String>()
            ))
        })?;
    if version != SUPPORTED_VERSION {
        return Err(CkptError::Version {
            found: version,
            supported: SUPPORTED_VERSION,
        });
    }
    let crc_line = header.next().unwrap_or("");
    let expected = crc_line
        .strip_prefix("crc 0x")
        .filter(|hex| hex.len() == 8)
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or_else(|| CkptError::Header("second line is not `crc 0x<8 hex digits>`".into()))?;
    let payload_start = magic.len() + 1 + crc_line.len() + 1;
    let payload = text.get(payload_start..).unwrap_or("");
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(CkptError::Crc { expected, actual });
    }

    let mut cur = Cur {
        lines: payload.lines().enumerate(),
        line: 2,
        records: 0,
        floats: 0,
    };

    // -- Identity and flow-wide records -------------------------------------
    let toks = cur.rec("design")?;
    let cells = cur.usize(&toks, 1)?;
    let movable = cur.usize(&toks, 2)?;
    let nets = cur.usize(&toks, 3)?;
    if movable > cells {
        return Err(cur.err(format!("{movable} movable cells exceed {cells} total")));
    }
    if toks.len() < 5 {
        return Err(cur.err("design record missing name"));
    }
    let name = toks[4..].join(" ");
    let dim = movable
        .checked_mul(2)
        .ok_or_else(|| cur.err(format!("{movable} movable cells overflow a vector length")))?;

    let toks = cur.rec("stage")?;
    cur.arity(&toks, 2)?;
    let stage = cur.field(&toks, 1)?.to_string();

    let toks = cur.rec("timing")?;
    cur.arity(&toks, 6)?;
    for i in 1..=5 {
        cur.f64(&toks, i)?;
    }
    let toks = cur.rec("consumed")?;
    cur.arity(&toks, 2)?;
    let consumed = cur.f64(&toks, 1)?;
    if consumed.is_nan() || consumed < 0.0 {
        return Err(cur.err(format!("consumed wall-clock {consumed} is not >= 0")));
    }

    let toks = cur.rec("fallback")?;
    match cur.field(&toks, 1)? {
        "none" => cur.arity(&toks, 2)?,
        "conservative" => {
            cur.arity(&toks, 3)?;
            let c = cur.field(&toks, 2)?;
            if !is_cause(c) {
                return Err(cur.err(format!("unknown divergence cause {c:?}")));
            }
        }
        "best-so-far" => {
            cur.arity(&toks, 4)?;
            let c = cur.field(&toks, 2)?;
            if !is_cause(c) {
                return Err(cur.err(format!("unknown divergence cause {c:?}")));
            }
            cur.usize(&toks, 3)?;
        }
        other => return Err(cur.err(format!("unknown gp fallback {other:?}"))),
    }

    let toks = cur.rec("degradations")?;
    cur.arity(&toks, 2)?;
    let n_degr = cur.usize(&toks, 1)?;
    for _ in 0..n_degr {
        degradation(&mut cur)?;
    }

    // -- Stage-specific payload ---------------------------------------------
    let mut gp_next_iteration = None;
    match stage.as_str() {
        "gp" => gp_next_iteration = Some(gp_stage(&mut cur, cells, dim)?),
        "lg" => {
            gp_stats(&mut cur)?;
            scalar(&mut cur, "hpwl.gp")?;
            cur.placement("gp", cells)?;
        }
        "dp" => {
            gp_stats(&mut cur)?;
            scalar(&mut cur, "hpwl.gp")?;
            lg_stats(&mut cur)?;
            scalar(&mut cur, "hpwl.legal")?;
            cur.placement("cur", cells)?;
            dp_run(&mut cur)?;
        }
        other => return Err(cur.err(format!("unknown stage tag {other:?}"))),
    }

    let toks = cur.rec("end")?;
    cur.arity(&toks, 1)?;
    if let Some((i, line)) = cur.lines.find(|(_, l)| !l.trim().is_empty()) {
        cur.line = i + 3;
        return Err(cur.err(format!("trailing content after `end`: {line:?}")));
    }

    Ok(CkptSummary {
        version,
        stage,
        name,
        cells,
        movable,
        nets,
        records: cur.records,
        floats: cur.floats,
        degradations: n_degr,
        gp_next_iteration,
    })
}

fn scalar(cur: &mut Cur<'_>, tag: &str) -> Result<f64, CkptError> {
    let toks = cur.rec(tag)?;
    cur.arity(&toks, 2)?;
    cur.f64(&toks, 1)
}

fn degradation(cur: &mut Cur<'_>) -> Result<(), CkptError> {
    let toks = cur.rec("degr")?;
    let stage = cur.field(&toks, 1)?;
    if !["sanitize", "gp", "lg", "dp"].contains(&stage) {
        return Err(cur.err(format!("unknown flow stage {stage:?}")));
    }
    let mut i = 2;
    let trig = cur.field(&toks, i)?;
    i += 1;
    match trig {
        "degenerate-grid" => {
            cur.usize(&toks, i)?;
            cur.usize(&toks, i + 1)?;
            i += 2;
        }
        "gp-diverged" => {
            let c = cur.field(&toks, i)?;
            if !is_cause(c) {
                return Err(cur.err(format!("unknown divergence cause {c:?}")));
            }
            i += 1;
        }
        "abacus-failed" | "displacement-exceeded" | "budget-exhausted" => {}
        "illegal-after-lg" => {
            cur.usize(&toks, i)?;
            i += 1;
        }
        "dp-pass-worsened" => {
            dp_pass(cur, &toks, i)?;
            cur.f64(&toks, i + 1)?;
            i += 2;
        }
        other => return Err(cur.err(format!("unknown trigger {other:?}"))),
    }
    let fb = cur.field(&toks, i)?;
    i += 1;
    match fb {
        "uniform-field-density" | "conservative-gp-preset" | "best-so-far-placement"
        | "tetris-result" | "retry-without-abacus" | "stopped-stage-early" => {}
        "disabled-dp-pass" => {
            dp_pass(cur, &toks, i)?;
            i += 1;
        }
        other => return Err(cur.err(format!("unknown fallback {other:?}"))),
    }
    cur.arity(&toks, i)
}

fn dp_pass(cur: &Cur<'_>, toks: &[&str], idx: usize) -> Result<usize, CkptError> {
    let p = cur.usize(toks, idx)?;
    if p > 2 {
        return Err(cur.err(format!("dp pass index {p} out of range (0..=2)")));
    }
    Ok(p)
}

fn solver(cur: &mut Cur<'_>, prefix: &str, dim: usize) -> Result<(), CkptError> {
    let toks = cur.rec(prefix)?;
    cur.arity(&toks, 2)?;
    match cur.field(&toks, 1)? {
        "nesterov" => {
            let s = cur.rec("sv.scalars")?;
            cur.arity(&s, 3)?;
            cur.f64(&s, 1)?;
            cur.f64(&s, 2)?;
            for v in ["v", "u_prev", "g_prev", "v_prev"] {
                cur.vec(v, dim, true)?;
            }
        }
        "adam" => {
            let s = cur.rec("sv.scalars")?;
            cur.arity(&s, 3)?;
            cur.f64(&s, 1)?;
            cur.field(&s, 2)?
                .parse::<u32>()
                .map_err(|_| cur.err("bad adam step counter"))?;
            cur.vec("m", dim, false)?;
            cur.vec("v", dim, false)?;
        }
        "sgd-momentum" => {
            let s = cur.rec("sv.scalars")?;
            cur.arity(&s, 2)?;
            cur.f64(&s, 1)?;
            cur.vec("velocity", dim, false)?;
        }
        "conjugate-gradient" => {
            let s = cur.rec("sv.scalars")?;
            cur.arity(&s, 2)?;
            cur.f64(&s, 1)?;
            for v in ["g_prev", "d_prev", "p_prev"] {
                cur.vec(v, dim, true)?;
            }
        }
        other => return Err(cur.err(format!("unknown solver tag {other:?}"))),
    }
    Ok(())
}

/// `<tag> <n>` then `n` `h` lines; returns the iteration indices, checked
/// strictly increasing.
fn history(cur: &mut Cur<'_>, tag: &str) -> Result<Vec<usize>, CkptError> {
    let toks = cur.rec(tag)?;
    cur.arity(&toks, 2)?;
    let n = cur.usize(&toks, 1)?;
    // `n` is the file's claim: grow with the records actually read.
    let mut iters = Vec::new();
    for _ in 0..n {
        let toks = cur.rec("h")?;
        cur.arity(&toks, 6)?;
        let k = cur.usize(&toks, 1)?;
        for i in 2..=5 {
            cur.f64(&toks, i)?;
        }
        if iters.last().is_some_and(|&last| k <= last) {
            return Err(cur.err(format!("history iteration {k} does not increase")));
        }
        iters.push(k);
    }
    Ok(iters)
}

fn recoveries(cur: &mut Cur<'_>, tag: &str) -> Result<(), CkptError> {
    let toks = cur.rec(tag)?;
    cur.arity(&toks, 2)?;
    let n = cur.usize(&toks, 1)?;
    for _ in 0..n {
        let toks = cur.rec("r")?;
        cur.arity(&toks, 6)?;
        let iteration = cur.usize(&toks, 1)?;
        let resumed_from = cur.usize(&toks, 2)?;
        if resumed_from > iteration {
            return Err(cur.err(format!(
                "recovery resumed from {resumed_from} which is after iteration {iteration}"
            )));
        }
        let c = cur.field(&toks, 3)?;
        if !is_cause(c) {
            return Err(cur.err(format!("unknown divergence cause {c:?}")));
        }
        cur.f64(&toks, 4)?;
        cur.f64(&toks, 5)?;
    }
    Ok(())
}

fn exec(cur: &mut Cur<'_>) -> Result<(), CkptError> {
    let toks = cur.rec("exec.pool")?;
    cur.arity(&toks, 4)?;
    for i in 1..=3 {
        cur.u64(&toks, i)?;
    }
    let toks = cur.rec("exec.ops")?;
    cur.arity(&toks, 2)?;
    let n_ops = cur.usize(&toks, 1)?;
    for _ in 0..n_ops {
        let toks = cur.rec("op")?;
        cur.u64(&toks, 1)?;
        cur.u64(&toks, 2)?;
        if toks.len() < 4 {
            return Err(cur.err("op record missing name"));
        }
    }
    let toks = cur.rec("exec.ws")?;
    cur.arity(&toks, 2)?;
    let n_ws = cur.usize(&toks, 1)?;
    for _ in 0..n_ws {
        let toks = cur.rec("ws")?;
        let uses = cur.u64(&toks, 1)?;
        let reuses = cur.u64(&toks, 2)?;
        cur.u64(&toks, 3)?;
        if toks.len() < 5 {
            return Err(cur.err("ws record missing name"));
        }
        if reuses > uses {
            return Err(cur.err(format!("workspace reuses {reuses} exceed uses {uses}")));
        }
    }
    Ok(())
}

/// `<tag> <objective> <wirelength> <density> <backtracks>`: an operator
/// runs at most once per objective call.
fn evals(cur: &mut Cur<'_>, tag: &str) -> Result<(), CkptError> {
    let toks = cur.rec(tag)?;
    cur.arity(&toks, 5)?;
    let objective = cur.u64(&toks, 1)?;
    for (i, what) in [(2, "wirelength"), (3, "density")] {
        let n = cur.u64(&toks, i)?;
        if n > objective {
            return Err(cur.err(format!(
                "{n} {what} evaluations exceed {objective} objective calls"
            )));
        }
    }
    cur.u64(&toks, 4)?;
    Ok(())
}

/// The engine's last evaluated point: scalars (valid flag, gamma,
/// wirelength cost, energy, overflow), then key, wirelength gradient and
/// density gradient.
fn memo(cur: &mut Cur<'_>, dim: usize) -> Result<(), CkptError> {
    let toks = cur.rec("memo")?;
    cur.arity(&toks, 6)?;
    let valid = cur.flag(&toks, 1)?;
    let gamma = cur.f64(&toks, 2)?;
    cur.f64(&toks, 3)?;
    cur.f64(&toks, 4)?;
    // An overflow is a ratio of areas: never negative. NaN is legal — a
    // uniform-field grid has no map to read one off, and a diverged point
    // has a NaN one the tripwire already acted on.
    let overflow = cur.f64(&toks, 5)?;
    if overflow < 0.0 {
        return Err(cur.err(format!("memo overflow {overflow} is negative")));
    }
    if valid && gamma.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(cur.err(format!("valid memo recorded at gamma {gamma}, not > 0")));
    }
    // The writer emits an invalid memo with empty vectors.
    let want = if valid { dim } else { 0 };
    for name in ["memo.key", "memo.wl", "memo.density"] {
        cur.vec(name, want, false)?;
    }
    Ok(())
}

fn gp_stats(cur: &mut Cur<'_>) -> Result<(), CkptError> {
    let toks = cur.rec("gp.stats")?;
    cur.arity(&toks, 6)?;
    cur.usize(&toks, 1)?;
    cur.f64(&toks, 2)?;
    cur.f64(&toks, 3)?;
    cur.flag(&toks, 4)?;
    cur.usize(&toks, 5)?;
    let toks = cur.rec("gp.timing")?;
    cur.arity(&toks, 7)?;
    for i in 1..=6 {
        let v = cur.f64(&toks, i)?;
        if Duration::try_from_secs_f64(v).is_err() {
            return Err(cur.err(format!("gp timing field {i} is {v}, not a duration")));
        }
    }
    evals(cur, "gp.evals")?;
    history(cur, "gp.hist")?;
    recoveries(cur, "gp.recov")?;
    exec(cur)
}

fn lg_stats(cur: &mut Cur<'_>) -> Result<(), CkptError> {
    let toks = cur.rec("lg.stats")?;
    cur.arity(&toks, 5)?;
    for i in 1..=3 {
        cur.f64(&toks, i)?;
    }
    match cur.field(&toks, 4)? {
        "none" | "abacus-failed" | "displacement-exceeded" => Ok(()),
        other => Err(cur.err(format!("unknown lg fallback {other:?}"))),
    }
}

fn dp_run(cur: &mut Cur<'_>) -> Result<(), CkptError> {
    let toks = cur.rec("dp.run")?;
    cur.arity(&toks, 13)?;
    cur.usize(&toks, 1)?;
    // The cursor may rest at 3 (== pass count) transiently at a round
    // boundary; the next step folds it back to 0.
    let pass_idx = cur.usize(&toks, 2)?;
    if pass_idx > 3 {
        return Err(cur.err(format!("dp pass cursor {pass_idx} out of range (0..=3)")));
    }
    let moves = cur.usize(&toks, 3)?;
    let moves_at_round_start = cur.usize(&toks, 4)?;
    if moves_at_round_start > moves {
        return Err(cur.err(format!(
            "round-start move count {moves_at_round_start} exceeds total {moves}"
        )));
    }
    for i in 5..=7 {
        cur.flag(&toks, i)?;
    }
    cur.usize(&toks, 8)?;
    cur.flag(&toks, 9)?;
    let injected = cur.field(&toks, 10)?;
    if injected != "-1" {
        dp_pass(cur, &toks, 10)?;
    }
    cur.f64(&toks, 11)?;
    let consumed = cur.f64(&toks, 12)?;
    if consumed.is_nan() || consumed < 0.0 {
        return Err(cur.err(format!("dp consumed wall-clock {consumed} is not >= 0")));
    }
    let toks = cur.rec("dp.disabled")?;
    cur.arity(&toks, 2)?;
    let n = cur.usize(&toks, 1)?;
    if n > 3 {
        return Err(cur.err(format!("{n} disabled dp passes exceed the 3 that exist")));
    }
    for _ in 0..n {
        let toks = cur.rec("dd")?;
        cur.arity(&toks, 3)?;
        dp_pass(cur, &toks, 1)?;
        cur.f64(&toks, 2)?;
    }
    Ok(())
}

/// GP-stage payload; returns the next engine iteration.
fn gp_stage(cur: &mut Cur<'_>, cells: usize, dim: usize) -> Result<usize, CkptError> {
    let toks = cur.rec("gp.attempt")?;
    match cur.field(&toks, 1)? {
        "primary" => cur.arity(&toks, 2)?,
        "conservative" => {
            cur.arity(&toks, 5)?;
            let c = cur.field(&toks, 2)?;
            if !is_cause(c) {
                return Err(cur.err(format!("unknown divergence cause {c:?}")));
            }
            cur.usize(&toks, 3)?;
            cur.f64(&toks, 4)?;
            cur.placement("pbest", cells)?;
        }
        other => return Err(cur.err(format!("unknown gp attempt {other:?}"))),
    }

    let toks = cur.rec("eng.counters")?;
    cur.arity(&toks, 6)?;
    let next_iter = cur.usize(&toks, 1)?;
    cur.usize(&toks, 2)?;
    cur.usize(&toks, 3)?;
    cur.usize(&toks, 4)?;
    let sched_iteration = cur.usize(&toks, 5)?;
    // The λ scheduler advances at most once per engine iteration.
    if sched_iteration > next_iter {
        return Err(cur.err(format!(
            "scheduler iteration {sched_iteration} is ahead of engine iteration {next_iter}"
        )));
    }
    evals(cur, "eng.evals")?;

    let toks = cur.rec("eng.scalars")?;
    cur.arity(&toks, 10)?;
    for i in 1..=9 {
        let v = cur.f64(&toks, i)?;
        // The engine asserts gamma (2), its boost (3) and the reference
        // delta (6) positive, and turns the consumed seconds (9) into a
        // `Duration`.
        if [2, 3, 6].contains(&i) && v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(cur.err(format!("eng.scalars field {i} is {v}, not positive")));
        }
        if i == 9 && Duration::try_from_secs_f64(v).is_err() {
            return Err(cur.err(format!("consumed seconds {v} is not a duration")));
        }
    }

    cur.vec("params", dim, false)?;
    cur.vec("best", dim, false)?;
    solver(cur, "solver", dim)?;
    let hist = history(cur, "eng.hist")?;
    if hist.last().is_some_and(|&last| last >= next_iter) {
        return Err(cur.err(format!(
            "history reaches iteration {} but the engine has only executed up to {}",
            hist.last().copied().unwrap_or(0),
            next_iter
        )));
    }
    recoveries(cur, "eng.recov")?;

    let toks = cur.rec("rollback")?;
    cur.arity(&toks, 8)?;
    let rb_iteration = cur.usize(&toks, 1)?;
    cur.usize(&toks, 2)?;
    let rb_history_len = cur.usize(&toks, 3)?;
    if rb_iteration > next_iter {
        return Err(cur.err(format!(
            "rollback anchor {rb_iteration} is ahead of engine iteration {next_iter}"
        )));
    }
    if rb_history_len > hist.len() {
        return Err(cur.err(format!(
            "rollback keeps {rb_history_len} history records but only {} exist",
            hist.len()
        )));
    }
    for i in 4..=7 {
        cur.f64(&toks, i)?;
    }
    cur.vec("rb.params", dim, false)?;
    solver(cur, "solver.rb", dim)?;
    memo(cur, dim)?;
    exec(cur)?;
    Ok(next_iter)
}
