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
//! * bulk `vec` records and the per-iteration history use the raw
//!   IEEE-754 bit pattern, `x`-prefixed hex (`x3fe5551d68c692aa`) — exact
//!   by construction and ~5x faster to emit and parse, which is what keeps
//!   mid-GP checkpoints (fourteen solver/rollback/memo vectors) inside the
//!   < 5% wall-clock overhead budget.
//!
//! Readers accept either float form in any position.
//!
//! ```text
//! DPCKPT v3
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
//! memo <valid 0|1> <gamma> <wl_cost> <energy> <overflow>
//! vec memo.key <len> ...        <- 2 x movable when valid, else empty
//! vec memo.wl <len> ...
//! vec memo.density <len> ...
//! ```
//!
//! and a `gp.evals` record (same four counts) after `gp.timing` in the
//! finished-GP statistics of the LG/DP stages. v3 (the overflow read off
//! the forward's map) appended `<overflow>` to the `memo` record: the
//! density overflow at the memo's key, which the next step's tripwire reads
//! (`NaN` on a uniform-field grid, which has none). v1 and v2 files are
//! refused as [`CheckpointError::VersionSkew`].
//!
//! **Each record is described once.** The functions that take a `Codec` give
//! every record's tag, its fields in order and each value's token form
//! (`Token`: one encoder and one decoder per type); each enum has one
//! `[(variant, "token")]` list. [`serialize`] runs them with a writer,
//! [`deserialize`] with a reader, so the two directions cannot drift apart.
//! The reader walks each line's tokens in place, rejects a line with
//! tokens left over, and reserves for a count-prefixed block (`vec`
//! values, history, recoveries, op and workspace counters, degradations,
//! disabled DP passes) at most what the rest of the payload can hold, so a
//! CRC-valid file with a hostile count is `Corrupt` at its line rather
//! than an allocation abort. `tests/fixtures/flow_v3_{gp,lg,dp}.ckpt` pin
//! the v3 bytes: each must re-serialize byte for byte.
//!
//! Durability: [`write_checkpoint`] writes to `<file>.tmp`, fdatasyncs,
//! renames over the previous checkpoint, then (on unix) fsyncs the
//! directory so the rename itself survives a power loss; a crash mid-write
//! never corrupts the last good checkpoint. Readers verify magic, version, and
//! CRC before touching the payload and report structured
//! [`CheckpointError`]s (surfaced as `FlowError::Checkpoint` with a
//! `diagnosis()` one-liner).
//!
//! The independent validator in `dp-check` re-implements this reader from
//! the format notes above (own tokenizer, own CRC) — keep the two in sync
//! through the golden fixtures in `tests/`.

use std::cell::Cell;
use std::fmt;
use std::io::Write;
use std::mem::discriminant;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dp_autograd::{ExecSummary, OpCounter, WorkspaceCounter};
use dp_dplace::{DpGuardReport, DpPass, DpRunState};
use dp_gp::{DivergenceCause, GpEngineState, GpEvalCounts, GpMemoEntry, GpMemoState,
    GpRollbackState, GpRunState, GpStats, GpTiming, IterRecord, RecoveryEvent};
use dp_lg::{LgFallback, LgStats};
use dp_netlist::Placement;
use dp_num::Float;
use dp_optim::{AdamState, CgState, NesterovState, OptimizerSnapshot, SgdState};

use crate::flow::{
    DegradationEvent, DegradationFallback, DegradationTrigger, FlowStage, FlowTiming, GpFallback,
};
use crate::machine::{
    CheckpointData, CheckpointStage, DesignStamp, GpAttemptState, GpHandoff, LegalState,
};

/// Magic first line; bump the version on any layout change.
pub const MAGIC: &str = "DPCKPT";
/// Current format version.
pub const VERSION: u32 = 3;
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
    /// The stage state parsed, but its stage refused to resume from it
    /// (GP refusals surface as `FlowError::Gp` instead).
    Unresumable {
        /// The stage that refused.
        stage: &'static str,
        /// Why.
        reason: String,
    },
    /// The design's name cannot be recorded: the `design` record ends its
    /// line with the name, so a blank one or one holding a line break would
    /// not read back as written.
    UnrecordableName {
        /// The name.
        name: String,
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
            CheckpointError::Unresumable { stage, reason } => {
                write!(f, "{stage} state cannot be resumed: {reason}")
            }
            CheckpointError::UnrecordableName { name } => write!(
                f,
                "design name {name:?} cannot be recorded (blank, or holding a line break)"
            ),
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
/// [`CheckpointError::UnrecordableName`] when the design's name cannot be
/// recorded, else [`CheckpointError::Io`] only.
pub fn write_checkpoint<T: Float>(
    dir: &Path,
    data: &CheckpointData<T>,
) -> Result<(), CheckpointError> {
    check_name(&data.design.name)?;
    write_serialized(dir, &serialize(data))
}

/// Refuses a design name the `design` record cannot carry: both readers
/// refuse a blank name, a line feed splits the record in two, and a
/// carriage return at the end of a line is dropped on read.
pub(crate) fn check_name(name: &str) -> Result<(), CheckpointError> {
    if name.trim().is_empty() || name.contains(['\n', '\r']) {
        return Err(CheckpointError::UnrecordableName { name: name.to_string() });
    }
    Ok(())
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
    // The rename is durable only once the directory entry is on disk too.
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
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
// Tokens: one encoder and one decoder per value type
// ---------------------------------------------------------------------------

type Res<V> = Result<V, CheckpointError>;

/// A value spelled as one token.
trait Token: Copy {
    /// What the reader calls a token that does not decode.
    const WHAT: &'static str;
    fn enc(self, out: &mut String);
    fn dec(tok: &str) -> Option<Self>;
}

macro_rules! integer_tokens {
    ($($t:ty),*) => {$(
        impl Token for $t {
            const WHAT: &'static str = "integer";
            fn enc(self, out: &mut String) {
                use fmt::Write as _;
                let _ = write!(out, "{self}");
            }
            fn dec(tok: &str) -> Option<Self> {
                tok.parse().ok()
            }
        }
    )*};
}
integer_tokens!(usize, u64, u32);

/// A 0/1 flag.
impl Token for bool {
    const WHAT: &'static str = "flag (want 0|1)";
    fn enc(self, out: &mut String) {
        out.push(if self { '1' } else { '0' });
    }
    fn dec(tok: &str) -> Option<Self> {
        match tok {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
}

/// A scalar float in shortest round-trip decimal.
impl Token for f64 {
    const WHAT: &'static str = "float";
    fn enc(self, out: &mut String) {
        use fmt::Write as _;
        // Shortest scientific form that round-trips bit-exactly (std
        // guarantee) — substantially faster than fixed-precision `{:.17e}` —
        // and `NaN`/`inf`/`-inf` for the non-finite values.
        let _ = write!(out, "{self:e}");
    }
    fn dec(tok: &str) -> Option<Self> {
        match tok.strip_prefix('x') {
            // Raw-bits form (`x` + 16 hex digits), the bulk-vector encoding.
            Some(hex) if hex.len() == 16 => u64::from_str_radix(hex, 16).ok().map(f64::from_bits),
            Some(_) => None,
            None => tok.parse().ok(),
        }
    }
}

/// A float as its raw IEEE-754 bit pattern, `x`-prefixed lowercase hex
/// (`x3fe5551d68c692aa`): exact by construction (including NaN payload and
/// signed-zero bits), and ~5x faster to emit and parse than decimal, which
/// is why bulk `vec` records and the history use it.
#[derive(Clone, Copy)]
struct Bits(f64);

impl Token for Bits {
    const WHAT: &'static str = "float";
    fn enc(self, out: &mut String) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bits = self.0.to_bits();
        let mut buf = [0u8; 17];
        buf[0] = b'x';
        for i in 0..16 {
            buf[1 + i] = HEX[((bits >> (60 - 4 * i)) & 0xF) as usize];
        }
        // buf is pure ASCII by construction.
        out.push_str(std::str::from_utf8(&buf).unwrap_or("x0000000000000000"));
    }
    fn dec(tok: &str) -> Option<Self> {
        f64::dec(tok).map(Bits)
    }
}

/// A duration in decimal seconds; a value no `Duration` can hold (negative,
/// `NaN`, too large) does not decode.
impl Token for Duration {
    const WHAT: &'static str = "duration in seconds";
    fn enc(self, out: &mut String) {
        self.as_secs_f64().enc(out);
    }
    fn dec(tok: &str) -> Option<Self> {
        Duration::try_from_secs_f64(f64::dec(tok)?).ok()
    }
}

/// Seconds kept as an `f64` that the run later turns into a `Duration`:
/// decimal, and decoded only if some `Duration` can hold them.
#[derive(Clone, Copy)]
struct Secs(f64);

impl Token for Secs {
    const WHAT: &'static str = "duration in seconds";
    fn enc(self, out: &mut String) {
        self.0.enc(out);
    }
    fn dec(tok: &str) -> Option<Self> {
        f64::dec(tok).filter(|s| Duration::try_from_secs_f64(*s).is_ok()).map(Secs)
    }
}

// ---------------------------------------------------------------------------
// The codec: one trait, a writer and a reader
// ---------------------------------------------------------------------------

/// One direction of the codec. A record's description calls these in field
/// order; the writer encodes the value it is handed and returns it (an
/// empty vector in place of a vector, so nothing is cloned), the reader
/// ignores it and returns what it decoded. The reader hands a description
/// blank values (each enum's token list holds one per variant), so the
/// description can always project fields from what it is given.
trait Codec {
    /// Whether the description's result is the decoded data (the reader).
    const READS: bool;
    /// Starts the record line `tag`.
    fn tag(&mut self, tag: &str) -> Res<&mut Self>;
    /// The literal word `w`.
    fn word(&mut self, w: &str) -> Res<()>;
    /// The reader's next token, unconsumed; `None` for the writer.
    fn peek(&self) -> Option<&str>;
    /// One value in its token form.
    fn val<V: Token>(&mut self, v: V) -> Res<V>;
    /// The rest of the line verbatim (a name that may hold spaces, never
    /// empty); the writer returns an empty string.
    fn rest(&mut self, v: &str) -> Res<String>;
    /// Payload bytes not yet read (0 for the writer).
    fn left(&self) -> usize;
    /// A malformed record at the current line.
    fn fail(&self, reason: String) -> CheckpointError;

    /// Refuses, at the current line, a decoded record that breaks an
    /// invariant the run relies on; the writer's data passes.
    fn ensure(&self, holds: bool, reason: impl FnOnce() -> String) -> Res<()> {
        if holds || !Self::READS {
            return Ok(());
        }
        Err(self.fail(reason()))
    }

    /// A scalar `T` in decimal.
    fn float<T: Float>(&mut self, v: T) -> Res<T> {
        Ok(T::from_f64(self.val(v.to_f64())?))
    }

    /// A scalar `T` the run asserts positive (`gamma`, its boost, the
    /// reference delta): the reader refuses any other at its line.
    fn positive<T: Float>(&mut self, v: T) -> Res<T> {
        let x = self.float(v)?;
        if x > T::ZERO || !Self::READS {
            return Ok(x);
        }
        Err(self.fail(format!("{x} is not positive")))
    }

    /// A float in raw-bits form.
    fn bits(&mut self, v: f64) -> Res<f64> {
        Ok(self.val(Bits(v))?.0)
    }

    /// The entry of `list` that `v` is (writer) or that the next token
    /// names (reader): the variant itself, or the list's blank of it.
    fn variant<'v, E>(&mut self, list: &'v [(E, &'static str)], v: &'v E) -> Res<&'v E> {
        let next = self.peek();
        let entry = list.iter().find(|(blank, tok)| {
            if Self::READS {
                next == Some(*tok)
            } else {
                discriminant(blank) == discriminant(v)
            }
        });
        let Some((blank, tok)) = entry else {
            let want: Vec<&str> = list.iter().map(|(_, tok)| *tok).collect();
            let found = next.unwrap_or("");
            return Err(self.fail(format!("unknown token {found:?} (want {})", want.join("|"))));
        };
        self.word(tok)?;
        Ok(if Self::READS { blank } else { v })
    }

    /// Whether the value is the word `none_tok` (written when `is_none`).
    fn none(&mut self, is_none: bool, none_tok: &str) -> Res<bool> {
        let hit = if Self::READS { self.peek() == Some(none_tok) } else { is_none };
        if hit {
            self.word(none_tok)?;
        }
        Ok(hit)
    }

    /// `none_tok`, or the entry of `list` that `v` holds.
    fn opt_variant<'v, E>(
        &mut self,
        list: &'v [(E, &'static str)],
        none_tok: &str,
        v: &'v Option<E>,
    ) -> Res<Option<&'v E>> {
        if self.none(v.is_none(), none_tok)? {
            return Ok(None);
        }
        // The reader's `v` is a blank `None`; any entry stands in for it.
        Ok(Some(self.variant(list, v.as_ref().unwrap_or(&list[0].0))?))
    }

    /// The count of a block of `n` values or records, and the vector to
    /// collect them in: the reader reserves at most what the rest of the
    /// payload can hold (each value or line takes two bytes or more).
    fn count<X>(&mut self, n: usize) -> Res<(usize, Vec<X>)> {
        let n = self.val(n)?;
        Ok((n, Vec::with_capacity(n.min(self.left() / 2))))
    }

    /// `<len> <bits>...`: the values of the `vec` record `name`, which the
    /// reader refuses at its line unless it holds `want` values.
    fn values<T: Float>(&mut self, name: &str, v: &[T], want: usize) -> Res<Vec<T>> {
        let (n, mut out) = self.count(v.len())?;
        self.ensure(n == want, || format!("vector {name:?} has length {n}, want {want}"))?;
        for i in 0..n {
            let x = self.bits(v.get(i).map_or(0.0, |x| x.to_f64()))?;
            if Self::READS {
                out.push(T::from_f64(x));
            }
        }
        Ok(out)
    }

    /// `vec <name> <len> <bits>...`, `want` values long.
    fn vec<T: Float>(&mut self, name: &str, v: &[T], want: usize) -> Res<Vec<T>> {
        self.tag("vec")?.word(name)?;
        self.values(name, v, want)
    }

    /// `vec <name> none`, or a `vec` record `want` values long.
    fn opt_vec<T: Float>(
        &mut self,
        name: &str,
        v: &Option<Vec<T>>,
        want: usize,
    ) -> Res<Option<Vec<T>>> {
        self.tag("vec")?.word(name)?;
        if self.none(v.is_none(), "none")? {
            return Ok(None);
        }
        Ok(Some(self.values(name, v.as_deref().unwrap_or(&[]), want)?))
    }
}

/// Encodes into one `String`; it never fails.
struct Writer {
    out: String,
}

impl Codec for Writer {
    const READS: bool = false;

    fn tag(&mut self, tag: &str) -> Res<&mut Self> {
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        self.out.push_str(tag);
        Ok(self)
    }

    fn word(&mut self, w: &str) -> Res<()> {
        self.out.push(' ');
        self.out.push_str(w);
        Ok(())
    }

    fn peek(&self) -> Option<&str> {
        None
    }

    fn val<V: Token>(&mut self, v: V) -> Res<V> {
        self.out.push(' ');
        v.enc(&mut self.out);
        Ok(v)
    }

    fn rest(&mut self, v: &str) -> Res<String> {
        self.word(v)?;
        Ok(String::new())
    }

    fn left(&self) -> usize {
        0
    }

    fn fail(&self, reason: String) -> CheckpointError {
        CheckpointError::Corrupt { line: 0, reason }
    }
}

/// Decodes the payload line by line, walking each line's tokens in place.
struct Reader<'a> {
    /// Payload lines not yet started.
    lines: &'a str,
    /// What follows the last token read on the current line; `None` once
    /// the line is used up.
    toks: Option<&'a str>,
    /// 1-based file line of the current record.
    line: usize,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, reason: impl Into<String>) -> CheckpointError {
        CheckpointError::Corrupt {
            line: self.line,
            reason: reason.into(),
        }
    }

    fn next(&mut self) -> Res<&'a str> {
        let toks = self.toks.ok_or_else(|| self.corrupt("record ends early"))?;
        let (tok, tail) = match toks.split_once(' ') {
            Some((tok, tail)) => (tok, Some(tail)),
            None => (toks, None),
        };
        self.toks = tail;
        Ok(tok)
    }

    /// Fails if the current line has tokens left over.
    fn line_done(&self) -> Res<()> {
        match self.toks {
            Some(extra) => Err(self.corrupt(format!("trailing tokens {extra:?}"))),
            None => Ok(()),
        }
    }
}

impl Codec for Reader<'_> {
    const READS: bool = true;

    fn tag(&mut self, tag: &str) -> Res<&mut Self> {
        self.line_done()?;
        self.line += 1;
        if self.lines.is_empty() {
            return Err(self.corrupt("unexpected end of file"));
        }
        let (line, lines) = self.lines.split_once('\n').unwrap_or((self.lines, ""));
        self.lines = lines;
        self.toks = Some(line.strip_suffix('\r').unwrap_or(line));
        let found = self.next()?;
        if found != tag {
            return Err(self.corrupt(format!("expected `{tag}` record, found {found:?}")));
        }
        Ok(self)
    }

    fn word(&mut self, w: &str) -> Res<()> {
        let found = self.next()?;
        if found != w {
            return Err(self.corrupt(format!("expected {w:?}, found {found:?}")));
        }
        Ok(())
    }

    fn peek(&self) -> Option<&str> {
        self.toks.map(|t| t.split_once(' ').map_or(t, |(tok, _)| tok))
    }

    fn val<V: Token>(&mut self, _: V) -> Res<V> {
        let tok = self.next()?;
        V::dec(tok).ok_or_else(|| self.corrupt(format!("bad {} {tok:?}", V::WHAT)))
    }

    fn rest(&mut self, _: &str) -> Res<String> {
        match self.toks.take() {
            Some(rest) if !rest.is_empty() => Ok(rest.to_string()),
            _ => Err(self.corrupt("record missing name")),
        }
    }

    fn left(&self) -> usize {
        self.toks.map_or(0, str::len) + self.lines.len()
    }

    fn fail(&self, reason: String) -> CheckpointError {
        self.corrupt(reason)
    }
}

// ---------------------------------------------------------------------------
// The records, each described once
// ---------------------------------------------------------------------------

const CAUSES: [(DivergenceCause, &str); 5] = [
    (DivergenceCause::NonFiniteCost, "non-finite-cost"),
    (DivergenceCause::NonFiniteGradient, "non-finite-gradient"),
    (DivergenceCause::NonFinitePosition, "non-finite-position"),
    (DivergenceCause::NonFiniteHpwl, "non-finite-hpwl"),
    (DivergenceCause::OverflowExplosion, "overflow-explosion"),
];

const FLOW_STAGES: [(FlowStage, &str); 4] = [
    (FlowStage::Sanitize, "sanitize"),
    (FlowStage::Gp, "gp"),
    (FlowStage::Lg, "lg"),
    (FlowStage::Dp, "dp"),
];

/// Written as [`DpPass::index`].
const DP_PASSES: [(DpPass, &str); 3] = [
    (DpPass::GlobalSwap, "0"),
    (DpPass::LocalReorder, "1"),
    (DpPass::IndependentSetMatching, "2"),
];

const LG_FALLBACKS: [(LgFallback, &str); 2] = [
    (LgFallback::AbacusFailed, "abacus-failed"),
    (LgFallback::DisplacementExceeded, "displacement-exceeded"),
];

const GP_FALLBACKS: [(GpFallback, &str); 2] = [
    (GpFallback::ConservativePreset { cause: DivergenceCause::NonFiniteCost }, "conservative"),
    (GpFallback::BestSoFar { cause: DivergenceCause::NonFiniteCost, recoveries: 0 }, "best-so-far"),
];

const TRIGGERS: [(DegradationTrigger, &str); 7] = [
    (DegradationTrigger::DegenerateGrid { bins: (0, 0) }, "degenerate-grid"),
    (DegradationTrigger::GpDiverged(DivergenceCause::NonFiniteCost), "gp-diverged"),
    (DegradationTrigger::AbacusFailed, "abacus-failed"),
    (DegradationTrigger::DisplacementExceeded, "displacement-exceeded"),
    (DegradationTrigger::IllegalAfterLg { overlaps: 0 }, "illegal-after-lg"),
    (DegradationTrigger::DpPassWorsened { pass: DpPass::GlobalSwap, worsening: 0.0 }, "dp-pass-worsened"),
    (DegradationTrigger::BudgetExhausted, "budget-exhausted"),
];

const DEGRADATION_FALLBACKS: [(DegradationFallback, &str); 7] = [
    (DegradationFallback::UniformFieldDensity, "uniform-field-density"),
    (DegradationFallback::ConservativeGpPreset, "conservative-gp-preset"),
    (DegradationFallback::BestSoFarPlacement, "best-so-far-placement"),
    (DegradationFallback::TetrisResult, "tetris-result"),
    (DegradationFallback::RetryWithoutAbacus, "retry-without-abacus"),
    (DegradationFallback::DisabledDpPass(DpPass::GlobalSwap), "disabled-dp-pass"),
    (DegradationFallback::StoppedStageEarly, "stopped-stage-early"),
];

/// Tagged by [`OptimizerSnapshot::engine`].
fn solvers<T: Float>() -> [(OptimizerSnapshot<T>, &'static str); 4] {
    let z = T::ZERO;
    [
        OptimizerSnapshot::Nesterov(NesterovState { a: z, alpha: z, v: None, u_prev: None,
            g_prev: None, v_prev: None }),
        OptimizerSnapshot::Adam(AdamState { lr: z, t: 0, m: Vec::new(), v: Vec::new() }),
        OptimizerSnapshot::SgdMomentum(SgdState { lr: z, velocity: Vec::new() }),
        OptimizerSnapshot::ConjugateGradient(CgState { alpha: z, g_prev: None, d_prev: None,
            p_prev: None }),
    ]
    .map(|s| {
        let tag = s.engine();
        (s, tag)
    })
}

fn attempts<T: Float>() -> [(GpAttemptState<T>, &'static str); 2] {
    [
        (GpAttemptState::Primary, "primary"),
        (GpAttemptState::Conservative { cause: DivergenceCause::NonFiniteCost,
            primary_recoveries: 0, primary_best: Placement::zeros(0),
            primary_best_overflow: 0.0 }, "conservative"),
    ]
}

fn stages<T: Float>() -> [(CheckpointStage<T>, &'static str); 3] {
    [
        (CheckpointStage::Gp { attempt: GpAttemptState::Primary, engine: Default::default() },
            "gp"),
        (CheckpointStage::Lg { gp: Default::default(), gp_placement: Placement::zeros(0) }, "lg"),
        (CheckpointStage::Dp { legal: LegalState { gp: Default::default(),
            lg_stats: Default::default(), hpwl_legal: 0.0, placement: Placement::zeros(0) },
            run: Default::default() }, "dp"),
    ]
}

/// The whole payload.
fn checkpoint<T: Float, C: Codec>(c: &mut C, d: &CheckpointData<T>) -> Res<CheckpointData<T>> {
    let design = DesignStamp {
        cells: c.tag("design")?.val(d.design.cells)?,
        movable: c.val(d.design.movable)?,
        nets: c.val(d.design.nets)?,
        name: c.rest(&d.design.name)?,
    };
    c.ensure(design.movable <= design.cells, || {
        format!("{} movable cells exceed {} total", design.movable, design.cells)
    })?;
    let stages = stages::<T>();
    let stage = c.tag("stage")?.variant(&stages, &d.stage)?;
    let t = &d.timing;
    let timing = FlowTiming {
        io: c.tag("timing")?.val(t.io)?,
        gp: c.val(t.gp)?,
        lg: c.val(t.lg)?,
        dp: c.val(t.dp)?,
        total: c.val(t.total)?,
    };
    let consumed_total = c.tag("consumed")?.val(d.consumed_total)?;
    c.ensure(consumed_total >= 0.0, || {
        format!("consumed wall-clock {consumed_total} is not >= 0")
    })?;
    let gp_fallback = match c.tag("fallback")?.opt_variant(&GP_FALLBACKS, "none", &d.gp_fallback)? {
        None => None,
        Some(GpFallback::ConservativePreset { cause }) => Some(GpFallback::ConservativePreset {
            cause: *c.variant(&CAUSES, cause)?,
        }),
        Some(GpFallback::BestSoFar { cause, recoveries }) => Some(GpFallback::BestSoFar {
            cause: *c.variant(&CAUSES, cause)?,
            recoveries: c.val(*recoveries)?,
        }),
    };
    let blank = DegradationEvent {
        stage: FlowStage::Gp,
        trigger: DegradationTrigger::BudgetExhausted,
        fallback: DegradationFallback::StoppedStageEarly,
    };
    let degradations = block(c, "degradations", &d.degradations, &blank, degradation)?;
    let stage = match stage {
        CheckpointStage::Gp { attempt, engine } => CheckpointStage::Gp {
            attempt: gp_attempt(c, attempt, design.cells)?,
            engine: gp_engine(c, engine, design.movable.saturating_mul(2))?,
        },
        CheckpointStage::Lg { gp, gp_placement } => CheckpointStage::Lg {
            gp: gp_handoff(c, gp)?,
            gp_placement: placement(c, "gp", gp_placement, design.cells)?,
        },
        CheckpointStage::Dp { legal, run } => {
            let lg = &legal.lg_stats;
            let legal = LegalState {
                gp: gp_handoff(c, &legal.gp)?,
                lg_stats: LgStats {
                    avg_displacement: c.tag("lg.stats")?.val(lg.avg_displacement)?,
                    max_displacement: c.val(lg.max_displacement)?,
                    runtime: c.val(lg.runtime)?,
                    fallback: c.opt_variant(&LG_FALLBACKS, "none", &lg.fallback)?.copied(),
                },
                hpwl_legal: c.tag("hpwl.legal")?.val(legal.hpwl_legal)?,
                placement: placement(c, "cur", &legal.placement, design.cells)?,
            };
            CheckpointStage::Dp { legal, run: dp_run(c, run)? }
        }
    };
    c.tag("end")?;
    Ok(CheckpointData { design, timing, consumed_total, degradations, gp_fallback, stage })
}

/// `<tag> <n>`, then one record per item; the reader's items start from
/// `blank`.
fn block<C: Codec, X>(
    c: &mut C,
    tag: &str,
    items: &[X],
    blank: &X,
    each: impl Fn(&mut C, &X) -> Res<X>,
) -> Res<Vec<X>> {
    let (n, mut out) = c.tag(tag)?.count(items.len())?;
    for i in 0..n {
        let item = each(c, items.get(i).unwrap_or(blank))?;
        if C::READS {
            out.push(item);
        }
    }
    Ok(out)
}

fn degradation<C: Codec>(c: &mut C, e: &DegradationEvent) -> Res<DegradationEvent> {
    let stage = *c.tag("degr")?.variant(&FLOW_STAGES, &e.stage)?;
    let trigger = match c.variant(&TRIGGERS, &e.trigger)? {
        DegradationTrigger::DegenerateGrid { bins } => DegradationTrigger::DegenerateGrid {
            bins: (c.val(bins.0)?, c.val(bins.1)?),
        },
        DegradationTrigger::GpDiverged(cause) => {
            DegradationTrigger::GpDiverged(*c.variant(&CAUSES, cause)?)
        }
        DegradationTrigger::IllegalAfterLg { overlaps } => {
            DegradationTrigger::IllegalAfterLg { overlaps: c.val(*overlaps)? }
        }
        DegradationTrigger::DpPassWorsened { pass, worsening } => {
            DegradationTrigger::DpPassWorsened {
                pass: *c.variant(&DP_PASSES, pass)?,
                worsening: c.val(*worsening)?,
            }
        }
        unit => unit.clone(),
    };
    let fallback = match c.variant(&DEGRADATION_FALLBACKS, &e.fallback)? {
        DegradationFallback::DisabledDpPass(pass) => {
            DegradationFallback::DisabledDpPass(*c.variant(&DP_PASSES, pass)?)
        }
        unit => *unit,
    };
    Ok(DegradationEvent { stage, trigger, fallback })
}

fn gp_attempt<T: Float, C: Codec>(
    c: &mut C,
    a: &GpAttemptState<T>,
    cells: usize,
) -> Res<GpAttemptState<T>> {
    let attempts = attempts::<T>();
    Ok(match c.tag("gp.attempt")?.variant(&attempts, a)? {
        GpAttemptState::Primary => GpAttemptState::Primary,
        GpAttemptState::Conservative { cause, primary_recoveries, primary_best,
            primary_best_overflow } => GpAttemptState::Conservative {
            cause: *c.variant(&CAUSES, cause)?,
            primary_recoveries: c.val(*primary_recoveries)?,
            primary_best_overflow: c.val(*primary_best_overflow)?,
            primary_best: placement(c, "pbest", primary_best, cells)?,
        },
    })
}

/// The engine state; every parameter-space vector is `dim` (2 x movable)
/// long.
fn gp_engine<T: Float, C: Codec>(
    c: &mut C,
    e: &GpEngineState<T>,
    dim: usize,
) -> Res<GpEngineState<T>> {
    let r = &e.run;
    let next_iter = c.tag("eng.counters")?.val(r.next_iter)?;
    let (iterations, evals) = (c.val(r.iterations)?, c.val(r.evals)?);
    let recovered = c.val(r.recoveries)?;
    let sched_iteration = c.val(e.sched_iteration)?;
    // The λ scheduler advances at most once per engine iteration.
    c.ensure(sched_iteration <= next_iter, || {
        format!("scheduler iteration {sched_iteration} is ahead of engine iteration {next_iter}")
    })?;
    let counts = eval_counts(c, "eng.evals", &r.counts)?;
    let lambda = c.tag("eng.scalars")?.float(r.lambda)?;
    let (gamma, gamma_boost) = (c.positive(e.gamma)?, c.positive(r.gamma_boost)?);
    let (lambda_cut, sched_lambda) = (c.float(r.lambda_cut)?, c.float(e.sched_lambda)?);
    let (ref_delta, prev_hpwl) = (c.positive(e.ref_delta)?, c.float(r.prev_hpwl)?);
    let best_overflow = c.val(r.best_overflow)?;
    let consumed_seconds = c.val(Secs(e.consumed_seconds))?.0;
    let params = c.vec("params", &r.params, dim)?;
    let best_params = c.vec("best", &r.best_params, dim)?;
    let solver_state = solver(c, "solver", &e.solver, dim)?;
    let history = history(c, "eng.hist", &r.history)?;
    if let Some(last) = history.last().map(|h| h.iteration) {
        c.ensure(last < next_iter, || {
            format!("history reaches iteration {last} but the engine has only run to {next_iter}")
        })?;
    }
    let recovery_events = recoveries(c, "eng.recov", &r.recovery_events)?;
    let rb = &r.rollback;
    let rb_iteration = c.tag("rollback")?.val(rb.iteration)?;
    let (rb_sched_iteration, history_len) = (c.val(rb.sched_iteration)?, c.val(rb.history_len)?);
    c.ensure(rb_iteration <= next_iter, || {
        format!("rollback anchor {rb_iteration} is ahead of engine iteration {next_iter}")
    })?;
    c.ensure(history_len <= history.len(), || {
        format!("rollback keeps {history_len} history records but only {} exist", history.len())
    })?;
    let rollback = Arc::new(GpRollbackState {
        iteration: rb_iteration,
        sched_iteration: rb_sched_iteration,
        history_len,
        sched_lambda: c.float(rb.sched_lambda)?,
        lambda: c.float(rb.lambda)?,
        prev_hpwl: c.float(rb.prev_hpwl)?,
        overflow: c.val(rb.overflow)?,
        params: c.vec("rb.params", &rb.params, dim)?,
        solver: solver(c, "solver.rb", &rb.solver, dim)?,
    });
    Ok(GpEngineState {
        run: GpRunState {
            next_iter,
            iterations,
            evals,
            params,
            best_params,
            best_overflow,
            lambda,
            gamma_boost,
            lambda_cut,
            prev_hpwl,
            recoveries: recovered,
            recovery_events,
            history,
            rollback,
            counts,
        },
        solver: solver_state,
        gamma,
        sched_lambda,
        sched_iteration,
        ref_delta,
        memo: memo(c, &e.memo, dim)?,
        consumed_seconds,
        exec: exec(c, &e.exec)?,
    })
}

/// The last evaluated point; its vectors are `dim` long when it is valid
/// and empty otherwise.
fn memo<T: Float, C: Codec>(c: &mut C, m: &GpMemoState<T>, dim: usize) -> Res<GpMemoState<T>> {
    let e = &m.entry;
    let valid = c.tag("memo")?.val(e.valid)?;
    let (gamma, wl_cost, energy) = (c.float(e.gamma)?, c.float(e.wl_cost)?, c.float(e.energy)?);
    // An overflow is a ratio of areas; NaN is legal (a uniform-field grid
    // has none, and a diverged point's NaN was already acted on).
    let overflow = c.float(e.overflow)?;
    c.ensure(overflow.is_nan() || overflow >= T::ZERO, || {
        format!("memo overflow {overflow} is negative")
    })?;
    c.ensure(!valid || gamma > T::ZERO, || {
        format!("valid memo recorded at gamma {gamma}, not > 0")
    })?;
    let want = if valid { dim } else { 0 };
    let key = c.vec("memo.key", &e.key, want)?;
    Ok(GpMemoState {
        entry: GpMemoEntry { valid, gamma, wl_cost, energy, overflow, key },
        wl_grad: c.vec("memo.wl", &m.wl_grad, want)?,
        density_grad: c.vec("memo.density", &m.density_grad, want)?,
    })
}

/// An optimizer snapshot whose vectors are each `dim` long.
fn solver<T: Float, C: Codec>(
    c: &mut C,
    tag: &str,
    s: &OptimizerSnapshot<T>,
    dim: usize,
) -> Res<OptimizerSnapshot<T>> {
    let solvers = solvers::<T>();
    let s = c.tag(tag)?.variant(&solvers, s)?;
    c.tag("sv.scalars")?;
    Ok(match s {
        OptimizerSnapshot::Nesterov(s) => OptimizerSnapshot::Nesterov(NesterovState {
            a: c.float(s.a)?,
            alpha: c.float(s.alpha)?,
            v: c.opt_vec("v", &s.v, dim)?,
            u_prev: c.opt_vec("u_prev", &s.u_prev, dim)?,
            g_prev: c.opt_vec("g_prev", &s.g_prev, dim)?,
            v_prev: c.opt_vec("v_prev", &s.v_prev, dim)?,
        }),
        OptimizerSnapshot::Adam(s) => OptimizerSnapshot::Adam(AdamState {
            lr: c.float(s.lr)?,
            t: c.val(s.t)?,
            m: c.vec("m", &s.m, dim)?,
            v: c.vec("v", &s.v, dim)?,
        }),
        OptimizerSnapshot::SgdMomentum(s) => OptimizerSnapshot::SgdMomentum(SgdState {
            lr: c.float(s.lr)?,
            velocity: c.vec("velocity", &s.velocity, dim)?,
        }),
        OptimizerSnapshot::ConjugateGradient(s) => {
            OptimizerSnapshot::ConjugateGradient(CgState {
                alpha: c.float(s.alpha)?,
                g_prev: c.opt_vec("g_prev", &s.g_prev, dim)?,
                d_prev: c.opt_vec("d_prev", &s.d_prev, dim)?,
                p_prev: c.opt_vec("p_prev", &s.p_prev, dim)?,
            })
        }
    })
}

/// Evaluation counters: an operator runs at most once per objective call.
fn eval_counts<C: Codec>(c: &mut C, tag: &str, e: &GpEvalCounts) -> Res<GpEvalCounts> {
    let counts = GpEvalCounts {
        objective_evals: c.tag(tag)?.val(e.objective_evals)?,
        wl_evals: c.val(e.wl_evals)?,
        density_evals: c.val(e.density_evals)?,
        backtracks: c.val(e.backtracks)?,
    };
    let objective = counts.objective_evals;
    for (n, what) in [(counts.wl_evals, "wirelength"), (counts.density_evals, "density")] {
        c.ensure(n <= objective, || {
            format!("{n} {what} evaluations exceed {objective} objective calls")
        })?;
    }
    Ok(counts)
}

/// Raw-bits floats: the history is bulk per-iteration data (hundreds of
/// records late in GP, re-serialized into every checkpoint) and decimal
/// formatting of it was a measurable slice of the overhead budget.
/// Iterations strictly increase.
fn history<C: Codec>(c: &mut C, tag: &str, h: &[IterRecord]) -> Res<Vec<IterRecord>> {
    let blank = IterRecord { iteration: 0, hpwl: 0.0, overflow: 0.0, lambda: 0.0, gamma: 0.0 };
    let last = Cell::new(None);
    block(c, tag, h, &blank, |c, r| {
        let iteration = c.tag("h")?.val(r.iteration)?;
        c.ensure(last.get().is_none_or(|last| iteration > last), || {
            format!("history iteration {iteration} does not increase")
        })?;
        last.set(Some(iteration));
        Ok(IterRecord {
            iteration,
            hpwl: c.bits(r.hpwl)?,
            overflow: c.bits(r.overflow)?,
            lambda: c.bits(r.lambda)?,
            gamma: c.bits(r.gamma)?,
        })
    })
}

fn recoveries<C: Codec>(c: &mut C, tag: &str, evs: &[RecoveryEvent]) -> Res<Vec<RecoveryEvent>> {
    let blank = RecoveryEvent {
        iteration: 0,
        resumed_from: 0,
        cause: DivergenceCause::NonFiniteCost,
        lambda: 0.0,
        gamma_boost: 0.0,
    };
    block(c, tag, evs, &blank, |c, r| {
        let (iteration, resumed_from) = (c.tag("r")?.val(r.iteration)?, c.val(r.resumed_from)?);
        c.ensure(resumed_from <= iteration, || {
            format!("recovery resumed from {resumed_from} which is after iteration {iteration}")
        })?;
        Ok(RecoveryEvent {
            iteration,
            resumed_from,
            cause: *c.variant(&CAUSES, &r.cause)?,
            lambda: c.val(r.lambda)?,
            gamma_boost: c.val(r.gamma_boost)?,
        })
    })
}

/// An op or workspace name. The live summary keys counters by interned
/// `&'static str`; a read checkpoint leaks one small string per name,
/// bounded by the name vocabulary.
fn interned<C: Codec>(c: &mut C, name: &'static str) -> Res<&'static str> {
    let read = c.rest(name)?;
    Ok(if C::READS { Box::leak(read.into_boxed_str()) } else { name })
}

fn exec<C: Codec>(c: &mut C, e: &ExecSummary) -> Res<ExecSummary> {
    Ok(ExecSummary {
        pool_threads: c.tag("exec.pool")?.val(e.pool_threads)?,
        threads_spawned: c.val(e.threads_spawned)?,
        pool_runs: c.val(e.pool_runs)?,
        ops: block(c, "exec.ops", &e.ops, &("", OpCounter::default()), |c, (name, k)| {
            let k = OpCounter { calls: c.tag("op")?.val(k.calls)?, nanos: c.val(k.nanos)? };
            Ok((interned(c, name)?, k))
        })?,
        workspaces: block(c, "exec.ws", &e.workspaces, &("", WorkspaceCounter::default()),
            |c, (name, w)| {
                let w = WorkspaceCounter {
                    uses: c.tag("ws")?.val(w.uses)?,
                    reuses: c.val(w.reuses)?,
                    bytes: c.val(w.bytes)?,
                };
                c.ensure(w.reuses <= w.uses, || {
                    format!("workspace reuses {} exceed uses {}", w.reuses, w.uses)
                })?;
                Ok((interned(c, name)?, w))
            })?,
    })
}

/// What a finished GP hands on: its statistics, then its HPWL.
fn gp_handoff<C: Codec>(c: &mut C, h: &GpHandoff) -> Res<GpHandoff> {
    let (s, t) = (&h.stats, &h.stats.timing);
    let stats = GpStats {
        iterations: c.tag("gp.stats")?.val(s.iterations)?,
        final_hpwl: c.val(s.final_hpwl)?,
        final_overflow: c.val(s.final_overflow)?,
        converged: c.val(s.converged)?,
        recoveries: c.val(s.recoveries)?,
        timing: GpTiming {
            init: c.tag("gp.timing")?.val(t.init)?,
            wirelength: c.val(t.wirelength)?,
            density: c.val(t.density)?,
            solver: c.val(t.solver)?,
            bookkeeping: c.val(t.bookkeeping)?,
            total: c.val(t.total)?,
        },
        evals: eval_counts(c, "gp.evals", &s.evals)?,
        history: history(c, "gp.hist", &s.history)?,
        recovery_events: recoveries(c, "gp.recov", &s.recovery_events)?,
        exec: exec(c, &s.exec)?,
    };
    Ok(GpHandoff { stats, hpwl: c.tag("hpwl.gp")?.val(h.hpwl)? })
}

/// A placement of the design's `cells` cells.
fn placement<T: Float, C: Codec>(
    c: &mut C,
    prefix: &str,
    p: &Placement<T>,
    cells: usize,
) -> Res<Placement<T>> {
    Ok(Placement {
        x: c.vec(&format!("{prefix}.x"), &p.x, cells)?,
        y: c.vec(&format!("{prefix}.y"), &p.y, cells)?,
    })
}

fn dp_run<C: Codec>(c: &mut C, r: &DpRunState) -> Res<DpRunState> {
    let (round, pass_idx) = (c.tag("dp.run")?.val(r.round)?, c.val(r.pass_idx)?);
    // Between rounds the cursor rests at the pass count, never past it.
    if pass_idx > DpPass::ALL.len() {
        return Err(c.fail(format!("dp pass cursor {pass_idx} is past the three passes")));
    }
    let (moves, moves_at_round_start) = (c.val(r.moves)?, c.val(r.moves_at_round_start)?);
    c.ensure(moves_at_round_start <= moves, || {
        format!("round-start move count {moves_at_round_start} exceeds total {moves}")
    })?;
    let enabled = [c.val(r.enabled[0])?, c.val(r.enabled[1])?, c.val(r.enabled[2])?];
    let (reverts, budget_exhausted) = (c.val(r.report.reverts)?, c.val(r.report.budget_exhausted)?);
    let injected_pending = c.opt_variant(&DP_PASSES, "-1", &r.injected_pending)?.copied();
    let (initial_hpwl, consumed_seconds) = (c.val(r.initial_hpwl)?, c.val(r.consumed_seconds)?);
    c.ensure(consumed_seconds >= 0.0, || {
        format!("dp consumed wall-clock {consumed_seconds} is not >= 0")
    })?;
    let blank = (DpPass::GlobalSwap, 0.0);
    let disabled = block(c, "dp.disabled", &r.report.disabled, &blank, |c, (pass, worsening)| {
        Ok((*c.tag("dd")?.variant(&DP_PASSES, pass)?, c.val(*worsening)?))
    })?;
    Ok(DpRunState {
        round,
        pass_idx,
        moves,
        moves_at_round_start,
        enabled,
        report: DpGuardReport { disabled, reverts, budget_exhausted },
        injected_pending,
        initial_hpwl,
        consumed_seconds,
    })
}

/// Serializes a checkpoint to the full file contents (header + payload).
pub fn serialize<T: Float>(data: &CheckpointData<T>) -> String {
    // Mid-GP checkpoints run to a couple hundred KB (solver + rollback
    // vectors); start big enough that growth doubling stays rare.
    let mut w = Writer { out: String::with_capacity(1 << 16) };
    // The writer never fails: every error is a decoding error.
    let _ = checkpoint(&mut w, data);
    w.out.push('\n');
    let crc = crc32(w.out.as_bytes());
    format!("{MAGIC} v{VERSION}\ncrc {crc:#010x}\n{}", w.out)
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

    let [(stage, _), ..] = stages::<T>();
    let blank = CheckpointData {
        design: DesignStamp { name: String::new(), cells: 0, movable: 0, nets: 0 },
        timing: FlowTiming::default(),
        consumed_total: 0.0,
        degradations: Vec::new(),
        gp_fallback: None,
        stage,
    };
    let mut reader = Reader { lines: payload, toks: None, line: 2 };
    let data = checkpoint(&mut reader, &blank)?;
    reader.line_done()?;

    Ok(data)
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
            engine.run.prev_hpwl = f64::NAN;
            engine.run.best_overflow = f64::INFINITY;
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
        for found in [1, 2, 99] {
            let skewed = text.replacen(&format!("DPCKPT v{VERSION}"), &format!("DPCKPT v{found}"), 1);
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
        assert!(engine.memo.entry.valid, "three steps in, a point has been evaluated");
        assert_eq!(
            [
                engine.memo.entry.key.len(),
                engine.memo.wl_grad.len(),
                engine.memo.density_grad.len()
            ],
            [dim; 3]
        );
        let counts = &engine.run.counts;
        assert!(counts.wl_evals > 0 && counts.objective_evals > counts.wl_evals);
        // v3: the overflow the next tripwire reads travels with the memo.
        assert!(engine.memo.entry.overflow > 0.0 && engine.memo.entry.overflow.is_finite());
        let back = deserialize::<f64>(&serialize(&data)).expect("round trip");
        let CheckpointStage::Gp { engine: back, .. } = &back.stage else {
            panic!("gp stage");
        };
        assert_eq!(back.memo.entry.overflow.to_bits(), engine.memo.entry.overflow.to_bits());

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

    /// Every vector of an optimizer snapshot, mutably.
    fn solver_vectors(s: &mut OptimizerSnapshot<f64>) -> Vec<&mut Vec<f64>> {
        match s {
            OptimizerSnapshot::Nesterov(s) => {
                [&mut s.v, &mut s.u_prev, &mut s.g_prev, &mut s.v_prev]
                    .into_iter()
                    .flatten()
                    .collect()
            }
            OptimizerSnapshot::Adam(s) => vec![&mut s.m, &mut s.v],
            OptimizerSnapshot::SgdMomentum(s) => vec![&mut s.velocity],
            OptimizerSnapshot::ConjugateGradient(s) => {
                [&mut s.g_prev, &mut s.d_prev, &mut s.p_prev].into_iter().flatten().collect()
            }
        }
    }

    /// Every 2 x movable vector of the engine state, mutably.
    fn gp_vectors(e: &mut GpEngineState<f64>) -> Vec<&mut Vec<f64>> {
        let rollback = Arc::make_mut(&mut e.run.rollback);
        let memo = &mut e.memo;
        let mut all = vec![&mut e.run.params, &mut e.run.best_params, &mut rollback.params];
        all.extend(solver_vectors(&mut e.solver));
        all.extend(solver_vectors(&mut rollback.solver));
        all.extend([&mut memo.entry.key, &mut memo.wl_grad, &mut memo.density_grad]);
        all
    }

    #[test]
    fn a_gp_vector_one_short_is_refused_at_its_record() {
        let data = gp_checkpoint();
        let dim = 2 * data.design.movable;
        let mut short = data.clone();
        let CheckpointStage::Gp { engine, .. } = &mut short.stage else {
            panic!("gp stage");
        };
        let count = gp_vectors(engine).len();
        // Six fixed vectors, and the solvers' (both of them, three steps in).
        assert!(count >= 8, "only {count} vectors");
        for i in 0..count {
            let mut short = data.clone();
            let CheckpointStage::Gp { engine, .. } = &mut short.stage else {
                panic!("gp stage");
            };
            let v = gp_vectors(engine).swap_remove(i);
            assert_eq!(v.len(), dim, "vector {i}");
            v.pop();
            let text = serialize(&short);
            // The one record that is one value short, as a file line.
            let want_len = (dim - 1).to_string();
            let record = text
                .lines()
                .position(|l| l.starts_with("vec ") && l.split(' ').nth(2) == Some(&want_len))
                .expect("the short record")
                + 1;
            match deserialize::<f64>(&text) {
                Err(CheckpointError::Corrupt { line, reason }) => {
                    assert_eq!(line, record, "vector {i}: {reason}");
                    assert!(reason.contains(&format!("want {dim}")), "{reason}");
                }
                other => panic!("vector {i}: want Corrupt, got {other:?}"),
            }
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
    fn values_that_would_crash_a_resume_are_corrupt_not_a_crash() {
        let gp = serialize(&gp_checkpoint());
        let lg = serialize(&capture_at(|s| s == FlowState::Lg));
        let dp = serialize(&capture_at(|s| s == FlowState::Dp { pass: 1 }));
        for (text, tag, field, tok) in [
            (&lg, "gp.timing", 1, "1e300"),
            (&lg, "gp.timing", 1, "-1e0"),
            (&lg, "gp.timing", 1, "NaN"),
            (&lg, "degradations", 1, "99999999999"),
            (&lg, "gp.hist", 1, "99999999999"),
            (&lg, "gp.recov", 1, "99999999999"),
            (&lg, "exec.ops", 1, "99999999999"),
            // The engine asserts gamma, its boost and the reference delta
            // positive, and turns the consumed seconds into a `Duration`;
            // a DP pass cursor past the passes indexes out of bounds.
            (&gp, "eng.scalars", 2, "-1e0"),
            (&gp, "eng.scalars", 3, "NaN"),
            (&gp, "eng.scalars", 6, "0e0"),
            (&gp, "eng.scalars", 9, "1e300"),
            (&dp, "dp.run", 2, "4"),
        ] {
            let payload = &text[text.find("\ncrc 0x").unwrap() + 1 + "crc 0x00000000\n".len()..];
            let (i, line) = payload
                .lines()
                .enumerate()
                .find(|(_, l)| l.starts_with(&format!("{tag} ")))
                .unwrap();
            let mut toks: Vec<&str> = line.split(' ').collect();
            toks[field] = tok;
            let hostile = payload.replacen(line, &toks.join(" "), 1);
            let crc = crc32(hostile.as_bytes());
            match deserialize::<f64>(&format!("{MAGIC} v{VERSION}\ncrc {crc:#010x}\n{hostile}")) {
                // A value is refused at its own line; a count when its
                // block runs into the next record.
                Err(CheckpointError::Corrupt { line, .. })
                    if line == i + 3 || (field == 1 && tag != "gp.timing" && line > i + 3) => {}
                other => panic!("{tag} {tok}: want Corrupt at or after line {}, got {other:?}", i + 3),
            }
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
