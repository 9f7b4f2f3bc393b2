//! Schema-validating reader for `dp-telemetry` JSONL traces.
//!
//! Deliberately independent of the writer in `dp_telemetry::jsonl` — this
//! module re-derives the schema from scratch (its own JSON tokenizer, its
//! own key tables) so an encode bug cannot hide behind a shared
//! implementation. The checks, in order, per line:
//!
//! 1. the line is a flat JSON object (string keys; string or number
//!    values; no nesting) with a known `"ev"` discriminator;
//! 2. exactly the schema's keys for that event kind are present, each
//!    with the right type;
//! 3. structural invariants hold across lines: span ids are unique,
//!    `end` matches an open `begin`, parents are open at begin time and
//!    coarser-grained than their children (`flow < stage < iteration <
//!    kernel`), `iter`/`point` reference an open span (or 0 = root), and
//!    timestamps are monotone non-decreasing per thread;
//! 4. at end of input every span has been closed (balanced nesting —
//!    spans are RAII in the writer, so even a failed flow balances).
//!
//! The CLI exposes this as `dreamplace trace-check <file>`; CI runs it on
//! the trace produced by the smoke job.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Why a trace failed validation.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A line failed parsing or an invariant, with its 1-based number.
    Line {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// End-of-input invariant failure (e.g. unclosed spans).
    Eof(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "io: {e}"),
            TraceError::Line { line, msg } => write!(f, "line {line}: {msg}"),
            TraceError::Eof(msg) => write!(f, "end of trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// What a valid trace contained, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Non-empty lines validated.
    pub lines: usize,
    /// Spans opened (and, by the balance check, closed).
    pub spans: usize,
    /// Convergence-trace `iter` events.
    pub iters: usize,
    /// Timeline `point` events.
    pub points: usize,
    /// Degradation points among them (name == "degradation").
    pub degradations: usize,
    /// Checkpoint-resume points among them (name == "resume"); a trace
    /// from a `--resume` run carries one per process restart.
    pub resumes: usize,
    /// Scheduler retry points among them (name == "retry"); a trace from
    /// a job that panicked or timed out and was retried from its last
    /// checkpoint carries one per attempt after the first.
    pub retries: usize,
    /// Contained-panic points among them (name == "panic"); the scheduler
    /// records one per attempt that died inside `catch_unwind`.
    pub panics: usize,
    /// Deadline-timeout points among them (name == "timeout").
    pub timeouts: usize,
    /// Kernel counter summaries.
    pub kernels: usize,
    /// Per-worker pool summaries.
    pub workers: usize,
    /// Workspace counter summaries.
    pub workspaces: usize,
    /// Metadata entries.
    pub metas: usize,
}

/// A parsed scalar from a trace line (or a golden record).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Str(String),
    /// Raw number text, kept verbatim so integer and float interpretation
    /// both stay exact.
    Num(String),
}

impl Value {
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            Value::Str(_) => None,
        }
    }

    /// Floats, including the writer's quoted non-finite markers.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Num(_) => None,
        }
    }
}

/// Minimal JSON tokenizer for one flat object. Accepts full JSON string
/// escapes and the full number grammar; rejects nesting, booleans, and
/// null (the schema has neither).
pub(crate) fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let mut fields = Vec::new();

    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && matches!(bytes[*i], b' ' | b'\t' | b'\r' | b'\n') {
            *i += 1;
        }
    };

    fn parse_string(bytes: &[u8], i: &mut usize) -> Result<String, String> {
        if bytes.get(*i) != Some(&b'"') {
            return Err("expected '\"'".to_string());
        }
        *i += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*i) else {
                return Err("unterminated string".to_string());
            };
            *i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = bytes.get(*i) else {
                        return Err("unterminated escape".to_string());
                    };
                    *i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = bytes
                                .get(*i..*i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            *i += 4;
                            // The writer never emits surrogate pairs
                            // (escapes only C0 controls), so a lone
                            // surrogate is malformed here.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?;
                            out.push(c);
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                // Multi-byte UTF-8: copy the whole char.
                _ if b >= 0x80 => {
                    let start = *i - 1;
                    let s = std::str::from_utf8(&bytes[start..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = s.chars().next().ok_or("empty char")?;
                    out.push(c);
                    *i = start + c.len_utf8();
                }
                _ if b < 0x20 => return Err("unescaped control character".to_string()),
                _ => out.push(b as char),
            }
        }
    }

    fn parse_number(bytes: &[u8], i: &mut usize) -> Result<String, String> {
        let start = *i;
        if bytes.get(*i) == Some(&b'-') {
            *i += 1;
        }
        let digits = |i: &mut usize| {
            let s = *i;
            while *i < bytes.len() && bytes[*i].is_ascii_digit() {
                *i += 1;
            }
            *i > s
        };
        if !digits(i) {
            return Err("expected digits".to_string());
        }
        if bytes.get(*i) == Some(&b'.') {
            *i += 1;
            if !digits(i) {
                return Err("expected digits after '.'".to_string());
            }
        }
        if matches!(bytes.get(*i), Some(b'e' | b'E')) {
            *i += 1;
            if matches!(bytes.get(*i), Some(b'+' | b'-')) {
                *i += 1;
            }
            if !digits(i) {
                return Err("expected exponent digits".to_string());
            }
        }
        std::str::from_utf8(&bytes[start..*i])
            .map(str::to_string)
            .map_err(|_| "invalid utf-8 in number".to_string())
    }

    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return Err("expected '{'".to_string());
    }
    i += 1;
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        i += 1;
    } else {
        loop {
            skip_ws(&mut i);
            let key = parse_string(bytes, &mut i)?;
            skip_ws(&mut i);
            if bytes.get(i) != Some(&b':') {
                return Err(format!("expected ':' after key `{key}`"));
            }
            i += 1;
            skip_ws(&mut i);
            let value = match bytes.get(i) {
                Some(&b'"') => Value::Str(parse_string(bytes, &mut i)?),
                Some(&b'-') | Some(b'0'..=b'9') => Value::Num(parse_number(bytes, &mut i)?),
                Some(&b'{') | Some(&b'[') => {
                    return Err(format!("nested value for key `{key}` (schema is flat)"));
                }
                _ => return Err(format!("unsupported value for key `{key}`")),
            };
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            fields.push((key, value));
            skip_ws(&mut i);
            match bytes.get(i) {
                Some(&b',') => i += 1,
                Some(&b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err("expected ',' or '}'".to_string()),
            }
        }
    }
    skip_ws(&mut i);
    if i != bytes.len() {
        return Err("trailing bytes after object".to_string());
    }
    Ok(fields)
}

/// Span granularity, coarse to fine; parents must be coarser.
fn kind_level(kind: &str) -> Option<u8> {
    match kind {
        "flow" => Some(0),
        "stage" => Some(1),
        "iteration" => Some(2),
        "kernel" => Some(3),
        _ => None,
    }
}

struct OpenSpan {
    level: u8,
}

/// Validates a whole trace held in memory.
///
/// # Errors
///
/// The first schema or invariant violation, with its line number.
pub fn validate_str(text: &str) -> Result<TraceSummary, TraceError> {
    let mut summary = TraceSummary::default();
    // id -> open span (removed on end); `seen` keeps every id ever begun
    // for the uniqueness check.
    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    let mut seen: HashMap<u64, ()> = HashMap::new();
    let mut last_t: HashMap<u64, u64> = HashMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let err = |msg: String| TraceError::Line { line: line_no, msg };
        let fields = parse_flat_object(raw).map_err(err)?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let need = |key: &str| {
            get(key).ok_or(TraceError::Line {
                line: line_no,
                msg: format!("missing key `{key}`"),
            })
        };
        let need_u64 = |key: &str| {
            need(key)?.as_u64().ok_or(TraceError::Line {
                line: line_no,
                msg: format!("`{key}` is not an unsigned integer"),
            })
        };
        let need_f64 = |key: &str| {
            need(key)?.as_f64().ok_or(TraceError::Line {
                line: line_no,
                msg: format!("`{key}` is not a float or non-finite marker"),
            })
        };
        let need_str = |key: &str| {
            need(key)?.as_str().ok_or(TraceError::Line {
                line: line_no,
                msg: format!("`{key}` is not a string"),
            })
        };
        let ev = need_str("ev")?;
        let expect_keys = |expected: &[&str]| -> Result<(), TraceError> {
            for (k, _) in &fields {
                if k != "ev" && !expected.contains(&k.as_str()) {
                    return Err(TraceError::Line {
                        line: line_no,
                        msg: format!("unknown key `{k}` for ev `{ev}`"),
                    });
                }
            }
            Ok(())
        };
        // Timestamped events must be monotone non-decreasing per thread.
        let mut check_time = |t: u64, tid: u64| -> Result<(), TraceError> {
            if let Some(&prev) = last_t.get(&tid) {
                if t < prev {
                    return Err(TraceError::Line {
                        line: line_no,
                        msg: format!("timestamp {t} before {prev} on tid {tid}"),
                    });
                }
            }
            last_t.insert(tid, t);
            Ok(())
        };

        match ev {
            "begin" => {
                expect_keys(&["id", "parent", "kind", "name", "t", "tid"])?;
                let id = need_u64("id")?;
                let parent = need_u64("parent")?;
                let kind = need_str("kind")?;
                need_str("name")?;
                check_time(need_u64("t")?, need_u64("tid")?)?;
                let level = kind_level(kind).ok_or(TraceError::Line {
                    line: line_no,
                    msg: format!("unknown span kind `{kind}`"),
                })?;
                if id == 0 {
                    return Err(err("span id 0 is reserved for root".to_string()));
                }
                if seen.insert(id, ()).is_some() {
                    return Err(err(format!("span id {id} reused")));
                }
                if parent != 0 {
                    let p = open.get(&parent).ok_or(TraceError::Line {
                        line: line_no,
                        msg: format!("parent span {parent} is not open"),
                    })?;
                    if p.level >= level {
                        return Err(err(format!(
                            "span kind `{kind}` cannot nest under a level-{} parent",
                            p.level
                        )));
                    }
                }
                open.insert(id, OpenSpan { level });
                summary.spans += 1;
            }
            "end" => {
                expect_keys(&["id", "t", "tid"])?;
                let id = need_u64("id")?;
                check_time(need_u64("t")?, need_u64("tid")?)?;
                if open.remove(&id).is_none() {
                    return Err(err(format!("end for span {id} which is not open")));
                }
            }
            "iter" => {
                expect_keys(&["span", "k", "hpwl", "overflow", "lambda", "gamma", "t", "tid"])?;
                let span = need_u64("span")?;
                need_u64("k")?;
                for key in ["hpwl", "overflow", "lambda", "gamma"] {
                    need_f64(key)?;
                }
                check_time(need_u64("t")?, need_u64("tid")?)?;
                if span != 0 && !open.contains_key(&span) {
                    return Err(err(format!("iter references closed span {span}")));
                }
                summary.iters += 1;
            }
            "point" => {
                expect_keys(&["span", "name", "detail", "t", "tid"])?;
                let span = need_u64("span")?;
                let name = need_str("name")?;
                need_str("detail")?;
                check_time(need_u64("t")?, need_u64("tid")?)?;
                if span != 0 && !open.contains_key(&span) {
                    return Err(err(format!("point references closed span {span}")));
                }
                if name == "degradation" {
                    summary.degradations += 1;
                }
                if name == "resume" {
                    summary.resumes += 1;
                }
                if name == "retry" {
                    summary.retries += 1;
                }
                if name == "panic" {
                    summary.panics += 1;
                }
                if name == "timeout" {
                    summary.timeouts += 1;
                }
                summary.points += 1;
            }
            "kernel" => {
                expect_keys(&["name", "calls", "nanos"])?;
                need_str("name")?;
                need_u64("calls")?;
                need_u64("nanos")?;
                summary.kernels += 1;
            }
            "ws" => {
                expect_keys(&["name", "uses", "reuses", "bytes"])?;
                need_str("name")?;
                let uses = need_u64("uses")?;
                let reuses = need_u64("reuses")?;
                need_u64("bytes")?;
                if reuses > uses {
                    return Err(err(format!("workspace reuses {reuses} exceed uses {uses}")));
                }
                summary.workspaces += 1;
            }
            "worker" => {
                expect_keys(&["pool", "worker", "launches", "nanos"])?;
                need_str("pool")?;
                need_u64("worker")?;
                need_u64("launches")?;
                need_u64("nanos")?;
                summary.workers += 1;
            }
            "meta" => {
                expect_keys(&["key", "value"])?;
                need_str("key")?;
                need_str("value")?;
                summary.metas += 1;
            }
            other => return Err(err(format!("unknown ev `{other}`"))),
        }
        summary.lines += 1;
    }

    if !open.is_empty() {
        let mut ids: Vec<u64> = open.keys().copied().collect();
        ids.sort_unstable();
        return Err(TraceError::Eof(format!("unclosed spans: {ids:?}")));
    }
    if summary.lines == 0 {
        return Err(TraceError::Eof("empty trace".to_string()));
    }
    Ok(summary)
}

/// Reads and validates a trace file.
///
/// # Errors
///
/// [`TraceError::Io`] if unreadable, otherwise the first violation.
pub fn validate_file(path: &Path) -> Result<TraceSummary, TraceError> {
    validate_str(&std::fs::read_to_string(path)?)
}

// ---------------------------------------------------------------------------
// Postmortem (flight recorder) dumps
// ---------------------------------------------------------------------------

/// The dp-serve flight recorder keeps at most this many trace events per
/// job; a `job-N.postmortem.jsonl` dump is that window plus one terminal
/// `postmortem` marker point, so its line count is bounded by this + 1.
/// Mirrors `dreamplace::serve::POSTMORTEM_EVENTS` (asserted equal by the
/// tier-1 metrics smoke test, since the crates must not depend on each
/// other just to share one constant).
pub const POSTMORTEM_EVENT_CAP: usize = 64;

/// What a valid postmortem dump contained, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostmortemSummary {
    /// Non-empty lines validated (recorded events + the marker).
    pub lines: usize,
    /// Timeline `point` events, the marker included.
    pub points: usize,
    /// Contained-panic points (name == "panic").
    pub panics: usize,
    /// Deadline-timeout points (name == "timeout").
    pub timeouts: usize,
    /// Retry points (name == "retry").
    pub retries: usize,
}

/// Required keys per event kind, for the windowed (per-line) check.
fn event_keys(ev: &str) -> Option<&'static [&'static str]> {
    match ev {
        "begin" => Some(&["id", "parent", "kind", "name", "t", "tid"]),
        "end" => Some(&["id", "t", "tid"]),
        "iter" => Some(&["span", "k", "hpwl", "overflow", "lambda", "gamma", "t", "tid"]),
        "point" => Some(&["span", "name", "detail", "t", "tid"]),
        "kernel" => Some(&["name", "calls", "nanos"]),
        "ws" => Some(&["name", "uses", "reuses", "bytes"]),
        "worker" => Some(&["pool", "worker", "launches", "nanos"]),
        "meta" => Some(&["key", "value"]),
        _ => None,
    }
}

/// Per-key type in the trace schema.
fn key_type_ok(key: &str, value: &Value) -> bool {
    match key {
        "kind" | "name" | "detail" | "key" | "value" | "pool" | "ev" => value.as_str().is_some(),
        "hpwl" | "overflow" | "lambda" | "gamma" => value.as_f64().is_some(),
        _ => value.as_u64().is_some(),
    }
}

/// Validates a flight-recorder dump held in memory.
///
/// A postmortem is a *window* over a live trace, so the whole-trace
/// invariants (balanced spans, open-parent references) cannot apply: the
/// window may start mid-span. What must hold instead:
///
/// 1. every line is a flat JSON object matching one event kind's exact
///    key set, with the right value types (same per-line schema as
///    [`validate_str`]);
/// 2. the dump is bounded: at most [`POSTMORTEM_EVENT_CAP`] recorded
///    events plus the marker;
/// 3. the last line — and only the last — is a `point` named
///    `postmortem`, proving the dump was terminated deliberately rather
///    than truncated by a crash.
///
/// # Errors
///
/// The first violated rule, with its line number where applicable.
pub fn validate_postmortem_str(text: &str) -> Result<PostmortemSummary, TraceError> {
    let mut summary = PostmortemSummary::default();
    let mut last_marker = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let err = |msg: String| TraceError::Line { line: line_no, msg };
        if last_marker {
            return Err(err("events after the terminal `postmortem` marker".into()));
        }
        let fields = parse_flat_object(raw).map_err(err)?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let ev = get("ev")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing string key `ev`".into()))?
            .to_string();
        let expected = event_keys(&ev).ok_or_else(|| err(format!("unknown ev `{ev}`")))?;
        for key in expected {
            let value = get(key).ok_or_else(|| err(format!("missing key `{key}`")))?;
            if !key_type_ok(key, value) {
                return Err(err(format!("`{key}` has the wrong type for ev `{ev}`")));
            }
        }
        for (k, _) in &fields {
            if k != "ev" && !expected.contains(&k.as_str()) {
                return Err(err(format!("unknown key `{k}` for ev `{ev}`")));
            }
        }
        if ev == "point" {
            summary.points += 1;
            match get("name").and_then(Value::as_str) {
                Some("panic") => summary.panics += 1,
                Some("timeout") => summary.timeouts += 1,
                Some("retry") => summary.retries += 1,
                Some("postmortem") => last_marker = true,
                _ => {}
            }
        }
        summary.lines += 1;
    }
    if summary.lines == 0 {
        return Err(TraceError::Eof("empty postmortem".to_string()));
    }
    if !last_marker {
        return Err(TraceError::Eof(
            "missing terminal `postmortem` marker point".to_string(),
        ));
    }
    if summary.lines > POSTMORTEM_EVENT_CAP + 1 {
        return Err(TraceError::Eof(format!(
            "{} lines exceed the flight-recorder bound of {} events + marker",
            summary.lines,
            POSTMORTEM_EVENT_CAP
        )));
    }
    Ok(summary)
}

/// Reads and validates a `job-N.postmortem.jsonl` flight-recorder dump.
///
/// # Errors
///
/// [`TraceError::Io`] if unreadable, otherwise the first violation.
pub fn validate_postmortem_file(path: &Path) -> Result<PostmortemSummary, TraceError> {
    validate_postmortem_str(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_minimal_well_formed_trace() {
        let text = concat!(
            "{\"ev\":\"meta\",\"key\":\"design\",\"value\":\"t\"}\n",
            "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"flow\",\"name\":\"t\",\"t\":0,\"tid\":0}\n",
            "{\"ev\":\"begin\",\"id\":2,\"parent\":1,\"kind\":\"stage\",\"name\":\"gp\",\"t\":5,\"tid\":0}\n",
            "{\"ev\":\"iter\",\"span\":2,\"k\":0,\"hpwl\":1.0e0,\"overflow\":5.0e-1,\"lambda\":1.0e-4,\"gamma\":\"inf\",\"t\":6,\"tid\":0}\n",
            "{\"ev\":\"point\",\"span\":2,\"name\":\"degradation\",\"detail\":\"gp: x, y -> z\",\"t\":7,\"tid\":0}\n",
            "{\"ev\":\"end\",\"id\":2,\"t\":9,\"tid\":0}\n",
            "{\"ev\":\"end\",\"id\":1,\"t\":10,\"tid\":0}\n",
            "{\"ev\":\"kernel\",\"name\":\"wa.forward\",\"calls\":3,\"nanos\":99}\n",
            "{\"ev\":\"ws\",\"name\":\"grad\",\"uses\":4,\"reuses\":3,\"bytes\":1024}\n",
            "{\"ev\":\"worker\",\"pool\":\"pool\",\"worker\":1,\"launches\":7,\"nanos\":50}\n",
        );
        let s = validate_str(text).expect("valid");
        assert_eq!(s.spans, 2);
        assert_eq!(s.iters, 1);
        assert_eq!(s.points, 1);
        assert_eq!(s.degradations, 1);
        assert_eq!(s.kernels, 1);
        assert_eq!(s.workspaces, 1);
        assert_eq!(s.workers, 1);
        assert_eq!(s.metas, 1);
    }

    #[test]
    fn rejects_unbalanced_nesting() {
        let text = "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"flow\",\"name\":\"t\",\"t\":0,\"tid\":0}\n";
        let err = validate_str(text).unwrap_err();
        assert!(matches!(err, TraceError::Eof(_)), "{err}");
    }

    #[test]
    fn rejects_end_without_begin() {
        let text = "{\"ev\":\"end\",\"id\":7,\"t\":0,\"tid\":0}\n";
        let err = validate_str(text).unwrap_err();
        assert!(err.to_string().contains("not open"), "{err}");
    }

    #[test]
    fn rejects_inverted_nesting_order() {
        let text = concat!(
            "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"stage\",\"name\":\"gp\",\"t\":0,\"tid\":0}\n",
            "{\"ev\":\"begin\",\"id\":2,\"parent\":1,\"kind\":\"flow\",\"name\":\"f\",\"t\":1,\"tid\":0}\n",
        );
        let err = validate_str(text).unwrap_err();
        assert!(err.to_string().contains("cannot nest"), "{err}");
    }

    #[test]
    fn rejects_non_monotone_timestamps_per_tid() {
        let text = concat!(
            "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"flow\",\"name\":\"t\",\"t\":10,\"tid\":0}\n",
            "{\"ev\":\"end\",\"id\":1,\"t\":4,\"tid\":0}\n",
        );
        let err = validate_str(text).unwrap_err();
        assert!(err.to_string().contains("before"), "{err}");
    }

    #[test]
    fn allows_interleaved_threads_with_independent_clocks() {
        let text = concat!(
            "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"flow\",\"name\":\"t\",\"t\":10,\"tid\":0}\n",
            "{\"ev\":\"point\",\"span\":1,\"name\":\"n\",\"detail\":\"d\",\"t\":3,\"tid\":1}\n",
            "{\"ev\":\"end\",\"id\":1,\"t\":11,\"tid\":0}\n",
        );
        validate_str(text).expect("per-tid clocks are independent");
    }

    #[test]
    fn rejects_id_reuse() {
        let text = concat!(
            "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"flow\",\"name\":\"a\",\"t\":0,\"tid\":0}\n",
            "{\"ev\":\"end\",\"id\":1,\"t\":1,\"tid\":0}\n",
            "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"flow\",\"name\":\"b\",\"t\":2,\"tid\":0}\n",
        );
        let err = validate_str(text).unwrap_err();
        assert!(err.to_string().contains("reused"), "{err}");
    }

    #[test]
    fn rejects_unknown_keys_and_kinds() {
        let bad_key = "{\"ev\":\"end\",\"id\":1,\"t\":0,\"tid\":0,\"extra\":1}\n";
        assert!(validate_str(bad_key).is_err());
        let bad_kind = "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"phase\",\"name\":\"x\",\"t\":0,\"tid\":0}\n";
        assert!(validate_str(bad_kind).is_err());
        let bad_ev = "{\"ev\":\"bogus\"}\n";
        assert!(validate_str(bad_ev).is_err());
    }

    #[test]
    fn parses_escapes_and_rejects_nesting() {
        let text = "{\"ev\":\"meta\",\"key\":\"k\",\"value\":\"a\\\"b\\\\c\\nd\\u0041\"}\n";
        let s = validate_str(text).expect("escapes ok");
        assert_eq!(s.metas, 1);
        assert!(validate_str("{\"ev\":\"meta\",\"key\":\"k\",\"value\":{}}\n").is_err());
        assert!(validate_str("not json\n").is_err());
    }

    fn marker_line(t: u64) -> String {
        format!(
            "{{\"ev\":\"point\",\"span\":0,\"name\":\"postmortem\",\"detail\":\"d\",\"t\":{t},\"tid\":0}}"
        )
    }

    #[test]
    fn postmortem_accepts_a_bounded_window_and_counts_faults() {
        let text = concat!(
            // A window may start mid-span: this `end` has no `begin`.
            "{\"ev\":\"end\",\"id\":9,\"t\":3,\"tid\":0}\n",
            "{\"ev\":\"point\",\"span\":0,\"name\":\"panic\",\"detail\":\"boom\",\"t\":4,\"tid\":0}\n",
            "{\"ev\":\"point\",\"span\":0,\"name\":\"retry\",\"detail\":\"attempt 2\",\"t\":5,\"tid\":0}\n",
            "{\"ev\":\"point\",\"span\":0,\"name\":\"timeout\",\"detail\":\"late\",\"t\":6,\"tid\":0}\n",
        )
        .to_string()
            + &marker_line(6)
            + "\n";
        let s = validate_postmortem_str(&text).expect("valid postmortem");
        assert_eq!(s.lines, 5);
        assert_eq!(s.panics, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.retries, 1);
        // The same window fails whole-trace validation (unbalanced spans),
        // which is exactly why postmortems get their own validator.
        assert!(validate_str(&text).is_err());
    }

    #[test]
    fn postmortem_requires_the_terminal_marker_last() {
        // No marker at all: truncated dump.
        let no_marker =
            "{\"ev\":\"point\",\"span\":0,\"name\":\"panic\",\"detail\":\"x\",\"t\":1,\"tid\":0}\n";
        let err = validate_postmortem_str(no_marker).unwrap_err();
        assert!(err.to_string().contains("marker"), "{err}");
        // Events after the marker: corrupt dump.
        let trailing = marker_line(1)
            + "\n{\"ev\":\"point\",\"span\":0,\"name\":\"n\",\"detail\":\"d\",\"t\":2,\"tid\":0}\n";
        let err = validate_postmortem_str(&trailing).unwrap_err();
        assert!(err.to_string().contains("after the terminal"), "{err}");
        // Schema still applies per line.
        let bad = "{\"ev\":\"bogus\"}\n".to_string() + &marker_line(1) + "\n";
        assert!(validate_postmortem_str(&bad).is_err());
    }

    #[test]
    fn postmortem_rejects_an_oversized_dump() {
        let mut text = String::new();
        for t in 0..POSTMORTEM_EVENT_CAP + 1 {
            text.push_str(&format!(
                "{{\"ev\":\"point\",\"span\":0,\"name\":\"n\",\"detail\":\"d\",\"t\":{t},\"tid\":0}}\n"
            ));
        }
        text.push_str(&marker_line(POSTMORTEM_EVENT_CAP as u64 + 1));
        text.push('\n');
        let err = validate_postmortem_str(&text).unwrap_err();
        assert!(err.to_string().contains("exceed"), "{err}");
    }

    #[test]
    fn trace_summary_counts_panic_and_timeout_points() {
        let text = concat!(
            "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"flow\",\"name\":\"t\",\"t\":0,\"tid\":0}\n",
            "{\"ev\":\"point\",\"span\":1,\"name\":\"panic\",\"detail\":\"boom\",\"t\":1,\"tid\":0}\n",
            "{\"ev\":\"point\",\"span\":1,\"name\":\"retry\",\"detail\":\"a2\",\"t\":2,\"tid\":0}\n",
            "{\"ev\":\"point\",\"span\":1,\"name\":\"timeout\",\"detail\":\"late\",\"t\":3,\"tid\":0}\n",
            "{\"ev\":\"end\",\"id\":1,\"t\":4,\"tid\":0}\n",
        );
        let s = validate_str(text).expect("valid");
        assert_eq!(s.panics, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.retries, 1);
    }

    #[test]
    fn non_finite_markers_parse_as_floats() {
        let text = concat!(
            "{\"ev\":\"begin\",\"id\":1,\"parent\":0,\"kind\":\"iteration\",\"name\":\"i\",\"t\":0,\"tid\":0}\n",
            "{\"ev\":\"iter\",\"span\":1,\"k\":2,\"hpwl\":\"NaN\",\"overflow\":\"inf\",\"lambda\":\"-inf\",\"gamma\":1.5e0,\"t\":1,\"tid\":0}\n",
            "{\"ev\":\"end\",\"id\":1,\"t\":2,\"tid\":0}\n",
        );
        let s = validate_str(text).expect("markers ok");
        assert_eq!(s.iters, 1);
    }
}
