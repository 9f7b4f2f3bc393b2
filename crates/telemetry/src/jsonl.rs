//! Hand-rolled JSONL serialization for [`TraceEvent`]s.
//!
//! The offline build has no serde, so — like the golden-record code in
//! `dp-check` — events are written as flat JSON objects with a stable key
//! order, one per line. Floats use `{:.17e}` so an `f64` round-trips
//! exactly through its decimal form; non-finite values (possible in a
//! degraded run's convergence trace) are written as the quoted strings
//! `"NaN"`, `"inf"`, `"-inf"` since JSON has no literal for them.
//!
//! The schema (`ev` discriminates the event kind):
//!
//! ```text
//! {"ev":"begin","id":N,"parent":N,"kind":"flow|stage|iteration|kernel","name":S,"t":NS,"tid":N}
//! {"ev":"end","id":N,"t":NS,"tid":N}
//! {"ev":"iter","span":N,"k":N,"hpwl":F,"overflow":F,"lambda":F,"gamma":F,"t":NS,"tid":N}
//! {"ev":"point","span":N,"name":S,"detail":S,"t":NS,"tid":N}
//! {"ev":"kernel","name":S,"calls":N,"nanos":N}
//! {"ev":"ws","name":S,"uses":N,"reuses":N,"bytes":N}
//! {"ev":"worker","pool":S,"worker":N,"launches":N,"nanos":N}
//! {"ev":"meta","key":S,"value":S}
//! ```
//!
//! `t` is nanoseconds since the sink was created; `parent`/`span` of 0
//! means "root"/"no enclosing span". The schema-validating reader lives in
//! `dp-check` (`dp_check::trace`), deliberately independent of this writer
//! so encode bugs cannot hide behind a shared implementation.

use crate::TraceEvent;
use std::fmt::Write as _;

/// Appends `s` JSON-escaped (without surrounding quotes) to `out`.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends a JSON string literal.
fn push_str_field(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends an `f64` in exact-round-trip form, or a quoted marker for
/// non-finite values.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.17e}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Serializes one event as a single JSON object (no trailing newline).
pub fn to_json_line(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    match ev {
        TraceEvent::Begin {
            id,
            parent,
            kind,
            name,
            t_ns,
            tid,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"begin\",\"id\":{id},\"parent\":{parent},\"kind\":\"{}\",\"name\":",
                kind.as_str()
            );
            push_str_field(&mut s, name);
            let _ = write!(s, ",\"t\":{t_ns},\"tid\":{tid}}}");
        }
        TraceEvent::End { id, t_ns, tid } => {
            let _ = write!(s, "{{\"ev\":\"end\",\"id\":{id},\"t\":{t_ns},\"tid\":{tid}}}");
        }
        TraceEvent::Iter {
            span,
            iteration,
            hpwl,
            overflow,
            lambda,
            gamma,
            t_ns,
            tid,
        } => {
            let _ = write!(s, "{{\"ev\":\"iter\",\"span\":{span},\"k\":{iteration},\"hpwl\":");
            push_f64(&mut s, *hpwl);
            s.push_str(",\"overflow\":");
            push_f64(&mut s, *overflow);
            s.push_str(",\"lambda\":");
            push_f64(&mut s, *lambda);
            s.push_str(",\"gamma\":");
            push_f64(&mut s, *gamma);
            let _ = write!(s, ",\"t\":{t_ns},\"tid\":{tid}}}");
        }
        TraceEvent::Point {
            span,
            name,
            detail,
            t_ns,
            tid,
        } => {
            let _ = write!(s, "{{\"ev\":\"point\",\"span\":{span},\"name\":");
            push_str_field(&mut s, name);
            s.push_str(",\"detail\":");
            push_str_field(&mut s, detail);
            let _ = write!(s, ",\"t\":{t_ns},\"tid\":{tid}}}");
        }
        TraceEvent::Kernel { name, calls, nanos } => {
            s.push_str("{\"ev\":\"kernel\",\"name\":");
            push_str_field(&mut s, name);
            let _ = write!(s, ",\"calls\":{calls},\"nanos\":{nanos}}}");
        }
        TraceEvent::Workspace {
            name,
            uses,
            reuses,
            bytes,
        } => {
            s.push_str("{\"ev\":\"ws\",\"name\":");
            push_str_field(&mut s, name);
            let _ = write!(s, ",\"uses\":{uses},\"reuses\":{reuses},\"bytes\":{bytes}}}");
        }
        TraceEvent::Worker {
            pool,
            worker,
            launches,
            nanos,
        } => {
            s.push_str("{\"ev\":\"worker\",\"pool\":");
            push_str_field(&mut s, pool);
            let _ = write!(s, ",\"worker\":{worker},\"launches\":{launches},\"nanos\":{nanos}}}");
        }
        TraceEvent::Meta { key, value } => {
            s.push_str("{\"ev\":\"meta\",\"key\":");
            push_str_field(&mut s, key);
            s.push_str(",\"value\":");
            push_str_field(&mut s, value);
            s.push('}');
        }
    }
    s
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::SpanKind;
    use std::borrow::Cow;

    #[test]
    fn begin_line_has_stable_key_order() {
        let line = to_json_line(&TraceEvent::Begin {
            id: 3,
            parent: 1,
            kind: SpanKind::Stage,
            name: Cow::Borrowed("gp"),
            t_ns: 42,
            tid: 0,
        });
        assert_eq!(
            line,
            "{\"ev\":\"begin\",\"id\":3,\"parent\":1,\"kind\":\"stage\",\"name\":\"gp\",\"t\":42,\"tid\":0}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let line = to_json_line(&TraceEvent::Meta {
            key: Cow::Borrowed("path"),
            value: "a\"b\\c\nd\u{1}".to_string(),
        });
        assert_eq!(
            line,
            "{\"ev\":\"meta\",\"key\":\"path\",\"value\":\"a\\\"b\\\\c\\nd\\u0001\"}"
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [1.0 / 3.0, -0.0, 1.2345678901234567e-300, 6.02e23] {
            let line = to_json_line(&TraceEvent::Iter {
                span: 1,
                iteration: 0,
                hpwl: v,
                overflow: 0.0,
                lambda: 0.0,
                gamma: 0.0,
                t_ns: 0,
                tid: 0,
            });
            let start = line.find("\"hpwl\":").unwrap() + "\"hpwl\":".len();
            let end = line[start..].find(',').unwrap() + start;
            let parsed: f64 = line[start..end].parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_become_quoted_markers() {
        let line = to_json_line(&TraceEvent::Iter {
            span: 1,
            iteration: 0,
            hpwl: f64::NAN,
            overflow: f64::INFINITY,
            lambda: f64::NEG_INFINITY,
            gamma: 1.0,
            t_ns: 0,
            tid: 0,
        });
        assert!(line.contains("\"hpwl\":\"NaN\""));
        assert!(line.contains("\"overflow\":\"inf\""));
        assert!(line.contains("\"lambda\":\"-inf\""));
    }
}
