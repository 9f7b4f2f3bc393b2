//! JSONL serialization for [`TraceEvent`]s.
//!
//! Events are written through the shared codec ([`crate::json`]) as flat
//! JSON objects with a stable key order, one per line. Floats use
//! `{:.17e}` so an `f64` round-trips exactly through its decimal form;
//! non-finite values (possible in a degraded run's convergence trace) are
//! written as the quoted strings `"NaN"`, `"inf"`, `"-inf"` since JSON has
//! no literal for them.
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

use crate::json::Object;
use crate::TraceEvent;

/// Serializes one event as a single JSON object (no trailing newline).
pub fn to_json_line(ev: &TraceEvent) -> String {
    let line = Object::new();
    match ev {
        TraceEvent::Begin {
            id,
            parent,
            kind,
            name,
            t_ns,
            tid,
        } => line
            .str("ev", "begin")
            .num("id", id)
            .num("parent", parent)
            .str("kind", kind.as_str())
            .str("name", name)
            .num("t", t_ns)
            .num("tid", tid),
        TraceEvent::End { id, t_ns, tid } => {
            line.str("ev", "end").num("id", id).num("t", t_ns).num("tid", tid)
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
        } => line
            .str("ev", "iter")
            .num("span", span)
            .num("k", iteration)
            .f64("hpwl", *hpwl)
            .f64("overflow", *overflow)
            .f64("lambda", *lambda)
            .f64("gamma", *gamma)
            .num("t", t_ns)
            .num("tid", tid),
        TraceEvent::Point {
            span,
            name,
            detail,
            t_ns,
            tid,
        } => line
            .str("ev", "point")
            .num("span", span)
            .str("name", name)
            .str("detail", detail)
            .num("t", t_ns)
            .num("tid", tid),
        TraceEvent::Kernel { name, calls, nanos } => line
            .str("ev", "kernel")
            .str("name", name)
            .num("calls", calls)
            .num("nanos", nanos),
        TraceEvent::Workspace {
            name,
            uses,
            reuses,
            bytes,
        } => line
            .str("ev", "ws")
            .str("name", name)
            .num("uses", uses)
            .num("reuses", reuses)
            .num("bytes", bytes),
        TraceEvent::Worker {
            pool,
            worker,
            launches,
            nanos,
        } => line
            .str("ev", "worker")
            .str("pool", pool)
            .num("worker", worker)
            .num("launches", launches)
            .num("nanos", nanos),
        TraceEvent::Meta { key, value } => {
            line.str("ev", "meta").str("key", key).str("value", value)
        }
    }
    .finish()
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
    fn every_event_kind_keeps_its_bytes() {
        let name = || Cow::Borrowed("wa \"fwd\"");
        let cases = [
            (
                TraceEvent::End { id: 3, t_ns: 50, tid: 1 },
                r#"{"ev":"end","id":3,"t":50,"tid":1}"#,
            ),
            (
                TraceEvent::Iter {
                    span: 5,
                    iteration: 2,
                    hpwl: 1.5,
                    overflow: 0.25,
                    lambda: 1e-4,
                    gamma: f64::NAN,
                    t_ns: 60,
                    tid: 0,
                },
                concat!(
                    r#"{"ev":"iter","span":5,"k":2,"hpwl":1.50000000000000000e0,"#,
                    r#""overflow":2.50000000000000000e-1,"lambda":1.00000000000000005e-4,"#,
                    r#""gamma":"NaN","t":60,"tid":0}"#
                ),
            ),
            (
                TraceEvent::Point {
                    span: 0,
                    name: Cow::Borrowed("retry"),
                    detail: "attempt 2\n".to_string(),
                    t_ns: 70,
                    tid: 0,
                },
                r#"{"ev":"point","span":0,"name":"retry","detail":"attempt 2\n","t":70,"tid":0}"#,
            ),
            (
                TraceEvent::Kernel { name: name(), calls: 7, nanos: 900 },
                r#"{"ev":"kernel","name":"wa \"fwd\"","calls":7,"nanos":900}"#,
            ),
            (
                TraceEvent::Workspace { name: name(), uses: 7, reuses: 6, bytes: 2048 },
                r#"{"ev":"ws","name":"wa \"fwd\"","uses":7,"reuses":6,"bytes":2048}"#,
            ),
            (
                TraceEvent::Worker { pool: name(), worker: 1, launches: 4, nanos: 99 },
                r#"{"ev":"worker","pool":"wa \"fwd\"","worker":1,"launches":4,"nanos":99}"#,
            ),
        ];
        for (event, want) in cases {
            assert_eq!(to_json_line(&event), want);
        }
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
