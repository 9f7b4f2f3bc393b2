//! Wire-transcript pin: one scripted session through [`serve`], every
//! emitted line compared byte for byte against `wire_transcript.jsonl` —
//! key order, absence of whitespace, the `{:e}`/`{:.3}`/`{:.1}` number
//! forms and the `trace` event's embedded raw record included. The fixture
//! was captured from the daemon as it stood before the protocol moved into
//! `protocol.rs`; clients (`dp-perf` among them) classify lines by the
//! literal prefix `{"event":"` and read `"key":<number>` by adjacency, so
//! any diff here is a wire break. A deliberate change (or a re-baseline
//! that moves HPWL bits) regenerates it with `DP_UPDATE_GOLDEN=1`.

use super::{serve, ServeOptions};

/// Probes first, the job last: every answer before `accepted` is then
/// independent of how fast the reader thread feeds the daemon loop.
const SCRIPT: [&str; 7] = [
    r#"{"cmd":"status"}"#,
    r#"{"cmd":"metrics"}"#,
    r#"{"cmd":"frobnicate"}"#,
    r#"{"cmd":"submit","preset":"#,
    r#"{"cmd":"cancel","job":41}"#,
    r#"{"cmd":"submit","preset":"tiny","seed":5,"max_iters":4}"#,
    r#"{"cmd":"drain"}"#,
];

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/src/serve/wire_transcript.jsonl");

/// Replaces what wall-clock time decides with its shape: the number after
/// any `…seconds":` or `"t":` key becomes `_` plus one `#` per fraction
/// digit (so `{:.3}` stays visible), the metrics exposition becomes `_`.
fn mask(line: &str) -> String {
    const METRICS: &str = "{\"event\":\"metrics\",\"data\":\"";
    if line.starts_with(METRICS) && line.ends_with("\"}") {
        return format!("{METRICS}_\"}}");
    }
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = ["seconds\":", "\"t\":"]
        .iter()
        .filter_map(|key| rest.find(key).map(|i| i + key.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        out.push('_');
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
        if let Some(fraction) = rest.strip_prefix('.') {
            let digits = fraction.len() - fraction.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            out.push('.');
            out.push_str(&"#".repeat(digits));
            rest = &fraction[digits..];
        }
    }
    out + rest
}

/// `(control lines, job-0 lines)`: `draining` races the job's progress
/// events, so the two streams are compared separately, each in order.
fn split(text: &str) -> (Vec<&str>, Vec<&str>) {
    text.lines().partition(|l| !l.contains("\"job\":0,"))
}

#[test]
fn scripted_session_matches_the_captured_transcript() {
    let mut out = Vec::new();
    let opts = ServeOptions {
        threads: 1,
        slots: 1,
        ..ServeOptions::default()
    };
    let stats = serve(std::io::Cursor::new(SCRIPT.join("\n")), &mut out, &opts).unwrap();
    assert_eq!((stats.completed, stats.rejected, stats.errors), (1, 1, 1));
    let actual: String = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| mask(l) + "\n")
        .collect();
    if crate::check::update_requested() {
        std::fs::write(FIXTURE, &actual).unwrap();
    }
    let expected = std::fs::read_to_string(FIXTURE).unwrap();
    let (want_control, want_job) = split(&expected);
    let (got_control, got_job) = split(&actual);
    for (stream, got, want) in [("control", got_control, want_control), ("job", got_job, want_job)] {
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{stream} line {i}");
        }
        assert_eq!(got.len(), want.len(), "{stream} line count");
    }
}
