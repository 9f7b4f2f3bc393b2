//! Cross-validation of the independent checkpoint reader against the
//! `dreamplace-core` writer: every checkpoint the durable flow driver can
//! produce must validate, and the independent CRC/schema checks must
//! catch the same corruptions the core reader catches.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dp_check::checkpoint::{validate_checkpoint_file, validate_checkpoint_str, CkptError};
use dreamplace_core::{
    checkpoint, CheckpointPolicy, DreamPlacer, DurableOutcome, FlowConfig, FlowFaultInjection,
    FlowState, ToolMode,
};

fn design() -> dp_gen::GeneratedDesign<f64> {
    dp_gen::GeneratorConfig::new("ckpt-xval", 150, 165)
        .with_seed(23)
        .with_utilization(0.6)
        .generate::<f64>()
        .expect("ok")
}

fn config(d: &dp_gen::GeneratedDesign<f64>) -> FlowConfig<f64> {
    let mut cfg = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads: 1 }, &d.netlist);
    cfg.gp.max_iters = 150;
    cfg.gp.target_overflow = 0.2;
    cfg
}

/// Runs the flow to an injected kill at `at`, leaving a checkpoint in a
/// fresh temp dir, and returns the checkpoint file contents.
fn checkpoint_killed_at(at: FlowState, tag: &str) -> String {
    let d = design();
    let dir = std::env::temp_dir().join(format!("dp-ckpt-xval-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = CheckpointPolicy::new(&dir).every(2);
    let outcome = DreamPlacer::new(config(&d))
        .place_durable(&d, None, Some(&policy), FlowFaultInjection::die_at(at))
        .expect("durable run");
    assert!(matches!(outcome, DurableOutcome::Killed { .. }));
    let text = std::fs::read_to_string(checkpoint::checkpoint_file(&dir)).expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

#[test]
fn validator_accepts_gp_lg_and_dp_checkpoints() {
    for (at, tag, stage) in [
        (FlowState::Gp { iteration: 6 }, "gp", "gp"),
        (FlowState::Lg, "lg", "lg"),
        (FlowState::Dp { pass: 1 }, "dp", "dp"),
    ] {
        let text = checkpoint_killed_at(at, tag);
        let s = validate_checkpoint_str(&text)
            .unwrap_or_else(|e| panic!("{stage} checkpoint rejected: {e}"));
        assert_eq!(s.stage, stage);
        assert_eq!(s.name, "ckpt-xval");
        assert_eq!(s.cells, 150);
        assert_eq!(s.nets, 165);
        assert_eq!(s.gp_next_iteration.is_some(), stage == "gp");
        assert!(s.records > 10, "suspiciously small: {} records", s.records);
    }
}

#[test]
fn validator_accepts_files_and_directories() {
    let d = design();
    let dir = std::env::temp_dir().join(format!("dp-ckpt-xval-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = CheckpointPolicy::new(&dir).every(2);
    DreamPlacer::new(config(&d))
        .place_durable(
            &d,
            None,
            Some(&policy),
            FlowFaultInjection::die_at(FlowState::Lg),
        )
        .expect("durable run");
    let via_dir = validate_checkpoint_file(&dir).expect("dir");
    let via_file = validate_checkpoint_file(&checkpoint::checkpoint_file(&dir)).expect("file");
    assert_eq!(via_dir, via_file);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn independent_crc_catches_bit_flips() {
    let text = checkpoint_killed_at(FlowState::Gp { iteration: 4 }, "crc");
    let idx = text.rfind("end\n").unwrap() - 2;
    let mut bytes = text.clone().into_bytes();
    bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
    let flipped = String::from_utf8(bytes).unwrap();
    match validate_checkpoint_str(&flipped) {
        Err(CkptError::Crc { .. }) => {}
        other => panic!("want Crc error, got {other:?}"),
    }
    // And the pristine text still passes (the flip was the only change).
    validate_checkpoint_str(&text).expect("pristine");
}

#[test]
fn independent_reader_rejects_truncation_version_skew_and_foreign_files() {
    let text = checkpoint_killed_at(FlowState::Gp { iteration: 4 }, "neg");
    match validate_checkpoint_str(&text[..text.len() / 2]) {
        Err(CkptError::Crc { .. }) => {}
        other => panic!("want Crc on truncation, got {other:?}"),
    }
    // Newer and older (v1: no memo block; v2: no memo overflow) versions
    // alike.
    for found in [9, 1, 2] {
        match validate_checkpoint_str(&text.replacen("DPCKPT v3", &format!("DPCKPT v{found}"), 1)) {
            Err(CkptError::Version { found: f, supported: 3 }) if f == found => {}
            other => panic!("want Version for v{found}, got {other:?}"),
        }
    }
    match validate_checkpoint_str("{\"ev\":\"span\"}\n") {
        Err(CkptError::Header(_)) => {}
        other => panic!("want Header, got {other:?}"),
    }
}

#[test]
fn both_readers_agree_on_every_killed_state() {
    // The two independently implemented readers must accept exactly the
    // same set of checkpoints the driver writes.
    for (at, tag) in [
        (FlowState::Gp { iteration: 2 }, "agree-gp2"),
        (FlowState::Gp { iteration: 8 }, "agree-gp8"),
        (FlowState::Lg, "agree-lg"),
        (FlowState::Dp { pass: 0 }, "agree-dp0"),
        (FlowState::Dp { pass: 2 }, "agree-dp2"),
        (FlowState::Finish, "agree-finish"),
    ] {
        let text = checkpoint_killed_at(at, tag);
        checkpoint::deserialize::<f64>(&text)
            .unwrap_or_else(|e| panic!("core reader rejected {tag}: {e}"));
        validate_checkpoint_str(&text)
            .unwrap_or_else(|e| panic!("independent reader rejected {tag}: {e}"));
    }
}

/// The pinned `DPCKPT` v3 files in `tests/fixtures/`, one per stage, each
/// written by a durable `dreamplace place --overflow 0.2
/// --checkpoint-every 2` run of a 16-cell generated design (`gen 16 --seed
/// 7 --name tiny`) killed at `gp:6`, `lg` and `dp:1`.
fn v3_fixtures() -> [(&'static str, std::path::PathBuf); 3] {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    ["gp", "lg", "dp"].map(|stage| (stage, dir.join(format!("flow_v3_{stage}.ckpt"))))
}

#[test]
fn v3_fixtures_round_trip_byte_for_byte_and_validate() {
    for (stage, path) in v3_fixtures() {
        let text = std::fs::read_to_string(&path).expect("fixture");
        let data = checkpoint::read_checkpoint::<f64>(&path)
            .unwrap_or_else(|e| panic!("core reader rejected the {stage} fixture: {e}"));
        assert!(checkpoint::serialize(&data) == text, "{stage} fixture bytes moved");
        let s = validate_checkpoint_file(&path)
            .unwrap_or_else(|e| panic!("validator rejected the {stage} fixture: {e}"));
        assert_eq!(s.stage, stage);
    }
}

/// Re-seals `payload` under a correct header so only the schema checks can
/// object to an edit.
fn resealed(text: &str, edit: impl Fn(&str) -> String) -> String {
    let payload_start = text.find("\ncrc 0x").unwrap() + 1 + "crc 0x00000000\n".len();
    let payload = edit(&text[payload_start..]);
    // Same polynomial as both readers, bitwise: a third construction.
    let mut crc = 0xFFFF_FFFFu32;
    for &b in payload.as_bytes() {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    format!("DPCKPT v3\ncrc {:#010x}\n{payload}", !crc)
}

#[test]
fn validator_checks_the_memo_block() {
    let text = checkpoint_killed_at(FlowState::Gp { iteration: 6 }, "memo");
    let memo_line = text
        .lines()
        .find(|l| l.starts_with("memo "))
        .expect("gp checkpoint has a memo record");
    assert!(memo_line.starts_with("memo 1 "), "six steps in, the memo is valid");
    let dim = 2 * 150;
    for name in ["memo.key", "memo.wl", "memo.density"] {
        assert!(text.contains(&format!("vec {name} {dim} ")), "{name}");
    }
    validate_checkpoint_str(&resealed(&text, str::to_string)).expect("resealing is faithful");

    // v3: the record ends with the overflow the next tripwire reads — a
    // finite, positive number six steps into a spreading run. A negative
    // one is refused, NaN (a uniform-field grid's "none") is not, and a
    // v2-shaped record without it is an arity error.
    let toks: Vec<&str> = memo_line.split(' ').collect();
    assert_eq!(toks.len(), 6, "{memo_line}");
    let overflow: f64 = toks[5].parse().expect("overflow scalar");
    assert!(overflow > 0.0 && overflow.is_finite(), "{memo_line}");
    let with_overflow = |tok: &str| {
        let line = [&toks[..5], &[tok]].concat().join(" ");
        resealed(&text, |p| p.replacen(memo_line, &line, 1))
    };
    match validate_checkpoint_str(&with_overflow("-1e-3")) {
        Err(CkptError::Line { msg, .. }) => assert!(msg.contains("negative"), "{msg}"),
        other => panic!("want a negative-overflow error, got {other:?}"),
    }
    validate_checkpoint_str(&with_overflow("NaN")).expect("NaN: no map to read one off");
    let v2_shaped = resealed(&text, |p| p.replacen(memo_line, &toks[..5].join(" "), 1));
    assert!(
        validate_checkpoint_str(&v2_shaped).is_err(),
        "memo record without its overflow"
    );
    assert!(checkpoint::deserialize::<f64>(&v2_shaped).is_err());

    // A valid memo must hold 2 x movable values in each vector ...
    let short_key = resealed(&text, |p| {
        let line = p.lines().find(|l| l.starts_with("vec memo.key ")).unwrap();
        let mut toks: Vec<&str> = line.split(' ').collect();
        toks.pop();
        let n = (dim - 1).to_string();
        toks[2] = &n;
        p.replacen(line, &toks.join(" "), 1)
    });
    match validate_checkpoint_str(&short_key) {
        Err(CkptError::Line { msg, .. }) => assert!(msg.contains("memo.key"), "{msg}"),
        other => panic!("want a memo.key length error, got {other:?}"),
    }
    // ... an invalid one holds nothing, as the writer emits it ...
    let invalid = resealed(&text, |p| p.replacen("memo 1 ", "memo 0 ", 1));
    match validate_checkpoint_str(&invalid) {
        Err(CkptError::Line { msg, .. }) => assert!(msg.contains("memo.key"), "{msg}"),
        other => panic!("want a memo.key length error, got {other:?}"),
    }
    let gp0 = checkpoint_killed_at(FlowState::Gp { iteration: 0 }, "memo0");
    assert!(gp0.contains("\nmemo 0 ") && gp0.contains("\nvec memo.key 0\n"), "no point evaluated yet");
    validate_checkpoint_str(&gp0).expect("gp:0 checkpoint with an empty memo");
    // ... and the block cannot be missing.
    let no_memo = resealed(&text, |p| p.replacen(&format!("{memo_line}\n"), "", 1));
    match validate_checkpoint_str(&no_memo) {
        Err(CkptError::Line { msg, .. }) => assert!(msg.contains("`memo`"), "{msg}"),
        other => panic!("want a missing-memo error, got {other:?}"),
    }
    // Both readers refuse the short key.
    assert!(checkpoint::deserialize::<f64>(&short_key).is_err());
}

/// Every token of every payload line of the three v3 fixtures, tags
/// included, replaced by each hostile value and re-sealed under a correct
/// CRC. Neither reader may panic or abort, every core error is `Corrupt` at
/// a line inside the file, and the two readers accept the same mutants.
#[test]
fn hostile_tokens_under_a_valid_crc_never_crash_either_reader() {
    const HOSTILE: [&str; 6] = ["-1", "NaN", "1e300", "99999999999", "18446744073709551616", ""];
    // Table-driven CRC32: the bitwise one in `resealed` is too slow for
    // tens of thousands of files in a debug build.
    let table: Vec<u32> = (0..256u32)
        .map(|i| (0..8).fold(i, |c, _| (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())))
        .collect();
    let crc = |bytes: &[u8]| {
        !bytes.iter().fold(!0u32, |c, &b| (c >> 8) ^ table[((c ^ u32::from(b)) & 0xFF) as usize])
    };
    let mut mutants = 0;
    for (stage, path) in v3_fixtures() {
        let text = std::fs::read_to_string(&path).expect("fixture");
        let payload = &text[text.find("\ncrc 0x").unwrap() + 1 + "crc 0x00000000\n".len()..];
        let lines: Vec<&str> = payload.lines().collect();
        let last_line = lines.len() + 2;
        let mut start = 0;
        for (i, line) in lines.iter().enumerate() {
            let toks: Vec<&str> = line.split(' ').collect();
            let (before, after) = (&payload[..start], &payload[start + line.len()..]);
            for t in 0..toks.len() {
                for bad in HOSTILE.into_iter().filter(|bad| *bad != toks[t]) {
                    let mut edited = toks.clone();
                    edited[t] = bad;
                    let body = format!("{before}{}{after}", edited.join(" "));
                    let mutant = format!("DPCKPT v3\ncrc {:#010x}\n{body}", crc(body.as_bytes()));
                    let at = format!("{stage} fixture, line {}, token {t} -> {bad:?}", i + 3);
                    let core = checkpoint::deserialize::<f64>(&mutant);
                    match &core {
                        Err(checkpoint::CheckpointError::Corrupt { line, .. })
                            if !(3..=last_line).contains(line) =>
                        {
                            panic!("{at}: core error cites line {line}")
                        }
                        Ok(_) | Err(checkpoint::CheckpointError::Corrupt { .. }) => {}
                        Err(e) => panic!("{at}: core reader gave {e:?}"),
                    }
                    match (validate_checkpoint_str(&mutant), &core) {
                        (Ok(_), Err(e)) => {
                            panic!("{at}: the validator accepts what the core reader refuses: {e}")
                        }
                        (Err(e), Ok(_)) => {
                            panic!("{at}: the core reader accepts what the validator refuses: {e}")
                        }
                        _ => {}
                    }
                    mutants += 1;
                }
            }
            start += line.len() + 1;
        }
    }
    assert!(mutants > 5_000, "only {mutants} mutants");
}
