//! The checkpoints a run writes hold the state it captured, token for
//! token: this repeats the run that wrote `tests/fixtures/flow_v3_*.ckpt`
//! (`gen 16 --seed 7 --name tiny`, then `place --overflow 0.2
//! --checkpoint-every 2` killed at `gp:6`, `lg` and `dp:1`) and compares
//! each written file with its fixture. The codec tests only re-serialize
//! the fixtures, so they cannot see a capture that drops, reorders or
//! recomputes a value; this test does.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::Command;

/// Tokens that read the wall clock: `(record tag, token index)`, the tag
/// being token 0. A `None` index covers every token after the tag.
const WALL_CLOCK: [(&str, Option<usize>); 7] = [
    ("timing", None),
    ("consumed", None),
    ("gp.timing", None),
    // The engine's consumed seconds, last of the scalars.
    ("eng.scalars", Some(9)),
    // Nanoseconds spent in an operator.
    ("op", Some(2)),
    // LG runtime.
    ("lg.stats", Some(3)),
    // The guarded DP run's consumed seconds.
    ("dp.run", Some(12)),
];

/// Tokens that follow the worker count: the pool width and the threads it
/// spawned (`DP_THREADS`, else every core).
const THREAD_COUNT: [(&str, Option<usize>); 2] = [("exec.pool", Some(1)), ("exec.pool", Some(2))];

fn may_differ(tag: &str, idx: usize) -> bool {
    WALL_CLOCK
        .iter()
        .chain(&THREAD_COUNT)
        .any(|&(t, i)| t == tag && i.is_none_or(|i| i == idx))
}

/// Runs the binary in `dir` with the space-separated `args`.
fn dreamplace(dir: &Path, args: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_dreamplace"))
        .current_dir(dir)
        .args(args.split(' '))
        .output()
        .expect("run dreamplace");
    assert!(
        out.status.success(),
        "dreamplace {args}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn written_checkpoints_match_the_fixtures_token_for_token() {
    let dir = std::env::temp_dir().join(format!("dp-fixture-capture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dreamplace(&dir, "gen 16 --seed 7 --name tiny --out .");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (stage, at) in [("gp", "gp:6"), ("lg", "lg"), ("dp", "dp:1")] {
        dreamplace(
            &dir,
            &format!(
                "place tiny.aux --overflow 0.2 --checkpoint-every 2 \
                 --checkpoint-dir ckpt-{stage} --die-at {at}"
            ),
        );
        let written = std::fs::read_to_string(dir.join(format!("ckpt-{stage}/flow.ckpt")))
            .expect("written checkpoint");
        let pinned = std::fs::read_to_string(fixtures.join(format!("flow_v3_{stage}.ckpt")))
            .expect("fixture");
        let written: Vec<&str> = written.lines().collect();
        let pinned: Vec<&str> = pinned.lines().collect();
        assert_eq!(written.len(), pinned.len(), "{stage}: record count");
        // Line 2 is the CRC of the payload, wall-clock tokens included.
        for (n, (w, p)) in written
            .iter()
            .zip(&pinned)
            .enumerate()
            .filter(|(n, _)| *n != 1)
        {
            let w: Vec<&str> = w.split(' ').collect();
            let p: Vec<&str> = p.split(' ').collect();
            assert_eq!(w.len(), p.len(), "{stage} line {}: token count", n + 1);
            for (i, (a, b)) in w.iter().zip(&p).enumerate() {
                assert!(
                    a == b || (i > 0 && may_differ(p[0], i)),
                    "{stage} line {} (`{}`) token {i}: wrote {a}, fixture has {b}",
                    n + 1,
                    p[0]
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
