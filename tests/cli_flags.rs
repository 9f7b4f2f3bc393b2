//! The `dreamplace` binary refuses a flag its command does not read:
//! exit code 2, before any work, with the flag named on stderr. The flags
//! `dp-perf` starts its daemon child with stay accepted.

use std::io::Write;
use std::process::{Command, Stdio};

use dreamplace::bookshelf::write_design;
use dreamplace::gen::GeneratorConfig;

#[test]
fn an_unknown_flag_exits_2_before_the_command_runs() {
    let dir = std::env::temp_dir().join(format!("dp-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let d = GeneratorConfig::new("d", 50, 55)
        .with_seed(1)
        .generate::<f64>()
        .expect("valid generator config");
    write_design(&dir, "d", &d.netlist, &d.fixed_positions).expect("write");
    let aux = dir.join("d.aux");

    let out = Command::new(env!("CARGO_BIN_EXE_dreamplace"))
        .arg("stats")
        .arg(&aux)
        .args(["--thread", "4"])
        .output()
        .expect("run dreamplace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--thread"), "stderr must name the flag: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs before the check");

    // The same design with only known flags still reads.
    let ok = Command::new(env!("CARGO_BIN_EXE_dreamplace"))
        .arg("stats")
        .arg(&aux)
        .output()
        .expect("run dreamplace");
    assert!(ok.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_benchmark_daemon_flags_are_accepted() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dreamplace"))
        .arg("serve")
        .args(dp_perf::workloads::DAEMON_FLAGS)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"{\"cmd\":\"drain\"}\n")
        .expect("write drain");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let events = String::from_utf8_lossy(&out.stdout);
    assert!(events.contains("\"queue_cap\":256"), "{events}");
    assert!(events.contains("\"event\":\"bye\""), "{events}");
}
