//! Smoke test of the benchmark command: every workload at `--smoke` size,
//! end to end and traced, must emit exactly the metric names, units and
//! workload names that `BENCHMARK.json` at the repository root lists.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use dp_perf::json::{self, Value};

fn manifest() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one of the manifest's lists, checking names are
/// listed once.
fn listed(manifest: &Value, key: &str) -> BTreeMap<String, String> {
    let items = manifest.get(key).and_then(Value::as_arr).expect(key);
    let map: BTreeMap<String, String> = items
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect();
    assert_eq!(map.len(), items.len(), "{key}: a name is listed twice");
    map
}

/// Runs `dp-perf run --smoke` on a workload and returns `name -> unit`
/// of the result line, checking the line's other fields on the way.
fn emitted(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_dp-perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("dp-perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.starts_with("# dp-perf"),
        "report starts with the host fingerprint"
    );
    let first = stdout.lines().next().unwrap_or("");
    for key in [
        "nproc=",
        "rustc=",
        "git=",
        "seed=\"5\"",
        "threads=\"1\"",
        "daemon=\"serve --threads 1",
    ] {
        assert!(first.contains(key), "fingerprint lacks {key}: {first}");
    }
    let result = json::parse(stdout.lines().last().unwrap_or("")).expect("last line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.num("attempted").expect("attempted") >= 1.0);
    assert_eq!(result.num("failed"), Some(0.0));
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let value = m
                .num("value")
                .unwrap_or_else(|| panic!("{workload}: {name} has no numeric value"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            assert!(!unit.is_empty(), "{workload}: {name} has no unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_manifest_metrics() {
    let manifest = manifest();
    let end_to_end = listed(&manifest, "end_to_end");
    let per_layer = listed(&manifest, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    let known: Vec<&str> = dp_perf::workloads::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, known);
    // One thread per workload: they share no file (spans and scratch
    // designs are named after the workload).
    std::thread::scope(|scope| {
        for w in &workloads {
            let (end_to_end, per_layer) = (&end_to_end, &per_layer);
            scope.spawn(move || {
                assert_eq!(&emitted(w, "0"), end_to_end, "{w}: end-to-end metrics");
                assert_eq!(&emitted(w, "1"), per_layer, "{w}: per-layer metrics");
            });
        }
    });
}

#[test]
fn manifest_agrees_with_the_tables_in_the_crate() {
    let manifest = manifest();
    let bounds: Vec<(String, f64)> = manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            assert_eq!(m.get("better").and_then(Value::as_str), Some("lower"));
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                m.num("bound").unwrap_or(f64::NAN),
            )
        })
        .collect();
    let table: Vec<(String, f64)> = dp_perf::spec::END_TO_END
        .iter()
        .map(|&(n, _, b)| (n.to_string(), b))
        .collect();
    assert_eq!(bounds, table);
    let better: Vec<(String, String)> = manifest
        .get("per_layer")
        .and_then(Value::as_arr)
        .expect("per_layer")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("better"))
        })
        .collect();
    let table: Vec<(String, String)> = dp_perf::spec::PER_LAYER
        .iter()
        .map(|&(n, _, b)| (n.to_string(), b.to_string()))
        .collect();
    assert_eq!(better, table);
    for w in dp_perf::workloads::Workload::ALL {
        let why = manifest
            .get("workloads")
            .and_then(Value::as_arr)
            .and_then(|ws| {
                ws.iter()
                    .find(|x| x.get("name").and_then(Value::as_str) == Some(w.name()))
            })
            .and_then(|x| x.get("why"))
            .and_then(Value::as_str);
        assert_eq!(why, Some(w.why()), "{}", w.name());
    }
    let command: Vec<&str> = manifest
        .get("command")
        .and_then(Value::as_arr)
        .expect("command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command.last(), Some(&"run"));
    assert!(command.contains(&"dp-perf"));
}
