//! `dp-perf aa`: the whole benchmark as interleaved sets of the same code.
//!
//! Run `i` of every set uses seed `seed + i`, so the sets see the same
//! seeds in the same order (their medians are comparable, and the counted
//! metrics must agree exactly between sets) while the runs of one set see
//! different inputs — which is how the benchmark is judged: for every
//! workload and end-to-end metric, the interquartile spread of a set as a
//! share of its median, and the worsening of the second set's median over
//! the first's, must both stay within the metric's bound.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::spec::END_TO_END;
use crate::stats;
use crate::workloads::Workload;

pub struct Plan {
    pub sets: usize,
    pub runs: usize,
    pub seed: u64,
    pub workloads: Vec<Workload>,
    pub smoke: bool,
    pub out: PathBuf,
}

/// Metrics that are counts of the program's own work: for one seed they
/// must repeat exactly, in every set.
const EXACT: [&str; 2] = ["hpwl", "gp_iters"];

/// One `dp-perf run` child: the metrics of its result line.
fn run_once(w: Workload, seed: u64, smoke: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name(), "--seed", &seed.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {last}",
            w.name(),
            output.status
        ));
    }
    let v =
        json::parse(last).map_err(|e| format!("{} seed {seed}: bad result line: {e}", w.name()))?;
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{} seed {seed}: outputs not correct", w.name()));
    }
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line has no metrics")?;
    END_TO_END
        .iter()
        .map(|&(name, _, _)| {
            let value = metrics.get(name).and_then(|m| m.num("value"));
            value
                .map(|x| (name.to_string(), x))
                .ok_or(format!("result line lacks `{name}`"))
        })
        .collect()
}

struct SetStats {
    values: Vec<f64>,
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
    max_over_min: f64,
}

impl SetStats {
    fn of(values: Vec<f64>) -> Self {
        let (q1, q3) = stats::quartiles(&values);
        Self {
            median: stats::median(&values),
            q1,
            q3,
            spread: stats::iqr_share(&values),
            max_over_min: stats::max(&values) / stats::min(&values),
            values,
        }
    }

    fn json(&self) -> String {
        let values: Vec<String> = self.values.iter().map(|v| format!("{v:?}")).collect();
        format!(
            "{{\"median\":{:?},\"q1\":{:?},\"q3\":{:?},\"spread\":{:?},\"max_over_min\":{:?},\"values\":[{}]}}",
            self.median,
            self.q1,
            self.q3,
            self.spread,
            self.max_over_min,
            values.join(",")
        )
    }
}

/// Runs the plan, prints the table, writes the JSON ledger entry, and
/// returns whether every workload x metric stayed within its bound.
pub fn run(plan: &Plan) -> Result<bool, String> {
    if plan.sets < 2 || plan.runs < 1 {
        return Err("aa needs --sets >= 2 and --runs >= 1".into());
    }
    let fingerprint = crate::fingerprint(plan.seed);
    println!(
        "# dp-perf aa sets={} runs={} {}",
        plan.sets,
        plan.runs,
        crate::fingerprint_line(plan.seed)
    );

    let mut ok = true;
    let mut rows = Vec::new();
    for &w in &plan.workloads {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; plan.sets];
        for i in 0..plan.runs {
            for set in values.iter_mut() {
                let metrics = run_once(w, plan.seed + i as u64, plan.smoke)?;
                for (slot, (_, v)) in set.iter_mut().zip(metrics) {
                    slot.push(v);
                }
            }
            eprintln!("aa: {} run {}/{} done", w.name(), i + 1, plan.runs);
        }
        for (k, &(name, unit, bound)) in END_TO_END.iter().enumerate() {
            let sets: Vec<SetStats> = values.iter().map(|s| SetStats::of(s[k].clone())).collect();
            // Lower is better for every end-to-end metric: the worsening of
            // any later set's median over the first's.
            let delta = sets[1..]
                .iter()
                .map(|s| (s.median - sets[0].median) / sets[0].median)
                .fold(f64::NEG_INFINITY, f64::max);
            let spread = sets.iter().map(|s| s.spread).fold(0.0, f64::max);
            let exact =
                !EXACT.contains(&name) || sets[1..].iter().all(|s| s.values == sets[0].values);
            // Set-up time is bounded on its median only.
            let row_ok = delta <= bound && (name == "setup_s" || spread <= bound) && exact;
            ok &= row_ok;
            println!(
                "{:<15} {:<18} median {:>14.6} vs {:>14.6} {unit:<6} delta {:>+7.2}% spread {:>6.2}% max/min {:>6.3} bound {:>5.1}% {}{}",
                w.name(),
                name,
                sets[0].median,
                sets[1].median,
                delta * 100.0,
                spread * 100.0,
                sets.iter().map(|s| s.max_over_min).fold(0.0, f64::max),
                bound * 100.0,
                if row_ok { "ok" } else { "EXCEEDED" },
                if exact { "" } else { " (counts differ between sets)" },
            );
            for (n, s) in sets.iter().enumerate() {
                println!(
                    "    set {n}: q1 {:.6} median {:.6} q3 {:.6} max/min {:.4}",
                    s.q1, s.median, s.q3, s.max_over_min
                );
            }
            let set_json: Vec<String> = sets.iter().map(SetStats::json).collect();
            rows.push(format!(
                "{{\"workload\":{},\"metric\":{},\"unit\":{},\"bound\":{bound:?},\"delta\":{delta:?},\"spread\":{spread:?},\"exact\":{exact},\"ok\":{row_ok},\"sets\":[{}]}}",
                json::quote(w.name()),
                json::quote(name),
                json::quote(unit),
                set_json.join(",")
            ));
        }
    }

    let mut doc = String::from("{\n");
    let host: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}:{}", json::quote(k), json::quote(v)))
        .collect();
    let _ = writeln!(doc, "  \"host\": {{{}}},", host.join(","));
    let _ = writeln!(
        doc,
        "  \"sets\": {}, \"runs\": {}, \"seed\": {}, \"smoke\": {}, \"ok\": {ok},",
        plan.sets, plan.runs, plan.seed, plan.smoke
    );
    let _ = writeln!(
        doc,
        "  \"results\": [\n    {}\n  ]\n}}",
        rows.join(",\n    ")
    );
    if let Some(dir) = plan.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&plan.out, doc).map_err(|e| format!("writing {}: {e}", plan.out.display()))?;
    println!(
        "# A/A {}: written to {}",
        if ok {
            "agrees within every bound"
        } else {
            "EXCEEDS a bound"
        },
        plan.out.display()
    );
    Ok(ok)
}
