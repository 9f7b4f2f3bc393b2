//! Flow workloads: the end-to-end run (best-of-N `DreamPlacer::place`)
//! and the traced pass (one stepped flow plus operator replay).
//!
//! Everything here measures from outside: it times calls into public
//! functions of the layer crates and reads the statistics they return.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_density::electro::FieldSolution;
use dp_density::{BinGrid, DensityMapBuilder, DensityOp, ElectroField};
use dp_gen::GeneratedDesign;
use dp_gp::{GammaScheduler, WirelengthModel};
use dp_netlist::Placement;
use dp_num::{Float, WorkerPool};
use dp_wirelength::{HpwlOp, WaStrategy, WaWirelength};
use dreamplace_core::{
    CheckpointData, CheckpointStage, DreamPlacer, FlowConfig, FlowMachine, FlowResult, FlowState,
};

use crate::spans::Recorder;
use crate::spec::MetricSet;
use crate::stats;
use crate::workloads::{flow_config, generator, Scale, Workload};

/// What one run of a workload produced, for the report.
pub struct Outcome {
    pub metrics: MetricSet,
    /// `bench.*` diagnostics of an end-to-end run (never gated).
    pub diagnostics: Vec<(&'static str, &'static str, f64)>,
    /// Placements attempted (timed repeats or served jobs).
    pub attempted: usize,
    /// Placements that failed or failed an output check.
    pub failed: usize,
    /// One line per failed output check.
    pub check_failures: Vec<String>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(metrics: MetricSet) -> Self {
        Self {
            metrics,
            diagnostics: Vec::new(),
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a failed output check that is not tied to one operation.
    pub fn fail(&mut self, why: String) {
        self.check_failures.push(why);
    }
}

/// Peak resident set of `pid` (`"self"` for this process) in MiB, from
/// `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Seconds `f` takes, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Best (minimum) milliseconds of `calls` calls of `f`.
fn best_ms(calls: usize, mut f: impl FnMut()) -> f64 {
    (0..calls.max(1))
        .map(|_| timed(&mut f).0 * 1e3)
        .fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Set-up of a flow workload: generate the design, write it as Bookshelf
/// files, read it back. Best of the scale's set-up repeats, with each part
/// also reported on its own.
pub struct Setup {
    pub design: GeneratedDesign<f64>,
    pub total_s: f64,
    pub generate_ms: f64,
    pub write_ms: f64,
    pub read_ms: f64,
}

pub fn measure_setup(
    w: Workload,
    seed: u64,
    scale: Scale,
    scratch: &Path,
) -> Result<Setup, String> {
    let gen = generator(w, seed, scale);
    let dir = scratch.join(format!("setup-{}-{}", w.name(), std::process::id()));
    let mut best = [f64::INFINITY; 4];
    let mut design = None;
    for _ in 0..scale.setup_repeats() {
        let (t_gen, d) = timed(|| gen.generate::<f64>());
        let d = d.map_err(|e| format!("generating {}: {e}", gen.name))?;
        let (t_write, r) =
            timed(|| dp_bookshelf::write_design(&dir, &d.name, &d.netlist, &d.fixed_positions));
        r.map_err(|e| format!("writing {}: {e}", dir.display()))?;
        let aux = dir.join(format!("{}.aux", d.name));
        let (t_read, r) = timed(|| dp_bookshelf::read_design::<f64>(&aux));
        let back = r.map_err(|e| format!("reading {}: {e}", aux.display()))?;
        if back.netlist.num_pins() != d.netlist.num_pins() {
            return Err(format!(
                "bookshelf round trip changed the pin count: {} -> {}",
                d.netlist.num_pins(),
                back.netlist.num_pins()
            ));
        }
        for (b, t) in best
            .iter_mut()
            .zip([t_gen + t_write + t_read, t_gen, t_write, t_read])
        {
            *b = b.min(t);
        }
        design = Some(d);
    }
    // Best effort: a leftover directory sits under the ignored build tree.
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Setup {
        design: design.ok_or("no set-up repeat ran")?,
        total_s: best[0],
        generate_ms: best[1] * 1e3,
        write_ms: best[2] * 1e3,
        read_ms: best[3] * 1e3,
    })
}

// ---------------------------------------------------------------------------
// End-to-end
// ---------------------------------------------------------------------------

/// Checks one finished placement; returns what is wrong with it, if
/// anything. `first_hpwl` is the first repeat's final HPWL, which every
/// later repeat must reproduce bit for bit.
fn check_result<T: Float>(
    w: Workload,
    scale: Scale,
    design: &GeneratedDesign<T>,
    r: &FlowResult<T>,
    first_hpwl: f64,
) -> Result<(), String> {
    if r.hpwl_final.to_bits() != first_hpwl.to_bits() {
        return Err(format!(
            "final HPWL {:e} differs from the first repeat's {first_hpwl:e}",
            r.hpwl_final
        ));
    }
    if !r.hpwl_final.is_finite() || r.hpwl_final <= 0.0 {
        return Err(format!(
            "final HPWL {} is not a positive number",
            r.hpwl_final
        ));
    }
    let legal = dp_lg::check_legal(&design.netlist, &r.placement);
    if !legal.is_legal() {
        return Err(format!("final placement is not legal: {legal:?}"));
    }
    if w == Workload::FlowConverged && !scale.smoke {
        if r.gp.final_overflow > 0.07 {
            return Err(format!(
                "overflow {} above the 0.07 target",
                r.gp.final_overflow
            ));
        }
        if !r.degradations.is_clean() || r.gp_fallback.is_some() {
            return Err(format!(
                "flow degraded: {:?} {:?}",
                r.degradations.events, r.gp_fallback
            ));
        }
    }
    Ok(())
}

/// Untimed warm-up plus timed repeats of `place` on one design, each with
/// a fresh `DreamPlacer`. Repeats continue until both the scale's repeat
/// count and `seconds` of measuring are reached.
struct Repeats {
    warmup_s: f64,
    walls: Vec<f64>,
    last: FlowResult<f64>,
    failures: Vec<String>,
}

fn repeat_place(
    w: Workload,
    seed: u64,
    scale: Scale,
    design: &GeneratedDesign<f64>,
    repeats: usize,
    seconds: f64,
) -> Result<Repeats, String> {
    let place = || {
        let cfg = flow_config(w, design, 1, scale, seed);
        timed(|| DreamPlacer::new(cfg).place(design))
    };
    let (warmup_s, warm) = place();
    let mut last = warm.map_err(|e| format!("warm-up placement failed: {e}"))?;
    let first_hpwl = last.hpwl_final;
    let mut failures = Vec::new();
    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.len() < repeats || started.elapsed().as_secs_f64() < seconds {
        let (wall, r) = place();
        walls.push(wall);
        match r {
            Err(e) => failures.push(format!("repeat {}: placement failed: {e}", walls.len())),
            Ok(r) => {
                if let Err(why) = check_result(w, scale, design, &r, first_hpwl) {
                    failures.push(format!("repeat {}: {why}", walls.len()));
                }
                last = r;
            }
        }
    }
    Ok(Repeats {
        warmup_s,
        walls,
        last,
        failures,
    })
}

/// The `bench.*` diagnostics of a set of repeats.
pub fn bench_diagnostics(warmup_s: f64, walls: &[f64]) -> [(&'static str, &'static str, f64); 3] {
    let best = stats::min(walls);
    let median = stats::median(walls);
    [
        ("bench.wall_median_s", "s", median),
        ("bench.noise_pct", "%", (median - best) / best * 100.0),
        ("bench.first_run_penalty_s", "s", warmup_s - best),
    ]
}

/// The end-to-end run of a flow workload.
pub fn run(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    scratch: &Path,
) -> Result<Outcome, String> {
    let setup = measure_setup(w, seed, scale, scratch)?;
    let reps = repeat_place(w, seed, scale, &setup.design, scale.flow_repeats(), seconds)?;
    let mut out = Outcome::new(MetricSet::end_to_end());
    let wall = stats::min(&reps.walls);
    out.metrics.set("setup_s", setup.total_s);
    out.metrics.set("wall_s", wall);
    // A flow run is one job, so the latency a caller waits is the wall time.
    out.metrics.set("interactive_p50_s", wall);
    out.metrics.set("hpwl", reps.last.hpwl_final);
    out.metrics.set("gp_iters", reps.last.gp.iterations as f64);
    out.metrics.set(
        "peak_rss_mb",
        peak_rss_mb("self").ok_or("cannot read VmHWM of this process")?,
    );
    out.diagnostics = bench_diagnostics(reps.warmup_s, &reps.walls).to_vec();
    out.attempted = reps.walls.len();
    out.failed = reps.failures.len();
    out.check_failures = reps.failures;
    out.notes.push(format!(
        "HPWL after GP {:e}, after LG {:e}, final {:e}; overflow {:.4}",
        reps.last.hpwl_gp, reps.last.hpwl_legal, reps.last.hpwl_final, reps.last.gp.final_overflow
    ));
    out.notes.push(format!(
        "{} cells, {} nets, {} pins; {} timed repeats after 1 warm-up; walls {:?}",
        setup.design.netlist.num_cells(),
        setup.design.netlist.num_nets(),
        setup.design.netlist.num_pins(),
        reps.walls.len(),
        reps.walls
            .iter()
            .map(|w| (w * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

/// Span name of the step that runs in `state`.
fn step_span(state: FlowState) -> &'static str {
    match state {
        FlowState::Init => "core.init",
        // Also builds the GP engine (operators, pool, lambda init).
        FlowState::Sanitize => "core.sanitize",
        FlowState::Gp { .. } => "gp.iter",
        FlowState::Lg => "lg",
        FlowState::Dp { .. } => "dplace.pass",
        FlowState::Finish | FlowState::Done | FlowState::Failed => "core.finish",
    }
}

/// What the stepped flow hands to the replay.
struct Stepped {
    root: usize,
    result: FlowResult<f64>,
    /// Checkpoint captured a few iterations into GP.
    mid_gp: Option<CheckpointData<f64>>,
    /// The placement GP handed to legalization (the `spread` snapshot).
    gp_placement: Option<Placement<f64>>,
}

/// Drives one flow step by step, with a span around every step and around
/// the two checkpoint captures.
fn stepped_flow(
    rec: &mut Recorder,
    cfg: FlowConfig<f64>,
    design: &GeneratedDesign<f64>,
) -> Result<Stepped, String> {
    rec.next_run();
    let capture_at = (cfg.gp.max_iters / 2).min(50);
    let mut mid_gp = None;
    let mut gp_placement = None;
    let (root, result) = rec.scope("flow", |rec| {
        let mut machine = FlowMachine::new(cfg, design);
        loop {
            let state = machine.state();
            match state {
                FlowState::Gp { iteration } if iteration == capture_at && mid_gp.is_none() => {
                    mid_gp = rec.scope("core.ckpt_capture", |_| machine.capture()).1;
                }
                FlowState::Lg if gp_placement.is_none() => {
                    let data = rec.scope("core.ckpt_capture", |_| machine.capture()).1;
                    if let Some(CheckpointStage::Lg {
                        gp_placement: p, ..
                    }) = data.map(|d| d.stage)
                    {
                        gp_placement = Some(p);
                    }
                }
                _ => {}
            }
            let next = rec.scope(step_span(state), |_| machine.step()).1;
            match next {
                Err(e) => return Err(format!("stepped flow failed in {state}: {e}")),
                Ok(FlowState::Done) => break,
                Ok(_) => {}
            }
        }
        machine
            .finish()
            .ok_or_else(|| "flow machine finished without a result".to_string())
    });
    Ok(Stepped {
        root,
        result: result?,
        mid_gp,
        gp_placement,
    })
}

/// Replays each operator's public entry point on the `clustered` and
/// `spread` snapshots with a 1-thread context, best of `calls` calls.
fn replay_operators(
    m: &mut MetricSet,
    rec: &mut Recorder,
    cfg: &FlowConfig<f64>,
    design: &GeneratedDesign<f64>,
    spread: &Placement<f64>,
    final_overflow: f64,
    calls: usize,
) -> Result<(), String> {
    rec.next_run();
    let nl = &design.netlist;
    let gp = &cfg.gp;
    let clustered = dp_gp::initial_placement(nl, &design.fixed_positions, gp.noise_frac, gp.seed);
    let grid = BinGrid::new(nl.region(), gp.bins.0, gp.bins.1).map_err(|e| e.to_string())?;
    let bin_size = (grid.bin_width() + grid.bin_height()) * 0.5;
    let gammas = GammaScheduler::new(bin_size, gp.gamma_base_bins);
    let mut ctx = ExecCtx::<f64>::new(1);
    let pool = Arc::clone(ctx.pool());
    let deterministic = gp.deterministic.unwrap_or(gp.threads > 1);
    let mut grad = Gradient::zeros(spread.len());

    // Wirelength.
    let strategy = match gp.wirelength {
        WirelengthModel::Wa(s) => s,
        WirelengthModel::Lse => WaStrategy::Merged,
    };
    for (label, pos, overflow) in [
        ("clustered", &clustered, 1.0),
        ("spread", spread, final_overflow),
    ] {
        let mut wa = WaWirelength::new(strategy, gammas.gamma(overflow));
        let name = format!("wirelength.wa_ms.{label}");
        let (_, ms) = rec.scope(&name, |_| {
            best_ms(calls, || {
                grad.reset();
                black_box(wa.forward_backward(nl, pos, &mut grad, &mut ctx));
            })
        });
        m.set(&name, ms);
        if label == "spread" {
            m.set("wirelength.ns_per_pin", ms * 1e6 / nl.num_pins() as f64);
        }
    }
    let mut hpwl = HpwlOp::new();
    let (_, ms) = rec.scope("wirelength.hpwl_ms", |_| {
        best_ms(calls, || {
            black_box(Operator::<f64>::forward(&mut hpwl, nl, spread, &mut ctx));
        })
    });
    m.set("wirelength.hpwl_ms", ms);

    // Density scatter alone, then the operator's three entry points.
    let mut builder =
        DensityMapBuilder::new(grid.clone(), gp.density_strategy).with_deterministic(deterministic);
    let mut map = Vec::new();
    for (label, pos) in [("clustered", &clustered), ("spread", spread)] {
        let name = format!("density.scatter_ms.{label}");
        let (_, ms) = rec.scope(&name, |_| {
            best_ms(calls, || {
                builder.build_movable_into(nl, pos, &pool, &mut map)
            })
        });
        m.set(&name, ms);
    }
    let mut op = DensityOp::with_backend(
        grid.clone(),
        gp.density_strategy,
        gp.target_density,
        gp.dct_backend,
    )
    .map_err(|e| e.to_string())?
    .with_deterministic(deterministic);
    op.bake_fixed(nl, spread);
    let (mut fwd, mut bwd) = (f64::INFINITY, f64::INFINITY);
    rec.scope("density.fwd_bwd", |_| {
        for _ in 0..calls {
            fwd = fwd.min(timed(|| black_box(op.forward(nl, spread, &mut ctx))).0 * 1e3);
            grad.reset();
            bwd = bwd.min(timed(|| op.backward(nl, spread, &mut grad, &mut ctx)).0 * 1e3);
        }
    });
    m.set("density.fwd_ms", fwd);
    m.set("density.bwd_ms", bwd);
    m.set(
        "density.ns_per_cell",
        (fwd + bwd) * 1e6 / nl.num_movable() as f64,
    );
    let (_, ms) = rec.scope("density.overflow_ms", |_| {
        best_ms(calls, || {
            black_box(op.overflow(nl, spread, &mut ctx));
        })
    });
    m.set("density.overflow_ms", ms);

    // The Poisson solve and its two plain transforms at the workload's grid.
    // `map` holds the spread snapshot's movable density in area units.
    if grid.supports_spectral_solve() {
        let inv_bin = 1.0 / grid.bin_area();
        let rho: Vec<f64> = map.iter().map(|a| a * inv_bin).collect();
        let mut field = ElectroField::new(&grid, gp.dct_backend).map_err(|e| e.to_string())?;
        let mut sol = FieldSolution::empty();
        let (_, ms) = rec.scope("dct.solve_ms", |_| {
            best_ms(calls, || field.solve_into(&rho, &mut sol))
        });
        m.set("dct.solve_ms", ms);
        m.set("dct.ns_per_bin", ms * 1e6 / grid.num_bins() as f64);
        let plan =
            dp_dct::Dct2dPlan::<f64>::new(grid.mx(), grid.my()).map_err(|e| e.to_string())?;
        let mut work = dp_dct::dct2d::Dct2dWork::new();
        let (mut coef, mut back) = (Vec::new(), Vec::new());
        let (_, ms) = rec.scope("dct.dct2_ms", |_| {
            best_ms(calls, || plan.dct2_with(&rho, &mut work, &mut coef))
        });
        m.set("dct.dct2_ms", ms);
        let (_, ms) = rec.scope("dct.idct2_ms", |_| {
            best_ms(calls, || plan.idct2_with(&coef, &mut work, &mut back))
        });
        m.set("dct.idct2_ms", ms);
    }

    // Legalization and detailed placement from the spread snapshot.
    let few = calls.clamp(1, 3);
    let mut legal = spread.clone();
    let mut avg_displacement = 0.0;
    let (_, ms) = rec.scope("lg.legalize_ms", |_| {
        let mut best = f64::INFINITY;
        for _ in 0..few {
            legal = spread.clone();
            let (s, r) = timed(|| cfg.lg.legalize(nl, &mut legal));
            avg_displacement = r
                .map_err(|e| format!("replayed legalization failed: {e}"))?
                .avg_displacement;
            best = best.min(s * 1e3);
        }
        Ok::<f64, String>(best)
    });
    m.set("lg.legalize_ms", ms?);
    m.set("lg.avg_displacement", avg_displacement);
    let mut gain = 0.0;
    let (_, ms) = rec.scope("dplace.run_ms", |_| {
        let mut best = f64::INFINITY;
        for _ in 0..few {
            let mut p = legal.clone();
            let (s, dp) = timed(|| cfg.dp.run(nl, &mut p));
            gain = (dp.initial_hpwl - dp.final_hpwl) / dp.initial_hpwl * 100.0;
            best = best.min(s * 1e3);
        }
        best
    });
    m.set("dplace.run_ms", ms);
    m.set("dplace.hpwl_gain_pct", gain);

    // An empty launch on a 2-thread pool: the floor under every kernel.
    let pool2 = WorkerPool::new(2);
    let launch = best_ms(calls * 50, || {
        pool2.run(2, 1, |r| {
            black_box(r);
        })
    });
    m.set("num.pool_launch_us", launch * 1e3);
    Ok(())
}

/// Checkpoint capture, serialize and deserialize costs.
fn checkpoint_costs(
    m: &mut MetricSet,
    rec: &Recorder,
    stepped: &Stepped,
    calls: usize,
) -> Result<(), String> {
    let captures = rec.child_durations(stepped.root, "core.ckpt_capture");
    // The first capture is the mid-GP one (the engine clone the daemon
    // pays every 8th turn); the second is the cheap GP->LG hand-off.
    if let Some(first) = captures.first() {
        m.set("core.ckpt_capture_ms", first * 1e3);
    }
    let Some(data) = &stepped.mid_gp else {
        return Ok(());
    };
    let few = calls.clamp(1, 5);
    let mut text = String::new();
    m.set(
        "core.ckpt_serialize_ms",
        best_ms(few, || text = dreamplace_core::checkpoint::serialize(data)),
    );
    m.set("core.ckpt_bytes", text.len() as f64);
    let mut err = None;
    m.set(
        "core.ckpt_deserialize_ms",
        best_ms(few, || {
            if let Err(e) = dreamplace_core::checkpoint::deserialize::<f64>(&text) {
                err = Some(e.to_string());
            }
        }),
    );
    err.map_or(Ok(()), |e| {
        Err(format!("checkpoint does not deserialize: {e}"))
    })
}

/// One placement of the workload in another arm (thread count, precision,
/// telemetry), returning its wall seconds.
fn arm_wall<T: Float>(
    w: Workload,
    seed: u64,
    scale: Scale,
    threads: usize,
    telemetry: dp_telemetry::Telemetry,
) -> Result<f64, String> {
    let design = generator(w, seed, scale)
        .generate::<T>()
        .map_err(|e| format!("generating the {} design: {e}", w.name()))?;
    let mut cfg = flow_config(w, &design, threads, scale, seed);
    cfg.telemetry = telemetry;
    let (wall, r) = timed(|| DreamPlacer::new(cfg).place(&design));
    r.map_err(|e| {
        format!(
            "{}-thread {} arm failed: {e}",
            threads,
            std::any::type_name::<T>()
        )
    })?;
    Ok(wall)
}

/// The traced pass over the flow layers of a workload. Fills every
/// per-layer metric except the daemon's (`serve.*`,
/// `core.sched_overhead_pct`) into `out.metrics`.
pub fn trace_layers(
    w: Workload,
    seed: u64,
    scale: Scale,
    scratch: &Path,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let m = &mut out.metrics;
    let setup = measure_setup(w, seed, scale, scratch)?;
    let design = &setup.design;
    m.set("gen.generate_ms", setup.generate_ms);
    m.set("bookshelf.write_ms", setup.write_ms);
    m.set("bookshelf.read_ms", setup.read_ms);
    m.set("netlist.pins", design.netlist.num_pins() as f64);

    // Untraced baseline: a warm-up and a few timed repeats.
    let repeats = if scale.smoke { 1 } else { 3 };
    let reps = repeat_place(w, seed, scale, design, repeats, 0.0)?;
    let best = stats::min(&reps.walls);
    for (name, _, v) in bench_diagnostics(reps.warmup_s, &reps.walls) {
        m.set(name, v);
    }
    out.attempted += reps.walls.len();
    out.failed += reps.failures.len();
    out.check_failures.extend(reps.failures);

    // The stepped flow and its stage spans.
    let cfg = flow_config(w, design, 1, scale, seed);
    let stepped = stepped_flow(rec, cfg.clone(), design)?;
    out.attempted += 1;
    if let Err(why) = check_result(w, scale, design, &stepped.result, reps.last.hpwl_final) {
        out.failed += 1;
        out.check_failures.push(format!("stepped flow: {why}"));
    }
    let root = stepped.root;
    let stage = |name: &str| rec.child_total(root, name).0;
    m.set("core.init_s", stage("core.init") + stage("core.sanitize"));
    m.set("gp.total_s", stage("gp.iter"));
    m.set(
        "gp.iter_ms",
        stats::median(&rec.child_durations(root, "gp.iter")) * 1e3,
    );
    m.set("lg.total_s", stage("lg"));
    m.set("dplace.total_s", stage("dplace.pass"));
    m.set("core.finish_s", stage("core.finish"));
    let own = crate::spans::self_times_ns(rec.spans());
    let flow_s = rec.seconds(root);
    let coverage = 1.0 - own[root] as f64 * 1e-9 / flow_s;
    out.notes.push(format!(
        "stepped flow {flow_s:.4} s, stage spans cover {:.2}% of it ({})",
        coverage * 100.0,
        if coverage >= 0.98 { "ok" } else { "BELOW 98%" }
    ));

    // The GP pass from inside.
    let gp = &stepped.result.gp;
    let gp_total = gp.timing.total.as_secs_f64();
    m.set("gp.wl_share", gp.timing.wirelength.as_secs_f64() / gp_total);
    m.set(
        "gp.density_share",
        gp.timing.density.as_secs_f64() / gp_total,
    );
    m.set("gp.solver_share", gp.timing.solver.as_secs_f64() / gp_total);
    m.set("optim.solver_s", gp.timing.solver.as_secs_f64());
    m.set("autograd.op_calls", gp.exec.total_op_calls() as f64);
    m.set("autograd.workspace_bytes", gp.exec.scratch_bytes() as f64);
    let (uses, reuses) = gp
        .exec
        .workspaces
        .iter()
        .fold((0, 0), |(u, r), (_, ws)| (u + ws.uses, r + ws.reuses));
    m.set(
        "autograd.workspace_reuse_ratio",
        if uses == 0 {
            0.0
        } else {
            reuses as f64 / uses as f64
        },
    );
    m.set("num.pool_runs", gp.exec.pool_runs as f64);

    // The GP pass from outside: replayed operator time x call counts.
    let spread = stepped
        .gp_placement
        .as_ref()
        .ok_or("the stepped flow captured no GP placement")?;
    replay_operators(
        m,
        rec,
        &cfg,
        design,
        spread,
        gp.final_overflow,
        scale.replay_calls(),
    )?;
    let op_calls = |name: &str| {
        gp.exec
            .ops
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, c)| c.calls) as f64
    };
    // The run moves from the clustered to the spread snapshot, so a call
    // costs about the mean of the two.
    let wa_ms = 0.5
        * (m.get("wirelength.wa_ms.clustered").unwrap_or(0.0)
            + m.get("wirelength.wa_ms.spread").unwrap_or(0.0));
    let wa_calls = op_calls("wa.forward_backward") + op_calls("lse.forward_backward");
    m.set("gp.wl_share_est", wa_ms * 1e-3 * wa_calls / gp_total);
    let solve_ms = m.get("dct.solve_ms").unwrap_or(0.0);
    m.set(
        "gp.dct_share_est",
        solve_ms * 1e-3 * op_calls("density.forward") / gp_total,
    );

    checkpoint_costs(m, rec, &stepped, scale.replay_calls())?;

    // Other arms of the same workload, one placement each.
    let off = dp_telemetry::Telemetry::disabled;
    m.set(
        "num.speedup_2t",
        best / arm_wall::<f64>(w, seed, scale, 2, off())?,
    );
    // Single precision is a diagnostic arm on another configuration: a
    // design it cannot legalize is reported, not counted against the
    // workload, and the metric then reads 0.
    match arm_wall::<f32>(w, seed, scale, 1, off()) {
        Ok(wall) => m.set("core.f32_wall_s", wall),
        Err(why) => out
            .notes
            .push(format!("core.f32_wall_s not measured: {why}")),
    }
    let telemetry = dp_telemetry::Telemetry::enabled();
    let traced = arm_wall::<f64>(w, seed, scale, 1, telemetry.clone())?;
    m.set(
        "telemetry.trace_overhead_pct",
        (traced - best) / best * 100.0,
    );
    m.set("telemetry.trace_events", telemetry.snapshot().len() as f64);
    Ok(())
}
