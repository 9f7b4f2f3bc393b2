//! Guarded detailed-placement driver: per-pass quality gates with
//! revert-to-snapshot and pass disabling.
//!
//! Every DP operator in this crate commits only HPWL-improving moves, so a
//! pass that *worsens* HPWL signals a defect (or injected fault). The
//! guarded driver snapshots the placement around each pass, measures HPWL
//! before/after, and on a relative worsening beyond 1e-9 reverts the
//! snapshot and disables that pass for the rest of the run — the other
//! operators keep optimizing. A wall-clock budget
//! ([`DetailedPlacer::max_seconds`]) stops the run between passes.
//!
//! This is the only DP loop: [`DetailedPlacer::run`] is this driver with
//! the guard report dropped. Off the failure path the gate changes no bit
//! of the placement (the HPWL evaluations do not mutate it);
//! `reference.rs` is the oracle its passes must reproduce.

use std::fmt;
use std::time::Instant;

use dp_netlist::{hpwl, Netlist, Placement};
use dp_num::Float;

use crate::{
    global_swap, independent_set_matching, local_reorder, DetailedPlacer, DpStats, HPWL_TOLERANCE,
    ISM_BATCH, MAX_ROUNDS, WINDOW,
};

/// One of the three detailed-placement operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpPass {
    /// Pairwise swaps of equal-size cells toward optimal regions.
    GlobalSwap,
    /// Sliding-window re-sequencing within rows.
    LocalReorder,
    /// Batched same-size slot assignment via the Hungarian solver.
    IndependentSetMatching,
}

impl DpPass {
    /// Stable index for per-pass bookkeeping (also the serialization tag
    /// used by the durable checkpoint format).
    pub fn index(self) -> usize {
        match self {
            DpPass::GlobalSwap => 0,
            DpPass::LocalReorder => 1,
            DpPass::IndependentSetMatching => 2,
        }
    }

    /// Inverse of [`DpPass::index`].
    pub fn from_index(i: usize) -> Option<Self> {
        DpPass::ALL.get(i).copied()
    }

    /// The three passes in driver order.
    pub const ALL: [DpPass; 3] = [
        DpPass::GlobalSwap,
        DpPass::LocalReorder,
        DpPass::IndependentSetMatching,
    ];
}

impl fmt::Display for DpPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpPass::GlobalSwap => write!(f, "global_swap"),
            DpPass::LocalReorder => write!(f, "local_reorder"),
            DpPass::IndependentSetMatching => write!(f, "independent_set_matching"),
        }
    }
}

/// Fault injection for exercising the DP degradation ladder in tests. Off
/// by default; never set in production flows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpFaultInjection {
    /// After the named pass first runs, swap two equal-size movable cells
    /// so the pass appears to have worsened HPWL (legality-preserving by
    /// identical footprint). The guard must catch and revert it.
    pub worsen_pass: Option<DpPass>,
}

/// What the guard did during a [`DetailedPlacer::run_guarded`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpGuardReport {
    /// Passes disabled after worsening HPWL, with the relative worsening
    /// that triggered the gate.
    pub disabled: Vec<(DpPass, f64)>,
    /// Snapshot reverts performed (one per disabled pass).
    pub reverts: usize,
    /// The wall-clock budget stopped the run early.
    pub budget_exhausted: bool,
}

impl DpGuardReport {
    /// True when no guard fired.
    pub fn is_clean(&self) -> bool {
        self.disabled.is_empty() && self.reverts == 0 && !self.budget_exhausted
    }
}

/// Plain-data snapshot of a [`GuardedDpRun`] between passes.
///
/// Captured by [`GuardedDpRun::state`]; [`GuardedDpRun::resume`] (with the
/// placement saved alongside) reconstructs a run that continues
/// bit-identically. The durable checkpoint layer in `dreamplace-core`
/// persists exactly this struct at DP pass boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpRunState {
    /// Current round (0-based).
    pub round: usize,
    /// Next pass slot to execute within the round (0..=3; 3 means the
    /// round-boundary check is pending).
    pub pass_idx: usize,
    /// Moves committed so far.
    pub moves: usize,
    /// Moves committed when the current round started (drives the
    /// no-progress stopping rule).
    pub moves_at_round_start: usize,
    /// Which passes are still enabled, by [`DpPass::index`].
    pub enabled: [bool; 3],
    /// Guard report accumulated so far.
    pub report: DpGuardReport,
    /// Fault injection not yet consumed.
    pub injected_pending: Option<DpPass>,
    /// HPWL when the run began.
    pub initial_hpwl: f64,
    /// Wall-clock seconds consumed so far, across all processes.
    pub consumed_seconds: f64,
}

/// A guarded detailed-placement run advanced one pass per
/// [`GuardedDpRun::step`] call; see the [module docs](crate::guarded).
///
/// [`DetailedPlacer::run_guarded`] is a thin loop over this driver, so
/// stepping externally (for checkpointing between passes) yields the
/// bit-identical pass sequence.
#[derive(Debug)]
pub struct GuardedDpRun {
    round: usize,
    pass_idx: usize,
    moves: usize,
    moves_at_round_start: usize,
    enabled: [bool; 3],
    report: DpGuardReport,
    injected: Option<DpPass>,
    initial_hpwl: f64,
    /// Busy time accumulated across completed `step` calls. Not
    /// wall-clock-since-construction: under the shared-pool scheduler the
    /// run is parked between turns and the budget must not charge a job
    /// for other jobs' time.
    busy: f64,
    consumed_before: f64,
    done: bool,
}

impl GuardedDpRun {
    /// Starts a guarded run on a legal placement.
    pub fn new<T: Float>(placer: &DetailedPlacer, nl: &Netlist<T>, p: &Placement<T>) -> Self {
        Self {
            round: 0,
            pass_idx: 0,
            moves: 0,
            moves_at_round_start: 0,
            enabled: [true; 3],
            report: DpGuardReport::default(),
            injected: placer.fault_injection.worsen_pass,
            initial_hpwl: hpwl(nl, p).to_f64(),
            busy: 0.0,
            consumed_before: 0.0,
            done: false,
        }
    }

    /// Reconstructs a run mid-flight from a captured [`DpRunState`]. The
    /// placement must be the one saved at capture time.
    ///
    /// # Errors
    ///
    /// Returns the reason when `pass_idx` is past the round-boundary slot
    /// (`DpPass::ALL.len()`), which no run can reach.
    pub fn resume(state: DpRunState) -> Result<Self, String> {
        if state.pass_idx > DpPass::ALL.len() {
            return Err(format!(
                "dp pass cursor {} is past the {} passes",
                state.pass_idx,
                DpPass::ALL.len()
            ));
        }
        Ok(Self {
            round: state.round,
            pass_idx: state.pass_idx,
            moves: state.moves,
            moves_at_round_start: state.moves_at_round_start,
            enabled: state.enabled,
            report: state.report,
            injected: state.injected_pending,
            initial_hpwl: state.initial_hpwl,
            busy: 0.0,
            consumed_before: state.consumed_seconds,
            done: false,
        })
    }

    /// Captures the run's complete state (pair it with a copy of the
    /// placement).
    pub fn state(&self) -> DpRunState {
        DpRunState {
            round: self.round,
            pass_idx: self.pass_idx,
            moves: self.moves,
            moves_at_round_start: self.moves_at_round_start,
            enabled: self.enabled,
            report: self.report.clone(),
            injected_pending: self.injected,
            initial_hpwl: self.initial_hpwl,
            consumed_seconds: self.consumed_seconds(),
        }
    }

    /// Busy seconds this run has consumed across all processes: the sum
    /// of completed steps plus any resumed lives, never the time spent
    /// parked between scheduler turns.
    pub fn consumed_seconds(&self) -> f64 {
        self.consumed_before + self.busy
    }

    /// Executes the next enabled pass (one quality-gated operator run).
    /// Returns `true` when the run is finished — by round convergence,
    /// the round cap, or the wall-clock budget. Idempotent once done.
    pub fn step<T: Float>(
        &mut self,
        placer: &DetailedPlacer,
        nl: &Netlist<T>,
        p: &mut Placement<T>,
    ) -> bool {
        if self.done {
            return true;
        }
        // Find the next enabled pass slot, crossing round boundaries: stop
        // when a full round made no progress or the round cap is reached.
        let pass = loop {
            if self.round >= MAX_ROUNDS {
                self.done = true;
                return true;
            }
            if self.pass_idx == DpPass::ALL.len() {
                if self.moves == self.moves_at_round_start {
                    self.done = true;
                    return true;
                }
                self.round += 1;
                self.pass_idx = 0;
                self.moves_at_round_start = self.moves;
                continue;
            }
            let pass = DpPass::ALL[self.pass_idx];
            if !self.enabled[pass.index()] {
                self.pass_idx += 1;
                continue;
            }
            break pass;
        };
        if let Some(budget) = placer.max_seconds {
            if self.consumed_seconds() >= budget {
                self.report.budget_exhausted = true;
                placer.telemetry.point(
                    "degradation",
                    format!("dp: wall-clock budget {budget:.1}s exhausted -> stopped early"),
                );
                self.done = true;
                return true;
            }
        }
        let t_busy = Instant::now();
        let snapshot = p.clone();
        let before = hpwl(nl, p).to_f64();
        let pass_moves = {
            let _k = placer.telemetry.kernel_span(match pass {
                DpPass::GlobalSwap => "dp.global_swap",
                DpPass::LocalReorder => "dp.local_reorder",
                DpPass::IndependentSetMatching => "dp.ism",
            });
            match pass {
                DpPass::GlobalSwap => global_swap(nl, p),
                DpPass::LocalReorder => local_reorder(nl, p, WINDOW),
                DpPass::IndependentSetMatching => independent_set_matching(nl, p, ISM_BATCH),
            }
        };
        if self.injected == Some(pass) {
            self.injected = None;
            inject_worsening_swaps(nl, p, before * (1.0 + 1e-6) + 1e-6);
        }
        let after = hpwl(nl, p).to_f64();
        let limit = before * (1.0 + HPWL_TOLERANCE) + HPWL_TOLERANCE;
        // `after > limit` would miss NaN; the gate must also fire
        // when the pass went non-finite.
        let within = matches!(
            after.partial_cmp(&limit),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        );
        if !within {
            // Worsened (or went non-finite): revert and disable.
            *p = snapshot;
            self.enabled[pass.index()] = false;
            self.report.reverts += 1;
            let worsening = (after - before) / before.max(1.0);
            placer.telemetry.point(
                "degradation",
                format!("dp: {pass} worsened hpwl by {worsening:.3e} -> reverted and disabled"),
            );
            self.report.disabled.push((pass, worsening));
        } else {
            self.moves += pass_moves;
        }
        self.pass_idx += 1;
        self.busy += t_busy.elapsed().as_secs_f64();
        false
    }

    /// Finalizes the run into the `(stats, report)` pair of
    /// [`DetailedPlacer::run_guarded`].
    pub fn finish<T: Float>(self, nl: &Netlist<T>, p: &Placement<T>) -> (DpStats, DpGuardReport) {
        (
            DpStats {
                initial_hpwl: self.initial_hpwl,
                final_hpwl: hpwl(nl, p).to_f64(),
                moves: self.moves,
                runtime: self.consumed_seconds(),
            },
            self.report,
        )
    }
}

impl DetailedPlacer {
    /// Runs detailed placement with per-pass quality gates; see the
    /// [module docs](crate::guarded). The placement must be legal;
    /// all operators (and the guard's reverts) keep it legal.
    pub fn run_guarded<T: Float>(
        &self,
        nl: &Netlist<T>,
        p: &mut Placement<T>,
    ) -> (DpStats, DpGuardReport) {
        let mut run = GuardedDpRun::new(self, nl, p);
        while !run.step(self, nl, p) {}
        run.finish(nl, p)
    }
}

/// Swaps positions of equal-size movable cells, keeping each swap that
/// increases HPWL, until HPWL exceeds `target` (fault injection only).
/// Identical footprints keep the placement legal. No-op if no worsening
/// pairs exist among the scanned cells.
fn inject_worsening_swaps<T: Float>(nl: &Netlist<T>, p: &mut Placement<T>, target: f64) {
    let n = nl.num_movable().min(128);
    let mut current = hpwl(nl, p).to_f64();
    for i in 0..n {
        for j in (i + 1)..n {
            if nl.cell_widths()[i] == nl.cell_widths()[j]
                && nl.cell_heights()[i] == nl.cell_heights()[j]
            {
                p.x.swap(i, j);
                p.y.swap(i, j);
                let trial = hpwl(nl, p).to_f64();
                if trial > current {
                    current = trial;
                    if current > target {
                        return;
                    }
                } else {
                    p.x.swap(i, j);
                    p.y.swap(i, j);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;
    use dp_gp::initial_placement;
    use dp_lg::{check_legal, Legalizer};

    fn legalized_design(seed: u64) -> (dp_netlist::Netlist<f64>, Placement<f64>) {
        let d = GeneratorConfig::new("guard", 250, 270)
            .with_seed(seed)
            .with_utilization(0.55)
            .generate::<f64>()
            .expect("ok");
        let mut p = initial_placement(&d.netlist, &d.fixed_positions, 0.05, 2);
        Legalizer::new()
            .legalize(&d.netlist, &mut p)
            .expect("legalizes");
        (d.netlist, p)
    }

    #[test]
    fn injected_worsening_pass_is_reverted_and_disabled() {
        let (nl, p0) = legalized_design(22);
        let mut placer = DetailedPlacer::new();
        placer.fault_injection = DpFaultInjection {
            worsen_pass: Some(DpPass::GlobalSwap),
        };
        let mut p = p0;
        let (stats, report) = placer.run_guarded(&nl, &mut p);
        assert_eq!(report.reverts, 1);
        assert!(
            report.disabled.iter().any(|(pass, worsening)| {
                *pass == DpPass::GlobalSwap && *worsening > 0.0
            }),
            "{report:?}"
        );
        // The run survives: other passes keep improving, result stays legal.
        assert!(stats.final_hpwl <= stats.initial_hpwl);
        assert!(check_legal(&nl, &p).is_legal());
    }

    /// A run captured after each pass and resumed into a fresh driver must
    /// finish bit-identically to the one-shot run — the contract the
    /// durable checkpoint layer persists at DP pass boundaries.
    #[test]
    fn state_resume_between_passes_is_bit_identical() {
        let (nl, p0) = legalized_design(24);
        let placer = DetailedPlacer::new();
        let mut golden_p = p0.clone();
        let (golden_stats, golden_report) = placer.run_guarded(&nl, &mut golden_p);

        // Interrupt after each of the first few passes.
        for stop_after in 1..=4usize {
            let mut p = p0.clone();
            let mut run = GuardedDpRun::new(&placer, &nl, &p);
            let mut done = false;
            for _ in 0..stop_after {
                if run.step(&placer, &nl, &mut p) {
                    done = true;
                    break;
                }
            }
            let state = run.state();
            drop(run); // simulated process death (placement saved in `p`)
            let mut resumed = GuardedDpRun::resume(state).expect("captured state");
            if !done {
                while !resumed.step(&placer, &nl, &mut p) {}
            }
            let (stats, report) = resumed.finish(&nl, &p);
            assert_eq!(p.x, golden_p.x, "@{stop_after}");
            assert_eq!(p.y, golden_p.y, "@{stop_after}");
            assert_eq!(stats.moves, golden_stats.moves, "@{stop_after}");
            assert_eq!(
                stats.final_hpwl.to_bits(),
                golden_stats.final_hpwl.to_bits(),
                "@{stop_after}"
            );
            assert_eq!(report, golden_report, "@{stop_after}");
        }
    }

    /// Pending fault injection survives a state round-trip: the guard
    /// still fires on the injected pass after resume.
    #[test]
    fn resume_preserves_pending_fault_injection() {
        let (nl, p0) = legalized_design(25);
        let mut placer = DetailedPlacer::new();
        placer.fault_injection = DpFaultInjection {
            worsen_pass: Some(DpPass::LocalReorder),
        };
        let mut p = p0;
        let run = GuardedDpRun::new(&placer, &nl, &p);
        let state = run.state();
        assert_eq!(state.injected_pending, Some(DpPass::LocalReorder));
        let mut resumed = GuardedDpRun::resume(state).expect("captured state");
        while !resumed.step(&placer, &nl, &mut p) {}
        let (_, report) = resumed.finish(&nl, &p);
        assert!(report
            .disabled
            .iter()
            .any(|(pass, _)| *pass == DpPass::LocalReorder));
    }

    /// The persisted consumed-seconds counter feeds the wall-clock budget:
    /// a resumed run whose previous life spent the budget stops before
    /// running another pass.
    #[test]
    fn resume_honors_consumed_budget() {
        let (nl, p0) = legalized_design(26);
        let mut placer = DetailedPlacer::new();
        placer.max_seconds = Some(3600.0);
        let mut p = p0.clone();
        let run = GuardedDpRun::new(&placer, &nl, &p);
        let mut state = run.state();
        state.consumed_seconds = 3600.0; // previous life spent it all
        let mut resumed = GuardedDpRun::resume(state).expect("captured state");
        assert!(resumed.step(&placer, &nl, &mut p), "must stop immediately");
        let (stats, report) = resumed.finish(&nl, &p);
        assert!(report.budget_exhausted);
        assert_eq!(stats.moves, 0);
        assert_eq!(p.x, p0.x);
    }

    /// A pass cursor past the round-boundary slot is refused at resume
    /// instead of indexing past the three passes on the first step.
    #[test]
    fn resume_refuses_a_pass_cursor_past_the_passes() {
        let (nl, p0) = legalized_design(27);
        let placer = DetailedPlacer::new();
        let mut state = GuardedDpRun::new(&placer, &nl, &p0).state();
        state.pass_idx = DpPass::ALL.len();
        assert!(
            GuardedDpRun::resume(state.clone()).is_ok(),
            "the boundary slot is legal"
        );
        for idx in [DpPass::ALL.len() + 1, 7, usize::MAX] {
            state.pass_idx = idx;
            let reason = GuardedDpRun::resume(state.clone()).expect_err("hostile cursor");
            assert!(reason.contains(&format!("cursor {idx}")), "{reason}");
        }
    }

    #[test]
    fn zero_budget_stops_before_any_pass() {
        let (nl, p0) = legalized_design(23);
        let mut placer = DetailedPlacer::new();
        placer.max_seconds = Some(0.0);
        let mut p = p0.clone();
        let (stats, report) = placer.run_guarded(&nl, &mut p);
        assert!(report.budget_exhausted);
        assert_eq!(stats.moves, 0);
        assert_eq!(p.x, p0.x);
    }
}
