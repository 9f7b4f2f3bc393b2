//! Timing-driven placement via net weighting (paper §III-G).
//!
//! The classic iteration the paper's extension hook enables: place, run
//! static timing analysis, up-weight critical nets, place again. The clock
//! period is frozen after the first analysis so WNS/TNS are comparable
//! across iterations.

use dp_gen::GeneratedDesign;
use dp_netlist::{hpwl, Placement};
use dp_num::Float;
use dp_timing::{analyze, criticality_weights, TimingConfig, TimingReport};

use crate::flow::{DreamPlacer, FlowConfig, FlowError};

/// One iteration's timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Worst negative slack.
    pub wns: f64,
    /// Total negative slack.
    pub tns: f64,
    /// Critical path delay.
    pub max_arrival: f64,
    /// HPWL of the placement analyzed.
    pub hpwl: f64,
}

impl TimingSummary {
    fn from_report(r: &TimingReport, hpwl: f64) -> Self {
        Self {
            wns: r.wns,
            tns: r.tns,
            max_arrival: r.max_arrival,
            hpwl,
        }
    }
}

/// Configuration of the net-weighting loop.
#[derive(Debug, Clone)]
pub struct TimingDrivenConfig<T> {
    /// Flow configuration used for every placement iteration.
    pub flow: FlowConfig<T>,
    /// Timing model.
    pub timing: TimingConfig,
    /// Number of reweight-and-replace rounds after the initial placement.
    pub rounds: usize,
}

/// Net weight of a fully critical net.
const W_MAX: f64 = 6.0;
/// Criticality exponent (sharper focus on the most critical nets).
const EXPONENT: f64 = 2.0;

/// Result of the timing-driven loop.
#[derive(Debug, Clone)]
pub struct TimingDrivenResult<T> {
    /// Final placement.
    pub placement: Placement<T>,
    /// Timing after the plain (weight-1) initial placement.
    pub initial: TimingSummary,
    /// Timing after the final reweighted placement.
    pub final_timing: TimingSummary,
    /// Every iteration's summary, starting with the initial one.
    pub history: Vec<TimingSummary>,
}

/// The timing-driven placer.
pub struct TimingDrivenPlacer<T> {
    config: TimingDrivenConfig<T>,
}

impl<T: Float> TimingDrivenPlacer<T> {
    /// Creates the placer.
    pub fn new(config: TimingDrivenConfig<T>) -> Self {
        Self { config }
    }

    /// Runs the loop: place, analyze, reweight, repeat.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`] from any placement iteration.
    pub fn place(
        &self,
        design: &GeneratedDesign<T>,
    ) -> Result<TimingDrivenResult<T>, FlowError<T>> {
        let cfg = &self.config;

        // Round 0: plain placement + analysis; freeze the clock period.
        let r0 = DreamPlacer::new(cfg.flow.clone()).place(design)?;
        let report0 = analyze(&design.netlist, &r0.placement, &cfg.timing);
        let period = report0.clock_period;
        let timing_cfg = TimingConfig {
            clock_period: Some(period),
            ..cfg.timing
        };
        let mut history = vec![TimingSummary::from_report(&report0, r0.hpwl_final)];
        let mut best_placement = r0.placement;
        let mut report = report0;

        for _ in 0..cfg.rounds {
            let weights: Vec<T> = criticality_weights(&report, W_MAX, EXPONENT);
            let weighted_nl = design.netlist.with_net_weights(weights);
            let weighted_design = GeneratedDesign {
                name: design.name.clone(),
                netlist: weighted_nl,
                fixed_positions: design.fixed_positions.clone(),
            };
            let r = DreamPlacer::new(cfg.flow.clone()).place(&weighted_design)?;
            // Evaluate timing and HPWL on the *original* (weight-1) netlist.
            report = analyze(&design.netlist, &r.placement, &timing_cfg);
            let h = hpwl(&design.netlist, &r.placement).to_f64();
            history.push(TimingSummary::from_report(&report, h));
            best_placement = r.placement;
        }

        Ok(TimingDrivenResult {
            placement: best_placement,
            initial: history[0],
            final_timing: *history.last().unwrap_or(&history[0]),
            history,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{FlowConfig, ToolMode};
    use dp_gen::GeneratorConfig;

    /// Every round places with the caller's flow config. A zero GP budget
    /// and no DP make each round the legalized initial placement, which
    /// does not depend on net weights, so every round reads the same HPWL;
    /// a round that rebuilt its GP config from a tool mode would converge
    /// instead.
    #[test]
    fn every_round_runs_the_callers_flow_config() {
        let d = GeneratorConfig::new("td-cfg", 300, 330)
            .with_seed(21)
            .with_utilization(0.55)
            .generate::<f64>()
            .expect("valid");
        let mut flow = FlowConfig::for_mode(ToolMode::DreamplaceCpu { threads: 1 }, &d.netlist);
        flow.gp.max_seconds = Some(0.0);
        flow.run_dp = false;
        let cfg = TimingDrivenConfig {
            flow,
            timing: dp_timing::TimingConfig::default(),
            rounds: 2,
        };
        let r = TimingDrivenPlacer::new(cfg).place(&d).expect("runs");
        for (k, s) in r.history.iter().enumerate() {
            assert_eq!(
                s.hpwl.to_bits(),
                r.initial.hpwl.to_bits(),
                "round {k} did not run the caller's config"
            );
        }
    }

    /// Whether two rounds of reweighting beat the plain placement's WNS on
    /// one 300-cell design is noisy (about two seeds in three, and which
    /// ones flips with any change to the GP trajectory), so the claim is
    /// checked as stated in DESIGN.md §10: over a fixed set of designs, more
    /// improve than get worse, and none pays more than 15% HPWL for it.
    /// The set is seed 21, the original single input, and its successors.
    /// At the rate measured over seeds 1–200 on two trajectories (120 : 57
    /// and 122 : 56) a majority of eight fails by chance on about one
    /// trajectory in four, and once did (4 : 4). Forty fail about one in
    /// seventy.
    #[test]
    fn net_weighting_improves_wns() {
        let (mut improved, mut worsened) = (0, 0);
        for seed in 21..=60 {
            let d = GeneratorConfig::new("td", 300, 330)
                .with_seed(seed)
                .with_utilization(0.55)
                .generate::<f64>()
                .expect("valid");
            let mut flow = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &d.netlist);
            flow.gp.max_iters = 250;
            flow.gp.target_overflow = 0.15;
            let cfg = TimingDrivenConfig {
                flow,
                timing: dp_timing::TimingConfig::default(),
                rounds: 2,
            };
            let r = TimingDrivenPlacer::new(cfg).place(&d).expect("runs");
            improved += usize::from(r.final_timing.wns > r.initial.wns);
            worsened += usize::from(r.final_timing.wns < r.initial.wns);
            // Wirelength may degrade a little, not explode.
            assert!(
                r.final_timing.hpwl < r.initial.hpwl * 1.15,
                "seed {seed}: HPWL {} -> {}",
                r.initial.hpwl,
                r.final_timing.hpwl
            );
            assert_eq!(r.history.len(), 3);
        }
        assert!(
            improved > worsened,
            "WNS improved on {improved} designs and worsened on {worsened}"
        );
    }
}
