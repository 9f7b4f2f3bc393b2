//! Routability-driven placement via cell inflation (paper §III-F).
//!
//! The loop mirrors RePlAce's scheme: run global placement until the
//! density overflow drops to 20%, invoke the global router for an overflow
//! map, inflate cells in congested tiles by Eq. (19)
//! (`ratio = min((max_l demand/capacity)^2.5, 2.5)`), cap the total area
//! increment at 10% of the whitespace, restart the solver, and repeat until
//! the added area falls below 1% of the total cell area or 5 inflation
//! rounds have run. From the first inflation on, the density weight is
//! updated every 5 iterations instead of every iteration.

use std::time::Instant;

use dp_dplace::DetailedPlacer;
use dp_gen::GeneratedDesign;
use dp_gp::{GlobalPlacer, GpConfig, InitKind};
use dp_lg::{Legalizer, LgStats};
use dp_netlist::{hpwl, Netlist, Placement};
use dp_num::Float;
use dp_route::{shpwl, GlobalRouter, RouterConfig};

use crate::flow::FlowError;

/// Inflation exponent of Eq. (19).
const INFLATION_EXPONENT: f64 = 2.5;
/// Inflation ratio cap of Eq. (19).
const INFLATION_MAX: f64 = 2.5;
/// Overflow at which the router is first invoked.
const ROUTE_OVERFLOW: f64 = 0.20;
/// Stop once one round adds less than this fraction of total cell area.
const MIN_AREA_INCREMENT: f64 = 0.01;
/// Cap on the area one round adds, as a fraction of the whitespace.
const WHITESPACE_CAP: f64 = 0.10;

/// Configuration of the routability flow.
#[derive(Debug, Clone)]
pub struct RoutabilityConfig<T> {
    /// Base global placement configuration.
    pub gp: GpConfig<T>,
    /// Router configuration (tiles and capacities).
    pub router: RouterConfig,
    /// Maximum inflation rounds (paper: 5).
    pub max_rounds: usize,
    /// Run detailed placement at the end.
    pub run_dp: bool,
}

impl<T: Float> RoutabilityConfig<T> {
    /// Defaults per the paper, derived from the design.
    pub fn auto(netlist: &Netlist<T>, router: RouterConfig) -> Self {
        Self {
            gp: GpConfig::auto(netlist),
            router,
            max_rounds: 5,
            run_dp: true,
        }
    }
}

/// Result of the routability-driven flow, with the Table V columns.
#[derive(Debug, Clone)]
pub struct RoutabilityResult<T> {
    /// Final legal placement.
    pub placement: Placement<T>,
    /// Final HPWL.
    pub hpwl: f64,
    /// Final RC (routing congestion metric, >= 100).
    pub rc: f64,
    /// Scaled HPWL (paper Eq. (20)).
    pub shpwl: f64,
    /// Number of inflation rounds executed.
    pub inflation_rounds: usize,
    /// Total inflated area as a fraction of the original cell area.
    pub inflation_area_frac: f64,
    /// Seconds in nonlinear optimization (the Table V "NL" column).
    pub nl_time: f64,
    /// Seconds in global routing (the "GR" column).
    pub gr_time: f64,
    /// Seconds in legalization.
    pub lg_time: f64,
    /// Seconds in detailed placement.
    pub dp_time: f64,
    /// Legalization statistics.
    pub lg: LgStats,
}

/// The routability-driven placer.
pub struct RoutabilityPlacer<T> {
    config: RoutabilityConfig<T>,
}

impl<T: Float> RoutabilityPlacer<T> {
    /// Creates the placer.
    pub fn new(config: RoutabilityConfig<T>) -> Self {
        Self { config }
    }

    /// Runs the routability flow on a design.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn place(&self, design: &GeneratedDesign<T>) -> Result<RoutabilityResult<T>, FlowError<T>> {
        let cfg = &self.config;
        let nl_real = &design.netlist;
        let router = GlobalRouter::new(cfg.router);
        let total_area = nl_real.total_movable_area().to_f64();
        let whitespace = (nl_real.region().area() - nl_real.total_movable_area()).to_f64();

        let mut widths: Vec<T> = nl_real.cell_widths().to_vec();
        let heights: Vec<T> = nl_real.cell_heights().to_vec();
        let mut inflated_total = 0.0f64;
        let mut nl_time = 0.0f64;
        let mut gr_time = 0.0f64;

        // Phase 1: place to the routing checkpoint, inflate, restart.
        let mut gp_cfg = cfg.gp.clone();
        gp_cfg.target_overflow = T::from_f64(ROUTE_OVERFLOW);
        let mut pos = dp_gp::initial_placement(
            nl_real,
            &design.fixed_positions,
            gp_cfg.noise_frac,
            gp_cfg.seed,
        );
        let mut rounds = 0usize;
        for round in 0..cfg.max_rounds {
            let inflated_nl = nl_real.with_cell_sizes(widths.clone(), heights.clone());
            let t = Instant::now();
            let placer = GlobalPlacer::new(gp_cfg.clone());
            let result = placer.place_from(&inflated_nl, pos, None)?;
            nl_time += t.elapsed().as_secs_f64();
            pos = result.placement;

            let t = Instant::now();
            let routed = router.route(nl_real, &pos);
            gr_time += t.elapsed().as_secs_f64();
            rounds = round + 1;

            let added = self.inflate(nl_real, &pos, &routed, &mut widths, whitespace);
            inflated_total += added;
            // From the first inflation on, slow the density weight updates
            // (paper: every 5 iterations).
            gp_cfg.lambda_update_interval = 5;
            gp_cfg.init = InitKind::RandomCenter; // restart from current pos via place_from
            if added < MIN_AREA_INCREMENT * total_area {
                break;
            }
        }

        // Phase 2: finish placement to the final overflow target.
        let mut final_cfg = gp_cfg.clone();
        final_cfg.target_overflow = cfg.gp.target_overflow;
        let inflated_nl = nl_real.with_cell_sizes(widths.clone(), heights.clone());
        let t = Instant::now();
        let result = GlobalPlacer::new(final_cfg).place_from(&inflated_nl, pos, None)?;
        nl_time += t.elapsed().as_secs_f64();
        let mut placement = result.placement;

        // Phase 3: legalize and refine with the *real* cell sizes.
        let t = Instant::now();
        let lg_stats = Legalizer::new().legalize(nl_real, &mut placement)?;
        let lg_time = t.elapsed().as_secs_f64();
        let t = Instant::now();
        if cfg.run_dp {
            DetailedPlacer::new().run(nl_real, &mut placement);
        }
        let dp_time = t.elapsed().as_secs_f64();

        // Final routing for the reported metrics.
        let t = Instant::now();
        let routed = router.route(nl_real, &placement);
        gr_time += t.elapsed().as_secs_f64();
        let rc = routed.rc();
        let h = hpwl(nl_real, &placement).to_f64();

        Ok(RoutabilityResult {
            placement,
            hpwl: h,
            rc,
            shpwl: shpwl(h, rc),
            inflation_rounds: rounds,
            inflation_area_frac: inflated_total / total_area,
            nl_time,
            gr_time,
            lg_time,
            dp_time,
            lg: lg_stats,
        })
    }

    /// Applies Eq. (19) inflation; returns the area actually added (after
    /// the whitespace cap).
    fn inflate(
        &self,
        nl: &Netlist<T>,
        pos: &Placement<T>,
        routed: &dp_route::RoutingResult,
        widths: &mut [T],
        whitespace: f64,
    ) -> f64 {
        let ratios = routed.inflation_ratio_map(INFLATION_EXPONENT, INFLATION_MAX);
        let grid = routed.grid();
        let n = nl.num_movable();

        // Desired per-cell inflation: the ratio of the tile under the cell
        // center (cells are row-height; width scales with area).
        let mut desired: Vec<f64> = Vec::with_capacity(n);
        let mut total_added = 0.0;
        for (c, width) in widths.iter().enumerate().take(n) {
            let (i, j) = grid.tile_of(pos.x[c], pos.y[c]);
            let ratio = ratios[i * grid.gy() + j].max(1.0);
            let w = width.to_f64();
            desired.push(ratio);
            total_added += w * nl.cell_heights()[c].to_f64() * (ratio - 1.0);
        }
        // Cap the area increment at 10% of whitespace, scaling ratios down
        // uniformly (paper §III-F).
        let cap = WHITESPACE_CAP * whitespace;
        let scale = if total_added > cap && total_added > 0.0 {
            cap / total_added
        } else {
            1.0
        };
        let mut added = 0.0;
        for (c, width) in widths.iter_mut().enumerate().take(n) {
            let ratio = 1.0 + (desired[c] - 1.0) * scale;
            let w = width.to_f64();
            let new_w = w * ratio;
            added += (new_w - w) * nl.cell_heights()[c].to_f64();
            *width = T::from_f64(new_w);
        }
        added
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;
    use dp_lg::check_legal;

    fn congested_design() -> GeneratedDesign<f64> {
        GeneratorConfig::new("routability-test", 400, 440)
            .with_seed(14)
            .with_utilization(0.55)
            .generate::<f64>()
            .expect("ok")
    }

    fn tight_router() -> RouterConfig {
        RouterConfig {
            gx: 16,
            gy: 16,
            cap_h: 6,
            cap_v: 6,
            reroute_passes: 1,
            maze_passes: 1,
        }
    }

    #[test]
    fn routability_flow_completes_with_metrics() {
        let d = congested_design();
        let mut cfg = RoutabilityConfig::auto(&d.netlist, tight_router());
        cfg.gp.max_iters = 200;
        cfg.gp.target_overflow = 0.15;
        cfg.max_rounds = 2;
        cfg.run_dp = false;
        let r = RoutabilityPlacer::new(cfg).place(&d).expect("flow runs");
        assert!(r.rc >= 100.0);
        assert!(r.shpwl >= r.hpwl);
        assert!(r.inflation_rounds >= 1);
        assert!(r.nl_time > 0.0 && r.gr_time > 0.0);
        assert!(check_legal(&d.netlist, &r.placement).is_legal());
    }

    #[test]
    fn inflation_respects_whitespace_cap() {
        let d = congested_design();
        let mut cfg = RoutabilityConfig::auto(
            &d.netlist,
            RouterConfig {
                gx: 16,
                gy: 16,
                cap_h: 1, // absurdly tight: everything wants max inflation
                cap_v: 1,
                reroute_passes: 0,
                maze_passes: 0,
            },
        );
        cfg.gp.max_iters = 60;
        cfg.gp.target_overflow = 0.3;
        cfg.max_rounds = 1;
        cfg.run_dp = false;
        let r = RoutabilityPlacer::new(cfg).place(&d).expect("flow runs");
        let whitespace = (d.netlist.region().area() - d.netlist.total_movable_area())
            / d.netlist.total_movable_area();
        // One round adds at most 10% of whitespace worth of area.
        assert!(
            r.inflation_area_frac <= 0.10 * whitespace + 1e-6,
            "added {} of cell area, whitespace frac {whitespace}",
            r.inflation_area_frac
        );
    }
}
