//! Tool modes: the configurations the paper compares.

use dp_density::{DctBackendKind, DensityStrategy};
use dp_gp::{GpConfig, InitKind, WirelengthModel};
use dp_netlist::Netlist;
use dp_num::Float;
use dp_wirelength::WaStrategy;

/// The placement tool configurations compared throughout the paper's
/// evaluation (Tables II, III, V; Figs. 7-8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolMode {
    /// RePlAce-style baseline: quadratic-style (wirelength-only) initial
    /// placement stage, reference kernels (net-by-net wirelength, naive
    /// density scatter), row-column 2N-point DCT, and the DAC-version
    /// density-weight update (no TCAD stabilization).
    ReplaceBaseline {
        /// Worker threads.
        threads: usize,
    },
    /// DREAMPlace on CPU: random center init, merged wirelength kernel,
    /// sorted density scatter, direct 2-D DCT.
    DreamplaceCpu {
        /// Worker threads.
        threads: usize,
    },
    /// DREAMPlace with every GPU-targeted optimization enabled (the
    /// kernels the paper runs on a V100, here executed by the CPU backend;
    /// see the crate docs on this simulation).
    ///
    /// A comparison tier only: no production path (the daemon, `place`'s
    /// default, the quickstarts) selects it. Its one difference from
    /// [`ToolMode::DreamplaceCpu`] here is the 2×2 tile split of the density
    /// scatter, which fixes GPU warp divergence but costs a CPU about 1.6×
    /// the plain sorted scatter (`results/fig6.txt`) for the same bits.
    DreamplaceGpuSim,
}

impl ToolMode {
    /// Short label used by the bench harness tables.
    pub fn label(&self) -> String {
        match self {
            ToolMode::ReplaceBaseline { threads } => format!("RePlAce({threads}t)"),
            ToolMode::DreamplaceCpu { threads } => format!("DREAMPlace-CPU({threads}t)"),
            ToolMode::DreamplaceGpuSim => "DREAMPlace-GPUsim".to_string(),
        }
    }

    /// Builds the global placement configuration for this mode.
    pub fn gp_config<T: Float>(&self, netlist: &Netlist<T>) -> GpConfig<T> {
        let mut cfg = GpConfig::auto(netlist);
        match *self {
            ToolMode::ReplaceBaseline { threads } => {
                cfg.threads = threads.max(1);
                cfg.wirelength = WirelengthModel::Wa(WaStrategy::NetByNet);
                cfg.density_strategy = DensityStrategy::Naive;
                cfg.dct_backend = DctBackendKind::RowColumn2n;
                // Emulates the bound-to-bound initial placement stage whose
                // share of GP runtime the paper measures at 25-30% (§IV-A).
                cfg.init = InitKind::WirelengthOnly {
                    iters: cfg.max_iters / 4,
                };
                cfg.tcad_mu_stabilization = false;
            }
            ToolMode::DreamplaceCpu { threads } => {
                cfg.threads = threads.max(1);
                cfg.wirelength = WirelengthModel::Wa(WaStrategy::Merged);
                cfg.density_strategy = DensityStrategy::Sorted;
                cfg.dct_backend = DctBackendKind::Direct2d;
                cfg.init = InitKind::RandomCenter;
            }
            ToolMode::DreamplaceGpuSim => {
                cfg.threads = dp_num::default_threads();
                cfg.wirelength = WirelengthModel::Wa(WaStrategy::Merged);
                cfg.density_strategy = DensityStrategy::SortedSubthreads { tx: 2, ty: 2 };
                cfg.dct_backend = DctBackendKind::Direct2d;
                cfg.init = InitKind::RandomCenter;
            }
        }
        cfg
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;

    #[test]
    fn modes_differ_in_the_paper_dimensions() {
        let d = GeneratorConfig::new("m", 100, 110)
            .generate::<f64>()
            .expect("ok");
        let base = ToolMode::ReplaceBaseline { threads: 1 }.gp_config(&d.netlist);
        let fast = ToolMode::DreamplaceGpuSim.gp_config(&d.netlist);
        assert_ne!(base.wirelength, fast.wirelength);
        assert_ne!(base.dct_backend, fast.dct_backend);
        assert!(matches!(base.init, InitKind::WirelengthOnly { .. }));
        assert!(matches!(fast.init, InitKind::RandomCenter));
        assert!(!base.tcad_mu_stabilization && fast.tcad_mu_stabilization);
    }

    #[test]
    fn labels_are_table_friendly() {
        assert_eq!(
            ToolMode::ReplaceBaseline { threads: 40 }.label(),
            "RePlAce(40t)"
        );
        assert_eq!(ToolMode::DreamplaceGpuSim.label(), "DREAMPlace-GPUsim");
    }
}
