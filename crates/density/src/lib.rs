//! Electrostatic density operator (paper §III-B, after ePlace).
//!
//! Cells are charges, the density penalty is the system's potential energy,
//! and the density gradient is the electric field: Poisson's equation
//! (paper Eq. (4)) is solved spectrally with the DCT family of [`dp_dct`]
//! (paper Eqs. (5) and (9)).
//!
//! The computation follows the paper's four steps (Fig. 4b):
//!
//! 1. **density map** — scatter cell areas into bins, a "dynamic bipartite
//!    graph forward" (§III-B1) with the load-balancing tricks of Fig. 6
//!    (sort cells by area, update one cell with multiple workers);
//! 2. **spectral coefficients** `a_{u,v}` via 2-D DCT;
//! 3. **field** `xi` via IDXST·IDCT / IDCT·IDXST of the scaled spectrum,
//!    and in the same scaling pass the **energy** `0.5 * sum rho * psi`,
//!    summed over the spectrum (the cosine basis is orthogonal, so the
//!    paper's potential IDCT is not needed for it; see
//!    [`ElectroField::solve_into`]);
//! 4. per-cell force gather, the "dynamic bipartite graph backward"
//!    (§III-B2).
//!
//! The **potential** `psi` itself is available from
//! [`ElectroField::potential`] for oracles and tests; placement never
//! builds it.
//!
//! # Basis convention
//!
//! With the workspace DCT normalization (`idct2(dct2(rho)) == rho`), the
//! density expands exactly as
//! `rho(x, y) = sum_{u,v} a_{u,v} cos(w_u (x+1/2)) cos(w_v (y+1/2))`
//! with `w_u = pi u / M`. The Neumann-boundary Poisson solution is then
//! `psi = idct2(a / (w_u^2 + w_v^2))` (DC removed, paper Eq. (4c)) and the
//! field `xi_x = idxst_idct(a w_u / (w_u^2 + w_v^2))`, which is what
//! [`ElectroField`] computes.
//!
//! # Examples
//!
//! ```
//! use dp_autograd::{ExecCtx, Gradient, Operator};
//! use dp_density::{BinGrid, DensityOp, DensityStrategy};
//! use dp_netlist::{NetlistBuilder, Placement};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new(0.0, 0.0, 64.0, 64.0);
//! let a = b.add_movable_cell(4.0, 4.0);
//! let c = b.add_movable_cell(4.0, 4.0);
//! b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])?;
//! let nl = b.build()?;
//! let mut p = Placement::zeros(nl.num_cells());
//! p.x = vec![32.0, 32.0];
//! p.y = vec![32.0, 32.0]; // overlapping cells
//!
//! let grid = BinGrid::new(nl.region(), 16, 16)?;
//! let mut op = DensityOp::new(grid, DensityStrategy::Sorted, 1.0)?;
//! let mut ctx = ExecCtx::serial();
//! let mut g = Gradient::zeros(nl.num_cells());
//! let energy = op.forward_backward(&nl, &p, &mut g, &mut ctx);
//! assert!(energy > 0.0);
//! # Ok(())
//! # }
//! ```

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod bins;
pub mod electro;
pub mod map;
pub mod op;

pub use bins::{BinGrid, GridError};
pub use electro::{DctBackendKind, ElectroField};
pub use map::{smoothed_footprint, DensityMapBuilder, DensityStrategy, Footprint};
pub use op::DensityOp;
