//! Spectral Poisson solve: potential and electric field from a density map.
//!
//! See the crate docs for the basis convention. The solver supports the
//! three DCT implementation tiers of Fig. 11 through [`DctBackendKind`], so
//! the Fig. 12 density benchmark can toggle them.

use dp_dct::dct2d::{Dct1dTier, Dct2dWork, RowColumnDct2d};
use dp_dct::{Dct2dPlan, TransformError, TransformPhases};
use dp_num::Float;

use crate::bins::BinGrid;

/// Which DCT implementation the field solver uses (paper Fig. 11 tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DctBackendKind {
    /// Row-column with 2N-point 1-D FFTs (the slowest tier).
    RowColumn2n,
    /// Row-column with Makhoul N-point 1-D FFTs (paper Algorithm 3).
    RowColumnN,
    /// Direct 2-D with one 2-D real FFT (paper Algorithm 4, the default).
    #[default]
    Direct2d,
}

impl std::fmt::Display for DctBackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DctBackendKind::RowColumn2n => "dct-2n",
            DctBackendKind::RowColumnN => "dct-n",
            DctBackendKind::Direct2d => "dct-2d-n",
        };
        f.write_str(s)
    }
}

enum Backend<T> {
    RowColumn(RowColumnDct2d<T>),
    Direct(Dct2dPlan<T>),
}

impl<T: Float> Backend<T> {
    // The Direct2d tier runs allocation-free against the reusable work
    // buffers; the row-column tiers are legacy comparison points (Fig. 11)
    // and keep their allocating transforms.
    fn dct2_into(&self, x: &[T], work: &mut Dct2dWork<T>, out: &mut Vec<T>) {
        match self {
            Backend::RowColumn(p) => replace_with(out, p.dct2(x)),
            Backend::Direct(p) => p.dct2_with(x, work, out),
        }
    }
    fn idct2_into(&self, x: &[T], work: &mut Dct2dWork<T>, out: &mut Vec<T>) {
        match self {
            Backend::RowColumn(p) => replace_with(out, p.idct2(x)),
            Backend::Direct(p) => p.idct2_with(x, work, out),
        }
    }
    fn idxst_idct_into(&self, x: &[T], work: &mut Dct2dWork<T>, out: &mut Vec<T>) {
        match self {
            Backend::RowColumn(p) => replace_with(out, p.idxst_idct(x)),
            Backend::Direct(p) => p.idxst_idct_with(x, work, out),
        }
    }
    fn idct_idxst_into(&self, x: &[T], work: &mut Dct2dWork<T>, out: &mut Vec<T>) {
        match self {
            Backend::RowColumn(p) => replace_with(out, p.idct_idxst(x)),
            Backend::Direct(p) => p.idct_idxst_with(x, work, out),
        }
    }
}

fn replace_with<T>(out: &mut Vec<T>, v: Vec<T>) {
    out.clear();
    out.extend(v);
}

/// Potential and field of one density snapshot, in bin units.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSolution<T> {
    /// Electric potential per bin.
    pub potential: Vec<T>,
    /// Field along x per bin (`-d psi / dx`).
    pub field_x: Vec<T>,
    /// Field along y per bin (`-d psi / dy`).
    pub field_y: Vec<T>,
    /// System energy `0.5 * sum rho * psi`.
    pub energy: T,
}

impl<T: Float> FieldSolution<T> {
    /// An empty solution suitable as the out-param of
    /// [`ElectroField::solve_into`]; buffers grow on first use.
    pub fn empty() -> Self {
        Self {
            potential: Vec::new(),
            field_x: Vec::new(),
            field_y: Vec::new(),
            energy: T::ZERO,
        }
    }

    /// Heap bytes held by the solution buffers.
    pub fn bytes(&self) -> usize {
        (self.potential.capacity() + self.field_x.capacity() + self.field_y.capacity())
            * std::mem::size_of::<T>()
    }
}

impl<T: Float> Default for FieldSolution<T> {
    fn default() -> Self {
        Self::empty()
    }
}

/// The spectral electrostatics solver over a fixed [`BinGrid`].
///
/// # Examples
///
/// ```
/// use dp_density::{BinGrid, DctBackendKind, ElectroField};
/// use dp_netlist::Rect;
///
/// # fn main() -> Result<(), dp_density::GridError> {
/// let grid = BinGrid::new(Rect::new(0.0f64, 0.0, 64.0, 64.0), 8, 8)?;
/// let mut rho = vec![0.0f64; 64];
/// rho[8 * 4 + 4] = 1.0; // a point charge
/// let mut solver = ElectroField::new(&grid, DctBackendKind::Direct2d)?;
/// let sol = solver.solve(&rho);
/// assert!(sol.energy > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct ElectroField<T: Float> {
    mx: usize,
    my: usize,
    backend: Backend<T>,
    /// `w_u = pi u / mx`.
    wu: Vec<T>,
    /// `w_v = pi v / my`.
    wv: Vec<T>,
    /// Spectral coefficient and FFT scratch, reused across solves.
    scratch: SolveScratch<T>,
}

/// Reusable scratch for one spectral solve; owned by the solver so a
/// placement run allocates it exactly once.
struct SolveScratch<T> {
    a: Vec<T>,
    coef_psi: Vec<T>,
    coef_ex: Vec<T>,
    coef_ey: Vec<T>,
    work: Dct2dWork<T>,
}

impl<T: Float> SolveScratch<T> {
    fn new() -> Self {
        Self {
            a: Vec::new(),
            coef_psi: Vec::new(),
            coef_ex: Vec::new(),
            coef_ey: Vec::new(),
            work: Dct2dWork::new(),
        }
    }

    fn bytes(&self) -> usize {
        (self.a.capacity()
            + self.coef_psi.capacity()
            + self.coef_ex.capacity()
            + self.coef_ey.capacity())
            * std::mem::size_of::<T>()
            + self.work.bytes()
    }
}

impl<T: Float> ElectroField<T> {
    /// Creates a solver over `grid` with the chosen DCT tier.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] if the grid dimensions are unsupported by
    /// the tier.
    pub fn new(grid: &BinGrid<T>, kind: DctBackendKind) -> Result<Self, TransformError> {
        let (mx, my) = (grid.mx(), grid.my());
        let backend = match kind {
            DctBackendKind::RowColumn2n => {
                Backend::RowColumn(RowColumnDct2d::new(mx, my, Dct1dTier::TwoN)?)
            }
            DctBackendKind::RowColumnN => {
                Backend::RowColumn(RowColumnDct2d::new(mx, my, Dct1dTier::NPoint)?)
            }
            DctBackendKind::Direct2d => Backend::Direct(Dct2dPlan::new(mx, my)?),
        };
        let freq = |k: usize, m: usize| T::from_f64(std::f64::consts::PI * k as f64 / m as f64);
        Ok(Self {
            mx,
            my,
            backend,
            wu: (0..mx).map(|u| freq(u, mx)).collect(),
            wv: (0..my).map(|v| freq(v, my)).collect(),
            scratch: SolveScratch::new(),
        })
    }

    /// Heap bytes held by the solver's reusable scratch buffers.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.bytes()
    }

    /// Drains the transpose/butterfly/twiddle phase split accumulated by
    /// the direct 2-D transforms since the last call. Always zero for the
    /// row-column tiers, which carry no timers.
    pub fn take_transform_phases(&mut self) -> TransformPhases {
        self.scratch.work.take_phases()
    }

    /// Solves Poisson's equation for a density map (row-major `mx x my`,
    /// x-major as produced by [`crate::DensityMapBuilder`]), writing the
    /// result into `out` so both the solution and the spectral scratch are
    /// reused across iterations.
    ///
    /// The DC component is removed (paper Eq. (4c)), making the solution
    /// independent of total charge.
    ///
    /// # Panics
    ///
    /// Panics if `rho.len() != mx * my`.
    pub fn solve_into(&mut self, rho: &[T], out: &mut FieldSolution<T>) {
        assert_eq!(rho.len(), self.mx * self.my, "density map shape mismatch");
        let s = &mut self.scratch;
        self.backend.dct2_into(rho, &mut s.work, &mut s.a);

        for coef in [&mut s.coef_psi, &mut s.coef_ex, &mut s.coef_ey] {
            coef.clear();
            coef.resize(s.a.len(), T::ZERO);
        }
        for u in 0..self.mx {
            for v in 0..self.my {
                if u == 0 && v == 0 {
                    continue; // DC removed
                }
                let idx = u * self.my + v;
                let denom = self.wu[u] * self.wu[u] + self.wv[v] * self.wv[v];
                s.coef_psi[idx] = s.a[idx] / denom;
                s.coef_ex[idx] = s.a[idx] * self.wu[u] / denom;
                s.coef_ey[idx] = s.a[idx] * self.wv[v] / denom;
            }
        }

        self.backend
            .idct2_into(&s.coef_psi, &mut s.work, &mut out.potential);
        self.backend
            .idxst_idct_into(&s.coef_ex, &mut s.work, &mut out.field_x);
        self.backend
            .idct_idxst_into(&s.coef_ey, &mut s.work, &mut out.field_y);
        out.energy = rho
            .iter()
            .zip(&out.potential)
            .map(|(&r, &p)| r * p)
            .sum::<T>()
            * T::HALF;
    }

    /// [`ElectroField::solve_into`] returning a fresh [`FieldSolution`].
    ///
    /// # Panics
    ///
    /// Panics if `rho.len() != mx * my`.
    pub fn solve(&mut self, rho: &[T]) -> FieldSolution<T> {
        let mut out = FieldSolution::empty();
        self.solve_into(rho, &mut out);
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_netlist::Rect;

    fn grid(m: usize) -> BinGrid<f64> {
        BinGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), m, m).expect("pow2")
    }

    /// For a single-mode density rho = cos(w_u(x+1/2)) cos(w_v(y+1/2)), the
    /// exact solution is psi = rho / (w_u^2 + w_v^2) and
    /// xi_x = w_u sin(w_u(x+1/2)) cos(w_v(y+1/2)) / (w_u^2 + w_v^2).
    #[test]
    fn single_mode_matches_analytic_solution() {
        let m = 16;
        let g = grid(m);
        let mut solver = ElectroField::new(&g, DctBackendKind::Direct2d).expect("plan");
        let (u, v) = (3usize, 5usize);
        let wu = std::f64::consts::PI * u as f64 / m as f64;
        let wv = std::f64::consts::PI * v as f64 / m as f64;
        let mut rho = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                rho[i * m + j] = (wu * (i as f64 + 0.5)).cos() * (wv * (j as f64 + 0.5)).cos();
            }
        }
        let sol = solver.solve(&rho);
        let denom = wu * wu + wv * wv;
        for i in 0..m {
            for j in 0..m {
                let idx = i * m + j;
                let psi = rho[idx] / denom;
                assert!((sol.potential[idx] - psi).abs() < 1e-9, "psi at ({i},{j})");
                let ex = wu * (wu * (i as f64 + 0.5)).sin() * (wv * (j as f64 + 0.5)).cos() / denom;
                assert!((sol.field_x[idx] - ex).abs() < 1e-9, "ex at ({i},{j})");
                let ey = wv * (wu * (i as f64 + 0.5)).cos() * (wv * (j as f64 + 0.5)).sin() / denom;
                assert!((sol.field_y[idx] - ey).abs() < 1e-9, "ey at ({i},{j})");
            }
        }
    }

    #[test]
    fn all_backends_agree() {
        let m = 16;
        let g = grid(m);
        let mut rho = vec![0.0; m * m];
        for (k, r) in rho.iter_mut().enumerate() {
            *r = ((k * 37 % 101) as f64) / 100.0;
        }
        let reference = ElectroField::new(&g, DctBackendKind::Direct2d)
            .expect("plan")
            .solve(&rho);
        for kind in [DctBackendKind::RowColumn2n, DctBackendKind::RowColumnN] {
            let sol = ElectroField::new(&g, kind).expect("plan").solve(&rho);
            for (a, b) in sol.potential.iter().zip(&reference.potential) {
                assert!((a - b).abs() < 1e-9, "{kind}");
            }
            for (a, b) in sol.field_x.iter().zip(&reference.field_x) {
                assert!((a - b).abs() < 1e-9, "{kind}");
            }
            assert!((sol.energy - reference.energy).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn direct_backend_records_phase_split() {
        let g = grid(16);
        let mut solver = ElectroField::new(&g, DctBackendKind::Direct2d).expect("plan");
        let mut rho = vec![0.0; 256];
        rho[40] = 1.0;
        let _ = solver.solve(&rho);
        let phases = solver.take_transform_phases();
        assert!(phases.total_nanos() > 0, "direct solve must record phases");
        assert_eq!(
            solver.take_transform_phases().total_nanos(),
            0,
            "take must drain"
        );
        // The row-column tiers carry no timers.
        let mut row_column = ElectroField::new(&g, DctBackendKind::RowColumnN).expect("plan");
        let _ = row_column.solve(&rho);
        assert_eq!(row_column.take_transform_phases().total_nanos(), 0);
    }

    #[test]
    fn uniform_density_has_zero_field_and_energy() {
        let g = grid(8);
        let mut solver = ElectroField::new(&g, DctBackendKind::Direct2d).expect("plan");
        let sol = solver.solve(&vec![3.5; 64]);
        assert!(sol.energy.abs() < 1e-9);
        assert!(sol.field_x.iter().all(|v| v.abs() < 1e-9));
        assert!(sol.field_y.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn dc_invariance() {
        // Adding a constant to rho must not change anything (Eq. 4c).
        let g = grid(8);
        let mut solver = ElectroField::new(&g, DctBackendKind::Direct2d).expect("plan");
        let mut rho = vec![0.0; 64];
        rho[9] = 2.0;
        rho[40] = 1.0;
        let base = solver.solve(&rho);
        let shifted: Vec<f64> = rho.iter().map(|v| v + 5.0).collect();
        let sol = solver.solve(&shifted);
        for (a, b) in sol.field_x.iter().zip(&base.field_x) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in sol.potential.iter().zip(&base.potential) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn field_points_away_from_charge() {
        let m = 16;
        let g = grid(m);
        let mut solver = ElectroField::new(&g, DctBackendKind::Direct2d).expect("plan");
        let mut rho = vec![0.0; m * m];
        rho[g.index(8, 8)] = 4.0;
        let sol = solver.solve(&rho);
        // Left of the charge the x field is negative (pushes left),
        // right of it positive... with our sign convention xi = -dpsi/dx:
        // psi decays away from the charge, so dpsi/dx > 0 left of it,
        // giving xi < 0 there: the force q*xi pushes a positive test charge
        // further left, i.e. away. Check signs on both sides.
        assert!(sol.field_x[g.index(5, 8)] < 0.0);
        assert!(sol.field_x[g.index(11, 8)] > 0.0);
        assert!(sol.field_y[g.index(8, 5)] < 0.0);
        assert!(sol.field_y[g.index(8, 11)] > 0.0);
    }
}
