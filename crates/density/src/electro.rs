//! Spectral Poisson solve: electric field and system energy from a density
//! map.
//!
//! See the crate docs for the basis convention. The solver supports the
//! three DCT implementation tiers of Fig. 11 through [`DctBackendKind`], so
//! the Fig. 12 density benchmark can toggle them.
//!
//! One solve is three transforms: the forward DCT, and one mixed inverse
//! transform per field component. The energy is summed from the spectrum
//! (Parseval), so the potential is never built on the placement path;
//! [`ElectroField::potential`] computes it on request for oracles and tests,
//! in buffers of its own.
//!
//! The solve runs inside the two grids of its [`FieldSolution`]: the
//! charge map arrives in `field_x`, the forward DCT turns it into `a_uv` in
//! place, one pass over the spectrum writes the `y` field's coefficients
//! into `field_y` and the `x` field's over `a_uv` (summing the energy on
//! the way), and each mixed inverse then runs in place. Beside the two
//! field buffers a solve holds only the transform work (spectrum and lane
//! scratch).

use dp_dct::dct2d::{Dct1dTier, Dct2dWork, RowColumnDct2d};
use dp_dct::{Dct2dPlan, Transform2d, TransformError, TransformPhases};
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
    /// `kind` of `x`, written back over `x`. The Direct2d tier runs
    /// allocation-free against the reusable work buffers; the row-column
    /// tiers are legacy comparison points (Fig. 11) and keep their
    /// allocating transforms.
    fn transform_in_place(&self, kind: Transform2d, x: &mut [T], work: &mut Dct2dWork<T>) {
        match self {
            Backend::Direct(p) => p.transform_in_place(kind, x, work),
            Backend::RowColumn(p) => {
                let y = match kind {
                    Transform2d::Dct2 => p.dct2(x),
                    Transform2d::Idct2 => p.idct2(x),
                    Transform2d::IdxstIdct => p.idxst_idct(x),
                    Transform2d::IdctIdxst => p.idct_idxst(x),
                };
                x.copy_from_slice(&y);
            }
        }
    }
}

/// Field and energy of one density snapshot, in bin units.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSolution<T> {
    /// Field along x per bin (`-d psi / dx`).
    pub field_x: Vec<T>,
    /// Field along y per bin (`-d psi / dy`).
    pub field_y: Vec<T>,
    /// System energy `0.5 * sum rho * psi`, summed in the spectral domain.
    pub energy: T,
}

impl<T: Float> FieldSolution<T> {
    /// An empty solution suitable as the out-param of
    /// [`ElectroField::solve_into`]; buffers grow on first use.
    pub fn empty() -> Self {
        Self {
            field_x: Vec::new(),
            field_y: Vec::new(),
            energy: T::ZERO,
        }
    }

    /// Heap bytes held by the solution buffers.
    pub fn bytes(&self) -> usize {
        (self.field_x.capacity() + self.field_y.capacity()) * std::mem::size_of::<T>()
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
    /// Squared norm of the `u`-th basis function as the library IDCT
    /// weights it: `mx / 4` for `u = 0`, `mx / 2` otherwise.
    norm_u: Vec<T>,
    /// Likewise along y: `my / 4` for `v = 0`, `my / 2` otherwise.
    norm_v: Vec<T>,
    /// Transform scratch (spectrum and lanes), reused across solves.
    work: Dct2dWork<T>,
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
        let norm = |k: usize, m: usize| T::from_f64(m as f64 / if k == 0 { 4.0 } else { 2.0 });
        Ok(Self {
            mx,
            my,
            backend,
            wu: (0..mx).map(|u| freq(u, mx)).collect(),
            wv: (0..my).map(|v| freq(v, my)).collect(),
            norm_u: (0..mx).map(|u| norm(u, mx)).collect(),
            norm_v: (0..my).map(|v| norm(v, my)).collect(),
            work: Dct2dWork::new(),
        })
    }

    /// Heap bytes held by the solver's reusable scratch buffers.
    pub fn scratch_bytes(&self) -> usize {
        self.work.bytes()
    }

    /// Drains the transpose/butterfly/twiddle phase split accumulated by
    /// the direct 2-D transforms since the last call. Always zero for the
    /// row-column tiers, which carry no timers.
    pub fn take_transform_phases(&mut self) -> TransformPhases {
        self.work.take_phases()
    }

    /// Solves Poisson's equation for a density map (row-major `mx x my`,
    /// x-major as produced by [`crate::DensityMapBuilder`]): `rho` is
    /// copied into `out.field_x` and solved there (see the module docs), so
    /// the solution buffers and the transform scratch are reused across
    /// iterations.
    ///
    /// The DC component is removed (paper Eq. (4c)), making the solution
    /// independent of total charge.
    ///
    /// The energy `0.5 * sum rho * psi` is accumulated from the spectrum
    /// instead of from a potential map: the cosine basis is orthogonal over
    /// the bins with `sum_x cos^2(w_u (x+1/2)) = M/2` (`M` for `u = 0`), and
    /// the library IDCT weights its `k = 0` term by one half, so
    ///
    /// ```text
    /// sum rho * psi = sum_{(u,v) != (0,0)} a_uv^2 / (w_u^2 + w_v^2) * n_x(u) * n_y(v)
    /// ```
    ///
    /// with `n(0) = M/4` and `n(k > 0) = M/2`. A non-finite bin in `rho`
    /// reaches every `a_uv`, so the energy is non-finite whenever the
    /// summed one was.
    ///
    /// # Panics
    ///
    /// Panics if `rho.len() != mx * my`.
    pub fn solve_into(&mut self, rho: &[T], out: &mut FieldSolution<T>) {
        out.field_x.clear();
        out.field_x.extend_from_slice(rho);
        self.solve_in_place(out);
    }

    /// [`ElectroField::solve_into`] with the density map already in
    /// `sol.field_x`: every step runs inside the two field buffers.
    ///
    /// # Panics
    ///
    /// Panics if `sol.field_x.len() != mx * my`.
    pub(crate) fn solve_in_place(&mut self, sol: &mut FieldSolution<T>) {
        let (mx, my) = (self.mx, self.my);
        assert_eq!(sol.field_x.len(), mx * my, "density map shape mismatch");
        // a_uv lands in field_x.
        self.backend
            .transform_in_place(Transform2d::Dct2, &mut sol.field_x, &mut self.work);

        // Every element is written below, so field_y is only sized.
        sol.field_y.resize(mx * my, T::ZERO);
        let mut energy = T::ZERO;
        for (u, (ex, ey)) in sol
            .field_x
            .chunks_exact_mut(my)
            .zip(sol.field_y.chunks_exact_mut(my))
            .enumerate()
        {
            let wu = self.wu[u];
            // DC removed: (0, 0) is written as zero and skipped.
            let first = usize::from(u == 0);
            ex[..first].fill(T::ZERO);
            ey[..first].fill(T::ZERO);
            let mut row_energy = T::ZERO;
            for v in first..my {
                let wv = self.wv[v];
                let a = ex[v];
                // One division per bin: the three quotients below share it.
                let inv = T::ONE / (wu * wu + wv * wv);
                ex[v] = a * wu * inv;
                ey[v] = a * wv * inv;
                row_energy += a * a * inv * self.norm_v[v];
            }
            energy += row_energy * self.norm_u[u];
        }
        sol.energy = energy * T::HALF;

        self.backend
            .transform_in_place(Transform2d::IdxstIdct, &mut sol.field_x, &mut self.work);
        self.backend
            .transform_in_place(Transform2d::IdctIdxst, &mut sol.field_y, &mut self.work);
    }

    /// The electric potential `psi = idct2(a_uv / (w_u^2 + w_v^2))` of a
    /// density map (DC removed), per bin.
    ///
    /// Placement never needs it — [`ElectroField::solve_into`] produces the
    /// field and the energy without it — so this is a separate call for
    /// oracles and tests that compare against `psi` itself; it allocates
    /// the buffer it returns and solves inside it.
    ///
    /// # Panics
    ///
    /// Panics if `rho.len() != mx * my`.
    pub fn potential(&mut self, rho: &[T]) -> Vec<T> {
        assert_eq!(rho.len(), self.mx * self.my, "density map shape mismatch");
        let mut psi = rho.to_vec();
        self.backend
            .transform_in_place(Transform2d::Dct2, &mut psi, &mut self.work);
        for (u, row) in psi.chunks_exact_mut(self.my).enumerate() {
            let first = usize::from(u == 0);
            row[..first].fill(T::ZERO);
            for (c, &wv) in row.iter_mut().zip(&self.wv).skip(first) {
                *c /= self.wu[u] * self.wu[u] + wv * wv;
            }
        }
        self.backend
            .transform_in_place(Transform2d::Idct2, &mut psi, &mut self.work);
        psi
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

    const TIERS: [DctBackendKind; 3] = [
        DctBackendKind::RowColumn2n,
        DctBackendKind::RowColumnN,
        DctBackendKind::Direct2d,
    ];

    fn grid(m: usize) -> BinGrid<f64> {
        grid_of(m, m)
    }

    fn grid_of<T: Float>(mx: usize, my: usize) -> BinGrid<T> {
        let side = T::from_f64(64.0);
        BinGrid::new(Rect::new(T::ZERO, T::ZERO, side, side), mx, my).expect("pow2")
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
        let potential = solver.potential(&rho);
        let denom = wu * wu + wv * wv;
        for i in 0..m {
            for j in 0..m {
                let idx = i * m + j;
                let psi = rho[idx] / denom;
                assert!((potential[idx] - psi).abs() < 1e-9, "psi at ({i},{j})");
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
        let mut direct = ElectroField::new(&g, DctBackendKind::Direct2d).expect("plan");
        let reference = direct.solve(&rho);
        let reference_potential = direct.potential(&rho);
        for kind in [DctBackendKind::RowColumn2n, DctBackendKind::RowColumnN] {
            let mut solver = ElectroField::new(&g, kind).expect("plan");
            let sol = solver.solve(&rho);
            for (a, b) in solver.potential(&rho).iter().zip(&reference_potential) {
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
        let base_potential = solver.potential(&rho);
        let shifted: Vec<f64> = rho.iter().map(|v| v + 5.0).collect();
        let sol = solver.solve(&shifted);
        for (a, b) in sol.field_x.iter().zip(&base.field_x) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in solver.potential(&shifted).iter().zip(&base_potential) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!((sol.energy - base.energy).abs() < 1e-9 * base.energy);
    }

    /// The four-transform solve of paper Fig. 4b, the reference for the
    /// production one: explicit potential and field coefficient arrays (DC
    /// left at its zero pre-fill) through the public allocating transforms.
    struct FourBufferSolve<T> {
        potential: Vec<T>,
        field_x: Vec<T>,
        field_y: Vec<T>,
    }

    fn four_buffer_solve<T: Float>(
        mx: usize,
        my: usize,
        kind: DctBackendKind,
        rho: &[T],
    ) -> FourBufferSolve<T> {
        type Transform<'a, T> = Box<dyn Fn(&[T]) -> Vec<T> + 'a>;
        let tier = match kind {
            DctBackendKind::RowColumn2n => Some(Dct1dTier::TwoN),
            DctBackendKind::RowColumnN => Some(Dct1dTier::NPoint),
            DctBackendKind::Direct2d => None,
        };
        let row_column = tier.map(|t| RowColumnDct2d::<T>::new(mx, my, t).expect("plan"));
        let direct = Dct2dPlan::<T>::new(mx, my).expect("plan");
        let [dct2, idct2, idxst_idct, idct_idxst]: [Transform<'_, T>; 4] = match &row_column {
            Some(p) => [
                Box::new(|x| p.dct2(x)),
                Box::new(|x| p.idct2(x)),
                Box::new(|x| p.idxst_idct(x)),
                Box::new(|x| p.idct_idxst(x)),
            ],
            None => [
                Box::new(|x| direct.dct2(x)),
                Box::new(|x| direct.idct2(x)),
                Box::new(|x| direct.idxst_idct(x)),
                Box::new(|x| direct.idct_idxst(x)),
            ],
        };
        let freq = |k: usize, m: usize| T::from_f64(std::f64::consts::PI * k as f64 / m as f64);
        let a = dct2(rho);
        let mut coef_psi = vec![T::ZERO; mx * my];
        let mut coef_ex = vec![T::ZERO; mx * my];
        let mut coef_ey = vec![T::ZERO; mx * my];
        for u in 0..mx {
            for v in 0..my {
                if u == 0 && v == 0 {
                    continue;
                }
                let idx = u * my + v;
                let (wu, wv) = (freq(u, mx), freq(v, my));
                let denom = wu * wu + wv * wv;
                coef_psi[idx] = a[idx] / denom;
                // The production scaling: one reciprocal per bin.
                let inv = T::ONE / denom;
                coef_ex[idx] = a[idx] * wu * inv;
                coef_ey[idx] = a[idx] * wv * inv;
            }
        }
        FourBufferSolve {
            potential: idct2(&coef_psi),
            field_x: idxst_idct(&coef_ex),
            field_y: idct_idxst(&coef_ey),
        }
    }

    fn pseudo_random_map<T: Float>(n: usize) -> Vec<T> {
        (0..n)
            .map(|k| T::from_f64(((k * 37 % 101) as f64) / 100.0 + (k as f64 * 0.7).sin().abs()))
            .collect()
    }

    fn bits<T: Float>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    fn assert_fields_match_four_buffer_solve<T: Float>() {
        for (mx, my) in [(16, 16), (8, 32), (32, 8)] {
            let g = grid_of::<T>(mx, my);
            let rho = pseudo_random_map::<T>(mx * my);
            for kind in TIERS {
                let mut solver = ElectroField::new(&g, kind).expect("plan");
                // Twice through one solver: the second solve reuses every
                // scratch buffer the first one sized.
                let _ = solver.solve(&rho);
                let sol = solver.solve(&rho);
                let want = four_buffer_solve(mx, my, kind, &rho);
                let what = format!("{kind} {} ({mx},{my})", T::PRECISION_NAME);
                assert_eq!(bits(&sol.field_x), bits(&want.field_x), "field_x {what}");
                assert_eq!(bits(&sol.field_y), bits(&want.field_y), "field_y {what}");
                assert_eq!(
                    bits(&solver.potential(&rho)),
                    bits(&want.potential),
                    "potential {what}"
                );
            }
        }
    }

    #[test]
    fn three_transform_solve_is_bitwise_the_four_buffer_solve_on_every_tier() {
        assert_fields_match_four_buffer_solve::<f64>();
        assert_fields_match_four_buffer_solve::<f32>();
    }

    fn assert_spectral_energy_matches_summed_energy<T: Float>(tolerance: f64) {
        let (mx, my) = (16usize, 32usize);
        let g = grid_of::<T>(mx, my);
        let random = pseudo_random_map::<T>(mx * my);
        let shifted: Vec<T> = random.iter().map(|&r| r + T::from_f64(5.0)).collect();
        let (wu, wv) = (
            std::f64::consts::PI * 3.0 / mx as f64,
            std::f64::consts::PI * 5.0 / my as f64,
        );
        let single_mode: Vec<T> = (0..mx * my)
            .map(|k| {
                let (i, j) = ((k / my) as f64, (k % my) as f64);
                T::from_f64((wu * (i + 0.5)).cos() * (wv * (j + 0.5)).cos())
            })
            .collect();
        for kind in TIERS {
            let mut solver = ElectroField::new(&g, kind).expect("plan");
            for (name, rho) in [
                ("random", &random),
                ("dc-shifted", &shifted),
                ("single-mode", &single_mode),
            ] {
                let spectral = solver.solve(rho).energy.to_f64();
                let summed = 0.5
                    * rho
                        .iter()
                        .zip(&solver.potential(rho))
                        .map(|(&r, &p)| r.to_f64() * p.to_f64())
                        .sum::<f64>();
                assert!(summed > 0.0, "{kind} {name}");
                assert!(
                    ((spectral - summed) / summed).abs() < tolerance,
                    "{kind} {name} {}: spectral {spectral:e} vs summed {summed:e}",
                    T::PRECISION_NAME
                );
            }
            let uniform = solver
                .solve(&vec![T::from_f64(3.5); mx * my])
                .energy
                .to_f64();
            assert!(uniform.abs() < 1e-9, "{kind} uniform: {uniform:e}");
        }
    }

    #[test]
    fn spectral_energy_is_half_sum_rho_psi() {
        assert_spectral_energy_matches_summed_energy::<f64>(1e-12);
        assert_spectral_energy_matches_summed_energy::<f32>(1e-5);
    }

    #[test]
    fn non_finite_density_bin_gives_non_finite_energy() {
        // `DivergenceCause::NonFiniteCost` reads nothing but the energy's
        // finiteness; a poisoned bin must still reach it without the
        // potential map in between.
        let g = grid(16);
        for kind in TIERS {
            let mut solver = ElectroField::new(&g, kind).expect("plan");
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, 37, 255] {
                    let mut rho = pseudo_random_map::<f64>(256);
                    rho[at] = poison;
                    let energy = solver.solve(&rho).energy;
                    assert!(
                        !energy.is_finite(),
                        "{kind}: {poison} at {at} gave {energy}"
                    );
                }
            }
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
