//! Nesterov's accelerated gradient with Lipschitz step prediction — the
//! ePlace/RePlAce solver the paper adopts (§III-D).
//!
//! The scheme maintains a *major* sequence `u_k` and a *reference* sequence
//! `v_k`. Each iteration descends from the reference point and extrapolates:
//!
//! ```text
//! u_{k+1} = v_k - alpha_k * grad f(v_k)
//! a_{k+1} = (1 + sqrt(4 a_k^2 + 1)) / 2
//! v_{k+1} = u_{k+1} + (a_k - 1)/a_{k+1} * (u_{k+1} - u_k)
//! ```
//!
//! The step size is predicted from the local inverse Lipschitz estimate
//! `alpha = |v_k - v_{k-1}| / |grad(v_k) - grad(v_{k-1})|` and corrected by
//! a bounded backtracking loop: if the prediction exceeds the estimate at
//! the tentative new reference point, the step is retried with the tighter
//! value (at most [`NesterovOptimizer::with_max_backtracks`] times, ePlace
//! uses a similarly small constant). A pair of equal points, like a pair of
//! equal gradients, predicts nothing and leaves the step size as it was.
//!
//! A step therefore calls the objective once at `v_k` and once per tentative
//! `v_{k+1}`; the last tentative point *is* the next step's `v_{k+1}`, so the
//! next step's opening call revisits a point the objective has just seen. The
//! solver does not keep that gradient itself — the objective may have changed
//! in between (the placer updates `lambda` and `gamma` after every step) — and
//! leaves it to the objective to answer the revisit cheaply; the global
//! placement engine does, from its memo of the last evaluated point.
//!
//! Stepping allocates nothing after the first two steps. The tentative `u`
//! is written straight into the caller's `params`; the tentative `v` and the
//! probe gradient take the storage of `v_{k-1}` and `grad(v_{k-1})`, which
//! are dead once the step size is predicted; and the opening gradient uses
//! the one buffer the solver keeps beside its state, which the displaced
//! probe gradient refills.

use dp_num::Float;

use crate::{inf_norm, ObjectiveFn, Optimizer, OptimizerSnapshot, SnapshotMismatch, StepInfo};

/// The ePlace Nesterov solver; see the [module docs](self) and the
/// [crate example](crate).
#[derive(Debug, Clone)]
pub struct NesterovOptimizer<T> {
    initial_step: T,
    max_backtracks: usize,
    state: NesterovState<T>,
    /// Storage for the next step's opening gradient (the last step's probe
    /// gradient; its contents are dead between steps).
    g_buf: Vec<T>,
}

solver_state! {
    /// The resumable state of [`NesterovOptimizer`], wrapped by
    /// [`OptimizerSnapshot::Nesterov`].
    NesterovState {
        /// Momentum coefficient `a_k`.
        a: T,
        /// Current step size.
        alpha: T,
        /// Reference point `v_k` (lazily initialized to the incoming params).
        v: Option<Vec<T>>,
        /// Previous major point `u_{k-1}`.
        u_prev: Option<Vec<T>>,
        /// Gradient at the previous reference point.
        g_prev: Option<Vec<T>>,
        /// Previous reference point.
        v_prev: Option<Vec<T>>,
    }
}

impl<T: Float> NesterovState<T> {
    fn new(alpha: T) -> Self {
        Self {
            a: T::ONE,
            alpha,
            v: None,
            u_prev: None,
            g_prev: None,
            v_prev: None,
        }
    }
}

impl<T: Float> NesterovOptimizer<T> {
    /// Creates a solver for `n` parameters with the given initial step.
    ///
    /// # Panics
    ///
    /// Panics if `initial_step` is not strictly positive.
    pub fn new(_n: usize, initial_step: T) -> Self {
        assert!(initial_step > T::ZERO, "initial step must be positive");
        Self {
            initial_step,
            max_backtracks: 10,
            state: NesterovState::new(initial_step),
            g_buf: Vec::new(),
        }
    }

    /// Sets the backtracking bound (default 10).
    pub fn with_max_backtracks(mut self, n: usize) -> Self {
        self.max_backtracks = n.max(1);
        self
    }

    /// The current step size (diagnostic).
    pub fn step_size(&self) -> T {
        self.state.alpha
    }

    /// Lipschitz-based step prediction between two (point, gradient) pairs.
    /// `None` when the pair carries no curvature information: equal
    /// gradients, or equal points — the objective may change between steps
    /// (the placer raises `lambda` and moves `gamma`), so two different
    /// gradients at one point say nothing about curvature, and predicting
    /// `0 / |dg| = 0` from them would freeze the solver for good.
    fn lipschitz_step(v_new: &[T], v_old: &[T], g_new: &[T], g_old: &[T]) -> Option<T> {
        let mut dv = T::ZERO;
        let mut dg = T::ZERO;
        for i in 0..v_new.len() {
            let a = v_new[i] - v_old[i];
            let b = g_new[i] - g_old[i];
            dv += a * a;
            dg += b * b;
        }
        let dg = dg.sqrt();
        if dg <= T::MIN_POSITIVE || dv <= T::ZERO {
            None
        } else {
            Some(dv.sqrt() / dg)
        }
    }
}

impl<T: Float> Optimizer<T> for NesterovOptimizer<T> {
    fn step(&mut self, f: &mut dyn ObjectiveFn<T>, params: &mut [T]) -> StepInfo<T> {
        let n = params.len();
        let s = &mut self.state;
        let v = s.v.get_or_insert_with(|| params.to_vec());
        assert_eq!(v.len(), n, "parameter length changed between steps");

        // Zero-filled like a fresh vector, in case `f` writes sparsely.
        let mut g = std::mem::take(&mut self.g_buf);
        g.clear();
        g.resize(n, T::ZERO);
        let cost = f.eval(v, &mut g);
        let grad_norm = inf_norm(&g);

        // Predict the step size from the previous reference/gradient pair.
        if let (Some(vp), Some(gp)) = (&s.v_prev, &s.g_prev) {
            if let Some(a) = Self::lipschitz_step(v, vp, &g, gp) {
                s.alpha = a;
            }
        }

        let u_prev: &[T] = s.u_prev.as_deref().unwrap_or(v);
        let a_next = (T::ONE + (T::from_f64(4.0) * s.a * s.a + T::ONE).sqrt()) * T::HALF;
        let coef = (s.a - T::ONE) / a_next;

        let mut backtracks = 0usize;
        let mut alpha = s.alpha;
        // The tentative reference point and the gradient there, in the
        // storage of the pair the prediction above was the last to read.
        // Every backtracking round overwrites `params` and `v_new` in full.
        let mut v_new = s.v_prev.take().unwrap_or_default();
        let mut g_new = s.g_prev.take().unwrap_or_default();
        v_new.resize(n, T::ZERO);
        g_new.clear();
        g_new.resize(n, T::ZERO);
        loop {
            for i in 0..n {
                params[i] = v[i] - alpha * g[i];
                v_new[i] = params[i] + coef * (params[i] - u_prev[i]);
            }
            if backtracks >= self.max_backtracks {
                break;
            }
            // Evaluate the Lipschitz estimate at the tentative point; accept
            // when the applied step does not exceed it (with 5% slack).
            let _ = f.eval(&v_new, &mut g_new);
            match Self::lipschitz_step(&v_new, v, &g_new, &g) {
                Some(a_hat) if alpha > a_hat * T::from_f64(1.05) && a_hat > T::ZERO => {
                    alpha = a_hat;
                    backtracks += 1;
                }
                _ => break,
            }
        }
        s.alpha = alpha;

        match &mut s.u_prev {
            Some(u) => u.copy_from_slice(params),
            None => s.u_prev = Some(params.to_vec()),
        }
        s.v_prev = Some(std::mem::replace(v, v_new));
        s.g_prev = Some(g);
        self.g_buf = g_new;
        s.a = a_next;

        StepInfo {
            cost,
            grad_norm,
            step_size: alpha,
            backtracks,
            lookahead: coef,
        }
    }

    fn reset(&mut self) {
        self.state = NesterovState::new(self.initial_step);
    }

    fn name(&self) -> &'static str {
        "nesterov"
    }

    fn snapshot_into(&self, out: &mut OptimizerSnapshot<T>) {
        match out {
            OptimizerSnapshot::Nesterov(s) => s.clone_from(&self.state),
            _ => *out = OptimizerSnapshot::Nesterov(self.state.clone()),
        }
    }

    fn restore(&mut self, snapshot: &OptimizerSnapshot<T>) -> Result<(), SnapshotMismatch> {
        match snapshot {
            OptimizerSnapshot::Nesterov(s) => self.state.clone_from(s),
            other => return Err(other.mismatch(self.name())),
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic_faster_than_plain_gd() {
        // f(x) = 0.5 * x^T diag(1, 100) x — ill-conditioned.
        let mut f = |p: &[f64], g: &mut [f64]| -> f64 {
            g[0] = p[0];
            g[1] = 100.0 * p[1];
            0.5 * (p[0] * p[0] + 100.0 * p[1] * p[1])
        };
        let mut nesterov = NesterovOptimizer::new(2, 0.005);
        let mut p = vec![10.0, 1.0];
        for _ in 0..300 {
            nesterov.step(&mut f, &mut p);
        }
        let cost_nesterov = 0.5 * (p[0] * p[0] + 100.0 * p[1] * p[1]);

        // Plain GD with the stable fixed step 1/L = 0.01.
        let mut q = [10.0f64, 1.0];
        for _ in 0..300 {
            let g = [q[0], 100.0 * q[1]];
            q[0] -= 0.005 * g[0];
            q[1] -= 0.005 * g[1];
        }
        let cost_gd = 0.5 * (q[0] * q[0] + 100.0 * q[1] * q[1]);
        assert!(cost_nesterov < cost_gd, "{cost_nesterov} vs {cost_gd}");
        assert!(cost_nesterov < 1e-3, "nesterov cost {cost_nesterov}");
    }

    #[test]
    fn adapts_step_size_to_curvature() {
        let mut f = |p: &[f64], g: &mut [f64]| -> f64 {
            g[0] = 200.0 * p[0];
            100.0 * p[0] * p[0]
        };
        // Deliberately huge initial step: backtracking must tame it.
        let mut opt = NesterovOptimizer::new(1, 10.0);
        let mut p = vec![1.0];
        let info = opt.step(&mut f, &mut p);
        assert!(info.backtracks > 0, "{info:?}");
        assert!(info.step_size < 0.1, "{info:?}");
        for _ in 0..100 {
            opt.step(&mut f, &mut p);
        }
        assert!(p[0].abs() < 1e-4, "{p:?}");
    }

    /// A step too small to move the iterate (`v - alpha * g == v`) followed
    /// by a changed objective — what a placement started at a wirelength
    /// optimum sees when `lambda` and `gamma` move — must not predict a zero
    /// step from the zero displacement.
    #[test]
    fn zero_displacement_does_not_trap_the_step_size() {
        let calls = std::cell::Cell::new(0);
        let mut f = |p: &[f64], g: &mut [f64]| -> f64 {
            let k = if calls.get() < 2 { 1e-30 } else { 1.0 };
            calls.set(calls.get() + 1);
            g[0] = k * p[0];
            0.5 * k * p[0] * p[0]
        };
        let mut opt = NesterovOptimizer::new(1, 1.0);
        let mut p = vec![1e3];
        opt.step(&mut f, &mut p);
        assert_eq!(p[0], 1e3, "1e3 - 1e-27 rounds back to 1e3");
        for _ in 0..50 {
            let info = opt.step(&mut f, &mut p);
            assert!(info.step_size > 0.0, "{info:?}");
        }
        assert!(p[0].abs() < 1.0, "{p:?}");
    }

    #[test]
    fn reset_restores_first_step_behaviour() {
        let (mut f, _) = crate::tests::quadratic_bowl();
        let mut opt = NesterovOptimizer::new(4, 0.05);
        let mut p = vec![0.0; 4];
        for _ in 0..5 {
            opt.step(&mut f, &mut p);
        }
        opt.reset();
        assert_eq!(opt.step_size(), 0.05);
        // After reset, continued optimization still converges.
        for _ in 0..200 {
            opt.step(&mut f, &mut p);
        }
        assert!((p[1] + 2.0).abs() < 1e-2);
    }

    #[test]
    fn survives_rosenbrock() {
        let mut p = vec![-1.2, 1.0];
        let mut opt = NesterovOptimizer::new(2, 1e-3);
        let mut f = crate::tests::rosenbrock;
        for _ in 0..2000 {
            opt.step(&mut f, &mut p);
        }
        // Rosenbrock is hard; just require substantial progress toward (1,1).
        let mut g = vec![0.0; 2];
        let cost = crate::tests::rosenbrock(&p, &mut g);
        assert!(cost < 1.0, "cost {cost} at {p:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_step() {
        let _ = NesterovOptimizer::<f64>::new(2, 0.0);
    }
}
