//! Polak-Ribiere+ nonlinear conjugate gradient.
//!
//! The paper lists the conjugate gradient method among the solvers the
//! framework provides (§I contribution 2, §II-C). This implementation uses
//! the PR+ beta with automatic restart on non-descent directions and the
//! same two-point Lipschitz step estimate as the Nesterov engine.

use dp_num::Float;

use crate::{inf_norm, ObjectiveFn, Optimizer, OptimizerSnapshot, SnapshotMismatch, StepInfo};

/// Nonlinear CG (Polak-Ribiere+ with restarts).
///
/// # Examples
///
/// ```
/// use dp_optim::{ConjugateGradient, Optimizer};
///
/// let mut f = |p: &[f64], g: &mut [f64]| {
///     g[0] = 2.0 * p[0];
///     g[1] = 8.0 * p[1];
///     p[0] * p[0] + 4.0 * p[1] * p[1]
/// };
/// let mut opt = ConjugateGradient::new(2, 0.05);
/// let mut p = vec![5.0, -3.0];
/// for _ in 0..100 {
///     opt.step(&mut f, &mut p);
/// }
/// assert!(p[0].abs() < 1e-2 && p[1].abs() < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct ConjugateGradient<T> {
    initial_step: T,
    alpha: T,
    g_prev: Option<Vec<T>>,
    d_prev: Option<Vec<T>>,
    p_prev: Option<Vec<T>>,
}

impl<T: Float> ConjugateGradient<T> {
    /// Creates a CG solver for `n` parameters with the given initial step.
    ///
    /// # Panics
    ///
    /// Panics if `initial_step` is not strictly positive.
    pub fn new(_n: usize, initial_step: T) -> Self {
        assert!(initial_step > T::ZERO, "initial step must be positive");
        Self {
            initial_step,
            alpha: initial_step,
            g_prev: None,
            d_prev: None,
            p_prev: None,
        }
    }
}

impl<T: Float> Optimizer<T> for ConjugateGradient<T> {
    fn step(&mut self, f: &mut dyn ObjectiveFn<T>, params: &mut [T]) -> StepInfo<T> {
        let n = params.len();
        let mut g = vec![T::ZERO; n];
        let cost = f.eval(params, &mut g);
        let grad_norm = inf_norm(&g);

        // Two-point Lipschitz step estimate, like the Nesterov engine.
        if let (Some(gp), Some(pp)) = (&self.g_prev, &self.p_prev) {
            let mut dp = T::ZERO;
            let mut dg = T::ZERO;
            for i in 0..n {
                let a = params[i] - pp[i];
                let b = g[i] - gp[i];
                dp += a * a;
                dg += b * b;
            }
            if dg > T::MIN_POSITIVE {
                self.alpha = (dp.sqrt() / dg.sqrt()).min(self.alpha * T::TWO);
            }
        }

        // PR+ beta.
        let beta = match &self.g_prev {
            Some(gp) => {
                let mut num = T::ZERO;
                let mut den = T::ZERO;
                for i in 0..n {
                    num += g[i] * (g[i] - gp[i]);
                    den += gp[i] * gp[i];
                }
                if den > T::MIN_POSITIVE {
                    (num / den).max(T::ZERO)
                } else {
                    T::ZERO
                }
            }
            None => T::ZERO,
        };

        // Direction with restart when it fails to descend.
        let mut d = vec![T::ZERO; n];
        let mut descent = T::ZERO;
        match &self.d_prev {
            Some(dp) => {
                for i in 0..n {
                    d[i] = -g[i] + beta * dp[i];
                    descent += d[i] * g[i];
                }
                if descent >= T::ZERO {
                    for i in 0..n {
                        d[i] = -g[i];
                    }
                }
            }
            None => {
                for i in 0..n {
                    d[i] = -g[i];
                }
            }
        }

        self.p_prev = Some(params.to_vec());
        for i in 0..n {
            params[i] += self.alpha * d[i];
        }
        self.g_prev = Some(g);
        self.d_prev = Some(d);

        StepInfo {
            cost,
            grad_norm,
            step_size: self.alpha,
            backtracks: 0,
            lookahead: -T::ONE,
        }
    }

    fn reset(&mut self) {
        self.alpha = self.initial_step;
        self.g_prev = None;
        self.d_prev = None;
        self.p_prev = None;
    }

    fn name(&self) -> &'static str {
        "conjugate-gradient"
    }

    fn snapshot_into(&self, out: &mut OptimizerSnapshot<T>) {
        if !matches!(out, OptimizerSnapshot::ConjugateGradient { .. }) {
            *out = OptimizerSnapshot::ConjugateGradient {
                alpha: T::ZERO,
                g_prev: None,
                d_prev: None,
                p_prev: None,
            };
        }
        if let OptimizerSnapshot::ConjugateGradient {
            alpha,
            g_prev,
            d_prev,
            p_prev,
        } = out
        {
            *alpha = self.alpha;
            g_prev.clone_from(&self.g_prev);
            d_prev.clone_from(&self.d_prev);
            p_prev.clone_from(&self.p_prev);
        }
    }

    fn restore(&mut self, snapshot: &OptimizerSnapshot<T>) -> Result<(), SnapshotMismatch> {
        match snapshot {
            OptimizerSnapshot::ConjugateGradient {
                alpha,
                g_prev,
                d_prev,
                p_prev,
            } => {
                self.alpha = *alpha;
                self.g_prev = g_prev.clone();
                self.d_prev = d_prev.clone();
                self.p_prev = p_prev.clone();
                Ok(())
            }
            other => Err(SnapshotMismatch {
                snapshot_engine: other.engine(),
                target_engine: self.name(),
            }),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn beats_plain_gd_on_ill_conditioned_quadratic() {
        let mut f = |p: &[f64], g: &mut [f64]| {
            g[0] = p[0];
            g[1] = 50.0 * p[1];
            0.5 * p[0] * p[0] + 25.0 * p[1] * p[1]
        };
        let mut cg = ConjugateGradient::new(2, 0.01);
        let mut p = vec![10.0, 10.0];
        for _ in 0..200 {
            cg.step(&mut f, &mut p);
        }
        let cost_cg = 0.5 * p[0] * p[0] + 25.0 * p[1] * p[1];
        assert!(cost_cg < 1e-3, "{p:?}");
    }

    #[test]
    fn restart_on_ascent_direction() {
        // A sign-flipping gradient would corrupt the direction without the
        // PR+ clamp and restart; convergence shows they work.
        let mut f = |p: &[f64], g: &mut [f64]| {
            g[0] = p[0].signum() * p[0].abs().sqrt().max(1e-3);
            p[0].abs()
        };
        let mut cg = ConjugateGradient::new(1, 0.5);
        let mut p = vec![4.0];
        for _ in 0..200 {
            cg.step(&mut f, &mut p);
        }
        assert!(p[0].abs() < 1.0, "{p:?}");
    }

    #[test]
    fn reset_clears_state() {
        let (mut f, _) = crate::tests::quadratic_bowl();
        let mut cg = ConjugateGradient::new(4, 0.05);
        let mut p = vec![0.0; 4];
        cg.step(&mut f, &mut p);
        cg.reset();
        assert!(cg.g_prev.is_none() && cg.d_prev.is_none());
    }
}
