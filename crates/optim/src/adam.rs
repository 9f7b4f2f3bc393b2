//! Adam (Kingma-Ba), the toolkit solver the paper compares in Table IV.

use dp_num::Float;

use crate::{inf_norm, ObjectiveFn, Optimizer, OptimizerSnapshot, SnapshotMismatch, StepInfo};

/// Adam with bias correction and optional per-step learning-rate decay.
///
/// The paper's Table IV runs Adam with a per-design decay factor (0.995 or
/// 0.997) because the toolkit solvers have no line search; `with_decay`
/// reproduces that knob.
///
/// # Examples
///
/// ```
/// use dp_optim::{Adam, Optimizer};
///
/// let mut f = |p: &[f64], g: &mut [f64]| {
///     g[0] = 2.0 * p[0];
///     p[0] * p[0]
/// };
/// let mut opt = Adam::new(1, 0.1);
/// let mut p = vec![3.0];
/// for _ in 0..300 {
///     opt.step(&mut f, &mut p);
/// }
/// assert!(p[0].abs() < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct Adam<T> {
    lr0: T,
    lr: T,
    beta1: T,
    beta2: T,
    eps: T,
    decay: T,
    t: u32,
    m: Vec<T>,
    v: Vec<T>,
}

impl<T: Float> Adam<T> {
    /// Creates Adam for `n` parameters with learning rate `lr` and the
    /// standard defaults (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(n: usize, lr: T) -> Self {
        assert!(lr > T::ZERO, "learning rate must be positive");
        Self {
            lr0: lr,
            lr,
            beta1: T::from_f64(0.9),
            beta2: T::from_f64(0.999),
            eps: T::from_f64(1e-8),
            decay: T::ONE,
            t: 0,
            m: vec![T::ZERO; n],
            v: vec![T::ZERO; n],
        }
    }

    /// Sets the multiplicative learning-rate decay applied after each step
    /// (Table IV's "LR Decay" column).
    pub fn with_decay(mut self, decay: T) -> Self {
        self.decay = decay;
        self
    }

    /// The current (decayed) learning rate.
    pub fn learning_rate(&self) -> T {
        self.lr
    }
}

impl<T: Float> Optimizer<T> for Adam<T> {
    fn step(&mut self, f: &mut dyn ObjectiveFn<T>, params: &mut [T]) -> StepInfo<T> {
        assert_eq!(params.len(), self.m.len(), "parameter length changed");
        let mut g = vec![T::ZERO; params.len()];
        let cost = f.eval(params, &mut g);
        self.t += 1;
        let b1t = self.beta1.powi(self.t as i32);
        let b2t = self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (T::ONE - self.beta1) * g[i];
            self.v[i] = self.beta2 * self.v[i] + (T::ONE - self.beta2) * g[i] * g[i];
            let m_hat = self.m[i] / (T::ONE - b1t);
            let v_hat = self.v[i] / (T::ONE - b2t);
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        let info = StepInfo {
            cost,
            grad_norm: inf_norm(&g),
            step_size: self.lr,
            backtracks: 0,
            lookahead: -T::ONE,
        };
        self.lr *= self.decay;
        info
    }

    fn reset(&mut self) {
        self.t = 0;
        self.lr = self.lr0;
        self.m.iter_mut().for_each(|x| *x = T::ZERO);
        self.v.iter_mut().for_each(|x| *x = T::ZERO);
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn snapshot_into(&self, out: &mut OptimizerSnapshot<T>) {
        if !matches!(out, OptimizerSnapshot::Adam { .. }) {
            *out = OptimizerSnapshot::Adam {
                lr: T::ZERO,
                t: 0,
                m: Vec::new(),
                v: Vec::new(),
            };
        }
        if let OptimizerSnapshot::Adam { lr, t, m, v } = out {
            *lr = self.lr;
            *t = self.t;
            m.clone_from(&self.m);
            v.clone_from(&self.v);
        }
    }

    fn restore(&mut self, snapshot: &OptimizerSnapshot<T>) -> Result<(), SnapshotMismatch> {
        match snapshot {
            OptimizerSnapshot::Adam { lr, t, m, v } => {
                self.lr = *lr;
                self.t = *t;
                self.m = m.clone();
                self.v = v.clone();
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
    fn decay_shrinks_learning_rate() {
        let mut f = |_: &[f64], g: &mut [f64]| {
            g[0] = 1.0;
            0.0
        };
        let mut opt = Adam::new(1, 1.0).with_decay(0.9);
        let mut p = vec![0.0];
        opt.step(&mut f, &mut p);
        assert!((opt.learning_rate() - 0.9).abs() < 1e-12);
        opt.step(&mut f, &mut p);
        assert!((opt.learning_rate() - 0.81).abs() < 1e-12);
        opt.reset();
        assert_eq!(opt.learning_rate(), 1.0);
    }

    #[test]
    fn handles_sparse_gradients_gracefully() {
        // Adam's per-coordinate scaling shines with uneven gradients.
        let mut f = |p: &[f64], g: &mut [f64]| {
            g[0] = 1e-3 * p[0];
            g[1] = 1e3 * p[1];
            0.5e-3 * p[0] * p[0] + 0.5e3 * p[1] * p[1]
        };
        let mut opt = Adam::new(2, 0.5);
        let mut p = vec![100.0, 100.0];
        for _ in 0..1500 {
            opt.step(&mut f, &mut p);
        }
        assert!(p[0].abs() < 1.0, "{p:?}");
        assert!(p[1].abs() < 1.0, "{p:?}");
    }

    #[test]
    fn bias_correction_gives_full_first_step() {
        let mut f = |_: &[f64], g: &mut [f64]| {
            g[0] = 4.0;
            0.0
        };
        let mut opt = Adam::new(1, 0.1);
        let mut p = vec![0.0];
        opt.step(&mut f, &mut p);
        // With bias correction, the first update is ~lr * sign(g).
        assert!((p[0] + 0.1).abs() < 1e-6, "{p:?}");
    }
}
