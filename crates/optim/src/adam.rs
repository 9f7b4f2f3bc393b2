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
    beta1: T,
    beta2: T,
    eps: T,
    decay: T,
    state: AdamState<T>,
}

solver_state! {
    /// The resumable state of [`Adam`], wrapped by
    /// [`OptimizerSnapshot::Adam`].
    AdamState {
        /// Current (decayed) learning rate.
        lr: T,
        /// Step counter for bias correction.
        t: u32,
        /// First-moment estimate.
        m: Vec<T>,
        /// Second-moment estimate.
        v: Vec<T>,
    }
}

impl<T: Float> AdamState<T> {
    fn new(n: usize, lr: T) -> Self {
        Self {
            lr,
            t: 0,
            m: vec![T::ZERO; n],
            v: vec![T::ZERO; n],
        }
    }
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
            beta1: T::from_f64(0.9),
            beta2: T::from_f64(0.999),
            eps: T::from_f64(1e-8),
            decay: T::ONE,
            state: AdamState::new(n, lr),
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
        self.state.lr
    }
}

impl<T: Float> Optimizer<T> for Adam<T> {
    fn step(&mut self, f: &mut dyn ObjectiveFn<T>, params: &mut [T]) -> StepInfo<T> {
        let s = &mut self.state;
        assert_eq!(params.len(), s.m.len(), "parameter length changed");
        let mut g = vec![T::ZERO; params.len()];
        let cost = f.eval(params, &mut g);
        s.t += 1;
        let b1t = self.beta1.powi(s.t as i32);
        let b2t = self.beta2.powi(s.t as i32);
        for i in 0..params.len() {
            s.m[i] = self.beta1 * s.m[i] + (T::ONE - self.beta1) * g[i];
            s.v[i] = self.beta2 * s.v[i] + (T::ONE - self.beta2) * g[i] * g[i];
            let m_hat = s.m[i] / (T::ONE - b1t);
            let v_hat = s.v[i] / (T::ONE - b2t);
            params[i] -= s.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        let info = StepInfo {
            cost,
            grad_norm: inf_norm(&g),
            step_size: s.lr,
            backtracks: 0,
            lookahead: -T::ONE,
        };
        s.lr *= self.decay;
        info
    }

    fn reset(&mut self) {
        self.state = AdamState::new(self.state.m.len(), self.lr0);
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn snapshot_into(&self, out: &mut OptimizerSnapshot<T>) {
        match out {
            OptimizerSnapshot::Adam(s) => s.clone_from(&self.state),
            _ => *out = OptimizerSnapshot::Adam(self.state.clone()),
        }
    }

    fn restore(&mut self, snapshot: &OptimizerSnapshot<T>) -> Result<(), SnapshotMismatch> {
        match snapshot {
            OptimizerSnapshot::Adam(s) => self.state.clone_from(s),
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
