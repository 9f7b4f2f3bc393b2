//! SGD with classical momentum, the second toolkit solver of Table IV.

use dp_num::Float;

use crate::{inf_norm, ObjectiveFn, Optimizer, OptimizerSnapshot, SnapshotMismatch, StepInfo};

/// SGD with momentum and optional per-step learning-rate decay.
///
/// # Examples
///
/// ```
/// use dp_optim::{Optimizer, SgdMomentum};
///
/// let mut f = |p: &[f64], g: &mut [f64]| {
///     g[0] = 2.0 * p[0];
///     p[0] * p[0]
/// };
/// let mut opt = SgdMomentum::new(1, 0.05);
/// let mut p = vec![4.0];
/// for _ in 0..200 {
///     opt.step(&mut f, &mut p);
/// }
/// assert!(p[0].abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct SgdMomentum<T> {
    lr0: T,
    lr: T,
    momentum: T,
    decay: T,
    velocity: Vec<T>,
}

impl<T: Float> SgdMomentum<T> {
    /// Creates SGD for `n` parameters with learning rate `lr` and the
    /// default momentum 0.9.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(n: usize, lr: T) -> Self {
        assert!(lr > T::ZERO, "learning rate must be positive");
        Self {
            lr0: lr,
            lr,
            momentum: T::from_f64(0.9),
            decay: T::ONE,
            velocity: vec![T::ZERO; n],
        }
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: T) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the multiplicative learning-rate decay applied after each step.
    pub fn with_decay(mut self, decay: T) -> Self {
        self.decay = decay;
        self
    }

    /// The current (decayed) learning rate.
    pub fn learning_rate(&self) -> T {
        self.lr
    }
}

impl<T: Float> Optimizer<T> for SgdMomentum<T> {
    fn step(&mut self, f: &mut dyn ObjectiveFn<T>, params: &mut [T]) -> StepInfo<T> {
        assert_eq!(
            params.len(),
            self.velocity.len(),
            "parameter length changed"
        );
        let mut g = vec![T::ZERO; params.len()];
        let cost = f.eval(params, &mut g);
        for i in 0..params.len() {
            self.velocity[i] = self.momentum * self.velocity[i] + g[i];
            params[i] -= self.lr * self.velocity[i];
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
        self.lr = self.lr0;
        self.velocity.iter_mut().for_each(|x| *x = T::ZERO);
    }

    fn name(&self) -> &'static str {
        "sgd-momentum"
    }

    fn snapshot_into(&self, out: &mut OptimizerSnapshot<T>) {
        if !matches!(out, OptimizerSnapshot::SgdMomentum { .. }) {
            *out = OptimizerSnapshot::default();
        }
        if let OptimizerSnapshot::SgdMomentum { lr, velocity } = out {
            *lr = self.lr;
            velocity.clone_from(&self.velocity);
        }
    }

    fn restore(&mut self, snapshot: &OptimizerSnapshot<T>) -> Result<(), SnapshotMismatch> {
        match snapshot {
            OptimizerSnapshot::SgdMomentum { lr, velocity } => {
                self.lr = *lr;
                self.velocity = velocity.clone();
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
    fn momentum_accelerates_along_valleys() {
        // Narrow valley: slow axis benefits from momentum accumulation.
        let mut f = |p: &[f64], g: &mut [f64]| {
            g[0] = 0.02 * p[0];
            g[1] = 2.0 * p[1];
            0.01 * p[0] * p[0] + p[1] * p[1]
        };
        let lr = 0.4;
        let mut with = SgdMomentum::new(2, lr);
        let mut without = SgdMomentum::new(2, lr).with_momentum(0.0);
        let mut pw = vec![100.0, 1.0];
        let mut po = pw.clone();
        for _ in 0..150 {
            with.step(&mut f, &mut pw);
            without.step(&mut f, &mut po);
        }
        assert!(pw[0].abs() < po[0].abs(), "momentum {pw:?} vs plain {po:?}");
    }

    #[test]
    fn decay_and_reset() {
        let mut f = |_: &[f64], g: &mut [f64]| {
            g[0] = 0.0;
            0.0
        };
        let mut opt = SgdMomentum::new(1, 2.0).with_decay(0.5);
        let mut p = vec![0.0];
        opt.step(&mut f, &mut p);
        assert_eq!(opt.learning_rate(), 1.0);
        opt.reset();
        assert_eq!(opt.learning_rate(), 2.0);
    }
}
