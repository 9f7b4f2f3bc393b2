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
    momentum: T,
    decay: T,
    state: SgdState<T>,
}

solver_state! {
    /// The resumable state of [`SgdMomentum`], wrapped by
    /// [`OptimizerSnapshot::SgdMomentum`].
    SgdState {
        /// Current (decayed) learning rate.
        lr: T,
        /// Velocity accumulator.
        velocity: Vec<T>,
    }
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
            momentum: T::from_f64(0.9),
            decay: T::ONE,
            state: SgdState {
                lr,
                velocity: vec![T::ZERO; n],
            },
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
        self.state.lr
    }
}

impl<T: Float> Optimizer<T> for SgdMomentum<T> {
    fn step(&mut self, f: &mut dyn ObjectiveFn<T>, params: &mut [T]) -> StepInfo<T> {
        let s = &mut self.state;
        assert_eq!(params.len(), s.velocity.len(), "parameter length changed");
        let mut g = vec![T::ZERO; params.len()];
        let cost = f.eval(params, &mut g);
        for i in 0..params.len() {
            s.velocity[i] = self.momentum * s.velocity[i] + g[i];
            params[i] -= s.lr * s.velocity[i];
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
        let n = self.state.velocity.len();
        self.state = SgdState {
            lr: self.lr0,
            velocity: vec![T::ZERO; n],
        };
    }

    fn name(&self) -> &'static str {
        "sgd-momentum"
    }

    fn snapshot_into(&self, out: &mut OptimizerSnapshot<T>) {
        match out {
            OptimizerSnapshot::SgdMomentum(s) => s.clone_from(&self.state),
            _ => *out = OptimizerSnapshot::SgdMomentum(self.state.clone()),
        }
    }

    fn restore(&mut self, snapshot: &OptimizerSnapshot<T>) -> Result<(), SnapshotMismatch> {
        match snapshot {
            OptimizerSnapshot::SgdMomentum(s) => self.state.clone_from(s),
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
