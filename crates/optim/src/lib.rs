//! Gradient-descent engines for nonlinear placement (paper §III-D).
//!
//! ePlace/RePlAce drive global placement with Nesterov's accelerated method
//! plus a Lipschitz-constant step prediction; DREAMPlace additionally
//! exposes the toolkit's native solvers (Adam, SGD with momentum) which the
//! paper compares in Table IV. All four engines here operate on a flat
//! parameter vector through the [`ObjectiveFn`] callback, so they are
//! independent of placement specifics and unit-testable on analytic
//! functions.
//!
//! * [`NesterovOptimizer`] — the ePlace scheme: major/reference sequences,
//!   step size predicted from the local Lipschitz estimate
//!   `|v_k - v_{k-1}| / |grad(v_k) - grad(v_{k-1})|` with bounded
//!   backtracking;
//! * [`Adam`] — Kingma-Ba with optional per-step learning-rate decay
//!   (the "LR Decay" column of Table IV);
//! * [`SgdMomentum`] — classical momentum with the same decay hook;
//! * [`ConjugateGradient`] — Polak-Ribiere+ nonlinear CG with automatic
//!   restarts, the third solver family the paper lists.
//!
//! # Examples
//!
//! ```
//! use dp_optim::{NesterovOptimizer, Optimizer};
//!
//! // Minimize f(p) = sum (p_i - i)^2.
//! let mut f = |p: &[f64], g: &mut [f64]| -> f64 {
//!     let mut cost = 0.0;
//!     for (i, (pi, gi)) in p.iter().zip(g.iter_mut()).enumerate() {
//!         let d = pi - i as f64;
//!         cost += d * d;
//!         *gi = 2.0 * d;
//!     }
//!     cost
//! };
//! let mut params = vec![5.0, 5.0, 5.0];
//! let mut opt = NesterovOptimizer::new(3, 0.1);
//! for _ in 0..60 {
//!     opt.step(&mut f, &mut params);
//! }
//! assert!((params[0] - 0.0).abs() < 1e-3);
//! assert!((params[2] - 2.0).abs() < 1e-3);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Declares an engine's resumable state: the struct the engine steps and
/// its [`OptimizerSnapshot`] variant wraps. Its `Clone::clone_from` reuses
/// every vector's allocation, which a derived one does not, so capturing
/// into an old snapshot of the same kind allocates nothing.
macro_rules! solver_state {
    ($(#[$m:meta])* $name:ident { $($(#[$fm:meta])* $f:ident: $t:ty,)* }) => {
        $(#[$m])*
        #[derive(Debug, PartialEq)]
        pub struct $name<T> {
            $($(#[$fm])* pub $f: $t,)*
        }

        impl<T: Clone> Clone for $name<T> {
            fn clone(&self) -> Self {
                Self { $($f: self.$f.clone(),)* }
            }

            fn clone_from(&mut self, source: &Self) {
                $(self.$f.clone_from(&source.$f);)*
            }
        }
    };
}

pub mod adam;
pub mod cg;
pub mod nesterov;
pub mod sgd;

pub use adam::{Adam, AdamState};
pub use cg::{CgState, ConjugateGradient};
pub use nesterov::{NesterovOptimizer, NesterovState};
pub use sgd::{SgdMomentum, SgdState};

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod snapshot_tests;

use dp_num::Float;

/// A differentiable objective over a flat parameter vector.
///
/// `eval` writes the gradient into `grad` (overwriting, not accumulating)
/// and returns the cost. Implemented for any
/// `FnMut(&[T], &mut [T]) -> T` closure.
pub trait ObjectiveFn<T: Float> {
    /// Evaluates cost and gradient at `params`.
    fn eval(&mut self, params: &[T], grad: &mut [T]) -> T;
}

impl<T: Float, F: FnMut(&[T], &mut [T]) -> T> ObjectiveFn<T> for F {
    fn eval(&mut self, params: &[T], grad: &mut [T]) -> T {
        self(params, grad)
    }
}

/// Diagnostics returned by one optimizer step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo<T> {
    /// Objective value at the evaluation point of this step.
    pub cost: T,
    /// Infinity norm of the gradient at that point.
    pub grad_norm: T,
    /// The step size actually applied.
    pub step_size: T,
    /// Number of backtracking retries (Nesterov only; 0 otherwise).
    pub backtracks: usize,
    /// Where the point the objective evaluated last lies relative to the
    /// step just taken, as the `c` of `u_new + c·(u_new − u_old)`:
    /// Nesterov's momentum coefficient (its last evaluation is the
    /// extrapolated reference point), `−1` for the solvers whose only
    /// evaluation is the point they step from.
    pub lookahead: T,
}

impl<T: Float> StepInfo<T> {
    /// `true` when both the cost and the gradient norm are finite — the
    /// engine's cheapest divergence tripwire. The engines compute
    /// `grad_norm` with a NaN-propagating infinity norm, so any
    /// non-finite gradient component surfaces here without rescanning
    /// the vector.
    pub fn is_healthy(&self) -> bool {
        self.cost.is_finite() && self.grad_norm.is_finite()
    }
}

/// Engine-tagged state of an optimizer, captured by [`Optimizer::snapshot`]
/// and reinstated by [`Optimizer::restore`]. Each variant wraps the struct
/// its engine steps, so a capture is a clone of that struct and a restore
/// clones it back.
///
/// The global placer checkpoints this alongside cell positions so a
/// diverging run can roll back to the last good iterate with the solver's
/// momenta and step-size history intact (restarting from zeroed momenta at
/// a rolled-back point would repeat the same blow-up).
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerSnapshot<T> {
    /// State of [`NesterovOptimizer`].
    Nesterov(NesterovState<T>),
    /// State of [`Adam`].
    Adam(AdamState<T>),
    /// State of [`SgdMomentum`].
    SgdMomentum(SgdState<T>),
    /// State of [`ConjugateGradient`].
    ConjugateGradient(CgState<T>),
}

impl<T> OptimizerSnapshot<T> {
    /// The engine this snapshot belongs to (matches [`Optimizer::name`]).
    pub fn engine(&self) -> &'static str {
        match self {
            OptimizerSnapshot::Nesterov(_) => "nesterov",
            OptimizerSnapshot::Adam(_) => "adam",
            OptimizerSnapshot::SgdMomentum(_) => "sgd-momentum",
            OptimizerSnapshot::ConjugateGradient(_) => "conjugate-gradient",
        }
    }

    /// Every vector the snapshot holds (absent ones skipped). Each is as
    /// long as the parameter vector of the engine it was taken from.
    pub fn vectors(&self) -> impl Iterator<Item = &[T]> {
        let all = match self {
            OptimizerSnapshot::Nesterov(s) => [
                s.v.as_ref(),
                s.u_prev.as_ref(),
                s.g_prev.as_ref(),
                s.v_prev.as_ref(),
            ],
            OptimizerSnapshot::Adam(s) => [Some(&s.m), Some(&s.v), None, None],
            OptimizerSnapshot::SgdMomentum(s) => [Some(&s.velocity), None, None, None],
            OptimizerSnapshot::ConjugateGradient(s) => [
                s.g_prev.as_ref(),
                s.d_prev.as_ref(),
                s.p_prev.as_ref(),
                None,
            ],
        };
        all.into_iter().flatten().map(Vec::as_slice)
    }

    /// The error of restoring this snapshot into the engine `target`.
    pub(crate) fn mismatch(&self, target: &'static str) -> SnapshotMismatch {
        SnapshotMismatch {
            snapshot_engine: self.engine(),
            target_engine: target,
        }
    }
}

/// An empty state: momentum SGD before its first step.
impl<T: Default> Default for OptimizerSnapshot<T> {
    fn default() -> Self {
        OptimizerSnapshot::SgdMomentum(SgdState {
            lr: T::default(),
            velocity: Vec::new(),
        })
    }
}

/// Error returned when a snapshot is restored into a different engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMismatch {
    /// The engine the snapshot was taken from.
    pub snapshot_engine: &'static str,
    /// The engine `restore` was called on.
    pub target_engine: &'static str,
}

impl std::fmt::Display for SnapshotMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot restore a {} snapshot into a {} optimizer",
            self.snapshot_engine, self.target_engine
        )
    }
}

impl std::error::Error for SnapshotMismatch {}

/// A first-order optimizer advancing a parameter vector in place.
pub trait Optimizer<T: Float> {
    /// Performs one iteration, mutating `params`.
    fn step(&mut self, f: &mut dyn ObjectiveFn<T>, params: &mut [T]) -> StepInfo<T>;

    /// Clears internal state (momenta, step history). The next `step`
    /// behaves like the first. Used when the placement engine restarts the
    /// solver after cell inflation (paper §III-F).
    fn reset(&mut self);

    /// Short engine name for reports ("nesterov", "adam", ...).
    fn name(&self) -> &'static str;

    /// Clones the engine's state into `out`, reusing its vectors when `out`
    /// already holds this engine's kind (any other kind is replaced).
    /// `restore`-ing the captured snapshot must be an exact
    /// round-trip: a restored optimizer produces bit-identical trajectories
    /// to one that never left that state.
    fn snapshot_into(&self, out: &mut OptimizerSnapshot<T>);

    /// [`Optimizer::snapshot_into`] a fresh snapshot.
    fn snapshot(&self) -> OptimizerSnapshot<T> {
        let mut out = OptimizerSnapshot::default();
        self.snapshot_into(&mut out);
        out
    }

    /// Clones state captured by [`Optimizer::snapshot`] on the same engine
    /// kind back into the engine, reusing the engine's vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotMismatch`] (leaving the optimizer untouched) when
    /// the snapshot was taken from a different engine.
    fn restore(&mut self, snapshot: &OptimizerSnapshot<T>) -> Result<(), SnapshotMismatch>;
}

/// Infinity norm helper shared by the engines. Unlike a `max` fold (which
/// for IEEE floats silently ignores NaN), any non-finite component
/// propagates into the result, so [`StepInfo::is_healthy`] reliably
/// detects a poisoned gradient.
pub(crate) fn inf_norm<T: Float>(v: &[T]) -> T {
    let mut m = T::ZERO;
    for &x in v {
        let a = x.abs();
        if !a.is_finite() {
            return a;
        }
        if a > m {
            m = a;
        }
    }
    m
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A shifted quadratic bowl with per-axis curvature, plus its optimum.
    pub(crate) fn quadratic_bowl() -> (impl FnMut(&[f64], &mut [f64]) -> f64, Vec<f64>) {
        let target = vec![1.0, -2.0, 3.0, 0.5];
        let curv = [1.0, 4.0, 0.5, 2.0];
        let t = target.clone();
        let f = move |p: &[f64], g: &mut [f64]| -> f64 {
            let mut cost = 0.0;
            for i in 0..p.len() {
                let d = p[i] - t[i];
                cost += curv[i] * d * d;
                g[i] = 2.0 * curv[i] * d;
            }
            cost
        };
        (f, target)
    }

    /// Rosenbrock in 2-D: a classic non-convex stress test.
    pub(crate) fn rosenbrock(p: &[f64], g: &mut [f64]) -> f64 {
        let (x, y) = (p[0], p[1]);
        g[0] = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
        g[1] = 200.0 * (y - x * x);
        (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
    }

    fn run_to_convergence<O: Optimizer<f64>>(mut opt: O, iters: usize) -> Vec<f64> {
        let (mut f, _) = quadratic_bowl();
        let mut p = vec![0.0; 4];
        for _ in 0..iters {
            opt.step(&mut f, &mut p);
        }
        p
    }

    #[test]
    fn all_engines_solve_the_bowl() {
        let tol = 1e-2;
        let target = [1.0, -2.0, 3.0, 0.5];
        for (name, got) in [
            (
                "nesterov",
                run_to_convergence(NesterovOptimizer::new(4, 0.05), 200),
            ),
            ("adam", run_to_convergence(Adam::new(4, 0.2), 600)),
            ("sgd", run_to_convergence(SgdMomentum::new(4, 0.05), 400)),
            (
                "cg",
                run_to_convergence(ConjugateGradient::new(4, 0.05), 300),
            ),
        ] {
            for (a, b) in got.iter().zip(&target) {
                assert!((a - b).abs() < tol, "{name}: {got:?}");
            }
        }
    }

    #[test]
    fn norms() {
        assert_eq!(inf_norm(&[1.0, -3.0, 2.0]), 3.0);
    }

    #[test]
    fn inf_norm_propagates_non_finite_components() {
        assert!(inf_norm(&[1.0, f64::NAN, 2.0]).is_nan());
        assert_eq!(inf_norm(&[1.0, f64::NEG_INFINITY]), f64::INFINITY);
    }

    #[test]
    fn poisoned_gradient_is_flagged_unhealthy() {
        let mut f = |_: &[f64], g: &mut [f64]| {
            g[0] = 1.0;
            g[1] = f64::NAN;
            1.0
        };
        let mut opt = SgdMomentum::new(2, 0.1);
        let mut p = vec![0.0, 0.0];
        let info = opt.step(&mut f, &mut p);
        assert!(!info.is_healthy(), "{info:?}");
    }
}
