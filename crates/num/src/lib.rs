//! Numeric substrate for the dreamplace workspace.
//!
//! The placement engine is generic over floating-point precision, mirroring the
//! float32/float64 experiments in the DREAMPlace paper (TCAD'20, Figs. 6-8).
//! This crate provides:
//!
//! * [`Float`] — the precision abstraction implemented by `f32` and `f64`;
//! * [`AtomicFloat`] — lock-free atomic accumulation used by the pin-level
//!   "atomic" wirelength kernel (paper Algorithm 1) and the density map
//!   scatter kernel;
//! * [`Complex`] — minimal complex arithmetic for the FFT/DCT substrate;
//! * [`stats`] — small helpers (mean, geometric mean) used by the benchmark
//!   harness when reporting paper-style ratio rows.
//!
//! # Examples
//!
//! ```
//! use dp_num::Float;
//!
//! fn softmax_denominator<T: Float>(xs: &[T], gamma: T) -> T {
//!     let hi = xs.iter().copied().fold(T::NEG_INFINITY, T::max);
//!     xs.iter().map(|&x| ((x - hi) / gamma).exp()).fold(T::ZERO, |a, b| a + b)
//! }
//!
//! let d = softmax_denominator(&[1.0f64, 2.0, 3.0], 1.0);
//! assert!(d > 1.0 && d < 3.0);
//! ```

pub mod atomic;
pub mod complex;
pub mod float;
pub mod parallel;
pub mod pool;
pub mod stats;

pub use atomic::{AtomicF32, AtomicF64, AtomicFloat};
pub use complex::Complex;
pub use float::Float;
pub use parallel::{paper_chunk_size, DisjointSlice};
pub use pool::{
    default_threads, reduce_chunk_size, PoolHealth, PoolHost, PoolLease, PoolPanicked, PoolTenant,
    WorkerPool,
};
