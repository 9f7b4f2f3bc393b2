//! Differential verification harness for the placement kernels.
//!
//! The optimized kernels in this workspace (merged wirelength, scattered
//! density, FFT-based DCT) buy their speed with exactly the tricks that
//! make bugs subtle: fused passes, reordered accumulation, spectral
//! identities. This crate holds the *slow, obviously correct* counterpart
//! of each kernel plus the machinery to compare them continuously:
//!
//! * [`oracle_wirelength`] — HPWL, weighted-average (paper Eq. (3)/(6)) and
//!   log-sum-exp wirelength, written as direct per-net/per-axis sums with
//!   analytic gradients;
//! * [`oracle_density`] — the density scatter (with ePlace smoothing
//!   restated from its definition) and the electrostatic field/potential/
//!   energy computed as direct `O(n^2)` cosine-basis sums, independent of
//!   the FFT machinery in `dp-dct`;
//! * [`oracle_dct`] — the workspace's one copy of the transform
//!   definitions: direct `O(n^2)` DFT and 1-D/2-D DCT/IDCT/IDXST sums in
//!   the library normalization, the reference for every `dp-dct` tier;
//! * [`gradcheck`] — a central finite-difference gradient checker driven
//!   through the [`dp_autograd::Operator`] trait with a per-operator
//!   tolerance table (wraps [`dp_autograd::check_gradient`] and the
//!   non-unit-seed [`dp_autograd::check_gradient_scaled`]);
//! * [`replay`] — the determinism replayer: runs global placement several
//!   times from the same seed (and across thread counts) and diffs the
//!   per-iteration [`dp_gp::GpStats`] histories bit-exactly; legalization
//!   and detailed placement get the same treatment per stage
//!   ([`replay::replay_lg`] / [`replay::replay_dp`]);
//! * [`golden`] — golden full-flow regression records (hand-rolled JSON,
//!   regenerate with `DP_UPDATE_GOLDEN=1`);
//! * [`trace`] — schema-validating reader for `dp-telemetry` JSONL traces
//!   (balanced span nesting, per-thread timestamp monotonicity),
//!   deliberately independent of the writer;
//! * [`checkpoint`] — schema-validating reader for `DPCKPT` flow
//!   checkpoints (own tokenizer, own table-driven CRC32, cross-field
//!   invariants), deliberately independent of the
//!   `dreamplace_core::checkpoint` writer/reader pair.
//!
//! The differential test suites live in `crates/check/tests/`; the golden
//! full-flow regression lives in the workspace root `tests/differential.rs`
//! against `results/golden/*.json`.

// Library code must surface structured errors instead of panicking;
// tests opt out module-by-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
pub mod golden;
pub mod gradcheck;
pub mod oracle_dct;
pub mod oracle_density;
pub mod oracle_wirelength;
pub mod replay;
pub mod trace;

pub use golden::{update_requested, GoldenError, GoldenRecord, GoldenTolerance};
pub use gradcheck::{check_operator, sample_cells, spec_for, CheckOutcome, CheckSpec};
pub use oracle_dct::{
    dct2_oracle, dct_oracle, dft_oracle, idct2_oracle, idct_idxst_oracle, idct_oracle,
    idxst_idct_oracle, idxst_oracle,
};
pub use oracle_density::{
    charge_map_oracle, density_gradient_oracle, field_oracle, fixed_map_oracle,
    movable_map_oracle, overflow_oracle, smoothed_rect_oracle, FieldOracle, OracleGrid,
};
pub use oracle_wirelength::{hpwl_oracle, lse_oracle, wa_oracle, WlOracle};
pub use replay::{
    diff_placements, first_divergence, replay_across_threads, replay_dp, replay_gp, replay_lg,
    ReplayReport, StageReplay,
};
pub use checkpoint::{validate_checkpoint_file, validate_checkpoint_str, CkptError, CkptSummary};
pub use trace::{
    validate_file, validate_postmortem_file, validate_postmortem_str, validate_str,
    PostmortemSummary, TraceError, TraceSummary, POSTMORTEM_EVENT_CAP,
};
