//! Batched concurrent detailed placement, after ABCDPlace (Lin et al.,
//! TCAD'20), which the paper cites as the route to GPU-accelerated DP and
//! an estimated further 18x flow speedup (paper §IV-A, Fig. 9 discussion).
//!
//! The classic sequential operators commit one move at a time; the batched
//! versions split each pass into
//!
//! 1. a **propose** phase — every cell's best move is evaluated
//!    concurrently against a read-only placement snapshot, and
//! 2. a **commit** phase — proposals are applied in deterministic order,
//!    each re-validated against the live placement so stale gains (from
//!    moves committed earlier in the batch) are rejected.
//!
//! The result is deterministic regardless of worker count, legality is
//! preserved move-by-move, and quality matches the sequential operators to
//! within the usual greedy-order noise.

use dp_netlist::{CellId, Netlist, Placement};
use dp_num::parallel::DisjointSlice;
use dp_num::{Float, WorkerPool};

use crate::incremental::IncrementalHpwl;
use crate::swap::{optimal_position, BucketGrid, MedianScratch};

/// One proposed swap: partner cell and the gain measured at propose time.
#[derive(Debug, Clone, Copy)]
struct Proposal<T> {
    partner: u32,
    gain: T,
}

/// Batched global swap: concurrent proposal, deterministic sequential
/// commit. Returns the number of committed swaps.
///
/// # Examples
///
/// ```
/// use dp_dplace::batched_global_swap;
/// use dp_gen::GeneratorConfig;
/// use dp_gp::initial_placement;
/// use dp_lg::Legalizer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = GeneratorConfig::new("b", 300, 330).generate::<f64>()?;
/// let mut p = initial_placement(&d.netlist, &d.fixed_positions, 0.05, 1);
/// Legalizer::new().legalize(&d.netlist, &mut p)?;
/// let swaps = batched_global_swap(&d.netlist, &mut p, 4);
/// assert!(swaps > 0);
/// # Ok(())
/// # }
/// ```
pub fn batched_global_swap<T: Float>(
    nl: &Netlist<T>,
    p: &mut Placement<T>,
    threads: usize,
) -> usize {
    // Workers spawn once here and are reused by every propose round.
    let pool = WorkerPool::new(threads);
    batched_global_swap_on(nl, p, &pool)
}

/// [`batched_global_swap`] on a caller-owned worker pool, so a multi-round
/// detailed-placement run pays the thread spawn cost exactly once.
pub fn batched_global_swap_on<T: Float>(
    nl: &Netlist<T>,
    p: &mut Placement<T>,
    pool: &WorkerPool,
) -> usize {
    // Jacobi-style batches converge to the sequential (Gauss-Seidel)
    // fixed point over a few propose/commit rounds.
    let mut total = 0usize;
    for _ in 0..8 {
        let committed = batched_swap_round(nl, p, pool);
        total += committed;
        if committed == 0 {
            break;
        }
    }
    total
}

/// One propose-parallel / commit-sequential round.
fn batched_swap_round<T: Float>(nl: &Netlist<T>, p: &mut Placement<T>, pool: &WorkerPool) -> usize {
    let n = nl.num_movable();
    let mut inc = IncrementalHpwl::new(nl, p);
    let eps = T::from_f64(1e-9);

    // Spatial buckets (same construction as the sequential operator).
    let region = nl.region();
    let bucket = (region.width().to_f64() / 16.0).max(1e-9);
    let key = |x: T, y: T| -> (i64, i64) {
        (
            (x.to_f64() / bucket).floor() as i64,
            (y.to_f64() / bucket).floor() as i64,
        )
    };
    let grid = BucketGrid::new((0..n).map(|c| (key(p.x[c], p.y[c]), c)));

    // --- propose phase (parallel, read-only) ---------------------------
    let mut proposals: Vec<Option<Proposal<T>>> = vec![None; n];
    {
        let out = DisjointSlice::new(&mut proposals);
        let chunk = pool.chunk_for(n);
        let p_ref = &*p;
        let inc_ref = &inc;
        let grid_ref = &grid;
        pool.run(n, chunk, |range| {
            // Scratch placement clone per chunk would be O(n); instead we
            // evaluate candidate swaps through a coordinate-override view.
            let mut median = MedianScratch::default();
            for c in range {
                let Some((tx, ty)) = optimal_position(nl, p_ref, c, &mut median) else {
                    continue;
                };
                if (p_ref.x[c] - tx).abs().to_f64() < bucket
                    && (p_ref.y[c] - ty).abs().to_f64() < bucket
                {
                    continue;
                }
                let (bx, by) = key(tx, ty);
                let mut best: Option<Proposal<T>> = None;
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        for other in grid_ref.get((bx + dx, by + dy)) {
                            if other == c
                                || nl.cell_widths()[other] != nl.cell_widths()[c]
                                || nl.cell_heights()[other] != nl.cell_heights()[c]
                            {
                                continue;
                            }
                            let gain = swap_gain(nl, p_ref, inc_ref, c, other);
                            if gain > eps && best.is_none_or(|b| gain > b.gain) {
                                best = Some(Proposal {
                                    partner: other as u32,
                                    gain,
                                });
                            }
                        }
                    }
                }
                if let Some(b) = best {
                    // SAFETY: index `c` is unique to this chunk.
                    unsafe { out.write(c, Some(b)) };
                }
            }
        });
    }

    // --- commit phase (sequential, re-validated) ------------------------
    let mut swaps = 0usize;
    let mut touched = vec![false; n];
    for c in 0..n {
        let Some(proposal) = proposals[c] else {
            continue;
        };
        let other = proposal.partner as usize;
        // Skip when either endpoint already moved in this batch; their
        // proposal gains are stale.
        if touched[c] || touched[other] {
            continue;
        }
        let gain = swap_gain(nl, p, &inc, c, other);
        if gain > eps {
            p.x.swap(c, other);
            p.y.swap(c, other);
            inc.update_cells(nl, p, &[CellId::new(c), CellId::new(other)]);
            touched[c] = true;
            touched[other] = true;
            swaps += 1;
        }
    }
    swaps
}

/// HPWL gain of swapping cells `a` and `b` (positive = improvement),
/// evaluated without mutating the placement.
fn swap_gain<T: Float>(
    nl: &Netlist<T>,
    p: &Placement<T>,
    inc: &IncrementalHpwl<T>,
    a: usize,
    b: usize,
) -> T {
    let ids = [CellId::new(a), CellId::new(b)];
    let before = inc.cost_of_cells(nl, &ids);
    let after = inc.eval_cells_swapped(nl, p, a, b);
    before - after
}

/// The batched detailed placement driver: batched global swap plus the
/// sequential reorder/ISM passes (which are window- and batch-local
/// already), with the round cap, window and batch of [`DetailedPlacer`].
/// `threads` controls the proposal parallelism.
///
/// [`DetailedPlacer`]: crate::DetailedPlacer
#[derive(Debug, Clone)]
pub struct BatchedDetailedPlacer {
    /// Worker threads for the proposal phases.
    pub threads: usize,
}

impl BatchedDetailedPlacer {
    /// Creates the driver with `threads` proposal workers.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Runs detailed placement in place (placement must be legal).
    pub fn run<T: Float>(&self, nl: &Netlist<T>, p: &mut Placement<T>) -> crate::DpStats {
        let t0 = std::time::Instant::now();
        let initial = dp_netlist::hpwl(nl, p).to_f64();
        // One pool for the whole run: every round's propose phase reuses it.
        let pool = WorkerPool::new(self.threads);
        let mut moves = 0usize;
        for _ in 0..crate::MAX_ROUNDS {
            let before = moves;
            moves += batched_global_swap_on(nl, p, &pool);
            moves += crate::local_reorder(nl, p, crate::WINDOW);
            moves += crate::independent_set_matching(nl, p, crate::ISM_BATCH);
            if moves == before {
                break;
            }
        }
        crate::DpStats {
            initial_hpwl: initial,
            final_hpwl: dp_netlist::hpwl(nl, p).to_f64(),
            moves,
            runtime: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use dp_gen::GeneratorConfig;
    use dp_gp::initial_placement;
    use dp_lg::{check_legal, Legalizer};
    use dp_netlist::hpwl;

    fn legal_start(seed: u64, cells: usize) -> (Netlist<f64>, Placement<f64>) {
        let d = GeneratorConfig::new("batch", cells, cells + cells / 10)
            .with_seed(seed)
            .with_utilization(0.55)
            .generate::<f64>()
            .expect("valid");
        let mut p = initial_placement(&d.netlist, &d.fixed_positions, 0.08, seed);
        Legalizer::new().legalize(&d.netlist, &mut p).expect("fits");
        (d.netlist, p)
    }

    #[test]
    fn batched_swap_improves_and_stays_legal() {
        let (nl, mut p) = legal_start(3, 300);
        let before = hpwl(&nl, &p);
        let swaps = batched_global_swap(&nl, &mut p, 4);
        assert!(swaps > 0);
        assert!(hpwl(&nl, &p) < before);
        assert!(check_legal(&nl, &p).is_legal());
    }

    #[test]
    fn batched_result_is_thread_count_invariant() {
        let (nl, p0) = legal_start(5, 250);
        let mut p1 = p0.clone();
        let mut p2 = p0.clone();
        let s1 = batched_global_swap(&nl, &mut p1, 1);
        let s2 = batched_global_swap(&nl, &mut p2, 4);
        assert_eq!(s1, s2, "same commits at any worker count");
        assert_eq!(p1.x, p2.x);
        assert_eq!(p1.y, p2.y);
    }

    #[test]
    fn batched_quality_matches_sequential_driver() {
        let (nl, p0) = legal_start(7, 300);
        let mut seq = p0.clone();
        let mut bat = p0.clone();
        let s_seq = crate::DetailedPlacer::new().run(&nl, &mut seq);
        let s_bat = BatchedDetailedPlacer::new(4).run(&nl, &mut bat);
        // The fixed-point batching may find *more* improvements than one
        // sequential sweep; it must never be meaningfully worse.
        assert!(
            s_bat.final_hpwl <= s_seq.final_hpwl * 1.01,
            "batched {} vs sequential {}",
            s_bat.final_hpwl,
            s_seq.final_hpwl
        );
        assert!(check_legal(&nl, &bat).is_legal());
    }
}
