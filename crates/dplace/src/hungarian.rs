//! A small O(n^3) Hungarian (Kuhn-Munkres) assignment solver.
//!
//! Used by independent-set matching on batches of up to 16 cells, where the
//! exact assignment is cheap and worthwhile. The solver runs once per
//! batch, thousands of times per pass, so all of its working vectors live
//! in a caller-owned [`HungarianScratch`].

/// Working storage for [`hungarian`], reused across calls.
#[derive(Debug, Clone, Default)]
pub struct HungarianScratch {
    u: Vec<f64>,
    v: Vec<f64>,
    /// `p[col]` = row matched to `col` (1-indexed, 0 = none).
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    assign: Vec<usize>,
}

/// Solves the square assignment problem on the row-major `n x n` matrix
/// `cost`: returns `assign` with `assign[row] = column` minimizing the
/// total cost.
///
/// # Panics
///
/// Panics if `n == 0` or `cost.len() != n * n`.
///
/// # Examples
///
/// ```
/// use dp_dplace::{hungarian, HungarianScratch};
///
/// let cost = [
///     4.0, 1.0, 3.0, //
///     2.0, 0.0, 5.0, //
///     3.0, 2.0, 2.0,
/// ];
/// let mut scratch = HungarianScratch::default();
/// let assign = hungarian(&cost, 3, &mut scratch);
/// assert_eq!(assign, [1, 0, 2]); // total 1 + 2 + 2 = 5
/// ```
pub fn hungarian<'s>(cost: &[f64], n: usize, scratch: &'s mut HungarianScratch) -> &'s [usize] {
    assert!(n > 0, "empty cost matrix");
    assert_eq!(cost.len(), n * n, "cost matrix must be square");

    // Potentials + augmenting path implementation (1-indexed internally).
    let inf = f64::INFINITY;
    let HungarianScratch {
        u,
        v,
        p,
        way,
        minv,
        used,
        assign,
    } = scratch;
    reset(u, n + 1, 0.0);
    reset(v, n + 1, 0.0);
    reset(p, n + 1, 0);
    reset(way, n + 1, 0);

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        reset(minv, n + 1, inf);
        reset(used, n + 1, false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let row = &cost[(i0 - 1) * n..i0 * n];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = row[j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    reset(assign, n, 0);
    for j in 1..=n {
        if p[j] != 0 {
            assign[p[j] - 1] = j - 1;
        }
    }
    assign
}

/// Sets `buf` to `len` copies of `value`, keeping its allocation.
fn reset<X: Clone>(buf: &mut Vec<X>, len: usize, value: X) {
    buf.clear();
    buf.resize(len, value);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::reference;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn solve(cost: &[f64], n: usize) -> Vec<usize> {
        hungarian(cost, n, &mut HungarianScratch::default()).to_vec()
    }

    fn total(cost: &[f64], n: usize, assign: &[usize]) -> f64 {
        assign
            .iter()
            .enumerate()
            .map(|(i, &j)| cost[i * n + j])
            .sum()
    }

    fn brute_force(cost: &[f64], n: usize) -> f64 {
        let mut cols: Vec<usize> = (0..n).collect();
        let mut best = f64::INFINITY;
        permute(&mut cols, 0, &mut |perm| {
            let t = total(cost, n, perm);
            if t < best {
                best = t;
            }
        });
        best
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn identity_matrix_prefers_diagonal_zeroes() {
        let n = 4;
        let cost: Vec<f64> = (0..n * n)
            .map(|k| if k / n == k % n { 0.0 } else { 1.0 })
            .collect();
        assert_eq!(solve(&cost, n), vec![0, 1, 2, 3]);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [2usize, 3, 5, 6] {
            for _ in 0..20 {
                let cost: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.0..10.0)).collect();
                let assign = solve(&cost, n);
                // valid permutation
                let mut seen = vec![false; n];
                for &j in &assign {
                    assert!(!seen[j]);
                    seen[j] = true;
                }
                let got = total(&cost, n, &assign);
                let want = brute_force(&cost, n);
                assert!((got - want).abs() < 1e-9, "n={n} got {got} want {want}");
            }
        }
    }

    /// One scratch reused across sizes and matrices returns what the
    /// nested-`Vec` solver it replaced returns, ties included (small
    /// integer costs make many optima).
    #[test]
    fn reused_scratch_matches_the_allocating_solver_on_ties() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut scratch = HungarianScratch::default();
        for round in 0..600 {
            let n = 1 + round % 9;
            let cost: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0..4) as f64).collect();
            let nested: Vec<Vec<f64>> = cost.chunks(n).map(<[f64]>::to_vec).collect();
            assert_eq!(
                hungarian(&cost, n, &mut scratch),
                reference::hungarian(&nested).as_slice(),
                "n={n} cost={cost:?}"
            );
        }
    }

    #[test]
    fn handles_negative_costs() {
        assert_eq!(solve(&[-5.0, 0.0, 0.0, -5.0], 2), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_ragged_matrix() {
        let _ = solve(&[1.0, 2.0, 3.0], 2);
    }
}
