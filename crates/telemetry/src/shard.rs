//! Relaxed-atomic counters: one cell per kernel, one shard per pool worker.
//!
//! The hot path of both types is two `Relaxed` atomic adds, with totals
//! read only when the trace is written. A [`KernelTimer`] is one cell:
//! every writer records from the thread that drives the kernels. A
//! [`WorkerShards`] gives each pool worker its own cache-line-aligned
//! shard, so workers draining chunks in parallel never share a line.

use std::sync::atomic::{AtomicU64, Ordering};

/// One cache line of counters: `(count, nanos)`.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl Shard {
    #[inline]
    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn load(&self) -> (u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }
}

/// Call/duration totals for one kernel: one `(calls, nanos)` cell.
#[derive(Debug, Default)]
pub struct KernelTimer {
    cell: Shard,
}

impl KernelTimer {
    /// A timer with zero calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one call of `nanos`: two relaxed atomic adds.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.cell.record(nanos);
    }

    /// `(calls, nanos)` recorded so far.
    pub fn total(&self) -> (u64, u64) {
        self.cell.load()
    }
}

/// Per-worker busy totals for a pool: shard `i` accumulates
/// `(launches, busy nanoseconds)` for worker `i` (0 = the calling thread,
/// which also drains chunks in `WorkerPool::run`).
#[derive(Debug)]
pub struct WorkerShards {
    shards: Box<[Shard]>,
}

impl WorkerShards {
    /// Shards for `workers` workers (at least one).
    pub fn new(workers: usize) -> Self {
        Self {
            shards: (0..workers.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Records one launch in which `worker` was busy for `nanos`.
    /// Out-of-range workers wrap rather than panic.
    #[inline]
    pub fn record(&self, worker: usize, nanos: u64) {
        self.shards[worker % self.shards.len()].record(nanos);
    }

    /// `(launches, nanos)` per worker, indexed by shard.
    pub fn per_worker(&self) -> Vec<(u64, u64)> {
        self.shards.iter().map(Shard::load).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concurrent_records_are_not_lost() {
        let t = Arc::new(KernelTimer::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.record(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.total(), (4000, 4000));
    }

    #[test]
    fn worker_shards_index_by_worker() {
        assert_eq!(WorkerShards::new(0).workers(), 1);
        let w = WorkerShards::new(3);
        w.record(0, 100);
        w.record(2, 50);
        w.record(2, 25);
        assert_eq!(w.per_worker(), vec![(1, 100), (0, 0), (2, 75)]);
    }
}
