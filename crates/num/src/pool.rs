//! A persistent worker pool for the placement kernels.
//!
//! Spawning scoped threads on every kernel launch — thousands of times per
//! placement run — drowns the kernel-strategy comparisons the bench harness
//! exists to make (a 4096-item launch measured 103 µs spawned against
//! 3.3 µs pooled; DESIGN.md §9). [`WorkerPool`] spawns its workers exactly
//! once and parks them between kernel launches, the CPU analogue of a
//! persistent GPU kernel: workers wait on a condvar, a launch publishes a
//! type-erased closure plus an atomic chunk cursor, and chunks are claimed
//! dynamically (`cursor.fetch_add(chunk)` until the items run out), the
//! paper's OpenMP `schedule(dynamic)`. With `threads <= 1` every launch is
//! a plain serial loop and no worker threads exist at all.
//!
//! # Determinism
//!
//! Dynamic scheduling makes the *assignment* of chunks to workers
//! nondeterministic, but not the chunks themselves. Kernels that only write
//! disjoint slots are therefore bit-reproducible at any thread count.
//! Floating-point *reductions* additionally need a fixed summation order:
//! [`WorkerPool::reduce_in_order`] folds per-chunk partials in chunk-index
//! order, so a reduction is bit-exact across runs — and across *thread
//! counts*, provided the chunk size itself does not depend on the thread
//! count (use [`reduce_chunk_size`]).

use std::mem;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dp_telemetry::metrics::{Counter, Gauge, Metrics};
use dp_telemetry::WorkerShards;

use crate::parallel::{paper_chunk_size, DisjointSlice};

/// Default worker count: the `DP_THREADS` environment variable when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
///
/// This is the single source of truth for every "how many threads?" default
/// in the workspace (bench binaries, `GpConfig::auto`, examples).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("DP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Chunk size for *reductions* that must be bit-exact across thread counts.
///
/// The floating-point sum of a reduction is grouped by chunk, so chunk
/// boundaries must not move with the worker count. This uses the paper's
/// formula [`paper_chunk_size`] with a fixed virtual width of 16 workers
/// (~256 chunks): enough scheduling slack for any realistic CPU while
/// keeping the reduction tree machine-invariant.
pub fn reduce_chunk_size(items: usize) -> usize {
    paper_chunk_size(items, 16)
}

/// Error returned by [`WorkerPool::try_run`] when a worker (or the calling
/// thread's own share of the work) panicked during a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPanicked;

impl std::fmt::Display for PoolPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker thread panicked during a pool launch")
    }
}

impl std::error::Error for PoolPanicked {}

/// A type-erased `&(dyn Fn(Range<usize>) + Sync)` reference with its
/// lifetime erased, valid only for the duration of one launch (the launch
/// joins all participating workers before returning, so the borrow never
/// escapes).
#[derive(Clone, Copy)]
struct ErasedWork(&'static (dyn Fn(Range<usize>) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are allowed from any thread)
// and the launch protocol guarantees the pointer is not dereferenced after
// `launch` returns: every worker that copies the pointer first increments
// `active` under the state lock, and `launch` only returns once `active`
// drops back to zero and the job slot is cleared.
unsafe impl Send for ErasedWork {}

/// One published kernel launch.
struct Job {
    /// Launch generation; workers run each generation at most once.
    generation: u64,
    work: ErasedWork,
    items: usize,
    chunk: usize,
}

/// A point-in-time health report of a [`WorkerPool`] (see
/// [`WorkerPool::health`]). The counters are cumulative over the pool's
/// lifetime; a service layer polls them after a contained job panic to
/// decide whether the pool needs [`WorkerPool::respawn_dead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolHealth {
    /// Worker count a launch is spread over (including the caller).
    pub threads: usize,
    /// OS threads this pool is supposed to keep parked (`threads - 1`).
    pub workers_spawned: usize,
    /// Spawned workers whose thread is still running.
    pub workers_alive: usize,
    /// Launches dispatched so far.
    pub launches: u64,
    /// Launches in which at least one participating thread panicked.
    pub panicked_launches: u64,
    /// Individual thread panics observed (a single launch can panic on
    /// several workers at once).
    pub thread_panics: u64,
    /// Launches dispatched since the most recent poisoned launch; `None`
    /// when no launch ever panicked.
    pub launches_since_poison: Option<u64>,
}

impl PoolHealth {
    /// Workers that died and need [`WorkerPool::respawn_dead`].
    pub fn dead_workers(&self) -> usize {
        self.workers_spawned.saturating_sub(self.workers_alive)
    }

    /// True when every worker is alive.
    pub fn all_workers_alive(&self) -> bool {
        self.dead_workers() == 0
    }
}

/// State shared between the caller and the parked workers.
struct PoolState {
    job: Option<Job>,
    /// Workers currently inside the published job.
    active: usize,
    /// Panics observed during the current job.
    panicked: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between launches.
    work_ready: Condvar,
    /// The caller parks here while workers drain the cursor.
    work_done: Condvar,
    /// Dynamic-scheduling cursor; reset under the state lock per launch.
    cursor: AtomicUsize,
    /// Cumulative launches that saw at least one panic.
    panicked_launches: AtomicU64,
    /// Cumulative individual thread panics.
    thread_panics: AtomicU64,
    /// `runs` value at the most recent poisoned launch (`u64::MAX` =
    /// never poisoned).
    last_poison_run: AtomicU64,
    /// Chaos/testing hook: workers claim one unit each and exit their
    /// loop, simulating worker-thread death (see
    /// [`WorkerPool::debug_exit_workers`]).
    exit_requests: AtomicUsize,
    /// Fast flag for the telemetry shards below: one relaxed load per
    /// launch participation when telemetry is disabled (the default).
    has_shards: AtomicBool,
    /// Per-worker busy totals (shard 0 = the calling thread, shard `i` =
    /// spawned worker `i`). Installed by [`WorkerPool::set_worker_shards`].
    shards: Mutex<Option<Arc<WorkerShards>>>,
    /// Fast flag for the service metrics below (same discipline as
    /// `has_shards`): one relaxed load per launch when unset.
    has_metrics: AtomicBool,
    /// Service-metrics instruments, installed by [`WorkerPool::set_metrics`].
    metrics: Mutex<Option<Arc<PoolMetrics>>>,
}

/// The pool's slice of the service metrics plane (see
/// [`WorkerPool::set_metrics`]): cached instrument handles so the launch
/// hot path never touches the registry.
struct PoolMetrics {
    launches: Counter,
    poisoned_launches: Counter,
    thread_panics: Counter,
    respawns: Counter,
    workers_alive: Gauge,
    workers_spawned: Gauge,
}

impl PoolShared {
    /// The installed shards, if any (checks the flag before locking).
    fn shards(&self) -> Option<Arc<WorkerShards>> {
        if !self.has_shards.load(Ordering::Relaxed) {
            return None;
        }
        lock(&self.shards).clone()
    }

    /// The installed service metrics, if any (checks the flag before
    /// locking).
    fn metrics(&self) -> Option<Arc<PoolMetrics>> {
        if !self.has_metrics.load(Ordering::Relaxed) {
            return None;
        }
        lock(&self.metrics).clone()
    }

    /// Folds one poisoned launch into the cumulative health counters.
    fn record_poison(&self, thread_panics: u64, at_run: u64) {
        self.panicked_launches.fetch_add(1, Ordering::Relaxed);
        self.thread_panics.fetch_add(thread_panics, Ordering::Relaxed);
        self.last_poison_run.store(at_run, Ordering::Relaxed);
        if let Some(m) = self.metrics() {
            m.poisoned_launches.inc();
            m.thread_panics.add(thread_panics);
        }
    }
}

/// A long-lived worker pool with dynamic-chunk launch semantics.
///
/// Workers are spawned once at construction (`threads - 1` of them — the
/// calling thread always participates in a launch) and parked between
/// launches. Dropping the pool signals shutdown and joins every worker.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use dp_num::pool::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let sum = AtomicUsize::new(0);
/// pool.run(100, 8, |range| {
///     sum.fetch_add(range.len(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 100);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Spawned worker handles; slot `i` is the worker with shard index
    /// `i + 1`. Behind a mutex so [`WorkerPool::respawn_dead`] can replace
    /// dead workers in place through `&self`.
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
    /// Launch is in progress (used to run nested launches serially instead
    /// of deadlocking on the single job slot).
    busy: AtomicBool,
    generation: AtomicU64,
    runs: AtomicU64,
}

impl WorkerPool {
    /// Creates a pool that executes launches over `threads` workers
    /// (`threads - 1` parked threads plus the caller). `threads <= 1`
    /// spawns nothing; every launch is a serial loop.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                active: 0,
                panicked: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            cursor: AtomicUsize::new(0),
            panicked_launches: AtomicU64::new(0),
            thread_panics: AtomicU64::new(0),
            last_poison_run: AtomicU64::new(u64::MAX),
            exit_requests: AtomicUsize::new(0),
            has_shards: AtomicBool::new(false),
            shards: Mutex::new(None),
            has_metrics: AtomicBool::new(false),
            metrics: Mutex::new(None),
        });
        let workers = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
            threads,
            busy: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        }
    }

    /// A pool that runs everything on the calling thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Worker count a launch is spread over (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of OS threads this pool spawned (== `threads() - 1`; constant
    /// for the pool's lifetime — the spawn-once guarantee;
    /// [`WorkerPool::respawn_dead`] replaces dead workers in place without
    /// changing this count).
    pub fn threads_spawned(&self) -> usize {
        lock(&self.workers).len()
    }

    /// Registers this pool with the service metrics plane: cumulative
    /// launch/poison/respawn counters plus live-worker gauges
    /// (`dp_pool_*`). Instrument handles are cached in the pool, so after
    /// this call the launch hot path pays one relaxed flag load plus one
    /// uncontended lock per *launch* (not per chunk) — the same cost class
    /// as [`WorkerPool::set_worker_shards`]. A disabled registry leaves
    /// the pool unregistered.
    pub fn set_metrics(&self, metrics: &Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        let m = Arc::new(PoolMetrics {
            launches: metrics.counter(
                "dp_pool_launches_total",
                "Kernel launches dispatched by the worker pool.",
            ),
            poisoned_launches: metrics.counter(
                "dp_pool_poisoned_launches_total",
                "Launches in which at least one participating thread panicked.",
            ),
            thread_panics: metrics.counter(
                "dp_pool_thread_panics_total",
                "Individual worker-thread panics observed.",
            ),
            respawns: metrics.counter(
                "dp_pool_workers_respawned_total",
                "Dead worker threads replaced by respawn_dead.",
            ),
            workers_alive: metrics.gauge(
                "dp_pool_workers_alive",
                "Spawned worker threads currently running.",
            ),
            workers_spawned: metrics.gauge(
                "dp_pool_workers_spawned",
                "Worker threads this pool keeps parked (threads - 1).",
            ),
        });
        // Seed the cumulative counters with launches dispatched before
        // registration so a scrape never shows a pool younger than its
        // health report.
        m.launches.add(self.runs());
        m.poisoned_launches
            .add(self.shared.panicked_launches.load(Ordering::Relaxed));
        m.thread_panics
            .add(self.shared.thread_panics.load(Ordering::Relaxed));
        let health = self.health();
        m.workers_alive.set(health.workers_alive as f64);
        m.workers_spawned.set(health.workers_spawned as f64);
        *lock(&self.shared.metrics) = Some(m);
        self.shared.has_metrics.store(true, Ordering::Relaxed);
    }

    /// A point-in-time health report: how many workers are alive, how many
    /// launches panicked, and how long ago the pool was last poisoned.
    /// Also refreshes the live-worker gauge when metrics are installed
    /// (the service layer polls health between turns, which keeps the
    /// scrape current).
    pub fn health(&self) -> PoolHealth {
        let workers = lock(&self.workers);
        let workers_alive = workers.iter().filter(|h| !h.is_finished()).count();
        let workers_spawned = workers.len();
        drop(workers);
        if let Some(m) = self.shared.metrics() {
            m.workers_alive.set(workers_alive as f64);
            m.workers_spawned.set(workers_spawned as f64);
        }
        let launches = self.runs();
        let last_poison = self.shared.last_poison_run.load(Ordering::Relaxed);
        PoolHealth {
            threads: self.threads,
            workers_spawned,
            workers_alive,
            launches,
            panicked_launches: self.shared.panicked_launches.load(Ordering::Relaxed),
            thread_panics: self.shared.thread_panics.load(Ordering::Relaxed),
            launches_since_poison: (last_poison != u64::MAX)
                .then(|| launches.saturating_sub(last_poison)),
        }
    }

    /// Replaces every dead worker thread with a freshly spawned one, in
    /// place (the replacement takes over the dead worker's shard index).
    /// Returns the number of workers respawned — 0 on a healthy pool, so
    /// calling this after every contained panic is cheap.
    ///
    /// Must not be called while a launch is in flight on another thread;
    /// the service layer invokes it between scheduler turns, where the
    /// pool is quiescent by construction.
    pub fn respawn_dead(&self) -> usize {
        let mut workers = lock(&self.workers);
        let mut respawned = 0;
        for (slot, handle) in workers.iter_mut().enumerate() {
            if !handle.is_finished() {
                continue;
            }
            let shared = Arc::clone(&self.shared);
            let index = slot + 1;
            let fresh = std::thread::spawn(move || worker_loop(&shared, index));
            // Joining a finished thread cannot block; a panicked worker's
            // join error carries no information beyond "it died".
            let _ = mem::replace(handle, fresh).join();
            respawned += 1;
        }
        let alive = workers.iter().filter(|h| !h.is_finished()).count();
        drop(workers);
        if let Some(m) = self.shared.metrics() {
            m.respawns.add(respawned as u64);
            m.workers_alive.set(alive as f64);
        }
        respawned
    }

    /// Chaos/testing hook: asks `n` parked workers to exit their loop,
    /// simulating worker-thread death (the failure mode
    /// [`WorkerPool::respawn_dead`] repairs — in production a worker only
    /// dies when a panic escapes its `catch_unwind`, e.g. a panicking
    /// panic payload). Each exiting worker claims one request; workers
    /// busy in a launch exit after finishing it.
    pub fn debug_exit_workers(&self, n: usize) {
        self.shared.exit_requests.fetch_add(n, Ordering::Relaxed);
        // Wake parked workers so they observe the request promptly.
        let _state = lock(&self.shared.state);
        self.shared.work_ready.notify_all();
    }

    /// Number of launches ([`WorkerPool::run`]/[`WorkerPool::try_run`]/
    /// [`WorkerPool::reduce_in_order`] calls) dispatched so far.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// The paper's dynamic chunk size for this pool's worker count.
    pub fn chunk_for(&self, items: usize) -> usize {
        paper_chunk_size(items, self.threads)
    }

    /// Installs telemetry shards recording per-worker busy time: shard 0
    /// accumulates the calling thread's share of each launch, shard `i`
    /// spawned worker `i`'s. Size the shards with [`WorkerPool::threads`].
    /// Without this call (the default) the only launch overhead is one
    /// relaxed atomic load.
    pub fn set_worker_shards(&self, shards: Arc<WorkerShards>) {
        *lock(&self.shared.shards) = Some(shards);
        self.shared.has_shards.store(true, Ordering::Relaxed);
    }

    /// Removes the installed telemetry shards (the inverse of
    /// [`WorkerPool::set_worker_shards`]). Used by the leasing layer: a
    /// shared pool serves many tenants, each with its own shards, so the
    /// registration lives only for the duration of a [`PoolLease`].
    pub fn clear_worker_shards(&self) {
        self.shared.has_shards.store(false, Ordering::Relaxed);
        *lock(&self.shared.shards) = None;
    }

    /// Runs `work(range)` over `0..items` in dynamically scheduled chunks
    /// on the parked workers, without spawning threads.
    ///
    /// `work` must be safe to call concurrently on disjoint ranges.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while executing `work` (same surfacing
    /// as the scoped-thread implementation). Use [`WorkerPool::try_run`]
    /// for a structured error instead.
    pub fn run<F>(&self, items: usize, chunk: usize, work: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if self.try_run(items, chunk, work).is_err() {
            panic!("worker thread panicked");
        }
    }

    /// [`WorkerPool::run`] with panics surfaced as [`PoolPanicked`].
    ///
    /// # Errors
    ///
    /// Returns [`PoolPanicked`] when `work` panicked on any participating
    /// thread; the launch still joins (no worker is left running).
    pub fn try_run<F>(&self, items: usize, chunk: usize, work: F) -> Result<(), PoolPanicked>
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.runs.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.shared.metrics() {
            m.launches.inc();
        }
        if items == 0 {
            return Ok(());
        }
        let chunk = chunk.max(1);
        // Serial path: one thread, or a nested launch while this pool is
        // already mid-launch (a worker's closure launching again must not
        // wait on the single job slot it is itself holding).
        if self.threads <= 1
            || self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Acquire)
                .is_err()
        {
            let shards = self.shared.shards();
            let t0 = shards.as_ref().map(|_| Instant::now());
            let r = catch_unwind(AssertUnwindSafe(|| {
                let mut start = 0;
                while start < items {
                    let end = (start + chunk).min(items);
                    work(start..end);
                    start = end;
                }
            }));
            if let (Some(shards), Some(t0)) = (shards, t0) {
                shards.record(0, t0.elapsed().as_nanos() as u64);
            }
            if r.is_err() {
                self.shared.record_poison(1, self.runs());
            }
            return r.map_err(|_| PoolPanicked);
        }
        let result = self.launch(items, chunk, &work);
        self.busy.store(false, Ordering::Release);
        result
    }

    /// Publishes a job, participates, and waits for every started worker.
    fn launch(
        &self,
        items: usize,
        chunk: usize,
        work: &(dyn Fn(Range<usize>) + Sync),
    ) -> Result<(), PoolPanicked> {
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        // SAFETY: lifetime erasure only — the reference is dropped from the
        // job slot (under the lock) before this function returns, and every
        // worker that dereferences it is joined first via `active`.
        let erased: &'static (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(work) };
        {
            let mut state = lock(&self.shared.state);
            self.shared.cursor.store(0, Ordering::Relaxed);
            state.panicked = 0;
            state.job = Some(Job {
                generation,
                work: ErasedWork(erased),
                items,
                chunk,
            });
            self.shared.work_ready.notify_all();
        }

        // The caller drains chunks alongside the workers. A panic here must
        // still wait for the workers (they borrow `work`), so it is caught
        // and folded into the same error.
        let shards = self.shared.shards();
        let t0 = shards.as_ref().map(|_| Instant::now());
        let caller_panicked = catch_unwind(AssertUnwindSafe(|| {
            drain(&self.shared.cursor, items, chunk, work)
        }))
        .is_err();
        if let (Some(shards), Some(t0)) = (shards, t0) {
            shards.record(0, t0.elapsed().as_nanos() as u64);
        }

        let mut state = lock(&self.shared.state);
        while state.active > 0 {
            state = wait(&self.shared.work_done, state);
        }
        state.job = None;
        let worker_panics = state.panicked as u64;
        drop(state);
        if caller_panicked || worker_panics > 0 {
            self.shared
                .record_poison(worker_panics + u64::from(caller_panicked), self.runs());
            Err(PoolPanicked)
        } else {
            Ok(())
        }
    }

    /// An ordered parallel reduction: `map(range)` per chunk, partials
    /// folded with `fold` in chunk-index order starting from `init`.
    ///
    /// Because the fold order is the chunk order — not the completion
    /// order — the result is bit-identical to the serial loop with the same
    /// `chunk`. Pass [`reduce_chunk_size`] to also make it independent of
    /// the pool's thread count.
    ///
    /// # Panics
    ///
    /// Panics if `map` panicked on any participating thread.
    pub fn reduce_in_order<R, M, F>(
        &self,
        items: usize,
        chunk: usize,
        init: R,
        map: M,
        fold: F,
    ) -> R
    where
        R: Send,
        M: Fn(Range<usize>) -> R + Sync,
        F: Fn(R, R) -> R,
    {
        if items == 0 {
            return init;
        }
        let chunk = chunk.max(1);
        let num_chunks = items.div_ceil(chunk);
        let mut partials: Vec<Option<R>> = Vec::with_capacity(num_chunks);
        partials.resize_with(num_chunks, || None);
        {
            let slots = DisjointSlice::new(&mut partials);
            self.run(items, chunk, |range| {
                let index = range.start / chunk;
                let value = map(range);
                // SAFETY: chunk starts are unique, so `index` is visited by
                // exactly one worker.
                unsafe { slots.write(index, Some(value)) };
            });
        }
        let mut acc = init;
        for slot in partials {
            match slot {
                Some(v) => acc = fold(acc, v),
                // Unreachable: `run` visits every chunk or panics above.
                None => continue,
            }
        }
        acc
    }
}

/// A shared, long-lived [`WorkerPool`] that many independent runs borrow
/// per-step instead of each spawning their own.
///
/// This inverts the original ownership model (one pool per run): the host
/// owns the only pool, hands out [`PoolTenant`] handles — one per job —
/// and each tenant *leases* the pool for the duration of one step via
/// [`PoolTenant::lease`]. The lease installs the tenant's telemetry shards
/// and attributes pool launches to the tenant, so per-job `ExecSummary`
/// counters and per-worker busy shards stay separate even though every job
/// executes on the same OS threads.
///
/// Leases must be serialized by the caller (the scheduler steps one job at
/// a time); the pool itself is oblivious to tenancy and its launch
/// protocol — and therefore every kernel's chunking and reduction order —
/// is bit-identical to a run-owned pool with the same thread count.
#[derive(Clone)]
pub struct PoolHost {
    pool: Arc<WorkerPool>,
}

impl PoolHost {
    /// A host around a freshly spawned pool of `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: Arc::new(WorkerPool::new(threads)),
        }
    }

    /// Wraps an existing pool.
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self { pool }
    }

    /// Worker count of the shared pool (including the calling thread).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The shared pool itself.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Creates a tenant handle for one job. Cheap; does not lease.
    pub fn tenant(&self) -> Arc<PoolTenant> {
        Arc::new(PoolTenant {
            pool: Arc::clone(&self.pool),
            runs: AtomicU64::new(0),
            base: AtomicU64::new(u64::MAX),
            shards: Mutex::new(None),
        })
    }
}

/// One job's handle onto a shared [`WorkerPool`] (see [`PoolHost`]).
///
/// Holds the job's launch counter and its telemetry shards; both are only
/// active while a [`PoolLease`] is held, so concurrent jobs never observe
/// each other's counters.
pub struct PoolTenant {
    pool: Arc<WorkerPool>,
    /// Launches attributed to this tenant across completed leases.
    runs: AtomicU64,
    /// `pool.runs()` at lease acquisition; `u64::MAX` while unleased.
    base: AtomicU64,
    /// The tenant's shards, installed into the pool for each lease.
    shards: Mutex<Option<Arc<WorkerShards>>>,
}

impl PoolTenant {
    /// The underlying shared pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Worker count of the shared pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Registers the tenant's per-worker telemetry shards. They are
    /// installed into the pool only while a lease is held (and removed on
    /// release), replacing the run-owned
    /// [`WorkerPool::set_worker_shards`] call.
    pub fn set_worker_shards(&self, shards: Arc<WorkerShards>) {
        *lock(&self.shards) = Some(shards);
    }

    /// Pool launches attributed to this tenant so far (including the live
    /// delta of a currently held lease).
    pub fn runs(&self) -> u64 {
        let folded = self.runs.load(Ordering::Relaxed);
        let base = self.base.load(Ordering::Relaxed);
        if base == u64::MAX {
            folded
        } else {
            folded + self.pool.runs().saturating_sub(base)
        }
    }

    /// Acquires the pool for this tenant until the returned guard drops.
    ///
    /// Installs the tenant's shards and snapshots the pool's launch
    /// counter so the delta can be attributed on release. Re-leasing while
    /// already leased returns a nested no-op guard (the outer lease keeps
    /// ownership). The caller must ensure no *other* tenant holds a lease
    /// concurrently — the scheduler serializes steps.
    pub fn lease(self: &Arc<Self>) -> PoolLease {
        let snapshot = self.pool.runs();
        let outer = self
            .base
            .compare_exchange(u64::MAX, snapshot, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if outer {
            if let Some(shards) = lock(&self.shards).clone() {
                self.pool.set_worker_shards(shards);
            }
        }
        PoolLease {
            tenant: Arc::clone(self),
            outer,
        }
    }
}

/// RAII guard for one tenant's turn on the shared pool (see
/// [`PoolTenant::lease`]). Dropping it folds the launch delta into the
/// tenant's counter and removes the tenant's shards from the pool.
pub struct PoolLease {
    tenant: Arc<PoolTenant>,
    /// False for a nested re-lease: the guard releases nothing.
    outer: bool,
}

impl PoolLease {
    /// The leased pool, for the duration of this guard.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.tenant.pool
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        if !self.outer {
            return;
        }
        let base = self.tenant.base.swap(u64::MAX, Ordering::AcqRel);
        if base != u64::MAX {
            let delta = self.tenant.pool.runs().saturating_sub(base);
            self.tenant.runs.fetch_add(delta, Ordering::Relaxed);
        }
        if lock(&self.tenant.shards).is_some() {
            self.tenant.pool.clear_worker_shards();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        let workers = mem::take(&mut *lock(&self.workers));
        for handle in workers {
            // A worker can only terminate by observing `shutdown` or by a
            // panic escaping `worker_loop`, which it cannot (the closure is
            // run under `catch_unwind`); join errors are unreachable, and
            // ignoring one at shutdown is harmless anyway.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize) {
    let mut last_seen = 0u64;
    let mut state = lock(&shared.state);
    loop {
        if state.shutdown {
            return;
        }
        // Chaos hook: claim one pending exit request and die, simulating a
        // worker-thread death for `respawn_dead` tests. Checked only while
        // idle so a busy worker always finishes its launch first.
        if state.job.is_none()
            && shared
                .exit_requests
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        {
            return;
        }
        let job = match state.job.as_ref() {
            Some(job) if job.generation != last_seen => {
                Some((job.generation, job.work, job.items, job.chunk))
            }
            _ => None,
        };
        match job {
            Some((generation, work, items, chunk)) => {
                last_seen = generation;
                state.active += 1;
                drop(state);
                // The reference was published under the lock together with
                // the `active` increment above; `launch` cannot return (and
                // the closure cannot be dropped) until `active` reaches
                // zero again below.
                let work = work.0;
                let shards = shared.shards();
                let t0 = shards.as_ref().map(|_| Instant::now());
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    drain(&shared.cursor, items, chunk, work)
                }))
                .is_err();
                if let (Some(shards), Some(t0)) = (shards, t0) {
                    shards.record(index, t0.elapsed().as_nanos() as u64);
                }
                state = lock(&shared.state);
                if panicked {
                    state.panicked += 1;
                }
                state.active -= 1;
                if state.active == 0 {
                    shared.work_done.notify_all();
                }
            }
            None => {
                state = wait(&shared.work_ready, state);
            }
        }
    }
}

/// The shared dynamic-scheduling loop: claim the next chunk until the
/// items run out.
fn drain(cursor: &AtomicUsize, items: usize, chunk: usize, work: &(dyn Fn(Range<usize>) + Sync)) {
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= items {
            break;
        }
        let end = (start + chunk).min(items);
        work(start..end);
    }
}

/// Locks a mutex, ignoring poisoning: pool state is only mutated under the
/// lock by panic-free bookkeeping code (counters and Option swaps), so a
/// poisoned lock still holds consistent state.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn wait<'a, T>(cv: &Condvar, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn covers_all_items_once_at_any_thread_count() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let n = 1003;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, 13, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn spawns_once_and_reuses_workers_across_launches() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads_spawned(), 3);
        for _ in 0..100 {
            let sum = AtomicUsize::new(0);
            pool.run(256, 8, |r| {
                sum.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 256);
        }
        // Still the same three workers; the spawn count cannot grow.
        assert_eq!(pool.threads_spawned(), 3);
        assert_eq!(pool.runs(), 100);
    }

    #[test]
    fn zero_items_is_a_no_op() {
        let pool = WorkerPool::new(3);
        pool.run(0, 16, |_| panic!("must not be called"));
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(4);
        let sum = AtomicUsize::new(0);
        pool.run(64, 4, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        drop(pool);
        // Nothing to assert beyond "drop returned": join hangs forever if a
        // worker missed the shutdown signal, which the test harness treats
        // as a failure via its timeout.
    }

    #[test]
    fn panic_in_worker_surfaces_as_error() {
        let pool = WorkerPool::new(4);
        let r = pool.try_run(100, 1, |range| {
            if range.start == 42 {
                panic!("injected");
            }
        });
        assert_eq!(r, Err(PoolPanicked));
        // The pool survives a panicked launch and runs the next one.
        let sum = AtomicUsize::new(0);
        pool.run(50, 4, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn panic_on_caller_thread_also_surfaces() {
        // Serial pool: the panic happens on the calling thread.
        let pool = WorkerPool::serial();
        let r = pool.try_run(10, 1, |range| {
            if range.start == 5 {
                panic!("injected");
            }
        });
        assert_eq!(r, Err(PoolPanicked));
    }

    #[test]
    fn nested_launch_runs_serially_without_deadlock() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        pool.run(8, 1, |outer| {
            // A kernel that itself launches on the same pool (the engine
            // composes operators; accidental nesting must not deadlock).
            pool.run(4, 1, |inner| {
                total.fetch_add(outer.len() * inner.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn reduce_in_order_matches_serial_sum_bit_exactly() {
        // Sums in a hostile order-sensitivity regime: many magnitudes.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 * 1e-3 + 1e6 * ((i % 7) as f64))
            .collect();
        let chunk = reduce_chunk_size(xs.len());
        let serial = {
            let pool = WorkerPool::serial();
            pool.reduce_in_order(
                xs.len(),
                chunk,
                0.0,
                |r| xs[r].iter().sum::<f64>(),
                |a, b| a + b,
            )
        };
        let parallel = {
            let pool = WorkerPool::new(4);
            pool.reduce_in_order(
                xs.len(),
                chunk,
                0.0,
                |r| xs[r].iter().sum::<f64>(),
                |a, b| a + b,
            )
        };
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn worker_shards_capture_all_participants_busy_time() {
        let pool = WorkerPool::new(3);
        let shards = Arc::new(WorkerShards::new(pool.threads()));
        pool.set_worker_shards(Arc::clone(&shards));
        for _ in 0..20 {
            pool.run(4096, 1, |r| {
                // Enough per-chunk work that every thread claims chunks.
                std::hint::black_box(r.map(|i| i * i).sum::<usize>());
            });
        }
        let per_worker = shards.per_worker();
        assert_eq!(per_worker.len(), 3);
        // The caller participates in every launch.
        assert_eq!(per_worker[0].0, 20);
        // Total launch participations across threads are at most 3 per run.
        let launches: u64 = per_worker.iter().map(|w| w.0).sum();
        assert!((20..=60).contains(&launches), "{per_worker:?}");
    }

    #[test]
    fn serial_pool_records_caller_shard() {
        let pool = WorkerPool::serial();
        let shards = Arc::new(WorkerShards::new(pool.threads()));
        pool.set_worker_shards(Arc::clone(&shards));
        pool.run(16, 4, |_| {});
        assert_eq!(shards.per_worker()[0].0, 1);
    }

    #[test]
    fn tenant_runs_are_attributed_per_lease() {
        let host = PoolHost::new(2);
        let a = host.tenant();
        let b = host.tenant();
        {
            let lease = a.lease();
            lease.pool().run(64, 8, |_| {});
            lease.pool().run(64, 8, |_| {});
            // Live delta is visible while leased.
            assert_eq!(a.runs(), 2);
        }
        {
            let lease = b.lease();
            lease.pool().run(64, 8, |_| {});
        }
        assert_eq!(a.runs(), 2);
        assert_eq!(b.runs(), 1);
        // A second lease keeps accumulating onto the same tenant.
        {
            let lease = a.lease();
            lease.pool().run(64, 8, |_| {});
        }
        assert_eq!(a.runs(), 3);
        assert_eq!(host.pool().runs(), 4);
    }

    #[test]
    fn nested_lease_is_a_no_op_guard() {
        let host = PoolHost::new(1);
        let t = host.tenant();
        let outer = t.lease();
        {
            let inner = t.lease();
            inner.pool().run(8, 4, |_| {});
        }
        // The inner drop must not release the outer lease.
        outer.pool().run(8, 4, |_| {});
        drop(outer);
        assert_eq!(t.runs(), 2);
    }

    #[test]
    fn lease_installs_and_clears_tenant_shards() {
        let host = PoolHost::new(2);
        let t = host.tenant();
        let shards = Arc::new(WorkerShards::new(host.threads()));
        t.set_worker_shards(Arc::clone(&shards));
        {
            let lease = t.lease();
            lease.pool().run(64, 8, |_| {});
        }
        // The tenant's shards saw the launch...
        assert!(shards.per_worker()[0].0 >= 1);
        let seen = shards.per_worker()[0].0;
        // ...and are no longer installed once the lease is released.
        host.pool().run(64, 8, |_| {});
        assert_eq!(shards.per_worker()[0].0, seen);
    }

    #[test]
    fn health_reports_poisoned_launches() {
        let pool = WorkerPool::new(4);
        let h = pool.health();
        assert_eq!(h.threads, 4);
        assert_eq!(h.workers_spawned, 3);
        assert_eq!(h.workers_alive, 3);
        assert_eq!(h.panicked_launches, 0);
        assert_eq!(h.launches_since_poison, None);
        assert!(h.all_workers_alive());

        let r = pool.try_run(100, 1, |range| {
            if range.start == 42 {
                panic!("injected");
            }
        });
        assert_eq!(r, Err(PoolPanicked));
        let h = pool.health();
        assert_eq!(h.panicked_launches, 1);
        assert!(h.thread_panics >= 1);
        assert_eq!(h.launches_since_poison, Some(0));
        // Workers catch panics in their loop: the pool stays fully alive.
        assert!(h.all_workers_alive());

        // Clean launches move the poison further into the past.
        pool.run(16, 4, |_| {});
        pool.run(16, 4, |_| {});
        let h = pool.health();
        assert_eq!(h.panicked_launches, 1);
        assert_eq!(h.launches_since_poison, Some(2));
    }

    #[test]
    fn serial_pool_poison_is_counted_too() {
        let pool = WorkerPool::serial();
        let r = pool.try_run(10, 1, |range| {
            if range.start == 5 {
                panic!("injected");
            }
        });
        assert_eq!(r, Err(PoolPanicked));
        let h = pool.health();
        assert_eq!(h.panicked_launches, 1);
        assert_eq!(h.thread_panics, 1);
        assert_eq!(h.launches_since_poison, Some(0));
    }

    #[test]
    fn respawn_replaces_dead_workers_and_clean_launch_works() {
        let pool = WorkerPool::new(4);
        pool.run(64, 4, |_| {});
        // Kill two workers, then wait for their threads to wind down.
        pool.debug_exit_workers(2);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while pool.health().dead_workers() < 2 {
            assert!(Instant::now() < deadline, "workers never exited");
            std::thread::yield_now();
        }
        let h = pool.health();
        assert_eq!(h.workers_spawned, 3);
        assert_eq!(h.workers_alive, 1);
        assert_eq!(h.dead_workers(), 2);

        assert_eq!(pool.respawn_dead(), 2);
        let h = pool.health();
        assert!(h.all_workers_alive(), "{h:?}");
        assert_eq!(pool.threads_spawned(), 3);

        // The repaired pool still covers every item exactly once.
        let n = 1003;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, 13, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

        // And a healthy pool respawn is a no-op.
        assert_eq!(pool.respawn_dead(), 0);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn reduce_chunk_size_is_thread_invariant() {
        // No `threads` parameter at all — the signature is the guarantee —
        // but the value must still follow the paper's formula at width 16.
        assert_eq!(reduce_chunk_size(16 * 16 * 10), 10);
        assert_eq!(reduce_chunk_size(5), 1);
    }
}
