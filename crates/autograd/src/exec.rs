//! The persistent execution context threaded through every operator.
//!
//! GPU DREAMPlace gets its speed from launching kernels into a long-lived
//! CUDA context with stable device buffers. [`ExecCtx`] is the CPU
//! analogue: it owns
//!
//! * a persistent [`WorkerPool`] (spawned once per placement run, parked
//!   between kernel launches),
//! * a registry of reusable scratch workspaces keyed by kernel (pin
//!   gradient buffers, density maps, DCT work arrays), leased and released
//!   around each launch instead of allocated per call, and
//! * cheap per-operator counters (calls, nanoseconds, scratch bytes)
//!   that the engine surfaces in its run statistics.
//!
//! Operators receive `&mut ExecCtx` in [`Operator::forward`]/`backward`/
//! `forward_backward`; whoever drives them — [`GlobalPlacer`] for a
//! placement run, a test, a bench — constructs the ctx once and keeps it
//! alive across iterations, which is what turns per-call spawn/allocate
//! overhead into amortized reuse.
//!
//! # Workspace discipline
//!
//! [`ExecCtx::lease`] always returns a buffer of exactly the requested
//! length, **zero-filled** — kernels such as the WA forward rely on zeroed
//! scratch for degenerate nets, and a recycled buffer still carrying the
//! previous iteration's values is precisely the bug class this protocol
//! rules out. Kernels additionally `debug_assert` that workspace lengths
//! match the current pin/net counts so a netlist change cannot silently
//! reuse stale-shaped buffers.
//!
//! [`Operator::forward`]: crate::Operator::forward
//! [`GlobalPlacer`]: ../dp_gp/struct.GlobalPlacer.html

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dp_num::{Float, PoolTenant, WorkerPool};
use dp_telemetry::{KernelTimer, Telemetry};

/// Per-operator call counters (kept cheap: two saturating adds per call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounter {
    /// Number of forward/backward/forward_backward invocations recorded.
    pub calls: u64,
    /// Total wall-clock nanoseconds spent inside those invocations.
    pub nanos: u64,
}

/// Per-workspace reuse counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceCounter {
    /// Times the workspace was leased (or, for operator-owned buffers,
    /// prepared for a kernel launch).
    pub uses: u64,
    /// Uses that recycled an existing buffer instead of allocating one.
    pub reuses: u64,
    /// Bytes of scratch held at the most recent use.
    pub bytes: usize,
}

/// A snapshot of the context's counters, ordered by name for stable output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecSummary {
    /// Worker count launches are spread over (including the caller).
    pub pool_threads: usize,
    /// OS threads the pool spawned (constant for the pool's lifetime).
    pub threads_spawned: usize,
    /// Kernel launches dispatched through the pool.
    pub pool_runs: u64,
    /// Per-operator counters, sorted by operator name.
    pub ops: Vec<(&'static str, OpCounter)>,
    /// Per-workspace counters, sorted by workspace key.
    pub workspaces: Vec<(&'static str, WorkspaceCounter)>,
}

impl ExecSummary {
    /// Total bytes of scratch across all tracked workspaces.
    pub fn scratch_bytes(&self) -> usize {
        self.workspaces.iter().map(|(_, w)| w.bytes).sum()
    }

    /// Total operator invocations across all ops.
    pub fn total_op_calls(&self) -> u64 {
        self.ops.iter().map(|(_, c)| c.calls).sum()
    }

    /// Folds `other` into `self`, preserving per-op call/nanos totals
    /// across context restarts.
    ///
    /// A rollback restart (the GP conservative-preset fallback) builds a
    /// fresh `ExecCtx`, which resets every counter; without merging, the
    /// aborted attempt's kernel time simply vanishes from the run's
    /// statistics. Ops and workspaces are summed by key (workspace `bytes`
    /// takes the max — it is a high-water gauge, not a rate), `pool_runs`
    /// and `threads_spawned` add up (two pools really did spawn twice),
    /// and `pool_threads` keeps `self`'s value, describing the surviving
    /// context.
    pub fn merge(&mut self, other: &ExecSummary) {
        self.pool_runs += other.pool_runs;
        self.threads_spawned += other.threads_spawned;
        if self.pool_threads == 0 {
            self.pool_threads = other.pool_threads;
        }
        let mut ops: BTreeMap<&'static str, OpCounter> = self.ops.iter().copied().collect();
        for (name, c) in &other.ops {
            let e = ops.entry(name).or_default();
            e.calls += c.calls;
            e.nanos = e.nanos.saturating_add(c.nanos);
        }
        self.ops = ops.into_iter().collect();
        let mut workspaces: BTreeMap<&'static str, WorkspaceCounter> =
            self.workspaces.iter().copied().collect();
        for (name, w) in &other.workspaces {
            let e = workspaces.entry(name).or_default();
            e.uses += w.uses;
            e.reuses += w.reuses;
            e.bytes = e.bytes.max(w.bytes);
        }
        self.workspaces = workspaces.into_iter().collect();
    }
}

/// The persistent execution context; see the [module docs](self).
pub struct ExecCtx<T> {
    pool: Arc<WorkerPool>,
    /// Shared-pool mode: the job's tenancy handle onto the pool. `None`
    /// means the classic run-owned model (this ctx's run is the pool's
    /// only customer).
    tenant: Option<Arc<PoolTenant>>,
    workspaces: BTreeMap<&'static str, Vec<T>>,
    ws_counters: BTreeMap<&'static str, WorkspaceCounter>,
    ops: BTreeMap<&'static str, OpCounter>,
    telemetry: Telemetry,
    /// Cached kernel-timer handles so [`ExecCtx::record_op`] skips the
    /// telemetry registry lock on the per-call hot path.
    timers: BTreeMap<&'static str, Arc<KernelTimer>>,
}

impl<T: Float> ExecCtx<T> {
    /// A context whose pool spreads kernel launches over `threads` workers
    /// (the pool spawns `threads - 1` OS threads once, here).
    pub fn new(threads: usize) -> Self {
        Self::with_pool(Arc::new(WorkerPool::new(threads)))
    }

    /// A context that runs every kernel on the calling thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A context sharing an existing pool (e.g. several operators or runs
    /// sharing one set of workers).
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self {
            pool,
            tenant: None,
            workspaces: BTreeMap::new(),
            ws_counters: BTreeMap::new(),
            ops: BTreeMap::new(),
            telemetry: Telemetry::disabled(),
            timers: BTreeMap::new(),
        }
    }

    /// A context executing as one tenant of a shared pool (see
    /// [`dp_num::PoolHost`]). Kernel launches go to the shared pool;
    /// telemetry shards and launch counters are attributed through the
    /// tenant so concurrent jobs stay separate. The caller (the scheduler)
    /// must hold the tenant's [`dp_num::PoolLease`] around every kernel
    /// launch.
    pub fn with_tenant(tenant: Arc<PoolTenant>) -> Self {
        let mut ctx = Self::with_pool(Arc::clone(tenant.pool()));
        ctx.tenant = Some(tenant);
        ctx
    }

    /// The tenancy handle when this ctx runs on a shared pool.
    pub fn tenant(&self) -> Option<&Arc<PoolTenant>> {
        self.tenant.as_ref()
    }

    /// [`ExecCtx::new`] with a telemetry sink attached; see
    /// [`ExecCtx::set_telemetry`].
    pub fn with_telemetry(threads: usize, telemetry: Telemetry) -> Self {
        let mut ctx = Self::new(threads);
        ctx.set_telemetry(telemetry);
        ctx
    }

    /// Attaches a telemetry sink: operator timings recorded through
    /// [`ExecCtx::record_op`] are mirrored into its kernel timers, and
    /// the pool's per-worker busy time is captured under the `"pool"`
    /// label. A [`Telemetry::disabled`] sink (the default) costs one
    /// branch per record.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(shards) = telemetry.worker_shards("pool", self.pool.threads()) {
            match &self.tenant {
                // Shared pool: the shards belong to this job only, so they
                // are parked on the tenant and installed into the pool for
                // the duration of each lease.
                Some(tenant) => tenant.set_worker_shards(shards),
                None => self.pool.set_worker_shards(shards),
            }
        }
        self.telemetry = telemetry;
        self.timers.clear();
    }

    /// The attached telemetry sink (disabled unless installed).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The worker pool; kernels clone the `Arc` so the borrow does not
    /// conflict with concurrent workspace leases.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Worker count of the pool (including the calling thread).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Leases the workspace `key` as a zero-filled buffer of exactly `len`
    /// elements, recycling the previously released buffer when present.
    /// Return it with [`ExecCtx::release`] after the kernel launch.
    pub fn lease(&mut self, key: &'static str, len: usize) -> Vec<T> {
        let recycled = self.workspaces.remove(key);
        let reused = recycled.is_some();
        let mut buf = recycled.unwrap_or_default();
        buf.clear();
        buf.resize(len, T::ZERO);
        let counter = self.ws_counters.entry(key).or_default();
        counter.uses += 1;
        counter.reuses += u64::from(reused);
        counter.bytes = buf.capacity() * std::mem::size_of::<T>();
        buf
    }

    /// Returns a leased buffer so the next [`ExecCtx::lease`] of `key`
    /// reuses its allocation.
    pub fn release(&mut self, key: &'static str, buf: Vec<T>) {
        self.workspaces.insert(key, buf);
    }

    /// Records a use of an *operator-owned* persistent workspace (buffers
    /// whose element type or structure does not fit the [`ExecCtx::lease`]
    /// registry, e.g. atomic density bins or the cached field solution) so
    /// the reuse counters still cover it.
    pub fn note_workspace(&mut self, key: &'static str, bytes: usize, reused: bool) {
        let counter = self.ws_counters.entry(key).or_default();
        counter.uses += 1;
        counter.reuses += u64::from(reused);
        counter.bytes = bytes;
    }

    /// Starts a per-op timing span; close it with [`ExecCtx::record_op`].
    pub fn op_timer(&self) -> Instant {
        Instant::now()
    }

    /// Records one operator invocation of `name` that started at `t0`.
    pub fn record_op(&mut self, name: &'static str, t0: Instant) {
        let elapsed: Duration = t0.elapsed();
        self.record_op_nanos(name, elapsed.as_nanos() as u64);
    }

    /// Records one invocation of `name` whose duration was measured by the
    /// caller (e.g. phase timers accumulated inside a kernel sweep and
    /// mirrored here afterwards).
    pub fn record_op_nanos(&mut self, name: &'static str, nanos: u64) {
        let counter = self.ops.entry(name).or_default();
        counter.calls += 1;
        counter.nanos = counter.nanos.saturating_add(nanos);
        if self.telemetry.is_enabled() {
            let timer = self.timers.entry(name).or_insert_with(|| {
                // The sink is enabled, so the registry always hands back a
                // timer; an (unreachable) disabled race falls back to a
                // detached timer rather than panicking.
                self.telemetry.kernel_timer(name).unwrap_or_default()
            });
            timer.record(nanos);
        }
    }

    /// The counters for operator `name` recorded so far.
    pub fn op_counter(&self, name: &str) -> OpCounter {
        self.ops.get(name).copied().unwrap_or_default()
    }

    /// Snapshot of every counter, for run statistics.
    pub fn summary(&self) -> ExecSummary {
        ExecSummary {
            pool_threads: self.pool.threads(),
            // A tenant did not spawn the shared workers, and its launch
            // count is its own lease-attributed delta — not the pool-wide
            // total, which includes every other job's kernels.
            threads_spawned: match &self.tenant {
                Some(_) => 0,
                None => self.pool.threads_spawned(),
            },
            pool_runs: match &self.tenant {
                Some(tenant) => tenant.runs(),
                None => self.pool.runs(),
            },
            ops: self.ops.iter().map(|(k, v)| (*k, *v)).collect(),
            workspaces: self.ws_counters.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }
}

impl<T: Float> Default for ExecCtx<T> {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn lease_zero_fills_and_counts_reuse() {
        let mut ctx = ExecCtx::<f64>::serial();
        let mut buf = ctx.lease("k", 8);
        assert_eq!(buf, vec![0.0; 8]);
        buf.iter_mut().for_each(|v| *v = 7.0);
        ctx.release("k", buf);

        // Second lease recycles the allocation but must come back zeroed.
        let buf = ctx.lease("k", 8);
        assert_eq!(buf, vec![0.0; 8]);
        ctx.release("k", buf);

        // Growing the lease still counts as a reuse of the registry slot.
        let buf = ctx.lease("k", 16);
        assert_eq!(buf.len(), 16);
        ctx.release("k", buf);

        let s = ctx.summary();
        let (key, ws) = s.workspaces[0];
        assert_eq!(key, "k");
        assert_eq!(ws.uses, 3);
        assert_eq!(ws.reuses, 2);
        assert!(ws.bytes >= 16 * std::mem::size_of::<f64>());
        assert!(s.scratch_bytes() >= ws.bytes);
    }

    #[test]
    fn op_counters_accumulate() {
        let mut ctx = ExecCtx::<f32>::serial();
        for _ in 0..3 {
            let t0 = ctx.op_timer();
            ctx.record_op("wa-wirelength", t0);
        }
        let c = ctx.op_counter("wa-wirelength");
        assert_eq!(c.calls, 3);
        assert_eq!(ctx.op_counter("never-recorded"), OpCounter::default());
    }

    #[test]
    fn note_workspace_tracks_operator_owned_buffers() {
        let mut ctx = ExecCtx::<f64>::serial();
        ctx.note_workspace("density.bins", 1024, false);
        ctx.note_workspace("density.bins", 1024, true);
        let s = ctx.summary();
        let ws = s
            .workspaces
            .iter()
            .find(|(k, _)| *k == "density.bins")
            .expect("tracked")
            .1;
        assert_eq!(ws.uses, 2);
        assert_eq!(ws.reuses, 1);
        assert_eq!(ws.bytes, 1024);
    }

    #[test]
    fn merge_preserves_per_op_nanos_across_restarts() {
        // Simulates the conservative-preset fallback: a first ctx records
        // kernel time, is torn down, and a fresh ctx runs the retry.
        let mut first = ExecCtx::<f64>::serial();
        let t0 = first.op_timer();
        first.record_op("wa.forward", t0);
        first.record_op("wa.forward", t0);
        first.record_op("density.forward", t0);
        first.note_workspace("density.bins", 2048, true);
        let aborted = first.summary();
        drop(first);

        let mut retry = ExecCtx::<f64>::serial();
        let t0 = retry.op_timer();
        retry.record_op("wa.forward", t0);
        retry.note_workspace("density.bins", 1024, false);
        let mut merged = retry.summary();
        merged.merge(&aborted);

        let wa = merged
            .ops
            .iter()
            .find(|(k, _)| *k == "wa.forward")
            .expect("merged op")
            .1;
        assert_eq!(wa.calls, 3, "aborted attempt's calls must survive");
        assert_eq!(merged.total_op_calls(), 4);
        let ws = merged
            .workspaces
            .iter()
            .find(|(k, _)| *k == "density.bins")
            .expect("merged ws")
            .1;
        assert_eq!(ws.uses, 2);
        assert_eq!(ws.reuses, 1);
        assert_eq!(ws.bytes, 2048, "bytes is a high-water gauge");
    }

    #[test]
    fn merge_with_default_is_identity_on_ops() {
        let mut ctx = ExecCtx::<f64>::serial();
        let t0 = ctx.op_timer();
        ctx.record_op("hpwl.forward", t0);
        let mut s = ctx.summary();
        let before = s.clone();
        s.merge(&ExecSummary::default());
        assert_eq!(s, before);
    }

    #[test]
    fn record_op_mirrors_into_telemetry_kernels() {
        let tel = Telemetry::enabled();
        let mut ctx = ExecCtx::<f64>::with_telemetry(1, tel.clone());
        for _ in 0..5 {
            let t0 = ctx.op_timer();
            ctx.record_op("wa.forward", t0);
        }
        let timer = tel.kernel_timer("wa.forward").expect("registered");
        assert_eq!(timer.total().0, 5);
        assert_eq!(ctx.op_counter("wa.forward").calls, 5);
    }

    #[test]
    fn disabled_telemetry_keeps_plain_counters() {
        let mut ctx = ExecCtx::<f64>::serial();
        assert!(!ctx.telemetry().is_enabled());
        let t0 = ctx.op_timer();
        ctx.record_op("wa.forward", t0);
        assert_eq!(ctx.op_counter("wa.forward").calls, 1);
    }

    #[test]
    fn tenant_ctx_attributes_runs_and_shards_per_job() {
        let host = dp_num::PoolHost::new(2);
        let t_a = host.tenant();
        let t_b = host.tenant();
        let mut a = ExecCtx::<f64>::with_tenant(Arc::clone(&t_a));
        let b = ExecCtx::<f64>::with_tenant(Arc::clone(&t_b));
        let tel = Telemetry::enabled();
        a.set_telemetry(tel.clone());
        {
            let lease = t_a.lease();
            lease.pool().run(64, 8, |_| {});
        }
        {
            let lease = t_b.lease();
            lease.pool().run(64, 8, |_| {});
            lease.pool().run(64, 8, |_| {});
        }
        let sa = a.summary();
        let sb = b.summary();
        assert_eq!(sa.pool_runs, 1, "job A sees only its own launches");
        assert_eq!(sb.pool_runs, 2);
        assert_eq!(sa.threads_spawned, 0, "tenants spawn nothing");
        assert_eq!(sa.pool_threads, 2);
        // Job A's shards saw job A's launch only; job B ran unsharded.
        let shards = tel.worker_shards("pool", 2).expect("registered");
        assert_eq!(shards.per_worker()[0].0, 1);
    }

    #[test]
    fn shared_pool_contexts_report_pool_counters() {
        let pool = Arc::new(WorkerPool::new(2));
        let ctx = ExecCtx::<f64>::with_pool(Arc::clone(&pool));
        pool.run(10, 2, |_| {});
        let s = ctx.summary();
        assert_eq!(s.pool_threads, 2);
        assert_eq!(s.threads_spawned, 1);
        assert_eq!(s.pool_runs, 1);
    }
}
