//! Sharded multi-tenant engine layer.
//!
//! One [`ShardMap`] owns every engine the server answers queries from,
//! keyed by characterization fingerprint
//! ([`CharacterizationGrid::fingerprint`](mcdvfs_sim::CharacterizationGrid::fingerprint)).
//! The default tenant's shard is built eagerly from the [`ServeState`]
//! engine and pinned; every other tenant is a [`TenantSpec`] —
//! `(System, SampleTrace, FrequencyGrid)` — whose shard is characterized
//! lazily on first request and evicted least-recently-used when the
//! resident count would exceed `max_shards`. An evicted tenant is not an
//! error: its next request rebuilds the shard from the spec, and because
//! characterization is deterministic the rebuilt shard carries the same
//! fingerprint and serves bit-identical replies.
//!
//! Each shard owns its own bounded job queue, worker slice, and reply
//! LRU, so tenants never serialize on one another: a slow governed
//! replay for one workload cannot queue behind — or shed — another
//! workload's traffic. Workers hold the *core* ([`ShardCore`]) but never
//! the job sender; dropping a shard's [`ShardHandle`] (eviction or
//! shutdown) disconnects the queue, the workers drain what was already
//! accepted, deliver those completions, and exit. Worker join handles
//! live in the map's reaper list and are joined at shutdown, never from
//! the reactor tick.

use crate::cache::{CacheKey, ShardedLru};
use crate::poll::Waker;
use crate::protocol::{
    Request, Response, WireChoice, WireCluster, WirePolicyCounters, WirePolicyReport, WireRegion,
    WireReport, WireShard, WireStoreCounters,
};
use crate::server::ServerConfig;
use mcdvfs_core::{GovernedRun, PolicyScorecard, RunReport, SweepEngine};
use mcdvfs_obs::{FlightRecorder, MetricSet, Outcome, RequestTrace, Stage};
use mcdvfs_policy::{build_policy, PolicyGovernor, SHIPPED_POLICIES};
use mcdvfs_sim::System;
use mcdvfs_store::SnapshotStore;
use mcdvfs_types::FrequencyGrid;
use mcdvfs_workloads::SampleTrace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Independently locked cache shards within one engine shard's LRU.
const CACHE_SHARDS: usize = 8;

/// Identifies one reactor connection *instance*: slot id plus a
/// generation that changes whenever the slot is reused or the request
/// times out, so a late completion can never answer the wrong client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnToken {
    /// Slab slot index.
    pub id: usize,
    /// Monotonic generation the slot held when the job was dispatched.
    pub gen: u64,
}

/// One queued compute request, owned by a shard worker until its reply
/// is delivered back to the reactor.
pub(crate) struct Job {
    pub request: Request,
    pub key: CacheKey,
    pub conn: ConnToken,
    /// Flight record riding along with the request (`None` when
    /// telemetry is off). The worker stamps dequeued/computed/encoded
    /// and hauls it back on the [`Completion`].
    pub trace: Option<RequestTrace>,
}

/// A finished compute reply flowing back to the reactor's poll loop.
pub(crate) struct Completion {
    pub conn: ConnToken,
    pub reply: Arc<String>,
    /// The job's flight record, stamped through `encoded`; the reactor
    /// stamps `write_flushed` and commits it.
    pub trace: Option<RequestTrace>,
}

/// The sending side of the completion channel. Every send also wakes
/// the reactor, which blocks in `poll(2)` rather than on the channel.
#[derive(Clone)]
pub(crate) struct CompletionTx {
    tx: Sender<Completion>,
    waker: Waker,
}

impl CompletionTx {
    pub fn new(tx: Sender<Completion>, waker: Waker) -> Self {
        Self { tx, waker }
    }

    /// Queues `completion` for the reactor and wakes it. A reactor that
    /// has already exited drops the completion.
    pub fn send(&self, completion: Completion) {
        if self.tx.send(completion).is_ok() {
            self.waker.wake();
        }
    }
}

/// Everything needed to lazily characterize one tenant's engine.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    system: System,
    trace: SampleTrace,
    grid: FrequencyGrid,
}

impl TenantSpec {
    /// Bundles the inputs a shard build characterizes from.
    #[must_use]
    pub fn new(system: System, trace: SampleTrace, grid: FrequencyGrid) -> Self {
        Self {
            system,
            trace,
            grid,
        }
    }

    /// Characterizes the spec into an engine. Query-time fan-out is
    /// pinned to one thread — shard workers are the parallelism axis —
    /// and replies stay bit-identical at any width.
    fn build(&self) -> (SweepEngine, SampleTrace) {
        let engine =
            SweepEngine::characterize_with_threads(&self.system, &self.trace, self.grid, 1);
        (engine, self.trace.clone())
    }

    /// Deterministic key of the spec *inputs*, for the snapshot store's
    /// first-touch index: a tenant's fingerprint is only known after
    /// characterization, so the store maps this key to the fingerprint a
    /// previous process learned. `Debug` of `f64` is the shortest
    /// round-trippable rendering, so the key is stable across processes;
    /// a stale or colliding entry merely degrades to a store miss.
    pub fn spec_key(&self, name: &str) -> u64 {
        let mut h = mcdvfs_types::Fnv1a64::new();
        h.write(name.as_bytes());
        h.write(format!("{:?}", self.system).as_bytes());
        h.write(format!("{:?}", self.grid).as_bytes());
        h.write_u64(self.trace.len() as u64);
        for s in self.trace.iter() {
            h.write(format!("{s:?}").as_bytes());
        }
        h.finish()
    }

    /// Characterizes the spec offline and persists the snapshot into
    /// `store`, recording the first-touch index entry for `name` — the
    /// `grid_bake` path. A server pointed at the same store afterwards
    /// warm-starts `name` on first touch instead of characterizing.
    ///
    /// Returns the snapshot fingerprint and its encoded size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures as [`mcdvfs_store::SnapshotError`].
    pub fn bake(
        &self,
        name: &str,
        store: &SnapshotStore,
    ) -> std::result::Result<(u64, u64), mcdvfs_store::SnapshotError> {
        let (engine, _) = self.build();
        let snapshot = engine.data().to_snapshot();
        let bytes = store.persist(&snapshot)?;
        store.record_spec(self.spec_key(name), snapshot.fingerprint)?;
        Ok((snapshot.fingerprint, bytes))
    }
}

/// The worker-visible part of one shard: engine, trace, cache, metrics.
/// Deliberately excludes the job sender so worker threads holding the
/// core cannot keep their own queue alive after eviction.
pub(crate) struct ShardCore {
    pub name: String,
    pub fingerprint: u64,
    pub engine: SweepEngine,
    pub trace: SampleTrace,
    pub cache: ShardedLru,
    pub queue_depth: AtomicUsize,
    pub requests: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    /// Policy-engine counters accumulated by `policy_replay` computes
    /// (cache hits replay nothing, so they do not count).
    pub policy_decisions: AtomicU64,
    pub policy_transitions: AtomicU64,
    pub policy_deadline_misses: AtomicU64,
    pub policy_budget_exhaustions: AtomicU64,
    pub worker_metrics: Vec<Mutex<MetricSet>>,
    /// Shared timestamp base for flight-record stamps (workers never
    /// commit — the reactor does, after the write flush).
    recorder: Arc<FlightRecorder>,
    compute_delay: Duration,
}

impl ShardCore {
    /// This shard's row in a `stats` reply.
    pub fn wire_row(&self, pinned: bool) -> WireShard {
        WireShard {
            workload: self.name.clone(),
            fingerprint: format!("{:016x}", self.fingerprint),
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed) as u64,
            pinned,
        }
    }
}

/// Reactor-side handle to a live shard. Dropping it disconnects the job
/// queue; the workers drain and exit on their own.
pub(crate) struct ShardHandle {
    pub core: Arc<ShardCore>,
    pub job_tx: SyncSender<Job>,
    pub last_used: u64,
    pub pinned: bool,
}

/// What dispatching a job to a shard produced. The rejected variants
/// hand the job back so the reactor can finish its flight record.
pub(crate) enum Dispatch {
    /// The job was queued; a [`Completion`] will arrive later.
    Queued,
    /// The bounded queue was full; reply `overloaded` inline.
    Shed(Job),
    /// The queue is disconnected (shutdown); reply a typed error inline.
    Gone(Job),
}

/// All shards, the tenant registry, and the worker reaper list.
pub(crate) struct ShardMap {
    shards: Mutex<HashMap<u64, ShardHandle>>,
    /// Tenant name → fingerprint, learned at first build and kept across
    /// evictions (fingerprints are deterministic per spec).
    names: Mutex<HashMap<String, u64>>,
    specs: HashMap<String, TenantSpec>,
    default_name: String,
    /// Every core ever built — live or evicted — so merged metric
    /// snapshots survive eviction.
    cores: Mutex<Vec<Arc<ShardCore>>>,
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    completions: CompletionTx,
    tick: AtomicU64,
    evictions: AtomicU64,
    workers_per_shard: usize,
    queue_bound: usize,
    cache_capacity: usize,
    max_shards: usize,
    compute_delay: Duration,
    recorder: Arc<FlightRecorder>,
    /// Snapshot store for warm-starting lazy shard builds, when the
    /// server was configured with a snapshot directory.
    store: Option<SnapshotStore>,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_bytes_read: AtomicU64,
}

impl ShardMap {
    /// Builds the map with the default tenant's shard resident and
    /// pinned, sized from `config`.
    pub fn new(
        default_engine: SweepEngine,
        default_trace: SampleTrace,
        specs: HashMap<String, TenantSpec>,
        completions: CompletionTx,
        config: &ServerConfig,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        let default_name = default_engine.data().name().to_string();
        let map = Self {
            shards: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            specs,
            default_name: default_name.clone(),
            cores: Mutex::new(Vec::new()),
            worker_handles: Mutex::new(Vec::new()),
            completions,
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            workers_per_shard: config.workers.max(1),
            queue_bound: config.queue_bound,
            cache_capacity: config.cache_capacity,
            max_shards: config.max_shards.max(1),
            compute_delay: config.compute_delay,
            recorder,
            store: config
                .snapshot_dir
                .as_ref()
                .and_then(|dir| SnapshotStore::open(dir).ok()),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_bytes_read: AtomicU64::new(0),
        };
        map.install(&default_name, default_engine, default_trace, true);
        map
    }

    /// Shards evicted since startup.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Live shard count.
    pub fn resident(&self) -> usize {
        self.shards.lock().expect("shard map poisoned").len()
    }

    /// Resolves a tenant to its live shard, characterizing (and possibly
    /// evicting) as needed. `None` addresses the default tenant.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message for an unknown tenant.
    pub fn resolve(
        &self,
        workload: Option<&str>,
    ) -> Result<(Arc<ShardCore>, SyncSender<Job>), String> {
        let name = workload.unwrap_or(&self.default_name);
        let fingerprint = self
            .names
            .lock()
            .expect("name map poisoned")
            .get(name)
            .copied();
        if let Some(fp) = fingerprint {
            let mut shards = self.shards.lock().expect("shard map poisoned");
            if let Some(handle) = shards.get_mut(&fp) {
                handle.last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                return Ok((Arc::clone(&handle.core), handle.job_tx.clone()));
            }
        }
        let Some(spec) = self.specs.get(name) else {
            return Err(format!(
                "unknown workload {name:?}; known tenants: {}",
                self.known_tenants().join(", ")
            ));
        };
        let t0 = Instant::now();
        // Try the snapshot store before paying for characterization: on
        // rebuild-after-evict the fingerprint is already known; on first
        // touch the store's spec-key index may reveal it. Bit-identity is
        // guaranteed by `from_snapshot`'s fingerprint re-check, so a
        // warm-started shard serves the same bytes a cold build would.
        let warm = self.warm_start(name, spec, fingerprint);
        let warm_started = warm.is_some();
        let (engine, trace) = match warm {
            Some(engine) => (engine, spec.trace.clone()),
            None => spec.build(),
        };
        let built_ns = t0.elapsed().as_nanos() as f64;
        let fp = engine.data().fingerprint();
        if !warm_started {
            if let Some(store) = &self.store {
                // Persist the cold build so the next process (or the next
                // rebuild after eviction) warm-starts. Failures only cost
                // the warm start; serving continues from the fresh build.
                let snapshot = engine.data().to_snapshot();
                if store.persist(&snapshot).is_ok() {
                    let _ = store.record_spec(spec.spec_key(name), snapshot.fingerprint);
                }
            }
        }
        // Two tenants with bit-identical characterizations share a shard.
        {
            self.names
                .lock()
                .expect("name map poisoned")
                .insert(name.to_string(), fp);
            let mut shards = self.shards.lock().expect("shard map poisoned");
            if let Some(handle) = shards.get_mut(&fp) {
                handle.last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                return Ok((Arc::clone(&handle.core), handle.job_tx.clone()));
            }
        }
        let core = self.install(name, engine, trace, false);
        record(&core.worker_metrics[0], |m| {
            m.incr("shard.builds", 1);
            if self.recorder.is_enabled() {
                m.observe_duration_ns("shard.build_ns", built_ns);
            }
            if warm_started {
                m.incr("shard.warm_starts", 1);
            }
        });
        let tx = {
            let shards = self.shards.lock().expect("shard map poisoned");
            shards
                .get(&core.fingerprint)
                .expect("just-installed shard is resident")
                .job_tx
                .clone()
        };
        Ok((core, tx))
    }

    /// Tries to warm-start `name`'s engine from the snapshot store.
    ///
    /// `known_fp` is the fingerprint learned from a previous build of this
    /// tenant (the rebuild-after-evict path); without one, the store's
    /// spec-key index is consulted. Returns `None` — a store miss — when
    /// the store is disabled, the snapshot is absent, corrupt, from
    /// another format version, or names a different workload; the caller
    /// then characterizes from the spec. Every attempt lands in the
    /// `store.hits` / `store.misses` / `store.bytes_read` counters.
    fn warm_start(
        &self,
        name: &str,
        spec: &TenantSpec,
        known_fp: Option<u64>,
    ) -> Option<SweepEngine> {
        let store = self.store.as_ref()?;
        let miss = || {
            self.store_misses.fetch_add(1, Ordering::Relaxed);
        };
        let fp = match known_fp.or_else(|| store.lookup_spec(spec.spec_key(name))) {
            Some(fp) => fp,
            None => {
                miss();
                return None;
            }
        };
        match SweepEngine::warm_start(store, fp, 1) {
            Ok(Some((engine, bytes_read))) if engine.data().name() == name => {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                self.store_bytes_read
                    .fetch_add(bytes_read, Ordering::Relaxed);
                Some(engine)
            }
            // A snapshot for another workload under this key (stale index)
            // or any typed decode failure degrades to characterization.
            Ok(Some(_)) | Ok(None) | Err(_) => {
                miss();
                None
            }
        }
    }

    /// Snapshot-store counters for `stats`/`telemetry` replies.
    pub fn store_counters(&self) -> WireStoreCounters {
        WireStoreCounters {
            hits: self.store_hits.load(Ordering::Relaxed),
            misses: self.store_misses.load(Ordering::Relaxed),
            bytes_read: self.store_bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Sorted tenant names the server can route to.
    fn known_tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.specs.keys().cloned().collect();
        names.push(self.default_name.clone());
        names.sort();
        names.dedup();
        names
    }

    /// Spawns a shard's workers and makes it resident, evicting the
    /// least-recently-used unpinned shard when over capacity.
    fn install(
        &self,
        name: &str,
        engine: SweepEngine,
        trace: SampleTrace,
        pinned: bool,
    ) -> Arc<ShardCore> {
        let fingerprint = engine.data().fingerprint();
        let core = Arc::new(ShardCore {
            name: name.to_string(),
            fingerprint,
            engine,
            trace,
            cache: ShardedLru::new(self.cache_capacity, CACHE_SHARDS),
            queue_depth: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            policy_decisions: AtomicU64::new(0),
            policy_transitions: AtomicU64::new(0),
            policy_deadline_misses: AtomicU64::new(0),
            policy_budget_exhaustions: AtomicU64::new(0),
            worker_metrics: (0..self.workers_per_shard)
                .map(|_| Mutex::new(MetricSet::new()))
                .collect(),
            recorder: Arc::clone(&self.recorder),
            compute_delay: self.compute_delay,
        });
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(self.queue_bound.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut handles = self.worker_handles.lock().expect("reaper list poisoned");
        for slot in 0..self.workers_per_shard {
            let core = Arc::clone(&core);
            let rx = Arc::clone(&job_rx);
            let completions = self.completions.clone();
            handles.push(thread::spawn(move || {
                worker_loop(&core, &rx, &completions, slot);
            }));
        }
        drop(handles);

        let mut shards = self.shards.lock().expect("shard map poisoned");
        if shards.len() >= self.max_shards {
            // Deterministic victim: stalest tick, fingerprint tie-break.
            let victim = shards
                .iter()
                .filter(|(_, h)| !h.pinned)
                .min_by_key(|(fp, h)| (h.last_used, **fp))
                .map(|(fp, _)| *fp);
            if let Some(fp) = victim {
                shards.remove(&fp);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shards.insert(
            fingerprint,
            ShardHandle {
                core: Arc::clone(&core),
                job_tx,
                last_used: self.tick.fetch_add(1, Ordering::Relaxed) + 1,
                pinned,
            },
        );
        drop(shards);
        self.names
            .lock()
            .expect("name map poisoned")
            .insert(name.to_string(), fingerprint);
        self.cores
            .lock()
            .expect("core list poisoned")
            .push(Arc::clone(&core));
        core
    }

    /// Per-shard `stats` rows, sorted by workload name.
    pub fn wire_rows(&self) -> Vec<WireShard> {
        let shards = self.shards.lock().expect("shard map poisoned");
        let mut rows: Vec<WireShard> = shards.values().map(|h| h.core.wire_row(h.pinned)).collect();
        rows.sort_by(|a, b| a.workload.cmp(&b.workload));
        rows
    }

    /// Sums every core's policy-engine counters (live and evicted, so
    /// totals survive eviction like merged metrics do).
    pub fn policy_counters(&self) -> WirePolicyCounters {
        let mut total = WirePolicyCounters::default();
        for core in self.cores.lock().expect("core list poisoned").iter() {
            total.decisions += core.policy_decisions.load(Ordering::Relaxed);
            total.transitions += core.policy_transitions.load(Ordering::Relaxed);
            total.deadline_misses += core.policy_deadline_misses.load(Ordering::Relaxed);
            total.budget_exhaustions += core.policy_budget_exhaustions.load(Ordering::Relaxed);
        }
        total
    }

    /// Merges every core's worker metric slots (live and evicted) into
    /// `into`.
    pub fn merge_metrics(&self, into: &mut MetricSet) {
        for core in self.cores.lock().expect("core list poisoned").iter() {
            for slot in &core.worker_metrics {
                into.merge(&slot.lock().expect("worker metrics poisoned"));
            }
        }
    }

    /// The workload name of the shard built for `fingerprint` (live or
    /// evicted), or the fingerprint in hex if none was.
    pub fn name_of(&self, fingerprint: u64) -> String {
        self.cores
            .lock()
            .expect("core list poisoned")
            .iter()
            .find(|core| core.fingerprint == fingerprint)
            .map_or_else(|| format!("{fingerprint:016x}"), |core| core.name.clone())
    }

    /// Disconnects every queue and joins every worker ever spawned.
    /// Called after the reactor has exited, so no new jobs can arrive.
    pub fn shutdown(&self) {
        self.shards.lock().expect("shard map poisoned").clear();
        let handles =
            std::mem::take(&mut *self.worker_handles.lock().expect("reaper list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Tries to queue a job on a shard, counting depth before the send so a
/// fast worker's decrement can never race the increment below zero.
pub(crate) fn try_dispatch(core: &ShardCore, tx: &SyncSender<Job>, job: Job) -> (Dispatch, usize) {
    let depth = core.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    match tx.try_send(job) {
        Ok(()) => (Dispatch::Queued, depth),
        Err(TrySendError::Full(job)) => {
            core.queue_depth.fetch_sub(1, Ordering::Relaxed);
            (Dispatch::Shed(job), depth)
        }
        Err(TrySendError::Disconnected(job)) => {
            core.queue_depth.fetch_sub(1, Ordering::Relaxed);
            (Dispatch::Gone(job), depth)
        }
    }
}

fn record(slot: &Mutex<MetricSet>, f: impl FnOnce(&mut MetricSet)) {
    f(&mut slot.lock().expect("metric slot poisoned"));
}

fn worker_loop(
    core: &Arc<ShardCore>,
    rx: &Arc<Mutex<Receiver<Job>>>,
    completions: &CompletionTx,
    slot: usize,
) {
    loop {
        // A worker blocks here holding the lock while its siblings block
        // on the lock; dropping the last sender ends each one in turn.
        let job = {
            let guard = rx.lock().expect("job queue poisoned");
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        core.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let mut trace = job.trace;
        if let Some(t) = trace.as_mut() {
            t.stamp(Stage::Dequeued, core.recorder.now_ns());
        }
        if !core.compute_delay.is_zero() {
            thread::sleep(core.compute_delay);
        }
        let response = compute(core, &job.request);
        if let Some(t) = trace.as_mut() {
            t.stamp(Stage::Computed, core.recorder.now_ns());
        }
        let encoded = Arc::new(response.encode());
        record(&core.worker_metrics[slot], |m| m.incr("cache.miss", 1));
        if let Some(t) = trace.as_mut() {
            t.stamp(Stage::Encoded, core.recorder.now_ns());
            if matches!(response, Response::Error(_)) {
                t.outcome = Outcome::Error;
            }
        }
        core.misses.fetch_add(1, Ordering::Relaxed);
        // Errors are not cached: a later identical request may be valid
        // context (e.g. after a config change) and they are cheap.
        if !matches!(response, Response::Error(_)) {
            core.cache.insert(job.key, Arc::clone(&encoded));
        }
        // The reactor may have closed the connection; nothing to do then.
        completions.send(Completion {
            conn: job.conn,
            reply: encoded,
            trace,
        });
    }
}

/// Runs one compute query against a shard's engine. Every arm is a thin
/// adapter over the deterministic `SweepEngine` entry points, so replies
/// are bit-identical to direct calls at any worker or shard count.
fn compute(core: &ShardCore, request: &Request) -> Response {
    let engine = &core.engine;
    let data = engine.data();
    match request {
        Request::OptimalSetting { budget } => Response::OptimalSetting(
            engine
                .optimal_series(*budget)
                .iter()
                .map(|c| WireChoice {
                    sample: c.sample,
                    index: c.index,
                    cpu_mhz: c.setting.cpu.mhz(),
                    mem_mhz: c.setting.mem.mhz(),
                    time_s: c.time.value(),
                    energy_j: c.energy.value(),
                    inefficiency: c.inefficiency.value(),
                })
                .collect(),
        ),
        Request::Cluster { budget, threshold } => {
            match engine.cluster_detail(*budget, *threshold) {
                Ok(clusters) => Response::Cluster(
                    clusters
                        .iter()
                        .map(|c| WireCluster {
                            sample: c.sample,
                            optimal_index: c.optimal.index,
                            members: c.member_indices().to_vec(),
                            cpu_mhz: c.cpu_range_mhz(data),
                            mem_mhz: c.mem_range_mhz(data),
                        })
                        .collect(),
                ),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::StableRegions { budget, threshold } => {
            match engine.stable_detail(*budget, *threshold) {
                Ok(regions) => Response::StableRegions(
                    regions
                        .iter()
                        .map(|r| {
                            let chosen = r.chosen_setting(data);
                            WireRegion {
                                start: r.start,
                                end: r.end,
                                chosen_index: r.chosen_index,
                                cpu_mhz: chosen.cpu.mhz(),
                                mem_mhz: chosen.mem.mhz(),
                                available: r.available_indices().to_vec(),
                            }
                        })
                        .collect(),
                ),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::GovernedReplay { governor, budget } => {
            let runner = match governor.as_str() {
                "ideal" => GovernedRun::without_overheads(),
                "paper" => GovernedRun::with_paper_overheads(),
                other => {
                    return Response::Error(format!(
                        "unknown governor {other:?}; expected \"ideal\" or \"paper\""
                    ));
                }
            };
            let report = engine
                .governed_reports(&runner, &core.trace, &[*budget])
                .pop()
                .expect("one budget yields one report");
            Response::GovernedReplay(wire_report(&report))
        }
        Request::PolicyReplay {
            policy,
            budget,
            scenario,
        } => {
            let Some(policy_box) = build_policy(policy) else {
                return Response::Error(format!(
                    "unknown policy {policy:?}; shipped policies: {}",
                    SHIPPED_POLICIES.join(", ")
                ));
            };
            let Some(scenario) = mcdvfs_workloads::Scenario::by_name(scenario) else {
                return Response::Error(format!(
                    "unknown scenario {scenario:?}; shipped scenarios: {}",
                    mcdvfs_workloads::Scenario::NAMES.join(", ")
                ));
            };
            // Ideal-oracle reference at the same budget, over this
            // tenant's own trace (the scenario's context stream cycles
            // over it, so any tenant length works).
            let reference = engine
                .governed_reports(&GovernedRun::without_overheads(), &core.trace, &[*budget])
                .pop()
                .expect("one budget yields one report");
            let mut governor = PolicyGovernor::new(policy_box, &scenario, data, *budget);
            let deadlines = governor.deadlines();
            let scorecard = PolicyScorecard::score(
                &GovernedRun::with_paper_overheads(),
                data,
                &core.trace,
                &mut governor,
                &deadlines,
                scenario.name(),
                &reference,
            );
            let counters = governor.counters();
            core.policy_decisions
                .fetch_add(counters.decisions, Ordering::Relaxed);
            core.policy_transitions
                .fetch_add(scorecard.transitions, Ordering::Relaxed);
            core.policy_deadline_misses
                .fetch_add(scorecard.deadline_misses, Ordering::Relaxed);
            core.policy_budget_exhaustions
                .fetch_add(counters.budget_exhaustions, Ordering::Relaxed);
            Response::PolicyReplay(WirePolicyReport {
                policy: policy.clone(),
                scenario: scorecard.scenario.clone(),
                decisions: counters.decisions,
                deadline_misses: scorecard.deadline_misses,
                budget_exhaustions: counters.budget_exhaustions,
                energy_vs_emin: scorecard.energy_vs_emin,
                energy_vs_oracle: scorecard.energy_vs_oracle,
                time_vs_oracle: scorecard.time_vs_oracle,
                report: wire_report(&scorecard.report),
            })
        }
        Request::Stats | Request::Health | Request::Telemetry | Request::TraceDump { .. } => {
            Response::Error(format!("{} is answered inline", request.kind()))
        }
    }
}

fn wire_report(r: &RunReport) -> WireReport {
    WireReport {
        governor: r.governor.clone(),
        work_time_s: r.work_time.value(),
        work_energy_j: r.work_energy.value(),
        tuning_time_s: r.tuning_time.value(),
        tuning_energy_j: r.tuning_energy.value(),
        transition_time_s: r.transition_time.value(),
        transition_energy_j: r.transition_energy.value(),
        transitions: r.transitions,
        cpu_transitions: r.cpu_transitions,
        mem_transitions: r.mem_transitions,
        searches: r.searches,
        total_emin_j: r.total_emin.value(),
    }
}
