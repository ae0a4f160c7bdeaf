//! Server assembly: configuration, served state, and lifecycle.
//!
//! # Architecture
//!
//! One reactor thread ([`reactor`](crate::reactor)) owns the listener
//! and every connection: nonblocking accept, per-connection read/write
//! buffers, idle/write/reply deadlines, frame parsing, and all inline
//! answers (health, stats, cache hits, typed errors, shed replies).
//! Compute requests route by workload to a [`ShardMap`] of per-tenant
//! engines ([`shard`](crate::shard)) — each shard has its own bounded
//! job queue, worker slice, and reply LRU, so tenants never serialize on
//! one another. A full shard queue sheds the request with a typed
//! [`Response::Overloaded`](crate::Response::Overloaded) reply — the
//! client always gets an answer, never an unbounded wait.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] sets the stop flag and wakes the reactor
//! through its waker; the reactor stops accepting, drains in-flight
//! replies (bounded by the reply timeout), flushes write buffers, and
//! exits. Dropping the shard map disconnects every job queue; workers,
//! blocked in `recv` on their queue, finish what was already accepted
//! and exit. Merged metrics (reactor slot plus every shard's worker
//! slots, live and evicted) are returned.
//!
//! # Observability
//!
//! Counters and the queue-depth max gauge accumulate per worker slot
//! plus one reactor-side set; `Stats` renders a merged snapshot at any
//! moment, plus per-shard rows (requests, cache hits/misses, queue
//! depth, pinning). With [`ServerConfig::telemetry`] on (the default),
//! every request carries a [`RequestTrace`](mcdvfs_obs::RequestTrace)
//! stamped at each pipeline stage, and the trace is the server's only
//! request clock: when the reactor commits it to the bounded flight
//! ring, the same commit derives `latency.request_ns` (first byte in to
//! last byte flushed), the `stage.{kind}.*` histograms, the per-shard
//! compute rows and one sample of the 1-second telemetry windows — all
//! served over the wire by the `telemetry` and `trace_dump` queries.
//! Telemetry off takes no per-request timing at all and records no
//! histogram; replies are bit-identical either way.

use crate::cache::CacheKey;
use crate::poll::Waker;
use crate::reactor::{self, Ctx};
use crate::shard::{Completion, CompletionTx, ShardMap, TenantSpec};
use crate::telemetry::TelemetryCtx;
use mcdvfs_core::SweepEngine;
use mcdvfs_obs::MetricSet;
use mcdvfs_sim::System;
use mcdvfs_types::fnv1a64;
use mcdvfs_workloads::SampleTrace;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::Request;

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compute worker threads per shard.
    pub workers: usize,
    /// Bounded per-shard queue capacity; a full queue sheds with
    /// `Overloaded`.
    pub queue_bound: usize,
    /// Response cache capacity in entries, per shard.
    pub cache_capacity: usize,
    /// Resident engine-shard ceiling; exceeding it evicts the
    /// least-recently-used unpinned shard (the default tenant is pinned).
    pub max_shards: usize,
    /// Close a connection after this long without receiving a byte.
    pub idle_timeout: Duration,
    /// Per-connection write-progress deadline.
    pub write_timeout: Duration,
    /// How long a connection waits for its compute reply before erroring.
    pub reply_timeout: Duration,
    /// Artificial per-request compute sleep — zero in production; the
    /// load generator raises it to make queue pressure and shard-level
    /// parallelism deterministic.
    pub compute_delay: Duration,
    /// Stamp every request's flight record and derive the latency and
    /// stage histograms and 1-second telemetry windows from it at
    /// commit. Off takes no per-request timing, allocates no trace and
    /// records no histogram (the zero-overhead path); replies are
    /// bit-identical either way.
    pub telemetry: bool,
    /// Snapshot-store directory for tenant warm-starts. When set, lazy
    /// shard builds (first touch and rebuild-after-evict) try the store
    /// before characterizing, and cold characterizations are persisted
    /// back for the next process. `None` disables the store entirely.
    pub snapshot_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_bound: 64,
            cache_capacity: 256,
            max_shards: 8,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            reply_timeout: Duration::from_secs(30),
            compute_delay: Duration::ZERO,
            telemetry: true,
            snapshot_dir: None,
        }
    }
}

/// The data a server answers queries against: one default engine plus
/// lazily characterized named tenants.
#[derive(Debug)]
pub struct ServeState {
    engine: SweepEngine,
    trace: SampleTrace,
    fingerprint: u64,
    tenants: HashMap<String, TenantSpec>,
}

impl ServeState {
    /// Wraps an engine and the trace its characterization came from.
    ///
    /// # Panics
    ///
    /// Panics when `trace` and the engine's characterization disagree on
    /// sample count (governed replays step the two in lockstep).
    #[must_use]
    pub fn new(engine: SweepEngine, trace: SampleTrace) -> Self {
        assert_eq!(
            trace.len(),
            engine.data().n_samples(),
            "trace and characterization must cover the same samples"
        );
        let fingerprint = engine.data().fingerprint();
        Self {
            engine,
            trace,
            fingerprint,
            tenants: HashMap::new(),
        }
    }

    /// Registers a named tenant whose engine is characterized on first
    /// request (and re-characterized after an eviction). Requests address
    /// it with the top-level `"workload"` envelope member; requests
    /// without one go to the default engine.
    #[must_use]
    pub fn with_tenant(mut self, name: impl Into<String>, spec: TenantSpec) -> Self {
        self.tenants.insert(name.into(), spec);
        self
    }

    /// The default served engine.
    #[must_use]
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// Fingerprint of the default served characterization.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Applies an incremental characterization update for the `dirty`
    /// sample indices (see [`SweepEngine::recharacterize`]), replaces the
    /// replay trace with `trace`, and refreshes the served fingerprint.
    ///
    /// Only the dirty rows are re-simulated, and the new fingerprint
    /// folds the grid's cached per-row hashes — a warm state picks up a
    /// few changed samples without recomputing over the whole arena.
    /// [`Server::start`] takes the state by value, so this runs before a
    /// (re)start, blue-green style: a running server's replies — and its
    /// cache entries, which key on the fingerprint — stay pinned to the
    /// characterization they were computed against.
    ///
    /// # Panics
    ///
    /// Panics when `trace` and the characterization disagree on sample
    /// count, or when a dirty index is out of range.
    pub fn recharacterize(&mut self, system: &System, trace: SampleTrace, dirty: &[usize]) {
        self.engine.recharacterize(system, &trace, dirty);
        self.trace = trace;
        self.fingerprint = self.engine.data().fingerprint();
    }
}

/// The server entry point; [`start`](Server::start) returns a handle.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), builds the
    /// default tenant's shard, spawns the reactor, and returns the
    /// running server's handle.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and failure to create the reactor's
    /// waker socket pair.
    pub fn start(
        addr: impl ToSocketAddrs,
        state: ServeState,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let waker = Waker::new()?;
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
        let tel = TelemetryCtx::new(config.telemetry);
        let map = Arc::new(ShardMap::new(
            state.engine,
            state.trace,
            state.tenants,
            CompletionTx::new(completion_tx, waker.clone()),
            &config,
            Arc::clone(&tel.recorder),
        ));
        let metrics = Arc::new(Mutex::new(MetricSet::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Ctx {
            map: Arc::clone(&map),
            metrics: Arc::clone(&metrics),
            tel,
            config,
        };
        let reactor = {
            let shutdown = Arc::clone(&shutdown);
            let waker = waker.clone();
            std::thread::spawn(move || reactor::run(listener, completion_rx, waker, ctx, shutdown))
        };
        Ok(ServerHandle {
            addr: local,
            map,
            metrics,
            shutdown,
            waker,
            reactor: Some(reactor),
        })
    }
}

/// A running server; dropping without [`shutdown`](Self::shutdown) leaks
/// the threads until process exit.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    map: Arc<ShardMap>,
    metrics: Arc<Mutex<MetricSet>>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    reactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A merged metric snapshot of the running server.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        let mut merged = self
            .metrics
            .lock()
            .expect("reactor metrics poisoned")
            .clone();
        self.map.merge_metrics(&mut merged);
        merged
    }

    /// Stops accepting, drains in-flight requests, joins the reactor and
    /// every shard worker, and returns the merged metrics: counters
    /// always, histograms (the ones derived from committed flight
    /// records, plus reactor-tick and shard-build timings) only with
    /// telemetry on. A caller that keeps a profiler absorbs this set
    /// into it.
    ///
    /// The stop flag is raised and then the reactor's waker is written,
    /// so a reactor blocked in `poll(2)` on an idle server wakes at once
    /// instead of at its next connection deadline.
    #[must_use]
    pub fn shutdown(mut self) -> MetricSet {
        self.shutdown.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor is gone, so no new jobs can be queued; dropping
        // every shard handle disconnects the queues and the workers
        // drain what remains before exiting.
        self.map.shutdown();
        self.metrics()
    }
}

impl std::fmt::Debug for ShardMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMap")
            .field("resident", &self.resident())
            .field("evictions", &self.evictions())
            .finish_non_exhaustive()
    }
}

/// Maps a compute request onto its cache identity; `None` for the
/// uncacheable inline kinds (`Stats`/`Health`/`Telemetry`/`TraceDump`).
pub(crate) fn cache_key(fingerprint: u64, request: &Request) -> Option<CacheKey> {
    let budget_bits =
        |budget: &mcdvfs_core::InefficiencyBudget| budget.bound().map_or(u64::MAX, f64::to_bits);
    let (kind, a, b, c) = match request {
        Request::OptimalSetting { budget } => (0u8, budget_bits(budget), 0, 0),
        Request::Cluster { budget, threshold } => (1, budget_bits(budget), threshold.to_bits(), 0),
        Request::StableRegions { budget, threshold } => {
            (2, budget_bits(budget), threshold.to_bits(), 0)
        }
        Request::GovernedReplay { governor, budget } => {
            (3, budget_bits(budget), 0, fnv1a64(governor.as_bytes()))
        }
        Request::PolicyReplay {
            policy,
            budget,
            scenario,
        } => (
            4,
            budget_bits(budget),
            fnv1a64(scenario.as_bytes()),
            fnv1a64(policy.as_bytes()),
        ),
        Request::Stats | Request::Health | Request::Telemetry | Request::TraceDump { .. } => {
            return None
        }
    };
    Some(CacheKey {
        fingerprint,
        kind,
        budget_bits: a,
        threshold_bits: b,
        governor_hash: c,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdvfs_core::InefficiencyBudget;

    #[test]
    fn every_compute_kind_has_a_cache_key_and_inline_kinds_have_none() {
        let b = InefficiencyBudget::bounded(1.3).unwrap();
        let compute = [
            Request::OptimalSetting { budget: b },
            Request::Cluster {
                budget: b,
                threshold: 0.05,
            },
            Request::StableRegions {
                budget: b,
                threshold: 0.05,
            },
            Request::GovernedReplay {
                governor: "paper".to_string(),
                budget: b,
            },
            Request::PolicyReplay {
                policy: "reactive".to_string(),
                budget: b,
                scenario: "load_burst".to_string(),
            },
        ];
        let mut kinds = std::collections::HashSet::new();
        for request in &compute {
            let key = cache_key(0xfeed, request)
                .unwrap_or_else(|| panic!("{} must be cacheable", request.kind()));
            assert_eq!(key.fingerprint, 0xfeed);
            assert!(kinds.insert(key.kind), "kind discriminants must differ");
        }
        // Inline-answered kinds carry no key; dispatch must never send
        // them to the compute path (the keyless fallback replies with a
        // typed internal error rather than panicking if it ever does).
        assert!(cache_key(0xfeed, &Request::Stats).is_none());
        assert!(cache_key(0xfeed, &Request::Health).is_none());
        assert!(cache_key(0xfeed, &Request::Telemetry).is_none());
        assert!(cache_key(
            0xfeed,
            &Request::TraceDump {
                limit: 8,
                slow_only: false,
            }
        )
        .is_none());
    }

    #[test]
    fn unconstrained_budget_key_cannot_collide_with_a_finite_one() {
        let finite = cache_key(
            1,
            &Request::OptimalSetting {
                budget: InefficiencyBudget::bounded(1.3).unwrap(),
            },
        )
        .unwrap();
        let unconstrained = cache_key(
            1,
            &Request::OptimalSetting {
                budget: InefficiencyBudget::Unconstrained,
            },
        )
        .unwrap();
        assert_eq!(unconstrained.budget_bits, u64::MAX);
        assert_ne!(finite.budget_bits, unconstrained.budget_bits);
    }
}
