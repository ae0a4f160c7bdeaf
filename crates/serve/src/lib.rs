//! A governed-query service layer over the `mcdvfs` analysis pipeline.
//!
//! The paper's tuning-overhead argument (§5) is about amortizing repeated
//! "best (CPU, mem) setting under inefficiency budget I" lookups; related
//! online multi-domain DVFS systems (SysScale, CoScale-style QoS
//! controllers) frame exactly that as a long-lived service answering
//! per-interval queries. This crate is that serving layer for the
//! reproduction: a std-only multi-threaded TCP server (no tokio/hyper —
//! the workspace builds offline) exposing the
//! [`SweepEngine`](mcdvfs_core::SweepEngine) as nine queries over a
//! length-prefixed JSON wire protocol:
//!
//! * `OptimalSetting {budget}` — per-sample optimal settings,
//! * `Cluster {budget, threshold}` — performance-equivalent clusters,
//! * `StableRegions {budget, threshold}` — maximal stable runs,
//! * `GovernedReplay {governor, budget}` — overhead-charged replays,
//! * `PolicyReplay {policy, budget, scenario}` — online-policy replays
//!   over a scenario's context stream, scored against the ideal oracle,
//! * `Stats` / `Health` — observability and liveness,
//! * `Telemetry` / `TraceDump {limit, slow_only}` — windowed telemetry
//!   series, histogram summaries, and request-level flight records.
//!
//! Internals: a single event-driven reactor thread owns every connection
//! (nonblocking sockets and a `poll(2)` readiness wait — idle sockets
//! cost zero threads and an idle server costs zero wakeups),
//! and compute requests route by workload name to a map of per-tenant
//! engine shards. Each shard has its own fixed worker slice fed by a
//! bounded queue (full ⇒ typed `Overloaded` reply, never unbounded
//! buffering) and its own sharded LRU cache of fully rendered replies
//! keyed on the characterization fingerprint; shards beyond the resident
//! ceiling are evicted least-recently-used and rebuilt lazily from their
//! [`TenantSpec`]. Shutdown drains in flight replies, then joins the
//! reactor and every worker. Replies are bit-identical to direct engine
//! calls at any worker or shard count because every `f64` crosses the
//! wire in shortest-round-trip form.
//!
//! # Quick start
//!
//! ```
//! use mcdvfs_core::{InefficiencyBudget, SweepEngine};
//! use mcdvfs_serve::{Client, Request, Response, ServeState, Server, ServerConfig};
//! use mcdvfs_types::FrequencyGrid;
//! use mcdvfs_workloads::Benchmark;
//!
//! let trace = Benchmark::Gobmk.trace().window(0, 8);
//! let engine = SweepEngine::characterize(
//!     &mcdvfs_sim::System::galaxy_nexus_class(),
//!     &trace,
//!     FrequencyGrid::coarse(),
//! );
//! let server = Server::start(
//!     "127.0.0.1:0",
//!     ServeState::new(engine, trace),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client
//!     .request(&Request::OptimalSetting {
//!         budget: InefficiencyBudget::bounded(1.3).unwrap(),
//!     })
//!     .unwrap();
//! let Response::OptimalSetting(choices) = reply else {
//!     panic!("unexpected reply");
//! };
//! assert_eq!(choices.len(), 8);
//! let metrics = server.shutdown();
//! assert_eq!(metrics.counter("requests.total"), 1);
//! ```
//!
//! # Unsafe code
//!
//! The crate denies `unsafe` everywhere but one private module, `poll`,
//! which declares and calls `poll(2)`: std can block on one socket at a
//! time but has no way to wait on several, and the reactor must wait on
//! the listener, every connection and its waker at once. That module
//! exposes only a safe `wait` over an exclusively borrowed descriptor
//! slice. The crate is therefore Unix-only.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
mod poll;
mod protocol;
mod reactor;
mod server;
mod shard;
mod telemetry;

pub use cache::{CacheKey, ShardedLru};
pub use client::{Client, ClientPool};
pub use protocol::{
    read_frame, write_frame, Request, Response, WireChoice, WireCluster, WireHealth, WireHistogram,
    WirePolicyCounters, WirePolicyReport, WireRegion, WireReport, WireShard, WireStage, WireStats,
    WireStoreCounters, WireTelemetry, WireTrace, WireWindow, MAX_FRAME_BYTES,
};
pub use server::{ServeState, Server, ServerConfig, ServerHandle};
pub use shard::TenantSpec;
pub use telemetry::{cross_check, CrossCheck};
