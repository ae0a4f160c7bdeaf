//! Load generator for the serving layer.
//!
//! Drives in-process servers over loopback in four phases:
//!
//! 1. **Steady (closed loop)** — client threads each hold a
//!    [`ClientPool`] of many connections and round-robin a seeded query
//!    mix across ≥4 workload tenants, so the reactor sustains a
//!    four-digit population of concurrent (mostly idle) sockets; asserts
//!    zero errors, zero shed requests, zero protocol errors, a warm
//!    cache, and all four engine shards resident.
//! 2. **Steady (open loop)** — the same server under paced arrivals,
//!    reported as its own latency row.
//! 3. **Overload** — a deliberately starved server (one worker, tiny
//!    queue, artificial compute delay) under uncacheable unique-budget
//!    queries; asserts the bounded queue sheds with typed `Overloaded`
//!    replies and every request still gets *an* answer (no hangs).
//! 4. **Mixed-tenant scaling** — the same uncacheable load with a fixed
//!    per-request compute cost, once against a single-engine server and
//!    once spread over four tenant shards (one worker each); asserts the
//!    sharded layout clears ≥2x the single-engine throughput, since the
//!    four shard workers overlap delays one queue must serialize.
//!
//! 5. **Cold vs warm start** — two servers share a snapshot store: the
//!    first characterizes its tenants on first touch (and persists), the
//!    second warm-starts the same tenants from the snapshots; asserts the
//!    warm first-request latency beats cold by the gated floor and that
//!    the `store.hits`/`store.misses` counters account for every build.
//!
//! After the steady phases a **telemetry validation pass** cross-checks
//! the server's own instrumentation against what the clients observed:
//! the server-decoded request total must equal the client-issued total
//! *exactly*, and the server-measured request p95 must not exceed the
//! client-measured p95 (server samples exclude the network and client
//! stack). The server's window series and flight records are exported
//! as `results/SERVE_telemetry.jsonl` / `results/SERVE_traces.jsonl`.
//!
//! Results land in `results/BENCH_serve.json` (schema `mcdvfs/serve-v4`,
//! with a top-level `"telemetry"` cross-check block) and every artifact
//! is recorded in `results/MANIFEST.json` through the provenance
//! harness. `--smoke` runs every phase scaled down and, like the sweep
//! bench, validates the *committed* report (schema, required rows, the
//! 2x mixed-tenant comparison, the 3x warm-start comparison, the steady
//! p95 floor, and cross-check agreement in the committed telemetry
//! block) instead of overwriting
//! it — the cross-check itself still runs live in smoke. Exits nonzero
//! on any assertion failure.
//!
//! Usage: `loadgen [--smoke] [--clients N] [--conns N] [--requests N]
//! [--workers N] [--seed N]`

use mcdvfs_bench::quickbench::{BenchReport, BenchStats};
use mcdvfs_bench::{results_dir, Harness, Json};
use mcdvfs_core::{InefficiencyBudget, SweepEngine};
use mcdvfs_obs::{duration_edges_ns, Histogram};
use mcdvfs_serve::{
    cross_check, Client, ClientPool, Request, Response, ServeState, Server, ServerConfig,
    ServerHandle, TenantSpec, WireStats, WireTelemetry, WireTrace,
};
use mcdvfs_sim::System;
use mcdvfs_types::{FrequencyGrid, SplitMix64};
use mcdvfs_workloads::Benchmark;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

/// Report schema written by a full run and required by the smoke gate.
const SCHEMA: &str = "mcdvfs/serve-v4";

/// Latency rows a committed report must carry.
const REQUIRED_ENTRIES: [&str; 7] = [
    "steady.request_latency",
    "steady_open.request_latency",
    "overload.request_latency",
    "mixed_tenant.request_latency",
    "baseline_single_engine.request_latency",
    "cold_start.first_request_latency",
    "warm_start.first_request_latency",
];

/// The committed mixed-tenant speedup row and its floor.
const REQUIRED_COMPARISON: &str = "mixed_tenant_vs_single_engine";
const SPEEDUP_FLOOR: f64 = 2.0;

/// The committed warm-start speedup row and its floor: a snapshot
/// warm-start must answer a tenant's first request at least this much
/// faster than characterize-on-first-touch.
const COLD_WARM_COMPARISON: &str = "warm_start_vs_cold_start";
const COLD_WARM_FLOOR: f64 = 3.0;

/// Steady-phase connection floor the committed report must demonstrate.
const MIN_STEADY_CONNECTIONS: f64 = 1000.0;

/// Committed steady-phase p95 ceiling (ns). The recorded full run sits
/// well under this; a report regressing past it fails the smoke gate.
const STEADY_P95_FLOOR_NS: f64 = 50_000_000.0;

/// Tenants the steady and mixed phases spread across; `None` is the
/// default (gobmk) engine, the rest resolve lazily built shards.
const TENANTS: [Option<&str>; 4] = [None, Some("bzip2"), Some("gcc"), Some("perlbench")];

/// Parsed command line.
struct Args {
    smoke: bool,
    clients: usize,
    conns: usize,
    requests: usize,
    workers: usize,
    seed: u64,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            smoke: false,
            clients: 16,
            conns: 64,
            requests: 200,
            workers: 4,
            seed: 0x5eed,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--smoke" => {
                    args.smoke = true;
                    args.clients = 4;
                    args.conns = 8;
                    args.requests = 40;
                }
                "--clients" => args.clients = parse_num(&value("--clients")?)?,
                "--conns" => args.conns = parse_num(&value("--conns")?)?,
                "--requests" => args.requests = parse_num(&value("--requests")?)?,
                "--workers" => args.workers = parse_num(&value("--workers")?)?,
                "--seed" => args.seed = parse_num(&value("--seed")?)? as u64,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(args)
    }
}

fn parse_num(text: &str) -> Result<usize, String> {
    text.parse().map_err(|_| format!("invalid number {text:?}"))
}

/// What one client thread observed.
#[derive(Default)]
struct ClientTally {
    latency: Option<Histogram>,
    ok: u64,
    overloaded: u64,
    errors: u64,
}

impl ClientTally {
    fn absorb(&mut self, other: ClientTally) {
        match (&mut self.latency, other.latency) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.errors += other.errors;
    }

    fn stats(&self) -> Option<BenchStats> {
        self.latency.as_ref().and_then(BenchStats::from_histogram)
    }
}

/// The steady-phase query mix, reproducible from one seed.
fn pick_query(rng: &mut SplitMix64) -> Request {
    let budgets = [
        Some(1.0),
        Some(1.1),
        Some(1.3),
        Some(1.6),
        None, // unconstrained
    ];
    let budget = match budgets[rng.range_usize(0, budgets.len())] {
        Some(b) => InefficiencyBudget::bounded(b).expect("mix budgets are valid"),
        None => InefficiencyBudget::Unconstrained,
    };
    let thresholds = [0.01, 0.03, 0.05];
    let threshold = thresholds[rng.range_usize(0, thresholds.len())];
    match rng.range_usize(0, 6) {
        0 | 1 => Request::OptimalSetting { budget },
        2 => Request::Cluster { budget, threshold },
        3 => Request::StableRegions { budget, threshold },
        4 => Request::GovernedReplay {
            governor: if rng.next_u64().is_multiple_of(2) {
                "ideal"
            } else {
                "paper"
            }
            .to_string(),
            budget,
        },
        _ => Request::Health,
    }
}

/// Runs `threads` client threads, each holding a pool of
/// `conns_per_thread` connections round-robined over its request list.
/// All pools connect before the barrier releases, so every socket is
/// concurrently open for the whole timed window; the returned duration
/// covers requests only, not connection setup.
fn run_pools(
    addr: SocketAddr,
    threads: usize,
    conns_per_thread: usize,
    interarrival: Option<Duration>,
    make_requests: impl Fn(usize) -> Vec<(Option<&'static str>, Request)> + Send + Sync,
) -> (ClientTally, Duration) {
    let barrier = Barrier::new(threads + 1);
    let mut total = ClientTally::default();
    let mut elapsed = Duration::ZERO;
    thread::scope(|scope| {
        let barrier = &barrier;
        let make_requests = &make_requests;
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = ClientTally {
                        latency: Some(Histogram::new(duration_edges_ns())),
                        ..ClientTally::default()
                    };
                    let pool = ClientPool::connect(addr, conns_per_thread).ok();
                    barrier.wait();
                    let Some(mut pool) = pool else {
                        tally.errors += 1;
                        return tally;
                    };
                    for (workload, request) in make_requests(c) {
                        if let Some(gap) = interarrival {
                            thread::sleep(gap);
                        }
                        let t0 = Instant::now();
                        match pool.request_for(workload, &request) {
                            Ok(Response::Overloaded) => tally.overloaded += 1,
                            Ok(Response::Error(_)) | Err(_) => tally.errors += 1,
                            Ok(_) => {
                                tally.ok += 1;
                                if let Some(h) = &mut tally.latency {
                                    h.add(t0.elapsed().as_nanos() as f64);
                                }
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for handle in handles {
            total.absorb(handle.join().expect("client thread panicked"));
        }
        elapsed = t0.elapsed();
    });
    (total, elapsed)
}

fn start_server(state: ServeState, config: ServerConfig) -> ServerHandle {
    Server::start("127.0.0.1:0", state, config).expect("loopback bind")
}

/// Default gobmk engine plus (optionally) the three named tenant specs.
/// The default engine always characterizes on the coarse grid (it is
/// built eagerly at server start, outside every timed window); `grid`
/// sets the lazily characterized tenants' grid — the cold-start phase
/// passes the fine 496-setting grid so first-touch characterization
/// cost is large next to a snapshot load.
fn build_state(samples: usize, with_tenants: bool, grid: FrequencyGrid) -> ServeState {
    let trace = Benchmark::Gobmk.trace().window(0, samples);
    let system = System::galaxy_nexus_class();
    let engine = SweepEngine::characterize(&system, &trace, FrequencyGrid::coarse());
    let mut state = ServeState::new(engine, trace);
    if with_tenants {
        for (name, benchmark) in [
            ("bzip2", Benchmark::Bzip2),
            ("gcc", Benchmark::Gcc),
            ("perlbench", Benchmark::Perlbench),
        ] {
            state = state.with_tenant(
                name,
                TenantSpec::new(system.clone(), benchmark.trace().window(0, samples), grid),
            );
        }
    }
    state
}

/// Builds every tenant's shard before a timed window so lazy
/// characterization cost never pollutes the timed phases' histograms.
/// Also returns the warmup requests' client-side latencies: the server's
/// request histogram holds them too, so the telemetry cross-check must
/// compare against them.
fn warm_tenants(addr: SocketAddr) -> (WireStats, Histogram) {
    let mut client = Client::connect(addr).expect("warmup connect");
    let mut latency = Histogram::new(duration_edges_ns());
    for tenant in TENANTS {
        let t0 = Instant::now();
        let reply = client.request_for(tenant, &Request::Health);
        latency.add(t0.elapsed().as_nanos() as f64);
        assert!(
            matches!(reply, Ok(Response::Health(_))),
            "warmup health for {tenant:?} failed: {reply:?}"
        );
    }
    let t0 = Instant::now();
    match client.request(&Request::Stats) {
        Ok(Response::Stats(stats)) => {
            latency.add(t0.elapsed().as_nanos() as f64);
            (stats, latency)
        }
        other => panic!("warmup stats failed: {other:?}"),
    }
}

/// Uncacheable per-thread request list: every budget is unique, so the
/// reply cache cannot absorb any of the load.
fn unique_budget_requests(
    tenant: Option<&'static str>,
    thread: usize,
    count: usize,
) -> Vec<(Option<&'static str>, Request)> {
    (0..count)
        .map(|i| {
            let budget = 1.0 + (thread * 10_000 + i + 1) as f64 * 1e-7;
            (
                tenant,
                Request::OptimalSetting {
                    budget: InefficiencyBudget::bounded(budget).expect("budgets are valid"),
                },
            )
        })
        .collect()
}

/// Times the *first* request each named tenant answers on a fresh
/// server — cold this is characterize-on-first-touch, warm it is a
/// snapshot load — then fetches the server's stats for the store
/// counters. Health is the lightest request that still forces the
/// tenant's shard to resolve, so the latency isolates the build cost.
fn first_touch_latency(addr: SocketAddr) -> (ClientTally, Option<WireStats>) {
    let mut tally = ClientTally {
        latency: Some(Histogram::new(duration_edges_ns())),
        ..ClientTally::default()
    };
    let mut client = Client::connect(addr).expect("cold-start connect");
    for tenant in TENANTS.iter().flatten() {
        let t0 = Instant::now();
        match client.request_for(Some(tenant), &Request::Health) {
            Ok(Response::Health(_)) => {
                tally.ok += 1;
                if let Some(h) = &mut tally.latency {
                    h.add(t0.elapsed().as_nanos() as f64);
                }
            }
            _ => tally.errors += 1,
        }
    }
    let stats = match client.request(&Request::Stats) {
        Ok(Response::Stats(stats)) => Some(stats),
        _ => None,
    };
    (tally, stats)
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("loadgen: {message}");
            std::process::exit(2);
        }
    };
    let mut harness = Harness::new("loadgen");
    let mut failures: Vec<String> = Vec::new();
    let mut bench = BenchReport::new(SCHEMA);

    // ---- Phases 1+2: steady closed + open loop, mixed tenants ------------
    let steady_connections = args.clients * args.conns;
    let state = build_state(40, true, FrequencyGrid::coarse());
    let server = start_server(
        state,
        ServerConfig {
            workers: args.workers,
            queue_bound: 256,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let (warm, warm_latency) = warm_tenants(addr);
    if warm.engines != TENANTS.len() as u64 {
        failures.push(format!(
            "steady: {} engine shards resident after warmup, expected {}",
            warm.engines,
            TENANTS.len()
        ));
    }
    let seed = args.seed;
    let per_thread = args.requests;
    let (steady, steady_elapsed) = run_pools(addr, args.clients, args.conns, None, |c| {
        let mut rng = SplitMix64::new(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
        (0..per_thread)
            .map(|i| (TENANTS[(c + i) % TENANTS.len()], pick_query(&mut rng)))
            .collect()
    });
    let steady_issued = (args.clients * per_thread) as u64;
    let steady_rps = steady.ok as f64 / steady_elapsed.as_secs_f64().max(1e-9);

    let open_per_thread = (per_thread / 4).max(1);
    let (steady_open, open_elapsed) = run_pools(
        addr,
        args.clients,
        args.conns.min(16),
        Some(Duration::from_millis(2)),
        |c| {
            let mut rng = SplitMix64::new(seed ^ 0xa5a5 ^ (c as u64).wrapping_mul(0x9e37_79b9));
            (0..open_per_thread)
                .map(|i| (TENANTS[(c + i) % TENANTS.len()], pick_query(&mut rng)))
                .collect()
        },
    );
    let open_issued = (args.clients * open_per_thread) as u64;
    let open_rps = steady_open.ok as f64 / open_elapsed.as_secs_f64().max(1e-9);

    // ---- Telemetry validation pass ---------------------------------------
    // One connection, fixed order, stats strictly last: by the time the
    // stats reply is built its `requests` counter has seen every request
    // this process issued — 5 warmup queries, both steady phases,
    // telemetry, trace_dump, and the stats query itself.
    let mut probe = Client::connect(addr).expect("telemetry connect");
    let telemetry = match probe.request(&Request::Telemetry) {
        Ok(Response::Telemetry(t)) => Some(t),
        other => {
            failures.push(format!("telemetry query failed: {other:?}"));
            None
        }
    };
    let traces = match probe.request(&Request::TraceDump {
        limit: 256,
        slow_only: false,
    }) {
        Ok(Response::TraceDump(t)) => Some(t),
        other => {
            failures.push(format!("trace_dump query failed: {other:?}"));
            None
        }
    };
    let stats = probe.request(&Request::Stats).ok();
    drop(probe);
    let metrics = server.shutdown();
    harness.profiler().absorb(metrics.clone());

    for (phase, tally, issued) in [
        ("steady", &steady, steady_issued),
        ("steady_open", &steady_open, open_issued),
    ] {
        let answered = tally.ok + tally.overloaded + tally.errors;
        if answered != issued {
            failures.push(format!("{phase}: {answered}/{issued} requests answered"));
        }
        if tally.errors > 0 {
            failures.push(format!("{phase}: {} error replies", tally.errors));
        }
        if tally.overloaded > 0 {
            failures.push(format!(
                "{phase}: {} shed requests at default provisioning",
                tally.overloaded
            ));
        }
    }
    let cache_hits = metrics.counter("cache.hit");
    if cache_hits == 0 {
        failures.push("steady: cache hit-rate is zero".to_string());
    }
    if metrics.counter("connections.idle_closed") > 0 {
        failures.push("steady: live connections were reaped as idle".to_string());
    }
    if metrics.counter("connections.accepted") < steady_connections as u64 {
        failures.push(format!(
            "steady: accepted {} connections, expected >= {steady_connections}",
            metrics.counter("connections.accepted")
        ));
    }
    match &stats {
        Some(Response::Stats(wire)) => {
            if wire.protocol_errors > 0 {
                failures.push(format!(
                    "steady: server saw {} protocol errors",
                    wire.protocol_errors
                ));
            }
            if wire.engines != TENANTS.len() as u64 {
                failures.push(format!(
                    "steady: {} engine shards resident, expected {}",
                    wire.engines,
                    TENANTS.len()
                ));
            }
        }
        _ => failures.push("steady: stats query failed".to_string()),
    }

    // Server-vs-client cross-check: exact request-count agreement, one
    // server latency sample per committed flight, and a server p95 at or
    // under the client p95. Every server sample (warmup and both steady
    // phases, committed before the telemetry query) has a client sample
    // here that contains it plus the network and client stack. Runs in
    // smoke and full runs alike.
    let client_total = 5 + steady_issued + open_issued + 3;
    let mut client_hist = warm_latency;
    for phase in [&steady, &steady_open] {
        if let Some(h) = &phase.latency {
            client_hist.merge(h);
        }
    }
    let client_p95_ns = client_hist.percentile(0.95).unwrap_or(f64::INFINITY);
    let mut check = None;
    match (&stats, &telemetry) {
        (Some(Response::Stats(wire)), Some(tel)) => {
            match cross_check(wire, tel, client_total, client_p95_ns) {
                Ok(c) => {
                    println!(
                        "telemetry cross-check: server counted {} == client issued {}, \
                         server p95 {:.3} ms <= client p95 {:.3} ms",
                        c.server_total,
                        c.client_total,
                        c.server_p95_ns / 1e6,
                        c.client_p95_ns / 1e6,
                    );
                    check = Some(c);
                }
                Err(e) => failures.push(format!("telemetry cross-check: {e}")),
            }
        }
        _ => failures.push("telemetry cross-check skipped: missing replies".to_string()),
    }
    if let Some(tel) = &telemetry {
        if !tel.enabled {
            failures.push("telemetry: flight recorder reported disabled".to_string());
        }
        if tel.windows.is_empty() {
            failures.push("telemetry: no 1-second windows recorded".to_string());
        }
    }
    if let Some(traces) = &traces {
        if traces.is_empty() {
            failures.push("trace_dump returned no flight records".to_string());
        }
        for t in traces {
            if !t.stages.windows(2).all(|w| w[0].t_ns <= w[1].t_ns) {
                failures.push(format!("trace {} stage timestamps regress", t.id));
                break;
            }
        }
    }
    let hit_rate = cache_hits as f64 / (cache_hits + metrics.counter("cache.miss")).max(1) as f64;
    println!(
        "steady: {} ok / {} issued over {:.2}s across {} connections — {:.0} req/s, \
         cache hit-rate {:.2}",
        steady.ok,
        steady_issued,
        steady_elapsed.as_secs_f64(),
        steady_connections,
        steady_rps,
        hit_rate,
    );
    println!(
        "steady_open: {} ok / {} issued over {:.2}s — {:.0} req/s",
        steady_open.ok,
        open_issued,
        open_elapsed.as_secs_f64(),
        open_rps,
    );

    // ---- Phase 3: overload ------------------------------------------------
    // One slow worker, a two-slot queue, and unique budgets per request so
    // the cache cannot absorb the burst: the bounded queue must shed.
    let overload_server = start_server(
        build_state(10, false, FrequencyGrid::coarse()),
        ServerConfig {
            workers: 1,
            queue_bound: 2,
            compute_delay: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    );
    let (overload, _) = run_pools(overload_server.addr(), 6, 1, None, |c| {
        unique_budget_requests(None, c, 30)
    });
    let overload_metrics = overload_server.shutdown();
    let overload_issued = 6 * 30_u64;
    let overload_answered = overload.ok + overload.overloaded + overload.errors;
    if overload_answered != overload_issued {
        failures.push(format!(
            "overload: {overload_answered}/{overload_issued} requests answered (hang?)"
        ));
    }
    if overload.errors > 0 {
        failures.push(format!("overload: {} error replies", overload.errors));
    }
    if overload.overloaded == 0 {
        failures.push("overload: queue never shed — backpressure untested".to_string());
    }
    println!(
        "overload: {} ok, {} shed of {} issued (server counted {})",
        overload.ok,
        overload.overloaded,
        overload_issued,
        overload_metrics.counter("overloaded"),
    );

    // ---- Phase 4: mixed-tenant scaling vs single engine -------------------
    // A fixed compute delay makes per-request cost identical in both
    // layouts; with one worker per shard, four shards overlap four delays
    // the single-engine queue must serialize. Unique budgets defeat the
    // cache, the load shape is the same, so the throughput ratio isolates
    // the sharding win.
    let scale_requests = if args.smoke { 10 } else { 40 };
    let scale_threads = 8;
    let scale_config = ServerConfig {
        workers: 1,
        queue_bound: 256,
        compute_delay: Duration::from_millis(3),
        ..ServerConfig::default()
    };

    let baseline_server = start_server(
        build_state(10, false, FrequencyGrid::coarse()),
        scale_config.clone(),
    );
    let (baseline, baseline_elapsed) =
        run_pools(baseline_server.addr(), scale_threads, 1, None, |c| {
            unique_budget_requests(None, c, scale_requests)
        });
    let _ = baseline_server.shutdown();
    let baseline_rps = baseline.ok as f64 / baseline_elapsed.as_secs_f64().max(1e-9);

    let mixed_server = start_server(build_state(10, true, FrequencyGrid::coarse()), scale_config);
    let mixed_addr = mixed_server.addr();
    let (mixed_warm, _) = warm_tenants(mixed_addr);
    let (mixed, mixed_elapsed) = run_pools(mixed_addr, scale_threads, 1, None, |c| {
        unique_budget_requests(TENANTS[c % TENANTS.len()], c, scale_requests)
    });
    let _ = mixed_server.shutdown();
    let mixed_rps = mixed.ok as f64 / mixed_elapsed.as_secs_f64().max(1e-9);

    let scale_issued = (scale_threads * scale_requests) as u64;
    for (phase, tally) in [("baseline", &baseline), ("mixed_tenant", &mixed)] {
        let answered = tally.ok + tally.overloaded + tally.errors;
        if answered != scale_issued || tally.ok != scale_issued {
            failures.push(format!(
                "{phase}: {} ok / {} overloaded / {} errors of {scale_issued} issued",
                tally.ok, tally.overloaded, tally.errors
            ));
        }
    }
    if mixed_warm.engines != TENANTS.len() as u64 {
        failures.push(format!(
            "mixed_tenant: {} shards resident, expected {}",
            mixed_warm.engines,
            TENANTS.len()
        ));
    }
    let speedup = mixed_rps / baseline_rps.max(1e-9);
    println!(
        "mixed_tenant: {mixed_rps:.0} req/s over {} shards vs {baseline_rps:.0} req/s single \
         engine — {speedup:.2}x",
        TENANTS.len(),
    );
    if speedup < SPEEDUP_FLOOR {
        failures.push(format!(
            "mixed_tenant: {speedup:.2}x over single engine, need >= {SPEEDUP_FLOOR}x"
        ));
    }

    // ---- Phase 5: cold vs warm start --------------------------------------
    // Two servers share one snapshot store. The first pays
    // characterize-on-first-touch for every named tenant and persists the
    // grids; the second resolves the same tenants from the snapshots. The
    // first-request latency ratio is the warm-start win, and the store
    // counters must account for every build on both sides.
    let tenant_count = (TENANTS.len() - 1) as u64;
    // 40 samples is the longest window every tenant trace supports
    // (bzip2 is the shortest at exactly 40) — the same size the steady
    // phases serve.
    let cold_samples = 40;
    let store_dir =
        std::env::temp_dir().join(format!("mcdvfs-loadgen-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let cold_config = ServerConfig {
        snapshot_dir: Some(store_dir.clone()),
        ..ServerConfig::default()
    };

    let cold_server = start_server(
        build_state(cold_samples, true, FrequencyGrid::fine()),
        cold_config.clone(),
    );
    let (cold, cold_wire) = first_touch_latency(cold_server.addr());
    let _ = cold_server.shutdown();

    let warm_server = start_server(
        build_state(cold_samples, true, FrequencyGrid::fine()),
        cold_config,
    );
    let (warm, warm_wire) = first_touch_latency(warm_server.addr());
    let _ = warm_server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    for (phase, tally) in [("cold_start", &cold), ("warm_start", &warm)] {
        if tally.errors > 0 || tally.ok != tenant_count {
            failures.push(format!(
                "{phase}: {} ok / {} errors of {tenant_count} first requests",
                tally.ok, tally.errors
            ));
        }
    }
    let cold_store = cold_wire.as_ref().map(|w| w.store);
    let warm_store = warm_wire.as_ref().map(|w| w.store);
    match cold_store {
        Some(s) if s.hits == 0 && s.misses >= tenant_count => {}
        other => failures.push(format!(
            "cold_start: store counters {other:?}, expected 0 hits and >= {tenant_count} misses"
        )),
    }
    match warm_store {
        Some(s) if s.hits == tenant_count && s.misses == 0 && s.bytes_read > 0 => {}
        other => failures.push(format!(
            "warm_start: store counters {other:?}, expected {tenant_count} hits, 0 misses, \
             nonzero bytes_read"
        )),
    }
    let (cold_stats, warm_stats) = (cold.stats(), warm.stats());
    let cold_warm_speedup = match (&cold_stats, &warm_stats) {
        (Some(c), Some(w)) => c.mean.as_secs_f64() / w.mean.as_secs_f64().max(1e-12),
        _ => 0.0,
    };
    println!(
        "cold_start: first request mean {:.3} ms cold vs {:.3} ms warm over {} tenants — {:.2}x \
         ({} snapshot bytes read)",
        cold_stats
            .as_ref()
            .map_or(0.0, |s| s.mean.as_secs_f64() * 1e3),
        warm_stats
            .as_ref()
            .map_or(0.0, |s| s.mean.as_secs_f64() * 1e3),
        tenant_count,
        cold_warm_speedup,
        warm_store.map_or(0, |s| s.bytes_read),
    );
    if cold_warm_speedup < COLD_WARM_FLOOR {
        failures.push(format!(
            "cold_start: warm start only {cold_warm_speedup:.2}x faster than cold, \
             need >= {COLD_WARM_FLOOR}x"
        ));
    }

    // ---- Report -----------------------------------------------------------
    for (name, tally) in [
        ("steady.request_latency", &steady),
        ("steady_open.request_latency", &steady_open),
        ("overload.request_latency", &overload),
        ("mixed_tenant.request_latency", &mixed),
        ("baseline_single_engine.request_latency", &baseline),
        ("cold_start.first_request_latency", &cold),
        ("warm_start.first_request_latency", &warm),
    ] {
        match tally.stats() {
            Some(stats) => bench.entry(name, stats),
            None => failures.push(format!("{name}: no latency samples")),
        }
    }
    if let (Some(base), Some(opt)) = (baseline.stats(), mixed.stats()) {
        bench.compare(REQUIRED_COMPARISON, base, opt);
    }
    if let (Some(c), Some(w)) = (cold_stats, warm_stats) {
        bench.compare(COLD_WARM_COMPARISON, c, w);
    }
    bench.section(
        "cold_start",
        &[
            ("tenants", tenant_count as f64),
            ("samples_per_tenant", cold_samples as f64),
            ("speedup", cold_warm_speedup),
            (
                "cold_store_misses",
                cold_store.map_or(-1.0, |s| s.misses as f64),
            ),
            (
                "warm_store_hits",
                warm_store.map_or(-1.0, |s| s.hits as f64),
            ),
            (
                "warm_store_bytes_read",
                warm_store.map_or(-1.0, |s| s.bytes_read as f64),
            ),
        ],
    );
    bench.note("steady_connections", steady_connections as f64);
    bench.note("steady_throughput_rps", steady_rps);
    bench.note("steady_open_throughput_rps", open_rps);
    bench.note("baseline_throughput_rps", baseline_rps);
    bench.note("mixed_tenant_throughput_rps", mixed_rps);
    bench.note("mixed_tenant_shards", TENANTS.len() as f64);
    bench.note("mixed_tenant_speedup", speedup);
    if let (Some(c), Some(tel)) = (check, &telemetry) {
        bench.section(
            "telemetry",
            &[
                ("server_total", c.server_total as f64),
                ("client_total", c.client_total as f64),
                ("server_p95_ns", c.server_p95_ns),
                ("client_p95_ns", c.client_p95_ns),
                ("windows", tel.windows.len() as f64),
                ("flight_recorded", tel.flight_recorded as f64),
                ("flight_dropped", tel.flight_dropped as f64),
                ("flight_slow", tel.flight_slow as f64),
            ],
        );
    }

    let path = results_dir().join("BENCH_serve.json");
    harness.note("clients", args.clients);
    harness.note("conns_per_client", args.conns);
    harness.note("requests_per_client", args.requests);
    harness.note("workers", args.workers);
    harness.note("seed", args.seed);
    harness.note("steady_connections", steady_connections);
    harness.note("throughput_rps", format!("{steady_rps:.0}"));
    harness.note("mixed_tenant_speedup", format!("{speedup:.2}"));
    harness.note("cold_warm_speedup", format!("{cold_warm_speedup:.2}"));
    if args.smoke {
        // A smoke window would clobber the committed full-run numbers;
        // validate the committed report and gate on it instead.
        validate_committed(&path, &mut failures);
    } else {
        match bench.write_json(&path) {
            Ok(()) => {
                println!("[bench written to {}]", path.display());
                harness.record_file(&path);
            }
            Err(e) => eprintln!("[warning: could not write {}: {e}]", path.display()),
        }
        // Raw telemetry artifacts ride along with the report and are
        // provenance-recorded so the manifest pins what a reader sees.
        if let Some(tel) = &telemetry {
            let path = results_dir().join("SERVE_telemetry.jsonl");
            match write_windows_jsonl(&path, tel) {
                Ok(()) => harness.record_file(&path),
                Err(e) => eprintln!("[warning: could not write {}: {e}]", path.display()),
            }
        }
        if let Some(traces) = &traces {
            let path = results_dir().join("SERVE_traces.jsonl");
            match write_traces_jsonl(&path, traces) {
                Ok(()) => harness.record_file(&path),
                Err(e) => eprintln!("[warning: could not write {}: {e}]", path.display()),
            }
        }
    }
    harness.finish();

    if failures.is_empty() {
        println!("loadgen: all assertions passed");
        std::process::exit(0);
    }
    for failure in &failures {
        eprintln!("loadgen FAILURE: {failure}");
    }
    std::process::exit(1);
}

/// Writes the server's 1-second window series as one JSON object per
/// line (the field names mirror the wire `telemetry` reply).
fn write_windows_jsonl(path: &Path, tel: &WireTelemetry) -> std::io::Result<()> {
    let mut out = String::new();
    for w in &tel.windows {
        out.push_str(&format!(
            "{{\"second\": {}, \"requests\": {}, \"ok\": {}, \"errors\": {}, \"shed\": {}, \
             \"queue_depth_max\": {}, \"p50_ns\": {:.0}, \"p95_ns\": {:.0}, \"max_ns\": {:.0}}}\n",
            w.second,
            w.requests,
            w.ok,
            w.errors,
            w.shed,
            w.queue_depth_max,
            w.p50_ns,
            w.p95_ns,
            w.max_ns
        ));
    }
    std::fs::write(path, out)
}

/// Writes the dumped flight records as one JSON object per line, stage
/// timestamps in pipeline order.
fn write_traces_jsonl(path: &Path, traces: &[WireTrace]) -> std::io::Result<()> {
    let mut out = String::new();
    for t in traces {
        let stages: Vec<String> = t
            .stages
            .iter()
            .map(|s| format!("{{\"stage\": \"{}\", \"t_ns\": {}}}", s.stage, s.t_ns))
            .collect();
        out.push_str(&format!(
            "{{\"id\": {}, \"kind\": \"{}\", \"fingerprint\": \"{}\", \"outcome\": \"{}\", \
             \"total_ns\": {}, \"stages\": [{}]}}\n",
            t.id,
            t.kind,
            t.fingerprint,
            t.outcome,
            t.total_ns,
            stages.join(", ")
        ));
    }
    std::fs::write(path, out)
}

/// The CI smoke gate over the committed report: `serve-v4` schema, every
/// phase row present, the mixed-tenant comparison at ≥2x, the warm-start
/// comparison and `cold_start` block at ≥3x, a demonstrated
/// four-digit steady connection count, a steady p95 under the floor, and
/// a telemetry block whose recorded cross-check still agrees.
fn validate_committed(path: &Path, failures: &mut Vec<String>) {
    let doc = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(doc) => doc,
        Err(e) => {
            failures.push(format!("cannot read {}: {e}", path.display()));
            return;
        }
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => failures.push(format!(
            "{}: schema {other:?}, expected {SCHEMA:?}",
            path.display()
        )),
    }
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]);
    for required in REQUIRED_ENTRIES {
        let row = entries
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(required));
        let Some(row) = row else {
            failures.push(format!("committed report lacks a {required:?} row"));
            continue;
        };
        let p95 = row
            .get("stats")
            .and_then(|s| s.get("p95_ns"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::INFINITY);
        println!("recorded {required:<40} p95 {:>9.3} ms", p95 / 1e6);
        if required == "steady.request_latency" && p95 > STEADY_P95_FLOOR_NS {
            failures.push(format!(
                "committed steady p95 {:.1} ms exceeds the {:.1} ms floor",
                p95 / 1e6,
                STEADY_P95_FLOOR_NS / 1e6
            ));
        }
    }
    let comparisons = doc.get("comparisons").and_then(Json::as_arr).unwrap_or(&[]);
    match comparisons
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(REQUIRED_COMPARISON))
    {
        None => failures.push(format!(
            "committed report lacks the {REQUIRED_COMPARISON:?} comparison"
        )),
        Some(row) => {
            let speedup = row.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
            println!("recorded {REQUIRED_COMPARISON:<40} {speedup:>6.2}x");
            if speedup < SPEEDUP_FLOOR {
                failures.push(format!(
                    "committed mixed-tenant speedup {speedup:.2}x is below {SPEEDUP_FLOOR}x"
                ));
            }
        }
    }
    match comparisons
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(COLD_WARM_COMPARISON))
    {
        None => failures.push(format!(
            "committed report lacks the {COLD_WARM_COMPARISON:?} comparison"
        )),
        Some(row) => {
            let speedup = row.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
            println!("recorded {COLD_WARM_COMPARISON:<40} {speedup:>6.2}x");
            if speedup < COLD_WARM_FLOOR {
                failures.push(format!(
                    "committed warm-start speedup {speedup:.2}x is below {COLD_WARM_FLOOR}x"
                ));
            }
        }
    }
    match doc.get("cold_start") {
        None => failures.push("committed report lacks the \"cold_start\" block".to_string()),
        Some(block) => {
            let get = |key: &str| block.get(key).and_then(Json::as_f64);
            let hits = get("warm_store_hits").unwrap_or(-1.0);
            let tenants = get("tenants").unwrap_or(f64::INFINITY);
            if hits < tenants {
                failures.push(format!(
                    "committed cold_start block: {hits} warm store hits for {tenants} tenants"
                ));
            }
            if get("speedup").unwrap_or(0.0) < COLD_WARM_FLOOR {
                failures.push("committed cold_start speedup is below the floor".to_string());
            }
        }
    }
    let connections = doc
        .get("meta")
        .and_then(|m| m.get("steady_connections"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if connections < MIN_STEADY_CONNECTIONS {
        failures.push(format!(
            "committed report demonstrates {connections} steady connections, \
             need >= {MIN_STEADY_CONNECTIONS}"
        ));
    }
    match doc.get("telemetry") {
        None => failures.push("committed report lacks the \"telemetry\" block".to_string()),
        Some(block) => {
            let get = |key: &str| block.get(key).and_then(Json::as_f64);
            let server_total = get("server_total").unwrap_or(-1.0);
            let client_total = get("client_total").unwrap_or(-2.0);
            if server_total < 0.0 || server_total != client_total {
                failures.push(format!(
                    "committed telemetry block disagrees on totals: \
                     server {server_total} vs client {client_total}"
                ));
            }
            let server_p95 = get("server_p95_ns").unwrap_or(f64::INFINITY);
            let client_p95 = get("client_p95_ns").unwrap_or(0.0);
            if server_p95 > client_p95 {
                failures.push(format!(
                    "committed telemetry block disagrees on p95: server {server_p95:.0} ns \
                     exceeds client {client_p95:.0} ns"
                ));
            }
            println!(
                "recorded telemetry cross-check: {server_total} requests, \
                 server p95 {:.3} ms <= client p95 {:.3} ms",
                server_p95 / 1e6,
                client_p95 / 1e6
            );
        }
    }
}
