//! The serving workloads: an in-process `Server` with four tenants, driven
//! closed-loop by one (`serve_hit`) or two (`serve_miss`) client threads
//! over one loopback connection each.
//!
//! * `serve_hit`: 40-sample windows on the coarse grid, tenants
//!   characterized on first touch, a seeded mix over 5 budgets × 3
//!   thresholds whose every key is warmed first — so requests are answered
//!   from the reply cache by the reactor and `core` is bypassed.
//! * `serve_miss`: full traces on the fine grid, tenants warm-started from
//!   a snapshot store filled (untimed) before set-up, and a unique budget
//!   on every request — so every request misses the cache and goes
//!   through the shard queue, the worker and `core`.
//!
//! Both run 1 worker per shard and no `compute_delay`. A seeded sample of
//! replies must be byte-identical to the wire rendering of direct
//! `SweepEngine` / `PolicyScorecard` calls on the same tenant data.

use crate::direct::{self, cache_key};
use crate::spans::Spans;
use crate::stats::Samples;
use crate::{out_dir, peak_rss_mb, replay, seeded_trace, Args, EndToEnd, Report};
use mcdvfs_core::{InefficiencyBudget, SweepEngine};
use mcdvfs_policy::SHIPPED_POLICIES;
use mcdvfs_serve::{
    read_frame, write_frame, Request, Response, ServeState, Server, ServerConfig, ServerHandle,
    ShardedLru, TenantSpec, WireStats,
};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_store::SnapshotStore;
use mcdvfs_types::{FrequencyGrid, SplitMix64};
use mcdvfs_workloads::{Benchmark, SampleTrace, Scenario};
use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hit,
    Miss,
}

/// The default tenant first, then the three lazily built ones.
const TENANTS: [(&str, Benchmark); 4] = [
    ("gobmk", Benchmark::Gobmk),
    ("bzip2", Benchmark::Bzip2),
    ("gcc", Benchmark::Gcc),
    ("perlbench", Benchmark::Perlbench),
];
/// Measured windows of an untraced run of 25 seconds or more.
const WINDOWS: usize = 25;
/// Set-ups between two untraced windows.
const SETUPS_PER_GAP: usize = 3;
/// Set-ups per run, the first making the measured server; `setup_s` is
/// their median.
const SETUPS: usize = 1 + (WINDOWS - 1) * SETUPS_PER_GAP;
/// Requests per client in one `query_ms` block.
const BLOCK: usize = 100;
/// Sample length of a `serve_hit` tenant.
const HIT_SAMPLES: usize = 40;
/// Longest think time a client waits between a reply and its next
/// request; each wait is drawn uniformly below it, so client arrivals do
/// not lock onto the server's timer-driven wakeups.
const MAX_THINK_NS: u64 = 1_000_000;
/// Length of each alternating untraced and traced slice of a traced run.
const TRACE_SLICE: Duration = Duration::from_secs(1);
/// Untimed traffic before the first window.
const WARMUP: Duration = Duration::from_millis(500);
const BUDGETS: [Option<f64>; 5] = [Some(1.0), Some(1.1), Some(1.3), Some(1.6), None];
const THRESHOLDS: [f64; 3] = [0.01, 0.03, 0.05];
/// Most replies one run checks against direct calls.
const MAX_CHECKS: usize = 400;

impl Mix {
    fn grid(self) -> FrequencyGrid {
        match self {
            Mix::Hit => FrequencyGrid::coarse(),
            Mix::Miss => FrequencyGrid::fine(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mix::Hit => "serve_hit",
            Mix::Miss => "serve_miss",
        }
    }

    /// Closed-loop clients, one connection each. A cache hit is answered
    /// by the reactor thread alone, so `serve_hit` runs one client: with
    /// two clients and the reactor wanting the 2 cores at once, a busy
    /// neighbour on the host doubled the p99 of a run.
    fn clients(self) -> usize {
        match self {
            Mix::Hit => 1,
            Mix::Miss => 2,
        }
    }

    /// Share of replies a client keeps for the direct-call check.
    fn check_share(self) -> f64 {
        match self {
            Mix::Hit => 0.01,
            Mix::Miss => 0.03,
        }
    }
}

fn budget(b: Option<f64>) -> InefficiencyBudget {
    b.map_or(InefficiencyBudget::Unconstrained, |b| {
        InefficiencyBudget::bounded(b).expect("mix budgets are >= 1")
    })
}

/// One client's seeded request stream; it carries over between phases so
/// `serve_miss` budgets never repeat within a run.
struct Picker {
    mix: Mix,
    client: u64,
    rng: SplitMix64,
    base: f64,
    sent: u64,
}

impl Picker {
    fn new(mix: Mix, seed: u64, client: usize) -> Self {
        Self {
            mix,
            client: client as u64,
            rng: SplitMix64::new(seed ^ (0x9e37_79b9_7f4a_7c15 * (client as u64 + 1))),
            base: SplitMix64::new(seed).range_f64(0.0, 0.5),
            sent: 0,
        }
    }

    /// The next `(tenant index, request)`.
    fn next(&mut self) -> (usize, Request) {
        let rng = &mut self.rng;
        let tenant = rng.range_usize(0, TENANTS.len());
        let b = match self.mix {
            Mix::Hit => budget(BUDGETS[rng.range_usize(0, BUDGETS.len())]),
            // Unique per request: client-strided steps of 1e-6.
            Mix::Miss => {
                let step = self.sent * self.mix.clients() as u64 + self.client + 1;
                budget(Some(1.0 + self.base + step as f64 * 1e-6))
            }
        };
        self.sent += 1;
        let threshold = THRESHOLDS[rng.range_usize(0, THRESHOLDS.len())];
        let request = match rng.range_usize(0, 5) {
            0 => Request::OptimalSetting { budget: b },
            1 => Request::Cluster {
                budget: b,
                threshold,
            },
            2 => Request::StableRegions {
                budget: b,
                threshold,
            },
            3 => Request::GovernedReplay {
                governor: ["ideal", "paper"][rng.range_usize(0, 2)].to_string(),
                budget: b,
            },
            _ => Request::PolicyReplay {
                policy: SHIPPED_POLICIES[rng.range_usize(0, SHIPPED_POLICIES.len())].to_string(),
                budget: b,
                scenario: Scenario::NAMES[rng.range_usize(0, Scenario::NAMES.len())].to_string(),
            },
        };
        (tenant, request)
    }
}

/// Every distinct `serve_hit` request, for warming the reply caches.
fn hit_keys() -> Vec<Request> {
    let mut out = Vec::new();
    for b in BUDGETS.map(budget) {
        out.push(Request::OptimalSetting { budget: b });
        for threshold in THRESHOLDS {
            out.push(Request::Cluster {
                budget: b,
                threshold,
            });
            out.push(Request::StableRegions {
                budget: b,
                threshold,
            });
        }
        for governor in ["ideal", "paper"] {
            out.push(Request::GovernedReplay {
                governor: governor.to_string(),
                budget: b,
            });
        }
        for policy in SHIPPED_POLICIES {
            for scenario in Scenario::NAMES {
                out.push(Request::PolicyReplay {
                    policy: policy.to_string(),
                    budget: b,
                    scenario: scenario.to_string(),
                });
            }
        }
    }
    out
}

/// A blocking wire connection that hands back raw reply frames.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn exchange(&mut self, payload: &str) -> io::Result<String> {
        write_frame(&mut self.writer, payload)?;
        read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    fn ask(&mut self, tenant: &str, request: &Request) -> Result<Response, String> {
        let raw = self
            .exchange(&request.encode_for(Some(tenant)))
            .map_err(|e| format!("{} to {tenant}: {e}", request.kind()))?;
        Response::decode(&raw)
    }

    fn stats(&mut self) -> Result<WireStats, String> {
        match self.ask(TENANTS[0].0, &Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("stats answered {}", other.kind())),
        }
    }
}

/// One tenant's inputs and the engine the direct-call check uses.
struct Tenant {
    name: &'static str,
    trace: SampleTrace,
    engine: SweepEngine,
}

struct Bench {
    mix: Mix,
    system: System,
    tenants: Vec<Tenant>,
    store_dir: Option<PathBuf>,
}

/// A running server with its control connection.
struct Live {
    server: ServerHandle,
    control: Conn,
    fingerprints: Vec<u64>,
}

impl Live {
    /// A stats snapshot over a fresh connection: the control connection
    /// idles through a window, and the server reaps connections idle for
    /// longer than its 30 s idle timeout.
    fn stats(&self) -> Result<WireStats, String> {
        Conn::connect(self.server.addr())
            .map_err(|e| format!("stats connect: {e}"))?
            .stats()
    }

    /// Closes the control connection and stops the server, waiting for
    /// its threads.
    fn shutdown(self) {
        drop(self.control);
        let _ = self.server.shutdown();
    }
}

impl Bench {
    fn config(&self) -> ServerConfig {
        ServerConfig {
            workers: 1,
            compute_delay: Duration::ZERO,
            snapshot_dir: self.store_dir.clone(),
            ..ServerConfig::default()
        }
    }

    /// Starts a server and makes every tenant ready. Adds the set-up
    /// seconds to `setup_s` and the first-touch times of the lazily built
    /// tenants, in ms, to `first_touch_ms`.
    fn setup(&self, setup_s: &mut Samples, first_touch_ms: &mut Samples) -> Result<Live, String> {
        let t0 = Instant::now();
        let (name, trace) = (self.tenants[0].name, &self.tenants[0].trace);
        let engine = match &self.store_dir {
            None => SweepEngine::characterize_with_threads(&self.system, trace, self.mix.grid(), 1),
            Some(dir) => {
                let store = SnapshotStore::open(dir).map_err(|e| e.to_string())?;
                let fp = self.tenants[0].engine.data().fingerprint();
                match SweepEngine::warm_start(&store, fp, 1) {
                    Ok(Some((engine, _))) => engine,
                    other => return Err(format!("warm start of {name} failed: {other:?}")),
                }
            }
        };
        let mut state = ServeState::new(engine, trace.clone());
        for t in &self.tenants[1..] {
            state = state.with_tenant(
                t.name,
                TenantSpec::new(self.system.clone(), t.trace.clone(), self.mix.grid()),
            );
        }
        let server = Server::start("127.0.0.1:0", state, self.config())
            .map_err(|e| format!("starting server: {e}"))?;
        let mut control = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
        let mut fingerprints = Vec::new();
        for t in &self.tenants {
            let t1 = Instant::now();
            let Response::Health(h) = control.ask(t.name, &Request::Health)? else {
                return Err(format!("health of {} failed", t.name));
            };
            if t.name != name {
                first_touch_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            }
            fingerprints.push(u64::from_str_radix(&h.fingerprint, 16).map_err(|e| e.to_string())?);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(Live {
            server,
            control,
            fingerprints,
        })
    }
}

/// What one client thread saw in one window.
#[derive(Default)]
struct ClientOut {
    latency_us: Samples,
    blocks_ms: Samples,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(tenant, request, raw reply)` kept for the direct-call check.
    kept: Vec<(usize, Request, String)>,
    reply_bytes: Samples,
}

fn client(
    addr: SocketAddr,
    picker: &mut Picker,
    fingerprints: &[u64],
    length: Duration,
    spans: &mut Spans,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            out.problems.push(format!("connect: {e}"));
            return out;
        }
    };
    let mut keep = SplitMix64::new(picker.rng.next_u64());
    let cache = ShardedLru::new(256, 8);
    let start = Instant::now();
    let mut block = Instant::now();
    while start.elapsed() < length {
        let (tenant, request) = picker.next();
        let id = picker.client << 48 | picker.sent;
        let payload = request.encode_for(Some(TENANTS[tenant].0));
        out.attempted += 1;
        let (raw, ns) = spans.timed("serve.request", 0, id, || conn.exchange(&payload));
        let raw = match raw {
            Ok(raw) => raw,
            Err(e) => {
                out.failed += 1;
                out.latency_us.push(f64::INFINITY);
                out.problems
                    .push(format!("{} to {}: {e}", request.kind(), TENANTS[tenant].0));
                break;
            }
        };
        let reply = Response::decode(&raw);
        match &reply {
            Ok(r) if r.kind() == request.kind() => out.latency_us.push(ns as f64 / 1e3),
            other => {
                out.failed += 1;
                out.latency_us.push(f64::INFINITY);
                if out.problems.len() < 5 {
                    let what = other
                        .as_ref()
                        .map_or_else(Clone::clone, |r| r.kind().to_string());
                    out.problems
                        .push(format!("{} answered {what}", request.kind()));
                }
            }
        }
        if spans.is_on() {
            // The server-side layer calls, replayed on this request.
            let (decoded, _) = spans.timed("serve.protocol.decode", 0, id, || {
                Request::decode_envelope(&payload)
            });
            std::hint::black_box(decoded.is_ok());
            if let Ok(r) = &reply {
                spans.timed("serve.protocol.encode", 0, id, || r.encode());
            }
            let key = cache_key(fingerprints[tenant], &request).expect("compute kinds have keys");
            let (hit, _) = spans.timed("serve.cache.get", 0, id, || cache.get(&key));
            if hit.is_none() {
                let value = Arc::new(raw.clone());
                spans.timed("serve.cache.insert", 0, id, || cache.insert(key, value));
            }
            out.reply_bytes.push(raw.len() as f64);
        }
        if keep.chance(picker.mix.check_share()) {
            out.kept.push((tenant, request, raw));
        }
        std::thread::sleep(Duration::from_nanos(keep.next_u64() % MAX_THINK_NS));
        if out.attempted % BLOCK as u64 == 0 {
            out.blocks_ms.push(block.elapsed().as_secs_f64() * 1e3);
            block = Instant::now();
        }
    }
    out
}

/// The slices of one kind (untraced or traced) of a measured window.
#[derive(Default)]
struct Acc {
    out: ClientOut,
    elapsed_s: f64,
    hits: u64,
    misses: u64,
    /// Process peak RSS after this kind's first slice (after the last
    /// window of an untraced run).
    peak_rss_mb: Option<f64>,
    stats: Option<WireStats>,
    /// The exact p99 of each slice.
    window_p99_us: Samples,
}

impl Acc {
    fn hit_share(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    fn e2e(&self, setup_s: &Samples, first_touch_ms: &Samples) -> EndToEnd {
        let out = &self.out;
        EndToEnd {
            setup_s: setup_s.clone(),
            characterize_ms: first_touch_ms.clone(),
            query_ms: out.blocks_ms.clone(),
            latency_us: out.latency_us.clone(),
            window_p99_us: self.window_p99_us.clone(),
            throughput_rps: (out.attempted - out.failed) as f64 / self.elapsed_s,
            attempted: out.attempted,
            failed: out.failed,
            peak_rss_mb: self.peak_rss_mb.unwrap_or(f64::NAN),
        }
    }
}

/// Runs the closed loop for `length` and folds the clients' results into
/// `acc`.
fn slice(
    live: &mut Live,
    pickers: &mut [Picker],
    length: Duration,
    spans: &mut Spans,
    acc: &mut Acc,
) -> Result<(), String> {
    let before = live.stats()?;
    let addr = live.server.addr();
    let fingerprints = &live.fingerprints;
    let client_spans: Vec<Spans> = pickers.iter().map(|_| spans.fork()).collect();
    let start = Instant::now();
    let results: Vec<(ClientOut, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pickers
            .iter_mut()
            .zip(client_spans)
            .map(|(picker, mut s)| {
                scope.spawn(move || (client(addr, picker, fingerprints, length, &mut s), s))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    acc.elapsed_s += start.elapsed().as_secs_f64();
    let after = live.stats()?;
    acc.hits += after.cache_hits - before.cache_hits;
    acc.misses += after.cache_misses - before.cache_misses;
    acc.stats = Some(after);
    acc.peak_rss_mb.get_or_insert_with(peak_rss_mb);
    let mut window = Samples::default();
    let all = &mut acc.out;
    for (out, s) in results {
        spans.absorb(s);
        window.extend(&out.latency_us);
        all.blocks_ms.extend(&out.blocks_ms);
        all.reply_bytes.extend(&out.reply_bytes);
        all.attempted += out.attempted;
        all.failed += out.failed;
        all.problems.extend(out.problems);
        all.kept.extend(out.kept);
    }
    all.latency_us.extend(&window);
    acc.window_p99_us.push(window.quantile(0.99));
    Ok(())
}

/// Checks kept replies against direct calls on the tenant's engine, and
/// cluster/region replies also against a one-point `sweep`. Returns the
/// number of mismatches.
fn check(
    bench: &Bench,
    kept: &[(usize, Request, String)],
    spans: &mut Spans,
    problems: &mut Vec<String>,
) -> u64 {
    let mut bad = 0;
    for (i, (tenant, request, raw)) in kept.iter().take(MAX_CHECKS).enumerate() {
        let t = &bench.tenants[*tenant];
        let id = i as u64;
        let answer = spans.enter("verify.answer", 0, id);
        let parent = answer.id();
        let expected = direct::answer(&t.engine, &t.trace, request, spans, parent, id);
        spans.exit(answer);
        let mut same = expected.is_some_and(|e| e.encode() == *raw);
        if let Request::Cluster { budget, threshold }
        | Request::StableRegions { budget, threshold } = request
        {
            let (swept, _) = spans.timed("core.sweep", 0, id, || {
                t.engine.sweep(&[*budget], &[*threshold])
            });
            let data = t.engine.data();
            same &= swept.is_ok_and(|o| {
                let reply = match request {
                    Request::Cluster { .. } => direct::cluster_reply(data, &o[0].clusters),
                    _ => direct::stable_reply(data, &o[0].regions),
                };
                reply.encode() == *raw
            });
        }
        if !same {
            bad += 1;
            if bad <= 5 {
                problems.push(format!(
                    "{} reply for {} differs from direct calls",
                    request.kind(),
                    t.name
                ));
            }
        }
    }
    bad
}

pub fn run(args: &Args, mix: Mix) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut spans = Spans::new(args.trace, epoch);
    let system = System::galaxy_nexus_class();
    let mut rng = SplitMix64::new(args.seed);
    let tenants: Vec<Tenant> = TENANTS
        .iter()
        .map(|&(name, b)| {
            let full = seeded_trace(b, &mut rng);
            let trace = match mix {
                Mix::Hit => full.window(0, HIT_SAMPLES),
                Mix::Miss => full,
            };
            let (grid, _) = spans.timed("sim.characterize", 0, 0, || {
                CharacterizationGrid::characterize_auto(&system, &trace, mix.grid())
            });
            Tenant {
                name,
                trace,
                engine: SweepEngine::with_threads(Arc::new(grid), 1),
            }
        })
        .collect();

    // serve_miss: fill the store the tenants warm-start from, untimed.
    let store_dir = (mix == Mix::Miss)
        .then(|| out_dir().join(format!("store-{}-{}", mix.name(), std::process::id())));
    if let Some(dir) = &store_dir {
        let store = SnapshotStore::open(dir).map_err(|e| format!("opening store: {e}"))?;
        for t in &tenants {
            let snapshot = t.engine.data().to_snapshot();
            store.persist(&snapshot).map_err(|e| e.to_string())?;
            let spec = TenantSpec::new(system.clone(), t.trace.clone(), mix.grid());
            store
                .record_spec(spec.spec_key(t.name), snapshot.fingerprint)
                .map_err(|e| e.to_string())?;
        }
    }
    let bench = Bench {
        mix,
        system,
        tenants,
        store_dir,
    };
    let result = measure(&bench, args, spans);
    if let Some(dir) = &bench.store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn measure(bench: &Bench, args: &Args, mut spans: Spans) -> Result<Report, String> {
    let mix = bench.mix;
    let mut setup_s = Samples::default();
    let mut first_touch_ms = Samples::default();
    // The first set-up makes the server every window runs on; each other
    // one makes a server and stops it. A traced run does them all here.
    // An untraced run spreads them between its windows, so a burst of
    // host load lands on a few set-ups rather than on all of them.
    let mut live = bench.setup(&mut setup_s, &mut first_touch_ms)?;
    if args.trace {
        for _ in 1..SETUPS {
            bench.setup(&mut setup_s, &mut first_touch_ms)?.shutdown();
        }
    }
    let store_hits = live.stats()?.store.hits;

    // Warm-up: every serve_hit key once, then closed-loop traffic.
    if mix == Mix::Hit {
        for (name, _) in TENANTS {
            for request in hit_keys() {
                live.control.ask(name, &request)?;
            }
        }
    }
    let mut pickers: Vec<Picker> = (0..mix.clients())
        .map(|c| Picker::new(mix, args.seed, c))
        .collect();
    let mut off = Spans::new(false, Instant::now());
    slice(
        &mut live,
        &mut pickers,
        WARMUP,
        &mut off,
        &mut Acc::default(),
    )?;

    let (mut plain, mut traced) = (Acc::default(), Acc::default());
    if args.trace {
        // Alternate slices so both kinds see the same machine conditions.
        let slices = (args.seconds / TRACE_SLICE.as_secs_f64()).round().max(2.0) as usize;
        for k in 0..slices {
            if k.is_multiple_of(2) {
                slice(&mut live, &mut pickers, TRACE_SLICE, &mut off, &mut plain)?;
            } else {
                slice(
                    &mut live,
                    &mut pickers,
                    TRACE_SLICE,
                    &mut spans,
                    &mut traced,
                )?;
            }
        }
        traced.peak_rss_mb = Some(peak_rss_mb());
    } else {
        // Windows of at least a second, so each holds whole query_ms blocks.
        let windows = WINDOWS.min(args.seconds as usize).max(1);
        let length = Duration::from_secs_f64(args.seconds / windows as f64);
        for k in 0..windows {
            if k > 0 {
                for _ in 0..SETUPS_PER_GAP {
                    bench.setup(&mut setup_s, &mut first_touch_ms)?.shutdown();
                }
            }
            slice(&mut live, &mut pickers, length, &mut off, &mut plain)?;
        }
        // Once every set-up has run, as after a traced run's first slice.
        plain.peak_rss_mb = Some(peak_rss_mb());
    }
    let share = plain.hit_share();
    let mut problems = std::mem::take(&mut plain.out.problems);
    problems.append(&mut traced.out.problems);
    let mut kept = std::mem::take(&mut plain.out.kept);
    kept.append(&mut traced.out.kept);
    live.shutdown();

    let mut notes = vec![format!(
        "workload {}: {} tenants on the {}-setting grid, {} closed-loop clients, 1 worker per shard, no compute_delay",
        mix.name(),
        TENANTS.len(),
        mix.grid().len(),
        mix.clients()
    )];
    notes.push(format!(
        "property cache_hit_share = {share} ({})",
        match mix {
            Mix::Hit => "must be >= 0.95",
            Mix::Miss => "must be 0",
        }
    ));
    let ok = match mix {
        Mix::Hit => share >= 0.95,
        Mix::Miss => share == 0.0,
    };
    if !ok {
        problems.push(format!(
            "cache hit share {share} is on the wrong side for {}",
            mix.name()
        ));
    }
    if mix == Mix::Miss {
        notes.push(format!(
            "property store_hits_during_setup = {store_hits} + 1 default tenant (must be {})",
            TENANTS.len() - 1
        ));
        if store_hits != TENANTS.len() as u64 - 1 {
            problems.push(format!(
                "{store_hits} lazy tenants warm-started from the store"
            ));
        }
    }

    notes.push(format!(
        "checked {} replies against direct calls",
        kept.len().min(MAX_CHECKS)
    ));
    let mut untraced = plain.e2e(&setup_s, &first_touch_ms);
    untraced.failed += check(bench, &kept, &mut spans, &mut problems);

    let mut layers = BTreeMap::new();
    let mut traced_e2e = None;
    if args.trace {
        let t = traced.e2e(&setup_s, &first_touch_ms);
        let stats = traced.stats.as_ref().ok_or("no traced slice ran")?;
        layers = serve_layers(
            bench,
            &t,
            &traced.out,
            traced.hit_share(),
            stats,
            &mut spans,
        )?;
        traced_e2e = Some(t);
    }
    Ok(Report {
        untraced,
        traced: traced_e2e,
        layers,
        problems,
        notes,
        spans,
    })
}

fn serve_layers(
    bench: &Bench,
    traced: &EndToEnd,
    out: &ClientOut,
    hit_share: f64,
    stats: &WireStats,
    spans: &mut Spans,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let grids: Vec<&CharacterizationGrid> = bench
        .tenants
        .iter()
        .map(|t| t.engine.data().as_ref())
        .collect();
    replay::plan_compile(&bench.system, &grids, spans, 3);
    let dir = out_dir().join(format!(
        "store-replay-{}-{}",
        bench.mix.name(),
        std::process::id()
    ));
    let stored = replay::store_roundtrip(&grids, &dir, spans, 3);
    let _ = std::fs::remove_dir_all(&dir);
    let cells: usize = grids.iter().map(|g| g.n_samples() * g.n_settings()).sum();

    let mut layers = BTreeMap::from([
        ("sim.cells", cells as f64),
        ("store.bytes_read", stored? as f64),
        (
            "sim.characterize_ms",
            spans.durations("sim.characterize", 1e6).median(),
        ),
        ("core.sweep_ms", spans.durations("core.sweep", 1e6).median()),
        ("serve.protocol.reply_bytes", out.reply_bytes.median()),
        ("serve.cache.hit_ratio", hit_share),
        ("serve.shard.queue_depth_max", stats.queue_depth_max as f64),
        ("serve.shard.evictions", stats.evictions as f64),
        ("serve.store.hits", stats.store.hits as f64),
    ]);
    for (metric, span, unit_ns) in [
        ("sim.plan_compile_us", "sim.plan_compile", 1e3),
        ("store.load_us", "store.load", 1e3),
        ("store.from_snapshot_us", "store.from_snapshot", 1e3),
        ("core.optimal_series_us", "core.optimal_series", 1e3),
        ("core.cluster_detail_us", "core.cluster_detail", 1e3),
        ("core.stable_detail_us", "core.stable_detail", 1e3),
        ("core.governed_reports_us", "core.governed_reports", 1e3),
        ("policy.score_us", "policy.score", 1e3),
        ("serve.protocol.decode_us", "serve.protocol.decode", 1e3),
        ("serve.protocol.encode_us", "serve.protocol.encode", 1e3),
        ("serve.cache.get_ns", "serve.cache.get", 1.0),
        ("serve.cache.insert_ns", "serve.cache.insert", 1.0),
    ] {
        layers.insert(metric, spans.durations(span, unit_ns).median());
    }
    // What the client waited beyond the server-side work it caused:
    // decode, then a cache read (hits) or the compute (misses), then encode.
    let middle_us = if hit_share >= 0.5 {
        layers["serve.cache.get_ns"] / 1e3
    } else {
        spans.durations("verify.answer", 1e3).median()
    };
    let client_us = traced.latency_us.median();
    let residual = client_us
        - layers["serve.protocol.decode_us"]
        - middle_us
        - layers["serve.protocol.encode_us"];
    layers.insert("serve.residual_us", residual);
    layers.insert("layers.sum_to_whole", (client_us - residual) / client_us);
    Ok(layers)
}
