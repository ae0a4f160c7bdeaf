//! The event-driven connection reactor.
//!
//! One thread owns every connection. The listener and all accepted
//! streams are nonblocking; each tick accepts until `WouldBlock`, drains
//! compute completions, then scans the connection slab — flushing write
//! buffers, enforcing idle/write/reply deadlines, reading whatever bytes
//! are available, and parsing frames out of each connection's
//! accumulator. Idle connections are slots in a `Vec`, not threads: ten
//! thousand silent sockets cost zero stacks and a slow-loris client is
//! reaped by the idle deadline it can no longer dodge by trickling
//! header bytes (the deadline is enforced from the tick, not from inside
//! a blocking read).
//!
//! Backpressure is structural: a connection may have at most one compute
//! request in flight, and while it does the reactor neither reads nor
//! parses more of its input — the kernel's TCP window does the rest.
//! Inline answers (health, stats, cache hits, typed errors, shed
//! replies) never leave the reactor thread. Compute replies flow back
//! over the completion channel tagged with a [`ConnToken`] whose
//! generation is bumped on slot reuse and on reply timeout, so a stale
//! completion can never answer the wrong client.
//!
//! When a tick does no work the loop blocks in `poll(2)` until something
//! it would act on is ready: the listener (unless stopping), each
//! connection that may read (`POLLIN`) or has bytes to write
//! (`POLLOUT`), and a [`Waker`] that shard workers write after every
//! completion and [`ServerHandle::shutdown`](crate::ServerHandle::shutdown)
//! writes to stop. The wait's timeout is the nearest deadline the tick
//! enforces — a connection's idle, reply or write deadline, or the drain
//! deadline while stopping — so an idle server with no connections
//! sleeps until a client or a stop arrives, and no request waits on a
//! timer to be noticed.

use crate::poll::{self, PollFd, Waker, POLLIN, POLLOUT};
use crate::protocol::{Request, Response, WireHealth, WireStats, WireTelemetry, MAX_FRAME_BYTES};
use crate::server::{cache_key, ServerConfig};
use crate::shard::{try_dispatch, Completion, ConnToken, Dispatch, Job, ShardMap};
use crate::telemetry::{histogram_summary, wire_trace, TelemetryCtx};
use mcdvfs_obs::{count_edges, MetricSet, Outcome, RequestTrace, Stage};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the reactor sleeps after `poll` or `accept` fails for lack
/// of descriptors or memory: the failed work stays ready, so waiting
/// again at once would spin.
const ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// Hard ceiling on shutdown drain, independent of `reply_timeout`.
const MAX_DRAIN: Duration = Duration::from_secs(5);

/// Per-read scratch size; frames larger than this accumulate over ticks.
const READ_CHUNK: usize = 16 * 1024;

/// Everything the reactor and its helpers share read-only.
pub(crate) struct Ctx {
    pub map: Arc<ShardMap>,
    pub metrics: Arc<Mutex<MetricSet>>,
    pub tel: TelemetryCtx,
    pub config: ServerConfig,
}

impl Ctx {
    fn record(&self, f: impl FnOnce(&mut MetricSet)) {
        f(&mut self.metrics.lock().expect("reactor metrics poisoned"));
    }

    /// Reader-side metrics merged with every shard's worker slots.
    fn snapshot(&self) -> MetricSet {
        let mut merged = self
            .metrics
            .lock()
            .expect("reactor metrics poisoned")
            .clone();
        self.map.merge_metrics(&mut merged);
        merged
    }
}

/// One registered connection.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet parsed into a frame.
    buf: Vec<u8>,
    /// Outbound bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Identity generation for completion routing.
    gen: u64,
    /// Set while a compute request is queued or running; holds the
    /// dispatch instant its reply deadline runs from.
    in_flight: Option<Instant>,
    /// When the first byte of the frame being accumulated arrived —
    /// the flight record's `accepted` stamp.
    frame_started: Option<Instant>,
    /// Flight records for replies sitting in `out`, committed once the
    /// write buffer fully drains (the `write_flushed` stamp).
    pending: Vec<RequestTrace>,
    last_byte: Instant,
    /// First instant a write returned `WouldBlock` with bytes pending.
    write_stall: Option<Instant>,
    /// Close once the write buffer drains.
    closing: bool,
    /// Peer sent EOF; finish what is parsed, then close.
    eof: bool,
    /// Slot is dead; the scan frees it at the end of the tick.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            gen,
            in_flight: None,
            frame_started: None,
            pending: Vec::new(),
            last_byte: Instant::now(),
            write_stall: None,
            closing: false,
            eof: false,
            dead: false,
        }
    }

    /// Whether the tick reads this socket: no request in flight (that is
    /// the backpressure), not closing, and no EOF yet.
    fn may_read(&self) -> bool {
        self.in_flight.is_none() && !self.closing && !self.eof
    }

    /// The earliest deadline the tick enforces on this connection.
    fn deadline(&self, config: &ServerConfig) -> Instant {
        let due = match self.in_flight {
            Some(started) => started + config.reply_timeout,
            None => self.last_byte + config.idle_timeout,
        };
        self.write_stall
            .map_or(due, |stall| due.min(stall + config.write_timeout))
    }

    /// Appends one framed reply to the write buffer.
    fn push_frame(&mut self, payload: &str) {
        self.out
            .extend_from_slice(payload.len().to_string().as_bytes());
        self.out.push(b'\n');
        self.out.extend_from_slice(payload.as_bytes());
        self.out.push(b'\n');
    }
}

/// Runs the poll loop until shutdown; returns after the drain completes.
pub(crate) fn run(
    listener: TcpListener,
    completions: Receiver<Completion>,
    waker: Waker,
    ctx: Ctx,
    shutdown: Arc<AtomicBool>,
) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut drain_deadline: Option<Instant> = None;
    let mut fds: Vec<PollFd> = Vec::new();

    loop {
        let tick_start = Instant::now();
        let mut did_work = false;
        let stopping = shutdown.load(Ordering::Relaxed);

        if stopping {
            drain_deadline
                .get_or_insert_with(|| Instant::now() + ctx.config.reply_timeout.min(MAX_DRAIN));
        } else {
            did_work |= accept_ready(&listener, &ctx, &mut conns, &mut free, &mut next_gen);
        }

        while let Ok(completion) = completions.try_recv() {
            deliver(&mut conns, &ctx, completion);
            did_work = true;
        }

        let scanned = conns.len();
        for (idx, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            did_work |= service(conn, idx, &ctx, &mut next_gen);
            if stopping && !conn.dead && conn.in_flight.is_none() && conn.out_pos >= conn.out.len()
            {
                conn.dead = true;
            }
            if conn.dead {
                // A dying connection's replies may never fully flush;
                // commit their flight records without the final stamp.
                for trace in conn.pending.drain(..) {
                    ctx.tel.commit(trace, &ctx.metrics);
                }
                *slot = None;
                free.push(idx);
            }
        }

        // Satellite of the O(slots) scan follow-on: make the tick's own
        // cost visible. Gated with telemetry so the off path stays
        // lock-free on idle ticks.
        if ctx.tel.recorder.is_enabled() {
            ctx.record(|m| {
                m.incr("reactor.ticks", 1);
                m.incr("reactor.slots_scanned", scanned as u64);
                m.observe("reactor.scan_slots", scanned as f64, count_edges);
                m.observe_duration_ns("reactor.tick_ns", tick_start.elapsed().as_nanos() as f64);
            });
        }

        if stopping {
            let drained = conns.iter().all(Option::is_none);
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if drained || expired {
                return;
            }
        }

        if !did_work {
            wait_ready(
                &mut fds,
                &listener,
                &waker,
                &conns,
                &ctx.config,
                drain_deadline,
            );
        }
    }
}

/// Blocks until a socket the tick would act on is ready, a worker or
/// `shutdown` wakes the reactor, or the nearest enforced deadline comes
/// due. `drain_deadline` is set only while stopping, when the listener
/// is no longer watched. `fds` is scratch reused across ticks.
fn wait_ready(
    fds: &mut Vec<PollFd>,
    listener: &TcpListener,
    waker: &Waker,
    conns: &[Option<Conn>],
    config: &ServerConfig,
    drain_deadline: Option<Instant>,
) {
    fds.clear();
    fds.push(PollFd::new(waker.fd(), POLLIN));
    if drain_deadline.is_none() {
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
    }
    let mut deadline = drain_deadline;
    for conn in conns.iter().flatten() {
        let mut events = 0;
        if conn.may_read() {
            events |= POLLIN;
        }
        if conn.out_pos < conn.out.len() {
            events |= POLLOUT;
        }
        // A connection waiting only on its compute reply is not polled:
        // a peer hang-up would report readiness on every wait, and the
        // completion's wake covers it.
        if events != 0 {
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        }
        let due = conn.deadline(config);
        deadline = Some(deadline.map_or(due, |d| d.min(due)));
    }
    let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    if poll::wait(fds, timeout).is_err() {
        std::thread::sleep(ERROR_BACKOFF);
    }
    // Drained after the wait and before the next tick reads the stop
    // flag and the completion channel: a wake sent later leaves a byte
    // for the next wait, so none is lost.
    waker.drain();
}

/// Accepts every connection the listener has ready.
fn accept_ready(
    listener: &TcpListener,
    ctx: &Ctx,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_gen: &mut u64,
) -> bool {
    let mut accepted = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Replies are single small frames; never hold them for
                // Nagle coalescing.
                let _ = stream.set_nodelay(true);
                *next_gen += 1;
                let conn = Conn::new(stream, *next_gen);
                match free.pop() {
                    Some(idx) => conns[idx] = Some(conn),
                    None => conns.push(Some(conn)),
                }
                ctx.record(|m| m.incr("connections.accepted", 1));
                accepted = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            Err(_) => {
                // The pending connection keeps the listener readable.
                std::thread::sleep(ERROR_BACKOFF);
                break;
            }
        }
    }
    accepted
}

/// Routes one compute completion to its (still-matching) connection.
/// Stale completions (slot freed or generation bumped by a reply
/// timeout) still commit their flight record — marked timed out — so
/// the recorder sees every request the workers actually finished.
fn deliver(conns: &mut [Option<Conn>], ctx: &Ctx, completion: Completion) {
    let live = conns
        .get_mut(completion.conn.id)
        .and_then(Option::as_mut)
        .filter(|conn| conn.gen == completion.conn.gen);
    let Some(conn) = live else {
        if let Some(mut trace) = completion.trace {
            trace.outcome = Outcome::TimedOut;
            ctx.tel.commit(trace, &ctx.metrics);
        }
        return;
    };
    if conn.in_flight.take().is_none() {
        return;
    }
    conn.push_frame(&completion.reply);
    ctx.tel.in_flight_add(-1);
    if let Some(trace) = completion.trace {
        conn.pending.push(trace);
    }
}

/// One tick of one connection: flush, deadlines, read, parse, dispatch.
fn service(conn: &mut Conn, idx: usize, ctx: &Ctx, next_gen: &mut u64) -> bool {
    let mut did_work = flush(conn);
    commit_flushed(conn, ctx);
    if conn.dead {
        return did_work;
    }

    if let Some(stall) = conn.write_stall {
        if stall.elapsed() > ctx.config.write_timeout {
            conn.dead = true;
            return did_work;
        }
    }

    if let Some(started) = conn.in_flight {
        if started.elapsed() > ctx.config.reply_timeout {
            conn.in_flight = None;
            // Retire this identity so the late completion is dropped.
            *next_gen += 1;
            conn.gen = *next_gen;
            conn.push_frame(&Response::Error("compute timed out".to_string()).encode());
            ctx.tel.in_flight_add(-1);
            did_work = true;
        }
    } else if conn.last_byte.elapsed() > ctx.config.idle_timeout {
        // Never sent a byte (or stalled mid-frame): reap silently.
        ctx.record(|m| m.incr("connections.idle_closed", 1));
        conn.dead = true;
        return did_work;
    }

    if conn.may_read() {
        did_work |= fill(conn);
        if conn.dead {
            return did_work;
        }
    }

    while conn.in_flight.is_none() && !conn.closing && !conn.dead {
        match parse_frame(&conn.buf) {
            Ok(Some((payload, consumed))) => {
                // The frame is complete: its `accepted` stamp is when its
                // first byte arrived. Any leftover bytes in the buffer
                // belong to the *next* frame, whose first byte is already
                // here — restart the clock for it now.
                let accepted = conn.frame_started.take();
                conn.buf.drain(..consumed);
                conn.frame_started = (!conn.buf.is_empty()).then(Instant::now);
                handle_payload(conn, idx, &payload, ctx, accepted);
                did_work = true;
            }
            Ok(None) => {
                if conn.eof {
                    if conn.buf.is_empty() {
                        // Clean EOF between frames.
                        if conn.out_pos >= conn.out.len() {
                            conn.dead = true;
                        } else {
                            conn.closing = true;
                        }
                    } else {
                        ctx.record(|m| m.incr("protocol.errors", 1));
                        conn.push_frame(&Response::Error("truncated frame".to_string()).encode());
                        conn.closing = true;
                        did_work = true;
                    }
                }
                break;
            }
            Err(message) => {
                // Framing is broken; reply once and drop the connection.
                ctx.record(|m| m.incr("protocol.errors", 1));
                conn.push_frame(&Response::Error(message).encode());
                conn.closing = true;
                did_work = true;
            }
        }
    }

    did_work |= flush(conn);
    commit_flushed(conn, ctx);
    did_work
}

/// Commits pending flight records once the write buffer has fully
/// drained: that drain instant is every pending reply's
/// `write_flushed` stamp.
fn commit_flushed(conn: &mut Conn, ctx: &Ctx) {
    if conn.pending.is_empty() || conn.out_pos < conn.out.len() {
        return;
    }
    let flushed_ns = ctx.tel.recorder.now_ns();
    for mut trace in conn.pending.drain(..) {
        trace.stamp(Stage::WriteFlushed, flushed_ns);
        ctx.tel.commit(trace, &ctx.metrics);
    }
}

/// Writes as much of the outbound buffer as the socket accepts.
fn flush(conn: &mut Conn) -> bool {
    let mut wrote = false;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return wrote;
            }
            Ok(n) => {
                conn.out_pos += n;
                conn.write_stall = None;
                wrote = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.write_stall.get_or_insert_with(Instant::now);
                return wrote;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return wrote;
            }
        }
    }
    if !conn.out.is_empty() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    if conn.closing {
        conn.dead = true;
    }
    wrote
}

/// Reads everything the socket has ready into the frame accumulator.
fn fill(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; READ_CHUNK];
    let mut read_any = false;
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.eof = true;
                return true;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                conn.last_byte = Instant::now();
                if conn.frame_started.is_none() {
                    conn.frame_started = Some(conn.last_byte);
                }
                read_any = true;
                // One in-flight request per connection bounds how much a
                // peer can usefully pipeline; stop slurping once we hold
                // a full max-size frame plus the next header.
                if conn.buf.len() > MAX_FRAME_BYTES + 64 {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return read_any,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return read_any;
            }
        }
    }
}

/// Tries to split one `<len>\n<payload>\n` frame off the accumulator.
/// `Ok(None)` means incomplete; `Err` is a fatal framing error.
fn parse_frame(buf: &[u8]) -> Result<Option<(String, usize)>, String> {
    let header_end = buf.iter().take(33).position(|&b| b == b'\n');
    let Some(header_end) = header_end else {
        if buf.len() >= 32 {
            return Err("oversized frame header".to_string());
        }
        return Ok(None);
    };
    if header_end > 31 {
        return Err("oversized frame header".to_string());
    }
    let header =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| "frame header is not UTF-8")?;
    let len: usize = header
        .trim()
        .parse()
        .map_err(|_| "invalid frame length".to_string())?;
    if len > MAX_FRAME_BYTES {
        return Err("frame exceeds size cap".to_string());
    }
    let need = header_end + 1 + len + 1;
    if buf.len() < need {
        return Ok(None);
    }
    if buf[need - 1] != b'\n' {
        return Err("frame missing terminator".to_string());
    }
    let payload = String::from_utf8(buf[header_end + 1..need - 1].to_vec())
        .map_err(|_| "frame is not UTF-8")?;
    Ok(Some((payload, need)))
}

/// Decodes and answers one request. Cache hits, `Stats`, `Health`,
/// `Telemetry`, `TraceDump`, typed errors, and shed replies answer
/// inline; everything else dispatches to the owning shard and marks the
/// connection in flight. When the flight recorder is on, a
/// [`RequestTrace`] is born here and rides the same path the reply
/// takes.
fn handle_payload(
    conn: &mut Conn,
    idx: usize,
    payload: &str,
    ctx: &Ctx,
    accepted: Option<Instant>,
) {
    let rec = &ctx.tel.recorder;
    let mut trace = if rec.is_enabled() {
        // Born before decode so even malformed requests leave a record;
        // the kind is corrected the moment decode succeeds.
        let mut t = rec.begin("invalid");
        if let Some(at) = accepted {
            t.stamp(Stage::Accepted, rec.ns_of(at));
        }
        t.stamp(Stage::FrameComplete, rec.now_ns());
        Some(t)
    } else {
        None
    };
    let (request, workload) = match Request::decode_envelope(payload) {
        Ok(decoded) => decoded,
        Err(message) => {
            ctx.record(|m| m.incr("protocol.errors", 1));
            let reply = Response::Error(message).encode();
            reply_inline(conn, ctx, &reply, Outcome::Error, trace);
            return;
        }
    };
    if let Some(t) = trace.as_mut() {
        t.kind = request.kind();
        t.stamp(Stage::Decoded, rec.now_ns());
    }
    ctx.record(|m| {
        m.incr("requests.total", 1);
        m.incr(&format!("requests.{}", request.kind()), 1);
    });

    if matches!(request, Request::Stats) {
        // Global view: reader metrics, every shard's workers, the map.
        let snapshot = ctx.snapshot();
        let counter = |name: &str| snapshot.counter(name);
        let reply = Response::Stats(WireStats {
            requests: counter("requests.total"),
            cache_hits: counter("cache.hit"),
            cache_misses: counter("cache.miss"),
            overloaded: counter("overloaded"),
            protocol_errors: counter("protocol.errors"),
            queue_depth_max: snapshot.gauge("queue.depth_max").unwrap_or(0.0) as u64,
            engines: ctx.map.resident() as u64,
            evictions: ctx.map.evictions(),
            shards: ctx.map.wire_rows(),
            policy: ctx.map.policy_counters(),
            store: ctx.map.store_counters(),
            uptime_ms: ctx.tel.uptime_ms(),
            requests_in_flight: ctx.tel.in_flight.get(),
            rendered: snapshot.render(),
        })
        .encode();
        reply_inline(conn, ctx, &reply, Outcome::Ok, trace);
        return;
    }

    if matches!(request, Request::Telemetry) {
        let reply = Response::Telemetry(build_telemetry(ctx)).encode();
        reply_inline(conn, ctx, &reply, Outcome::Ok, trace);
        return;
    }

    if let Request::TraceDump { limit, slow_only } = request {
        let dump = rec
            .recent(limit, slow_only)
            .iter()
            .map(wire_trace)
            .collect();
        let reply = Response::TraceDump(dump).encode();
        reply_inline(conn, ctx, &reply, Outcome::Ok, trace);
        return;
    }

    let (core, job_tx) = match ctx.map.resolve(workload.as_deref()) {
        Ok(resolved) => resolved,
        Err(message) => {
            ctx.record(|m| m.incr("route.unknown_workload", 1));
            let reply = Response::Error(message).encode();
            reply_inline(conn, ctx, &reply, Outcome::Error, trace);
            return;
        }
    };
    core.requests
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    if let Some(t) = trace.as_mut() {
        t.fingerprint = core.fingerprint;
    }

    if matches!(request, Request::Health) {
        let data = core.engine.data();
        let reply = Response::Health(WireHealth {
            status: "ok".to_string(),
            workload: data.name().to_string(),
            samples: data.n_samples(),
            settings: data.n_settings(),
            fingerprint: format!("{:016x}", core.fingerprint),
            workers: ctx.config.workers.max(1),
        })
        .encode();
        reply_inline(conn, ctx, &reply, Outcome::Ok, trace);
        return;
    }

    // Every variant that falls through the inline paths above has a
    // cache key today; if dispatch and `cache_key` ever disagree (a new
    // request kind wired into one but not the other), a typed reply is
    // the right failure mode — not a reactor panic.
    let Some(key) = cache_key(core.fingerprint, &request) else {
        ctx.record(|m| m.incr("internal.errors", 1));
        let reply = Response::Error(format!(
            "internal error: no cache key for {:?} dispatch",
            request.kind()
        ))
        .encode();
        reply_inline(conn, ctx, &reply, Outcome::Error, trace);
        return;
    };
    if let Some(hit) = core.cache.get(&key) {
        core.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ctx.record(|m| m.incr("cache.hit", 1));
        reply_inline(conn, ctx, &hit, Outcome::CacheHit, trace);
        return;
    }

    if let Some(t) = trace.as_mut() {
        t.stamp(Stage::Enqueued, rec.now_ns());
    }
    let job = Job {
        request,
        key,
        conn: ConnToken {
            id: idx,
            gen: conn.gen,
        },
        trace,
    };
    match try_dispatch(&core, &job_tx, job) {
        (Dispatch::Queued, depth) => {
            ctx.record(|m| m.gauge_max("queue.depth_max", depth as f64));
            ctx.tel.in_flight_add(1);
            ctx.tel.observe_queue_depth(depth as u64);
            conn.in_flight = Some(Instant::now());
        }
        (Dispatch::Shed(job), _) => {
            ctx.record(|m| m.incr("overloaded", 1));
            reply_inline(
                conn,
                ctx,
                &Response::Overloaded.encode(),
                Outcome::Shed,
                job.trace,
            );
        }
        (Dispatch::Gone(job), _) => {
            let reply = Response::Error("server is shutting down".to_string()).encode();
            reply_inline(conn, ctx, &reply, Outcome::Error, job.trace);
        }
    }
}

/// Assembles the full telemetry reply on the reactor thread: merged
/// histogram summaries, the window ring, per-shard compute latency, and
/// the flight recorder's own accounting.
fn build_telemetry(ctx: &Ctx) -> WireTelemetry {
    let rec = &ctx.tel.recorder;
    let snapshot = ctx.snapshot();
    let histograms = snapshot
        .histogram_names()
        .map(|name| {
            let h = snapshot.histogram(name).expect("name came from the set");
            histogram_summary(name, h)
        })
        .collect();
    let windows = ctx
        .tel
        .windows
        .borrow()
        .snapshot()
        .iter()
        .map(|w| crate::protocol::WireWindow {
            second: w.second,
            requests: w.requests,
            ok: w.ok,
            errors: w.errors,
            shed: w.shed,
            queue_depth_max: w.queue_depth_max,
            p50_ns: w.p50_ns().unwrap_or(0.0),
            p95_ns: w.p95_ns().unwrap_or(0.0),
            max_ns: w.max_ns().unwrap_or(0.0),
        })
        .collect();
    let mut shard_compute: Vec<_> = ctx
        .tel
        .shard_compute
        .borrow()
        .iter()
        .map(|(&fingerprint, h)| histogram_summary(&ctx.map.name_of(fingerprint), h))
        .collect();
    shard_compute.sort_by(|a, b| a.name.cmp(&b.name));
    let counts = rec.counts();
    WireTelemetry {
        enabled: rec.is_enabled(),
        uptime_ms: ctx.tel.uptime_ms(),
        windows,
        histograms,
        shard_compute,
        policy: ctx.map.policy_counters(),
        store: ctx.map.store_counters(),
        flight_recorded: counts.recorded,
        flight_dropped: counts.dropped,
        flight_slow: counts.slow,
        // `u64::MAX` (the disabled sentinel) does not survive the f64
        // wire; report 0 when the recorder is off.
        slow_threshold_ns: if rec.is_enabled() {
            rec.slow_threshold_ns()
        } else {
            0
        },
    }
}

/// Queues a reactor-produced reply and parks its flight record (stamped
/// `encoded` now) until the write buffer drains.
fn reply_inline(
    conn: &mut Conn,
    ctx: &Ctx,
    payload: &str,
    outcome: Outcome,
    trace: Option<RequestTrace>,
) {
    conn.push_frame(payload);
    if let Some(mut t) = trace {
        t.outcome = outcome;
        t.stamp(Stage::Encoded, ctx.tel.recorder.now_ns());
        conn.pending.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_frame;

    #[test]
    fn frames_split_incrementally_and_reject_bad_headers() {
        let frame = b"5\nhello\n";
        for cut in 0..frame.len() {
            assert!(
                parse_frame(&frame[..cut]).expect("prefix parses").is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (payload, consumed) = parse_frame(frame).unwrap().expect("complete frame");
        assert_eq!(payload, "hello");
        assert_eq!(consumed, frame.len());

        // Two frames back to back: the first parse consumes exactly one.
        let two = b"2\nhi\n3\nyou\n";
        let (first, consumed) = parse_frame(two).unwrap().expect("first frame");
        assert_eq!(first, "hi");
        let (second, rest) = parse_frame(&two[consumed..]).unwrap().expect("second");
        assert_eq!(second, "you");
        assert_eq!(consumed + rest, two.len());

        assert!(parse_frame(b"not a number\n").is_err());
        assert!(parse_frame(&[b'9'; 40]).is_err(), "header without newline");
        assert!(parse_frame(b"99999999999999999999\nx").is_err());
        assert!(parse_frame(b"3\nabcX").is_err(), "missing terminator");
    }
}
