//! Server-side telemetry assembly and the client-side cross-check.
//!
//! The reactor thread owns all windowed state: [`TelemetryCtx`] bundles
//! the flight recorder (shared with shard workers for timestamping), the
//! single-writer [`WindowRing`], the per-shard compute histograms, the
//! live in-flight gauge, and the start instant behind `uptime_ms`.
//! Everything here is assembled on the reactor thread, so the window
//! ring and the compute histograms need no lock at all (`RefCell`) and
//! the in-flight gauge is a plain `Cell`.
//!
//! [`TelemetryCtx::commit`] is the server's one request clock: every
//! per-request latency figure — `latency.request_ns`, the
//! `stage.{kind}.*` histograms, the per-shard compute rows and the window
//! samples — is derived there from a committed flight record's stamps,
//! so each has exactly one definition and none exists with telemetry
//! off.
//!
//! [`cross_check`] is the validation pass `loadgen` and the e2e suite
//! share: server-side telemetry must agree with what the client
//! observed — total request counts match *exactly* (the server counts
//! every decoded request, the client counts every request it issued),
//! `latency.request_ns` holds exactly one sample per committed flight,
//! and the server-measured p95 must not exceed the client-measured p95
//! (every server-side sample excludes the network and client stack
//! that its client-side counterpart includes).

use crate::protocol::{WireHistogram, WireStats, WireTelemetry, WireTrace};
use mcdvfs_obs::{
    duration_edges_ns, FlightRecorder, Histogram, MetricSet, Outcome, RequestTrace, Stage,
    WindowClass, WindowRing,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Flight-recorder ring capacity (recent and slow rings each).
const FLIGHT_CAPACITY: usize = 512;

/// Flights slower than this land in the slow-request log.
const SLOW_THRESHOLD: Duration = Duration::from_millis(250);

/// How many 1-second telemetry windows the ring retains.
const WINDOW_SECONDS: usize = 64;

/// The stage intervals each committed flight contributes to the
/// `stage.{kind}.{name}_ns` histograms: `(name, from, to)`, recorded
/// when the flight stamped both ends. `compute` includes any configured
/// artificial compute delay, which stands in for compute cost.
const STAGE_SPANS: [(&str, Stage, Stage); 4] = [
    ("decode", Stage::FrameComplete, Stage::Decoded),
    ("queue", Stage::Enqueued, Stage::Dequeued),
    ("compute", Stage::Dequeued, Stage::Computed),
    ("encode", Stage::Computed, Stage::Encoded),
];

/// Reactor-owned telemetry state (plus the worker-shared recorder).
pub(crate) struct TelemetryCtx {
    /// Flight recorder; shard workers hold a clone for stamping.
    pub recorder: Arc<FlightRecorder>,
    /// Single-writer ring of 1-second windows.
    pub windows: RefCell<WindowRing>,
    /// Dequeued → computed time per tenant fingerprint, behind the
    /// `shard_compute` rows of a `telemetry` reply.
    pub shard_compute: RefCell<BTreeMap<u64, Histogram>>,
    /// Compute requests currently queued or running.
    pub in_flight: Cell<u64>,
    /// Server start instant, behind `uptime_ms`.
    pub started: Instant,
}

impl TelemetryCtx {
    /// Telemetry state with the flight recorder on or off.
    pub fn new(enabled: bool) -> Self {
        let recorder = if enabled {
            FlightRecorder::enabled(FLIGHT_CAPACITY, SLOW_THRESHOLD)
        } else {
            FlightRecorder::disabled()
        };
        Self {
            recorder: Arc::new(recorder),
            windows: RefCell::new(WindowRing::new(WINDOW_SECONDS)),
            shard_compute: RefCell::new(BTreeMap::new()),
            in_flight: Cell::new(0),
            started: Instant::now(),
        }
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Commits one finished flight and derives every per-request figure
    /// from its stamps: `latency.request_ns` (the flight's
    /// [`total_ns`](RequestTrace::total_ns), first byte in to last byte
    /// flushed — the number `trace_dump` and the slow log report), the
    /// [`STAGE_SPANS`] histograms, the shard's compute row, and one
    /// window sample. No-op when telemetry is disabled.
    pub fn commit(&self, trace: RequestTrace, metrics: &Mutex<MetricSet>) {
        if !self.recorder.is_enabled() {
            return;
        }
        let total_ns = trace.total_ns() as f64;
        let span_ns = |from: Stage, to: Stage| {
            Some(trace.stage_ns(to)?.saturating_sub(trace.stage_ns(from)?) as f64)
        };
        {
            let mut m = metrics.lock().expect("reactor metrics poisoned");
            m.observe_duration_ns("latency.request_ns", total_ns);
            for (name, from, to) in STAGE_SPANS {
                if let Some(ns) = span_ns(from, to) {
                    m.observe_duration_ns(&format!("stage.{}.{name}_ns", trace.kind), ns);
                }
            }
        }
        if let Some(ns) = span_ns(Stage::Dequeued, Stage::Computed) {
            self.shard_compute
                .borrow_mut()
                .entry(trace.fingerprint)
                .or_insert_with(|| Histogram::new(duration_edges_ns()))
                .add(ns);
        }
        self.windows.borrow_mut().observe(
            self.recorder.now_ns(),
            window_class(trace.outcome),
            total_ns,
        );
        self.recorder.commit(trace);
    }

    /// Raises the current window's queue-depth high-water mark.
    pub fn observe_queue_depth(&self, depth: u64) {
        if self.recorder.is_enabled() {
            self.windows
                .borrow_mut()
                .observe_queue_depth(self.recorder.now_ns(), depth);
        }
    }

    pub fn in_flight_add(&self, delta: i64) {
        let v = i64::try_from(self.in_flight.get()).unwrap_or(i64::MAX) + delta;
        self.in_flight
            .set(u64::try_from(v.max(0)).expect("non-negative"));
    }
}

/// Maps a request outcome onto its windowed-telemetry class.
fn window_class(outcome: Outcome) -> WindowClass {
    match outcome {
        Outcome::Ok | Outcome::CacheHit => WindowClass::Ok,
        Outcome::Error | Outcome::TimedOut => WindowClass::Error,
        Outcome::Shed => WindowClass::Shed,
    }
}

/// Summarizes one named histogram for the wire.
pub(crate) fn histogram_summary(name: &str, h: &Histogram) -> WireHistogram {
    WireHistogram {
        name: name.to_string(),
        count: h.total(),
        mean_ns: h.mean().unwrap_or(0.0),
        p50_ns: h.percentile(0.5).unwrap_or(0.0),
        p95_ns: h.percentile(0.95).unwrap_or(0.0),
        max_ns: h.max_value().unwrap_or(0.0),
    }
}

/// Renders a flight record for the wire.
pub(crate) fn wire_trace(t: &RequestTrace) -> WireTrace {
    WireTrace {
        id: t.id,
        kind: t.kind.to_string(),
        fingerprint: format!("{:016x}", t.fingerprint),
        outcome: t.outcome.name().to_string(),
        total_ns: t.total_ns(),
        stages: t
            .stages()
            .map(|(stage, t_ns)| crate::protocol::WireStage {
                stage: stage.name().to_string(),
                t_ns,
            })
            .collect(),
    }
}

/// The numbers a server/client telemetry cross-check compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossCheck {
    /// Requests the server decoded (its `stats.requests` counter).
    pub server_total: u64,
    /// Requests the client issued (and got answers for).
    pub client_total: u64,
    /// Server-measured request p95, nanoseconds.
    pub server_p95_ns: f64,
    /// Client-measured request p95, nanoseconds.
    pub client_p95_ns: f64,
}

/// Cross-checks server-side telemetry against client-observed counts:
/// totals must match exactly, `latency.request_ns` must hold exactly
/// one sample per committed flight, and the server-measured p95 (which
/// excludes the network and the client stack) must not exceed the
/// client-measured p95.
///
/// # Errors
///
/// Returns a human-readable description of the first disagreement —
/// count drift, missing server histogram, a latency sample count that
/// differs from the flight recorder's, or a server p95 above the client
/// p95.
pub fn cross_check(
    stats: &WireStats,
    telemetry: &WireTelemetry,
    client_total: u64,
    client_p95_ns: f64,
) -> Result<CrossCheck, String> {
    let server_total = stats.requests;
    if server_total != client_total {
        return Err(format!(
            "request-count drift: server decoded {server_total}, client issued {client_total}"
        ));
    }
    let latency = telemetry
        .histograms
        .iter()
        .find(|h| h.name == "latency.request_ns")
        .ok_or("server telemetry has no latency.request_ns histogram")?;
    if latency.count != telemetry.flight_recorded {
        return Err(format!(
            "latency.request_ns holds {} samples for {} committed flights",
            latency.count, telemetry.flight_recorded
        ));
    }
    let server_p95_ns = latency.p95_ns;
    if server_p95_ns > client_p95_ns {
        return Err(format!(
            "server p95 {server_p95_ns:.0} ns exceeds client p95 {client_p95_ns:.0} ns"
        ));
    }
    Ok(CrossCheck {
        server_total,
        client_total,
        server_p95_ns,
        client_p95_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdvfs_obs::{Outcome, Stage};
    use std::time::Duration;

    fn stats(requests: u64) -> WireStats {
        WireStats {
            requests,
            cache_hits: 0,
            cache_misses: 0,
            overloaded: 0,
            protocol_errors: 0,
            queue_depth_max: 0,
            engines: 1,
            evictions: 0,
            shards: Vec::new(),
            policy: crate::protocol::WirePolicyCounters::default(),
            store: crate::protocol::WireStoreCounters::default(),
            uptime_ms: 10,
            requests_in_flight: 0,
            rendered: String::new(),
        }
    }

    fn telemetry(p95: f64) -> WireTelemetry {
        WireTelemetry {
            enabled: true,
            uptime_ms: 10,
            windows: Vec::new(),
            histograms: vec![WireHistogram {
                name: "latency.request_ns".to_string(),
                count: 8,
                mean_ns: p95 / 2.0,
                p50_ns: p95 / 2.0,
                p95_ns: p95,
                max_ns: p95 * 2.0,
            }],
            shard_compute: Vec::new(),
            policy: crate::protocol::WirePolicyCounters::default(),
            store: crate::protocol::WireStoreCounters::default(),
            flight_recorded: 8,
            flight_dropped: 0,
            flight_slow: 0,
            slow_threshold_ns: 250_000_000,
        }
    }

    #[test]
    fn cross_check_accepts_exact_totals_and_lower_server_p95() {
        let check = cross_check(&stats(8), &telemetry(1_000.0), 8, 1_500.0).unwrap();
        assert_eq!(check.server_total, 8);
        assert_eq!(check.server_p95_ns, 1_000.0);
    }

    #[test]
    fn cross_check_rejects_count_drift_and_inverted_p95() {
        let err = cross_check(&stats(9), &telemetry(1_000.0), 8, 1_500.0).unwrap_err();
        assert!(err.contains("drift"), "{err}");
        let err = cross_check(&stats(8), &telemetry(2_000.0), 8, 1_500.0).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        let mut missing = telemetry(1_000.0);
        missing.histograms.clear();
        let err = cross_check(&stats(8), &missing, 8, 1_500.0).unwrap_err();
        assert!(err.contains("latency.request_ns"), "{err}");
        // One latency sample per committed flight: a histogram that saw
        // more (or fewer) requests than the recorder committed has a
        // second clock somewhere.
        let mut drifted = telemetry(1_000.0);
        drifted.flight_recorded = 7;
        let err = cross_check(&stats(8), &drifted, 8, 1_500.0).unwrap_err();
        assert!(err.contains("8 samples for 7 committed flights"), "{err}");
    }

    #[test]
    fn commit_derives_every_timing_from_the_stamps() {
        let metrics = Mutex::new(MetricSet::new());
        let ctx = TelemetryCtx::new(true);
        let mut t = ctx.recorder.begin("cluster");
        t.fingerprint = 0xfeed;
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            t.stamp(stage, 100 * (i as u64 + 1));
        }
        ctx.commit(t, &metrics);
        let m = metrics.lock().unwrap();
        let request = m.histogram("latency.request_ns").unwrap();
        assert_eq!((request.total(), request.max_value()), (1, Some(700.0)));
        for name in ["decode", "queue", "compute", "encode"] {
            let h = m.histogram(&format!("stage.cluster.{name}_ns")).unwrap();
            assert_eq!(h.max_value(), Some(100.0), "{name}");
        }
        assert_eq!(ctx.shard_compute.borrow()[&0xfeed].total(), 1);
        assert_eq!(ctx.recorder.counts().recorded, 1);
        assert_eq!(ctx.windows.borrow().snapshot()[0].requests, 1);

        // Off: the commit derives nothing and records nothing.
        let quiet = Mutex::new(MetricSet::new());
        let off = TelemetryCtx::new(false);
        off.commit(off.recorder.begin("cluster"), &quiet);
        assert!(quiet.lock().unwrap().is_empty());
        assert!(off.shard_compute.borrow().is_empty());
    }

    #[test]
    fn in_flight_gauge_saturates_at_zero() {
        let ctx = TelemetryCtx::new(false);
        ctx.in_flight_add(2);
        ctx.in_flight_add(-1);
        assert_eq!(ctx.in_flight.get(), 1);
        ctx.in_flight_add(-5);
        assert_eq!(ctx.in_flight.get(), 0);
    }

    #[test]
    fn wire_trace_renders_stages_in_pipeline_order() {
        let rec = FlightRecorder::enabled(4, Duration::from_secs(1));
        let mut t = rec.begin("cluster");
        t.fingerprint = 0xfeed;
        t.outcome = Outcome::CacheHit;
        t.stamp(Stage::Encoded, 40);
        t.stamp(Stage::Accepted, 10);
        let wire = wire_trace(&t);
        assert_eq!(wire.kind, "cluster");
        assert_eq!(wire.fingerprint, "000000000000feed");
        assert_eq!(wire.outcome, "cache_hit");
        assert_eq!(wire.total_ns, 30);
        assert_eq!(
            wire.stages
                .iter()
                .map(|s| s.stage.as_str())
                .collect::<Vec<_>>(),
            vec!["accepted", "encoded"]
        );
    }
}
