//! Run-ledger observability for governed runs.
//!
//! The figure harness and the integration tests need to see *inside* a
//! [`GovernedRun`](../mcdvfs_core/struct.GovernedRun.html): when did the
//! governor search, when did the hardware actually transition, where did
//! region boundaries fall, and do the charged overheads add up to what the
//! final report claims? This crate provides that visibility without
//! perturbing the run itself:
//!
//! * [`Event`] — a small `Copy` vocabulary of typed run events
//!   (sample executed, tuning search, frequency transition, region
//!   boundary, budget exceeded);
//! * [`Recorder`] — the sink trait instrumented code writes to.
//!   [`NullRecorder`] is the always-installed default: it reports itself
//!   disabled so instrumented hot paths skip event construction entirely,
//!   and it never allocates;
//! * [`RunLedger`] — a bounded ring-buffer recorder that keeps the newest
//!   events (with a dropped-event counter), plus aggregation queries:
//!   transition inter-arrival [`Histogram`]s, per-domain transition
//!   counts, search-cost breakdowns, region-length distributions, and an
//!   exact [`replay`](RunLedger::replay) of the run totals.
//!
//! The replay contract is the crate's cross-check invariant: events carry
//! the *exact* `f64` quantities the runner accumulated, in the same order,
//! so replaying a complete ledger reproduces the run report's totals
//! bit-for-bit — any disagreement means instrumentation drifted from the
//! accounting it observes. A ledger that dropped events refuses the exact
//! replay ([`Error::IncompleteLedger`](mcdvfs_types::Error)) instead of
//! silently under-counting.
//!
//! Beyond per-run events, the crate carries the *pipeline* observability
//! layer used by the analysis stack:
//!
//! * [`Span`] — hierarchical phase spans with enter/exit timestamps,
//!   parent links and thread ids, opened through a [`Profiler`] and
//!   gated exactly like [`Recorder`];
//! * [`MetricSet`] — single-owner counters, gauges and duration
//!   [`Histogram`]s that worker threads build privately and the spawning
//!   thread merges at join time (lock-free by ownership);
//! * [`Profiler`] — the bundle instrumented code takes by reference, with
//!   flame-style [phase summaries](Profiler::render_summary);
//! * [`FlightRecorder`]/[`RequestTrace`] — request-level flight records
//!   with per-stage timestamps, kept in a bounded ring plus a
//!   slow-request log, gated exactly like [`Recorder`];
//! * [`WindowRing`] — a single-writer ring of 1-second telemetry
//!   windows (throughput, shed/error counts, queue-depth max,
//!   latency percentiles).
//!
//! # Examples
//!
//! ```
//! use mcdvfs_obs::{Event, Recorder, RunLedger};
//! use mcdvfs_types::{FreqSetting, Joules, Seconds};
//!
//! let mut ledger = RunLedger::unbounded();
//! ledger.record(Event::SampleExecuted {
//!     sample: 0,
//!     setting: FreqSetting::from_mhz(500, 400),
//!     time: Seconds::from_millis(1.0),
//!     energy: Joules::from_millis(4.0),
//! });
//! let totals = ledger.replay().expect("complete ledger");
//! assert_eq!(totals.samples, 1);
//! assert_eq!(totals.work_time, Seconds::from_millis(1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod event;
mod flight;
mod ledger;
mod metrics;
mod profiler;
mod recorder;
mod trace;
mod window;

pub use aggregate::{DomainTransitionCounts, Histogram, ReplayTotals, SearchBreakdown};
pub use event::Event;
pub use flight::{FlightCounts, FlightRecorder, Outcome, RequestTrace, Stage};
pub use ledger::RunLedger;
pub use metrics::{count_edges, duration_edges_ns, MetricSet};
pub use profiler::{fmt_ns, phase_totals_of, PhaseTotal, Profiler};
pub use recorder::{NullRecorder, Recorder};
pub use trace::{thread_ordinal, Span, SpanId, SpanRecord};
pub use window::{Window, WindowClass, WindowRing};
