//! Hierarchical pipeline tracing: spans and the buffer that collects them.
//!
//! A [`Span`] is an RAII guard around one named interval of work — entering
//! creates it, dropping it records a [`SpanRecord`] (enter/exit timestamps,
//! parent link, thread id) into its [`Profiler`](crate::Profiler)'s buffer.
//! The gating contract is the same as [`Recorder`](crate::Recorder): a
//! disabled profiler hands out spans with no buffer, which skip the clock
//! and the id counter entirely, so untraced runs pay one branch per span
//! site and nothing else.
//!
//! Spans may be opened on any thread. Worker threads link to a parent on
//! another thread through the parent's [`SpanId`]
//! ([`Profiler::span_under`](crate::Profiler::span_under)), which is how
//! `fan_out`-style scoped pools attribute per-worker intervals to the
//! phase that spawned them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a span within one trace. Ids are 1-based; `0` denotes
/// "no parent" (a root span).
pub type SpanId = u64;

/// A small, dense ordinal for the current OS thread (1-based, assigned on
/// first use, process-wide). Used instead of [`std::thread::ThreadId`] so
/// trace output is compact and stable within a run.
#[must_use]
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// One completed span: a named interval on one thread with a parent link.
///
/// Timestamps are nanoseconds since the owning sink's epoch, so records
/// from different threads share one timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (1-based, unique within the sink).
    pub id: SpanId,
    /// Parent span id, `0` for roots.
    pub parent: SpanId,
    /// Static name of the phase ("sweep.points", "characterize.worker", …).
    pub name: &'static str,
    /// [`thread_ordinal`] of the thread the span closed on.
    pub thread: u64,
    /// Enter timestamp, nanoseconds since the sink epoch.
    pub start_ns: u64,
    /// Exit timestamp, nanoseconds since the sink epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall time spent inside the span.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory buffer behind an enabled [`Profiler`](crate::Profiler):
/// the span clock, the id counter and every completed span, shareable
/// across scoped worker threads.
///
/// Span *exits* lock a mutex, so this is meant for phase-granularity
/// spans (a handful per worker), not per-sample events — per-sample
/// quantities belong in a per-thread
/// [`MetricSet`](crate::MetricSet), which never locks.
#[derive(Debug)]
pub(crate) struct TraceBuffer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceBuffer {
    /// An empty buffer whose epoch is "now".
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the completed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("trace buffer poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// RAII guard for one named interval, opened through a
/// [`Profiler`](crate::Profiler); records itself on drop. Under a
/// disabled profiler the guard is inert.
///
/// # Examples
///
/// ```
/// use mcdvfs_obs::Profiler;
///
/// let profiler = Profiler::enabled();
/// {
///     let phase = profiler.span("sweep");
///     let _inner = phase.child("sweep.points");
/// } // both spans complete here, innermost first
/// let spans = profiler.spans();
/// assert_eq!(spans.len(), 2);
/// assert_eq!(spans[0].name, "sweep.points");
/// assert_eq!(spans[0].parent, spans[1].id);
/// ```
pub struct Span<'a> {
    /// `None` when the profiler is disabled: no clock, no id, no record.
    buffer: Option<&'a TraceBuffer>,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("id", &self.id)
            .field("parent", &self.parent)
            .field("name", &self.name)
            .field("live", &self.is_live())
            .finish_non_exhaustive()
    }
}

impl<'a> Span<'a> {
    /// Opens a span under an explicit parent id (`0` for a root) — the
    /// cross-thread link: workers receive the spawning phase's
    /// [`Span::id`] and attach their own spans to it.
    pub(crate) fn under(
        buffer: Option<&'a TraceBuffer>,
        parent: SpanId,
        name: &'static str,
    ) -> Self {
        let Some(b) = buffer else {
            return Self {
                buffer,
                id: 0,
                parent: 0,
                name,
                start_ns: 0,
            };
        };
        Self {
            buffer,
            id: b.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: b.now_ns(),
        }
    }

    /// Opens a child span in the same buffer (same thread borrow).
    #[must_use]
    pub fn child(&self, name: &'static str) -> Span<'a> {
        Span::under(self.buffer, self.id, name)
    }

    /// This span's id (`0` when the profiler is disabled), for
    /// cross-thread [`Profiler::span_under`](crate::Profiler::span_under)
    /// parenting.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// `true` when the span will record on drop.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.buffer.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(b) = self.buffer {
            let record = SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                thread: thread_ordinal(),
                start_ns: self.start_ns,
                end_ns: b.now_ns(),
            };
            b.spans.lock().expect("trace buffer poisoned").push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profiler;

    #[test]
    fn spans_record_parent_links_and_ordering() {
        let p = Profiler::enabled();
        {
            let root = p.span("outer");
            {
                let _a = root.child("inner_a");
            }
            {
                let _b = root.child("inner_b");
            }
        }
        let spans = p.spans();
        assert_eq!(spans.len(), 3);
        // Children complete before the root.
        assert_eq!(spans[0].name, "inner_a");
        assert_eq!(spans[1].name, "inner_b");
        assert_eq!(spans[2].name, "outer");
        assert_eq!(spans[0].parent, spans[2].id);
        assert_eq!(spans[1].parent, spans[2].id);
        assert_eq!(spans[2].parent, 0);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn cross_thread_spans_share_the_timeline() {
        let p = Profiler::enabled();
        let root = p.span("fan");
        let parent_id = root.id();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _w = p.span_under(parent_id, "fan.worker");
                });
            }
        });
        drop(root);
        let spans = p.spans();
        assert_eq!(spans.len(), 4);
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "fan.worker").collect();
        assert_eq!(workers.len(), 3);
        for w in workers {
            assert_eq!(w.parent, parent_id);
            assert!(w.thread >= 1);
        }
    }

    #[test]
    fn ids_are_unique_and_one_based() {
        let p = Profiler::enabled();
        let a = p.span("a");
        let b = p.span("b");
        assert!(a.id() >= 1);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn thread_ordinals_are_positive_and_stable() {
        let here = thread_ordinal();
        assert!(here >= 1);
        assert_eq!(here, thread_ordinal());
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, other);
    }
}
