//! The pipeline profiler: one handle bundling a span buffer and the
//! join-time metric aggregate.
//!
//! Instrumented code (the sweep engine, the characterization fan-out, the
//! figure harness) takes a `&Profiler` and
//!
//! * opens phase [`Span`]s through [`Profiler::span`] /
//!   [`Profiler::span_under`];
//! * hands each worker thread its own [`MetricSet`] and folds the
//!   per-worker sets back in through [`Profiler::absorb`] after the scoped
//!   joins.
//!
//! A disabled profiler ([`Profiler::noop`]) reduces every hook to a
//! branch: spans are inert, `absorb` drops its argument, nothing
//! allocates. The equivalence suite pins that enabling a profiler changes
//! no byte of any analysis output.

use crate::metrics::MetricSet;
use crate::trace::{Span, SpanId, SpanRecord, TraceBuffer};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Wall time and span count of one node of the phase tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Dotted path of span names from the root ("sweep/points/worker").
    pub path: String,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Total wall time across all spans at this path, nanoseconds.
    pub wall_ns: u64,
    /// Number of spans aggregated into this node.
    pub count: u64,
}

/// A shareable tracing + metrics handle with recorder-style gating.
#[derive(Debug)]
pub struct Profiler {
    on: bool,
    buffer: TraceBuffer,
    metrics: Mutex<MetricSet>,
}

impl Profiler {
    /// An enabled profiler: spans and metrics are collected.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            on: true,
            buffer: TraceBuffer::new(),
            metrics: Mutex::new(MetricSet::new()),
        }
    }

    /// A disabled profiler: every hook is a no-op behind one branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            on: false,
            buffer: TraceBuffer::new(),
            metrics: Mutex::new(MetricSet::new()),
        }
    }

    /// The process-wide disabled profiler — what un-instrumented entry
    /// points pass down so instrumented internals need no `Option`.
    #[must_use]
    pub fn noop() -> &'static Profiler {
        static NOOP: OnceLock<Profiler> = OnceLock::new();
        NOOP.get_or_init(Profiler::disabled)
    }

    /// Whether spans and metrics are being collected.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// The span buffer when enabled; `None` makes every span inert.
    fn buffer(&self) -> Option<&TraceBuffer> {
        self.on.then_some(&self.buffer)
    }

    /// Opens a root phase span.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::under(self.buffer(), 0, name)
    }

    /// Opens a span under an explicit parent id — the cross-thread link:
    /// workers receive the spawning phase's [`Span::id`] and attach their
    /// own spans to it.
    #[must_use]
    pub fn span_under(&self, parent: SpanId, name: &'static str) -> Span<'_> {
        Span::under(self.buffer(), parent, name)
    }

    /// Folds one worker's [`MetricSet`] into the aggregate. Called at
    /// join points only (once per worker), never inside worker loops, so
    /// the internal lock is uncontended by construction.
    pub fn absorb(&self, worker: MetricSet) {
        if self.on && !worker.is_empty() {
            self.metrics
                .lock()
                .expect("profiler metrics poisoned")
                .merge(&worker);
        }
    }

    /// Snapshot of the aggregated metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        self.metrics
            .lock()
            .expect("profiler metrics poisoned")
            .clone()
    }

    /// Snapshot of the completed spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.buffer.spans()
    }

    /// Aggregates completed spans into a phase tree: spans sharing the
    /// same name-path fold into one [`PhaseTotal`]. Nodes come out in
    /// depth-first order, children after their parent, first-seen order
    /// among siblings.
    #[must_use]
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        phase_totals_of(&self.spans())
    }

    /// Renders the phase tree flame-style (indentation = depth, bar =
    /// share of the longest root), followed by the aggregated metrics.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let totals = self.phase_totals();
        let mut out = String::new();
        let scale = totals
            .iter()
            .filter(|t| t.depth == 0)
            .map(|t| t.wall_ns)
            .max()
            .unwrap_or(0);
        for t in &totals {
            let name = t.path.rsplit('/').next().unwrap_or(&t.path);
            let label = format!("{:indent$}{name}", "", indent = t.depth * 2);
            let bar_len = if scale == 0 {
                0
            } else {
                ((t.wall_ns as f64 / scale as f64) * 30.0).round() as usize
            };
            let _ = writeln!(
                out,
                "  {label:<40} {:>12}  x{:<4} {}",
                fmt_ns(t.wall_ns),
                t.count,
                "#".repeat(bar_len),
            );
        }
        let metrics = self.metrics();
        if !metrics.is_empty() {
            out.push_str(&metrics.render());
        }
        out
    }
}

/// Phase aggregation over an explicit span list (exposed for tests and
/// for rendering traces that were shipped elsewhere).
#[must_use]
pub fn phase_totals_of(spans: &[SpanRecord]) -> Vec<PhaseTotal> {
    // Resolve each span's name-path by following parent links.
    let by_id: std::collections::HashMap<SpanId, &SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    let path_of = |span: &SpanRecord| -> (String, usize) {
        let mut names = vec![span.name];
        let mut cur = span.parent;
        while cur != 0 {
            match by_id.get(&cur) {
                Some(p) => {
                    names.push(p.name);
                    cur = p.parent;
                }
                // Parent never closed (still open when the snapshot was
                // taken) — treat the chain as rooted here.
                None => break,
            }
        }
        names.reverse();
        (names.join("/"), names.len() - 1)
    };

    // Fold in depth-first-friendly order: sort keys by path, but keep
    // first-seen order among siblings by indexing on (path, first index).
    let mut order: Vec<String> = Vec::new();
    let mut totals: std::collections::HashMap<String, PhaseTotal> =
        std::collections::HashMap::new();
    for span in spans {
        let (path, depth) = path_of(span);
        if let Some(t) = totals.get_mut(&path) {
            t.wall_ns += span.duration_ns();
            t.count += 1;
        } else {
            order.push(path.clone());
            totals.insert(
                path.clone(),
                PhaseTotal {
                    path,
                    depth,
                    wall_ns: span.duration_ns(),
                    count: 1,
                },
            );
        }
    }
    // Children complete before parents, so first-seen order is bottom-up;
    // a stable sort by path prefix yields parent-before-child while
    // preserving sibling order within a parent.
    let index: std::collections::HashMap<&str, usize> = order
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_str(), i))
        .collect();
    let mut out: Vec<PhaseTotal> = order
        .iter()
        .map(|p| totals.get(p).expect("just inserted").clone())
        .collect();
    out.sort_by(|a, b| {
        let key = |t: &PhaseTotal| -> Vec<usize> {
            // Sort by the first-seen index of each ancestor path segment.
            let mut prefix = String::new();
            let mut k = Vec::new();
            for seg in t.path.split('/') {
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(seg);
                k.push(index.get(prefix.as_str()).copied().unwrap_or(usize::MAX));
            }
            k
        };
        key(a).cmp(&key(b))
    });
    out
}

/// Render a nanosecond duration with a human-scale unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_profiler_collects_nothing() {
        let p = Profiler::noop();
        assert!(!p.is_enabled());
        {
            let root = p.span("phase");
            assert!(!root.is_live());
            let mut m = MetricSet::new();
            m.incr("jobs", 5);
            p.absorb(m);
        }
        assert!(p.spans().is_empty());
        assert!(p.metrics().is_empty());
        assert!(p.phase_totals().is_empty());
    }

    #[test]
    fn enabled_profiler_builds_a_phase_tree() {
        let p = Profiler::enabled();
        {
            let root = p.span("sweep");
            {
                let _a = root.child("optimal");
            }
            {
                let points = root.child("points");
                let id = points.id();
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {
                            let _w = p.span_under(id, "worker");
                            let mut m = MetricSet::new();
                            m.incr("points.jobs", 3);
                            p.absorb(m);
                        });
                    }
                });
            }
        }
        let totals = p.phase_totals();
        let paths: Vec<&str> = totals.iter().map(|t| t.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "sweep",
                "sweep/optimal",
                "sweep/points",
                "sweep/points/worker"
            ]
        );
        let worker = totals.last().unwrap();
        assert_eq!(worker.count, 2, "two worker spans fold into one node");
        assert_eq!(worker.depth, 2);
        assert_eq!(p.metrics().counter("points.jobs"), 6);
        let text = p.render_summary();
        assert!(text.contains("sweep"));
        assert!(text.contains("worker"));
        assert!(text.contains("points.jobs"));
    }

    #[test]
    fn phase_totals_handle_orphan_spans() {
        // A child whose parent never closed roots the chain at itself.
        let spans = vec![SpanRecord {
            id: 7,
            parent: 3,
            name: "lonely",
            thread: 1,
            start_ns: 0,
            end_ns: 10,
        }];
        let totals = phase_totals_of(&spans);
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].path, "lonely");
        assert_eq!(totals[0].depth, 0);
        assert_eq!(totals[0].wall_ns, 10);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert!(fmt_ns(1_500).contains("µs"));
        assert!(fmt_ns(1_500_000).contains("ms"));
        assert!(fmt_ns(1_500_000_000).contains(" s"));
    }
}
