//! Per-thread metric collectors that aggregate at join time.
//!
//! A [`MetricSet`] is a plain, single-owner bundle of named counters,
//! gauges and duration [`Histogram`]s. The concurrency story is
//! *ownership, not locking*: every worker thread builds its own set while
//! it runs — no atomics, no mutexes, no cache-line contention inside the
//! hot loop — and the spawning thread [`merge`](MetricSet::merge)s the
//! per-worker sets in worker order after the scoped joins. Aggregation is
//! therefore deterministic for a fixed thread count and free while the
//! workers execute.
//!
//! Keys are plain strings ("sweep.points.jobs",
//! "characterize.worker_busy_ns"); dotted prefixes group related metrics
//! under the phase that produced them.

use crate::aggregate::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Log-spaced histogram edges for durations in nanoseconds: half-decade
/// steps from 100 ns to 10 s. Wide enough for everything from a bitset
/// scan to a full fine-grid characterization.
#[must_use]
pub fn duration_edges_ns() -> Vec<f64> {
    let mut edges = Vec::with_capacity(17);
    let mut lo = 100.0f64;
    while lo < 1e10 {
        edges.push(lo);
        edges.push(lo * 10f64.sqrt());
        lo *= 10.0;
    }
    edges.push(1e10);
    edges
}

/// Log-spaced histogram edges for item counts: powers of two from 1 to
/// 2^30. Used for per-worker job/row counts, whose max-over-mean
/// [`imbalance`](MetricSet::imbalance) is the queue-balance signal.
#[must_use]
pub fn count_edges() -> Vec<f64> {
    (0..=30).map(|i| f64::from(1u32 << i)).collect()
}

/// A single-owner collection of named counters, gauges and histograms.
///
/// # Examples
///
/// ```
/// use mcdvfs_obs::MetricSet;
///
/// let mut worker_a = MetricSet::new();
/// worker_a.incr("points.jobs", 5);
/// let mut worker_b = MetricSet::new();
/// worker_b.incr("points.jobs", 4);
///
/// let mut total = MetricSet::new();
/// total.merge(&worker_a);
/// total.merge(&worker_b);
/// assert_eq!(total.counter("points.jobs"), 9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `by` to the named counter (created at zero). Allocation-free
    /// once the key exists — the common case inside worker loops.
    pub fn incr(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Raises the named gauge to `value` if it exceeds the current value
    /// (created at `value`). Used for high-water marks like per-phase peak
    /// worker busy time.
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        self.gauges
            .entry(name.to_string())
            .and_modify(|g| *g = g.max(value))
            .or_insert(value);
    }

    /// Observes `value` into the named histogram, creating it over
    /// `edges()` on first use. Allocation-free once the histogram exists,
    /// like [`incr`](Self::incr). Subsequent observations must target
    /// the same edges (merging enforces this too).
    pub fn observe(&mut self, name: &str, value: f64, edges: impl FnOnce() -> Vec<f64>) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.add(value);
        } else {
            let mut h = Histogram::new(edges());
            h.add(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Observes a duration in nanoseconds into the named histogram over
    /// the standard [`duration_edges_ns`] buckets.
    pub fn observe_duration_ns(&mut self, name: &str, ns: f64) {
        self.observe(name, ns, duration_edges_ns);
    }

    /// Current value of the named counter (`0` when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of the named gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if anything was observed into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Names of all counters, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// Names of all histograms, sorted.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Folds `other` into this set: counters add, gauges keep the
    /// maximum, histograms merge bucket-wise. The join-time aggregation
    /// step — call once per worker, in worker order, for deterministic
    /// results.
    ///
    /// # Panics
    ///
    /// Panics when the same histogram name was built over different edges
    /// in the two sets.
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            self.gauges
                .entry(name.clone())
                .and_modify(|g| *g = g.max(v))
                .or_insert(v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.entry(name.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(h),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
            }
        }
    }

    /// Ratio of the slowest worker to the mean worker for a per-worker
    /// histogram (e.g. `"points.worker_busy_ns"`): `1.0` is a perfectly
    /// balanced pool, `2.0` means the slowest worker took twice the mean.
    /// `None` when the histogram is absent or empty.
    #[must_use]
    pub fn imbalance(&self, histogram_name: &str) -> Option<f64> {
        let h = self.histograms.get(histogram_name)?;
        let max = h.max_value()?;
        let mean = h.mean()?;
        (mean > 0.0).then(|| max / mean)
    }

    /// Renders every metric as aligned text, one per line, sorted by
    /// name — the human-readable tail of a `--profile` report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  counter    {name:<44} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  gauge      {name:<44} {v:.1}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  histogram  {name:<44} n={} mean={:.0} p50={:.0} p95={:.0} max={:.0}",
                h.total(),
                h.mean().unwrap_or(0.0),
                h.percentile(0.5).unwrap_or(0.0),
                h.percentile(0.95).unwrap_or(0.0),
                h.max_value().unwrap_or(0.0),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricSet::new();
        assert_eq!(m.counter("absent"), 0);
        m.incr("jobs", 3);
        m.incr("jobs", 4);
        assert_eq!(m.counter("jobs"), 7);
        assert!(!m.is_empty());
    }

    #[test]
    fn gauges_keep_the_maximum() {
        let mut m = MetricSet::new();
        m.gauge_max("busy", 5.0);
        m.gauge_max("busy", 3.0);
        m.gauge_max("busy", 9.0);
        assert_eq!(m.gauge("busy"), Some(9.0));
        assert_eq!(m.gauge("absent"), None);
    }

    #[test]
    fn merge_adds_counters_maxes_gauges_and_merges_histograms() {
        let mut a = MetricSet::new();
        a.incr("jobs", 2);
        a.gauge_max("busy", 1.0);
        a.observe_duration_ns("dur", 500.0);
        let mut b = MetricSet::new();
        b.incr("jobs", 3);
        b.incr("extra", 1);
        b.gauge_max("busy", 4.0);
        b.observe_duration_ns("dur", 1500.0);
        a.merge(&b);
        assert_eq!(a.counter("jobs"), 5);
        assert_eq!(a.counter("extra"), 1);
        assert_eq!(a.gauge("busy"), Some(4.0));
        let h = a.histogram("dur").unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.min_value(), Some(500.0));
        assert_eq!(h.max_value(), Some(1500.0));
    }

    #[test]
    fn merge_with_disjoint_histogram_names_keeps_both() {
        let mut a = MetricSet::new();
        a.observe_duration_ns("reactor.tick_ns", 1_000.0);
        let mut b = MetricSet::new();
        b.observe_duration_ns("stage.compute_ns", 2_000.0);
        a.merge(&b);
        assert_eq!(
            a.histogram_names().collect::<Vec<_>>(),
            vec!["reactor.tick_ns", "stage.compute_ns"]
        );
        assert_eq!(a.histogram("reactor.tick_ns").unwrap().total(), 1);
        assert_eq!(a.histogram("stage.compute_ns").unwrap().total(), 1);
        // `b` is untouched: merge reads, never moves.
        assert_eq!(b.histogram("stage.compute_ns").unwrap().total(), 1);
        assert!(b.histogram("reactor.tick_ns").is_none());
    }

    #[test]
    fn merge_with_overlapping_histogram_names_folds_bucketwise() {
        let mut a = MetricSet::new();
        let mut b = MetricSet::new();
        for v in [200.0, 5_000.0] {
            a.observe_duration_ns("latency.request_ns", v);
        }
        for v in [800.0, 5_000.0, 2e9] {
            b.observe_duration_ns("latency.request_ns", v);
        }
        a.merge(&b);
        let h = a.histogram("latency.request_ns").unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!(h.min_value(), Some(200.0));
        assert_eq!(h.max_value(), Some(2e9));
        let sum: f64 = 200.0 + 5_000.0 + 800.0 + 5_000.0 + 2e9;
        assert!((h.mean().unwrap() - sum / 5.0).abs() < 1e-6);
        // Merging a disjoint-then-overlapping mix in one call works
        // too: counters and histograms are independent namespaces.
        let mut c = MetricSet::new();
        c.incr("latency.request_ns", 3); // counter, same name as the histogram
        a.merge(&c);
        assert_eq!(a.counter("latency.request_ns"), 3);
        assert_eq!(a.histogram("latency.request_ns").unwrap().total(), 5);
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn merge_with_overlapping_names_and_different_edges_panics() {
        let mut a = MetricSet::new();
        a.observe("n", 1.0, || vec![0.0, 1.0, 2.0]);
        let mut b = MetricSet::new();
        b.observe("n", 1.0, || vec![0.0, 10.0]);
        a.merge(&b);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let mut m = MetricSet::new();
        for busy in [100.0, 100.0, 100.0, 300.0] {
            m.observe_duration_ns("w.busy", busy);
        }
        let imb = m.imbalance("w.busy").unwrap();
        assert!((imb - 300.0 / 150.0).abs() < 1e-12);
        assert_eq!(m.imbalance("absent"), None);
    }

    #[test]
    fn duration_edges_ascend_and_span_ns_to_seconds() {
        let edges = duration_edges_ns();
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(edges[0], 100.0);
        assert!(*edges.last().unwrap() >= 1e10);
    }

    #[test]
    fn render_lists_every_metric() {
        let mut m = MetricSet::new();
        m.incr("a.jobs", 1);
        m.gauge_max("a.peak", 2.0);
        m.observe_duration_ns("a.dur", 100.0);
        let text = m.render();
        assert!(text.contains("a.jobs"));
        assert!(text.contains("a.peak"));
        assert!(text.contains("a.dur"));
        assert!(text.contains("p95"));
    }
}
