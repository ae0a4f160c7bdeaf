//! Benchmark-side spans around each call into a layer.
//!
//! A span records its name, start, end, parent span and request id. The
//! recorder keeps them in memory and the run writes them out when it
//! ends. Every entry point measures its interval either way — the
//! untraced run needs the same timings for its end-to-end figures — but
//! only a recorder that is on keeps the spans.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Handle of a recorded span; `0` means "no span" (a root's parent, or a
/// recorder that is off).
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Parent handle, `0` for a root span.
    pub parent: SpanId,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span times: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An entered span; [`Spans::exit`] closes it and returns its duration.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    start_ns: u64,
}

impl Open {
    /// Parent handle for spans opened inside this one.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// One thread's span log. Spans of one recorder never overlap except by
/// nesting, so a span's self time is its duration minus its children's.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty recorder with the same switch and clock, for another
    /// thread; [`Self::absorb`] merges it back.
    pub fn fork(&self) -> Self {
        Self::new(self.on, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, parent: SpanId, request: u64) -> Open {
        let start_ns = self.now_ns();
        if !self.on {
            return Open { id: 0, start_ns };
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Open {
            id: self.spans.len(),
            start_ns,
        }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        if open.id != 0 {
            self.spans[open.id - 1].end_ns = end_ns;
        }
        end_ns - open.start_ns
    }

    /// Runs `f` inside a leaf span; returns its result and duration in
    /// nanoseconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let open = self.enter(name, parent, request);
        let out = f();
        (out, self.exit(open))
    }

    /// Appends another recorder's spans, re-basing its parent handles.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations of every span called `name`, in units of `unit_ns`.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Samples {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / unit_ns)
            .collect()
    }

    /// Self time per layer of the spans at or under `root`: each span's
    /// duration minus the part its direct children cover.
    pub fn layer_self_ns(&self, root: SpanId) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                own[s.parent - 1] = own[s.parent - 1].saturating_sub(s.duration_ns());
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.descends_from(i + 1, root) {
                *out.entry(s.layer()).or_insert(0) += own[i];
            }
        }
        out
    }

    fn descends_from(&self, mut id: SpanId, root: SpanId) -> bool {
        while id != 0 {
            if id == root {
                return true;
            }
            id = self.spans[id - 1].parent;
        }
        false
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_layer() {
        let mut t = Spans::new(true, Instant::now());
        let root = t.enter("analysis.pass", 0, 1);
        let root_id = root.id();
        t.timed("sim.characterize", root_id, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let whole = t.exit(root);
        let layers = t.layer_self_ns(root_id);
        assert!(layers["sim"] >= 2_000_000);
        assert_eq!(layers["sim"] + layers["analysis"], whole);
    }

    #[test]
    fn off_keeps_nothing_but_still_measures() {
        let mut off = Spans::new(false, Instant::now());
        let ((), ns) = off.timed("x.y", 0, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ns >= 1_000_000);
        assert_eq!(off.durations("x.y", 1.0).len(), 0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(true, epoch);
        a.timed("a.one", 0, 0, || ());
        let mut b = Spans::new(true, epoch);
        let p = b.enter("b.root", 0, 0);
        let pid = p.id();
        b.timed("b.leaf", pid, 0, || ());
        b.exit(p);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 2);
    }
}
