//! The repository's benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analysis|serve_hit|serve_miss --seed N --seconds S --trace 0|1
//! ```
//!
//! The seed only generates inputs (traces and query mixes); the library
//! receives the generated inputs. With `--trace 0` the run measures for
//! `S` seconds and reports the end-to-end metrics. With `--trace 1` it
//! alternates untraced work with work traced by spans around every layer
//! call for `S` seconds, and reports the per-layer metrics plus the
//! tracing overhead: the share by which each end-to-end metric of the
//! traced half is worse than the untraced half's.
//! Every run checks its outputs and the traffic properties that make the
//! workload fit its purpose; a mismatch prints `"correct": false` and
//! exits with status 1. The last stdout line is the JSON result. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod analysis;
mod direct;
mod replay;
mod serve;
mod spans;
mod stats;

use mcdvfs_types::SplitMix64;
use mcdvfs_workloads::{Benchmark, SampleTrace};
use spans::Spans;
use stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Per-layer metrics every workload reports on a traced run, with units.
/// The tracing-overhead shares are appended after these.
pub const LAYER_METRICS: [(&str, &str); 23] = [
    ("sim.plan_compile_us", "us"),
    ("sim.characterize_ms", "ms"),
    ("sim.cells", "count"),
    ("store.load_us", "us"),
    ("store.from_snapshot_us", "us"),
    ("store.bytes_read", "bytes"),
    ("core.optimal_series_us", "us"),
    ("core.cluster_detail_us", "us"),
    ("core.stable_detail_us", "us"),
    ("core.sweep_ms", "ms"),
    ("core.governed_reports_us", "us"),
    ("policy.score_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.reply_bytes", "bytes"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.get_ns", "ns"),
    ("serve.cache.insert_ns", "ns"),
    ("serve.shard.queue_depth_max", "count"),
    ("serve.shard.evictions", "count"),
    ("serve.store.hits", "count"),
    ("serve.residual_us", "us"),
    ("layers.sum_to_whole", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?)
                }
                "--trace" => trace = Some(value == "1"),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds: f64 = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// End-to-end figures of one measured window, kept as raw samples.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Seconds per set-up (the workload sets up several times).
    pub setup_s: Samples,
    pub peak_rss_mb: f64,
    pub characterize_ms: Samples,
    pub query_ms: Samples,
    /// Per-request latency; a failed request is `+inf`.
    pub latency_us: Samples,
    /// The exact p99 of each measured window of a serving run. When
    /// present, `latency_p99_us` is their median, so a burst of host load
    /// moves a few windows rather than the run's tail.
    pub window_p99_us: Samples,
    pub throughput_rps: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    /// `(name, value, unit, sample count)` in `BENCHMARK.json` order.
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        let n = self.latency_us.len();
        let p99 = if self.window_p99_us.is_empty() {
            self.latency_us.quantile(0.99)
        } else {
            self.window_p99_us.median()
        };
        vec![
            ("setup_s", self.setup_s.median(), "s", self.setup_s.len()),
            ("peak_rss_mb", self.peak_rss_mb, "MB", 1),
            (
                "characterize_ms",
                self.characterize_ms.median(),
                "ms",
                self.characterize_ms.len(),
            ),
            (
                "query_ms",
                self.query_ms.median(),
                "ms",
                self.query_ms.len(),
            ),
            ("latency_p50_us", self.latency_us.median(), "us", n),
            ("latency_p99_us", p99, "us", n),
            ("throughput_rps", self.throughput_rps, "1/s", n),
        ]
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one workload run hands back to `main` for printing.
pub struct Report {
    pub untraced: EndToEnd,
    pub traced: Option<EndToEnd>,
    /// Per-layer values keyed by [`LAYER_METRICS`] name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Correctness mismatches and traffic-property drifts.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub spans: Spans,
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `benchmark`'s canonical trace rotated to start at a seeded sample.
///
/// Seeds then vary the inputs (phase order, policy feedback, serve
/// windows) while every seed characterizes the same multiset of samples:
/// re-rendering with a fresh jitter seed instead moved the `analysis`
/// query phase by up to 20% from one seed to the next.
pub fn seeded_trace(benchmark: Benchmark, rng: &mut SplitMix64) -> SampleTrace {
    let trace = benchmark.trace();
    let (head, tail) = trace.samples().split_at(rng.range_usize(0, trace.len()));
    SampleTrace::new(trace.name(), [tail, head].concat())
}

/// Scratch directory for this run's snapshot stores and span logs.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "analysis" => analysis::run(&args),
        "serve_hit" => serve::run(&args, serve::Mix::Hit),
        "serve_miss" => serve::run(&args, serve::Mix::Miss),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (analysis, serve_hit, serve_miss)");
            return ExitCode::from(2);
        }
    };
    let mut report = match report {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };

    for line in &report.notes {
        println!("{line}");
    }
    let e2e = &report.untraced;
    for (name, value, unit, n) in e2e.metrics() {
        println!("{name} = {value} {unit} (n={n})");
    }
    println!(
        "latency samples beyond the pooled p99 of {} us: {} (a p99 rests on at least 10)",
        e2e.latency_us.quantile(0.99),
        e2e.latency_us.beyond(0.99)
    );
    if !e2e.window_p99_us.is_empty() {
        println!(
            "latency_p99_us is the median p99 of {} windows (lowest {} us, highest {} us)",
            e2e.window_p99_us.len(),
            e2e.window_p99_us.quantile(0.0),
            e2e.window_p99_us.quantile(1.0)
        );
    }
    println!(
        "failed_share = {} ({} failed of {} attempted)",
        e2e.failed_share(),
        e2e.failed,
        e2e.attempted
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if let Some(traced) = &report.traced {
        for (name, unit) in LAYER_METRICS {
            match report.layers.get(name) {
                Some(&v) => metrics.push((name.to_string(), v, unit)),
                None => report
                    .problems
                    .push(format!("per-layer metric {name} missing")),
            }
        }
        // The share by which the traced window is worse than the untraced.
        for ((name, plain, ..), (_, with_spans, ..)) in
            e2e.metrics().into_iter().zip(traced.metrics())
        {
            let worse = if name == "throughput_rps" {
                plain / with_spans
            } else {
                with_spans / plain
            };
            metrics.push((format!("trace.overhead.{name}"), worse - 1.0, "share"));
        }
        for (name, value, unit) in &metrics {
            println!("{name} = {value} {unit}");
        }
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(out_dir()).and_then(|()| report.spans.write_jsonl(&path));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => report.problems.push(format!("writing spans: {e}")),
        }
    } else {
        for (name, value, unit, _) in e2e.metrics() {
            metrics.push((name.to_string(), value, unit));
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            report
                .problems
                .push(format!("{name} is not a finite number"));
        }
    }
    for problem in &report.problems {
        println!("FAILED: {problem}");
    }

    let correct = report.problems.is_empty();
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    let attempted = e2e.attempted + report.traced.as_ref().map_or(0, |t| t.attempted);
    let failed = e2e.failed + report.traced.as_ref().map_or(0, |t| t.failed);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        attempted.max(1),
        failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
