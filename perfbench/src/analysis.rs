//! The `analysis` workload: the figure-regeneration user.
//!
//! Each pass characterizes the six featured benchmarks on the fine grid
//! (the characterize phase, almost all `sim`), then answers on every grid
//! a dense budget × threshold sweep, the governed oracle replays, and the
//! 3 shipped policies × 3 scenarios scorecards (the query phase, almost
//! all `core`/`policy`). One request is one query call on one grid.
//! Every pass must reproduce the first pass's `f64::to_bits` digest.

use crate::direct::{self, cache_key};
use crate::spans::{SpanId, Spans};
use crate::stats::Samples;
use crate::{out_dir, peak_rss_mb, replay, seeded_trace, Args, EndToEnd, Report};
use mcdvfs_core::{
    GovernedRun, InefficiencyBudget, PolicyScorecard, RunReport, SweepEngine, SweepOutcome,
};
use mcdvfs_policy::{PolicyCounters, SHIPPED_POLICIES};
use mcdvfs_serve::{Request, Response, ShardedLru};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::{Fnv1a64, FrequencyGrid, SplitMix64};
use mcdvfs_workloads::{Benchmark, SampleTrace, Scenario};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Untimed passes after set-up, so the allocator and caches settle.
const WARMUP_PASSES: usize = 2;
/// Sweep budgets: 1.0 to 2.0 in steps of 0.05, plus unconstrained.
const BUDGET_STEPS: usize = 21;
/// Sweep thresholds: 1% to 9% in steps of 2%.
const THRESHOLDS: usize = 5;
/// Budget the policy scorecards run under.
const POLICY_BUDGET: f64 = 1.3;
/// Sweep points re-derived through the single-point entry points after
/// each pass.
const SPOT_CHECKS: usize = 2;
/// Worker threads for characterization and sweeps. One: on a 2-core
/// machine a two-thread phase waits on whichever core is interrupted, and
/// the p99 of the sweep calls spread 19% between runs instead of 8%.
const THREADS: usize = 1;

/// Everything one grid's query phase produced.
struct Answers {
    outcomes: Vec<SweepOutcome>,
    reports: Vec<RunReport>,
    /// `(policy, scenario, scorecard, counters)`.
    cards: Vec<(&'static str, &'static str, PolicyScorecard, PolicyCounters)>,
}

struct Pass {
    root: SpanId,
    whole_ns: u64,
    characterize_ns: u64,
    query_ns: u64,
    calls_ns: Vec<u64>,
    engines: Vec<SweepEngine>,
    answers: Vec<Answers>,
}

/// The passes of one kind (untraced or traced) in a measured window.
#[derive(Default)]
struct Window {
    e2e: EndToEnd,
    busy_ns: u64,
    /// `(root span, pass ns, characterize-phase ns)` per pass.
    passes: Vec<(SpanId, u64, u64)>,
}

impl Window {
    fn add(&mut self, p: &Pass) {
        self.busy_ns += p.whole_ns;
        self.e2e
            .characterize_ms
            .push(p.characterize_ns as f64 / 1e6);
        self.e2e.query_ms.push(p.query_ns as f64 / 1e6);
        for &ns in &p.calls_ns {
            self.e2e.latency_us.push(ns as f64 / 1e3);
        }
        self.e2e.attempted += p.calls_ns.len() as u64;
        self.e2e.throughput_rps = self.e2e.attempted as f64 / (self.busy_ns as f64 / 1e9);
        self.e2e.peak_rss_mb = peak_rss_mb();
        self.passes.push((p.root, p.whole_ns, p.characterize_ns));
    }
}

struct Analysis {
    system: System,
    traces: Vec<SampleTrace>,
    budgets: Vec<InefficiencyBudget>,
    thresholds: Vec<f64>,
    policy_budget: InefficiencyBudget,
    rng: SplitMix64,
    first_digest: Option<u64>,
    passes_run: u64,
    problems: Vec<String>,
}

impl Analysis {
    fn new(seed: u64) -> Self {
        let mut budgets: Vec<InefficiencyBudget> = (0..BUDGET_STEPS)
            .map(|i| InefficiencyBudget::bounded(1.0 + 0.05 * i as f64).expect("budget >= 1"))
            .collect();
        budgets.push(InefficiencyBudget::Unconstrained);
        Self {
            system: System::galaxy_nexus_class(),
            traces: traces_from(seed),
            budgets,
            thresholds: (0..THRESHOLDS)
                .map(|i| (1 + 2 * i) as f64 / 100.0)
                .collect(),
            policy_budget: InefficiencyBudget::bounded(POLICY_BUDGET).expect("budget >= 1"),
            rng: SplitMix64::new(seed ^ 0x5eed_c4ec),
            first_digest: None,
            passes_run: 0,
            problems: Vec::new(),
        }
    }

    fn characterize(&self, spans: &mut Spans, parent: SpanId, id: u64) -> Vec<SweepEngine> {
        self.traces
            .iter()
            .map(|t| {
                let (grid, _) = spans.timed("sim.characterize", parent, id, || {
                    CharacterizationGrid::characterize_parallel(
                        &self.system,
                        t,
                        FrequencyGrid::fine(),
                        THREADS,
                    )
                });
                SweepEngine::with_threads(Arc::new(grid), THREADS)
            })
            .collect()
    }

    fn pass(&self, spans: &mut Spans, id: u64) -> Pass {
        let root = spans.enter("analysis.pass", 0, id);
        let root_id = root.id();

        let phase = spans.enter("analysis.characterize", root_id, id);
        let engines = self.characterize(spans, phase.id(), id);
        let characterize_ns = spans.exit(phase);

        let phase = spans.enter("analysis.query", root_id, id);
        let parent = phase.id();
        let paper = GovernedRun::with_paper_overheads();
        let mut calls_ns = Vec::new();
        let mut answers = Vec::with_capacity(engines.len());
        for (engine, trace) in engines.iter().zip(&self.traces) {
            let (outcomes, ns) = spans.timed("core.sweep", parent, id, || {
                engine.sweep(&self.budgets, &self.thresholds)
            });
            calls_ns.push(ns);
            let (reports, ns) = spans.timed("core.governed_reports", parent, id, || {
                engine.governed_reports(&paper, trace, &self.budgets)
            });
            calls_ns.push(ns);
            let mut cards = Vec::new();
            for policy in SHIPPED_POLICIES {
                for scenario in Scenario::NAMES {
                    let t0 = Instant::now();
                    let (card, counters) = direct::policy_replay(
                        engine,
                        trace,
                        policy,
                        self.policy_budget,
                        scenario,
                        spans,
                        parent,
                        id,
                    );
                    calls_ns.push(t0.elapsed().as_nanos() as u64);
                    cards.push((policy, scenario, card, counters));
                }
            }
            answers.push(Answers {
                outcomes: outcomes.expect("sweep thresholds are in range"),
                reports,
                cards,
            });
        }
        let query_ns = spans.exit(phase);
        let whole_ns = spans.exit(root);
        Pass {
            root: root_id,
            whole_ns,
            characterize_ns,
            query_ns,
            calls_ns,
            engines,
            answers,
        }
    }

    /// Re-derives sampled sweep points through the single-point entry
    /// points, which must agree with the sweep bit for bit. Returns the
    /// number of mismatches.
    fn spot_check(&mut self, p: &Pass, spans: &mut Spans, id: u64) -> u64 {
        let mut bad = 0;
        for _ in 0..SPOT_CHECKS {
            let b = self.rng.range_usize(0, p.engines.len());
            let (engine, outcomes) = (&p.engines[b], &p.answers[b].outcomes);
            let o = &outcomes[self.rng.range_usize(0, outcomes.len())];
            let (budget, thr) = (o.point.budget, o.point.threshold);
            let (series, _) = spans.timed("core.optimal_series", 0, id, || {
                engine.optimal_series(budget)
            });
            let (clusters, _) = spans.timed("core.cluster_detail", 0, id, || {
                engine.cluster_detail(budget, thr)
            });
            let (regions, _) = spans.timed("core.stable_detail", 0, id, || {
                engine.stable_detail(budget, thr)
            });
            let same = series == *o.optimal
                && clusters.as_deref() == Ok(&o.clusters[..])
                && regions.as_deref() == Ok(&o.regions[..]);
            bad += u64::from(!same);
        }
        bad
    }

    /// Runs passes for `length`, checking each against the first pass.
    /// With `spans` on, passes alternate between untraced and traced, so
    /// both windows see the same machine conditions; returns the untraced
    /// and the traced window.
    fn measure(&mut self, length: Duration, spans: &mut Spans) -> (Window, Window) {
        let mut off = Spans::new(false, Instant::now());
        let (mut plain, mut traced) = (Window::default(), Window::default());
        let mut untraced_peak = None;
        let start = Instant::now();
        while start.elapsed() < length {
            self.passes_run += 1;
            let id = self.passes_run;
            let tracing = spans.is_on() && id.is_multiple_of(2);
            let rec = if tracing { &mut *spans } else { &mut off };
            let p = self.pass(rec, id);
            let bad = self.spot_check(&p, rec, id);
            let d = digest(&p.answers);
            if spans.is_on() && id == 1 {
                untraced_peak = Some(peak_rss_mb());
            }
            let window = if tracing { &mut traced } else { &mut plain };
            if *self.first_digest.get_or_insert(d) != d {
                window.e2e.failed += p.calls_ns.len() as u64;
                self.problems.push(format!(
                    "pass {id} digest {d:016x} differs from the first pass"
                ));
            }
            if bad > 0 {
                window.e2e.failed += bad;
                self.problems.push(format!(
                    "pass {id}: {bad} sweep points differ from single-point calls"
                ));
            }
            window.add(&p);
        }
        if let Some(first) = untraced_peak {
            // Peak RSS is process-wide: the untraced figure is the one from
            // before the first traced pass.
            plain.e2e.peak_rss_mb = first;
        }
        (plain, traced)
    }
}

fn traces_from(seed: u64) -> Vec<SampleTrace> {
    let mut rng = SplitMix64::new(seed);
    Benchmark::featured()
        .iter()
        .map(|&b| seeded_trace(b, &mut rng))
        .collect()
}

/// `f64::to_bits` digest of every output of a pass.
fn digest(answers: &[Answers]) -> u64 {
    fn report(h: &mut Fnv1a64, r: &RunReport) {
        h.write(r.governor.as_bytes());
        for s in &r.sample_settings {
            h.write_u64(u64::from(s.cpu.mhz()) << 32 | u64::from(s.mem.mhz()));
        }
        for v in [
            r.work_time.value(),
            r.tuning_time.value(),
            r.transition_time.value(),
            r.work_energy.value(),
            r.tuning_energy.value(),
            r.transition_energy.value(),
            r.total_emin.value(),
        ] {
            h.write_u64(v.to_bits());
        }
        for n in [
            r.transitions,
            r.cpu_transitions,
            r.mem_transitions,
            r.searches,
        ] {
            h.write_u64(n);
        }
    }
    let mut h = Fnv1a64::new();
    for a in answers {
        for o in &a.outcomes {
            h.write_u64(o.point.budget.bound().map_or(u64::MAX, f64::to_bits));
            h.write_u64(o.point.threshold.to_bits());
            for c in o.optimal.iter() {
                h.write_u64(c.index as u64);
                h.write_u64(c.time.value().to_bits());
                h.write_u64(c.energy.value().to_bits());
                h.write_u64(c.inefficiency.value().to_bits());
            }
            for c in &o.clusters {
                h.write_u64(c.optimal.index as u64);
                c.member_indices()
                    .iter()
                    .for_each(|&m| h.write_u64(m as u64));
            }
            for r in &o.regions {
                for v in [r.start, r.end, r.chosen_index] {
                    h.write_u64(v as u64);
                }
                r.available_indices()
                    .iter()
                    .for_each(|&m| h.write_u64(m as u64));
            }
        }
        a.reports.iter().for_each(|r| report(&mut h, r));
        for (_, _, card, counters) in &a.cards {
            for v in [
                card.energy_j,
                card.emin_j,
                card.energy_vs_emin,
                card.oracle_energy_j,
                card.energy_vs_oracle,
                card.time_s,
                card.oracle_time_s,
                card.time_vs_oracle,
                card.overhead_fraction,
            ] {
                h.write_u64(v.to_bits());
            }
            for n in [
                card.deadline_misses,
                card.transitions,
                counters.decisions,
                counters.budget_exhaustions,
            ] {
                h.write_u64(n);
            }
            report(&mut h, &card.report);
        }
    }
    h.finish()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut off = Spans::new(false, Instant::now());

    // Set-up: render the seeded traces and characterize them, until the
    // first query could be answered.
    let mut setup_s = Samples::default();
    let mut a = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let fresh = Analysis::new(args.seed);
        std::hint::black_box(fresh.characterize(&mut off, 0, 0));
        setup_s.push(t0.elapsed().as_secs_f64());
        a = Some(fresh);
    }
    let mut a = a.expect("at least one set-up");
    for i in 0..WARMUP_PASSES {
        std::hint::black_box(a.pass(&mut off, i as u64).answers.len());
    }

    let mut spans = Spans::new(args.trace, Instant::now());
    let (mut plain, mut t) = a.measure(Duration::from_secs_f64(args.seconds), &mut spans);
    plain.e2e.setup_s = setup_s.clone();
    let cells = a.traces.iter().map(SampleTrace::len).sum::<usize>() * FrequencyGrid::fine().len();
    let share = plain
        .passes
        .iter()
        .map(|&(_, whole, characterize)| characterize as f64 / whole as f64)
        .collect::<Samples>()
        .median();
    let mut notes = vec![
        format!(
            "workload analysis: {} grids, {cells} cells and {} sweep points per grid per pass, {} passes",
            a.traces.len(),
            a.budgets.len() * a.thresholds.len(),
            plain.passes.len()
        ),
        format!("property characterize_share = {share} (must lie in [0.25, 0.75])"),
    ];
    if !(0.25..=0.75).contains(&share) {
        a.problems.push(format!(
            "characterize share {share} drifted out of [0.25, 0.75]"
        ));
    }

    let mut layers = BTreeMap::new();
    let mut traced = None;
    if args.trace {
        t.e2e.setup_s = setup_s;
        layers = pass_layers(&t.passes, &spans, &mut a.problems, &mut notes);
        layers.insert("sim.cells", cells as f64);
        // A fresh untimed pass feeds the replays, so no window keeps a
        // pass's outputs alive and inflates its peak RSS.
        let last = a.pass(&mut off, 0);
        if let Err(e) = replays(&a, &last, &mut spans, &mut layers) {
            a.problems.push(e);
        }
        traced = Some(t.e2e);
    }
    Ok(Report {
        untraced: plain.e2e,
        traced,
        layers,
        problems: a.problems,
        notes,
        spans,
    })
}

/// Per-layer figures from the traced passes, and the sum-to-whole gate:
/// the layer self-times of a pass must add up to the pass within ±10%.
fn pass_layers(
    passes: &[(SpanId, u64, u64)],
    spans: &Spans,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut sums = Samples::default();
    let mut residual_us = Samples::default();
    let mut shares: BTreeMap<&str, Samples> = BTreeMap::new();
    for &(root, whole, _) in passes {
        let own = spans.layer_self_ns(root);
        let in_layers: u64 = ["sim", "core", "policy"]
            .iter()
            .filter_map(|l| own.get(l))
            .sum();
        sums.push(in_layers as f64 / whole as f64);
        residual_us.push((whole - in_layers) as f64 / 1e3);
        for (layer, ns) in own {
            shares
                .entry(layer)
                .or_default()
                .push(ns as f64 / whole as f64);
        }
    }
    for (layer, share) in &shares {
        notes.push(format!(
            "self-time share of a pass: {layer} = {}",
            share.median()
        ));
    }
    let sum = sums.median();
    notes.push(format!(
        "sum-to-whole: layer self-times / pass time = {sum} (gate: 1 ± 0.10)"
    ));
    if (sum - 1.0).abs() > 0.10 {
        problems.push(format!(
            "layer self-times cover {sum} of the pass, outside ±10%"
        ));
    }
    let mut layers = BTreeMap::from([
        ("layers.sum_to_whole", sum),
        ("serve.residual_us", residual_us.median()),
        (
            "sim.characterize_ms",
            spans.durations("sim.characterize", 1e6).median(),
        ),
        ("core.sweep_ms", spans.durations("core.sweep", 1e6).median()),
        // No server runs in this workload.
        ("serve.cache.hit_ratio", 0.0),
        ("serve.shard.queue_depth_max", 0.0),
        ("serve.shard.evictions", 0.0),
        ("serve.store.hits", 0.0),
    ]);
    for (metric, span) in [
        ("core.governed_reports_us", "core.governed_reports"),
        ("policy.score_us", "policy.score"),
        ("core.optimal_series_us", "core.optimal_series"),
        ("core.cluster_detail_us", "core.cluster_detail"),
        ("core.stable_detail_us", "core.stable_detail"),
    ] {
        layers.insert(metric, spans.durations(span, 1e3).median());
    }
    layers
}

/// Replays of the layers the analysis path bypasses, on one pass's grids
/// and answers: plan compilation, a store round trip, the
/// wire framing of the answers, and their reply-cache key stream.
fn replays(
    a: &Analysis,
    last: &Pass,
    spans: &mut Spans,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let grids: Vec<&CharacterizationGrid> =
        last.engines.iter().map(|e| e.data().as_ref()).collect();
    replay::plan_compile(&a.system, &grids, spans, 3);
    let dir = out_dir().join(format!("store-analysis-{}", std::process::id()));
    let stored = replay::store_roundtrip(&grids, &dir, spans, 3);
    let _ = std::fs::remove_dir_all(&dir);
    layers.insert("store.bytes_read", stored? as f64);

    let cache = ShardedLru::new(256, 8);
    let placeholder = Arc::new(String::new());
    let mut keys = Vec::new();
    let mut reply_bytes = Samples::default();
    for (engine, answers) in last.engines.iter().zip(&last.answers) {
        let data = engine.data();
        let mut requests = Vec::new();
        let mut replies = Vec::new();
        for (i, o) in answers.outcomes.iter().enumerate() {
            let (budget, threshold) = (o.point.budget, o.point.threshold);
            requests.push(Request::Cluster { budget, threshold });
            requests.push(Request::StableRegions { budget, threshold });
            // One threshold per budget is framed; every point is keyed.
            if i % a.thresholds.len() == 0 {
                replies.push(direct::cluster_reply(data, &o.clusters));
                replies.push(direct::stable_reply(data, &o.regions));
            }
        }
        for (budget, r) in a.budgets.iter().zip(&answers.reports) {
            requests.push(Request::GovernedReplay {
                governor: "paper".to_string(),
                budget: *budget,
            });
            replies.push(Response::GovernedReplay(direct::wire_report(r)));
        }
        for &(policy, scenario, ref card, counters) in &answers.cards {
            requests.push(Request::PolicyReplay {
                policy: policy.to_string(),
                budget: a.policy_budget,
                scenario: scenario.to_string(),
            });
            replies.push(direct::policy_reply(policy, card, counters));
        }
        for r in &requests {
            let payload = r.encode_for(Some(data.name()));
            let (decoded, _) = spans.timed("serve.protocol.decode", 0, 0, || {
                Request::decode_envelope(&payload)
            });
            if decoded.as_ref().map(|(d, _)| d) != Ok(r) {
                return Err(format!("{} request did not survive the wire", r.kind()));
            }
            keys.extend(cache_key(data.fingerprint(), r));
        }
        for r in &replies {
            let (text, _) = spans.timed("serve.protocol.encode", 0, 0, || r.encode());
            reply_bytes.push(text.len() as f64);
        }
    }
    for _ in 0..2 {
        for key in &keys {
            let (hit, _) = spans.timed("serve.cache.get", 0, 0, || cache.get(key));
            if hit.is_none() {
                spans.timed("serve.cache.insert", 0, 0, || {
                    cache.insert(*key, Arc::clone(&placeholder))
                });
            }
        }
    }
    for (metric, span, unit_ns) in [
        ("sim.plan_compile_us", "sim.plan_compile", 1e3),
        ("store.load_us", "store.load", 1e3),
        ("store.from_snapshot_us", "store.from_snapshot", 1e3),
        ("serve.protocol.decode_us", "serve.protocol.decode", 1e3),
        ("serve.protocol.encode_us", "serve.protocol.encode", 1e3),
        ("serve.cache.get_ns", "serve.cache.get", 1.0),
        ("serve.cache.insert_ns", "serve.cache.insert", 1.0),
    ] {
        layers.insert(metric, spans.durations(span, unit_ns).median());
    }
    layers.insert("serve.protocol.reply_bytes", reply_bytes.median());
    Ok(())
}
