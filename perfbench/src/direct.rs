//! Direct library calls, each timed as a span of its layer, and the wire
//! replies a serve shard would render from their results.
//!
//! The serving workloads check sampled replies against [`answer`]; the
//! analysis workload replays policies through [`policy_replay`] exactly as
//! serve's `policy_replay` query does.

use crate::spans::{SpanId, Spans};
use mcdvfs_core::{
    GovernedRun, InefficiencyBudget, OptimalChoice, PerformanceCluster, PolicyScorecard, RunReport,
    StableRegion, SweepEngine,
};
use mcdvfs_policy::{build_policy, PolicyCounters, PolicyGovernor};
use mcdvfs_serve::{
    CacheKey, Request, Response, WireChoice, WireCluster, WirePolicyReport, WireRegion, WireReport,
};
use mcdvfs_sim::CharacterizationGrid;
use mcdvfs_types::fnv1a64;
use mcdvfs_workloads::{SampleTrace, Scenario};

/// One policy replay under `scenario`: the ideal-oracle reference run,
/// the policy governor, and the scorecard, as serve's `policy_replay`
/// computes them.
///
/// # Panics
///
/// Panics on a policy or scenario name that is not shipped (the benchmark
/// only generates shipped ones).
#[allow(clippy::too_many_arguments)]
pub fn policy_replay(
    engine: &SweepEngine,
    trace: &SampleTrace,
    policy: &str,
    budget: InefficiencyBudget,
    scenario: &str,
    spans: &mut Spans,
    parent: SpanId,
    request: u64,
) -> (PolicyScorecard, PolicyCounters) {
    let data = engine.data();
    let scenario = Scenario::by_name(scenario).expect("benchmark scenarios are shipped");
    let (mut reference, _) = spans.timed("core.governed_reports", parent, request, || {
        engine.governed_reports(&GovernedRun::without_overheads(), trace, &[budget])
    });
    let reference = reference.pop().expect("one budget yields one report");
    let policy = build_policy(policy).expect("benchmark policies are shipped");
    let (mut governor, _) = spans.timed("policy.governor_new", parent, request, || {
        PolicyGovernor::new(policy, &scenario, data, budget)
    });
    let deadlines = governor.deadlines();
    let (card, _) = spans.timed("policy.score", parent, request, || {
        PolicyScorecard::score(
            &GovernedRun::with_paper_overheads(),
            data,
            trace,
            &mut governor,
            &deadlines,
            scenario.name(),
            &reference,
        )
    });
    (card, governor.counters())
}

/// The reply a serve shard sends for compute `request`, derived by direct
/// calls on `engine`. Non-compute requests answer `None`.
pub fn answer(
    engine: &SweepEngine,
    trace: &SampleTrace,
    request: &Request,
    spans: &mut Spans,
    parent: SpanId,
    id: u64,
) -> Option<Response> {
    let data = engine.data();
    Some(match request {
        Request::OptimalSetting { budget } => {
            let (series, _) = spans.timed("core.optimal_series", parent, id, || {
                engine.optimal_series(*budget)
            });
            optimal_reply(&series)
        }
        Request::Cluster { budget, threshold } => {
            let (clusters, _) = spans.timed("core.cluster_detail", parent, id, || {
                engine.cluster_detail(*budget, *threshold)
            });
            match clusters {
                Ok(clusters) => cluster_reply(data, &clusters),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::StableRegions { budget, threshold } => {
            let (regions, _) = spans.timed("core.stable_detail", parent, id, || {
                engine.stable_detail(*budget, *threshold)
            });
            match regions {
                Ok(regions) => stable_reply(data, &regions),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::GovernedReplay { governor, budget } => {
            let runner = match governor.as_str() {
                "ideal" => GovernedRun::without_overheads(),
                _ => GovernedRun::with_paper_overheads(),
            };
            let (mut reports, _) = spans.timed("core.governed_reports", parent, id, || {
                engine.governed_reports(&runner, trace, &[*budget])
            });
            Response::GovernedReplay(wire_report(&reports.pop().expect("one budget, one report")))
        }
        Request::PolicyReplay {
            policy,
            budget,
            scenario,
        } => {
            let (card, counters) =
                policy_replay(engine, trace, policy, *budget, scenario, spans, parent, id);
            policy_reply(policy, &card, counters)
        }
        _ => return None,
    })
}

/// The reply-cache identity serve gives compute `request` against the
/// characterization `fingerprint` (the server's own mapping is private).
pub fn cache_key(fingerprint: u64, request: &Request) -> Option<CacheKey> {
    let bits = |b: &InefficiencyBudget| b.bound().map_or(u64::MAX, f64::to_bits);
    let (kind, budget_bits, threshold_bits, governor_hash) = match request {
        Request::OptimalSetting { budget } => (0, bits(budget), 0, 0),
        Request::Cluster { budget, threshold } => (1, bits(budget), threshold.to_bits(), 0),
        Request::StableRegions { budget, threshold } => (2, bits(budget), threshold.to_bits(), 0),
        Request::GovernedReplay { governor, budget } => {
            (3, bits(budget), 0, fnv1a64(governor.as_bytes()))
        }
        Request::PolicyReplay {
            policy,
            budget,
            scenario,
        } => (
            4,
            bits(budget),
            fnv1a64(scenario.as_bytes()),
            fnv1a64(policy.as_bytes()),
        ),
        _ => return None,
    };
    Some(CacheKey {
        fingerprint,
        kind,
        budget_bits,
        threshold_bits,
        governor_hash,
    })
}

pub fn optimal_reply(series: &[OptimalChoice]) -> Response {
    Response::OptimalSetting(
        series
            .iter()
            .map(|c| WireChoice {
                sample: c.sample,
                index: c.index,
                cpu_mhz: c.setting.cpu.mhz(),
                mem_mhz: c.setting.mem.mhz(),
                time_s: c.time.value(),
                energy_j: c.energy.value(),
                inefficiency: c.inefficiency.value(),
            })
            .collect(),
    )
}

pub fn cluster_reply(data: &CharacterizationGrid, clusters: &[PerformanceCluster]) -> Response {
    Response::Cluster(
        clusters
            .iter()
            .map(|c| WireCluster {
                sample: c.sample,
                optimal_index: c.optimal.index,
                members: c.member_indices().to_vec(),
                cpu_mhz: c.cpu_range_mhz(data),
                mem_mhz: c.mem_range_mhz(data),
            })
            .collect(),
    )
}

pub fn stable_reply(data: &CharacterizationGrid, regions: &[StableRegion]) -> Response {
    Response::StableRegions(
        regions
            .iter()
            .map(|r| {
                let chosen = r.chosen_setting(data);
                WireRegion {
                    start: r.start,
                    end: r.end,
                    chosen_index: r.chosen_index,
                    cpu_mhz: chosen.cpu.mhz(),
                    mem_mhz: chosen.mem.mhz(),
                    available: r.available_indices().to_vec(),
                }
            })
            .collect(),
    )
}

pub fn policy_reply(policy: &str, card: &PolicyScorecard, counters: PolicyCounters) -> Response {
    Response::PolicyReplay(WirePolicyReport {
        policy: policy.to_string(),
        scenario: card.scenario.clone(),
        decisions: counters.decisions,
        deadline_misses: card.deadline_misses,
        budget_exhaustions: counters.budget_exhaustions,
        energy_vs_emin: card.energy_vs_emin,
        energy_vs_oracle: card.energy_vs_oracle,
        time_vs_oracle: card.time_vs_oracle,
        report: wire_report(&card.report),
    })
}

pub fn wire_report(r: &RunReport) -> WireReport {
    WireReport {
        governor: r.governor.clone(),
        work_time_s: r.work_time.value(),
        work_energy_j: r.work_energy.value(),
        tuning_time_s: r.tuning_time.value(),
        tuning_energy_j: r.tuning_energy.value(),
        transition_time_s: r.transition_time.value(),
        transition_energy_j: r.transition_energy.value(),
        transitions: r.transitions,
        cpu_transitions: r.cpu_transitions,
        mem_transitions: r.mem_transitions,
        searches: r.searches,
        total_emin_j: r.total_emin.value(),
    }
}
