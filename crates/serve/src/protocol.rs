//! The wire protocol: length-prefixed JSON-lines framing plus typed
//! request/reply bodies.
//!
//! # Framing
//!
//! Every message is one frame:
//!
//! ```text
//! <decimal byte length>\n
//! <compact JSON document of exactly that many bytes>\n
//! ```
//!
//! The length line bounds allocation before any payload byte is read
//! ([`MAX_FRAME_BYTES`]); the trailing newline keeps frames greppable on
//! the wire. Payloads are [`Json::render_compact`] documents, so every
//! `f64` crosses the wire in shortest-round-trip form and decodes to the
//! exact bits the server computed — replies are bit-identical to direct
//! [`SweepEngine`](mcdvfs_core::SweepEngine) calls.
//!
//! # Bodies
//!
//! Requests carry a `"query"` discriminator, replies a `"reply"`
//! discriminator. Budgets encode as a JSON number for
//! [`InefficiencyBudget::Bounded`] and the string `"inf"` for
//! [`InefficiencyBudget::Unconstrained`]; a `(lo, hi)` range encodes as a
//! `[lo, hi]` pair.
//!
//! Every `Wire*` struct is declared once, through `wire_structs!`, and its
//! field list is its wire layout: a field's name is its JSON key, and
//! declaration order is member order on the wire. Reordering or renaming
//! a field therefore changes the protocol. Replies whose body is a list,
//! a report or a message nest it under one key (`choices`, `clusters`,
//! `regions`, `report`, `records`, `message`); the `policy_replay`,
//! `stats`, `health` and `telemetry` replies lay their fields flat beside
//! the `"reply"` tag.

use mcdvfs_core::InefficiencyBudget;
use mcdvfs_types::Json;
use std::io::{self, BufRead, Write};

/// Upper bound on one frame's payload size, enforced before allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Writes one frame: decimal length line, payload, newline.
///
/// The frame is assembled into one buffer and issued as a single write:
/// three separate small writes would interleave with Nagle's algorithm
/// and the peer's delayed ACK into tens of milliseconds of stall per
/// frame on an otherwise idle connection.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds cap", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(payload.len() + 16);
    frame.extend_from_slice(payload.len().to_string().as_bytes());
    frame.push(b'\n');
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, blocking; `Ok(None)` on clean end-of-stream before
/// any frame byte.
///
/// # Errors
///
/// Propagates I/O errors; rejects malformed length lines, lengths over
/// [`MAX_FRAME_BYTES`], truncated payloads, and missing frame
/// terminators.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let len: usize = header
        .trim()
        .parse()
        .map_err(|_| bad_frame(format!("invalid frame length {header:?}")))?;
    if len > MAX_FRAME_BYTES {
        return Err(bad_frame(format!("frame of {len} bytes exceeds cap")));
    }
    let mut body = vec![0u8; len + 1];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => bad_frame("truncated frame".to_string()),
        _ => e,
    })?;
    if body.pop() != Some(b'\n') {
        return Err(bad_frame("frame missing terminator".to_string()));
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| bad_frame("frame is not UTF-8".to_string()))
}

fn bad_frame(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A query the server answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Per-sample optimal settings under an inefficiency budget.
    OptimalSetting {
        /// The inefficiency budget to optimize under.
        budget: InefficiencyBudget,
    },
    /// Per-sample performance-equivalent clusters.
    Cluster {
        /// The inefficiency budget anchoring each cluster's optimal.
        budget: InefficiencyBudget,
        /// Cluster slowdown threshold (e.g. `0.05` for 5%).
        threshold: f64,
    },
    /// Maximal runs of samples sharing a cluster member.
    StableRegions {
        /// The inefficiency budget anchoring the clusters.
        budget: InefficiencyBudget,
        /// Cluster slowdown threshold the regions are built from.
        threshold: f64,
    },
    /// Replay the trace under a governed run and report its overheads.
    GovernedReplay {
        /// Overhead model: `"ideal"` (no overheads) or `"paper"`.
        governor: String,
        /// The inefficiency budget the oracle plan optimizes under.
        budget: InefficiencyBudget,
    },
    /// Replay the trace under an online policy over a scenario's context
    /// stream and report its oracle-gap scorecard.
    PolicyReplay {
        /// Shipped policy name (`deadline`, `energy_budget`, `reactive`).
        policy: String,
        /// The inefficiency budget the energy envelope derives from.
        budget: InefficiencyBudget,
        /// Shipped scenario name whose context stream drives the policy.
        scenario: String,
    },
    /// Server metric snapshot.
    Stats,
    /// Liveness probe and characterization identity.
    Health,
    /// Windowed telemetry series plus histogram summaries.
    Telemetry,
    /// Recent flight records from the request-level flight recorder.
    TraceDump {
        /// Maximum records to return, newest last.
        limit: usize,
        /// Restrict to the slow-request log (flights over the server's
        /// slow threshold).
        slow_only: bool,
    },
}

impl Request {
    /// The wire discriminator, also used as the metric label.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Request::OptimalSetting { .. } => "optimal_setting",
            Request::Cluster { .. } => "cluster",
            Request::StableRegions { .. } => "stable_regions",
            Request::GovernedReplay { .. } => "governed_replay",
            Request::PolicyReplay { .. } => "policy_replay",
            Request::Stats => "stats",
            Request::Health => "health",
            Request::Telemetry => "telemetry",
            Request::TraceDump { .. } => "trace_dump",
        }
    }

    /// Encodes to the compact wire form, addressed to the server's
    /// default tenant.
    #[must_use]
    pub fn encode(&self) -> String {
        self.encode_for(None)
    }

    /// Encodes to the compact wire form, addressed to `workload`'s
    /// engine shard (`None` = the default tenant).
    #[must_use]
    pub fn encode_for(&self, workload: Option<&str>) -> String {
        let mut doc = self.to_json();
        if let (Some(name), Json::Obj(members)) = (workload, &mut doc) {
            members.push(("workload".to_string(), Json::Str(name.to_string())));
        }
        doc.render_compact()
    }

    fn to_json(&self) -> Json {
        // The query tag, at most three fields and a `workload` address.
        let mut members = Vec::with_capacity(5);
        members.push(("query".to_string(), Json::Str(self.kind().to_string())));
        let mut put =
            |key: &str, value: &dyn Field| members.push((key.to_string(), value.to_json()));
        match self {
            Request::OptimalSetting { budget } => put("budget", budget),
            Request::Cluster { budget, threshold }
            | Request::StableRegions { budget, threshold } => {
                put("budget", budget);
                put("threshold", threshold);
            }
            Request::GovernedReplay { governor, budget } => {
                put("governor", governor);
                put("budget", budget);
            }
            Request::PolicyReplay {
                policy,
                budget,
                scenario,
            } => {
                put("policy", policy);
                put("budget", budget);
                put("scenario", scenario);
            }
            Request::TraceDump { limit, slow_only } => {
                put("limit", limit);
                put("slow_only", slow_only);
            }
            Request::Stats | Request::Health | Request::Telemetry => {}
        }
        Json::Obj(members)
    }

    /// Decodes a request payload, ignoring any tenant address.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax or shape problem.
    pub fn decode(payload: &str) -> Result<Self, String> {
        let doc = Json::parse(payload)?;
        Self::from_doc(&doc)
    }

    /// Decodes a request payload together with its optional `workload`
    /// tenant address — the server-side entry point.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax or shape problem,
    /// including a non-string `workload` member.
    pub fn decode_envelope(payload: &str) -> Result<(Self, Option<String>), String> {
        let doc = Json::parse(payload)?;
        let workload = match doc.get("workload") {
            None => None,
            Some(value) => Some(
                value
                    .as_str()
                    .ok_or("request 'workload' must be a string")?
                    .to_string(),
            ),
        };
        Ok((Self::from_doc(&doc)?, workload))
    }

    fn from_doc(doc: &Json) -> Result<Self, String> {
        let query = doc
            .get("query")
            .and_then(Json::as_str)
            .ok_or("request missing string 'query'")?;
        Ok(match query {
            "optimal_setting" => Request::OptimalSetting {
                budget: member(doc, "budget")?,
            },
            "cluster" => Request::Cluster {
                budget: member(doc, "budget")?,
                threshold: member(doc, "threshold")?,
            },
            "stable_regions" => Request::StableRegions {
                budget: member(doc, "budget")?,
                threshold: member(doc, "threshold")?,
            },
            "governed_replay" => Request::GovernedReplay {
                governor: member(doc, "governor")?,
                budget: member(doc, "budget")?,
            },
            "policy_replay" => Request::PolicyReplay {
                policy: member(doc, "policy")?,
                budget: member(doc, "budget")?,
                scenario: member(doc, "scenario")?,
            },
            "stats" => Request::Stats,
            "health" => Request::Health,
            "telemetry" => Request::Telemetry,
            // Omitted (or non-numeric) knobs take their defaults.
            "trace_dump" => Request::TraceDump {
                limit: member(doc, "limit").unwrap_or(32),
                slow_only: member(doc, "slow_only")?,
            },
            other => return Err(format!("unknown query {other:?}")),
        })
    }
}

/// A value with one JSON wire form.
trait Field {
    /// The value's JSON form.
    fn to_json(&self) -> Json;

    /// Decodes the value from the member `key`, `None` when absent.
    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, String>
    where
        Self: Sized;
}

/// Decodes `doc`'s member `key`.
fn member<T: Field>(doc: &Json, key: &str) -> Result<T, String> {
    T::from_json(doc.get(key), key)
}

impl Field for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }

    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, String> {
        value
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number '{key}'"))
    }
}

macro_rules! integer_fields {
    ($($int:ty),*) => {$(
        impl Field for $int {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }

            fn from_json(value: Option<&Json>, key: &str) -> Result<Self, String> {
                f64::from_json(value, key).map(|n| n as $int)
            }
        }
    )*};
}

integer_fields!(u64, usize, u32);

impl Field for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, String> {
        value
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string '{key}'"))
    }
}

/// Absent or non-`true` members decode as `false`.
impl Field for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_json(value: Option<&Json>, _key: &str) -> Result<Self, String> {
        Ok(matches!(value, Some(Json::Bool(true))))
    }
}

impl Field for InefficiencyBudget {
    fn to_json(&self) -> Json {
        self.bound()
            .map_or_else(|| Json::Str("inf".to_string()), Json::Num)
    }

    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, String> {
        match value {
            Some(Json::Str(s)) if s == "inf" => Ok(InefficiencyBudget::Unconstrained),
            Some(Json::Num(n)) => InefficiencyBudget::bounded(*n).map_err(|e| e.to_string()),
            Some(other) => Err(format!("invalid budget {other:?}")),
            None => Err(format!("missing '{key}'")),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Field::to_json).collect())
    }

    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, String> {
        value
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array '{key}'"))?
            .iter()
            .map(|item| T::from_json(Some(item), key))
            .collect()
    }
}

impl Field for (u32, u32) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }

    fn from_json(value: Option<&Json>, key: &str) -> Result<Self, String> {
        match Vec::<u32>::from_json(value, key)?.as_slice() {
            [lo, hi] => Ok((*lo, *hi)),
            _ => Err(format!("'{key}' is not a [lo, hi] pair")),
        }
    }
}

/// Declares wire structs whose field lists are their wire layouts: each
/// struct gets `put` (append its members in declaration order, keyed by
/// field name), `take` (decode them from an object) and a [`Field`] impl
/// that nests them in an object of their own.
macro_rules! wire_structs {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl $name {
            const FIELDS: usize = [$(stringify!($field)),*].len();

            fn put(&self, members: &mut Vec<(String, Json)>) {
                members.reserve(Self::FIELDS);
                $(members.push((stringify!($field).to_string(), self.$field.to_json()));)*
            }

            fn take(doc: &Json) -> Result<Self, String> {
                Ok(Self {
                    $($field: member(doc, stringify!($field))?,)*
                })
            }
        }

        impl Field for $name {
            fn to_json(&self) -> Json {
                let mut members = Vec::new();
                self.put(&mut members);
                Json::Obj(members)
            }

            fn from_json(value: Option<&Json>, key: &str) -> Result<Self, String> {
                Self::take(value.ok_or_else(|| format!("missing '{key}'"))?)
            }
        }
    )*};
}

wire_structs! {
    /// One per-sample optimal choice on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireChoice {
        /// Sample index within the trace.
        pub sample: usize,
        /// Flat grid index of the chosen setting.
        pub index: usize,
        /// Chosen CPU frequency in MHz.
        pub cpu_mhz: u32,
        /// Chosen memory frequency in MHz.
        pub mem_mhz: u32,
        /// Sample execution time at the chosen setting, seconds.
        pub time_s: f64,
        /// Sample energy at the chosen setting, joules.
        pub energy_j: f64,
        /// Sample inefficiency at the chosen setting.
        pub inefficiency: f64,
    }

    /// One per-sample performance cluster on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireCluster {
        /// Sample index within the trace.
        pub sample: usize,
        /// Flat grid index of the anchoring optimal setting.
        pub optimal_index: usize,
        /// Member setting indices, ascending.
        pub members: Vec<usize>,
        /// Member CPU frequency range in MHz, `(lo, hi)`.
        pub cpu_mhz: (u32, u32),
        /// Member memory frequency range in MHz, `(lo, hi)`.
        pub mem_mhz: (u32, u32),
    }

    /// One stable region on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireRegion {
        /// First sample of the region (inclusive).
        pub start: usize,
        /// One past the last sample (exclusive).
        pub end: usize,
        /// Flat grid index of the representative setting.
        pub chosen_index: usize,
        /// Representative CPU frequency in MHz.
        pub cpu_mhz: u32,
        /// Representative memory frequency in MHz.
        pub mem_mhz: u32,
        /// All settings common to every sample in the region, ascending.
        pub available: Vec<usize>,
    }

    /// A governed-run report summary on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireReport {
        /// Governor name as the runner reported it.
        pub governor: String,
        /// Sum of per-sample execution times, seconds.
        pub work_time_s: f64,
        /// Sum of per-sample energies, joules.
        pub work_energy_j: f64,
        /// Total search latency charged, seconds.
        pub tuning_time_s: f64,
        /// Total search energy charged, joules.
        pub tuning_energy_j: f64,
        /// Total hardware transition latency charged, seconds.
        pub transition_time_s: f64,
        /// Total hardware transition energy charged, joules.
        pub transition_energy_j: f64,
        /// Joint frequency transitions performed.
        pub transitions: u64,
        /// CPU-domain changes.
        pub cpu_transitions: u64,
        /// Memory-domain changes.
        pub mem_transitions: u64,
        /// Tuning events that performed a search.
        pub searches: u64,
        /// Per-sample minimum-energy total, joules.
        pub total_emin_j: f64,
    }

    /// The oracle-gap scorecard a `PolicyReplay` query returns.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WirePolicyReport {
        /// Shipped policy name the replay ran.
        pub policy: String,
        /// Shipped scenario whose context stream drove the policy.
        pub scenario: String,
        /// Policy decisions the engine made (one per interval).
        pub decisions: u64,
        /// Intervals whose execution time exceeded their deadline.
        pub deadline_misses: u64,
        /// Intervals where no setting fit the remaining energy envelope.
        pub budget_exhaustions: u64,
        /// Total energy over the per-sample minimum (≥ 1).
        pub energy_vs_emin: f64,
        /// Total energy over the ideal oracle's at the same budget.
        pub energy_vs_oracle: f64,
        /// Overhead-adjusted runtime over the ideal oracle's.
        pub time_vs_oracle: f64,
        /// Full governed-run report of the policy replay.
        pub report: WireReport,
    }

    /// Policy-engine counters inside [`WireStats`] and [`WireTelemetry`]
    /// replies, aggregated over every shard's `policy_replay` computes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct WirePolicyCounters {
        /// Policy decisions made across all replays.
        pub decisions: u64,
        /// Hardware transitions those decisions caused.
        pub transitions: u64,
        /// Intervals that missed their deadline.
        pub deadline_misses: u64,
        /// Intervals where no setting fit the energy envelope.
        pub budget_exhaustions: u64,
    }

    /// Snapshot-store counters inside [`WireStats`] and [`WireTelemetry`]
    /// replies: how often lazy shard builds warm-started from a persisted
    /// characterization instead of recomputing it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct WireStoreCounters {
        /// Shard builds satisfied from a snapshot.
        pub hits: u64,
        /// Warm-start attempts that fell back to characterization (absent,
        /// corrupt, or mismatched snapshots all count here).
        pub misses: u64,
        /// Snapshot bytes read off disk for the hits.
        pub bytes_read: u64,
    }

    /// One live engine shard's metrics inside a [`WireStats`] reply.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireShard {
        /// Tenant (workload) name the shard serves.
        pub workload: String,
        /// Characterization fingerprint, 16 hex digits.
        pub fingerprint: String,
        /// Requests routed to this shard since it was built.
        pub requests: u64,
        /// Replies this shard served from its cache.
        pub cache_hits: u64,
        /// Replies this shard computed on a cache miss.
        pub cache_misses: u64,
        /// Jobs currently waiting in this shard's bounded queue.
        pub queue_depth: u64,
        /// `true` for the default tenant, which is never evicted.
        pub pinned: bool,
    }

    /// The server metric snapshot a `Stats` query returns.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireStats {
        /// Requests decoded since startup (all kinds).
        pub requests: u64,
        /// Responses served from the cache.
        pub cache_hits: u64,
        /// Responses computed on a cache miss.
        pub cache_misses: u64,
        /// Requests shed with an `Overloaded` reply.
        pub overloaded: u64,
        /// Undecodable or over-long frames received.
        pub protocol_errors: u64,
        /// Deepest queue occupancy observed across all shards.
        pub queue_depth_max: u64,
        /// Engine shards currently resident.
        pub engines: u64,
        /// Shards evicted (and left to lazily rebuild) since startup.
        pub evictions: u64,
        /// Per-shard metrics, sorted by workload name.
        pub shards: Vec<WireShard>,
        /// Aggregated policy-engine counters across all shards.
        pub policy: WirePolicyCounters,
        /// Snapshot-store warm-start counters.
        pub store: WireStoreCounters,
        /// Milliseconds since the server started.
        pub uptime_ms: u64,
        /// Compute requests currently queued or running (live gauge, not a
        /// lifetime counter).
        pub requests_in_flight: u64,
        /// Full human-readable metric rendering.
        pub rendered: String,
    }

    /// Summary of one named latency histogram inside a telemetry reply.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireHistogram {
        /// Metric name (or shard workload name for per-shard summaries).
        pub name: String,
        /// Observations recorded.
        pub count: u64,
        /// Exact mean in nanoseconds.
        pub mean_ns: f64,
        /// Estimated median in nanoseconds.
        pub p50_ns: f64,
        /// Estimated 95th percentile in nanoseconds.
        pub p95_ns: f64,
        /// Largest observation in nanoseconds.
        pub max_ns: f64,
    }

    /// One 1-second telemetry window on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireWindow {
        /// Whole seconds since the server's telemetry epoch.
        pub second: u64,
        /// Requests observed in the window.
        pub requests: u64,
        /// Successful replies.
        pub ok: u64,
        /// Error replies and deadline expiries.
        pub errors: u64,
        /// Backpressure rejections.
        pub shed: u64,
        /// Queue-depth high-water mark during the window.
        pub queue_depth_max: u64,
        /// Median reply latency in nanoseconds (`0` with no samples).
        pub p50_ns: f64,
        /// 95th-percentile reply latency in nanoseconds.
        pub p95_ns: f64,
        /// Slowest reply in nanoseconds.
        pub max_ns: f64,
    }

    /// The windowed-series + histogram-summary reply to a `Telemetry` query.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireTelemetry {
        /// Whether the flight recorder / window ring are collecting. When
        /// `false` the windows and flight counters are empty but histogram
        /// summaries (always-on request metrics) still render.
        pub enabled: bool,
        /// Milliseconds since the server started.
        pub uptime_ms: u64,
        /// Populated 1-second windows, oldest first.
        pub windows: Vec<WireWindow>,
        /// Summaries of every merged metric histogram, sorted by name.
        pub histograms: Vec<WireHistogram>,
        /// Per-shard compute-latency summaries (`name` is the workload).
        pub shard_compute: Vec<WireHistogram>,
        /// Aggregated policy-engine counters across all shards.
        pub policy: WirePolicyCounters,
        /// Snapshot-store warm-start counters.
        pub store: WireStoreCounters,
        /// Flight records committed since startup.
        pub flight_recorded: u64,
        /// Flight records evicted from the bounded ring.
        pub flight_dropped: u64,
        /// Flights slower than the slow threshold.
        pub flight_slow: u64,
        /// The slow-log threshold in nanoseconds.
        pub slow_threshold_ns: u64,
    }

    /// One stamped stage inside a [`WireTrace`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireStage {
        /// Stage name (`accepted`, `frame_complete`, ... `write_flushed`).
        pub stage: String,
        /// Nanoseconds since the server's telemetry epoch.
        pub t_ns: u64,
    }

    /// One request flight record on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireTrace {
        /// Recorder-unique id.
        pub id: u64,
        /// Request kind label.
        pub kind: String,
        /// Owning tenant's fingerprint, 16 hex digits (all zeros for
        /// global requests).
        pub fingerprint: String,
        /// Flight outcome (`ok`, `cache_hit`, `error`, `shed`,
        /// `timed_out`).
        pub outcome: String,
        /// End-to-end nanoseconds (last stamp minus first).
        pub total_ns: u64,
        /// Stamped stages in pipeline order.
        pub stages: Vec<WireStage>,
    }

    /// The liveness/identity reply to a `Health` query.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireHealth {
        /// Always `"ok"` from a live server.
        pub status: String,
        /// Workload name of the served characterization.
        pub workload: String,
        /// Sample count of the served characterization.
        pub samples: usize,
        /// Setting count of the served characterization.
        pub settings: usize,
        /// Characterization fingerprint, 16 hex digits.
        pub fingerprint: String,
        /// Worker threads answering compute queries.
        pub workers: usize,
    }
}

/// A reply the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::OptimalSetting`].
    OptimalSetting(Vec<WireChoice>),
    /// Answer to [`Request::Cluster`].
    Cluster(Vec<WireCluster>),
    /// Answer to [`Request::StableRegions`].
    StableRegions(Vec<WireRegion>),
    /// Answer to [`Request::GovernedReplay`].
    GovernedReplay(WireReport),
    /// Answer to [`Request::PolicyReplay`].
    PolicyReplay(WirePolicyReport),
    /// Answer to [`Request::Stats`].
    Stats(WireStats),
    /// Answer to [`Request::Health`].
    Health(WireHealth),
    /// Answer to [`Request::Telemetry`].
    Telemetry(WireTelemetry),
    /// Answer to [`Request::TraceDump`].
    TraceDump(Vec<WireTrace>),
    /// The bounded queue was full; the request was shed, not queued.
    Overloaded,
    /// The request could not be decoded or computed.
    Error(String),
}

impl Response {
    /// The wire discriminator.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Response::OptimalSetting(_) => "optimal_setting",
            Response::Cluster(_) => "cluster",
            Response::StableRegions(_) => "stable_regions",
            Response::GovernedReplay(_) => "governed_replay",
            Response::PolicyReplay(_) => "policy_replay",
            Response::Stats(_) => "stats",
            Response::Health(_) => "health",
            Response::Telemetry(_) => "telemetry",
            Response::TraceDump(_) => "trace_dump",
            Response::Overloaded => "overloaded",
            Response::Error(_) => "error",
        }
    }

    /// Encodes to the compact wire form.
    #[must_use]
    pub fn encode(&self) -> String {
        self.to_json().render_compact()
    }

    fn to_json(&self) -> Json {
        let mut members = Vec::with_capacity(2);
        members.push(("reply".to_string(), Json::Str(self.kind().to_string())));
        // Lists, reports and messages nest under one key; the other
        // bodies lay their fields flat beside the tag.
        let mut nest =
            |key: &str, body: &dyn Field| members.push((key.to_string(), body.to_json()));
        match self {
            Response::OptimalSetting(choices) => nest("choices", choices),
            Response::Cluster(clusters) => nest("clusters", clusters),
            Response::StableRegions(regions) => nest("regions", regions),
            Response::GovernedReplay(report) => nest("report", report),
            Response::TraceDump(records) => nest("records", records),
            Response::Error(message) => nest("message", message),
            Response::PolicyReplay(policy) => policy.put(&mut members),
            Response::Stats(stats) => stats.put(&mut members),
            Response::Health(health) => health.put(&mut members),
            Response::Telemetry(telemetry) => telemetry.put(&mut members),
            Response::Overloaded => {}
        }
        Json::Obj(members)
    }

    /// Decodes a reply payload.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax or shape problem.
    pub fn decode(payload: &str) -> Result<Self, String> {
        let doc = Json::parse(payload)?;
        let reply = doc
            .get("reply")
            .and_then(Json::as_str)
            .ok_or("reply missing string 'reply'")?;
        Ok(match reply {
            "optimal_setting" => Response::OptimalSetting(member(&doc, "choices")?),
            "cluster" => Response::Cluster(member(&doc, "clusters")?),
            "stable_regions" => Response::StableRegions(member(&doc, "regions")?),
            "governed_replay" => Response::GovernedReplay(member(&doc, "report")?),
            "trace_dump" => Response::TraceDump(member(&doc, "records")?),
            "error" => Response::Error(member(&doc, "message")?),
            "policy_replay" => Response::PolicyReplay(WirePolicyReport::take(&doc)?),
            "stats" => Response::Stats(WireStats::take(&doc)?),
            "health" => Response::Health(WireHealth::take(&doc)?),
            "telemetry" => Response::Telemetry(WireTelemetry::take(&doc)?),
            "overloaded" => Response::Overloaded,
            other => return Err(format!("unknown reply {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdvfs_types::SplitMix64;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, r#"{"query":"health"}"#).unwrap();
        write_frame(&mut wire, "").unwrap();
        let mut r = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"query":"health"}"#)
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn frames_reject_abuse() {
        for bad in ["x\n", "-3\nabc\n", "1048577\n", "5\nab\n"] {
            let mut r = BufReader::new(bad.as_bytes());
            assert!(read_frame(&mut r).is_err(), "{bad:?} should fail");
        }
        // Length honest but terminator missing.
        let mut r = BufReader::new(b"2\nabX".as_slice());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::OptimalSetting {
                budget: InefficiencyBudget::bounded(1.3).unwrap(),
            },
            Request::Cluster {
                budget: InefficiencyBudget::Unconstrained,
                threshold: 0.05,
            },
            Request::StableRegions {
                budget: InefficiencyBudget::bounded(1.1).unwrap(),
                threshold: 0.01,
            },
            Request::GovernedReplay {
                governor: "paper".to_string(),
                budget: InefficiencyBudget::bounded(1.6).unwrap(),
            },
            Request::PolicyReplay {
                policy: "reactive".to_string(),
                budget: InefficiencyBudget::bounded(1.3).unwrap(),
                scenario: "load_burst".to_string(),
            },
            Request::Stats,
            Request::Health,
            Request::Telemetry,
            Request::TraceDump {
                limit: 16,
                slow_only: true,
            },
        ];
        for req in reqs {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
        // Omitted trace_dump knobs take defaults instead of erroring.
        assert_eq!(
            Request::decode(r#"{"query":"trace_dump"}"#).unwrap(),
            Request::TraceDump {
                limit: 32,
                slow_only: false,
            }
        );
    }

    #[test]
    fn responses_round_trip_bit_for_bit() {
        let resp = Response::OptimalSetting(vec![WireChoice {
            sample: 3,
            index: 41,
            cpu_mhz: 900,
            mem_mhz: 400,
            time_s: 1.0 / 3.0,
            energy_j: 0.1 + 0.2,
            inefficiency: 1.05,
        }]);
        let decoded = Response::decode(&resp.encode()).unwrap();
        let Response::OptimalSetting(choices) = &decoded else {
            panic!("wrong reply kind");
        };
        assert_eq!(choices[0].time_s.to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(choices[0].energy_j.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(decoded, resp);

        let others = [
            Response::Cluster(vec![WireCluster {
                sample: 0,
                optimal_index: 5,
                members: vec![3, 5, 9],
                cpu_mhz: (700, 1000),
                mem_mhz: (200, 800),
            }]),
            Response::StableRegions(vec![WireRegion {
                start: 0,
                end: 7,
                chosen_index: 12,
                cpu_mhz: 1000,
                mem_mhz: 600,
                available: vec![2, 12],
            }]),
            Response::GovernedReplay(WireReport {
                governor: "oracle-optimal(1.3)".to_string(),
                work_time_s: 2.5,
                work_energy_j: 1.25,
                tuning_time_s: 0.001,
                tuning_energy_j: 0.0005,
                transition_time_s: 0.002,
                transition_energy_j: 0.0001,
                transitions: 17,
                cpu_transitions: 11,
                mem_transitions: 9,
                searches: 30,
                total_emin_j: 1.1,
            }),
            Response::PolicyReplay(WirePolicyReport {
                policy: "reactive".to_string(),
                scenario: "load_burst".to_string(),
                decisions: 48,
                deadline_misses: 3,
                budget_exhaustions: 0,
                energy_vs_emin: 1.0 / 3.0 + 1.0,
                energy_vs_oracle: 0.1 + 0.2,
                time_vs_oracle: 1.25,
                report: WireReport {
                    governor: "policy-reactive@load_burst".to_string(),
                    work_time_s: 2.5,
                    work_energy_j: 1.25,
                    tuning_time_s: 0.001,
                    tuning_energy_j: 0.0005,
                    transition_time_s: 0.002,
                    transition_energy_j: 0.0001,
                    transitions: 15,
                    cpu_transitions: 15,
                    mem_transitions: 14,
                    searches: 16,
                    total_emin_j: 1.1,
                },
            }),
            Response::Stats(WireStats {
                requests: 100,
                cache_hits: 40,
                cache_misses: 60,
                overloaded: 2,
                protocol_errors: 1,
                queue_depth_max: 7,
                engines: 2,
                evictions: 3,
                shards: vec![
                    WireShard {
                        workload: "bzip2".to_string(),
                        fingerprint: "00000000deadbeef".to_string(),
                        requests: 31,
                        cache_hits: 11,
                        cache_misses: 20,
                        queue_depth: 1,
                        pinned: false,
                    },
                    WireShard {
                        workload: "gobmk".to_string(),
                        fingerprint: "0123456789abcdef".to_string(),
                        requests: 69,
                        cache_hits: 29,
                        cache_misses: 40,
                        queue_depth: 0,
                        pinned: true,
                    },
                ],
                policy: WirePolicyCounters {
                    decisions: 96,
                    transitions: 19,
                    deadline_misses: 4,
                    budget_exhaustions: 1,
                },
                store: WireStoreCounters {
                    hits: 1,
                    misses: 2,
                    bytes_read: 35_712,
                },
                uptime_ms: 120_500,
                requests_in_flight: 3,
                rendered: "counter requests.total 100\n".to_string(),
            }),
            Response::Health(WireHealth {
                status: "ok".to_string(),
                workload: "gobmk".to_string(),
                samples: 30,
                settings: 70,
                fingerprint: "0123456789abcdef".to_string(),
                workers: 4,
            }),
            Response::Telemetry(WireTelemetry {
                enabled: true,
                uptime_ms: 4_250,
                windows: vec![WireWindow {
                    second: 3,
                    requests: 120,
                    ok: 117,
                    errors: 1,
                    shed: 2,
                    queue_depth_max: 9,
                    p50_ns: 420_000.0,
                    p95_ns: 1.0 / 3.0 * 1e7,
                    max_ns: 9_900_000.0,
                }],
                histograms: vec![WireHistogram {
                    name: "latency.request_ns".to_string(),
                    count: 120,
                    mean_ns: 0.1 + 0.2,
                    p50_ns: 420_000.0,
                    p95_ns: 3_300_000.0,
                    max_ns: 9_900_000.0,
                }],
                shard_compute: vec![WireHistogram {
                    name: "gobmk".to_string(),
                    count: 40,
                    mean_ns: 250_000.0,
                    p50_ns: 200_000.0,
                    p95_ns: 800_000.0,
                    max_ns: 900_000.0,
                }],
                policy: WirePolicyCounters::default(),
                store: WireStoreCounters::default(),
                flight_recorded: 120,
                flight_dropped: 8,
                flight_slow: 2,
                slow_threshold_ns: 250_000_000,
            }),
            Response::TraceDump(vec![WireTrace {
                id: 17,
                kind: "optimal_setting".to_string(),
                fingerprint: "0123456789abcdef".to_string(),
                outcome: "ok".to_string(),
                total_ns: 930,
                stages: vec![
                    WireStage {
                        stage: "accepted".to_string(),
                        t_ns: 100,
                    },
                    WireStage {
                        stage: "write_flushed".to_string(),
                        t_ns: 1030,
                    },
                ],
            }]),
            Response::Overloaded,
            Response::Error("bad request".to_string()),
        ];
        for resp in others {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn workload_envelopes_round_trip_and_default_to_none() {
        let request = Request::Cluster {
            budget: InefficiencyBudget::bounded(1.2).unwrap(),
            threshold: 0.03,
        };
        // Addressed form carries the tenant; bare form does not.
        let addressed = request.encode_for(Some("bzip2"));
        assert!(addressed.contains(r#""workload":"bzip2""#));
        let (decoded, workload) = Request::decode_envelope(&addressed).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(workload.as_deref(), Some("bzip2"));

        let bare = request.encode();
        assert!(!bare.contains("workload"));
        let (decoded, workload) = Request::decode_envelope(&bare).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(workload, None);

        // Request::decode tolerates (and ignores) the address.
        assert_eq!(Request::decode(&addressed).unwrap(), request);

        // A non-string workload is a typed decode error, not a panic.
        assert!(Request::decode_envelope(r#"{"query":"health","workload":7}"#).is_err());
    }

    #[test]
    fn budgets_encode_bounded_and_unconstrained() {
        let bounded = Request::OptimalSetting {
            budget: InefficiencyBudget::bounded(1.3).unwrap(),
        };
        assert_eq!(
            bounded.encode(),
            r#"{"query":"optimal_setting","budget":1.3}"#
        );
        let unconstrained = Request::OptimalSetting {
            budget: InefficiencyBudget::Unconstrained,
        };
        assert_eq!(
            unconstrained.encode(),
            r#"{"query":"optimal_setting","budget":"inf"}"#
        );
    }

    /// One fully populated value of every request variant, paired with its
    /// exact `encode()` and `encode_for(Some("bzip2"))` bytes.
    fn golden_requests() -> Vec<(Request, &'static str, &'static str)> {
        vec![
            (
                Request::OptimalSetting {
                    budget: InefficiencyBudget::bounded(1.3).unwrap(),
                },
                r#"{"query":"optimal_setting","budget":1.3}"#,
                r#"{"query":"optimal_setting","budget":1.3,"workload":"bzip2"}"#,
            ),
            (
                Request::Cluster {
                    budget: InefficiencyBudget::Unconstrained,
                    threshold: 0.05,
                },
                r#"{"query":"cluster","budget":"inf","threshold":0.05}"#,
                r#"{"query":"cluster","budget":"inf","threshold":0.05,"workload":"bzip2"}"#,
            ),
            (
                Request::StableRegions {
                    budget: InefficiencyBudget::bounded(1.1).unwrap(),
                    threshold: 0.1 + 0.2,
                },
                r#"{"query":"stable_regions","budget":1.1,"threshold":0.30000000000000004}"#,
                r#"{"query":"stable_regions","budget":1.1,"threshold":0.30000000000000004,"workload":"bzip2"}"#,
            ),
            (
                Request::GovernedReplay {
                    governor: "paper".to_string(),
                    budget: InefficiencyBudget::bounded(1.6).unwrap(),
                },
                r#"{"query":"governed_replay","governor":"paper","budget":1.6}"#,
                r#"{"query":"governed_replay","governor":"paper","budget":1.6,"workload":"bzip2"}"#,
            ),
            (
                Request::PolicyReplay {
                    policy: "reactive".to_string(),
                    budget: InefficiencyBudget::bounded(1.3).unwrap(),
                    scenario: "load_burst".to_string(),
                },
                r#"{"query":"policy_replay","policy":"reactive","budget":1.3,"scenario":"load_burst"}"#,
                r#"{"query":"policy_replay","policy":"reactive","budget":1.3,"scenario":"load_burst","workload":"bzip2"}"#,
            ),
            (
                Request::Stats,
                r#"{"query":"stats"}"#,
                r#"{"query":"stats","workload":"bzip2"}"#,
            ),
            (
                Request::Health,
                r#"{"query":"health"}"#,
                r#"{"query":"health","workload":"bzip2"}"#,
            ),
            (
                Request::Telemetry,
                r#"{"query":"telemetry"}"#,
                r#"{"query":"telemetry","workload":"bzip2"}"#,
            ),
            (
                Request::TraceDump {
                    limit: 16,
                    slow_only: true,
                },
                r#"{"query":"trace_dump","limit":16,"slow_only":true}"#,
                r#"{"query":"trace_dump","limit":16,"slow_only":true,"workload":"bzip2"}"#,
            ),
        ]
    }

    fn golden_report(governor: &str) -> WireReport {
        WireReport {
            governor: governor.to_string(),
            work_time_s: 2.5,
            work_energy_j: 1.0 / 3.0,
            tuning_time_s: 0.001,
            tuning_energy_j: 0.0005,
            transition_time_s: 0.002,
            transition_energy_j: 1e-7,
            transitions: 17,
            cpu_transitions: 11,
            mem_transitions: 9,
            searches: 30,
            total_emin_j: 0.1 + 0.2,
        }
    }

    /// One fully populated value of every response variant, paired with
    /// its exact `encode()` bytes.
    fn golden_responses() -> Vec<(Response, &'static str)> {
        let policy = WirePolicyCounters {
            decisions: 96,
            transitions: 19,
            deadline_misses: 4,
            budget_exhaustions: 1,
        };
        let store = WireStoreCounters {
            hits: 1,
            misses: 2,
            bytes_read: 35_712,
        };
        vec![
            (
                Response::OptimalSetting(vec![
                    WireChoice {
                        sample: 3,
                        index: 41,
                        cpu_mhz: 900,
                        mem_mhz: 400,
                        time_s: 1.0 / 3.0,
                        energy_j: 0.1 + 0.2,
                        inefficiency: 1.05,
                    },
                    WireChoice {
                        sample: 4,
                        index: 0,
                        cpu_mhz: 100,
                        mem_mhz: 200,
                        time_s: 2.0,
                        energy_j: -0.0,
                        inefficiency: 1.0,
                    },
                ]),
                r#"{"reply":"optimal_setting","choices":[{"sample":3,"index":41,"cpu_mhz":900,"mem_mhz":400,"time_s":0.3333333333333333,"energy_j":0.30000000000000004,"inefficiency":1.05},{"sample":4,"index":0,"cpu_mhz":100,"mem_mhz":200,"time_s":2,"energy_j":-0,"inefficiency":1}]}"#,
            ),
            (
                Response::Cluster(vec![WireCluster {
                    sample: 0,
                    optimal_index: 5,
                    members: vec![3, 5, 9],
                    cpu_mhz: (700, 1000),
                    mem_mhz: (200, 800),
                }]),
                r#"{"reply":"cluster","clusters":[{"sample":0,"optimal_index":5,"members":[3,5,9],"cpu_mhz":[700,1000],"mem_mhz":[200,800]}]}"#,
            ),
            (
                Response::StableRegions(vec![WireRegion {
                    start: 0,
                    end: 7,
                    chosen_index: 12,
                    cpu_mhz: 1000,
                    mem_mhz: 600,
                    available: vec![2, 12],
                }]),
                r#"{"reply":"stable_regions","regions":[{"start":0,"end":7,"chosen_index":12,"cpu_mhz":1000,"mem_mhz":600,"available":[2,12]}]}"#,
            ),
            (
                Response::GovernedReplay(golden_report("oracle-optimal(1.3)")),
                r#"{"reply":"governed_replay","report":{"governor":"oracle-optimal(1.3)","work_time_s":2.5,"work_energy_j":0.3333333333333333,"tuning_time_s":0.001,"tuning_energy_j":0.0005,"transition_time_s":0.002,"transition_energy_j":0.0000001,"transitions":17,"cpu_transitions":11,"mem_transitions":9,"searches":30,"total_emin_j":0.30000000000000004}}"#,
            ),
            (
                Response::PolicyReplay(WirePolicyReport {
                    policy: "reactive".to_string(),
                    scenario: "load_burst".to_string(),
                    decisions: 48,
                    deadline_misses: 3,
                    budget_exhaustions: 0,
                    energy_vs_emin: 1.0 / 3.0 + 1.0,
                    energy_vs_oracle: 0.1 + 0.2,
                    time_vs_oracle: 1.25,
                    report: golden_report("policy-reactive@load_burst"),
                }),
                r#"{"reply":"policy_replay","policy":"reactive","scenario":"load_burst","decisions":48,"deadline_misses":3,"budget_exhaustions":0,"energy_vs_emin":1.3333333333333333,"energy_vs_oracle":0.30000000000000004,"time_vs_oracle":1.25,"report":{"governor":"policy-reactive@load_burst","work_time_s":2.5,"work_energy_j":0.3333333333333333,"tuning_time_s":0.001,"tuning_energy_j":0.0005,"transition_time_s":0.002,"transition_energy_j":0.0000001,"transitions":17,"cpu_transitions":11,"mem_transitions":9,"searches":30,"total_emin_j":0.30000000000000004}}"#,
            ),
            (
                Response::Stats(WireStats {
                    requests: 100,
                    cache_hits: 40,
                    cache_misses: 60,
                    overloaded: 2,
                    protocol_errors: 1,
                    queue_depth_max: 7,
                    engines: 2,
                    evictions: 3,
                    shards: vec![
                        WireShard {
                            workload: "bzip2".to_string(),
                            fingerprint: "00000000deadbeef".to_string(),
                            requests: 31,
                            cache_hits: 11,
                            cache_misses: 20,
                            queue_depth: 1,
                            pinned: false,
                        },
                        WireShard {
                            workload: "gobmk".to_string(),
                            fingerprint: "0123456789abcdef".to_string(),
                            requests: 69,
                            cache_hits: 29,
                            cache_misses: 40,
                            queue_depth: 0,
                            pinned: true,
                        },
                    ],
                    policy,
                    store,
                    uptime_ms: 120_500,
                    requests_in_flight: 3,
                    rendered: "counter requests.total 100\n\"quoted\"\t".to_string(),
                }),
                r#"{"reply":"stats","requests":100,"cache_hits":40,"cache_misses":60,"overloaded":2,"protocol_errors":1,"queue_depth_max":7,"engines":2,"evictions":3,"shards":[{"workload":"bzip2","fingerprint":"00000000deadbeef","requests":31,"cache_hits":11,"cache_misses":20,"queue_depth":1,"pinned":false},{"workload":"gobmk","fingerprint":"0123456789abcdef","requests":69,"cache_hits":29,"cache_misses":40,"queue_depth":0,"pinned":true}],"policy":{"decisions":96,"transitions":19,"deadline_misses":4,"budget_exhaustions":1},"store":{"hits":1,"misses":2,"bytes_read":35712},"uptime_ms":120500,"requests_in_flight":3,"rendered":"counter requests.total 100\n\"quoted\"\t"}"#,
            ),
            (
                Response::Health(WireHealth {
                    status: "ok".to_string(),
                    workload: "gobmk".to_string(),
                    samples: 30,
                    settings: 70,
                    fingerprint: "0123456789abcdef".to_string(),
                    workers: 4,
                }),
                r#"{"reply":"health","status":"ok","workload":"gobmk","samples":30,"settings":70,"fingerprint":"0123456789abcdef","workers":4}"#,
            ),
            (
                Response::Telemetry(WireTelemetry {
                    enabled: true,
                    uptime_ms: 4_250,
                    windows: vec![WireWindow {
                        second: 3,
                        requests: 120,
                        ok: 117,
                        errors: 1,
                        shed: 2,
                        queue_depth_max: 9,
                        p50_ns: 420_000.0,
                        p95_ns: 1.0 / 3.0 * 1e7,
                        max_ns: 9_900_000.0,
                    }],
                    histograms: vec![WireHistogram {
                        name: "latency.request_ns".to_string(),
                        count: 120,
                        mean_ns: 0.1 + 0.2,
                        p50_ns: 420_000.0,
                        p95_ns: 3_300_000.0,
                        max_ns: 9_900_000.0,
                    }],
                    shard_compute: vec![WireHistogram {
                        name: "gobmk".to_string(),
                        count: 40,
                        mean_ns: 250_000.0,
                        p50_ns: 200_000.0,
                        p95_ns: 800_000.0,
                        max_ns: 900_000.0,
                    }],
                    policy,
                    store,
                    flight_recorded: 120,
                    flight_dropped: 8,
                    flight_slow: 2,
                    slow_threshold_ns: 250_000_000,
                }),
                r#"{"reply":"telemetry","enabled":true,"uptime_ms":4250,"windows":[{"second":3,"requests":120,"ok":117,"errors":1,"shed":2,"queue_depth_max":9,"p50_ns":420000,"p95_ns":3333333.333333333,"max_ns":9900000}],"histograms":[{"name":"latency.request_ns","count":120,"mean_ns":0.30000000000000004,"p50_ns":420000,"p95_ns":3300000,"max_ns":9900000}],"shard_compute":[{"name":"gobmk","count":40,"mean_ns":250000,"p50_ns":200000,"p95_ns":800000,"max_ns":900000}],"policy":{"decisions":96,"transitions":19,"deadline_misses":4,"budget_exhaustions":1},"store":{"hits":1,"misses":2,"bytes_read":35712},"flight_recorded":120,"flight_dropped":8,"flight_slow":2,"slow_threshold_ns":250000000}"#,
            ),
            (
                Response::TraceDump(vec![WireTrace {
                    id: 17,
                    kind: "optimal_setting".to_string(),
                    fingerprint: "0123456789abcdef".to_string(),
                    outcome: "ok".to_string(),
                    total_ns: 930,
                    stages: vec![
                        WireStage {
                            stage: "accepted".to_string(),
                            t_ns: 100,
                        },
                        WireStage {
                            stage: "write_flushed".to_string(),
                            t_ns: 1030,
                        },
                    ],
                }]),
                r#"{"reply":"trace_dump","records":[{"id":17,"kind":"optimal_setting","fingerprint":"0123456789abcdef","outcome":"ok","total_ns":930,"stages":[{"stage":"accepted","t_ns":100},{"stage":"write_flushed","t_ns":1030}]}]}"#,
            ),
            (Response::Overloaded, r#"{"reply":"overloaded"}"#),
            (
                Response::Error("bad \"request\"".to_string()),
                r#"{"reply":"error","message":"bad \"request\""}"#,
            ),
        ]
    }

    /// Pins member order and number formatting, which the round-trip
    /// tests cannot see: reordering a struct's fields changes these bytes.
    #[test]
    fn wire_bytes_match_golden_frames() {
        for (request, bare, addressed) in golden_requests() {
            assert_eq!(request.encode(), bare);
            assert_eq!(request.encode_for(Some("bzip2")), addressed);
            assert_eq!(Request::decode(bare).unwrap(), request);
            let (decoded, workload) = Request::decode_envelope(addressed).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(workload.as_deref(), Some("bzip2"));
        }
        for (response, golden) in golden_responses() {
            assert_eq!(response.encode(), golden);
            assert_eq!(Response::decode(golden).unwrap(), response);
        }
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // The reactor decodes every request inline, so string parsing
        // must be linear: a quadratic parse of one 1 MB frame stalls
        // every connection for seconds.
        let workload = "w".repeat(1_000_000);
        let payload = Request::Health.encode_for(Some(&workload));
        assert!(payload.len() <= MAX_FRAME_BYTES);
        let started = std::time::Instant::now();
        let (request, decoded) = Request::decode_envelope(&payload).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(request, Request::Health);
        assert_eq!(decoded.as_deref(), Some(workload.as_str()));
        assert!(elapsed.as_secs_f64() < 1.0, "1 MB string took {elapsed:?}");
    }

    /// Applies one seeded mutation to `bytes`: a byte flip, a truncation,
    /// an inserted byte, or a splice of a slice of `donor`.
    fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>, donor: &[u8]) {
        const TOKENS: &[u8] = b"{}[]\",:\\-.0123456789eEtfnu ";
        let at = rng.range_usize(0, bytes.len() + 1);
        match rng.range_usize(0, 4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.range_usize(0, 8),
            1 => bytes.truncate(at),
            2 => {
                let byte = if rng.chance(0.5) {
                    TOKENS[rng.range_usize(0, TOKENS.len())]
                } else {
                    rng.next_u64() as u8
                };
                bytes.insert(at, byte);
            }
            _ => {
                let from = rng.range_usize(0, donor.len());
                let to = rng.range_usize(from, donor.len() + 1);
                let end = rng.range_usize(at, bytes.len() + 1);
                bytes.splice(at..end, donor[from..to].iter().copied());
            }
        }
    }

    #[test]
    fn mutated_frames_yield_typed_errors_not_panics() {
        // Untrusted bytes must never panic the process: every mutant of a
        // golden frame decodes to `Ok` or a typed `Err`.
        let mut golden: Vec<String> = Vec::new();
        for (_, bare, addressed) in golden_requests() {
            golden.extend([bare.to_string(), addressed.to_string()]);
        }
        golden.extend(golden_responses().into_iter().map(|(_, g)| g.to_string()));
        let mut rng = SplitMix64::new(0x5EED_F022);
        let mut decoded = 0usize;
        for case in 0..4_000 {
            let seed = &golden[case % golden.len()];
            let donor = golden[rng.range_usize(0, golden.len())].as_bytes();
            let mut payload = seed.as_bytes().to_vec();
            let mut frame = Vec::new();
            write_frame(&mut frame, seed).unwrap();
            for _ in 0..rng.range_usize(1, 4) {
                mutate(&mut rng, &mut payload, donor);
                mutate(&mut rng, &mut frame, donor);
            }
            let text = String::from_utf8_lossy(&payload);
            let outcome = std::panic::catch_unwind(|| {
                let request = Request::decode_envelope(&text).is_ok();
                let response = Response::decode(&text).is_ok();
                let framed = read_frame(&mut BufReader::new(frame.as_slice()));
                if let Ok(Some(body)) = &framed {
                    let _ = (Request::decode_envelope(body), Response::decode(body));
                }
                usize::from(request || response)
            });
            match outcome {
                Ok(ok) => decoded += ok,
                Err(_) => panic!(
                    "decoder panicked on {text:?} / frame {:?}",
                    String::from_utf8_lossy(&frame)
                ),
            }
        }
        // The mutants are not all rejected: some still decode.
        assert!(decoded > 0);
    }
}
