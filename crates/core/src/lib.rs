//! # blameit — WAN latency fault localization
//!
//! A full reimplementation of **BlameIt** (Yuchen Jin et al., *Zooming
//! in on Wide-area Latencies to a Global Cloud Provider*, SIGCOMM
//! 2019): a two-phase system that localizes client-to-cloud RTT
//! degradations to the faulty AS using passively collected TCP
//! handshake RTTs plus a frugal, impact-prioritized budget of active
//! traceroutes.
//!
//! ## Architecture (paper Fig. 7)
//!
//! ```text
//!  RTT stream ──► quartets ──► Algorithm 1 ──► cloud / middle / client
//!  (Backend)      (quartet)    (passive)        │        │
//!                                               ▼        ▼
//!                                         alerts   prioritized probes
//!                                        (report)  (priority + active)
//!                                                        │
//!                    background baselines ◄── scheduler ─┘
//!                    (background)              (periodic + BGP churn)
//! ```
//!
//! * [`backend`] — the data-plane trait (RTT stream, routing tables,
//!   traceroute agent, IBGP feed) + the simulator binding.
//! * [`quartet`] — ⟨/24, location, device, 5-min⟩ aggregation,
//!   enrichment, the ≥10-sample floor, split-half KS validation.
//! * [`columnar`] — the struct-of-arrays quartet store and the
//!   arena-backed batch kernel ([`aggregate_batch_reuse`]);
//!   bit-identical to the per-record reference
//!   ([`aggregate_records_reference`]) by construction and by
//!   differential test.
//! * [`fxhash`] — the deterministic non-sip hasher
//!   ([`fxhash::DetHashMap`]/[`fxhash::DetHashSet`]), re-exported from
//!   `blameit_topology` where it lives; mandatory for map construction
//!   here and in the simulator (enforced by the `sip-hasher` lint rule).
//! * [`thresholds`] — region/device badness targets (§2.1).
//! * [`history`] — learned expected RTTs (14-day medians, §4.3),
//!   per-path incident-duration history, client-count history (§5.3).
//! * [`grouping`] — middle-segment granularities: BGP path / atom /
//!   prefix / ⟨AS, Metro⟩ (§4.2, Fig. 6, Fig. 11).
//! * [`passive`] — Algorithm 1: hierarchical cloud→middle→client
//!   elimination with `insufficient`/`ambiguous` outcomes.
//! * [`active`] — traceroute diffing and culprit-AS selection (§5.2).
//! * [`priority`] — client-time-product ranking and per-location probe
//!   budgets (§5.3).
//! * [`admission`] — bounded-ingest admission control for the daemon:
//!   watermark-driven backpressure and impact-aware overload shedding
//!   ordered by ascending client-time product.
//! * [`background`] — periodic + churn-triggered baseline probes and
//!   the baseline store (§5.4).
//! * [`incident`] — consecutive-bad-bucket tracking (§2.3).
//! * [`pipeline`] — the 15-minute [`pipeline::BlameItEngine`] tying it
//!   together (§6.1).
//! * [`provenance`] — the structured evidence chain attached to every
//!   verdict: Algorithm-1 fractions vs. τ, baseline ages, probe
//!   retries, priority/budget position.
//! * [`persist`] — durable engine state: versioned CRC'd snapshots, an
//!   fsync'd tick journal, crash recovery by snapshot + deterministic
//!   replay, all through one filesystem seam whose fault double is the
//!   kill-point crash harness.
//! * [`shard`] — the one scoped-thread fan-out primitive behind the
//!   tick's parallel stages (`BlameItConfig::parallelism`); output is
//!   byte-identical at any thread count.
//! * [`report`] — blame-fraction tallies (Fig. 8/9).
//! * [`metrics`] — per-engine metric handles and the canonical stage
//!   names of the tick profile (built on `blameit-obs`).
//! * [`stats`], [`ks`] — numeric utilities.

pub mod active;
pub mod admission;
pub mod backend;
pub mod background;
pub mod columnar;
pub mod grouping;
pub mod history;
pub mod incident;
pub mod ks;
pub mod metrics;
pub mod passive;
pub mod persist;
pub mod pipeline;
pub mod priority;
pub mod provenance;
pub mod quartet;
pub mod report;
pub mod shard;
pub mod stats;
pub mod thresholds;

pub use active::{
    combine_directional_diffs, diff_contributions, diff_contributions_with_floor, diff_traceroutes,
    AsDelta, LocalizationVerdict, TracrouteDiffResult, UnlocalizedReason,
};
pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, GroupScore};
pub use backend::{Backend, ChaosBackend, ChaosStats, RouteInfo, WorldBackend};
pub use background::{BackgroundScheduler, BaselineEntry, BaselineStore, ProbeTarget};
pub use blameit_topology::fxhash;
pub use columnar::{
    aggregate_batch_reuse, pack_key, pack_subkey, unpack_key, IngestArena, QuartetStore,
    RecordBatch,
};
pub use fxhash::{
    det_map_with_capacity, det_set_with_capacity, DetHashMap, DetHashSet, DetState, FxHasher,
};
pub use grouping::{MiddleGrouping, MiddleKey};
pub use history::{ClientCountHistory, DurationHistory, ExpectedRttLearner, RttKey};
pub use incident::{Incident, IncidentTracker, OpenIncident};
pub use ks::{ks_two_sample, KsResult};
pub use metrics::{EngineMetrics, ShardMetrics};
pub use passive::{assign_blames, blame_bucket, AggregateStats, Blame, BlameConfig, BlameResult};
pub use persist::{
    fsck, tick_digest, CodecError, DurableEngine, FsckReport, PersistError, PersistMetrics,
    RecoveryReport, SnapshotLoad, StartMode, StateStore,
};
pub use pipeline::{
    Alert, BlameItConfig, BlameItEngine, EngineState, MiddleLocalization, TickOutput,
};
pub use priority::{prioritize, select_within_budgets, MiddleIssue, PrioritizedIssue};
pub use provenance::{
    BaselineEvidence, IncidentEvidence, PassiveEvidence, PriorityEvidence, ProbeEvidence,
    Provenance,
};
pub use quartet::{
    aggregate_records_reference, enrich_bucket, enrich_bucket_min_samples, enrich_obs_sharded,
    split_half_ks, EnrichedQuartet, MIN_SAMPLES,
};
pub use report::{
    render_blame_explain, render_localization_explain, render_tick_transcript, tally, tally_by_day,
    tally_by_region, BlameCounts,
};
pub use shard::{default_parallelism, parallel_map, run_chunked};
pub use thresholds::BadnessThresholds;
