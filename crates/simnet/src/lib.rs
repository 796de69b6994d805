//! # blameit-simnet — deterministic WAN telemetry simulator
//!
//! The telemetry substrate for the BlameIt reproduction (Jin et al.,
//! SIGCOMM 2019). The paper consumes Azure production data: trillions
//! of TCP-handshake RTTs, traceroutes from edge routers, and an IBGP
//! churn feed. This crate synthesizes all three over the synthetic
//! Internet of [`blameit_topology`], with **explicit ground truth**:
//! every latency degradation traces back to a scheduled [`fault::Fault`],
//! so localization accuracy is exactly measurable.
//!
//! Modules:
//! * [`time`] — seconds-since-epoch instants and the 5-minute buckets
//!   BlameIt aggregates over.
//! * [`activity`] — diurnal, class-dependent client activity (drives
//!   Fig. 3's night-vs-day effects and §2.4's impact skew).
//! * [`latency`] — per-segment RTT model (cloud / middle / client) with
//!   noise and evening congestion.
//! * [`fault`] — fault targets, long-tailed durations (Fig. 4a), and
//!   schedule generation with region-dependent middle-fault rates.
//! * [`churn`] — BGP route flips per (location, prefix), calibrated to
//!   the paper's two-thirds-stable-per-day observation (§5.4).
//! * [`chaos`] — seeded measurement-plane fault plans (probe timeouts,
//!   truncated traceroutes, late/duplicated churn, dropped batches) for
//!   the chaos test suite and the `ChaosBackend` decorator.
//! * [`crash`] — the named kill points of the persistence layer's
//!   crash harness and the seeded tear of a write a kill interrupts.
//! * [`measure`] — RTT records and quartet observations.
//! * [`surge`] — seeded ingest-surge plans that replay a world at a
//!   multiple of its natural volume, for daemon overload testing.
//! * [`traceroute`] — simulated per-AS-hop traceroutes (§5.2).
//! * [`collector`] — Table-2-style corpus summaries.
//! * [`world`] — the [`world::World`] facade tying it all together,
//!   including ground-truth culprit queries.
//!
//! Determinism: all randomness is counter-based
//! ([`blameit_topology::rng::DetRng`], re-exported as [`rng`]), keyed
//! by `(seed, entity, time)`. Any quartet, traceroute, or fault can be
//! re-derived in isolation, identically, on any platform.

pub mod activity;
pub mod chaos;
pub mod churn;
pub mod collector;
pub mod crash;
pub mod fault;
pub mod latency;
pub mod measure;
pub mod surge;
pub mod time;
pub mod traceroute;
pub mod world;

/// Re-export of the deterministic RNG used throughout the simulator.
pub use blameit_topology::rng;

pub use activity::ActivityModel;
pub use chaos::{ChurnFault, FaultPlan, ProbeFault};
pub use churn::ChurnModel;
pub use collector::DatasetSummary;
pub use crash::{tear_fraction, CrashPoint};
pub use fault::{Fault, FaultId, FaultRates, FaultSchedule, FaultTarget, Segment};
pub use latency::{LatencyModel, SegRtt};
pub use measure::{QuartetObs, RttRecord};
pub use surge::{SurgePlan, SurgeWindow};
pub use time::{SimTime, TimeBucket, TimeRange, BUCKETS_PER_DAY, BUCKET_SECS};
pub use traceroute::{Traceroute, TracerouteHop, TracerouteNoise};
pub use world::{Culprit, GroundTruth, World, WorldConfig};
