//! # blameit-obs — dependency-free observability for the BlameIt engine
//!
//! Four pillars, all built on `std` alone (the workspace builds with
//! no network access, so this crate takes zero external dependencies):
//!
//! * [`metrics`] — a process-wide (or per-engine) registry of lock-free
//!   [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s with
//!   p50/p90/p99 queries, Prometheus-style text exposition, and a JSON
//!   dump.
//! * [`trace`] — RAII [`Span`]s emitting structured events (target,
//!   name, `key=value` fields, duration, depth) to pluggable
//!   [`Subscriber`]s: an in-memory [`RingCollector`] and a
//!   [`JsonlWriter`]. [`render_tree`] turns captured events back into
//!   an indented per-tick span tree.
//! * [`profile`] — [`StageTimings`]/[`StageClock`] for the per-tick
//!   stage breakdown embedded in the engine's `TickOutput`.
//! * [`flight`] — a deterministic [`FlightRecorder`]: a bounded ring of
//!   recent tick transcripts, stage outlines, and metric deltas, keyed
//!   on sim time and dumpable as JSONL when a trigger predicate fires.
//!
//! ```
//! use blameit_obs::{span, MetricsRegistry, RingCollector, StageClock};
//!
//! let reg = MetricsRegistry::new();
//! let ring = RingCollector::new(1024);
//! blameit_obs::trace::with_subscriber(ring.clone(), || {
//!     let _tick = span!("example", "tick", n = 1u64);
//!     let mut clock = StageClock::start();
//!     reg.counter("example_items_total").add(3);
//!     clock.lap("work");
//!     let timings = clock.finish();
//!     assert!(timings.total() >= timings.stage_sum());
//! });
//! assert_eq!(ring.events().len(), 1);
//! println!("{}", reg.render_prometheus());
//! ```

pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use flight::{FlightDumpEvent, FlightFrame, FlightRecorder, FlightTrigger};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profile::{StageClock, StageTimings};
pub use trace::{
    local_subscribers, render_tree, with_subscriber, with_subscribers, JsonlWriter, RingCollector,
    Span, SpanEvent, Subscriber,
};
