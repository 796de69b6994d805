//! # blameit-daemon — `blameitd`, the engine as a service
//!
//! The repo's engine is a pure deterministic tick
//! ([`blameit::BlameItEngine`]); this crate wraps it in the thinnest
//! possible service shell without surrendering determinism:
//!
//! * [`wire`] — framed, length-prefixed, CRC'd ingest protocol over
//!   localhost TCP (`std::net` only): `HELLO`/`BATCH`/`TERM` in,
//!   `ACK`/`SLOW_DOWN`/`BYE`/`ERR` out.
//! * [`queue`] — the bounded ingest queue as a [`blameit::Backend`]:
//!   fed buckets aggregate through the columnar kernel, warmup buckets
//!   delegate to the wrapped world.
//! * [`wal`] — fsync'd write-ahead log of admitted batches, appended
//!   *before* engine visibility, so a hard kill between admission and
//!   snapshot loses nothing.
//! * [`core`] — [`core::DaemonCore`], every decision the daemon makes:
//!   admission + impact-ordered overload shedding (via
//!   [`blameit::AdmissionController`]), data-driven tick scheduling
//!   over [`blameit::DurableEngine`], the sustained-overload watchdog
//!   that trips the flight recorder, and graceful drain/snapshot.
//! * [`server`] — the single-threaded socket/HTTP shell: ingest loop,
//!   `GET /metrics` (Prometheus text), `/alerts`, `/healthz`.
//! * [`client`] — the one feeder: a world-replay batch source (with
//!   optional surge amplification) and a bounded-retry delivery step
//!   over the wire sink or the in-process sink.
//! * [`clock`] — the injected pacing clock; decisions never read time.
//!
//! The split is the repo's standing architecture rule: *IO at the
//! edges, determinism in the middle*. `DaemonCore` is fully
//! exercisable without sockets, and the overload tests prove the same
//! feed sheds the same quartets byte-for-byte at any thread count.

pub mod client;
pub mod clock;
pub mod core;
pub mod entry;
pub mod queue;
pub mod server;
pub mod wal;
pub mod wire;

pub use client::{
    deliver, feed, feed_world, http_get, world_batches, CoreSink, FeedConfig, FeedSummary, Sink,
    WireSink,
};
pub use clock::{Clock, NoopClock, WallClock};
pub use core::{DaemonConfig, DaemonCore, DaemonError, IngestStats, OfferReply, ShedEntry};
pub use entry::{run_daemon, run_feed, run_scrape};
pub use queue::QueueBackend;
pub use server::{ServeSummary, Server, ServerConfig};
pub use wal::{IngestWal, WalRecovery};
pub use wire::{Frame, WireError, WIRE_VERSION};
