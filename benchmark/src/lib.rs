//! # blameit-benchmark — a socket-to-verdict performance ledger
//!
//! Drives the public APIs of `blameit` (core), `blameit-daemon`,
//! `blameit-simnet` and `blameit-bench` in-process: five workloads,
//! ten end-to-end metrics every workload reports, and a per-layer
//! table from a separate traced run. It checks its own outputs and
//! fails the run on any failed check. See `README.md` for the
//! catalogue and for what each number is expected to move.
//!
//! * [`catalogue`] — the fixed names, units, directions and bounds.
//! * [`inputs`] — sizes, the seeded world, materialised inputs, state
//!   dirs, the run deadline.
//! * [`daemon`] — the in-process `offer`→`pump`→`term` loop.
//! * [`wire`] — the same batches through `Server::run` over localhost.
//! * [`replay`] — the engine alone over pre-materialised quartets.
//! * [`recover`] — open a crashed state dir, then resume the feed.
//! * [`layers`] — shadow layers and per-layer accounting.
//! * [`spans`] — the harness's span recorder.
//! * [`run`] — one run: set-up, reps, checks, metrics.
//! * [`report`] / [`compare`] — result files and the regression gate.
//! * [`json`] / [`stats`] — a JSON reader; order statistics and FNV-64.

pub mod catalogue;
pub mod compare;
pub mod daemon;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod recover;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod wire;
