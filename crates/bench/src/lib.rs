//! # blameit-bench — experiment harness
//!
//! Regenerates every table and figure of the BlameIt paper over the
//! simulator. Performance is not measured here: that is `benchmark/`'s
//! ledger (see `benchmark/README.md`).
//!
//! * [`experiments`] — one module per table/figure/validation, each a
//!   `pub fn run(&Args)`, listed in [`EXPERIMENTS`]. The one
//!   executable runs them by name:
//!   `cargo run --release -p blameit-bench -- <name|all> [--scale … --seed …]`.
//! * [`scenarios`] — standard seeded worlds at three scales, the
//!   warmed-up engine every engine experiment starts from, and the
//!   88-incident validation suite (§6.3).
//! * [`eval`] — ground-truth scoring: confusion matrices and
//!   per-incident verdicts.
//! * [`fmt`] — tiny table/CDF printers shared by the experiments.
//! * [`args`] — `--key value` parsing shared with the CLI and daemon.

pub mod args;
pub mod eval;
pub mod experiments;
pub mod fmt;
pub mod scenarios;

// Re-exported only so the frozen `benchmark/src/json.rs` keeps compiling.
pub use blameit_obs::json;

pub use args::Args;
pub use eval::{score_blames, score_incident, ConfusionMatrix, IncidentVerdict};
pub use experiments::EXPERIMENTS;
pub use scenarios::{
    incident_suite, organic_world, quiet_world, warmed_engine, world_config, IncidentScenario,
    Scale,
};
