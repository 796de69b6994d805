//! # blameit-bench — experiment harness
//!
//! Regenerates every table and figure of the BlameIt paper over the
//! simulator, plus the `pipeline` performance bench for the system
//! itself.
//!
//! * [`scenarios`] — standard seeded worlds at three scales and the
//!   88-incident validation suite (§6.3).
//! * [`eval`] — ground-truth scoring: confusion matrices and
//!   per-incident verdicts.
//! * [`fmt`] — tiny table/CDF printers shared by the figure binaries.
//! * [`json`] — dependency-free JSON emitter for machine-readable
//!   results.
//!
//! Binaries (`cargo run -p blameit-bench --release --bin <name>`):
//! `table1`, `table2`, `fig2`, `fig3`, `fig4a`, `fig4b`, `fig6`,
//! `fig8`, `fig9`, `fig10`, `fig11`, `fig12`, `fig13`,
//! `probe_overhead`, `incidents`, `insights`, `confusion`, `ablations`,
//! and `run_all`.

pub mod args;
pub mod eval;
pub mod fmt;
pub mod json;
pub mod scenarios;

pub use args::Args;
pub use eval::{score_blames, score_incident, ConfusionMatrix, IncidentVerdict};
pub use scenarios::{
    incident_suite, organic_world, quiet_world, world_config, IncidentScenario, Scale,
};
