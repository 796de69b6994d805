//! # blameit-scenario — declarative incident scenarios
//!
//! One scenario file describes a complete end-to-end exercise of the
//! engine: the world (topology scale + model overrides), a workload
//! shape, injected network faults, measurement-plane chaos
//! ([`blameit_simnet::FaultPlan`]), process-crash kill points
//! ([`blameit_simnet::CrashPoint`]), the evaluation window, and an
//! `[expect]` block of verdict assertions. The format is line-oriented
//! key/value with `[section]` headers — no external parser dependency —
//! and every load error carries a `file:line` position.
//!
//! ```text
//! name = regional-cable-cut
//! summary = a long strong middle-AS fault, localized to the AS
//!
//! [world]
//! scale = tiny
//! seed = 20190519
//! days = 2
//!
//! [fault]
//! target = middle:104
//! start_hour = 26
//! duration_mins = 180
//! added_ms = 120
//!
//! [eval]
//! start_hour = 26
//! duration_mins = 90
//!
//! [expect]
//! blame_middle_min = 5
//! culprit_as = 104
//! ```
//!
//! The library half compiles a [`ScenarioSpec`] into the existing
//! engine/backend configuration and runs it through the pure
//! deterministic tick ([`run_scenario`]); the result is a canonical
//! transcript (golden-pinnable, byte-identical at any thread count)
//! plus a [`ScenarioReport`] the `[expect]` block is evaluated against
//! ([`evaluate`]). The `blameit scenario run|list|check` CLI and the
//! `tests/scenario_library.rs` regression suite both drive this crate
//! (and share one golden checker, [`GoldenCheck`]); the shipped corpus
//! lives under `scenarios/` with goldens under
//! `tests/golden/scenarios/`. See `docs/SCENARIOS.md` for the full
//! format reference.
//!
//! A spec need not come from a file: the CLI's engine verbs build one
//! from their flags and call [`compile`] + [`run_windows`] — the same
//! three-window driver a `.scn` run uses.

pub mod check;
pub mod compile;
pub mod error;
pub mod expect;
pub mod keys;
pub mod parse;
pub mod run;
pub mod spec;

pub use check::{bless_requested, load_compiled, Checked, GoldenCheck};
pub use compile::{compile, CompiledScenario};
pub use error::ScenarioError;
pub use expect::{evaluate, render_report};
pub use keys::{Key, Override, Target, Value, KEYS};
pub use parse::{load_scenario, parse_scenario};
pub use run::{run_scenario, run_windows, EngineRun, OverloadReport, ScenarioReport, ScenarioRun};
pub use spec::{
    ChaosSpec, CrashSpec, EvalSpec, Expectation, FaultSpec, Limit, OverloadSpec, Quantity,
    ScenarioSpec, WorldSpec,
};
