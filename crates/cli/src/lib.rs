//! # blameit-cli — command-line front end
//!
//! The `blameit` binary exposes the reproduction to a terminal user;
//! `blameit help` prints [`commands::USAGE`], the one list of verbs and
//! flags. Every command is deterministic in `--seed`. The library half
//! of the crate holds the command implementations so they are
//! unit-testable; `main.rs` only dispatches.

pub mod commands;

pub use commands::{run, CliError};
