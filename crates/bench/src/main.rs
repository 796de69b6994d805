//! `blameit-bench <name|all> [--scale tiny|small|default] [--seed N] …`
//!
//! Runs one experiment from [`EXPERIMENTS`], or all of them in table
//! order in this process: an experiment that fails panics, so `all`
//! stops there with a non-zero exit. Stdout carries only the
//! experiments' own (seed-deterministic) output; wall time per
//! experiment goes to stderr. `BLAMEIT_THREADS=N` shards every
//! experiment's engine over N worker threads.

use blameit_bench::{Args, EXPERIMENTS};
use std::time::Instant;

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(n, _)| name == "all" || name == *n)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: blameit-bench <name|all> [--scale tiny|small|default] [--seed N] …");
        eprintln!("experiments: {}", names.join(" "));
        std::process::exit(2);
    }
    let args = Args::parse_from(argv);
    for (name, run) in selected {
        let started = Instant::now();
        run(&args);
        eprintln!(
            "[blameit-bench] {name} finished in {:.1}s",
            started.elapsed().as_secs_f64()
        );
    }
}
