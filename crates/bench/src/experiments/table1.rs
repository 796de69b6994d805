//! Table 1: comparison with prior network-diagnosis solutions on the
//! desired properties for scalable fault localization.
//!
//! This table is qualitative in the paper; here each row is annotated
//! with where the corresponding behaviour lives in this codebase, so
//! the checklist is grounded in implemented artifacts rather than
//! citations alone.

use crate::{fmt, Args};

pub fn run(_args: &Args) {
    fmt::banner("Table 1", "Desired properties vs prior solutions");
    let systems = [
        "BlameIt",
        "Tomography",
        "EdgeFabric",
        "PlanetSeer",
        "iPlane",
        "Trinocular",
        "Odin",
        "WhyHigh",
    ];
    // (property, per-system ✓/✗ as in the paper, where it lives here)
    let rows: &[(&str, [bool; 8], &str)] = &[
        (
            "Latency degradation",
            [true, true, true, false, true, false, true, true],
            "blameit::passive + thresholds",
        ),
        (
            "Internet scale",
            [true, false, true, false, false, true, true, true],
            "quartet aggregation; blameit::quartet",
        ),
        (
            "Work with insufficient coverage",
            [true, false, true, true, false, true, true, true],
            "hierarchical elimination vs tomography (blameit_baselines::tomography)",
        ),
        (
            "Automated root-cause diagnosis",
            [true, true, false, true, true, true, true, false],
            "blameit::pipeline alerts + culprit AS",
        ),
        (
            "Diagnosis with low latency",
            [true, false, true, false, false, true, true, false],
            "15-minute tick cadence; blameit::pipeline",
        ),
        (
            "Triggered timely probes",
            [true, false, false, true, false, false, false, false],
            "on-demand probes during the incident; blameit::pipeline",
        ),
        (
            "Impact-prioritized probes",
            [true, false, false, false, false, false, false, false],
            "client-time product; blameit::priority",
        ),
    ];

    print!("{:<32}", "Desired property");
    for s in systems {
        print!("{s:>11}");
    }
    println!();
    for (prop, marks, _) in rows {
        print!("{prop:<32}");
        for m in marks {
            print!("{:>11}", if *m { "yes" } else { "-" });
        }
        println!();
    }
    println!();
    println!("implementation index:");
    for (prop, _, loc) in rows {
        println!("  {prop:<32} {loc}");
    }
    println!();
    println!(
        "implemented comparators in this repo: Tomography (boolean),\n\
         continuous-traceroute active-only (iPlane/PlanetSeer-style coverage),\n\
         Trinocular-style adaptive probing, WhyHigh-style prefix-count ranking."
    );
}
