//! Smoke tests: every registered experiment must run to completion at
//! tiny scale through the one `blameit-bench` executable and print its
//! identifying line. Guards the harness against bit-rot without the
//! cost of full-scale runs.

use blameit_bench::EXPERIMENTS;
use std::process::{Command, Output};

/// `(name, flags beyond --scale tiny --seed 7, expected substring)`.
const CASES: &[(&str, &[&str], &str)] = &[
    ("table1", &[], "Impact-prioritized probes"),
    ("table2", &[], "# RTT measurements"),
    ("fig2", &["--days", "1"], "non-mobile bad%"),
    ("fig3", &["--days", "2"], "usa-bad%"),
    ("fig4a", &[], "incidents observed"),
    ("fig4b", &["--days", "1"], "tuples needed for 80% impact"),
    ("fig5", &[], "by actual problem impact"),
    ("fig6", &[], "BGP path"),
    ("fig8", &["--days", "4", "--warmup", "1"], "cloud%"),
    ("fig9", &["--warmup", "1", "--eval", "1"], "region"),
    (
        "fig10",
        &["--days", "3", "--warmup", "1"],
        "category middle",
    ),
    ("fig11", &["--days", "2", "--warmup", "1"], "corroboration"),
    (
        "fig12",
        &["--days", "3", "--warmup", "1"],
        "top-5% coverage",
    ),
    (
        "fig13",
        &["--days", "3", "--warmup", "2"],
        "12h+churn accuracy",
    ),
    ("insights", &["--days", "1"], "Insight-1"),
    (
        "confusion",
        &["--days", "2", "--warmup", "1"],
        "decisive accuracy",
    ),
    ("ablations", &["--warmup", "1"], "tau=0.8"),
    (
        "ablation_priority",
        &["--days", "3", "--warmup", "1"],
        "impact-ranked",
    ),
    (
        "ext_reverse",
        &["--trials", "20"],
        "forward + reverse accuracy",
    ),
    (
        "probe_overhead",
        &["--days", "2", "--warmup", "1"],
        "Trinocular",
    ),
    ("incidents", &[], "correctly localized:"),
    ("chaos", &[], "graceful: HOLDS"),
];

fn runner(name: &str, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blameit-bench"))
        .arg(name)
        .args(["--scale", "tiny", "--seed", "7"])
        .args(flags)
        .output()
        .expect("spawn blameit-bench")
}

#[test]
fn cases_cover_the_registry_exactly() {
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    let covered: Vec<&str> = CASES.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(registered, covered, "one CASES row per EXPERIMENTS entry");
}

#[test]
fn experiments_run_at_tiny_scale() {
    for (name, flags, expected) in CASES {
        let out = runner(name, flags);
        assert!(
            out.status.success(),
            "{name} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8 output");
        assert!(
            stdout.contains(expected),
            "{name}: no {expected:?} in\n{stdout}"
        );
    }
}

#[test]
fn unknown_name_exits_2_and_lists_the_registry() {
    let out = runner("fig99", &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (name, _) in EXPERIMENTS {
        assert!(stderr.contains(name), "{name} missing from:\n{stderr}");
    }
}
