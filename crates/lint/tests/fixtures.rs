//! Fixture contract tests: every rule must trip on its `bad.rs`, stay
//! quiet on its `good.rs`, and suppress-with-reason on its `allow.rs`.
//! This is the same check `blameit-lint --self-check` runs in CI, so a
//! rule regression fails both the test suite and the lint job.

use blameit_lint::diag::Report;
use blameit_lint::{fixture_virtual_path, lint_source, run_workspace, self_check};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_fixture_expectation_holds() {
    let results = self_check(&repo_root()).expect("fixtures readable");
    // 11 lexical rules plus 2 workspace passes, × {bad, good, allow}.
    assert_eq!(results.len(), 39, "one fixture triple per rule and pass");
    let failures: Vec<String> = results
        .iter()
        .filter(|r| !r.pass)
        .map(|r| format!("{}: {}", r.file, r.detail))
        .collect();
    assert!(
        failures.is_empty(),
        "fixture contract broken:\n{}",
        failures.join("\n")
    );
}

#[test]
fn allow_fixture_reasons_reach_json() {
    // The `--json` report must carry each annotation's reason, so a
    // reviewer (or a dashboard) can audit every suppression without
    // opening the source.
    for rule in blameit_lint::rules::all_rules() {
        let id = rule.id();
        let path = repo_root()
            .join("crates/lint/tests/fixtures")
            .join(id)
            .join("allow.rs");
        let src = std::fs::read_to_string(&path).expect("allow fixture readable");
        let mut report = Report::default();
        lint_source(
            &fixture_virtual_path(id),
            &src,
            &Default::default(),
            &mut report,
        );
        let json = report.render_json();
        let suppressed: Vec<_> = report.suppressed.iter().filter(|s| s.rule == id).collect();
        assert!(
            !suppressed.is_empty(),
            "{id}/allow.rs produced no suppression"
        );
        for s in suppressed {
            assert_eq!(s.how, "annotation");
            assert!(!s.reason.is_empty(), "{id}/allow.rs reason missing");
            assert!(
                json.contains(&s.reason),
                "{id}/allow.rs reason not in --json output"
            );
        }
    }
}

#[test]
fn transitive_witness_renders_in_text_and_json() {
    // The 3-hop fixture chain (core/lib.rs → core/sched.rs →
    // probe/lib.rs) must surface as a transitive-effect finding whose
    // witness spells out every hop in both report formats.
    let tree = repo_root().join("crates/lint/tests/fixtures/transitive-effect/bad");
    let report = run_workspace(&tree).expect("fixture tree lints");
    let finding = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "transitive-effect" && d.path == "crates/core/src/lib.rs")
        .expect("tick_all must be flagged");
    assert_eq!(
        finding.witness,
        vec![
            "tick_all calls scheduler_advance at crates/core/src/lib.rs:8",
            "scheduler_advance calls probe_stamp at crates/core/src/sched.rs:2",
            "probe_stamp uses `Instant::now` at crates/probe/src/lib.rs:4",
        ],
    );
    assert!(finding
        .message
        .contains("tick_all → scheduler_advance → probe_stamp"));

    let text = report.render_text();
    for hop in &finding.witness {
        assert!(
            text.contains(&format!("      {hop}\n")),
            "text missing hop {hop}"
        );
    }
    let json = report.render_json();
    assert!(
        json.contains("\"scheduler_advance calls probe_stamp at crates/core/src/sched.rs:2\""),
        "witness hop missing from --json output"
    );
}

#[test]
fn effect_map_lists_direct_and_transitive_effects() {
    let tree = repo_root().join("crates/lint/tests/fixtures/transitive-effect/bad");
    let ws =
        blameit_lint::analyze_workspace(&tree, &Default::default()).expect("fixture tree analyzes");
    let map = ws.effect_map_json();
    assert!(map.contains("\"blameit-lint/effect-map/v1\""));
    assert!(map.contains("\"fn\": \"probe_stamp\""));
    assert!(map.contains("\"direct\": [\"wall-clock\"]"));
    // tick_all has no direct effects but inherits wall-clock.
    assert!(map.contains("\"transitive\": [\"wall-clock\"]"));
    assert!(map.contains("\"to\": \"scheduler_advance\""));
}

#[test]
fn warm_cache_reproduces_the_cold_report() {
    // The cache contract: a cold run misses every file, an immediate
    // second run hits every file, and the verdict does not depend on
    // which of the two produced the per-file analyses.
    let tree = repo_root().join("crates/lint/tests/fixtures/transitive-effect/bad");
    let cache_file = std::env::temp_dir().join(format!(
        "blameit-lint-cache-contract-{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_file);
    let opts = blameit_lint::WsOptions {
        cache_file: Some(cache_file.clone()),
    };
    let cold = blameit_lint::analyze_workspace(&tree, &opts).expect("cold analysis");
    let warm = blameit_lint::analyze_workspace(&tree, &opts).expect("warm analysis");
    let _ = std::fs::remove_file(&cache_file);
    assert_eq!(cold.cache_stats, (0, cold.files.len()), "cold: all misses");
    assert_eq!(warm.cache_stats, (warm.files.len(), 0), "warm: all hits");
    assert!(!cold.files.is_empty());
    assert_eq!(cold.report().render_json(), warm.report().render_json());
    assert_eq!(cold.effect_map_json(), warm.effect_map_json());
}

#[test]
fn workspace_is_clean() {
    // The tree must lint clean with the checked-in lint.toml — the
    // same gate scripts/verify.sh and the CI lint job enforce.
    let report = run_workspace(&repo_root()).expect("workspace lint runs");
    assert!(
        report.ok(),
        "workspace has lint violations:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "walker found too few files");
}
