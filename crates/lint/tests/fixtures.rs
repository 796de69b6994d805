//! Fixture contract tests: every rule must trip on its `bad.rs`, stay
//! quiet on its `good.rs`, and suppress-with-reason on its `allow.rs`.
//! This is the same check `blameit-lint --self-check` runs in CI, so a
//! rule regression fails both the test suite and the lint job.

use blameit_lint::diag::Report;
use blameit_lint::rules::{Rule, RULES};
use blameit_lint::{fixture_virtual_paths, lint_source, run_workspace, self_check};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Lints `<rule>/<kind>.rs` under the rule's fixture virtual path.
fn lint_fixture(rule: &Rule, kind: &str) -> Report {
    let path = repo_root()
        .join("crates/lint/tests/fixtures")
        .join(rule.id)
        .join(format!("{kind}.rs"));
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let mut report = Report::default();
    let vpath = &fixture_virtual_paths(rule)[0];
    lint_source(vpath, &src, &mut report);
    report
}

#[test]
fn every_fixture_expectation_holds() {
    let results = self_check(&repo_root()).expect("fixtures readable");
    // {bad, good, allow} × (6 single-path lexical rules, the 7 + 6 + 3
    // + 2 scope prefixes of as-cast-truncation, panic-in-decode,
    // sip-hasher and file-io, and the 2 workspace passes).
    assert_eq!(results.len(), 3 * (6 + 18 + 2), "a fixture triple per path");
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
    for rule in RULES {
        let id = rule.id;
        let report = lint_fixture(rule, "allow");
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

/// The 1-based lines `rule_id` flags in its own `bad.rs`.
fn bad_fixture_lines(rule_id: &str) -> Vec<u32> {
    let rule = RULES.iter().find(|r| r.id == rule_id).expect("rule");
    let report = lint_fixture(rule, "bad");
    let hits = report.diagnostics.iter().filter(|d| d.rule == rule_id);
    hits.map(|d| d.line).collect()
}

#[test]
fn merged_rule_fixtures_pin_every_pattern() {
    // `bad.rs` passes the self-check on one hit, so the two rules that
    // absorbed a twin pin each folded pattern by line: `partial_cmp`
    // (10), a float-typed key (15), both in one comparator (22, 22).
    assert_eq!(bad_fixture_lines("float-order"), vec![10, 15, 22, 22]);
    // A moved `for` over a map (6), a re-marked shadowed name (20), and
    // the daemon-style drain that `hash-iteration` used to own (29).
    assert_eq!(bad_fixture_lines("unordered-iteration"), vec![6, 20, 29]);
}

#[test]
fn fixture_virtual_paths_lie_inside_their_rules_scope() {
    for rule in RULES {
        for vpath in fixture_virtual_paths(rule) {
            assert!(
                rule.scope.contains(&vpath),
                "{}: fixture path {vpath} is outside the rule's own scope",
                rule.id
            );
        }
    }
}

#[test]
fn a_tree_holding_the_rule_table_but_no_exempted_site_reports_every_exemption_stale() {
    // The other direction of `workspace_is_clean`: the auditor runs the
    // exemption check on a tree that contains the rule table's file, and
    // `run_workspace` hands it the exemptions resolution consumed — here
    // none, so every row's every prefix is a finding.
    let tree = std::env::temp_dir().join(format!("blameit-lint-stale-{}", std::process::id()));
    let src = tree.join("crates/lint/src");
    std::fs::create_dir_all(&src).expect("temp tree");
    std::fs::write(src.join("rules.rs"), "pub fn stub() {}\n").expect("stub rule table");
    let report = run_workspace(&tree);
    std::fs::remove_dir_all(&tree).expect("temp tree removed");

    let mut want: Vec<String> = RULES
        .iter()
        .flat_map(|r| r.exempt.iter().map(|p| format!("`{p}` of `{}`", r.id)))
        .collect();
    assert_eq!(
        want.len(),
        6,
        "the five prefixes that came from lint.toml, and file-io's seam"
    );
    let report = report.expect("temp tree lints");
    assert_eq!(
        report.diagnostics.len(),
        want.len(),
        "{:?}",
        report.diagnostics
    );
    for d in &report.diagnostics {
        assert_eq!(
            (d.rule, d.path.as_str()),
            ("stale-suppression", "crates/lint/src/rules.rs")
        );
        let at = want.iter().position(|w| d.message.contains(w.as_str()));
        want.remove(at.unwrap_or_else(|| panic!("unexpected finding: {}", d.message)));
    }
}

#[test]
fn workspace_is_clean() {
    // The tree must lint clean — the same gate scripts/verify.sh and the CI lint job enforce.
    let report = run_workspace(&repo_root()).expect("workspace lint runs");
    assert!(
        report.ok(),
        "workspace has lint violations:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "walker found too few files");
}
