//! The suppression auditor.
//!
//! Every escape hatch must keep paying rent: an inline `lint:allow`
//! that suppresses nothing and a rule-row exemption that matches no
//! finding are reported as `stale-suppression` findings, so the
//! allowlist can only shrink unless a human re-justifies it. Liveness
//! is usage-based — the resolver and the effect propagation mark every
//! annotation and exemption they consume — which keeps the audit
//! exactly consistent with what suppression actually did this run
//! (including boundary annotations that never map to a report line).
//!
//! A stale annotation is itself suppressible once
//! (`lint:allow(stale-suppression): …`), e.g. to hold it through a
//! migration window; a stale-suppression escape that in turn
//! suppresses nothing is reported directly, with no further recursion.

use crate::diag::{Diagnostic, Report};
use crate::rules::{Rule, RULES};
use crate::{resolve_diag, FileAnalysis, Uses, STALE_SUPPRESSION};

/// Where the rule table — and so every exemption — is written.
const RULES_FILE: &str = "crates/lint/src/rules.rs";

/// One finding per exemption in `rules` that `uses` never consumed.
fn stale_exemptions(rules: &[Rule], uses: &Uses) -> Vec<Diagnostic> {
    let rows = rules
        .iter()
        .flat_map(|r| r.exempt.iter().map(|p| (r.id, *p)));
    rows.filter(|e| !uses.exemptions.contains(e))
        .map(|(rule, prefix)| Diagnostic {
            rule: STALE_SUPPRESSION,
            path: RULES_FILE.to_string(),
            line: 1,
            col: 1,
            message: format!(
                "exemption `{prefix}` of `{rule}` matches no finding anywhere in the tree; remove it from the rule's row"
            ),
            snippet: format!("{rule}: exempt [.. \"{prefix}\" ..]"),
            witness: Vec::new(),
        })
        .collect()
}

/// Runs the audit over the whole workspace and appends its findings
/// (and their suppressions) to `report`. `uses` must already contain
/// every annotation/exemption consumption from rule resolution and
/// effect propagation.
pub fn run(files: &[FileAnalysis], uses: &mut Uses, report: &mut Report) {
    // Pass 1: stale base-rule escapes, resolved against
    // stale-suppression escapes (which marks *those* as used).
    let mut second_order: Vec<(usize, usize, Diagnostic)> = Vec::new();
    for (fi, fa) in files.iter().enumerate() {
        for (ai, a) in fa.allows.iter().enumerate() {
            if a.rule == STALE_SUPPRESSION || uses.annotations.contains(&(fi, ai)) {
                continue;
            }
            let d = Diagnostic {
                rule: STALE_SUPPRESSION,
                path: fa.path.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "`lint:allow({rule})` suppresses nothing — `{rule}` no longer fires here; remove the annotation or re-justify it",
                    rule = a.rule
                ),
                snippet: format!("// lint:allow({}): {}", a.rule, a.reason),
                witness: Vec::new(),
            };
            second_order.push((fi, ai, d));
        }
    }
    for (fi, _, d) in second_order {
        resolve_diag(&files[fi], fi, d, uses, report);
    }

    // The exemptions speak about the tree the rule table lives in; a
    // fixture tree or a foreign checkout has nothing for them to match.
    if files.iter().any(|f| f.path == RULES_FILE) {
        report.diagnostics.extend(stale_exemptions(RULES, uses));
    }

    // Pass 2: stale-suppression escapes that pass 1 did not consume
    // are themselves stale. Reported directly — the recursion stops
    // here by construction.
    for (fi, fa) in files.iter().enumerate() {
        for (ai, a) in fa.allows.iter().enumerate() {
            if a.rule != STALE_SUPPRESSION || uses.annotations.contains(&(fi, ai)) {
                continue;
            }
            report.diagnostics.push(Diagnostic {
                rule: STALE_SUPPRESSION,
                path: fa.path.clone(),
                line: a.line,
                col: 1,
                message: "`lint:allow(stale-suppression)` shields no stale escape; remove it"
                    .to_string(),
                snippet: format!("// lint:allow({}): {}", a.rule, a.reason),
                witness: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Scope;

    #[test]
    fn an_exemption_nothing_consumed_is_stale_and_a_consumed_one_is_not() {
        let rows = [Rule {
            id: "socket-io",
            summary: "test-only row",
            scope: Scope::All,
            exempt: &["crates/transport/", "crates/daemon/src/server.rs"],
            check: |_, _| {},
        }];
        let mut uses = Uses::default();
        uses.exemptions
            .insert(("socket-io", "crates/daemon/src/server.rs"));
        // (consumed, expected stale prefixes)
        for (uses, want) in [
            (&uses, &["crates/transport/"][..]),
            (
                &Uses::default(),
                &["crates/transport/", "crates/daemon/src/server.rs"][..],
            ),
        ] {
            let stale = stale_exemptions(&rows, uses);
            assert_eq!(stale.len(), want.len());
            for (d, prefix) in stale.iter().zip(want) {
                assert_eq!((d.rule, d.path.as_str()), (STALE_SUPPRESSION, RULES_FILE));
                assert!(d.message.contains(prefix), "{}", d.message);
            }
        }
    }
}
