//! The suppression auditor.
//!
//! Every escape hatch must keep paying rent: an inline `lint:allow`
//! that suppresses nothing and a `lint.toml` prefix that matches no
//! finding are reported as `stale-suppression` findings, so the
//! allowlist can only shrink unless a human re-justifies it. Liveness
//! is usage-based — the resolver and the effect propagation mark every
//! annotation and config entry they consume — which keeps the audit
//! exactly consistent with what suppression actually did this run
//! (including boundary annotations that never map to a report line).
//!
//! Stale findings are themselves suppressible once
//! (`lint:allow(stale-suppression): …` or a config prefix), e.g. to
//! hold an annotation through a migration window; a stale-suppression
//! escape that in turn suppresses nothing is reported directly, with
//! no further recursion.

use crate::config::Config;
use crate::diag::{Diagnostic, Report, Suppressed};
use crate::{resolve_diag, FileAnalysis, Uses, STALE_SUPPRESSION};

/// Runs the audit over the whole workspace and appends its findings
/// (and their suppressions) to `report`. `uses` must already contain
/// every annotation/config consumption from rule resolution and effect
/// propagation.
pub fn run(files: &[FileAnalysis], cfg: &Config, uses: &mut Uses, report: &mut Report) {
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
        resolve_diag(&files[fi], fi, cfg, d, uses, report);
    }

    // Stale lint.toml prefixes. Their findings anchor at lint.toml
    // itself; only a config prefix over "lint.toml" could suppress
    // them (there is no annotation syntax in TOML).
    for e in &cfg.entries {
        if e.rule == STALE_SUPPRESSION || uses.config.contains(&(e.rule.clone(), e.prefix.clone()))
        {
            continue;
        }
        let d = Diagnostic {
            rule: STALE_SUPPRESSION,
            path: "lint.toml".to_string(),
            line: e.line,
            col: 1,
            message: format!(
                "allow prefix `{}` for `{}` matches no finding anywhere in the tree; remove the entry",
                e.prefix, e.rule
            ),
            snippet: format!("{} = [.. \"{}\" ..]", e.rule, e.prefix),
            witness: Vec::new(),
        };
        if let Some(prefix) = cfg.allowing_prefix(STALE_SUPPRESSION, "lint.toml") {
            uses.config
                .insert((STALE_SUPPRESSION.to_string(), prefix.to_string()));
            report.suppressed.push(Suppressed {
                rule: STALE_SUPPRESSION,
                path: d.path,
                line: d.line,
                how: "config",
                reason: String::new(),
            });
        } else {
            report.diagnostics.push(d);
        }
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
    for e in &cfg.entries {
        if e.rule != STALE_SUPPRESSION || uses.config.contains(&(e.rule.clone(), e.prefix.clone()))
        {
            continue;
        }
        report.diagnostics.push(Diagnostic {
            rule: STALE_SUPPRESSION,
            path: "lint.toml".to_string(),
            line: e.line,
            col: 1,
            message: format!(
                "stale-suppression prefix `{}` shields no stale escape; remove the entry",
                e.prefix
            ),
            snippet: format!("{} = [.. \"{}\" ..]", e.rule, e.prefix),
            witness: Vec::new(),
        });
    }
}
