//! `blameit-lint` — workspace static analysis for the determinism
//! contract.
//!
//! Every subsystem in this workspace (sharded tick, chaos layer,
//! durable snapshots + journal replay) rests on one invariant: for a
//! fixed seed and fault plan, the tick transcript is byte-identical at
//! any thread count. The dynamic suites (golden transcripts, 6-seed
//! determinism matrices, persist fuzz) catch violations only when a
//! scenario happens to exercise them; this crate makes the common
//! hazard classes a compile-gate instead. See `rules` for the rule
//! set and `docs/ARCHITECTURE.md` for the rule ↔ dynamic-suite table.
//!
//! Since the interprocedural upgrade the pipeline has two layers:
//!
//! 1. **analyze** (per file): lex, run every in-scope lexical rule
//!    pre-suppression, extract direct effect sites, and parse items
//!    (`fn`s, `impl` blocks, `use` aliases, call sites). The result is
//!    a pure function of (path, content), recomputed every run — the
//!    whole tree analyzes in well under a second.
//! 2. **resolve** (whole workspace): apply suppression (annotations
//!    first, then the rule row's exemptions), build the call graph
//!    (`callgraph`), propagate effects caller-ward with witness paths
//!    (`effects`), and audit every suppression for staleness (`audit`).
//!
//! The crate is dependency-free by design: it carries its own small
//! Rust lexer (`lexer`) instead of `syn`, so linting the workspace
//! costs one token pass per file and no build-dependency closure.

pub mod audit;
pub mod callgraph;
pub mod diag;
pub mod effects;
pub mod lexer;
pub mod parse;
pub mod rules;

use diag::{Diagnostic, Report, Suppressed};
use lexer::AllowComment;
use parse::FileItems;
use rules::{FileCtx, Rule, Scope};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Rule ID of the interprocedural effect pass.
pub const TRANSITIVE_EFFECT: &str = "transitive-effect";
/// Rule ID of the suppression auditor.
pub const STALE_SUPPRESSION: &str = "stale-suppression";

/// Everything the per-file analysis layer produces: raw (pre-
/// suppression) rule findings, direct effect sites, allow annotations
/// with their target lines, and the parsed items for the call graph.
/// A pure function of (path, content).
#[derive(Debug, Default, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Raw lexical-rule findings, before any suppression.
    pub diags: Vec<Diagnostic>,
    /// Direct effect sites, independent of rule path scoping.
    pub sites: Vec<effects::EffectSite>,
    /// `lint:allow` annotations found in comments.
    pub allows: Vec<AllowComment>,
    /// Per annotation: the last line it covers (the next line bearing
    /// a token, for own-line comments above a statement).
    pub allow_targets: Vec<u32>,
    /// Parsed `fn` items, call sites, and `use` aliases.
    pub items: FileItems,
    /// Per fn (parallel to `items.fns`): body line range, inclusive.
    pub fn_lines: Vec<(u32, u32)>,
    /// Per fn: the trimmed source line of the `fn` keyword, used as
    /// the snippet on transitive findings.
    pub fn_sigs: Vec<String>,
}

/// Analyzes one file's source text under its workspace-relative
/// `path`. `path` decides rule scoping (e.g. `panic-in-decode` only
/// fires in persist decode files), which is why fixtures are analyzed
/// under *virtual* paths.
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
    let ctx = FileCtx {
        path,
        toks: &lexed.toks,
        lines: &lines,
    };
    let mut diags = Vec::new();
    rules::check_file(&ctx, &mut diags);
    let sites = effects::direct_sites(&ctx);
    let items = parse::parse_items(&lexed.toks);

    let token_lines: BTreeSet<u32> = lexed.toks.iter().map(|t| t.line).collect();
    let allow_targets: Vec<u32> = lexed
        .allows
        .iter()
        .map(|a| {
            token_lines
                .range(a.line + 1..)
                .next()
                .copied()
                .unwrap_or(a.line)
        })
        .collect();

    let fn_lines: Vec<(u32, u32)> = items
        .fns
        .iter()
        .map(|f| {
            let (_, end) = f.body;
            if end == 0 {
                (f.line, f.line)
            } else {
                let hi = lexed
                    .toks
                    .get(end as usize)
                    .map(|t| t.line)
                    .unwrap_or(f.line);
                (f.line, hi.max(f.line))
            }
        })
        .collect();
    let fn_sigs: Vec<String> = items
        .fns
        .iter()
        .map(|f| {
            lines
                .get(f.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default()
        })
        .collect();

    FileAnalysis {
        path: path.to_string(),
        diags,
        sites,
        allows: lexed.allows,
        allow_targets,
        items,
        fn_lines,
        fn_sigs,
    }
}

/// How one raw finding at `(rule, line)` resolves against a file's
/// annotations and the rule's exemptions. Annotations are consulted
/// first so the suppression audit attributes liveness to the most
/// specific escape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Suppressed by `fa.allows[idx]`.
    Annotation(usize),
    /// Suppressed by this `(rule id, prefix)` exemption of the rule's row.
    Exempt((&'static str, &'static str)),
    /// Not suppressed: a real violation.
    Open,
}

/// Resolves one site. An annotation covers every line from its own
/// down to the next token-bearing line (so a stack of comment-line
/// annotations covers the statement below all of them).
pub fn resolve_site(fa: &FileAnalysis, rule: &str, line: u32) -> Resolution {
    for (ai, a) in fa.allows.iter().enumerate() {
        if a.rule == rule && a.line <= line && line <= fa.allow_targets[ai].max(a.line) {
            return Resolution::Annotation(ai);
        }
    }
    rules::exemption(rule, &fa.path).map_or(Resolution::Open, Resolution::Exempt)
}

/// Liveness ledger for the suppression audit: every annotation and
/// exemption that suppressed (or absorbed) something this run.
#[derive(Debug, Default)]
pub struct Uses {
    /// `(file index, allow index)` pairs.
    pub annotations: BTreeSet<(usize, usize)>,
    /// `(rule, prefix)` pairs.
    pub exemptions: BTreeSet<(&'static str, &'static str)>,
}

/// Resolves one raw diagnostic from `fa` (file index `fi`) into
/// `report` — a violation or a suppression — recording which escape
/// consumed it in `uses`.
pub fn resolve_diag(
    fa: &FileAnalysis,
    fi: usize,
    d: Diagnostic,
    uses: &mut Uses,
    report: &mut Report,
) {
    let (how, reason) = match resolve_site(fa, d.rule, d.line) {
        Resolution::Annotation(ai) => {
            uses.annotations.insert((fi, ai));
            ("annotation", fa.allows[ai].reason.clone())
        }
        Resolution::Exempt(exemption) => {
            uses.exemptions.insert(exemption);
            ("exemption", String::new())
        }
        Resolution::Open => {
            report.diagnostics.push(d);
            return;
        }
    };
    report.suppressed.push(Suppressed {
        rule: d.rule,
        path: d.path,
        line: d.line,
        how,
        reason,
    });
}

/// Lints one file's source text, appending into `report`. Lexical
/// rules plus suppression only — the interprocedural passes need the
/// whole workspace and run in [`run_workspace`].
pub fn lint_source(path: &str, src: &str, report: &mut Report) {
    let fa = analyze_source(path, src);
    let mut uses = Uses::default();
    for d in fa.diags.iter().cloned() {
        resolve_diag(&fa, 0, d, &mut uses, report);
    }
}

/// Collects the `.rs` files the workspace lint covers: everything under
/// `crates/`, `src/`, `tests/`, and `examples/`, excluding build
/// output and lint fixtures (fixtures are deliberately-bad code,
/// exercised by `--self-check` and the fixture tests instead).
pub fn walk_workspace(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut out);
    }
    // Canonical order keeps reports byte-stable across platforms.
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lints the whole workspace rooted at `root`: analyzes every file,
/// builds the call graph and propagates effects, then resolves the
/// lexical rules, the transitive-effect pass and the suppression audit
/// into one report.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    for path in walk_workspace(root) {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: read failed: {e}", path.display()))?;
        files.push(analyze_source(&rel_path(root, &path), &src));
    }

    let parsed: Vec<(&str, &FileItems)> =
        files.iter().map(|f| (f.path.as_str(), &f.items)).collect();
    let graph = callgraph::CallGraph::build(&parsed);
    let taint = effects::propagate(&files, &graph);

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut uses = Uses::default();
    uses.annotations
        .extend(taint.used_annotations.iter().copied());
    uses.exemptions
        .extend(taint.used_exemptions.iter().copied());
    for (fi, fa) in files.iter().enumerate() {
        for d in fa.diags.iter().cloned() {
            resolve_diag(fa, fi, d, &mut uses, &mut report);
        }
    }
    for (fi, d) in effects::findings(&files, &graph, &taint) {
        resolve_diag(&files[fi], fi, d, &mut uses, &mut report);
    }
    audit::run(&files, &mut uses, &mut report);
    report.sort();
    Ok(report)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The virtual workspace paths a rule's fixtures are linted under,
/// derived from the rule's own `scope` so a scoped rule fires on them:
/// one per scope prefix (never empty), so a prefix dropped from — or
/// mistyped in — a rule's scope fails the self-check.
pub fn fixture_virtual_paths(rule: &Rule) -> Vec<String> {
    let file = format!("fixture_{}.rs", rule.id.replace('-', "_"));
    let prefixes = match rule.scope {
        Scope::Under(prefixes) if !prefixes.is_empty() => prefixes,
        _ => &["crates/core/src/"],
    };
    // A full path in the scope names the file itself.
    let under = |p: &&str| match p.ends_with(".rs") {
        true => p.to_string(),
        false => format!("{p}{file}"),
    };
    prefixes.iter().map(under).collect()
}

/// Outcome of checking one fixture file (or pass fixture tree).
#[derive(Debug)]
pub struct FixtureResult {
    pub rule: String,
    pub file: String,
    pub pass: bool,
    pub detail: String,
}

fn fixture_result(id: &str, file: String, kind: &str, report: &Report) -> FixtureResult {
    let hits = report.diagnostics.iter().filter(|d| d.rule == id).count();
    let suppressed = report
        .suppressed
        .iter()
        .filter(|s| s.rule == id && s.how == "annotation" && !s.reason.is_empty())
        .count();
    let (pass, detail) = match kind {
        "bad" => (hits >= 1, format!("{hits} diagnostic(s), expected >= 1")),
        "good" => (hits == 0, format!("{hits} diagnostic(s), expected 0")),
        _ => (
            hits == 0 && suppressed >= 1,
            format!(
                "{hits} diagnostic(s) (expected 0), {suppressed} reasoned suppression(s) (expected >= 1)"
            ),
        ),
    };
    FixtureResult {
        rule: id.to_string(),
        file,
        pass,
        detail,
    }
}

/// Runs every rule's bad/good/allow fixtures under
/// `crates/lint/tests/fixtures/<rule>/` and checks the contract:
/// `bad.rs` trips the rule, `good.rs` is clean, `allow.rs` is clean
/// *because* of annotations (suppressions present, reasons recorded),
/// each under every path prefix of the rule's scope.
/// The two interprocedural passes check the same contract over
/// bad/good/allow *mini-workspace trees* (each a root with its own
/// `crates/`), since they need call graphs, not single files.
pub fn self_check(root: &Path) -> Result<Vec<FixtureResult>, String> {
    let fixtures = root.join("crates/lint/tests/fixtures");
    let mut results = Vec::new();
    for rule in rules::RULES {
        let id = rule.id;
        for kind in ["bad", "good", "allow"] {
            let fpath = fixtures.join(id).join(format!("{kind}.rs"));
            let src = std::fs::read_to_string(&fpath)
                .map_err(|e| format!("{}: read failed: {e}", fpath.display()))?;
            for vpath in fixture_virtual_paths(rule) {
                let mut report = Report::default();
                lint_source(&vpath, &src, &mut report);
                let file = format!("{id}/{kind}.rs as {vpath}");
                results.push(fixture_result(id, file, kind, &report));
            }
        }
    }
    for id in [TRANSITIVE_EFFECT, STALE_SUPPRESSION] {
        for kind in ["bad", "good", "allow"] {
            let report = run_workspace(&fixtures.join(id).join(kind))
                .map_err(|e| format!("{id}/{kind}: {e}"))?;
            if report.files_scanned == 0 {
                return Err(format!("{id}/{kind}: fixture tree has no files"));
            }
            results.push(fixture_result(id, format!("{id}/{kind}/"), kind, &report));
        }
    }
    Ok(results)
}
