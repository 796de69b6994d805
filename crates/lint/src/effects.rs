//! Interprocedural effect propagation.
//!
//! Direct effects are seeded by the existing lexical rules (so the two
//! layers can never disagree about what counts as a wall-clock read or
//! a panic site) and then propagated *backwards* over the call graph:
//! a caller inherits every effect its callees carry. A function inside
//! a protected scope ([`PROTECTED`]; the persist decode files for
//! panics) that
//! reaches an effect through any call chain is flagged with the full
//! witness path.
//!
//! Two kinds of suppression shape the flow, and both feed the
//! suppression auditor's usage tracking:
//!
//! - a *justified site* (the base rule's finding at the effect site is
//!   suppressed by annotation or exemption) is a boundary: it seeds
//!   nothing, because a human already vouched for that exact usage;
//! - a *justified function* (`lint:allow(transitive-effect)` at the
//!   `fn`) absorbs taint: its own finding is
//!   suppressed and nothing propagates past it, so one annotation on a
//!   wrapper covers every caller above it.

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::rules::{FileCtx, DECODE_FILES, RULES};
use crate::{resolve_site, FileAnalysis, Resolution, TRANSITIVE_EFFECT};
use std::collections::{BTreeMap, VecDeque};

/// The path prefix whose functions must not *reach* a non-panic effect
/// through any call chain.
pub const PROTECTED: &str = "crates/core/src/";

/// The effect classes the analysis propagates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EffectKind {
    AmbientEntropy,
    PanicLike,
    SocketIo,
    ThreadIdentity,
    WallClock,
}

impl EffectKind {
    pub const ALL: [EffectKind; 5] = [
        EffectKind::AmbientEntropy,
        EffectKind::PanicLike,
        EffectKind::SocketIo,
        EffectKind::ThreadIdentity,
        EffectKind::WallClock,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            EffectKind::AmbientEntropy => "ambient-entropy",
            EffectKind::PanicLike => "panic-like",
            EffectKind::SocketIo => "socket-io",
            EffectKind::ThreadIdentity => "thread-identity",
            EffectKind::WallClock => "wall-clock",
        }
    }

    /// The lexical rule whose suppression justifies a direct site of
    /// this effect (turning it into a propagation boundary).
    pub fn base_rule(self) -> &'static str {
        match self {
            EffectKind::AmbientEntropy => "ambient-entropy",
            EffectKind::PanicLike => "panic-in-decode",
            EffectKind::SocketIo => "socket-io",
            EffectKind::ThreadIdentity => "thread-identity",
            EffectKind::WallClock => "wall-clock",
        }
    }
}

/// One direct effect occurrence in a file, independent of rule path
/// scoping (a panic helper outside `persist/` still *carries* the
/// effect even though `panic-in-decode` would not fire there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSite {
    pub kind: EffectKind,
    pub line: u32,
    pub col: u32,
    /// Short display of what the site does (`Instant::now`,
    /// `.unwrap()`, `TcpStream`), for witness rendering.
    pub what: String,
}

/// Extracts every direct effect site from one file by calling each
/// kind's seeding rule body directly, past the rule's `scope`: the
/// panic rule thereby reports sites in *any* file — scoping back to
/// the protected decode fns happens at emission, not detection.
pub fn direct_sites(ctx: &FileCtx) -> Vec<EffectSite> {
    let mut sites = Vec::new();
    let mut diags = Vec::new();
    for kind in EffectKind::ALL {
        let rule = RULES
            .iter()
            .find(|r| r.id == kind.base_rule())
            .expect("every effect kind is seeded by a table rule");
        (rule.check)(ctx, &mut diags);
        sites.extend(diags.drain(..).map(|d| EffectSite {
            kind,
            line: d.line,
            col: d.col,
            what: short_what(&d.message),
        }));
    }
    sites.sort_by_key(|s| (s.line, s.col, s.kind));
    sites
}

/// The backtick-quoted head of a rule message (`` `Instant::now` reads
/// … `` → `Instant::now`), falling back to the first word.
fn short_what(message: &str) -> String {
    if let Some(rest) = message.strip_prefix('`') {
        if let Some(end) = rest.find('`') {
            return rest[..end].to_string();
        }
    }
    message
        .split_whitespace()
        .next()
        .unwrap_or("effect")
        .to_string()
}

/// How an effect arrived at a function.
#[derive(Debug, Clone)]
pub enum Arrival {
    /// The function's own body contains the (unjustified) site.
    Direct { line: u32, what: String },
    /// Inherited through the call at `graph.edges[edge]`; follow the
    /// callee's arrival to reconstruct the full chain.
    Via { edge: u32 },
}

/// Result of effect propagation over the call graph.
#[derive(Debug, Default)]
pub struct Taint {
    /// Per graph node: which effects it carries and how they arrived.
    pub state: Vec<BTreeMap<EffectKind, Arrival>>,
    /// Node index → index into the workspace file list.
    pub node_file: Vec<usize>,
    /// `(file idx, allow idx)` annotations consumed as boundaries or
    /// absorbers — live suppressions for the audit.
    pub used_annotations: Vec<(usize, usize)>,
    /// `(rule, prefix)` exemptions consumed the same way.
    pub used_exemptions: Vec<(&'static str, &'static str)>,
}

/// Seeds direct effects (minus justified boundaries) and propagates
/// them caller-ward to a fixpoint. Deterministic: nodes, edges, and
/// the BFS queue all follow the canonical sorted order.
pub fn propagate(files: &[FileAnalysis], graph: &CallGraph) -> Taint {
    let mut taint = Taint {
        state: vec![BTreeMap::new(); graph.nodes.len()],
        ..Taint::default()
    };

    let file_idx: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    taint.node_file = graph
        .nodes
        .iter()
        .map(|n| *file_idx.get(n.file.as_str()).unwrap_or(&usize::MAX))
        .collect();
    // (file idx, fn def line, fn def col) → node, for seeding.
    let node_at: BTreeMap<(usize, u32, u32), usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| taint.node_file[i] != usize::MAX)
        .map(|(i, n)| ((taint.node_file[i], n.item.line, n.item.col), i))
        .collect();

    // Seed: every unjustified direct site taints its enclosing fn.
    for (fi, fa) in files.iter().enumerate() {
        for site in &fa.sites {
            match resolve_site(fa, site.kind.base_rule(), site.line) {
                Resolution::Annotation(ai) => taint.used_annotations.push((fi, ai)),
                Resolution::Exempt(exemption) => taint.used_exemptions.push(exemption),
                Resolution::Open => {
                    let Some(k) = enclosing_fn(fa, site.line) else {
                        continue;
                    };
                    if fa.items.fns[k].in_test {
                        continue;
                    }
                    let key = (fi, fa.items.fns[k].line, fa.items.fns[k].col);
                    if let Some(&node) = node_at.get(&key) {
                        taint.state[node]
                            .entry(site.kind)
                            .or_insert(Arrival::Direct {
                                line: site.line,
                                what: site.what.clone(),
                            });
                    }
                }
            }
        }
    }

    // Reverse BFS per effect kind, seeds in node order. A function
    // whose transitive finding is already justified absorbs the taint:
    // it is marked (so the suppression shows up in reports and the
    // annotation counts as live) but never enqueued.
    for kind in EffectKind::ALL {
        let mut queue: VecDeque<usize> = (0..graph.nodes.len())
            .filter(|&n| matches!(taint.state[n].get(&kind), Some(Arrival::Direct { .. })))
            .collect();
        while let Some(n) = queue.pop_front() {
            for &ei in &graph.incoming[n] {
                let e = graph.edges[ei as usize];
                let caller = e.caller as usize;
                if taint.state[caller].contains_key(&kind) {
                    continue;
                }
                let fi = taint.node_file[caller];
                if fi == usize::MAX {
                    continue;
                }
                let fa = &files[fi];
                let def_line = graph.nodes[caller].item.line;
                taint.state[caller].insert(kind, Arrival::Via { edge: ei });
                match resolve_site(fa, TRANSITIVE_EFFECT, def_line) {
                    Resolution::Annotation(ai) => taint.used_annotations.push((fi, ai)),
                    Resolution::Exempt(exemption) => taint.used_exemptions.push(exemption),
                    Resolution::Open => queue.push_back(caller),
                }
            }
        }
    }
    taint.used_annotations.sort_unstable();
    taint.used_annotations.dedup();
    taint.used_exemptions.sort_unstable();
    taint.used_exemptions.dedup();
    taint
}

/// Innermost fn in `fa` whose body line range contains `line`.
fn enclosing_fn(fa: &FileAnalysis, line: u32) -> Option<usize> {
    fa.fn_lines
        .iter()
        .enumerate()
        .filter(|(_, (lo, hi))| *lo <= line && line <= *hi)
        .max_by_key(|(_, (lo, _))| *lo)
        .map(|(k, _)| k)
}

/// Whether `kind`'s protected scope covers `path`: functions there
/// must not reach the effect.
fn protected(kind: EffectKind, path: &str) -> bool {
    match kind {
        EffectKind::PanicLike => DECODE_FILES.contains(&path),
        _ => path.starts_with(PROTECTED),
    }
}

/// Emits raw `transitive-effect` diagnostics (pre-suppression) for
/// every protected-scope function that inherits an effect it does not
/// itself contain, each carrying the full witness chain.
pub fn findings(
    files: &[FileAnalysis],
    graph: &CallGraph,
    taint: &Taint,
) -> Vec<(usize, Diagnostic)> {
    let mut out = Vec::new();
    for (n, state) in taint.state.iter().enumerate() {
        let fi = taint.node_file[n];
        if fi == usize::MAX {
            continue;
        }
        let fa = &files[fi];
        let node = &graph.nodes[n];
        for (&kind, arrival) in state {
            let Arrival::Via { edge } = arrival else {
                continue; // direct sites are the base rules' domain
            };
            if !protected(kind, &fa.path) {
                continue;
            }
            let (chain, witness, seat) = walk_chain(graph, taint, n, kind, *edge);
            let k = enclosing_fn_by_def(fa, node.item.line, node.item.col);
            let snippet = k.map(|k| fa.fn_sigs[k].clone()).unwrap_or_default();
            out.push((
                fi,
                Diagnostic {
                    rule: TRANSITIVE_EFFECT,
                    path: fa.path.clone(),
                    line: node.item.line,
                    col: node.item.col,
                    message: format!(
                        "`{}` transitively reaches `{}` ({} effect): {}; break the chain, inject the effect, or annotate with lint:allow(transitive-effect)",
                        node.qual(),
                        seat.what,
                        kind.as_str(),
                        chain,
                    ),
                    snippet,
                    witness,
                },
            ));
        }
    }
    out
}

struct Seat {
    what: String,
}

/// Follows `Via` arrivals from node `n` down to the seeding site,
/// returning the compact chain (`a → b → c uses X at file:line`), the
/// per-hop witness lines, and the seed description.
fn walk_chain(
    graph: &CallGraph,
    taint: &Taint,
    n: usize,
    kind: EffectKind,
    first_edge: u32,
) -> (String, Vec<String>, Seat) {
    let mut names = vec![graph.nodes[n].qual()];
    let mut witness = Vec::new();
    let mut edge = first_edge;
    // Bounded by node count: arrivals form a forest rooted at seeds.
    for _ in 0..graph.nodes.len() {
        let e = graph.edges[edge as usize];
        let caller = &graph.nodes[e.caller as usize];
        let callee = &graph.nodes[e.callee as usize];
        witness.push(format!(
            "{} calls {} at {}:{}",
            caller.qual(),
            callee.qual(),
            caller.file,
            e.line
        ));
        names.push(callee.qual());
        match taint.state[e.callee as usize].get(&kind) {
            Some(Arrival::Via { edge: next }) => edge = *next,
            Some(Arrival::Direct { line, what }) => {
                witness.push(format!(
                    "{} uses `{}` at {}:{}",
                    callee.qual(),
                    what,
                    callee.file,
                    line
                ));
                let chain = format!(
                    "{} uses `{}` at {}:{}",
                    names.join(" → "),
                    what,
                    callee.file,
                    line
                );
                return (chain, witness, Seat { what: what.clone() });
            }
            None => break,
        }
    }
    let chain = names.join(" → ");
    (
        chain,
        witness,
        Seat {
            what: "an effect".to_string(),
        },
    )
}

/// Index of the fn in `fa` whose def sits at (line, col).
fn enclosing_fn_by_def(fa: &FileAnalysis, line: u32, col: u32) -> Option<usize> {
    fa.items
        .fns
        .iter()
        .position(|f| f.line == line && f.col == col)
}
