//! Whole-workspace call graph over the parsed items.
//!
//! Name resolution is heuristic — the lexer-level parser has no type
//! information — and tuned to *under*-approximate rather than flood:
//! a call edge the resolver cannot place with reasonable confidence is
//! dropped (the analysis misses a propagation), never guessed across
//! the whole workspace (which would taint everything through common
//! method names like `len` or `get`). The rules:
//!
//! - free calls (`foo(...)`) resolve by name, preferring same-file
//!   definitions, then same-crate, then workspace-unique;
//! - path calls (`Qual::foo(...)`) additionally require the qualifier
//!   to match the definition's `impl` type, module, or file stem when
//!   more than one candidate exists;
//! - method calls (`x.foo(...)`) resolve only when the method name is
//!   defined by same-file candidates or is unique workspace-wide;
//! - `use orig as alias` renames are applied before lookup.
//!
//! Everything is index-based and sorted, so graph construction and
//! traversal order are byte-deterministic across platforms.

use crate::parse::{CallKind, FileItems, FnItem};
use std::collections::BTreeMap;

/// One function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file path.
    pub file: String,
    /// The parsed item (name, impl type, body extent, call sites).
    pub item: FnItem,
}

impl FnNode {
    /// `module::Type::name` display key.
    pub fn qual(&self) -> String {
        self.item.qual()
    }

    /// Top-level crate prefix of the file (`crates/core/`), used for
    /// same-crate resolution preference.
    pub fn crate_prefix(&self) -> &str {
        crate_prefix(&self.file)
    }
}

/// `crates/<name>/` prefix of a workspace path, or the first path
/// segment for root `src/`/`tests/` files.
pub fn crate_prefix(path: &str) -> &str {
    let mut slashes = 0usize;
    for (i, b) in path.bytes().enumerate() {
        if b == b'/' {
            slashes += 1;
            let want = if path.starts_with("crates/") { 2 } else { 1 };
            if slashes == want {
                return &path[..=i];
            }
        }
    }
    path
}

/// Method/free names that std's prelude and core traits define on
/// practically every type (`x.clone()`, `w.write(..)`, `it.collect()`).
/// A workspace-unique local definition with one of these names is far
/// more likely to be shadowed by the std method at any given call site
/// than to be its target, so cross-file resolution never commits to
/// them — only a same-file definition counts.
const UBIQUITOUS_NAMES: &[&str] = &[
    "add",
    "as_bytes",
    "as_ref",
    "as_str",
    "borrow",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "count",
    "default",
    "drain",
    "entry",
    "eq",
    "extend",
    "filter",
    "find",
    "flush",
    "fold",
    "from",
    "get",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "join",
    "last",
    "len",
    "load",
    "map",
    "max",
    "min",
    "new",
    "next",
    "open",
    "parse",
    "push",
    "read",
    "remove",
    "retain",
    "rev",
    "set",
    "sort",
    "split",
    "store",
    "sub",
    "sum",
    "take",
    "to_string",
    "trim",
    "write",
];

/// A resolved edge: `caller` (node index) calls `callee` at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub caller: u32,
    pub callee: u32,
    pub line: u32,
    pub col: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Nodes sorted by (file, line): index order is canonical.
    pub nodes: Vec<FnNode>,
    /// Resolved edges, sorted; parallel adjacency built on demand.
    pub edges: Vec<Edge>,
    /// Outgoing adjacency: `out[i]` = indices into `edges`, sorted.
    pub out: Vec<Vec<u32>>,
    /// Incoming adjacency: `incoming[i]` = indices into `edges`.
    pub incoming: Vec<Vec<u32>>,
}

impl CallGraph {
    /// Builds the graph from per-file parsed items. `files` must be
    /// sorted by path (the workspace walker guarantees it).
    pub fn build(files: &[(&str, &FileItems)]) -> CallGraph {
        let mut nodes = Vec::new();
        for (path, items) in files {
            for f in &items.fns {
                nodes.push(FnNode {
                    file: path.to_string(),
                    item: f.clone(),
                });
            }
        }
        nodes.sort_by(|a, b| {
            (&a.file, a.item.line, a.item.col, &a.item.name).cmp(&(
                &b.file,
                b.item.line,
                b.item.col,
                &b.item.name,
            ))
        });

        // Name index over non-test definitions.
        let mut by_name: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if !n.item.in_test {
                by_name.entry(&n.item.name).or_default().push(i as u32);
            }
        }

        // Per-file alias maps.
        let aliases: BTreeMap<&str, BTreeMap<&str, &str>> = files
            .iter()
            .map(|(path, items)| {
                let m: BTreeMap<&str, &str> = items
                    .aliases
                    .iter()
                    .filter(|a| a.alias != a.target)
                    .map(|a| (a.alias.as_str(), a.target.as_str()))
                    .collect();
                (*path, m)
            })
            .collect();

        let mut edges = Vec::new();
        for (ci, caller) in nodes.iter().enumerate() {
            if caller.item.in_test {
                continue;
            }
            let renames = aliases.get(caller.file.as_str());
            for call in &caller.item.calls {
                let name = renames
                    .and_then(|m| m.get(call.name.as_str()).copied())
                    .unwrap_or(call.name.as_str());
                let Some(cands) = by_name.get(name) else {
                    continue;
                };
                if let Some(callee) = resolve(&nodes, caller, call.kind, &call.qualifier, cands) {
                    if callee != ci as u32 {
                        edges.push(Edge {
                            caller: ci as u32,
                            callee,
                            line: call.line,
                            col: call.col,
                        });
                    }
                }
            }
        }
        edges.sort();
        edges.dedup_by(|a, b| (a.caller, a.callee) == (b.caller, b.callee));

        let mut out = vec![Vec::new(); nodes.len()];
        let mut incoming = vec![Vec::new(); nodes.len()];
        for (ei, e) in edges.iter().enumerate() {
            out[e.caller as usize].push(ei as u32);
            incoming[e.callee as usize].push(ei as u32);
        }
        CallGraph {
            nodes,
            edges,
            out,
            incoming,
        }
    }
}

/// Picks the definition a call site refers to, or `None` when the
/// heuristics cannot commit to one.
fn resolve(
    nodes: &[FnNode],
    caller: &FnNode,
    kind: CallKind,
    qualifier: &str,
    cands: &[u32],
) -> Option<u32> {
    debug_assert!(!cands.is_empty());
    let same_file: Vec<u32> = cands
        .iter()
        .copied()
        .filter(|&i| nodes[i as usize].file == caller.file)
        .collect();
    // Ubiquitous std names: trust only local evidence (same file, or an
    // explicit corroborated path qualifier below).
    if !matches!(kind, CallKind::Path)
        && UBIQUITOUS_NAMES.contains(&nodes[cands[0] as usize].item.name.as_str())
    {
        return (same_file.len() == 1).then(|| same_file[0]);
    }
    match kind {
        CallKind::Method => {
            // Method names are the ambiguity hot spot (`len`, `get`,
            // `new`): commit only with local or unique evidence.
            if same_file.len() == 1 {
                Some(same_file[0])
            } else if same_file.is_empty() && cands.len() == 1 {
                Some(cands[0])
            } else {
                first_in_crate_if_unique(nodes, caller, &same_file, cands)
            }
        }
        CallKind::Path => {
            // The qualifier must corroborate: impl type, module tail,
            // or file stem. `Self::helper` matches the caller's type.
            let matches_qual = |i: u32| -> bool {
                let n = &nodes[i as usize];
                let stem = n
                    .file
                    .rsplit('/')
                    .next()
                    .and_then(|f| f.strip_suffix(".rs"))
                    .unwrap_or("");
                qualifier == n.item.self_ty
                    || n.item.module.rsplit("::").next() == Some(qualifier)
                    || qualifier == stem
                    || (qualifier == "Self"
                        && !caller.item.self_ty.is_empty()
                        && n.item.self_ty == caller.item.self_ty
                        && n.crate_prefix() == caller.crate_prefix())
                    || (qualifier == "crate" && n.crate_prefix() == caller.crate_prefix())
            };
            let hits: Vec<u32> = cands.iter().copied().filter(|&i| matches_qual(i)).collect();
            match hits.len() {
                1 => Some(hits[0]),
                0 if cands.len() == 1 => Some(cands[0]),
                0 => None,
                // Qualifier matched several (same type name in two
                // crates): prefer the caller's own file, then crate.
                _ => hits
                    .iter()
                    .copied()
                    .find(|&i| nodes[i as usize].file == caller.file)
                    .or_else(|| {
                        let in_crate: Vec<u32> = hits
                            .iter()
                            .copied()
                            .filter(|&i| nodes[i as usize].crate_prefix() == caller.crate_prefix())
                            .collect();
                        (in_crate.len() == 1).then(|| in_crate[0])
                    }),
            }
        }
        CallKind::Free => {
            if same_file.len() == 1 {
                Some(same_file[0])
            } else if same_file.len() > 1 {
                // Two same-file defs with one name (different impls):
                // prefer the caller's own impl type.
                same_file
                    .iter()
                    .copied()
                    .find(|&i| nodes[i as usize].item.self_ty == caller.item.self_ty)
            } else if cands.len() == 1 {
                Some(cands[0])
            } else {
                first_in_crate_if_unique(nodes, caller, &same_file, cands)
            }
        }
    }
}

/// Falls back to "exactly one candidate in the caller's crate".
fn first_in_crate_if_unique(
    nodes: &[FnNode],
    caller: &FnNode,
    same_file: &[u32],
    cands: &[u32],
) -> Option<u32> {
    if !same_file.is_empty() {
        return None;
    }
    let in_crate: Vec<u32> = cands
        .iter()
        .copied()
        .filter(|&i| nodes[i as usize].crate_prefix() == caller.crate_prefix())
        .collect();
    (in_crate.len() == 1).then(|| in_crate[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(&str, FileItems)> = files
            .iter()
            .map(|(p, src)| (*p, parse_items(&lex(src).toks)))
            .collect();
        let borrowed: Vec<(&str, &FileItems)> = parsed.iter().map(|(p, i)| (*p, i)).collect();
        CallGraph::build(&borrowed)
    }

    fn edge_names(g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| {
                (
                    g.nodes[e.caller as usize].qual(),
                    g.nodes[e.callee as usize].qual(),
                )
            })
            .collect()
    }

    #[test]
    fn cross_file_free_call_resolves_when_unique() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn alpha() { beta(); }"),
            ("crates/b/src/lib.rs", "fn beta() { }"),
        ]);
        assert_eq!(edge_names(&g), vec![("alpha".into(), "beta".into())]);
    }

    #[test]
    fn same_file_wins_over_cross_crate() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn run() { helper(); }\nfn helper() {}",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        let e = edge_names(&g);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].0, "run");
        assert_eq!(
            g.nodes[g.edges[0].callee as usize].file,
            "crates/a/src/lib.rs"
        );
    }

    #[test]
    fn ambiguous_method_calls_drop() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn go(x: W) { x.len(); }"),
            ("crates/b/src/lib.rs", "impl V { fn len(&self) {} }"),
            ("crates/c/src/lib.rs", "impl W { fn len(&self) {} }"),
        ]);
        assert!(edge_names(&g).is_empty(), "two candidate `len`s: no edge");
    }

    #[test]
    fn unique_method_resolves() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn go(x: W) { x.observe_rtt(); }"),
            ("crates/b/src/lib.rs", "impl W { fn observe_rtt(&self) {} }"),
        ]);
        assert_eq!(edge_names(&g), vec![("go".into(), "W::observe_rtt".into())]);
    }

    #[test]
    fn path_calls_need_matching_qualifier() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn go() { Widget::make(); Other::make(); }",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Widget { fn make() {} }\nimpl Gadget { fn make() {} }",
            ),
        ]);
        assert_eq!(
            edge_names(&g),
            vec![("go".into(), "Widget::make".into())],
            "Other::make matches no impl and must drop"
        );
    }

    #[test]
    fn use_renames_resolve_to_target() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "use b::orig_name as short;\nfn go() { short(); }",
            ),
            ("crates/b/src/lib.rs", "fn orig_name() {}"),
        ]);
        assert_eq!(edge_names(&g), vec![("go".into(), "orig_name".into())]);
    }

    #[test]
    fn test_fns_are_outside_the_graph() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "#[test]\nfn t() { target(); }\nfn target() {}\nfn prod() { target(); }",
        )]);
        assert_eq!(edge_names(&g), vec![("prod".into(), "target".into())]);
    }

    #[test]
    fn crate_prefix_shapes() {
        assert_eq!(crate_prefix("crates/core/src/pipeline.rs"), "crates/core/");
        assert_eq!(crate_prefix("src/lib.rs"), "src/");
        assert_eq!(crate_prefix("tests/props.rs"), "tests/");
    }
}
