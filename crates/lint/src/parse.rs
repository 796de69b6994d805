//! A lightweight item parser on top of the lexer.
//!
//! The interprocedural effect analysis needs just enough structure to
//! build a call graph: which `fn` items a file defines (with their
//! body extents), which `impl` type or `mod` they live under, which
//! names `use` declarations pull in or rename, and which calls each
//! body makes. Like the lexer, this is deliberately not a full Rust
//! parser — it is a single brace-tracking pass over the token stream
//! that never fails (see the fuzz-mutation property test in
//! `tests/lint_fuzz.rs`): on confusing input it may miss an item or a
//! call edge, which degrades the analysis to fewer findings, never to
//! a panic or a false transcript of the program.

use crate::lexer::{Tok, TokKind};

/// How a call site names its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(...)` — a bare name in scope.
    Free,
    /// `Qualifier::foo(...)` — the last path segment before the name
    /// is recorded as the qualifier (a type, module, or crate name).
    Path,
    /// `receiver.foo(...)` — resolved by method name only, and only
    /// when the name is unambiguous (see `callgraph`).
    Method,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (last path segment).
    pub name: String,
    /// For [`CallKind::Path`] calls, the segment before the name
    /// (`Instant` in `Instant::now(...)`, `codec` in `codec::crc32(...)`).
    pub qualifier: String,
    pub kind: CallKind,
    pub line: u32,
    pub col: u32,
}

/// One `fn` item with its body extent and outgoing calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type name, empty for free functions.
    pub self_ty: String,
    /// Enclosing inline `mod` path (`a::b`), empty at file scope.
    pub module: String,
    /// Line/column of the `fn` keyword (diagnostics anchor here).
    pub line: u32,
    pub col: u32,
    /// Token-index range of the body, `[start, end]` inclusive of the
    /// braces. `(0, 0)` for bodyless trait declarations.
    pub body: (u32, u32),
    /// True when the item sits in a `#[cfg(test)]` region or `#[test]`
    /// function — excluded from the effect analysis entirely.
    pub in_test: bool,
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// Display key: `module::Type::name` with empty segments elided.
    pub fn qual(&self) -> String {
        let mut out = String::new();
        for part in [&self.module, &self.self_ty] {
            if !part.is_empty() {
                out.push_str(part);
                out.push_str("::");
            }
        }
        out.push_str(&self.name);
        out
    }
}

/// A `use` rename: `use path::orig as alias;` maps `alias` back to
/// `orig` so call-site names still resolve to the definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseAlias {
    pub alias: String,
    pub target: String,
}

/// Parsed items of one file.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub aliases: Vec<UseAlias>,
}

/// Words that look like `ident (` but are not calls.
fn is_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "fn"
            | "let"
            | "in"
            | "as"
            | "move"
            | "mut"
            | "ref"
            | "where"
            | "impl"
            | "dyn"
            | "pub"
            | "use"
            | "else"
            | "break"
            | "continue"
            | "unsafe"
            | "await"
    )
}

/// What an opening brace belongs to, for the owner stack.
#[derive(Debug, Clone)]
enum Owner {
    /// A function body; index into `FileItems::fns`.
    Fn(usize),
    /// An `impl` block for the named type.
    Impl(String),
    /// An inline `mod` block.
    Mod(String),
    /// Anything else: blocks, closures, match arms, initializers.
    Other,
}

/// A keyword seen but whose `{` has not arrived yet.
#[derive(Debug, Clone)]
enum Pending {
    Fn {
        name: String,
        line: u32,
        col: u32,
        in_test: bool,
    },
    Impl(String),
    Mod(String),
}

/// Extracts items and call sites from a lexed token stream.
pub fn parse_items(toks: &[Tok]) -> FileItems {
    let mut out = FileItems::default();
    // Owner per open brace, innermost last. Also tracked: the current
    // impl type and module path for qualifying new fn items.
    let mut stack: Vec<Owner> = Vec::new();
    let mut pending: Option<Pending> = None;

    let innermost_fn = |stack: &[Owner]| -> Option<usize> {
        stack.iter().rev().find_map(|o| match o {
            Owner::Fn(i) => Some(*i),
            _ => None,
        })
    };
    let impl_ty = |stack: &[Owner]| -> String {
        stack
            .iter()
            .rev()
            .find_map(|o| match o {
                Owner::Impl(t) => Some(t.clone()),
                _ => None,
            })
            .unwrap_or_default()
    };
    let module = |stack: &[Owner]| -> String {
        let parts: Vec<&str> = stack
            .iter()
            .filter_map(|o| match o {
                Owner::Mod(m) => Some(m.as_str()),
                _ => None,
            })
            .collect();
        parts.join("::")
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.is_punct('{') => {
                let owner = match pending.take() {
                    Some(Pending::Fn {
                        name,
                        line,
                        col,
                        in_test,
                    }) => {
                        out.fns.push(FnItem {
                            name,
                            self_ty: impl_ty(&stack),
                            module: module(&stack),
                            line,
                            col,
                            body: (i as u32, i as u32),
                            // The test-region latch marks body tokens,
                            // not the `fn` keyword: check the brace too.
                            in_test: in_test || t.in_test,
                            calls: Vec::new(),
                        });
                        Owner::Fn(out.fns.len() - 1)
                    }
                    Some(Pending::Impl(ty)) => Owner::Impl(ty),
                    Some(Pending::Mod(m)) => Owner::Mod(m),
                    None => Owner::Other,
                };
                stack.push(owner);
            }
            TokKind::Punct if t.is_punct('}') => {
                if let Some(Owner::Fn(idx)) = stack.pop() {
                    out.fns[idx].body.1 = i as u32;
                }
            }
            TokKind::Punct if t.is_punct(';') => {
                // Bodyless item (`fn f();` in a trait, `mod m;`): the
                // pending keyword never gets a block.
                pending = None;
            }
            TokKind::Ident if t.text == "fn" => {
                if let Some(name_tok) = toks.get(i + 1) {
                    if name_tok.kind == TokKind::Ident {
                        pending = Some(Pending::Fn {
                            name: name_tok.text.clone(),
                            line: t.line,
                            col: t.col,
                            in_test: t.in_test,
                        });
                    }
                }
            }
            TokKind::Ident
                if t.text == "impl"
                    && !matches!(pending, Some(Pending::Fn { .. }))
                    && innermost_fn(&stack).is_none() =>
            {
                // Scan the header to `{` or `;`: `impl Foo`, `impl<T>
                // Foo<T>`, `impl Trait for Foo`. `impl Trait` in a
                // return/arg position is followed by `,`/`)`/`>` long
                // before a `{`; those leave `pending` set but the next
                // `{` then mislabels a block as an impl — acceptable
                // for a heuristic, except inside fn bodies where it
                // would steal call attribution; so only scan at item
                // position (the guard above; in a body, `impl` falls
                // through to the call arm where is_call_keyword drops it).
                let mut ty = String::new();
                let mut angle = 0isize;
                let mut j = i + 1;
                while j < toks.len() && j < i + 64 {
                    let h = &toks[j];
                    if h.is_punct('{') || h.is_punct(';') {
                        break;
                    }
                    if h.is_punct('<') {
                        angle += 1;
                    } else if h.is_punct('>') {
                        angle -= 1;
                    } else if h.is_ident("for") && angle == 0 {
                        // `impl Trait for Type`: the implementing
                        // type (after `for`) wins over the trait.
                        ty.clear();
                    } else if h.kind == TokKind::Ident && angle == 0 && ty.is_empty() {
                        ty = h.text.clone();
                    }
                    j += 1;
                }
                if !ty.is_empty() {
                    pending = Some(Pending::Impl(ty));
                }
            }
            TokKind::Ident if t.text == "mod" && innermost_fn(&stack).is_none() => {
                if let Some(name_tok) = toks.get(i + 1) {
                    if name_tok.kind == TokKind::Ident {
                        pending = Some(Pending::Mod(name_tok.text.clone()));
                    }
                }
            }
            TokKind::Ident if t.text == "use" => {
                i = scan_use(toks, i, &mut out.aliases);
                continue;
            }
            TokKind::Ident => {
                // Call site: `name (` not preceded by `fn`, not a
                // keyword, not a macro (`name!(`).
                if let Some(fn_idx) = innermost_fn(&stack) {
                    if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                        && !is_call_keyword(&t.text)
                        && !(i > 0 && toks[i - 1].is_ident("fn"))
                    {
                        let (kind, qualifier) = call_shape(toks, i);
                        out.fns[fn_idx].calls.push(CallSite {
                            name: t.text.clone(),
                            qualifier,
                            kind,
                            line: t.line,
                            col: t.col,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out.aliases
        .sort_by(|a, b| (&a.alias, &a.target).cmp(&(&b.alias, &b.target)));
    out.aliases.dedup();
    out
}

/// Classifies a call at token `i` (an ident followed by `(`).
fn call_shape(toks: &[Tok], i: usize) -> (CallKind, String) {
    if i >= 1 && toks[i - 1].is_punct('.') {
        return (CallKind::Method, String::new());
    }
    if i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].kind == TokKind::Ident
    {
        return (CallKind::Path, toks[i - 3].text.clone());
    }
    (CallKind::Free, String::new())
}

/// Scans a `use …;` declaration from token `start` (the `use` ident),
/// recording `as` renames and plain imports of snake_case names as
/// aliases, and returns the index just past the terminating `;`.
///
/// `use a::b::helper;` yields `helper -> helper` (a marker that the
/// name is imported here); `use a::b::helper as h;` yields
/// `h -> helper`. Groups (`use a::{b, c as d}`) are walked item by
/// item. Glob imports contribute nothing.
fn scan_use(toks: &[Tok], start: usize, out: &mut Vec<UseAlias>) -> usize {
    let mut last_ident = String::new();
    let mut pending_as = false;
    let mut j = start + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(';') {
            break;
        }
        if t.kind == TokKind::Ident {
            if t.text == "as" {
                pending_as = true;
            } else if pending_as {
                if !last_ident.is_empty() {
                    out.push(UseAlias {
                        alias: t.text.clone(),
                        target: last_ident.clone(),
                    });
                }
                pending_as = false;
                last_ident.clear();
            } else {
                last_ident = t.text.clone();
            }
        } else if t.is_punct(',') || t.is_punct('}') {
            // End of one group item: a plain import of the last name.
            if !last_ident.is_empty() && !pending_as {
                out.push(UseAlias {
                    alias: last_ident.clone(),
                    target: last_ident.clone(),
                });
            }
            last_ident.clear();
            pending_as = false;
        }
        j += 1;
    }
    if !last_ident.is_empty() && !pending_as {
        out.push(UseAlias {
            alias: last_ident.clone(),
            target: last_ident,
        });
    }
    j + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        parse_items(&lex(src).toks)
    }

    #[test]
    fn free_fns_and_calls() {
        let fi = items("fn a() { b(); c::d(); x.e(); mac!(f); }\nfn b() {}\n");
        assert_eq!(fi.fns.len(), 2);
        let a = &fi.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.qual(), "a");
        let calls: Vec<(&str, CallKind, &str)> = a
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind, c.qualifier.as_str()))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("b", CallKind::Free, ""),
                ("d", CallKind::Path, "c"),
                ("e", CallKind::Method, ""),
            ]
        );
        assert!(fi.fns[1].calls.is_empty());
    }

    #[test]
    fn impl_and_mod_qualify() {
        let src =
            "mod m {\n impl Widget {\n fn tick(&self) { helper(); }\n }\n fn helper() {}\n}\n";
        let fi = items(src);
        assert_eq!(fi.fns.len(), 2);
        assert_eq!(fi.fns[0].qual(), "m::Widget::tick");
        assert_eq!(fi.fns[1].qual(), "m::helper");
    }

    #[test]
    fn impl_trait_for_type_takes_type() {
        let fi = items("impl Rule for WallClock { fn id(&self) -> &str { name() } }");
        assert_eq!(fi.fns[0].qual(), "WallClock::id");
    }

    #[test]
    fn trait_decls_without_body_are_skipped() {
        let fi = items("trait T { fn must(&self); fn given(&self) { fallback(); } }");
        assert_eq!(fi.fns.len(), 1);
        assert_eq!(fi.fns[0].name, "given");
        assert_eq!(fi.fns[0].calls.len(), 1);
    }

    #[test]
    fn nested_fns_attribute_to_innermost() {
        let fi = items("fn outer() { fn inner() { deep(); } shallow(); }");
        assert_eq!(fi.fns.len(), 2);
        let outer = fi.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fi.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "shallow");
        assert_eq!(inner.calls[0].name, "deep");
    }

    #[test]
    fn closures_attribute_to_enclosing_fn() {
        let fi = items("fn f(v: &[u32]) { v.iter().map(|x| g(x)).count(); }");
        let names: Vec<&str> = fi.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        // `iter`, `map`, `g`, `count` — `g` is in there, attributed to f.
        assert!(names.contains(&"g"));
    }

    #[test]
    fn use_aliases() {
        let fi = items("use a::b::helper;\nuse x::orig as renamed;\nuse y::{one, two as three};\n");
        assert!(fi.aliases.contains(&UseAlias {
            alias: "helper".into(),
            target: "helper".into()
        }));
        assert!(fi.aliases.contains(&UseAlias {
            alias: "renamed".into(),
            target: "orig".into()
        }));
        assert!(fi.aliases.contains(&UseAlias {
            alias: "three".into(),
            target: "two".into()
        }));
        assert!(fi.aliases.contains(&UseAlias {
            alias: "one".into(),
            target: "one".into()
        }));
    }

    #[test]
    fn test_fns_are_marked() {
        let fi = items("#[test]\nfn t() { x(); }\nfn prod() { y(); }\n");
        assert!(fi.fns.iter().find(|f| f.name == "t").unwrap().in_test);
        assert!(!fi.fns.iter().find(|f| f.name == "prod").unwrap().in_test);
    }

    #[test]
    fn unbalanced_input_never_panics() {
        for src in [
            "fn a() { b(",
            "}}}}",
            "fn",
            "impl",
            "use ;;; as as as",
            "fn f() { { { } ",
            "mod m { fn g( }",
        ] {
            let _ = items(src);
        }
    }
}
