//! The determinism rule set.
//!
//! Each rule is a lexical pattern over the token stream of one file,
//! deny-by-default, with two escape hatches handled by the driver: an
//! inline `// lint:allow(<rule>): <reason>` annotation, and the path
//! prefixes in the rule's own `exempt` column. Rules skip
//! `#[cfg(test)]` / `#[test]` regions — the contract binds product
//! code; tests are free to use wall clocks and `unwrap`.
//!
//! Rules are heuristics, deliberately: a lexer cannot prove dataflow.
//! Each one is tuned so that every firing is either a real hazard or a
//! place where a one-line annotation documents *why* it is safe — which
//! is exactly the audit trail the determinism contract wants.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Everything a rule gets to look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    pub toks: &'a [Tok],
    /// Raw source lines (1-based indexing via `line - 1`).
    pub lines: &'a [String],
}

impl FileCtx<'_> {
    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn diag(&self, rule: &'static str, tok: &Tok, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.snippet(tok.line),
            witness: Vec::new(),
        }
    }
}

/// Which files a rule binds. The driver tests it once per (rule,
/// file), so no `check` fn looks at its own path.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every linted file.
    All,
    /// Product sources of every workspace crate: `crates/<any>/src/…`.
    CrateSrc,
    /// Paths starting with one of these prefixes (a full path names
    /// one file).
    Under(&'static [&'static str]),
}

impl Scope {
    pub fn contains(self, path: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::CrateSrc => path
                .strip_prefix("crates/")
                .and_then(|rest| rest.split_once('/'))
                .is_some_and(|(_, rest)| rest.starts_with("src/")),
            Scope::Under(prefixes) => prefixes.iter().any(|p| path.starts_with(p)),
        }
    }
}

/// A determinism rule.
pub struct Rule {
    /// Stable rule ID, used in diagnostics and annotations.
    pub id: &'static str,
    /// One-line description for `--rules` and the docs table.
    pub summary: &'static str,
    pub scope: Scope,
    /// Path prefixes inside `scope` that are exempt as module-level
    /// policy ("this whole subsystem legitimately does X"). Exempted
    /// sites still show up as suppressions in `--json`, and the auditor
    /// flags a prefix that exempts nothing. One-off exceptions belong
    /// in the code as `// lint:allow(<rule>): <reason>` instead.
    pub exempt: &'static [&'static str],
    /// Detection body: appends raw (pre-suppression) findings. Runs
    /// only on files inside `scope`.
    pub check: fn(&FileCtx, &mut Vec<Diagnostic>),
}

/// The full registry, in diagnostic-ID order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "ambient-entropy",
        summary: "rand/RandomState/OS entropy outside DetRng: all randomness must be seed-keyed",
        scope: Scope::All,
        exempt: &[],
        check: ambient_entropy,
    },
    Rule {
        id: "as-cast-truncation",
        summary: "narrowing `as` casts in persist/, the daemon wire codec, the .scn parser and the flag parsers: use try_from or annotate the range proof",
        scope: Scope::Under(&[
            "crates/core/src/persist/",
            "crates/daemon/src/wire.rs",
            "crates/daemon/src/wal.rs",
            "crates/scenario/src/",
            "crates/daemon/src/entry.rs",
            "crates/cli/src/",
            "crates/bench/src/",
        ]),
        exempt: &[],
        check: as_cast_truncation,
    },
    Rule {
        id: "float-order",
        summary: "partial_cmp or f32/f64 keys in sort/min/max comparators: use total_cmp/to_bits or integer keys",
        scope: Scope::All,
        exempt: &[],
        check: float_order,
    },
    Rule {
        id: "panic-in-decode",
        summary: "unwrap/expect/panic!/indexing in persist decode paths: corrupt input must return Err",
        scope: Scope::Under(DECODE_FILES),
        exempt: &[],
        check: panic_in_decode,
    },
    Rule {
        id: "sip-hasher",
        summary: "bare HashMap/HashSet in crates/{core,topology,simnet}: use fxhash::DetHashMap/DetHashSet (deterministic, non-sip)",
        scope: Scope::Under(&[
            "crates/core/src/",
            "crates/topology/src/",
            "crates/simnet/src/",
        ]),
        exempt: &[],
        check: sip_hasher,
    },
    Rule {
        id: "socket-io",
        summary: "TcpListener/TcpStream/UdpSocket: keep sockets at the edges",
        scope: Scope::All,
        // Sockets are IO-shell-only: the server loop, the reference
        // feeder, and the smoke test that plays misbehaving feeders
        // against the shell. The decision core (core.rs, queue.rs,
        // wal.rs, wire.rs) stays socket-free so overload runs replay
        // byte-identically without a network.
        exempt: &[
            "crates/daemon/src/server.rs",
            "crates/daemon/src/client.rs",
            "tests/daemon_smoke.rs",
        ],
        check: socket_io,
    },
    Rule {
        id: "thread-identity",
        summary: "thread::current()/ThreadId near RNG or emission: key on (seed, bucket, shard) instead",
        scope: Scope::All,
        exempt: &[],
        check: thread_identity,
    },
    Rule {
        id: "unordered-iteration",
        summary: "HashMap/HashSet iteration in any crate's src/ without sort/BTree/order-insensitive sink",
        scope: Scope::CrateSrc,
        exempt: &[],
        check: check_hash_iteration,
    },
    Rule {
        id: "wall-clock",
        summary: "Instant::now/SystemTime::now/.elapsed(): sim code must use sim time",
        scope: Scope::All,
        // The observability layer measures real elapsed time by design:
        // span durations, stage profiles, and metric timestamps are
        // operator-facing and never feed sim state or transcripts. The
        // experiment runner prints each experiment's elapsed wall time
        // to stderr; the experiments themselves stay clock-free.
        exempt: &["crates/obs/", "crates/bench/src/main.rs"],
        check: wall_clock,
    },
];

/// The exemption of `rule`'s row that covers `path`, as `(rule id,
/// prefix)` — the pair marks the exemption live for the suppression
/// audit. The two workspace passes have no row, hence no exemptions.
pub fn exemption(rule: &str, path: &str) -> Option<(&'static str, &'static str)> {
    let row = RULES.iter().find(|r| r.id == rule)?;
    let prefix = row.exempt.iter().find(|p| path.starts_with(**p))?;
    Some((row.id, prefix))
}

/// Runs every rule whose scope covers `f.path`.
pub fn check_file(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    for rule in RULES.iter().filter(|r| r.scope.contains(f.path)) {
        (rule.check)(f, out);
    }
}

/// True if `toks[i..]` starts with the given `(is_ident, text)`
/// pattern, where punctuation entries match single chars.
fn seq(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| {
        toks.get(i + k).is_some_and(|t| {
            if p.chars().count() == 1 && !p.chars().next().unwrap().is_alphanumeric() && *p != "_" {
                t.is_punct(p.chars().next().unwrap())
            } else {
                t.is_ident(p)
            }
        })
    })
}

// ---------------------------------------------------------------- wall-clock

/// `Instant::now` / `SystemTime::now` / `.elapsed()` in sim code.
///
/// Wall time differs across hosts, runs, and thread counts; anything it
/// feeds (beyond operator-facing metrics) diverges the tick transcript.
/// Sim code must use sim time. `.elapsed()` is only flagged in files
/// that also name `Instant`/`SystemTime`, so sim-time methods that
/// happen to be called `elapsed` do not trip it.
fn wall_clock(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let has_std_time = f
        .toks
        .iter()
        .any(|t| !t.in_test && (t.is_ident("Instant") || t.is_ident("SystemTime")));
    for (i, t) in f.toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        for src in ["Instant", "SystemTime"] {
            if seq(f.toks, i, &[src, ":", ":", "now"]) {
                out.push(f.diag(
                    "wall-clock",
                    t,
                    format!("`{src}::now` reads the wall clock; sim code must derive time from the tick (sim time) so transcripts replay byte-identically"),
                ));
            }
        }
        if has_std_time && seq(f.toks, i, &[".", "elapsed", "("]) {
            out.push(f.diag(
                "wall-clock",
                &f.toks[i + 1],
                "`.elapsed()` measures wall time in a file that uses std::time; route durations through sim time or annotate if metrics-only".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------- sip-hasher

/// Bare `HashMap`/`HashSet` in `crates/core`, `crates/topology` or
/// `crates/simnet`: engine maps and the simulator's lookup tables must
/// use the deterministic Fx-hashed aliases.
///
/// `std`'s default `RandomState` seeds SipHash from process entropy —
/// slow for the short fixed-width keys the engine hashes, and a fresh
/// iteration order every run (one more variance source while chasing a
/// transcript diff). `blameit_topology::fxhash::{DetHashMap,
/// DetHashSet}` (re-exported as `blameit::fxhash`) are drop-in
/// replacements constructed via `::default()` or the
/// `det_*_with_capacity` helpers. The rule is lexical: any non-test
/// mention of the bare std names inside those crates' `src/` fires —
/// type position, turbofish, or import — so the hazard is caught at
/// the `use` line, before the first map is even built. Annotate the
/// rare legitimate reference (the alias definitions themselves; the
/// legacy reference aggregator kept for the differential harness).
fn sip_hasher(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    for t in f.toks {
        if t.in_test || !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        out.push(f.diag(
            "sip-hasher",
            t,
            format!(
                "bare `{name}` hashes with randomly-seeded SipHash; use `fxhash::Det{name}` \
                 (construct via `::default()` or `det_*_with_capacity`) or annotate why std hashing is required",
                name = t.text
            ),
        ));
    }
}

// ----------------------------------------------------------------- socket-io

/// `TcpListener`/`TcpStream`/`UdpSocket` outside the daemon's IO
/// shell.
///
/// The standing architecture rule is *IO at the edges, determinism in
/// the middle*: every decision `blameitd` makes lives in
/// [`DaemonCore`], a pure function of the offered batches, and only
/// the server/feeder shell may touch sockets (the row's `exempt`
/// prefixes). A socket type appearing anywhere else — the engine,
/// the daemon's decision core, the WAL — means IO is leaking into code
/// that must replay byte-identically without a network.
fn socket_io(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    for t in f.toks {
        if t.in_test {
            continue;
        }
        for name in ["TcpListener", "TcpStream", "UdpSocket"] {
            if t.is_ident(name) {
                out.push(f.diag(
                    "socket-io",
                    t,
                    format!(
                        "`{name}` is raw socket IO; decisions must stay in socket-free code \
                         (move the IO to the daemon's server/feeder shell, or annotate why \
                         this edge is sanctioned)"
                    ),
                ));
            }
        }
    }
}

// ----------------------------------------------------------- thread-identity

/// `thread::current()` / `ThreadId` anywhere in product code.
///
/// The sharded tick promises byte-identical transcripts at any thread
/// count; the moment RNG seeding or emission keys on which thread ran
/// the work, that promise is gone. Every simulator draw keys on
/// (seed, entity ids, sim time) only — see `DetRng::from_keys`.
fn thread_identity(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    for (i, t) in f.toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if seq(f.toks, i, &["thread", ":", ":", "current"]) {
            out.push(f.diag(
                "thread-identity",
                t,
                "`thread::current()` makes output depend on which worker ran the shard; derive identity from (seed, bucket, shard) keys".to_string(),
            ));
        }
        if t.is_ident("ThreadId") {
            out.push(f.diag(
                "thread-identity",
                t,
                "`ThreadId` is scheduler-assigned and varies run to run; key RNG/emission on (seed, bucket, shard) instead".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------- ambient-entropy

/// `rand`, `RandomState`, and other nondeterministic seed sources.
///
/// All randomness must flow through `DetRng::from_keys(seed, …)` —
/// counter-based, platform-stable, thread-count-independent. Ambient
/// entropy (OS RNG, hasher randomization, time-derived seeds) breaks
/// replay and the 6-seed determinism suites cannot even detect it
/// reliably, because every run is its own seed.
fn ambient_entropy(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    for (i, t) in f.toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if seq(f.toks, i, &["rand", ":", ":"])
            || seq(f.toks, i, &["use", "rand", ";"])
            || seq(f.toks, i, &["extern", "crate", "rand"])
        {
            out.push(f.diag(
                "ambient-entropy",
                t,
                "the `rand` crate draws ambient entropy; use `DetRng::from_keys(seed, …)` so every draw is replayable".to_string(),
            ));
        }
        for ident in [
            "RandomState",
            "thread_rng",
            "from_entropy",
            "OsRng",
            "getrandom",
        ] {
            if t.is_ident(ident) {
                out.push(f.diag(
                    "ambient-entropy",
                    t,
                    format!("`{ident}` is an ambient entropy source; all randomness must be keyed on the run seed via DetRng"),
                ));
            }
        }
        if t.is_ident("UNIX_EPOCH") {
            out.push(f.diag(
                "ambient-entropy",
                t,
                "time-since-epoch is a wall-clock-derived value; deriving ids or seeds from it varies per run".to_string(),
            ));
        }
    }
}

// --------------------------------------------------------------- float-order

/// A non-total float order inside a sort/min/max comparator or key.
///
/// Two shapes of one hazard. `partial_cmp(..).unwrap()` panics on NaN,
/// and `unwrap_or(Equal)` silently turns NaN into an unstable pivot —
/// either way the order is not total and the emitted ranking can
/// differ between otherwise identical runs. And a key or comparator
/// built from `f32`/`f64` values or float literals (`sort_by_key(|x|
/// (x.score * 1e6) as i64)`) quantizes differently than the ranking
/// math; a float-typed key cannot even express a total order.
/// `total_cmp` and `to_bits` are the sanctioned escape hatches — both
/// give every bit pattern, NaN included, one fixed position.
fn float_order(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = f.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test
            || t.kind != TokKind::Ident
            || !COMPARATOR_FNS.contains(&t.text.as_str())
            || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        // One walk over the argument list to the matching `)`: every
        // `partial_cmp` is reported; the first float evidence is too,
        // unless a sanctioned total order appears anywhere in the list.
        let mut depth = 0usize;
        let mut float_at: Option<usize> = None;
        let mut sanctioned = false;
        for (j, a) in toks.iter().enumerate().skip(i + 1) {
            if a.is_punct('(') {
                depth += 1;
            } else if a.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.is_ident("partial_cmp") {
                out.push(f.diag(
                    "float-order",
                    a,
                    format!(
                        "`partial_cmp` inside `{}` is not a total order (NaN panics or compares Equal); use `f64::total_cmp`",
                        t.text
                    ),
                ));
            } else if a.is_ident("total_cmp") || a.is_ident("to_bits") {
                sanctioned = true;
            } else if float_at.is_none()
                && (a.is_ident("f32")
                    || a.is_ident("f64")
                    || (a.kind == TokKind::Num && is_float_literal(&a.text)))
            {
                float_at = Some(j);
            }
        }
        if let Some(fj) = float_at.filter(|_| !sanctioned) {
            out.push(f.diag(
                "float-order",
                &toks[fj],
                format!(
                    "float-valued key inside `{}` orders by a non-total comparison; use `total_cmp`/`to_bits` or an integer key so ranking ties break identically every run",
                    t.text
                ),
            ));
        }
    }
}

/// Every std method that takes an ordering closure or key extractor.
const COMPARATOR_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "max_by_key",
    "min_by_key",
    "binary_search_by_key",
];

/// A numeric literal token that parses as a float (`1.5`, `2e9`).
fn is_float_literal(text: &str) -> bool {
    let bytes = text.as_bytes();
    if bytes.is_empty() || !bytes[0].is_ascii_digit() || text.starts_with("0x") {
        return false;
    }
    text.contains('.') || text.contains('e') || text.contains('E')
}

// -------------------------------------------------------- as-cast-truncation

/// Narrowing `as` casts in the codec paths and the input parsers.
///
/// `len() as u32` silently wraps past 4 GiB and `v as u8` drops high
/// bits; in `persist/` and the daemon wire codec a wrapped length
/// field is indistinguishable from corruption *two layers later*, when
/// the decoder walks off the frame. In `crates/scenario` the value is
/// an integer somebody typed into a `.scn` file: `tick_buckets =
/// 4294967296` narrowed to 0 and the engine's run loop never advanced.
/// A flag parser's value comes from argv: `--sustained-ticks 4294967296`
/// narrowed to 0. Width changes on these paths must go through
/// `try_from` (reject; flags use `Args::int`) or be annotated with the
/// proof of range (`lint:allow(as-cast-truncation): …`).
fn as_cast_truncation(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = f.toks;
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.in_test || !t.is_ident("as") {
            continue;
        }
        let Some(ty) = toks.get(i + 1) else { continue };
        if !NARROW_INTS.contains(&ty.text.as_str()) {
            continue;
        }
        // `use x as y` renames are not casts; the previous token of
        // a cast is an expression end, never the `use` path start.
        if toks[..i].iter().rev().take(8).any(|p| p.is_ident("use")) {
            continue;
        }
        out.push(f.diag(
            "as-cast-truncation",
            t,
            format!(
                "`as {ty}` truncates silently on this codec path; use `{ty}::try_from` and surface the error, or annotate the range proof",
                ty = ty.text
            ),
        ));
    }
}

/// Integer types narrower than the platform-width/64-bit values that
/// lengths, counts, and ids carry in this workspace.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

// ----------------------------------------------------------- panic-in-decode

/// `unwrap`/`expect`/`panic!`/indexing in persist decode paths.
///
/// The persist_props fuzz contract: decoding arbitrary bytes must
/// return `Err`, never panic — a panic on a torn journal tail or a
/// bit-flipped snapshot turns recoverable corruption into a crash loop.
/// Applies to `crates/core/src/persist/{codec,journal,log,snapshot}.rs`
/// and the daemon's `wal.rs` — every path disk bytes are decoded on.
fn panic_in_decode(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = f.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        for m in ["unwrap", "expect"] {
            if seq(toks, i, &[".", m, "("]) {
                out.push(f.diag(
                    "panic-in-decode",
                    &toks[i + 1],
                    format!("`.{m}()` in a decode path panics on corrupt input; return a codec error (persist_props fuzz contract)"),
                ));
            }
        }
        for m in [
            "panic",
            "unreachable",
            "todo",
            "unimplemented",
            "assert",
            "assert_eq",
            "assert_ne",
        ] {
            if t.is_ident(m) && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                out.push(f.diag(
                    "panic-in-decode",
                    t,
                    format!("`{m}!` in a decode path can fire on corrupt input; return a codec error instead"),
                ));
            }
        }
        // Postfix indexing `x[..]` can panic on short input. Array
        // types/literals (`[u8; 4]`), macros (`vec![`), and
        // attributes (`#[`) are not postfix positions.
        if t.is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let postfix = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
                || prev.is_punct(')')
                || prev.is_punct(']');
            if postfix {
                out.push(f.diag(
                    "panic-in-decode",
                    t,
                    "indexing in a decode path panics when input is shorter than expected; use `get()`/`take()` and return an error".to_string(),
                ));
            }
        }
    }
}

/// Every file disk or socket bytes are decoded in: `panic-in-decode`'s
/// scope and the protected scope of the transitive panic effect.
pub const DECODE_FILES: &[&str] = &[
    "crates/core/src/persist/codec.rs",
    "crates/core/src/persist/journal.rs",
    "crates/core/src/persist/log.rs",
    "crates/core/src/persist/snapshot.rs",
    "crates/daemon/src/wal.rs",
    "crates/daemon/src/wire.rs",
];

/// Keywords a `[` can follow without being postfix: `impl … for [T; N]`
/// names an array type.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let" | "in" | "if" | "else" | "match" | "return" | "mut" | "ref" | "move" | "box" | "for"
    )
}

// ------------------------------------------------------ unordered-iteration

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

const SORT_FAMILY: &[&str] = &[
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
];

const ORDER_INSENSITIVE: &[&str] = &[
    "sum",
    "count",
    "len",
    "is_empty",
    "all",
    "any",
    "contains",
    "contains_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Iterating a `HashMap`/`HashSet` in any crate's `src/` without an
/// order-restoring or order-insensitive sink.
///
/// Hash iteration order is unspecified and (for transcripts, alerts,
/// snapshots, metrics absorption) was the single largest source of
/// nondeterminism fixed in the sharded-tick PR; outside the engine the
/// same hazard reaches wire frames, rendered tables and experiment
/// output. The rule tracks names declared as hash containers in the
/// file and flags iteration over them, *except* when the same
/// statement sorts the result, collects into a BTree container, or
/// reduces order-insensitively (`sum`, `count`, `len`, `is_empty`,
/// `all`, `any`, `contains…`), or when a sort appears within the next
/// three lines.
fn check_hash_iteration(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = f.toks;
    let events = binding_events(toks);
    if events.iter().all(|e| !e.hash) {
        return;
    }
    let sort_lines: BTreeSet<u32> = toks
        .iter()
        .filter(|t| SORT_FAMILY.contains(&t.text.as_str()))
        .map(|t| t.line)
        .collect();

    let is_waiver_word = |t: &Tok| {
        SORT_FAMILY.contains(&t.text.as_str()) || ORDER_INSENSITIVE.contains(&t.text.as_str())
    };
    let mut flag = |f: &FileCtx, idx: usize, name: &str, waivable: bool| {
        let mut waived = false;
        let mut stmt_end_line = toks[idx].line;
        if waivable {
            // Waiver 1a: statement prefix declares an ordered
            // destination (`let x: BTreeMap<…> = m.iter()…`).
            // Waiver words only count at chain depth 0 — words
            // inside closure bodies say nothing about the sink.
            let mut depth = 0isize;
            let mut j = idx;
            while j > 0 && idx - j < 200 {
                j -= 1;
                let t = &toks[j];
                if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth += 1;
                } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    break;
                } else if depth == 0 && is_waiver_word(t) {
                    waived = true;
                    break;
                }
            }
            // Waiver 1b: the chain itself ends in a sort, a BTree
            // collect, or an order-insensitive reduction.
            let mut depth = 0isize;
            let mut j = idx;
            while j < toks.len() && j < idx + 400 {
                let t = &toks[j];
                stmt_end_line = t.line;
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    break;
                } else if depth == 0 && is_waiver_word(t) {
                    waived = true;
                    break;
                }
                j += 1;
            }
            // Waiver 2: an explicit sort within three lines after
            // the statement (collect-then-sort as two statements).
            if !waived {
                waived = sort_lines
                    .iter()
                    .any(|l| *l >= toks[idx].line && *l <= stmt_end_line + 3);
            }
        }
        if !waived {
            out.push(f.diag(
                "unordered-iteration",
                &toks[idx],
                format!(
                    "iteration over hash container `{name}` feeds downstream state in arbitrary order; sort before emitting, collect into a BTreeMap/BTreeSet, or annotate why order cannot matter"
                ),
            ));
        }
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        // `name.iter()` / `self.name.keys()` / …
        if is_hash_at(&events, &t.text, i)
            && seq(toks, i + 1, &["."])
            && toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && toks.get(i + 3).is_some_and(|p| p.is_punct('('))
        {
            flag(f, i + 2, &t.text, true);
        }
        // `for pat in [&mut] name { … }` (direct Iterator impl).
        if t.is_ident("for") {
            if let Some(j) = (i + 1..(i + 14).min(toks.len())).find(|j| toks[*j].is_ident("in")) {
                let mut k = j + 1;
                while toks
                    .get(k)
                    .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
                {
                    k += 1;
                }
                if toks
                    .get(k)
                    .is_some_and(|t| t.kind == TokKind::Ident && is_hash_at(&events, &t.text, k))
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('{'))
                {
                    // A `for` body can do anything with the items;
                    // no lexical waiver applies — sort first or
                    // annotate why order cannot matter.
                    let name = toks[k].text.clone();
                    flag(f, k, &name, false);
                }
            }
        }
    }
}

/// One binding classification event: from token index `idx` onward,
/// `name` refers to a hash container (`hash: true`) or not. Shadowed
/// rebindings (`let rows = hash_map; … let rows: Vec<_> = …;`) emit a
/// later event that overrides the earlier classification, so a name's
/// meaning follows the program text instead of being file-global.
struct BindingEvent {
    idx: usize,
    name: String,
    hash: bool,
}

/// Index of the end of the statement containing token `from`: the
/// first `;` at depth 0, or the closing brace of the enclosing block.
/// A binding takes effect *after* its own statement, so the old
/// binding still governs uses inside the initializer
/// (`let m: Vec<_> = m.iter()…` iterates the hash `m`).
fn stmt_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0isize;
    let mut j = from;
    while j < toks.len() && j < from + 400 {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if t.is_punct(';') && depth == 0 {
            return j;
        }
        j += 1;
    }
    j
}

/// Collects binding events for hash-container classification, sorted
/// by position. Hash-positive events come from `name: HashMap<…>`
/// (fields, params, typed lets) and `name = HashMap::new()`-style
/// initializers; every plain `let [mut] name` additionally emits a
/// hash-negative event so rebinding a name to an ordered container
/// clears it. Fields and params classify file-wide (idx 0); `let`
/// bindings and local assignments classify from their statement end.
fn binding_events(toks: &[Tok]) -> Vec<BindingEvent> {
    let mut events = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        // The deterministic `fxhash` aliases and their capacity
        // helpers classify exactly like the std names: swapping the
        // hasher fixes seeding, not iteration order, so
        // unordered-iteration must keep watching these bindings.
        let hash_namer = t.is_ident("HashMap")
            || t.is_ident("HashSet")
            || t.is_ident("DetHashMap")
            || t.is_ident("DetHashSet")
            || t.is_ident("det_map_with_capacity")
            || t.is_ident("det_set_with_capacity");
        if t.in_test || !hash_namer {
            continue;
        }
        // Strip a `path::segments::` prefix walking backwards.
        let mut j = i;
        while j >= 3
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        let prev = &toks[j - 1];
        let (cand_idx, is_annotation) = if prev.is_punct(':') && j >= 2 {
            // `name: HashMap<…>` — make sure it is a single `:`.
            if j >= 3 && toks[j - 2].is_punct(':') {
                continue;
            }
            (j - 2, true)
        } else if prev.is_punct('=') && j >= 2 {
            // `let [mut] name = HashMap::new()`, `self.name = HashMap…`.
            (j - 2, false)
        } else {
            continue;
        };
        let cand = &toks[cand_idx];
        if cand.kind != TokKind::Ident || is_keyword(&cand.text) {
            continue;
        }
        let before = cand_idx.checked_sub(1).map(|b| &toks[b]);
        let let_bound = matches!(before, Some(b) if b.is_ident("let") || b.is_ident("mut"));
        let field_like = matches!(before, Some(b) if b.is_punct('.'));
        // Fields and params (annotations outside `let`, or assignments
        // through `self.`/`x.`) hold for the whole file; local
        // bindings hold from the end of their own statement.
        let idx = if field_like || (is_annotation && !let_bound) {
            0
        } else {
            stmt_end(toks, i)
        };
        events.push(BindingEvent {
            idx,
            name: cand.text.clone(),
            hash: true,
        });
    }
    // Shadowing rebindings: every `let [mut] name` clears the name
    // from its statement end, unless a hash event above re-marks it.
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || !t.is_ident("let") {
            continue;
        }
        let mut k = i + 1;
        if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let Some(name_tok) = toks.get(k) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident || is_keyword(&name_tok.text) {
            continue;
        }
        events.push(BindingEvent {
            idx: stmt_end(toks, k),
            name: name_tok.text.clone(),
            hash: false,
        });
    }
    // At equal positions (a hash-typed `let` emits both events at the
    // same statement end) the hash-positive event must win, so sort
    // false-before-true and let the lookup take the last match.
    events.sort_by_key(|e| (e.idx, e.hash));
    events
}

/// Whether `name` refers to a hash container at token index `use_idx`:
/// the classification of the last binding event at or before the use.
fn is_hash_at(events: &[BindingEvent], name: &str, use_idx: usize) -> bool {
    let mut hash = false;
    for e in events {
        if e.idx > use_idx {
            break;
        }
        if e.name == name {
            hash = e.hash;
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// What the driver reports for rule `id` over `src` at `path`.
    fn check_one(id: &str, path: &str, src: &str) -> Vec<Diagnostic> {
        assert!(RULES.iter().any(|r| r.id == id), "{id} not in the table");
        let lexed = lex(src);
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let ctx = FileCtx {
            path,
            toks: &lexed.toks,
            lines: &lines,
        };
        let mut out = Vec::new();
        check_file(&ctx, &mut out);
        out.retain(|d| d.rule == id);
        out
    }

    #[test]
    fn rule_ids_are_sorted_and_unique() {
        let ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ids, sorted, "registry must stay in ID order, no dups");
    }

    #[test]
    fn every_check_reports_under_its_own_table_id() {
        // A `check` fn names its rule ID in a literal; the table is
        // what the driver, `--rules` and the fixtures key on. One
        // source that trips all nine pins the two together.
        let src = "use std::collections::HashMap;\nuse std::time::Instant;\n\
             fn f(m: HashMap<u32, f64>, b: &[u8], s: TcpStream) {\n\
             let t = Instant::now(); let r = RandomState::new(); let id = thread::current();\n\
             let n = b.len() as u8; let x = b[0];\n\
             for (k, v) in &m { emit(k, v); }\n\
             v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
             }";
        let lexed = lex(src);
        let ctx = FileCtx {
            path: "any.rs",
            toks: &lexed.toks,
            lines: &[],
        };
        for rule in RULES {
            let mut diags = Vec::new();
            (rule.check)(&ctx, &mut diags);
            assert!(!diags.is_empty(), "{} did not fire", rule.id);
            assert!(diags.iter().all(|d| d.rule == rule.id), "{}", rule.id);
        }
    }

    #[test]
    fn elapsed_needs_std_time_in_file() {
        let sim = "fn f(o: &Incident) -> u64 { o.elapsed() }";
        assert!(check_one("wall-clock", "crates/core/src/x.rs", sim).is_empty());
        let wall = "use std::time::Instant;\nfn f(t: Instant) -> u128 { t.elapsed().as_nanos() }";
        assert_eq!(
            check_one("wall-clock", "crates/core/src/x.rs", wall).len(),
            1
        );
    }

    #[test]
    fn hash_names_found_through_paths_and_new() {
        let src = "struct S { counts: std::collections::HashMap<u32, u64> }\nfn f() { let mut seen = HashSet::new(); seen.len(); }";
        let toks = &lex(src).toks;
        let events = binding_events(toks);
        // `counts` is a field: hash from the start of the file.
        assert!(is_hash_at(&events, "counts", 0));
        // `seen` is a local `let`: hash only after its statement.
        assert!(is_hash_at(&events, "seen", toks.len() - 1));
        assert!(!is_hash_at(&events, "seen", 0));
        assert!(!is_hash_at(&events, "other", toks.len() - 1));
    }

    #[test]
    fn rebinding_tracks_shadowed_names() {
        // hash → ordered rebinding: the `for` iterates the sorted Vec,
        // not the map; must NOT flag.
        let cleared = "use std::collections::HashMap;\n\
             fn f(m: HashMap<u32, u32>) {\n\
             let mut rows: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();\n\
             rows.sort_unstable();\n\
             let m = rows;\n\
             for (k, v) in &m { emit(k, v); }\n\
             }";
        assert!(
            check_one("unordered-iteration", "crates/core/src/x.rs", cleared).is_empty(),
            "rebinding to an ordered container must clear the name"
        );
        // ordered → hash rebinding: the later `let` re-marks the name;
        // must flag the iteration after it.
        let remarked = "use std::collections::HashMap;\n\
             fn f() {\n\
             let m: Vec<(u32, u32)> = Vec::new();\n\
             for (k, v) in &m { emit(k, v); }\n\
             let m: HashMap<u32, u32> = HashMap::new();\n\
             for (k, v) in &m { emit(k, v); }\n\
             }";
        assert_eq!(
            check_one("unordered-iteration", "crates/core/src/x.rs", remarked).len(),
            1,
            "rebinding to a hash container must re-mark the name"
        );
        // The shadowing initializer still sees the old hash binding:
        // `let m: Vec<_> = m.iter()…` without a sort must flag.
        let initializer = "use std::collections::HashMap;\n\
             fn f(m: HashMap<u32, u32>) {\n\
             let m: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();\n\
             emit_all(m);\n\
             }";
        assert_eq!(
            check_one("unordered-iteration", "crates/core/src/x.rs", initializer).len(),
            1,
            "uses inside the shadowing initializer refer to the old binding"
        );
    }

    #[test]
    fn unordered_iteration_waivers() {
        let flagged = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) { for (k, v) in &m { emit(k, v); } }";
        assert_eq!(
            check_one("unordered-iteration", "crates/core/src/x.rs", flagged).len(),
            1
        );
        let sorted_chain = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) { let mut v: Vec<_> = m.iter().collect(); v.sort(); }";
        assert!(check_one("unordered-iteration", "crates/core/src/x.rs", sorted_chain).is_empty());
        let sum = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) -> u32 { m.values().sum() }";
        assert!(check_one("unordered-iteration", "crates/core/src/x.rs", sum).is_empty());
        let next_line_sort = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) { let mut v: Vec<_> = m.keys().copied().collect();\n v.sort_unstable();\n }";
        assert!(check_one(
            "unordered-iteration",
            "crates/core/src/x.rs",
            next_line_sort
        )
        .is_empty());
    }

    #[test]
    fn float_order_only_in_comparators() {
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(
            check_one("float-order", "crates/core/src/x.rs", bad).len(),
            1
        );
        let good = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(check_one("float-order", "crates/core/src/x.rs", good).is_empty());
        let outside =
            "impl PartialOrd for S { fn partial_cmp(&self, o: &S) -> Option<Ordering> { None } }";
        assert!(check_one("float-order", "crates/core/src/x.rs", outside).is_empty());
    }

    #[test]
    fn panic_in_decode_scope_and_postfix_index() {
        let src = "fn decode(b: &[u8]) -> u8 { let x = b[0]; x }";
        assert_eq!(
            check_one("panic-in-decode", "crates/core/src/persist/codec.rs", src).len(),
            1
        );
        assert!(check_one("panic-in-decode", "crates/core/src/pipeline.rs", src).is_empty());
        let arr_ty = "impl C for [u8; 2] { fn f() -> [u8; 2] { let a: [u8; 2] = [0, 1]; a } }";
        assert!(check_one(
            "panic-in-decode",
            "crates/core/src/persist/codec.rs",
            arr_ty
        )
        .is_empty());
        let mac = "fn f() -> Vec<u8> { vec![0; 4] }";
        assert!(check_one("panic-in-decode", "crates/core/src/persist/codec.rs", mac).is_empty());
    }

    #[test]
    fn float_order_key_evidence_and_sanctions() {
        let bad = "fn f(v: &mut Vec<Row>) { v.sort_by_key(|x| (x.score * 1e6) as i64); }";
        assert_eq!(
            check_one("float-order", "crates/core/src/x.rs", bad).len(),
            1
        );
        let bad_cmp = "fn f(v: &mut Vec<f64>) { v.sort_unstable_by(|a, b| cmp_f64(*a, *b)); }";
        // `f64` appears inside the comparator args? No — only in the fn
        // signature, outside the call. Must stay quiet.
        assert!(check_one("float-order", "crates/core/src/x.rs", bad_cmp).is_empty());
        let total = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }";
        assert!(check_one("float-order", "crates/core/src/x.rs", total).is_empty());
        let bits = "fn f(v: &mut Vec<f64>) { v.sort_by_key(|x| x.to_bits()); }";
        assert!(check_one("float-order", "crates/core/src/x.rs", bits).is_empty());
        let ints = "fn f(v: &mut Vec<(u64, u32)>) { v.sort_by_key(|x| x.0); }";
        assert!(check_one("float-order", "crates/core/src/x.rs", ints).is_empty());
        let typed = "fn f(v: &mut Vec<Row>) { v.min_by_key(|x| x.w as f64 ); }";
        assert_eq!(
            check_one("float-order", "crates/core/src/x.rs", typed).len(),
            1
        );
    }

    #[test]
    fn as_cast_truncation_scope_and_types() {
        let bad =
            "fn put(buf: &mut Vec<u8>, len: usize) { let n = len as u32; buf.push(n as u8); }";
        assert_eq!(
            check_one("as-cast-truncation", "crates/daemon/src/wire.rs", bad).len(),
            2
        );
        assert_eq!(
            check_one(
                "as-cast-truncation",
                "crates/core/src/persist/codec.rs",
                bad
            )
            .len(),
            2
        );
        for flags in [
            "crates/scenario/src/parse.rs",
            "crates/daemon/src/entry.rs",
            "crates/cli/src/commands/inspect.rs",
            "crates/bench/src/experiments/fig6.rs",
        ] {
            assert_eq!(
                check_one("as-cast-truncation", flags, bad).len(),
                2,
                "{flags}"
            );
        }
        // Outside the codec scopes the rule is silent.
        assert!(check_one("as-cast-truncation", "crates/core/src/pipeline.rs", bad).is_empty());
        // Widening casts are fine.
        let widen = "fn get(b: u8) -> u64 { b as u64 }";
        assert!(check_one("as-cast-truncation", "crates/daemon/src/wire.rs", widen).is_empty());
    }

    #[test]
    fn unordered_iteration_scope_is_every_crate_src() {
        let flagged = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) { for (k, v) in &m { emit(k, v); } }";
        for path in [
            "crates/core/src/x.rs",
            "crates/daemon/src/server.rs",
            "crates/scenario/src/runner.rs",
            "crates/obs/src/render.rs",
            "crates/bench/src/experiments/fig12.rs",
        ] {
            let diags = check_one("unordered-iteration", path, flagged);
            assert_eq!(diags.len(), 1, "{path}");
        }
        // Tests, examples and a crate's own tests/ are not product code.
        for path in [
            "tests/props.rs",
            "examples/quickstart.rs",
            "crates/core/tests/props.rs",
        ] {
            let diags = check_one("unordered-iteration", path, flagged);
            assert!(diags.is_empty(), "{path}");
        }
        let ordered = "use std::collections::BTreeMap;\nfn f(m: BTreeMap<u32, u32>) { for (k, v) in &m { emit(k, v); } }";
        assert!(check_one(
            "unordered-iteration",
            "crates/daemon/src/server.rs",
            ordered
        )
        .is_empty());
    }

    #[test]
    fn ambient_entropy_patterns() {
        let bad = "use rand::Rng;\nfn f() { let s = RandomState::new(); }";
        let diags = check_one("ambient-entropy", "crates/core/src/x.rs", bad);
        assert_eq!(diags.len(), 2);
        let good =
            "fn f(seed: u64) { let mut rng = DetRng::from_keys(seed, &[1]); rng.next_u64(); }";
        assert!(check_one("ambient-entropy", "crates/core/src/x.rs", good).is_empty());
    }
}
