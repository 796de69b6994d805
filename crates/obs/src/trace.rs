//! Structured span tracing with RAII scoped timers.
//!
//! A [`Span`] measures the wall time between its creation and its drop
//! and emits one [`SpanEvent`] — target, name, `key=value` fields,
//! duration, nesting depth — to every installed [`Subscriber`]. A
//! thread-local depth counter gives events enough structure to rebuild
//! the span *tree* after the fact ([`render_tree`]) without any
//! allocation while spans are open.
//!
//! Subscribers are **scoped** ([`with_subscriber`]): installed for one
//! closure on one thread, which is how tests, the CLI and the perf
//! ledger capture a single engine run without seeing unrelated
//! threads; a coordinator hands its set to worker threads with
//! [`local_subscribers`] / [`with_subscribers`].
//!
//! When no subscriber is installed, creating a span is one
//! thread-local check and no clock read — cheap enough to leave in hot
//! paths.

use crate::json::{push_json_f64, push_json_str};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A typed field value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_from_field {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue { FieldValue::$variant(v as $conv) }
        })*
    };
}

impl_from_field!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    u16 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Module-ish origin, e.g. `"blameit::pipeline"`.
    pub target: &'static str,
    /// Span name, e.g. `"tick"` or a stage name.
    pub name: &'static str,
    /// `key=value` fields recorded on the span.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Nesting depth at creation (0 = root).
    pub depth: u16,
    /// Close-order sequence number (process-wide).
    pub seq: u64,
}

impl SpanEvent {
    /// The event as one JSON object (used for JSONL output).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"target\":");
        push_json_str(&mut out, self.target);
        out.push_str(",\"name\":");
        push_json_str(&mut out, self.name);
        out.push_str(&format!(
            ",\"start_ns\":{},\"duration_ns\":{},\"depth\":{},\"seq\":{}",
            self.start_ns, self.duration_ns, self.depth, self.seq
        ));
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            match v {
                FieldValue::U64(n) => out.push_str(&n.to_string()),
                FieldValue::I64(n) => out.push_str(&n.to_string()),
                FieldValue::F64(n) => push_json_f64(&mut out, *n),
                FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                FieldValue::Str(s) => push_json_str(&mut out, s),
            }
        }
        out.push_str("}}");
        out
    }
}

/// Receives completed span events.
pub trait Subscriber: Send + Sync {
    /// Called once per completed span.
    fn on_event(&self, ev: &SpanEvent);
}

static SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL_SUBSCRIBERS: RefCell<Vec<Arc<dyn Subscriber>>> = const { RefCell::new(Vec::new()) };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct LocalGuard(usize);

impl Drop for LocalGuard {
    fn drop(&mut self) {
        LOCAL_SUBSCRIBERS.with(|l| {
            let mut subs = l.borrow_mut();
            for _ in 0..self.0 {
                subs.pop();
            }
        });
    }
}

/// Runs `f` with `s` installed as a subscriber on *this thread only*.
/// Nests; unwind-safe (the subscriber is removed even on panic).
pub fn with_subscriber<R>(s: Arc<dyn Subscriber>, f: impl FnOnce() -> R) -> R {
    with_subscribers(vec![s], f)
}

/// Snapshot of this thread's scoped subscribers, in installation order.
///
/// Scoped subscribers are thread-local, so spans opened on a worker
/// thread would otherwise be invisible to a [`with_subscriber`] capture
/// on the spawning thread. A coordinator takes this snapshot before
/// `std::thread::scope` and each worker re-installs it with
/// [`with_subscribers`].
pub fn local_subscribers() -> Vec<Arc<dyn Subscriber>> {
    LOCAL_SUBSCRIBERS.with(|l| l.borrow().clone())
}

/// Runs `f` with a whole set of scoped subscribers installed on *this
/// thread* — the worker-side counterpart of [`local_subscribers`].
/// Nests; unwind-safe (all installed subscribers are removed even on
/// panic).
pub fn with_subscribers<R>(subs: Vec<Arc<dyn Subscriber>>, f: impl FnOnce() -> R) -> R {
    epoch();
    let n = subs.len();
    LOCAL_SUBSCRIBERS.with(|l| l.borrow_mut().extend(subs));
    let _guard = LocalGuard(n);
    f()
}

/// True when a subscriber scoped to this thread would see an event.
pub fn enabled() -> bool {
    LOCAL_SUBSCRIBERS.with(|l| !l.borrow().is_empty())
}

fn dispatch(ev: &SpanEvent) {
    LOCAL_SUBSCRIBERS.with(|l| {
        for s in l.borrow().iter() {
            s.on_event(ev);
        }
    });
}

/// An open span; emits its [`SpanEvent`] when dropped. Construct with
/// [`Span::new`] or the [`span!`](crate::span) macro.
///
/// When tracing is disabled the span is inert (no clock read, no
/// allocation).
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    started: Instant,
    depth: u16,
}

impl Span {
    /// Opens a span (records the clock only if tracing is enabled).
    pub fn new(target: &'static str, name: &'static str) -> Span {
        if !enabled() {
            return Span { inner: None };
        }
        let depth = DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur.saturating_add(1));
            cur
        });
        Span {
            inner: Some(SpanInner {
                target,
                name,
                fields: Vec::new(),
                started: Instant::now(),
                depth,
            }),
        }
    }

    /// Records a field on an open span (e.g. a count only known at the
    /// end of the stage).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let start_ns = inner.started.saturating_duration_since(epoch()).as_nanos() as u64;
        let ev = SpanEvent {
            target: inner.target,
            name: inner.name,
            fields: inner.fields,
            start_ns,
            duration_ns: inner.started.elapsed().as_nanos() as u64,
            depth: inner.depth,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
        };
        dispatch(&ev);
    }
}

/// Opens a [`Span`]: `span!("target", "name", key = value, …)`.
///
/// Bind the result (`let _span = span!(…);`) so it stays open for the
/// scope; `let _ = span!(…)` would drop — and close — it immediately.
#[macro_export]
macro_rules! span {
    ($target:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut s = $crate::trace::Span::new($target, $name);
        $(s.record(stringify!($key), $value);)*
        s
    }};
}

/// In-memory collector: a bounded ring buffer of the most recent
/// events. The standard capture sink for tests and the CLI.
pub struct RingCollector {
    cap: usize,
    buf: Mutex<VecDeque<SpanEvent>>,
}

impl RingCollector {
    /// A collector retaining the last `cap` events.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Arc<RingCollector> {
        assert!(cap > 0, "ring capacity must be positive");
        Arc::new(RingCollector {
            cap,
            buf: Mutex::new(VecDeque::new()),
        })
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.buf
            .lock()
            .expect("ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring poisoned").len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all retained events.
    pub fn clear(&self) {
        self.buf.lock().expect("ring poisoned").clear();
    }
}

impl Subscriber for RingCollector {
    fn on_event(&self, ev: &SpanEvent) {
        let mut buf = self.buf.lock().expect("ring poisoned");
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

/// Streams each event as one JSON line to a writer (file, stderr, …).
pub struct JsonlWriter<W: Write + Send> {
    w: Mutex<W>,
}

impl<W: Write + Send> JsonlWriter<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Arc<JsonlWriter<W>> {
        Arc::new(JsonlWriter { w: Mutex::new(w) })
    }

    /// Consumes the sink, returning the writer (tests use this to
    /// inspect what was written).
    pub fn into_inner(self: Arc<Self>) -> Option<W> {
        Arc::into_inner(self).map(|j| j.w.into_inner().expect("jsonl poisoned"))
    }
}

impl<W: Write + Send> Subscriber for JsonlWriter<W> {
    fn on_event(&self, ev: &SpanEvent) {
        let mut w = self.w.lock().expect("jsonl poisoned");
        // Telemetry is best-effort: a full disk must not take the
        // engine down with it.
        let _ = writeln!(w, "{}", ev.to_json());
    }
}

/// Renders captured events as an indented tree, one line per span.
///
/// Events are emitted at span *close*, so a parent closes after its
/// children; reconstruction folds each run of depth-`d+1` events into
/// the next depth-`d` event.
pub fn render_tree(events: &[SpanEvent]) -> String {
    struct Node<'a> {
        ev: &'a SpanEvent,
        children: Vec<Node<'a>>,
    }

    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.seq);
    let mut stack: Vec<Node> = Vec::new();
    for ev in sorted {
        let mut children = Vec::new();
        while stack
            .last()
            .is_some_and(|n| n.ev.depth == ev.depth + 1 && n.ev.start_ns >= ev.start_ns)
        {
            children.push(stack.pop().expect("peeked"));
        }
        children.reverse();
        stack.push(Node { ev, children });
    }

    fn fmt_duration(ns: u64) -> String {
        if ns >= 1_000_000_000 {
            format!("{:.2}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            format!("{:.2}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.1}µs", ns as f64 / 1e3)
        } else {
            format!("{ns}ns")
        }
    }

    fn render(node: &Node, indent: usize, out: &mut String) {
        out.push_str(&"  ".repeat(indent));
        out.push_str(&format!(
            "{} ({}) {}",
            node.ev.name,
            node.ev.target,
            fmt_duration(node.ev.duration_ns)
        ));
        for (k, v) in &node.ev.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for c in &node.children {
            render(c, indent + 1, out);
        }
    }

    let mut out = String::new();
    for root in &stack {
        render(root, 0, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        // No scoped subscriber on this thread: no clock read, no event.
        assert!(!enabled());
        let s = Span::new("t", "no-subscriber-span");
        assert!(s.inner.is_none());
        drop(s);
    }

    #[test]
    fn scoped_subscriber_captures_nested_spans() {
        let ring = RingCollector::new(64);
        with_subscriber(ring.clone(), || {
            let mut outer = span!("test", "outer", n = 2u64);
            {
                let _inner = span!("test", "inner", which = "first");
            }
            {
                let _inner = span!("test", "inner", which = "second");
            }
            outer.record("late", 42u64);
        });
        let events = ring.events();
        assert_eq!(events.len(), 3);
        // Close order: both inners, then outer.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "inner");
        assert_eq!(events[2].name, "outer");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[2].depth, 0);
        assert!(events[2]
            .fields
            .iter()
            .any(|(k, v)| *k == "late" && *v == FieldValue::U64(42)));
        assert!(events[2].duration_ns >= events[0].duration_ns);
        // After the closure, the subscriber is gone.
        assert!(ring.events().len() == 3);
    }

    #[test]
    fn ring_collector_caps_retention() {
        let ring = RingCollector::new(2);
        with_subscriber(ring.clone(), || {
            for _ in 0..5 {
                let _s = span!("test", "one");
            }
        });
        assert_eq!(ring.len(), 2, "oldest events evicted");
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_writer_emits_one_object_per_line() {
        let sink = JsonlWriter::new(Vec::<u8>::new());
        with_subscriber(sink.clone(), || {
            let _a = span!("test", "alpha", k = 1u64, s = "x");
            let _b = span!("test", "beta", ok = true);
        });
        let bytes = sink.into_inner().expect("sole owner");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"name\":\"alpha\""));
        assert!(text.contains("\"k\":1"));
        assert!(text.contains("\"s\":\"x\""));
        assert!(text.contains("\"ok\":true"));
    }

    #[test]
    fn tree_rendering_nests_children() {
        let ring = RingCollector::new(64);
        with_subscriber(ring.clone(), || {
            let _t = span!("test", "tick", bucket = 7u64);
            {
                let _a = span!("test", "ingest");
            }
            {
                let _b = span!("test", "blame");
                let _c = span!("test", "inner-most");
            }
        });
        let tree = render_tree(&ring.events());
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 4, "{tree}");
        assert!(lines[0].starts_with("tick"), "{tree}");
        assert!(lines[0].contains("bucket=7"), "{tree}");
        assert!(lines[1].starts_with("  ingest"), "{tree}");
        assert!(lines[2].starts_with("  blame"), "{tree}");
        assert!(lines[3].starts_with("    inner-most"), "{tree}");
    }

    #[test]
    fn subscriber_snapshot_propagates_to_worker_threads() {
        let ring = RingCollector::new(64);
        with_subscriber(ring.clone(), || {
            let snapshot = local_subscribers();
            assert_eq!(snapshot.len(), 1);
            std::thread::scope(|scope| {
                for shard in 0..2u64 {
                    let subs = snapshot.clone();
                    scope.spawn(move || {
                        with_subscribers(subs, || {
                            let _s = span!("test", "worker", shard = shard);
                        });
                    });
                }
            });
            // Workers popped their copies; this thread's stack intact.
            assert_eq!(local_subscribers().len(), 1);
        });
        let events = ring.events();
        assert_eq!(events.len(), 2, "both worker spans captured");
        assert!(events.iter().all(|e| e.name == "worker"));
        // After the outer scope, a fresh span is not captured.
        let _after = span!("test", "uncaptured");
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn with_subscriber_unwinds_cleanly() {
        let ring = RingCollector::new(8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_subscriber(ring.clone(), || {
                let _s = span!("test", "doomed");
                panic!("boom");
            })
        }));
        assert!(r.is_err());
        // The scoped subscriber was popped despite the panic: a new
        // span on this thread is not captured.
        let _uncaptured = span!("test", "after");
        assert_eq!(ring.len(), 1, "only the doomed span was captured");
    }
}
