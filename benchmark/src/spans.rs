//! The harness's own span recorder.
//!
//! Spans are recorded by the benchmark around the calls it makes into
//! each layer (spans *inside* the program are a later issue). They stay
//! in memory during a run and are written out as JSON lines at the end.
//! With recording off, [`Tracer::time`] still returns durations — the
//! end-to-end metrics come from the same code path, minus the `Vec`
//! push and the shadow-layer calls a traced run adds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span ([`Tracer::open`] → [`Tracer::close`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `wal.append`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by everything done for one unit of input (the
    /// bucket number of the batch, the tick index, or the rep).
    pub batch: u32,
}

/// Per-name totals: how often, how long, and how long *excluding* the
/// interval covered by child spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child-covered time, ns.
    pub self_ns: u64,
}

/// Records spans when enabled; always measures.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled = false` measures without recording.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (between reps).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that other spans can name as their parent. `None`
    /// when recording is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: u32,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            batch,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds; a
    /// leaf span is recorded when enabled.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed();
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: end_ns.saturating_sub(elapsed.as_nanos() as u64),
                end_ns,
                parent: parent.map(|p| p.0),
                batch,
            });
        }
        (out, elapsed.as_secs_f64())
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets the spans recorded after the first `len` (a voided rep).
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval that its direct children cover (children may
    /// overlap; the covered part is the union).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// Renders the spans as JSON lines — one `span` object per line,
    /// then one `self_time` object per span name.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            )
            .expect("writing to a String cannot fail");
        }
        for (name, t) in self.self_times() {
            writeln!(
                out,
                "{{\"type\":\"self_time\",\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                batch: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                batch: 1,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                batch: 1,
            },
        ];
        let st = t.self_times();
        assert_eq!(
            st["root"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(st["a"].self_ns, 30);
        assert!(t.render_jsonl().lines().count() == 6);
    }

    #[test]
    fn disabled_tracer_measures_without_recording() {
        let mut t = Tracer::new(false);
        let root = t.open("root", None, 0);
        let (v, secs) = t.time("leaf", root, 0, || 7);
        t.close(root);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
