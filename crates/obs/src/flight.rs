//! Deterministic flight recorder: a bounded ring of recent tick
//! telemetry, dumpable as JSONL when something goes wrong.
//!
//! The recorder answers "what was the engine doing just before this?"
//! without keeping full traces forever: each completed tick contributes
//! one [`FlightFrame`] — the tick's canonical transcript, its stage
//! outline (names only; durations are wall clock and therefore banned),
//! and the tick's scalar metric deltas — and the ring keeps the most
//! recent `capacity` of them. Everything is keyed on **simulation
//! time**: no wall clocks, no thread identity, no iteration over
//! unordered containers, so a dump is byte-identical across thread
//! counts and across crash→recover→resume (the ring itself is part of
//! the engine snapshot).
//!
//! Dumps are requested by [`FlightTrigger`]s — degraded-verdict spikes,
//! chaos-absorption bursts, a recovery that had to fall back past torn
//! state, or an explicit operator request — and rendered by
//! [`FlightRecorder::dump_jsonl`]: one JSON object per line, trigger
//! log first, then frames oldest-first.

use crate::json::{push_json_f64, push_json_str};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Default ring capacity: enough recent ticks to cover a multi-hour
/// incident tail at the 15-minute tick cadence.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// Why a flight dump was requested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightTrigger {
    /// A single tick produced an unusual number of degraded
    /// (`MiddleUnlocalized`) verdicts.
    DegradedSpike,
    /// A single tick's probe loop absorbed an unusual number of
    /// lost/late attempts (the chaos layer's signature).
    ChaosBurst,
    /// Crash recovery had to fall back past torn or missing state.
    RecoveryFallback,
    /// An explicit operator request (`blameit flight dump`).
    Manual,
    /// The ingest path stayed overloaded (shedding or backpressure)
    /// for several consecutive ticks — the daemon watchdog's signature.
    OverloadSustained,
}

impl FlightTrigger {
    /// Every trigger, in canonical order.
    pub const ALL: [FlightTrigger; 5] = [
        FlightTrigger::DegradedSpike,
        FlightTrigger::ChaosBurst,
        FlightTrigger::RecoveryFallback,
        FlightTrigger::Manual,
        FlightTrigger::OverloadSustained,
    ];

    /// Stable label (used in dump files, snapshots, and file names).
    pub const fn label(self) -> &'static str {
        match self {
            FlightTrigger::DegradedSpike => "degraded-spike",
            FlightTrigger::ChaosBurst => "chaos-burst",
            FlightTrigger::RecoveryFallback => "recovery-fallback",
            FlightTrigger::Manual => "manual",
            FlightTrigger::OverloadSustained => "overload-sustained",
        }
    }

    /// Parses a [`label`](Self::label) back; `None` for unknown input.
    pub fn from_label(s: &str) -> Option<FlightTrigger> {
        FlightTrigger::ALL.into_iter().find(|t| t.label() == s)
    }
}

impl std::fmt::Display for FlightTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One completed tick's worth of telemetry.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightFrame {
    /// Simulation time of the tick's first bucket (seconds).
    pub sim_secs: u64,
    /// The tick's first bucket index.
    pub bucket: u32,
    /// The tick's canonical transcript (same renderer as the golden
    /// snapshot — byte-identical across thread counts).
    pub transcript: String,
    /// The span/stage outline: stage names in execution order.
    /// Durations are deliberately absent (wall clock).
    pub stages: Vec<String>,
    /// Scalar metric deltas attributable to this tick, sorted by name.
    /// Computed from the tick's own output — not by diffing a registry,
    /// which would not survive a process restart.
    pub deltas: Vec<(String, f64)>,
}

/// One trigger firing, keyed on sim time.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightDumpEvent {
    /// Simulation time the trigger fired (seconds).
    pub sim_secs: u64,
    /// What fired.
    pub trigger: FlightTrigger,
    /// Human detail ("7 degraded verdicts in one tick").
    pub detail: String,
}

#[derive(Debug, Default)]
struct Inner {
    frames: VecDeque<FlightFrame>,
    dumps: Vec<FlightDumpEvent>,
}

/// The bounded flight ring. Interior-mutable so the engine can record
/// through a shared reference; cloning deep-copies the ring (a cloned
/// engine records its own flight history).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Clone for FlightRecorder {
    fn clone(&self) -> Self {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        FlightRecorder {
            capacity: self.capacity,
            inner: Mutex::new(Inner {
                frames: inner.frames.clone(),
                dumps: inner.dumps.clone(),
            }),
        }
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// An empty recorder keeping at most `capacity` frames (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a frame, evicting the oldest when full.
    pub fn record(&self, frame: FlightFrame) {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        if inner.frames.len() == self.capacity {
            inner.frames.pop_front();
        }
        inner.frames.push_back(frame);
    }

    /// Records that a trigger fired (the dump itself is the caller's
    /// business — the recorder only keeps the log).
    pub fn trigger(&self, sim_secs: u64, trigger: FlightTrigger, detail: impl Into<String>) {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        inner.dumps.push(FlightDumpEvent {
            sim_secs,
            trigger,
            detail: detail.into(),
        });
    }

    /// Lends the ring to `read` under the lock, copying nothing: the
    /// frames oldest first, then the trigger log in firing order. The
    /// snapshot writer serializes straight from this borrow.
    pub fn with_ring<R>(
        &self,
        read: impl FnOnce(&VecDeque<FlightFrame>, &[FlightDumpEvent]) -> R,
    ) -> R {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        read(&inner.frames, &inner.dumps)
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .frames
            .len()
    }

    /// True when no frame has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces the entire contents (snapshot restore). Frames beyond
    /// the capacity are trimmed oldest-first.
    pub fn restore(&self, frames: Vec<FlightFrame>, dumps: Vec<FlightDumpEvent>) {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        let skip = frames.len().saturating_sub(self.capacity);
        inner.frames = frames.into_iter().skip(skip).collect();
        inner.dumps = dumps;
    }

    /// Drops all frames and the trigger log.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        inner.frames.clear();
        inner.dumps.clear();
    }

    /// Renders the recorder as JSONL: the trigger log first (`"kind":
    /// "trigger"`), then the frames oldest-first (`"kind": "frame"`).
    /// Deterministic: content depends only on what was recorded.
    pub fn dump_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        let mut out = String::new();
        for d in &inner.dumps {
            out.push_str("{\"kind\":\"trigger\",\"sim_secs\":");
            out.push_str(&d.sim_secs.to_string());
            out.push_str(",\"trigger\":");
            push_json_str(&mut out, d.trigger.label());
            out.push_str(",\"detail\":");
            push_json_str(&mut out, &d.detail);
            out.push_str("}\n");
        }
        for f in &inner.frames {
            out.push_str("{\"kind\":\"frame\",\"sim_secs\":");
            out.push_str(&f.sim_secs.to_string());
            out.push_str(",\"bucket\":");
            out.push_str(&f.bucket.to_string());
            out.push_str(",\"stages\":[");
            for (i, s) in f.stages.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, s);
            }
            out.push_str("],\"deltas\":{");
            for (i, (name, v)) in f.deltas.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, name);
                out.push(':');
                push_json_f64(&mut out, *v);
            }
            out.push_str("},\"transcript\":");
            push_json_str(&mut out, &f.transcript);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(sim_secs: u64) -> FlightFrame {
        FlightFrame {
            sim_secs,
            bucket: (sim_secs / 300) as u32,
            transcript: format!("tick at {sim_secs}\n"),
            stages: vec!["ingest".into(), "passive".into()],
            deltas: vec![("alerts".into(), 2.0), ("blames".into(), 5.0)],
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let r = FlightRecorder::new(3);
        for t in 0..5 {
            r.record(frame(t * 900));
        }
        let frames = r.with_ring(|frames, _| frames.clone());
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].sim_secs, 1800, "oldest two evicted");
        assert_eq!(frames[2].sim_secs, 3600);
        assert_eq!(r.capacity(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn trigger_log_accumulates_in_order() {
        let r = FlightRecorder::new(4);
        r.trigger(900, FlightTrigger::DegradedSpike, "3 degraded");
        r.trigger(1800, FlightTrigger::Manual, "operator");
        let events = r.with_ring(|_, events| events.to_vec());
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].trigger, FlightTrigger::DegradedSpike);
        assert_eq!(events[1].sim_secs, 1800);
    }

    #[test]
    fn labels_round_trip() {
        for t in FlightTrigger::ALL {
            assert_eq!(FlightTrigger::from_label(t.label()), Some(t));
            assert_eq!(t.to_string(), t.label());
        }
        assert_eq!(FlightTrigger::from_label("nope"), None);
    }

    #[test]
    fn dump_jsonl_shape() {
        let r = FlightRecorder::new(4);
        r.trigger(900, FlightTrigger::ChaosBurst, "4 absorbed");
        r.record(frame(900));
        let dump = r.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\":\"trigger\""), "{dump}");
        assert!(lines[0].contains("\"trigger\":\"chaos-burst\""), "{dump}");
        assert!(lines[1].starts_with("{\"kind\":\"frame\""), "{dump}");
        assert!(lines[1].contains("\"sim_secs\":900"), "{dump}");
        assert!(
            lines[1].contains("\"stages\":[\"ingest\",\"passive\"]"),
            "{dump}"
        );
        assert!(lines[1].contains("\"alerts\":2"), "{dump}");
        assert!(
            lines[1].contains("\"transcript\":\"tick at 900\\n\""),
            "{dump}"
        );
    }

    #[test]
    fn restore_trims_to_capacity() {
        let r = FlightRecorder::new(2);
        r.restore(
            vec![frame(0), frame(900), frame(1800)],
            vec![FlightDumpEvent {
                sim_secs: 900,
                trigger: FlightTrigger::RecoveryFallback,
                detail: "fallback".into(),
            }],
        );
        let frames = r.with_ring(|frames, _| frames.clone());
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].sim_secs, 900);
        assert_eq!(r.with_ring(|_, events| events.len()), 1);
    }

    #[test]
    fn clone_is_deep() {
        let a = FlightRecorder::new(4);
        a.record(frame(900));
        let b = a.clone();
        b.record(frame(1800));
        assert_eq!(a.len(), 1, "clone must not share the ring");
        assert_eq!(b.len(), 2);
        b.clear();
        assert_eq!(b.len(), 0);
        assert_eq!(a.len(), 1);
    }
}
