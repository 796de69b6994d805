//! Snapshot encode/decode for the full [`BlameItEngine`] state.
//!
//! Everything that influences a future tick is serialized: the
//! expected-RTT learner (including its reservoir RNG position), the
//! duration/client-count histories, open incidents, the baseline
//! store, scheduler clocks, probe-target maps, episode windows, and
//! the churn cursor — and the learner's median cache, whose entries
//! freeze the median at first-lookup time within a day and therefore
//! cannot be recomputed from the reservoirs alone. Since v3 the
//! cumulative observability counters (degraded verdicts, chaos
//! injections, ingest sheds/backpressure) are persisted too — they are
//! not decision-path state, but restoring them keeps dashboards
//! monotonic across crash→recover→resume. Histograms and gauges remain
//! excluded (recomputed or refreshed every tick).
//!
//! Each section is one value, written and read through the
//! [`Codec`] impl of its type, declared once below. Encoding is
//! canonical: every map is emitted sorted by its encoded key bytes and
//! every set in `Ord` order, so two state-equal engines produce
//! identical snapshots regardless of hash-seed iteration order. All
//! floats are stored as IEEE-754 bit patterns (exact round-trip).

use super::codec::{
    codec_struct, decode_exact, put_entries, put_seq, read_preamble, read_section, write_preamble,
    write_section_with, ByteReader, ByteWriter, Codec, CodecError, KIND_SNAPSHOT,
};
use super::PersistError;
use crate::active::UnlocalizedReason;
use crate::background::{BackgroundScheduler, BaselineEntry, BaselineStore};
use crate::fxhash::DetHashMap;
use crate::grouping::MiddleKey;
use crate::history::{
    ClientCountHistory, DurationHistory, DurationSamples, ExpectedRttLearner, RttKey, RttSeries,
};
use crate::incident::{IncidentTracker, OpenIncident};
use crate::pipeline::{BlameItEngine, EngineState};
use blameit_obs::{FlightDumpEvent, FlightFrame, FlightTrigger};
use blameit_simnet::{SimTime, TimeBucket};
use blameit_topology::rng::DetRng;
use blameit_topology::{Asn, CloudLocId, PathId};
use std::collections::{BTreeMap, VecDeque};

// Section ids, in file order.
const SEC_IDENTITY: u8 = 1;
const SEC_EXPECTED: u8 = 2;
const SEC_DURATIONS: u8 = 3;
const SEC_CLIENT_HIST: u8 = 4;
const SEC_INCIDENTS: u8 = 5;
const SEC_BASELINES: u8 = 6;
const SEC_SCHEDULER: u8 = 7;
const SEC_ENGINE: u8 = 8;
const SEC_FLIGHT: u8 = 9;
const SEC_COUNTERS: u8 = 10;

/// Every section, in file order, with the name `fsck` prints for it.
pub const SECTIONS: [(u8, &str); 10] = [
    (SEC_IDENTITY, "identity"),
    (SEC_EXPECTED, "expected"),
    (SEC_DURATIONS, "durations"),
    (SEC_CLIENT_HIST, "client_hist"),
    (SEC_INCIDENTS, "incidents"),
    (SEC_BASELINES, "baselines"),
    (SEC_SCHEDULER, "scheduler"),
    (SEC_ENGINE, "engine"),
    (SEC_FLIGHT, "flight"),
    (SEC_COUNTERS, "counters"),
];

/// A fully decoded snapshot, not yet bound to an engine: identity, the
/// engine's [`EngineState`], the flight ring and the counters.
///
/// Holding the decoded form (rather than writing straight into an
/// engine) lets `fsck` and the property tests validate a snapshot
/// end-to-end without constructing a pipeline.
pub struct SnapshotState {
    /// Seed the engine ran under (identity — must match on load).
    pub seed: u64,
    /// Buckets per tick (identity — must match on load).
    pub tick_buckets: u32,
    /// Completed ticks at the moment the snapshot was taken; journal
    /// records at or beyond this index replay on top of it.
    pub ticks_done: u64,
    /// Everything a future tick reads.
    pub state: EngineState,
    /// Flight-recorder frames at snapshot time, oldest first. Persisted
    /// so a post-recovery dump shows the same history an uninterrupted
    /// run would.
    pub flight_frames: Vec<FlightFrame>,
    /// Flight-recorder trigger log at snapshot time.
    pub flight_dumps: Vec<FlightDumpEvent>,
    /// Cumulative observability counters at snapshot time.
    pub counters: SnapshotCounters,
}

/// Cumulative metric counters persisted alongside engine state (v3).
///
/// Not decision-path state — restoring them keeps operator counters
/// monotonic across crash→recover→resume, and journal replay then
/// re-increments them exactly as the uninterrupted run would have.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotCounters {
    /// `blameit_degraded_verdicts_total{reason}`
    /// (`UnlocalizedReason::ALL` order).
    pub degraded: [u64; 6],
    /// `blameit_chaos_faults_injected_total{kind}`
    /// ([`crate::backend::chaos_counters`] order).
    pub chaos: [u64; 7],
    /// `blameit_shed_quartets_total{reason}`
    /// (`metrics::shed_reason::ALL` order).
    pub shed: [u64; 2],
    /// `blameit_backpressure_replies_total`.
    pub backpressure_replies: u64,
}

impl SnapshotCounters {
    /// Reads the current values off the engine's shared registry.
    /// Chaos counters go through `counter_with`, which registers
    /// zero-valued instruments when no chaos backend ever attached —
    /// capture therefore never misses them.
    // lint:allow(transitive-effect): shed labels are drawn from shed_reason::ALL itself; the lookup expect cannot fire
    pub(crate) fn capture(engine: &BlameItEngine) -> SnapshotCounters {
        let m = &engine.metrics;
        SnapshotCounters {
            degraded: UnlocalizedReason::ALL.map(|r| m.degraded_counter(r).get()),
            chaos: crate::backend::chaos_counters(m.registry()).map(|c| c.get()),
            shed: crate::metrics::shed_reason::ALL.map(|r| m.shed_counter(r).get()),
            backpressure_replies: m.backpressure_replies.get(),
        }
    }

    /// Seeds the engine's registry counters with the persisted values
    /// (call after the engine state is in place).
    /// A `ChaosBackend::with_registry` sharing this registry picks the
    /// same `Arc`s up, so its counts continue from here.
    // lint:allow(transitive-effect): shed labels are drawn from shed_reason::ALL itself; the lookup expect cannot fire
    fn install(&self, engine: &BlameItEngine) {
        let m = &engine.metrics;
        for (r, v) in UnlocalizedReason::ALL.into_iter().zip(self.degraded) {
            m.degraded_counter(r).store(v);
        }
        for (c, v) in crate::backend::chaos_counters(m.registry())
            .iter()
            .zip(self.chaos)
        {
            c.store(v);
        }
        for (r, v) in crate::metrics::shed_reason::ALL.into_iter().zip(self.shed) {
            m.shed_counter(r).store(v);
        }
        m.backpressure_replies.store(self.backpressure_replies);
        // The two probe counters continue from the totals the engine
        // state (already installed) persists, not from this section.
        m.on_demand_probes
            .store(engine.state.on_demand_probes_total);
        m.background_probes
            .store(engine.state.background_probes_total);
    }
}

impl SnapshotState {
    /// Installs this state onto `engine`, consuming it. Fails with
    /// [`PersistError::ConfigMismatch`] when the snapshot identity
    /// (seed, tick width) differs from the engine's configuration —
    /// replaying another identity's journal would silently diverge.
    /// Returns the snapshot's `ticks_done`.
    // lint:allow(transitive-effect): flight-recorder lock().expect only propagates a *prior* panic (poisoned mutex); it cannot originate one
    pub fn apply(self, engine: &mut BlameItEngine) -> Result<u64, PersistError> {
        if engine.cfg.seed != self.seed {
            return Err(PersistError::ConfigMismatch(format!(
                "snapshot seed {:#x} != engine seed {:#x}",
                self.seed, engine.cfg.seed
            )));
        }
        if engine.cfg.tick_buckets != self.tick_buckets {
            return Err(PersistError::ConfigMismatch(format!(
                "snapshot tick_buckets {} != engine tick_buckets {}",
                self.tick_buckets, engine.cfg.tick_buckets
            )));
        }
        engine.state = self.state;
        engine.flight.restore(self.flight_frames, self.flight_dumps);
        self.counters.install(engine);
        Ok(self.ticks_done)
    }

    /// Serializes to the canonical snapshot byte format — through
    /// [`write_snapshot`], the writer [`encode`] also uses, so the
    /// property tests exercising it from outside the crate cover the
    /// exact bytes the engine persists.
    pub fn to_bytes(&self) -> Vec<u8> {
        write_snapshot(
            (self.seed, self.tick_buckets, self.ticks_done),
            &self.state,
            (&self.flight_frames, &[]),
            &self.flight_dumps,
            &self.counters,
        )
    }
}

/// Encodes the engine's full durable state after `ticks_done`
/// completed ticks, from borrows of the engine's own state and flight
/// ring: nothing is cloned on the way to the bytes.
// lint:allow(transitive-effect): flight-recorder lock().expect only propagates a *prior* panic (poisoned mutex); it cannot originate one
pub fn encode(engine: &BlameItEngine, ticks_done: u64) -> Vec<u8> {
    let counters = SnapshotCounters::capture(engine);
    engine.flight.with_ring(|frames, dumps| {
        write_snapshot(
            (engine.cfg.seed, engine.cfg.tick_buckets, ticks_done),
            &engine.state,
            frames.as_slices(),
            dumps,
            &counters,
        )
    })
}

/// The one writer of the snapshot format: preamble, then every section
/// of [`SECTIONS`] in order, each framed and CRC'd in place. The flight
/// frames arrive as the two halves of a ring, oldest first; [`decode`]
/// reads each section back as the value written here.
fn write_snapshot(
    identity: (u64, u32, u64),
    state: &EngineState,
    (older, newer): (&[FlightFrame], &[FlightFrame]),
    dumps: &[FlightDumpEvent],
    counters: &SnapshotCounters,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_preamble(&mut w, KIND_SNAPSHOT);
    write_section_with(&mut w, SEC_IDENTITY, |w| identity.put(w));
    write_section_with(&mut w, SEC_EXPECTED, |w| state.expected.put(w));
    write_section_with(&mut w, SEC_DURATIONS, |w| state.durations.put(w));
    write_section_with(&mut w, SEC_CLIENT_HIST, |w| state.client_hist.put(w));
    write_section_with(&mut w, SEC_INCIDENTS, |w| state.incidents.put(w));
    write_section_with(&mut w, SEC_BASELINES, |w| state.baselines.put(w));
    write_section_with(&mut w, SEC_SCHEDULER, |w| state.scheduler.put(w));
    write_section_with(&mut w, SEC_ENGINE, |w| {
        state.rep_p24.put(w);
        state.baseline_p24.put(w);
        state.monitored_prefixes.put(w);
        state.episodes.put(w);
        state.bg_failed_once.put(w);
        state.churn_cursor.put(w);
        state.on_demand_probes_total.put(w);
        state.background_probes_total.put(w);
    });
    write_section_with(&mut w, SEC_FLIGHT, |w| {
        put_seq(w, older.len() + newer.len(), older.iter().chain(newer));
        put_seq(w, dumps.len(), dumps);
    });
    write_section_with(&mut w, SEC_COUNTERS, |w| counters.put(w));
    w.into_bytes()
}

/// Splits a snapshot into its CRC-checked section payloads, in
/// [`SECTIONS`] order; anything else — a missing, extra, reordered or
/// damaged section, trailing bytes — is an error.
fn read_sections(bytes: &[u8]) -> Result<[&[u8]; SECTIONS.len()], CodecError> {
    let mut r = read_preamble(bytes, KIND_SNAPSHOT)?;
    let mut payloads: [&[u8]; SECTIONS.len()] = [&[]; SECTIONS.len()];
    for ((want, _), slot) in SECTIONS.into_iter().zip(&mut payloads) {
        let (id, payload) = read_section(&mut r)?;
        if id != want {
            return Err(CodecError::Invalid("sections out of order"));
        }
        *slot = payload;
    }
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes after last section"));
    }
    Ok(payloads)
}

/// `(section name, payload bytes)` for every section of a snapshot, in
/// file order — what `fsck` prints so a growing section is visible.
pub fn section_sizes(bytes: &[u8]) -> Result<Vec<(&'static str, usize)>, CodecError> {
    let payloads = read_sections(bytes)?;
    Ok(SECTIONS
        .iter()
        .zip(payloads)
        .map(|((_, name), p)| (*name, p.len()))
        .collect())
}

/// Decodes a snapshot. Errors (never panics) on any corruption:
/// preamble flips hit value checks, everything after hits a section
/// CRC before its payload is even parsed, and each section must hold
/// exactly the one value [`write_snapshot`] put there.
pub fn decode(bytes: &[u8]) -> Result<SnapshotState, CodecError> {
    let [p_ident, p_expected, p_durations, p_client, p_incidents, p_baselines, p_scheduler, p_engine, p_flight, p_counters] =
        read_sections(bytes)?;
    let (seed, tick_buckets, ticks_done) = decode_exact(p_ident)?;
    let (
        rep_p24,
        baseline_p24,
        monitored_prefixes,
        episodes,
        bg_failed_once,
        churn_cursor,
        on_demand_probes_total,
        background_probes_total,
    ) = decode_exact(p_engine)?;
    let (flight_frames, flight_dumps) = decode_exact(p_flight)?;
    let state = EngineState {
        expected: decode_exact(p_expected)?,
        durations: decode_exact(p_durations)?,
        client_hist: decode_exact(p_client)?,
        incidents: decode_exact(p_incidents)?,
        baselines: decode_exact(p_baselines)?,
        scheduler: decode_exact(p_scheduler)?,
        rep_p24,
        baseline_p24,
        monitored_prefixes,
        episodes,
        bg_failed_once,
        churn_cursor,
        on_demand_probes_total,
        background_probes_total,
    };
    Ok(SnapshotState {
        seed,
        tick_buckets,
        ticks_done,
        state,
        flight_frames,
        flight_dumps,
        counters: decode_exact(p_counters)?,
    })
}

// ---- layouts ---------------------------------------------------------------

/// A tag byte, then the variant's ids.
impl Codec for MiddleKey {
    /// `Path`, the shortest variant.
    const MIN_BYTES: usize = <(u8, PathId)>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            MiddleKey::Path(p) => (0u8, p).put(w),
            MiddleKey::Atom(p, a) => (1u8, p, a).put(w),
            MiddleKey::Prefix(p, pre) => (2u8, p, pre).put(w),
            MiddleKey::AsMetro(a, m) => (3u8, a, m).put(w),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(MiddleKey::Path(Codec::get(r)?)),
            1 => Ok(MiddleKey::Atom(Codec::get(r)?, Codec::get(r)?)),
            2 => Ok(MiddleKey::Prefix(Codec::get(r)?, Codec::get(r)?)),
            3 => Ok(MiddleKey::AsMetro(Codec::get(r)?, Codec::get(r)?)),
            _ => Err(CodecError::Invalid("unknown MiddleKey tag")),
        }
    }
}

/// A tag byte, the location or middle key, then the device class.
impl Codec for RttKey {
    /// `Cloud`, the shorter variant.
    const MIN_BYTES: usize = <(u8, CloudLocId, bool)>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            RttKey::Cloud(loc, mobile) => (0u8, loc, mobile).put(w),
            RttKey::Middle(key, mobile) => (1u8, key, mobile).put(w),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(RttKey::Cloud(Codec::get(r)?, Codec::get(r)?)),
            1 => Ok(RttKey::Middle(Codec::get(r)?, Codec::get(r)?)),
            _ => Err(CodecError::Invalid("unknown RttKey tag")),
        }
    }
}

/// The learner as read: window, day cap, latest day, RNG position; the
/// reservoirs and the newest-day counts as two entry lists over one key
/// set; then the median cache.
type LearnerLayout = (
    u32,
    usize,
    u32,
    ([u64; 4], Option<f64>),
    Vec<(RttKey, VecDeque<(u32, Vec<f64>)>)>,
    Vec<(RttKey, u64)>,
    DetHashMap<RttKey, (u32, Option<f64>)>,
);

/// Written as [`LearnerLayout`]. The median cache MUST be persisted: a
/// cached entry freezes the median at whatever observations existed at
/// first lookup that day, while `observe` keeps growing the underlying
/// reservoirs. A recovered engine recomputing the entry from the full
/// map would see a different (later) view of the same day and diverge.
impl Codec for ExpectedRttLearner {
    const MIN_BYTES: usize = LearnerLayout::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        (self.window_days, self.day_cap, self.latest_day).put(w);
        self.rng.state().put(w);
        put_entries(w, &self.map, |s| &s.days);
        put_entries(w, &self.map, |s| &s.seen);
        self.cache.borrow().put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let (window_days, day_cap, latest_day, (s, spare), reservoirs, counts, cache) =
            LearnerLayout::get(r)?;
        if window_days < 1 {
            return Err(CodecError::Invalid("expected-RTT window must be >= 1 day"));
        }
        // Both lists are written from one map, in one canonical order.
        let same_keys = reservoirs
            .iter()
            .map(|e| e.0)
            .eq(counts.iter().map(|e| e.0));
        if !same_keys {
            return Err(CodecError::Invalid("expected-RTT sections differ in keys"));
        }
        let map = reservoirs
            .into_iter()
            .zip(counts)
            .map(|((key, days), (_, seen))| (key, RttSeries { days, seen }))
            .collect();
        Ok(ExpectedRttLearner {
            window_days,
            day_cap,
            map,
            cache: std::cell::RefCell::new(cache),
            rng: DetRng::from_state(s, spare),
            latest_day,
        })
    }
}

/// A duration FIFO is its samples, oldest first: the derived count
/// index is not on disk, and [`DurationSamples::from_fifo`] rebuilds it.
impl Codec for DurationSamples {
    const MIN_BYTES: usize = VecDeque::<u32>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        self.fifo().put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(DurationSamples::from_fifo(Codec::get(r)?))
    }
}

codec_struct!(DurationHistory {
    cap: usize,
    per_path: DetHashMap<PathId, DurationSamples>,
    global: DurationSamples,
});

/// The window, at least one day, then the per-(path, slot) volumes.
impl Codec for ClientCountHistory {
    const MIN_BYTES: usize = <(u32, DetHashMap<(PathId, u16), VecDeque<(u32, u64)>>)>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        self.window_days.put(w);
        self.map.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let window_days = u32::get(r)?;
        if window_days < 1 {
            return Err(CodecError::Invalid("client-count window must be >= 1 day"));
        }
        let map = Codec::get(r)?;
        Ok(ClientCountHistory { window_days, map })
    }
}

codec_struct!(OpenIncident {
    start: TimeBucket,
    buckets: u32,
    observations: u64,
});

/// The last bucket fed, then the open incidents.
impl<K: Codec + Ord + Clone> Codec for IncidentTracker<K> {
    const MIN_BYTES: usize = <(Option<TimeBucket>, BTreeMap<K, OpenIncident>)>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        self.last_bucket.put(w);
        self.open.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let last_bucket = Codec::get(r)?;
        let open = Codec::get(r)?;
        Ok(IncidentTracker { open, last_bucket })
    }
}

codec_struct!(BaselineEntry {
    at: SimTime,
    contributions: Vec<(Asn, f64)>,
});

codec_struct!(BaselineStore {
    map: DetHashMap<(CloudLocId, PathId), VecDeque<BaselineEntry>>,
});

/// The period, which must be positive, the churn switch, then the
/// last-probed clocks.
impl Codec for BackgroundScheduler {
    const MIN_BYTES: usize = <(u64, bool, DetHashMap<(CloudLocId, PathId), SimTime>)>::MIN_BYTES;
    fn put(&self, w: &mut ByteWriter) {
        (self.period_secs, self.churn_triggered).put(w);
        self.last.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let period_secs = u64::get(r)?;
        if period_secs == 0 {
            return Err(CodecError::Invalid("scheduler period must be positive"));
        }
        Ok(BackgroundScheduler {
            period_secs,
            churn_triggered: Codec::get(r)?,
            last: Codec::get(r)?,
        })
    }
}

/// A trigger is its label; `manual` is the shortest.
impl Codec for FlightTrigger {
    const MIN_BYTES: usize = String::MIN_BYTES + FlightTrigger::Manual.label().len();
    fn put(&self, w: &mut ByteWriter) {
        let label = self.label();
        w.put_len(label.len());
        w.put_bytes(label.as_bytes());
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        FlightTrigger::from_label(&String::get(r)?)
            .ok_or(CodecError::Invalid("unknown flight trigger label"))
    }
}

codec_struct!(FlightFrame {
    sim_secs: u64,
    bucket: u32,
    transcript: String,
    stages: Vec<String>,
    deltas: Vec<(String, f64)>,
});

codec_struct!(FlightDumpEvent {
    sim_secs: u64,
    trigger: FlightTrigger,
    detail: String,
});

codec_struct!(SnapshotCounters {
    degraded: [u64; 6],
    chaos: [u64; 7],
    shed: [u64; 2],
    backpressure_replies: u64,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::WorldBackend;
    use crate::pipeline::BlameItConfig;
    use crate::thresholds::BadnessThresholds;
    use blameit_simnet::{TimeRange, World, WorldConfig};
    use blameit_topology::IpPrefix;

    fn small_engine() -> (BlameItEngine, World) {
        let w = World::new(WorldConfig::tiny(2, 42));
        let th = BadnessThresholds::default_for(&w);
        let mut cfg = BlameItConfig::new(th);
        cfg.parallelism = 1;
        let mut engine = BlameItEngine::new(cfg);
        let backend = WorldBackend::new(&w);
        engine.warmup(
            &backend,
            TimeRange::new(SimTime::ZERO, SimTime::from_days(1)),
            4,
        );
        (engine, w)
    }

    /// What `v.put` writes into a fresh buffer.
    fn bytes_of<T: Codec>(v: &T) -> Vec<u8> {
        let mut w = ByteWriter::new();
        v.put(&mut w);
        w.into_bytes()
    }

    /// The expected section as it was when the learner kept `map` and
    /// `counts` apart (the cache is the one-map learner's own: that
    /// part of the state did not change).
    fn encode_expected_reference(
        l: &crate::history::two_map_reference::TwoMapLearner,
        cache: &DetHashMap<RttKey, (u32, Option<f64>)>,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        (l.window_days, l.day_cap, l.latest_day, l.rng.state()).put(&mut w);
        l.map.put(&mut w);
        l.counts.put(&mut w);
        cache.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn expected_section_bytes_match_the_two_map_learner() {
        for seed in 0..4u64 {
            let (learner, reference) = crate::history::two_map_reference::drive(seed);
            let bytes = bytes_of(&learner);
            assert!(!learner.cache.borrow().is_empty());
            assert_eq!(
                bytes,
                encode_expected_reference(&reference, &learner.cache.borrow()),
                "seed {seed}"
            );
            let decoded: ExpectedRttLearner = decode_exact(&bytes).expect("own bytes decode");
            assert_eq!(bytes_of(&decoded), bytes, "seed {seed}: fixed point");
        }
    }

    #[test]
    fn expected_sections_that_disagree_are_rejected() {
        // One reservoir entry for `key`, one count entry for `count_key`.
        let key = RttKey::Cloud(CloudLocId(1), false);
        let section = |count_key: RttKey| {
            let mut w = ByteWriter::new();
            (14u32, 64usize, 0u32, ([1u64, 2, 3, 4], None::<f64>)).put(&mut w);
            vec![(key, VecDeque::from([(0u32, vec![10.0f64])]))].put(&mut w);
            vec![(count_key, 1u64)].put(&mut w);
            DetHashMap::<RttKey, (u32, Option<f64>)>::default().put(&mut w);
            w.into_bytes()
        };
        let ok: ExpectedRttLearner = decode_exact(&section(key)).expect("matching sections decode");
        assert_eq!(ok.map[&key].seen, 1);
        assert!(matches!(
            decode_exact::<ExpectedRttLearner>(&section(RttKey::Cloud(CloudLocId(2), false))),
            Err(CodecError::Invalid(_))
        ));
    }

    /// `v` encodes to exactly `T::MIN_BYTES`.
    fn assert_tight<T: Codec>(v: T, what: &str) {
        assert_eq!(bytes_of(&v).len(), T::MIN_BYTES, "{what}");
        let back: T = decode_exact(&bytes_of(&v)).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(bytes_of(&back), bytes_of(&v), "{what}");
    }

    /// `MIN_BYTES` is a tight bound: the smallest value of every layout
    /// declared here encodes to exactly it.
    #[test]
    fn the_smallest_value_of_every_layout_takes_exactly_min_bytes() {
        assert_tight(MiddleKey::Path(PathId(0)), "MiddleKey");
        assert_tight(RttKey::Cloud(CloudLocId(0), false), "RttKey");
        assert_tight(ExpectedRttLearner::with_window(1, 0), "ExpectedRttLearner");
        assert_tight(DurationSamples::default(), "DurationSamples");
        assert_tight(DurationHistory::new(), "DurationHistory");
        assert_tight(ClientCountHistory::with_window(1), "ClientCountHistory");
        let incident = OpenIncident {
            start: TimeBucket(0),
            buckets: 0,
            observations: 0,
        };
        assert_tight(incident, "OpenIncident");
        assert_tight(
            IncidentTracker::<(CloudLocId, PathId)>::new(),
            "IncidentTracker",
        );
        let entry = BaselineEntry {
            contributions: vec![],
            at: SimTime(0),
        };
        assert_tight(entry, "BaselineEntry");
        assert_tight(BaselineStore::new(), "BaselineStore");
        assert_tight(BackgroundScheduler::new(1, false), "BackgroundScheduler");
        assert_tight(FlightTrigger::Manual, "FlightTrigger");
        let frame = FlightFrame {
            sim_secs: 0,
            bucket: 0,
            transcript: String::new(),
            stages: vec![],
            deltas: vec![],
        };
        assert_tight(frame, "FlightFrame");
        let dump = FlightDumpEvent {
            sim_secs: 0,
            trigger: FlightTrigger::Manual,
            detail: String::new(),
        };
        assert_tight(dump, "FlightDumpEvent");
        assert_tight(SnapshotCounters::default(), "SnapshotCounters");
        for t in FlightTrigger::ALL {
            assert!(bytes_of(&t).len() >= FlightTrigger::MIN_BYTES, "{t}");
        }
        let longest = [
            MiddleKey::Atom(PathId(0), Asn(0)),
            MiddleKey::Prefix(PathId(0), IpPrefix::new(0, 0)),
            MiddleKey::AsMetro(Asn(0), blameit_topology::MetroId(0)),
        ];
        for key in longest {
            assert!(bytes_of(&key).len() > MiddleKey::MIN_BYTES, "{key:?}");
        }
    }

    /// A never-observed cloud key's cache entry, `(day, None)`, is the
    /// smallest map entry a snapshot holds (9 bytes). An engine's first
    /// tick without warm-up looks every key up before its first
    /// observation and caches only `None`s, frozen for the day; its
    /// snapshot must decode.
    #[test]
    fn an_unwarmed_engine_s_snapshot_decodes() {
        let w = World::new(WorldConfig::tiny(2, 42));
        let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&w));
        cfg.parallelism = 1;
        let mut engine = BlameItEngine::new(cfg);
        let mut backend = WorldBackend::new(&w);
        engine.tick(&mut backend, TimeBucket(0));
        let cache = engine.state.expected.cache.borrow().clone();
        assert!(cache.values().all(|&(day, v)| (day, v) == (0, None)));
        let cloud = |k: &RttKey| matches!(k, RttKey::Cloud(..));
        assert!(cache.keys().any(cloud), "cloud keys were looked up");
        let bytes = encode(&engine, 1);
        let state = decode(&bytes).expect("an unwarmed engine's snapshot decodes");
        assert_eq!(state.to_bytes(), bytes);
    }

    #[test]
    fn encode_is_canonical_and_roundtrips() {
        let (mut engine, w) = small_engine();
        let mut backend = WorldBackend::new(&w);
        engine.tick(&mut backend, SimTime::from_days(1).bucket());
        let a = encode(&engine, 1);
        let b = encode(&engine, 1);
        assert_eq!(a, b, "same state must encode identically");

        let state = decode(&a).unwrap();
        assert_eq!(state.ticks_done, 1);
        // Applying onto a config-identical fresh engine and re-encoding
        // reproduces the exact bytes: the snapshot captures everything
        // it claims to.
        let mut fresh = BlameItEngine::new(engine.config().clone());
        state.apply(&mut fresh).unwrap();
        assert_eq!(encode(&fresh, 1), a);
    }

    #[test]
    fn apply_refuses_wrong_identity() {
        let (engine, _w) = small_engine();
        let bytes = encode(&engine, 0);
        let mut cfg = engine.config().clone();
        cfg.seed ^= 1;
        let mut other = BlameItEngine::new(cfg);
        let err = decode(&bytes).unwrap().apply(&mut other).unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch(_)), "{err}");

        let mut cfg = engine.config().clone();
        cfg.tick_buckets += 1;
        let mut other = BlameItEngine::new(cfg);
        let err = decode(&bytes).unwrap().apply(&mut other).unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch(_)), "{err}");
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let (engine, _w) = small_engine();
        let bytes = encode(&engine, 3);
        // Flipping any single bit anywhere must make decode error —
        // stride through the file to keep the test fast on big states.
        let stride = (bytes.len() / 257).max(1);
        for i in (0..bytes.len()).step_by(stride) {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    decode(&corrupt).is_err(),
                    "bit {bit} of byte {i} flipped undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (engine, _w) = small_engine();
        let bytes = encode(&engine, 0);
        for cut in [0, 1, 6, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is also rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode(&extended).is_err());
    }
}
