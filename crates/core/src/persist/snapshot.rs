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
//! Encoding is canonical: every hash map is emitted sorted by its
//! encoded key bytes, so two state-equal engines produce identical
//! snapshots regardless of hash-seed iteration order. All floats are
//! stored as IEEE-754 bit patterns (exact round-trip).

use super::codec::{
    read_preamble, read_section, write_preamble, write_section_with, ByteReader, ByteWriter,
    CodecError, KIND_SNAPSHOT,
};
use super::PersistError;
use crate::active::UnlocalizedReason;
use crate::background::{BackgroundScheduler, BaselineEntry, BaselineStore};
use crate::fxhash::{det_set_with_capacity, DetHashSet};
use crate::grouping::MiddleKey;
use crate::history::{
    ClientCountHistory, DurationHistory, DurationSamples, ExpectedRttLearner, RttKey, RttSeries,
};
use crate::incident::{IncidentTracker, OpenIncident};
use crate::pipeline::{BlameItEngine, EngineState};
use blameit_obs::{FlightDumpEvent, FlightFrame, FlightTrigger};
use blameit_simnet::{SimTime, TimeBucket};
use blameit_topology::rng::DetRng;
use blameit_topology::{Asn, CloudLocId, IpPrefix, MetroId, PathId, Prefix24};
use std::collections::VecDeque;
use std::hash::Hash;

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
    fn capture(engine: &BlameItEngine) -> SnapshotCounters {
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
/// frames arrive as the two halves of a ring, oldest first.
fn write_snapshot(
    (seed, tick_buckets, ticks_done): (u64, u32, u64),
    state: &EngineState,
    frames: (&[FlightFrame], &[FlightFrame]),
    dumps: &[FlightDumpEvent],
    counters: &SnapshotCounters,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_preamble(&mut w, KIND_SNAPSHOT);
    write_section_with(&mut w, SEC_IDENTITY, |w| {
        w.put_u64(seed);
        w.put_u32(tick_buckets);
        w.put_u64(ticks_done);
    });
    write_section_with(&mut w, SEC_EXPECTED, |w| put_expected(w, &state.expected));
    write_section_with(&mut w, SEC_DURATIONS, |w| {
        put_durations(w, &state.durations)
    });
    write_section_with(&mut w, SEC_CLIENT_HIST, |w| {
        put_client_hist(w, &state.client_hist)
    });
    write_section_with(&mut w, SEC_INCIDENTS, |w| {
        put_incidents(w, &state.incidents)
    });
    write_section_with(&mut w, SEC_BASELINES, |w| {
        put_baselines(w, &state.baselines)
    });
    write_section_with(&mut w, SEC_SCHEDULER, |w| {
        put_scheduler(w, &state.scheduler)
    });
    write_section_with(&mut w, SEC_ENGINE, |w| put_engine_misc(w, state));
    write_section_with(&mut w, SEC_FLIGHT, |w| put_flight(w, frames, dumps));
    write_section_with(&mut w, SEC_COUNTERS, |w| put_counters(w, counters));
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
/// CRC before its payload is even parsed.
// lint:allow(transitive-effect): Prefix24::from_block is fed by get_block, which range-checks to 24 bits first — its assert cannot fire
pub fn decode(bytes: &[u8]) -> Result<SnapshotState, CodecError> {
    let [p_ident, p_expected, p_durations, p_client, p_incidents, p_baselines, p_scheduler, p_engine, p_flight, p_counters] =
        read_sections(bytes)?;

    let mut ident = ByteReader::new(p_ident);
    let seed = ident.u64()?;
    let tick_buckets = ident.u32()?;
    let ticks_done = ident.u64()?;

    let mut e = ByteReader::new(p_engine);
    let get_p24 = |r: &mut ByteReader<'_>| Ok(Prefix24::from_block(get_block(r)?));
    // Field order is read order: the learner and history sections, then
    // the engine section front to back.
    let state = EngineState {
        expected: decode_expected(p_expected)?,
        durations: decode_durations(p_durations)?,
        client_hist: decode_client_hist(p_client)?,
        incidents: decode_incidents(p_incidents)?,
        baselines: decode_baselines(p_baselines)?,
        scheduler: decode_scheduler(p_scheduler)?,
        rep_p24: get_map(&mut e, 10, get_loc_path, get_p24)?,
        baseline_p24: get_map(&mut e, 10, get_loc_path, get_p24)?,
        monitored_prefixes: get_set(&mut e, 7, |r| Ok((CloudLocId(r.u16()?), get_prefix(r)?)))?,
        episodes: get_map(&mut e, 14, get_loc_path, |r| {
            Ok((TimeBucket(r.u32()?), TimeBucket(r.u32()?)))
        })?,
        bg_failed_once: get_set(&mut e, 6, get_loc_path)?,
        churn_cursor: SimTime(e.u64()?),
        on_demand_probes_total: e.u64()?,
        background_probes_total: e.u64()?,
    };
    if e.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in engine section"));
    }

    let (flight_frames, flight_dumps) = decode_flight(p_flight)?;
    Ok(SnapshotState {
        seed,
        tick_buckets,
        ticks_done,
        state,
        flight_frames,
        flight_dumps,
        counters: decode_counters(p_counters)?,
    })
}

// ---- canonical map framing -------------------------------------------------

/// Writes a map as `count · (key · value)…`, sorted by encoded key
/// bytes — canonical regardless of the source container's iteration
/// order (accepts `&HashMap`, `&BTreeMap`, or any `(&K, &V)` iterator).
/// Keys are encoded once into one scratch buffer and a span index over
/// it is sorted; each value is then written straight into `w`.
fn put_map<'a, K: 'a, V: 'a>(
    w: &mut ByteWriter,
    map: impl IntoIterator<Item = (&'a K, &'a V)>,
    mut put_key: impl FnMut(&mut ByteWriter, &K),
    mut put_val: impl FnMut(&mut ByteWriter, &V),
) {
    let map = map.into_iter();
    let mut keys = ByteWriter::new();
    let mut index: Vec<(usize, usize, &V)> = Vec::with_capacity(map.size_hint().0);
    for (k, v) in map {
        let start = keys.len();
        put_key(&mut keys, k);
        index.push((start, keys.len(), v));
    }
    let keys = keys.as_bytes();
    // lint:allow(panic-in-decode): encode path — every span was measured on `keys` as it was written
    let key = |&(start, end, _): &(usize, usize, &V)| &keys[start..end];
    index.sort_unstable_by(|a, b| key(a).cmp(key(b)));
    w.put_len(index.len());
    for entry in &index {
        w.put_bytes(key(entry));
        put_val(w, entry.2);
    }
}

/// Reads a map written by [`put_map`] into whatever map type the call
/// site needs (`HashMap`, `BTreeMap`, …).
fn get_map<M: FromIterator<(K, V)>, K, V>(
    r: &mut ByteReader<'_>,
    min_entry_bytes: usize,
    mut get_key: impl FnMut(&mut ByteReader<'_>) -> Result<K, CodecError>,
    mut get_val: impl FnMut(&mut ByteReader<'_>) -> Result<V, CodecError>,
) -> Result<M, CodecError> {
    let n = r.len(min_entry_bytes)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let k = get_key(r)?;
        let v = get_val(r)?;
        entries.push((k, v));
    }
    Ok(entries.into_iter().collect())
}

/// Reads a `count · item…` set.
fn get_set<T: Eq + Hash>(
    r: &mut ByteReader<'_>,
    min_item_bytes: usize,
    mut get_item: impl FnMut(&mut ByteReader<'_>) -> Result<T, CodecError>,
) -> Result<DetHashSet<T>, CodecError> {
    let n = r.len(min_item_bytes)?;
    let mut set = det_set_with_capacity(n);
    for _ in 0..n {
        set.insert(get_item(r)?);
    }
    Ok(set)
}

// ---- key/leaf encoders -----------------------------------------------------

fn put_loc_path(w: &mut ByteWriter, k: &(CloudLocId, PathId)) {
    w.put_u16(k.0 .0);
    w.put_u32(k.1 .0);
}

fn get_loc_path(r: &mut ByteReader<'_>) -> Result<(CloudLocId, PathId), CodecError> {
    Ok((CloudLocId(r.u16()?), PathId(r.u32()?)))
}

fn get_block(r: &mut ByteReader<'_>) -> Result<u32, CodecError> {
    let block = r.u32()?;
    if block >= 1 << 24 {
        return Err(CodecError::Invalid("/24 block number out of range"));
    }
    Ok(block)
}

fn put_middle_key(w: &mut ByteWriter, k: &MiddleKey) {
    match k {
        MiddleKey::Path(p) => {
            w.put_u8(0);
            w.put_u32(p.0);
        }
        MiddleKey::Atom(p, a) => {
            w.put_u8(1);
            w.put_u32(p.0);
            w.put_u32(a.0);
        }
        MiddleKey::Prefix(p, pre) => {
            w.put_u8(2);
            w.put_u32(p.0);
            w.put_u32(pre.base());
            w.put_u8(pre.len());
        }
        MiddleKey::AsMetro(a, m) => {
            w.put_u8(3);
            w.put_u32(a.0);
            w.put_u16(m.0);
        }
    }
}

/// An announced prefix as `base · len`.
// lint:allow(transitive-effect): IpPrefix::new is guarded by the explicit `len > 32` check above the call — its assert cannot fire
fn get_prefix(r: &mut ByteReader<'_>) -> Result<IpPrefix, CodecError> {
    let base = r.u32()?;
    let len = r.u8()?;
    if len > 32 {
        return Err(CodecError::Invalid("prefix length > 32"));
    }
    Ok(IpPrefix::new(base, len))
}

fn get_middle_key(r: &mut ByteReader<'_>) -> Result<MiddleKey, CodecError> {
    match r.u8()? {
        0 => Ok(MiddleKey::Path(PathId(r.u32()?))),
        1 => Ok(MiddleKey::Atom(PathId(r.u32()?), Asn(r.u32()?))),
        2 => Ok(MiddleKey::Prefix(PathId(r.u32()?), get_prefix(r)?)),
        3 => Ok(MiddleKey::AsMetro(Asn(r.u32()?), MetroId(r.u16()?))),
        _ => Err(CodecError::Invalid("unknown MiddleKey tag")),
    }
}

fn put_rtt_key(w: &mut ByteWriter, k: &RttKey) {
    match k {
        RttKey::Cloud(loc, mobile) => {
            w.put_u8(0);
            w.put_u16(loc.0);
            w.put_bool(*mobile);
        }
        RttKey::Middle(mk, mobile) => {
            w.put_u8(1);
            put_middle_key(w, mk);
            w.put_bool(*mobile);
        }
    }
}

fn get_rtt_key(r: &mut ByteReader<'_>) -> Result<RttKey, CodecError> {
    match r.u8()? {
        0 => Ok(RttKey::Cloud(CloudLocId(r.u16()?), r.bool()?)),
        1 => {
            let mk = get_middle_key(r)?;
            Ok(RttKey::Middle(mk, r.bool()?))
        }
        _ => Err(CodecError::Invalid("unknown RttKey tag")),
    }
}

// ---- sections --------------------------------------------------------------

fn put_expected(w: &mut ByteWriter, l: &ExpectedRttLearner) {
    w.put_u32(l.window_days);
    w.put_u64(l.day_cap as u64);
    w.put_u32(l.latest_day);
    let (s, spare) = l.rng.state();
    for word in s {
        w.put_u64(word);
    }
    w.put_opt_f64(spare);
    // Two sections over one key set: reservoirs, then newest-day counts.
    put_map(w, &l.map, put_rtt_key, |w, series| {
        w.put_len(series.days.len());
        for (day, values) in &series.days {
            w.put_u32(*day);
            w.put_len(values.len());
            for v in values {
                w.put_f64(*v);
            }
        }
    });
    put_map(w, &l.map, put_rtt_key, |w, s| w.put_u64(s.seen));
    // The median cache MUST be persisted: a cached entry freezes the
    // median at whatever observations existed at first lookup that
    // day, while `observe` keeps growing the underlying reservoirs. A
    // recovered engine recomputing the entry from the full map would
    // see a different (later) view of the same day and diverge.
    let cache = l.cache.borrow();
    put_map(w, &*cache, put_rtt_key, |w, (day, value)| {
        w.put_u32(*day);
        w.put_opt_f64(*value);
    });
}

fn decode_expected(payload: &[u8]) -> Result<ExpectedRttLearner, CodecError> {
    let mut r = ByteReader::new(payload);
    let window_days = r.u32()?;
    if window_days < 1 {
        return Err(CodecError::Invalid("expected-RTT window must be >= 1 day"));
    }
    let day_cap = r.u64()? as usize;
    let latest_day = r.u32()?;
    let mut s = [0u64; 4];
    for word in &mut s {
        *word = r.u64()?;
    }
    let spare = r.opt_f64()?;
    let reservoirs: Vec<(RttKey, _)> = get_map(&mut r, 12, get_rtt_key, |r| {
        let n = r.len(12)?;
        let mut days: VecDeque<(u32, Vec<f64>)> = VecDeque::with_capacity(n);
        for _ in 0..n {
            let day = r.u32()?;
            let m = r.len(8)?;
            let mut values = Vec::with_capacity(m);
            for _ in 0..m {
                values.push(r.f64()?);
            }
            days.push_back((day, values));
        }
        Ok(days)
    })?;
    let counts: Vec<(RttKey, u64)> = get_map(&mut r, 12, get_rtt_key, |r| r.u64())?;
    // Both sections are written from one map, in one canonical order.
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
    let cache = get_map(&mut r, 12, get_rtt_key, |r| {
        let day = r.u32()?;
        Ok((day, r.opt_f64()?))
    })?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in expected section"));
    }
    Ok(ExpectedRttLearner {
        window_days,
        day_cap,
        map,
        cache: std::cell::RefCell::new(cache),
        rng: DetRng::from_state(s, spare),
        latest_day,
    })
}

/// A duration FIFO as `len` + samples, oldest first — the derived
/// count index is not on disk; [`DurationSamples::from_fifo`] rebuilds
/// it on decode.
fn put_samples(w: &mut ByteWriter, q: &DurationSamples) {
    w.put_len(q.fifo().len());
    for v in q.fifo() {
        w.put_u32(*v);
    }
}

fn get_samples(r: &mut ByteReader<'_>) -> Result<DurationSamples, CodecError> {
    let n = r.len(4)?;
    let mut q = VecDeque::with_capacity(n);
    for _ in 0..n {
        q.push_back(r.u32()?);
    }
    Ok(DurationSamples::from_fifo(q))
}

fn put_durations(w: &mut ByteWriter, d: &DurationHistory) {
    w.put_u64(d.cap as u64);
    put_map(w, &d.per_path, |w, p| w.put_u32(p.0), put_samples);
    put_samples(w, &d.global);
}

fn decode_durations(payload: &[u8]) -> Result<DurationHistory, CodecError> {
    let mut r = ByteReader::new(payload);
    let cap = r.u64()? as usize;
    let per_path = get_map(&mut r, 12, |r| Ok(PathId(r.u32()?)), get_samples)?;
    let global = get_samples(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in durations section"));
    }
    Ok(DurationHistory {
        per_path,
        global,
        cap,
    })
}

fn put_client_hist(w: &mut ByteWriter, h: &ClientCountHistory) {
    w.put_u32(h.window_days);
    put_map(
        w,
        &h.map,
        |w, (p, slot)| {
            w.put_u32(p.0);
            w.put_u16(*slot);
        },
        |w, q| {
            w.put_len(q.len());
            for (day, count) in q {
                w.put_u32(*day);
                w.put_u64(*count);
            }
        },
    );
}

fn decode_client_hist(payload: &[u8]) -> Result<ClientCountHistory, CodecError> {
    let mut r = ByteReader::new(payload);
    let window_days = r.u32()?;
    if window_days < 1 {
        return Err(CodecError::Invalid("client-count window must be >= 1 day"));
    }
    let map = get_map(
        &mut r,
        14,
        |r| Ok((PathId(r.u32()?), r.u16()?)),
        |r| {
            let n = r.len(12)?;
            let mut q = VecDeque::with_capacity(n);
            for _ in 0..n {
                let day = r.u32()?;
                let count = r.u64()?;
                q.push_back((day, count));
            }
            Ok(q)
        },
    )?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in client section"));
    }
    Ok(ClientCountHistory { window_days, map })
}

fn put_incidents(w: &mut ByteWriter, t: &IncidentTracker<(CloudLocId, PathId)>) {
    match t.last_bucket {
        None => w.put_u8(0),
        Some(b) => {
            w.put_u8(1);
            w.put_u32(b.0);
        }
    }
    put_map(w, &t.open, put_loc_path, |w, inc| {
        w.put_u32(inc.start.0);
        w.put_u32(inc.buckets);
        w.put_u64(inc.observations);
    });
}

fn decode_incidents(payload: &[u8]) -> Result<IncidentTracker<(CloudLocId, PathId)>, CodecError> {
    let mut r = ByteReader::new(payload);
    let last_bucket = match r.u8()? {
        0 => None,
        1 => Some(TimeBucket(r.u32()?)),
        _ => return Err(CodecError::Invalid("option byte not 0/1")),
    };
    let open = get_map(&mut r, 14, get_loc_path, |r| {
        Ok(OpenIncident {
            start: TimeBucket(r.u32()?),
            buckets: r.u32()?,
            observations: r.u64()?,
        })
    })?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in incident section"));
    }
    Ok(IncidentTracker { open, last_bucket })
}

fn put_flight(
    w: &mut ByteWriter,
    (older, newer): (&[FlightFrame], &[FlightFrame]),
    dumps: &[FlightDumpEvent],
) {
    w.put_len(older.len() + newer.len());
    for f in older.iter().chain(newer) {
        w.put_u64(f.sim_secs);
        w.put_u32(f.bucket);
        w.put_str(&f.transcript);
        w.put_len(f.stages.len());
        for s in &f.stages {
            w.put_str(s);
        }
        w.put_len(f.deltas.len());
        for (name, v) in &f.deltas {
            w.put_str(name);
            w.put_f64(*v);
        }
    }
    w.put_len(dumps.len());
    for d in dumps {
        w.put_u64(d.sim_secs);
        w.put_str(d.trigger.label());
        w.put_str(&d.detail);
    }
}

fn decode_flight(payload: &[u8]) -> Result<(Vec<FlightFrame>, Vec<FlightDumpEvent>), CodecError> {
    let mut r = ByteReader::new(payload);
    let n = r.len(20)?;
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        let sim_secs = r.u64()?;
        let bucket = r.u32()?;
        let transcript = r.str()?;
        let n_stages = r.len(8)?;
        let mut stages = Vec::with_capacity(n_stages);
        for _ in 0..n_stages {
            stages.push(r.str()?);
        }
        let n_deltas = r.len(16)?;
        let mut deltas = Vec::with_capacity(n_deltas);
        for _ in 0..n_deltas {
            let name = r.str()?;
            let v = r.f64()?;
            deltas.push((name, v));
        }
        frames.push(FlightFrame {
            sim_secs,
            bucket,
            transcript,
            stages,
            deltas,
        });
    }
    let n = r.len(24)?;
    let mut dumps = Vec::with_capacity(n);
    for _ in 0..n {
        let sim_secs = r.u64()?;
        let label = r.str()?;
        let trigger = FlightTrigger::from_label(&label)
            .ok_or(CodecError::Invalid("unknown flight trigger label"))?;
        let detail = r.str()?;
        dumps.push(FlightDumpEvent {
            sim_secs,
            trigger,
            detail,
        });
    }
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in flight section"));
    }
    Ok((frames, dumps))
}

fn put_counters(w: &mut ByteWriter, c: &SnapshotCounters) {
    for v in c.degraded {
        w.put_u64(v);
    }
    for v in c.chaos {
        w.put_u64(v);
    }
    for v in c.shed {
        w.put_u64(v);
    }
    w.put_u64(c.backpressure_replies);
}

fn decode_counters(payload: &[u8]) -> Result<SnapshotCounters, CodecError> {
    let mut r = ByteReader::new(payload);
    let mut c = SnapshotCounters::default();
    for v in &mut c.degraded {
        *v = r.u64()?;
    }
    for v in &mut c.chaos {
        *v = r.u64()?;
    }
    for v in &mut c.shed {
        *v = r.u64()?;
    }
    c.backpressure_replies = r.u64()?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in counter section"));
    }
    Ok(c)
}

fn put_baselines(w: &mut ByteWriter, b: &BaselineStore) {
    put_map(w, &b.map, put_loc_path, |w, q| {
        w.put_len(q.len());
        for e in q {
            w.put_u64(e.at.secs());
            w.put_len(e.contributions.len());
            for (asn, ms) in &e.contributions {
                w.put_u32(asn.0);
                w.put_f64(*ms);
            }
        }
    });
}

fn decode_baselines(payload: &[u8]) -> Result<BaselineStore, CodecError> {
    let mut r = ByteReader::new(payload);
    let map = get_map(&mut r, 14, get_loc_path, |r| {
        let n = r.len(16)?;
        let mut q = VecDeque::with_capacity(n);
        for _ in 0..n {
            let at = SimTime(r.u64()?);
            let m = r.len(12)?;
            let mut contributions = Vec::with_capacity(m);
            for _ in 0..m {
                let asn = Asn(r.u32()?);
                contributions.push((asn, r.f64()?));
            }
            q.push_back(BaselineEntry { contributions, at });
        }
        Ok(q)
    })?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in baseline section"));
    }
    Ok(BaselineStore { map })
}

fn put_scheduler(w: &mut ByteWriter, s: &BackgroundScheduler) {
    w.put_u64(s.period_secs);
    w.put_bool(s.churn_triggered);
    put_map(w, &s.last, put_loc_path, |w, t| w.put_u64(t.secs()));
}

fn decode_scheduler(payload: &[u8]) -> Result<BackgroundScheduler, CodecError> {
    let mut r = ByteReader::new(payload);
    let period_secs = r.u64()?;
    if period_secs == 0 {
        return Err(CodecError::Invalid("scheduler period must be positive"));
    }
    let churn_triggered = r.bool()?;
    let last = get_map(&mut r, 14, get_loc_path, |r| Ok(SimTime(r.u64()?)))?;
    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in scheduler section"));
    }
    Ok(BackgroundScheduler {
        period_secs,
        churn_triggered,
        last,
    })
}

fn put_engine_misc(w: &mut ByteWriter, s: &EngineState) {
    put_map(w, &s.rep_p24, put_loc_path, |w, p| w.put_u32(p.block()));
    put_map(w, &s.baseline_p24, put_loc_path, |w, p| {
        w.put_u32(p.block())
    });
    let mut prefixes: Vec<(CloudLocId, IpPrefix)> = s.monitored_prefixes.iter().copied().collect();
    prefixes.sort_unstable_by_key(|(loc, p)| (loc.0, p.base(), p.len()));
    w.put_len(prefixes.len());
    for (loc, p) in prefixes {
        w.put_u16(loc.0);
        w.put_u32(p.base());
        w.put_u8(p.len());
    }
    put_map(w, &s.episodes, put_loc_path, |w, (start, last)| {
        w.put_u32(start.0);
        w.put_u32(last.0);
    });
    let mut failed: Vec<(CloudLocId, PathId)> = s.bg_failed_once.iter().copied().collect();
    failed.sort_unstable();
    w.put_len(failed.len());
    for k in failed {
        put_loc_path(w, &k);
    }
    w.put_u64(s.churn_cursor.secs());
    w.put_u64(s.on_demand_probes_total);
    w.put_u64(s.background_probes_total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::WorldBackend;
    use crate::fxhash::DetHashMap;
    use crate::pipeline::BlameItConfig;
    use crate::thresholds::BadnessThresholds;
    use blameit_simnet::{TimeRange, World, WorldConfig};

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

    /// What `put` writes into a fresh buffer.
    fn bytes_of(put: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put(&mut w);
        w.into_bytes()
    }

    /// `encode_expected` as it was when the learner kept `map` and
    /// `counts` apart (the cache is the one-map learner's own: that
    /// part of the state did not change).
    fn encode_expected_reference(
        l: &crate::history::two_map_reference::TwoMapLearner,
        cache: &DetHashMap<RttKey, (u32, Option<f64>)>,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(l.window_days);
        w.put_u64(l.day_cap as u64);
        w.put_u32(l.latest_day);
        let (s, spare) = l.rng.state();
        for word in s {
            w.put_u64(word);
        }
        w.put_opt_f64(spare);
        put_map(&mut w, &l.map, put_rtt_key, |w, series| {
            w.put_len(series.len());
            for (day, values) in series {
                w.put_u32(*day);
                w.put_len(values.len());
                for v in values {
                    w.put_f64(*v);
                }
            }
        });
        put_map(&mut w, &l.counts, put_rtt_key, |w, c| w.put_u64(*c));
        put_map(&mut w, cache, put_rtt_key, |w, (day, value)| {
            w.put_u32(*day);
            w.put_opt_f64(*value);
        });
        w.into_bytes()
    }

    #[test]
    fn expected_section_bytes_match_the_two_map_learner() {
        for seed in 0..4u64 {
            let (learner, reference) = crate::history::two_map_reference::drive(seed);
            let bytes = bytes_of(|w| put_expected(w, &learner));
            assert!(!learner.cache.borrow().is_empty());
            assert_eq!(
                bytes,
                encode_expected_reference(&reference, &learner.cache.borrow()),
                "seed {seed}"
            );
            let decoded = decode_expected(&bytes).expect("own bytes decode");
            assert_eq!(
                bytes_of(|w| put_expected(w, &decoded)),
                bytes,
                "seed {seed}: fixed point"
            );
        }
    }

    #[test]
    fn expected_sections_that_disagree_are_rejected() {
        // One reservoir entry for `key`, one count entry for `count_key`.
        let key = RttKey::Cloud(CloudLocId(1), false);
        let section = |count_key: RttKey| {
            let mut w = ByteWriter::new();
            w.put_u32(14);
            w.put_u64(64);
            w.put_u32(0);
            for word in [1u64, 2, 3, 4] {
                w.put_u64(word);
            }
            w.put_opt_f64(None);
            w.put_len(1);
            put_rtt_key(&mut w, &key);
            w.put_len(1);
            w.put_u32(0);
            w.put_len(1);
            w.put_f64(10.0);
            w.put_len(1);
            put_rtt_key(&mut w, &count_key);
            w.put_u64(1);
            w.put_len(0);
            w.into_bytes()
        };
        let ok = decode_expected(&section(key)).expect("matching sections decode");
        assert_eq!(ok.map[&key].seen, 1);
        assert!(matches!(
            decode_expected(&section(RttKey::Cloud(CloudLocId(2), false))),
            Err(CodecError::Invalid(_))
        ));
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
