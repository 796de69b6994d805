//! Property tests for the snapshot codec and the durable log, driven
//! by the in-repo seeded harness in `blameit_topology::testkit`.
//!
//! Three snapshot invariants, over *arbitrary* learner/history states:
//!
//! 1. **Canonical round-trip** — `to_bytes → decode → to_bytes` is the
//!    identity on bytes (so state-equal engines persist identically,
//!    regardless of hash-map iteration order), and the decoded learner
//!    answers lookups exactly like the original.
//! 2. **Bit-flip fuzz** — flipping any single bit of a valid snapshot
//!    makes `decode` return an error; it must never panic and never
//!    silently accept.
//! 3. **Truncation fuzz** — every proper prefix of a valid snapshot is
//!    rejected as an error, never a panic.
//!
//! Both layouts of an ingest batch — its columns and its key runs —
//! round-trip canonically over batches of repeated, non-adjacent and
//! singleton keys.
//!
//! And the one damage suite for `persist::log` (the journal and the
//! ingest WAL are typed users of it and test only what is theirs): a
//! torn, truncated or bit-flipped log either errors or yields a prefix
//! of what was appended — never a panic, never an invented section —
//! and appends after the truncation continue the sequence.

use blameit::persist::codec::{
    write_section_with, ByteReader, ByteWriter, Codec, KeyRuns, KIND_JOURNAL,
};
use blameit::persist::fs::{Action, Fault, FaultFs, Op, StdFs};
use blameit::persist::log::{self, Log, LogScan, Tail};
use blameit::persist::snapshot::{decode, SnapshotState};
use blameit::persist::SnapshotCounters;
use blameit::{
    BackgroundScheduler, BaselineStore, ClientCountHistory, DurationHistory, EngineState,
    ExpectedRttLearner, IncidentTracker, MiddleKey, ProbeTarget, RecordBatch, RttKey,
};
use blameit::{DetHashMap, DetHashSet};
use blameit_simnet::{SimTime, TimeBucket};
use blameit_topology::rng::DetRng;
use blameit_topology::testkit::check;
use blameit_topology::{Asn, CloudLocId, IpPrefix, MetroId, PathId, Prefix24};
use std::borrow::Cow;

/// A random expected-RTT series key, covering every variant.
fn arbitrary_rtt_key(rng: &mut DetRng) -> RttKey {
    let mobile = rng.chance(0.5);
    match rng.below(5) {
        0 => RttKey::Cloud(CloudLocId(rng.below(30) as u16), mobile),
        1 => RttKey::Middle(MiddleKey::Path(PathId(rng.below(50) as u32)), mobile),
        2 => RttKey::Middle(
            MiddleKey::Atom(PathId(rng.below(50) as u32), Asn(rng.below(500) as u32)),
            mobile,
        ),
        3 => RttKey::Middle(
            MiddleKey::Prefix(
                PathId(rng.below(50) as u32),
                IpPrefix::new(rng.next_u64() as u32, rng.below(33) as u8),
            ),
            mobile,
        ),
        _ => RttKey::Middle(
            MiddleKey::AsMetro(Asn(rng.below(500) as u32), MetroId(rng.below(40) as u16)),
            mobile,
        ),
    }
}

/// An arbitrary learner: random window, random observation stream in
/// non-decreasing day order, with `expected()` lookups interleaved so
/// the median cache holds entries frozen at *different* fill times —
/// the part of the state that cannot be recomputed from the
/// reservoirs. Keys are also looked up before their first observation,
/// and cloud keys the stream never observes are looked up too: their
/// `(day, None)` entries (9 bytes) are the smallest a snapshot holds. A
/// quarter of the learners cache nothing else.
fn arbitrary_learner(rng: &mut DetRng) -> (ExpectedRttLearner, Vec<RttKey>) {
    let mut learner = ExpectedRttLearner::with_window(rng.range_u64(1, 20) as u32, rng.next_u64());
    let keys: Vec<RttKey> = (0..rng.range_u64(1, 12))
        .map(|_| arbitrary_rtt_key(rng))
        .collect();
    // `arbitrary_rtt_key` draws cloud ids below 30.
    let unobserved: Vec<RttKey> = (0..rng.range_u64(1, 6))
        .map(|i| RttKey::Cloud(CloudLocId(30 + i as u16), rng.chance(0.5)))
        .collect();
    let only_unobserved = rng.chance(0.25);
    for key in keys.iter().filter(|_| !only_unobserved) {
        if rng.chance(0.3) {
            let _ = learner.expected(*key);
        }
    }
    let mut day = 0u32;
    for _ in 0..rng.range_u64(1, 400) {
        if rng.chance(0.02) {
            day += rng.below(4) as u32;
        }
        let key = *rng.pick(&keys);
        learner.observe(key, day, rng.range_f64(1.0, 500.0));
        if !only_unobserved && rng.chance(0.1) {
            // Freeze this key's median at the current mid-day view.
            let _ = learner.expected(*rng.pick(&keys));
        }
    }
    for key in &unobserved {
        if only_unobserved || rng.chance(0.5) {
            let _ = learner.expected(*key);
        }
    }
    (learner, keys.into_iter().chain(unobserved).collect())
}

fn arbitrary_durations(rng: &mut DetRng) -> DurationHistory {
    let mut d = DurationHistory::new();
    for _ in 0..rng.range_u64(0, 600) {
        d.record(PathId(rng.below(20) as u32), rng.range_u64(1, 300) as u32);
    }
    d
}

fn arbitrary_client_hist(rng: &mut DetRng) -> ClientCountHistory {
    let mut h = ClientCountHistory::with_window(rng.range_u64(1, 5) as u32);
    for _ in 0..rng.range_u64(0, 300) {
        h.record(
            PathId(rng.below(20) as u32),
            TimeBucket(rng.below(96 * 20) as u32),
            rng.below(10_000),
        );
    }
    h
}

fn loc_path(rng: &mut DetRng) -> (CloudLocId, PathId) {
    (
        CloudLocId(rng.below(30) as u16),
        PathId(rng.below(50) as u32),
    )
}

/// An incident tracker reached through its public API: a few buckets
/// in increasing order (gaps included, so runs close and reopen), each
/// with a random multiset of bad keys (repeats count as observations).
/// Left untouched three times in ten — `last_bucket: None` is a state.
fn arbitrary_incidents(rng: &mut DetRng) -> IncidentTracker<(CloudLocId, PathId)> {
    let mut tracker = IncidentTracker::new();
    if rng.chance(0.3) {
        return tracker;
    }
    let keys: Vec<_> = (0..rng.range_u64(1, 12)).map(|_| loc_path(rng)).collect();
    let mut bucket = rng.below(96 * 20) as u32;
    for _ in 0..rng.range_u64(1, 8) {
        let bad: Vec<_> = (0..rng.below(30)).map(|_| *rng.pick(&keys)).collect();
        tracker.observe(TimeBucket(bucket), bad);
        bucket += 1 + rng.below(3) as u32;
    }
    tracker
}

/// A scheduler with random period and triggering whose last-probed
/// clocks were set by `due` at a few random times.
fn arbitrary_scheduler(rng: &mut DetRng) -> BackgroundScheduler {
    let mut scheduler = BackgroundScheduler::new(rng.range_u64(1, 86_400), rng.chance(0.5));
    for _ in 0..rng.below(4) {
        let targets: Vec<ProbeTarget> = (0..rng.below(10))
            .map(|_| {
                let (loc, path) = loc_path(rng);
                let p24 = Prefix24::from_block(rng.below(1 << 24) as u32);
                ProbeTarget { loc, path, p24 }
            })
            .collect();
        scheduler.due(SimTime(rng.next_u64() >> 20), &targets, &[]);
    }
    scheduler
}

/// A full snapshot state with arbitrary learner/history contents and
/// randomized scalars and maps everywhere else the public API reaches.
fn arbitrary_state(rng: &mut DetRng) -> (SnapshotState, Vec<RttKey>) {
    let (expected, keys) = arbitrary_learner(rng);
    let mut rep_p24 = DetHashMap::default();
    let mut episodes = DetHashMap::default();
    let mut monitored_prefixes = DetHashSet::default();
    let mut bg_failed_once = DetHashSet::default();
    for _ in 0..rng.below(20) {
        rep_p24.insert(
            loc_path(rng),
            Prefix24::from_block(rng.below(1 << 24) as u32),
        );
        let start = rng.below(96 * 20) as u32;
        episodes.insert(
            loc_path(rng),
            (TimeBucket(start), TimeBucket(start + rng.below(96) as u32)),
        );
        monitored_prefixes.insert((
            CloudLocId(rng.below(30) as u16),
            IpPrefix::new(rng.next_u64() as u32, rng.below(33) as u8),
        ));
        bg_failed_once.insert(loc_path(rng));
    }
    let state = SnapshotState {
        seed: rng.next_u64(),
        tick_buckets: rng.range_u64(1, 12) as u32,
        ticks_done: rng.below(100_000),
        state: EngineState {
            expected,
            durations: arbitrary_durations(rng),
            client_hist: arbitrary_client_hist(rng),
            incidents: arbitrary_incidents(rng),
            baselines: BaselineStore::new(),
            scheduler: arbitrary_scheduler(rng),
            rep_p24: rep_p24.clone(),
            baseline_p24: rep_p24,
            monitored_prefixes,
            episodes,
            bg_failed_once,
            churn_cursor: SimTime(rng.next_u64() >> 20),
            on_demand_probes_total: rng.below(1 << 40),
            background_probes_total: rng.below(1 << 40),
        },
        flight_frames: arbitrary_flight_frames(rng),
        flight_dumps: arbitrary_flight_dumps(rng),
        counters: arbitrary_counters(rng),
    };
    (state, keys)
}

/// Arbitrary cumulative counter values, exercising the v3 section: the
/// degraded/chaos/shed injection counters must survive round-trips
/// bit-for-bit rather than silently resetting on restart.
fn arbitrary_counters(rng: &mut DetRng) -> SnapshotCounters {
    let mut c = SnapshotCounters::default();
    for v in c.degraded.iter_mut().chain(c.chaos.iter_mut()) {
        *v = rng.below(1 << 40);
    }
    for v in c.shed.iter_mut() {
        *v = rng.below(1 << 40);
    }
    c.backpressure_replies = rng.below(1 << 40);
    c
}

fn arbitrary_flight_frames(rng: &mut DetRng) -> Vec<blameit_obs::FlightFrame> {
    (0..rng.below(6))
        .map(|_| blameit_obs::FlightFrame {
            sim_secs: rng.next_u64() >> 20,
            bucket: rng.below(96 * 20) as u32,
            transcript: format!("tick {}\n  blames=0\n", rng.below(100)),
            stages: (0..rng.below(4)).map(|i| format!("stage-{i}")).collect(),
            deltas: (0..rng.below(4))
                .map(|i| (format!("blameit_metric_{i}"), rng.below(1000) as f64))
                .collect(),
        })
        .collect()
}

fn arbitrary_flight_dumps(rng: &mut DetRng) -> Vec<blameit_obs::FlightDumpEvent> {
    (0..rng.below(4))
        .map(|_| {
            let n = blameit_obs::FlightTrigger::ALL.len() as u64;
            let t = blameit_obs::FlightTrigger::ALL[rng.below(n) as usize];
            blameit_obs::FlightDumpEvent {
                sim_secs: rng.next_u64() >> 20,
                trigger: t,
                detail: format!("detail-{}", rng.below(50)),
            }
        })
        .collect()
}

/// `MIN_BYTES` is a bound: `v` encodes to at least its type's.
fn assert_at_least_min<T: Codec>(v: &T, what: &str) {
    let mut w = ByteWriter::new();
    v.put(&mut w);
    assert!(w.len() >= T::MIN_BYTES, "{what}: {} bytes", w.len());
}

/// Every value of an arbitrary state, section by section and element
/// by element, encodes to at least its type's `MIN_BYTES`.
fn assert_min_bytes_bound(s: &SnapshotState, keys: &[RttKey]) {
    let e = &s.state;
    assert_at_least_min(&e.expected, "learner");
    assert_at_least_min(&e.durations, "durations");
    assert_at_least_min(&e.client_hist, "client counts");
    assert_at_least_min(&e.incidents, "incidents");
    assert_at_least_min(&e.baselines, "baselines");
    assert_at_least_min(&e.scheduler, "scheduler");
    assert_at_least_min(&e.rep_p24, "rep_p24");
    assert_at_least_min(&e.monitored_prefixes, "monitored prefixes");
    assert_at_least_min(&e.episodes, "episodes");
    assert_at_least_min(&e.bg_failed_once, "bg_failed_once");
    assert_at_least_min(&s.counters, "counters");
    for key in keys {
        assert_at_least_min(key, "RttKey");
        if let RttKey::Middle(middle, _) = key {
            assert_at_least_min(middle, "MiddleKey");
        }
        // A lookup fills the cache; every entry it holds is bounded too.
        let entry = (*key, (0u32, e.expected.expected(*key)));
        assert_at_least_min(&entry, "cache entry");
    }
    for entry in &e.monitored_prefixes {
        assert_at_least_min(entry, "monitored prefix");
    }
    for entry in e.rep_p24.iter().chain(&e.baseline_p24) {
        assert_at_least_min(&(*entry.0, *entry.1), "rep_p24 entry");
    }
    for frame in &s.flight_frames {
        assert_at_least_min(frame, "flight frame");
    }
    for dump in &s.flight_dumps {
        assert_at_least_min(dump, "flight dump");
        assert_at_least_min(&dump.trigger, "flight trigger");
    }
}

#[test]
fn snapshot_roundtrip_is_canonical_and_lossless() {
    check("persist_roundtrip", 48, |rng| {
        let (state, keys) = arbitrary_state(rng);
        let bytes = state.to_bytes();
        let decoded = decode(&bytes).expect("a freshly encoded snapshot must decode");
        assert_eq!(
            bytes,
            decoded.to_bytes(),
            "decode ∘ encode must be the identity on bytes"
        );
        assert_min_bytes_bound(&state, &keys);
        // The decoded learner answers exactly like the original —
        // including cache entries frozen mid-day.
        let round = decode(&bytes).unwrap();
        for key in keys {
            assert_eq!(
                state.state.expected.expected(key),
                round.state.expected.expected(key)
            );
        }
        assert_eq!(
            state.state.durations.total_recorded(),
            round.state.durations.total_recorded()
        );
        // The duration → count index is not on disk: decode rebuilds
        // it, and every lookup (durations are drawn below 300) must
        // answer with the same bits as the index `record` maintained.
        for p in 0..20 {
            for elapsed in 0..=301u32 {
                assert_eq!(
                    state
                        .state
                        .durations
                        .expected_remaining(PathId(p), elapsed)
                        .to_bits(),
                    round
                        .state
                        .durations
                        .expected_remaining(PathId(p), elapsed)
                        .to_bits(),
                    "path {p} elapsed {elapsed}"
                );
            }
        }
    });
}

#[test]
fn bit_flip_fuzz_is_rejected_never_panics() {
    check("persist_bitflip", 24, |rng| {
        let (state, _) = arbitrary_state(rng);
        let bytes = state.to_bytes();
        for _ in 0..64 {
            let pos = rng.index(bytes.len());
            let bit = 1u8 << rng.below(8);
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= bit;
            assert!(
                decode(&corrupt).is_err(),
                "flipping bit {bit:#x} at byte {pos}/{} was accepted",
                bytes.len()
            );
        }
    });
}

#[test]
fn truncation_fuzz_is_rejected_never_panics() {
    check("persist_truncation", 24, |rng| {
        let (state, _) = arbitrary_state(rng);
        let bytes = state.to_bytes();
        for _ in 0..32 {
            let cut = rng.index(bytes.len());
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes was accepted",
                bytes.len()
            );
        }
        // And a few bytes of appended garbage is also rejected.
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0xAB; 3]);
        assert!(decode(&extended).is_err());
    });
}

/// A batch whose keys mix every shape a key run can take: long runs of
/// one key, keys that come back after others (non-adjacent repeats),
/// singletons, and an empty batch now and then; sorted or not.
fn arbitrary_batch(rng: &mut DetRng) -> RecordBatch {
    let alphabet: Vec<u64> = (0..rng.range_u64(1, 12)).map(|_| rng.next_u64()).collect();
    let mut keys = Vec::new();
    for _ in 0..rng.below(40) {
        let key = alphabet[rng.index(alphabet.len())];
        let run = if rng.below(3) == 0 {
            1
        } else {
            rng.range_u64(1, 30)
        };
        keys.extend((0..run).map(|_| key));
    }
    if rng.below(2) == 0 {
        keys.sort_unstable();
    }
    RecordBatch {
        bucket: TimeBucket(rng.below(1 << 32) as u32),
        rtt: keys
            .iter()
            .map(|_| f64::from_bits(rng.next_u64()))
            .collect(),
        keys,
    }
}

/// `v` encodes to at least `MIN_BYTES` and decodes, reading every
/// byte, to a value that encodes to the same bytes. Returns the
/// decoded value.
fn canonical<T: Codec>(v: &T) -> T {
    let mut w = ByteWriter::new();
    v.put(&mut w);
    let bytes = w.into_bytes();
    assert!(bytes.len() >= T::MIN_BYTES);
    let mut r = ByteReader::new(&bytes);
    let back = T::get(&mut r).expect("own bytes decode");
    assert_eq!(r.remaining(), 0);
    let mut again = ByteWriter::new();
    back.put(&mut again);
    assert_eq!(again.as_bytes(), bytes, "decode ∘ encode is the identity");
    back
}

#[test]
fn both_batch_layouts_round_trip_canonically() {
    check("batch_layouts", 256, |rng| {
        let batch = arbitrary_batch(rng);
        let bits = |b: &RecordBatch| b.rtt.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        for back in [
            canonical(&batch),
            canonical(&KeyRuns(Cow::Borrowed(&batch))).0.into_owned(),
        ] {
            assert_eq!((back.bucket, &back.keys), (batch.bucket, &batch.keys));
            assert_eq!(bits(&back), bits(&batch));
        }
    });
}

type Sections = Vec<(u8, Vec<u8>)>;

/// Scans `bytes` as a journal-kind log, collecting what it accepts.
fn scan_all(bytes: &[u8]) -> Option<(LogScan, Sections)> {
    let mut got = Vec::new();
    let accept = |id: u8, p: &[u8]| {
        got.push((id, p.to_vec()));
        true
    };
    let scan = log::scan(bytes, KIND_JOURNAL, accept).ok()?;
    Some((scan, got))
}

#[test]
fn a_damaged_log_errors_or_yields_a_valid_prefix_and_appends_continue() {
    check("log_damage", 48, |rng| {
        let path = std::env::temp_dir().join(format!(
            "blameit-logprops-{}-{:x}",
            std::process::id(),
            rng.next_u64()
        ));
        let open = || Log::open(&path, KIND_JOURNAL, |_| {}, |_, _| true).unwrap();
        let (mut log, _) = open();
        let mut sections: Sections = (0..rng.range_u64(1, 9))
            .map(|_| {
                let payload = (0..rng.below(200)).map(|_| rng.below(256) as u8).collect();
                (rng.below(256) as u8, payload)
            })
            .collect();
        for (id, payload) in &sections {
            log.append(*id, |w| w.put_bytes(payload)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let (scan, got) = scan_all(&bytes).unwrap();
        assert_eq!((scan.tail, scan.trailing_bytes), (Tail::Clean, 0));
        assert_eq!(got, sections, "an intact log reads back what was appended");

        // Truncation at any byte: a strict prefix, at most one torn section.
        for _ in 0..16 {
            let cut = rng.index(bytes.len());
            let Some((scan, got)) = scan_all(&bytes[..cut]) else {
                assert!(cut < 7, "only a cut preamble is not a log at all");
                continue;
            };
            assert!(got.len() < sections.len() && got[..] == sections[..got.len()]);
            assert_eq!(scan.valid_len + scan.trailing_bytes, cut as u64);
            assert_eq!(scan.tail == Tail::Clean, scan.trailing_bytes == 0);
            assert_ne!(scan.tail, Tail::Corrupt, "a cut leaves one torn section");
        }
        // A bit flip anywhere: an error, or trust ends at or before the
        // section holding the flipped byte.
        for _ in 0..32 {
            let pos = rng.index(bytes.len());
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1u8 << rng.below(8);
            let Some((scan, got)) = scan_all(&corrupt) else {
                assert!(pos < 7, "only a preamble flip makes it not a log");
                continue;
            };
            assert!(scan.valid_len <= pos as u64, "flip at {pos} undetected");
            assert_ne!(scan.tail, Tail::Clean);
            assert_eq!(got[..], sections[..got.len()]);
        }

        // A kill mid-append tears the section: reopening reports the
        // residue and truncates it, so the next append lands on a
        // section boundary and the sequence continues.
        let name = path.file_name().unwrap().to_str().unwrap();
        let fs = FaultFs::armed(Fault::first(Op::Write, name, Action::Tear(rng.f64())));
        let (mut dying, _) =
            Log::open_in(fs.clone(), &path, KIND_JOURNAL, |_| {}, |_, _| true).unwrap();
        assert!(dying.append(9, |w| w.put_bytes(&[0xAB; 40])).is_err() && fs.killed());
        drop((dying, log));
        let (mut log, scan) = open();
        assert_eq!(
            (scan.sections, scan.tail),
            (sections.len() as u64, Tail::Torn)
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "cut back to the valid prefix"
        );
        log.append(3, |w| w.put_bytes(&[1, 2, 3])).unwrap();
        sections.push((3, vec![1, 2, 3]));
        let (scan, got) = scan_all(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!((scan.tail, got), (Tail::Clean, sections.clone()));

        // A rewrite keeps exactly what it is given, leaves no temp file,
        // and appends resume behind it.
        let (id, payload) = sections.pop().unwrap();
        log.rewrite(|w| write_section_with(w, id, |w| w.put_bytes(&payload)))
            .unwrap();
        log.append(4, |w| w.put_u64(7)).unwrap();
        let (scan, got) = scan_all(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(got, [(id, payload), (4, 7u64.to_le_bytes().to_vec())]);
        assert!(!log::tmp_path(&path).exists());

        // A seal moves the file aside byte for byte under the segment
        // name rule and leaves an empty log that appends go to.
        let before = std::fs::read(&path).unwrap();
        let sealed = log::segment_path(&path, 7);
        log.seal_to(&sealed).unwrap();
        assert_eq!(std::fs::read(&sealed).unwrap(), before);
        assert_eq!(
            log::list_segments(&StdFs, &path).unwrap(),
            [(7, sealed.clone())]
        );
        log.append(5, |w| w.put_u64(9)).unwrap();
        let (scan, got) = scan_all(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(got, [(5, 9u64.to_le_bytes().to_vec())]);
        assert_eq!(std::fs::read(&sealed).unwrap(), before);
        assert!(!log::tmp_path(&path).exists());
        std::fs::remove_file(&sealed).unwrap();
        std::fs::remove_file(&path).unwrap();
    });
}
