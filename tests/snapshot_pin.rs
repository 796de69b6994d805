//! Snapshot byte pin: the exact bytes `snapshot::encode` writes for one
//! fixed engine state — total length, every section's `id:length:crc`,
//! and a CRC32 of the whole file — pinned under `tests/golden/`. A
//! change to the writer that moves a single byte of a `FORMAT_VERSION`
//! 4 snapshot shows up here, per section; the transcript goldens cannot
//! see that. It is also the first standing piece of the "every future
//! version must open this" fixture (the ROADMAP's previous-format
//! snapshot fixture).
//!
//! To re-pin after an intentional format change (with a
//! `FORMAT_VERSION` bump):
//!
//! ```text
//! BLESS=1 cargo test --test snapshot_pin
//! ```

use blameit::persist::codec::{crc32, read_preamble, read_section, KIND_SNAPSHOT};
use blameit::persist::snapshot;
use blameit::{BadnessThresholds, BlameItConfig, BlameItEngine, WorldBackend};
use blameit_bench::{quiet_world, Scale};
use blameit_simnet::{Fault, FaultId, FaultTarget, SimTime, TimeRange};
use blameit_topology::{Asn, CloudLocId};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 2019; // the explain golden's world: AS104 is a middle AS there
const TICKS: u64 = 6;

/// A quiet tiny world with a cloud fault and a middle fault from hour
/// 30, warmed up over day 0 and ticked through the faults' first 90
/// minutes, then one manual flight trigger — so the learner, the
/// histories, open incidents, baselines, the scheduler clocks, the
/// flight ring and its trigger log all hold real state.
fn pinned_snapshot(threads: usize) -> Vec<u8> {
    let mut world = quiet_world(Scale::Tiny, 2, SEED);
    let start = SimTime::from_hours(30);
    let fault = |id, target| Fault {
        id: FaultId(id),
        target,
        start,
        duration_secs: 2 * 3_600,
        added_ms: 110.0,
    };
    world.add_faults(vec![
        fault(0, FaultTarget::CloudLocation(CloudLocId(0))),
        fault(
            1,
            FaultTarget::MiddleAs {
                asn: Asn(104),
                via_path: None,
            },
        ),
    ]);
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&world));
    cfg.parallelism = threads;
    let mut engine = BlameItEngine::new(cfg);
    let mut backend = WorldBackend::with_parallelism(&world, threads);
    engine.warmup(&backend, TimeRange::days(1), 2);
    let outs = engine.run(&mut backend, TimeRange::new(start, start + 90 * 60));
    assert_eq!(outs.len() as u64, TICKS);
    engine.flight_dump_manual((start + 90 * 60).secs(), "snapshot pin");
    snapshot::encode(&engine, TICKS)
}

/// `len` / one `section` line per section / whole-file `crc32`.
fn describe(bytes: &[u8]) -> String {
    let mut out = format!("len {}\n", bytes.len());
    let mut r = read_preamble(bytes, KIND_SNAPSHOT).expect("own snapshot has a valid preamble");
    while r.remaining() > 0 {
        let (id, payload) = read_section(&mut r).expect("own snapshot sections are intact");
        let _ = writeln!(out, "section {id}:{}:{:08x}", payload.len(), crc32(payload));
    }
    let _ = writeln!(out, "crc32 {:08x}", crc32(bytes));
    out
}

fn section_len(description: &str, id: u8) -> usize {
    let prefix = format!("section {id}:");
    let line = description
        .lines()
        .find(|l| l.starts_with(&prefix))
        .expect("section listed");
    line[prefix.len()..]
        .split(':')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn snapshot_bytes_match_the_pin_at_one_and_four_threads() {
    let bytes = pinned_snapshot(1);
    let got = describe(&bytes);
    // The pinned bytes read back, and write out again byte for byte.
    let decoded = snapshot::decode(&bytes).expect("the pinned snapshot decodes");
    assert!(
        decoded.to_bytes() == bytes,
        "decode then encode moved a byte"
    );
    // Empty, the incidents section (option byte, bucket, count) is 13
    // bytes, baselines (a count) 8, flight (two counts) 16.
    for (id, empty, what) in [
        (5, 13, "open incident"),
        (6, 8, "baseline"),
        (9, 16, "flight frame"),
    ] {
        assert!(section_len(&got, id) > empty, "no {what} in state:\n{got}");
    }
    assert_eq!(
        got,
        describe(&pinned_snapshot(4)),
        "snapshot bytes depend on the thread count"
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_pin.txt");
    if blameit_scenario::bless_requested() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with BLESS=1 cargo test --test snapshot_pin",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "snapshot bytes moved (re-pin with BLESS=1 only with a FORMAT_VERSION bump)"
    );
}
