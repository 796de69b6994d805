//! Differential harness for the columnar ingest path.
//!
//! The columnar quartet store replaced the per-record `HashMap` upsert
//! on the hot path; its contract is *bit* equivalence, not approximate
//! equivalence. Every test here drives identical RTT record streams
//! through the batch kernel (one bucket per batch, as the daemon and
//! the engine feed it) and the reference upsert, and compares outputs
//! down to the f64 bit pattern — on organically generated worlds, on
//! chaos-disturbed backends, on adversarial synthetic streams with
//! duplicates and late (bucket-churned) records, and across
//! parallelism 1 vs 4 for chaos record streams and full engine
//! transcripts.

use blameit::{
    aggregate_batch_reuse, aggregate_records_reference, render_tick_transcript, Backend,
    BadnessThresholds, BlameItConfig, BlameItEngine, ChaosBackend, IngestArena, QuartetStore,
    RecordBatch, TickOutput, WorldBackend,
};
use blameit_bench::{quiet_world, Scale};
use blameit_simnet::{
    Fault, FaultId, FaultPlan, FaultTarget, QuartetObs, RttRecord, SimTime, TimeBucket, TimeRange,
    World,
};
use blameit_topology::rng::DetRng;
use blameit_topology::testkit::check;
use blameit_topology::{Asn, CloudLocId, Prefix24};

/// Asserts two aggregate vectors are bit-identical: same quartets in
/// the same order, with means matching on the exact f64 bit pattern
/// (`assert_eq!` alone would let `-0.0 == 0.0` slide).
fn assert_bit_identical(got: &[QuartetObs], want: &[QuartetObs], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: aggregate count diverged");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            (g.loc, g.p24, g.mobile, g.bucket, g.n),
            (w.loc, w.p24, w.mobile, w.bucket, w.n),
            "{what}: quartet identity diverged"
        );
        assert_eq!(
            g.mean_rtt_ms.to_bits(),
            w.mean_rtt_ms.to_bits(),
            "{what}: mean bits diverged for {:?} ({} vs {})",
            (g.loc, g.p24, g.mobile, g.bucket),
            g.mean_rtt_ms,
            w.mean_rtt_ms,
        );
    }
}

/// Aggregates `records` (all in `bucket`, stream order as given) through
/// the batch kernel.
fn kernel(bucket: TimeBucket, records: &[RttRecord], arena: &mut IngestArena) -> Vec<QuartetObs> {
    let mut store = QuartetStore::new();
    aggregate_batch_reuse(
        &RecordBatch::from_records(bucket, records),
        arena,
        &mut store,
    );
    store.to_obs()
}

/// A quiet tiny world with one cloud fault and one middle fault (the
/// `tests/chaos_determinism.rs` construction), so aggregates carry
/// fault-shifted RTTs and engine runs produce real verdicts.
fn faulty_world(rng: &mut DetRng) -> (World, SimTime) {
    let mut world = quiet_world(Scale::Tiny, 2, rng.next_u64());
    let topo = world.topology();
    let loc = topo.clients[rng.index(topo.clients.len())].primary_loc;
    let mut middles: Vec<Asn> = topo
        .clients
        .iter()
        .flat_map(|c| {
            let route = &topo.routes_for(c.primary_loc, c).options[0];
            topo.paths.get(route.path_id).middle.clone()
        })
        .collect();
    middles.sort_unstable();
    middles.dedup();
    let middle = *rng.pick(&middles);
    let start = SimTime::from_hours(25 + rng.below(3));
    world.add_faults(vec![
        Fault {
            id: FaultId(0),
            target: FaultTarget::CloudLocation(loc),
            start,
            duration_secs: 2 * 3_600,
            added_ms: rng.range_f64(60.0, 140.0),
        },
        Fault {
            id: FaultId(1),
            target: FaultTarget::MiddleAs {
                asn: middle,
                via_path: None,
            },
            start,
            duration_secs: 2 * 3_600,
            added_ms: rng.range_f64(60.0, 140.0),
        },
    ]);
    (world, start)
}

#[test]
fn columnar_matches_reference_on_organic_streams() {
    // 8 seeded worlds; for each, every bucket of a faulty hour is
    // aggregated three ways — reference upsert, the kernel over the raw
    // stream, the kernel over the collector-sorted batch — and all must
    // agree bit for bit.
    check("columnar_equivalence::organic", 8, |rng| {
        let (world, fault_start) = faulty_world(rng);
        let eval = TimeRange::new(fault_start, fault_start + 3_600);
        let backend = WorldBackend::with_parallelism(&world, 1);
        let mut arena = IngestArena::new();
        let mut nonempty = 0usize;
        for bucket in eval.buckets() {
            let records = backend
                .rtt_records_in(bucket)
                .expect("WorldBackend serves the raw record stream");
            nonempty += usize::from(!records.is_empty());
            let want = aggregate_records_reference(&records);
            let got = kernel(bucket, &records, &mut arena);
            assert_bit_identical(&got, &want, "raw batch kernel vs reference");
            // The collector-sorted columnar batch (the engine's hot
            // ingest shape) must agree too, with zero sort fallbacks.
            let mut batch = RecordBatch::from_records(bucket, &records);
            batch.sort_by_key();
            let before = arena.sort_fallbacks;
            let mut batch_store = QuartetStore::new();
            aggregate_batch_reuse(&batch, &mut arena, &mut batch_store);
            assert_eq!(
                arena.sort_fallbacks, before,
                "sorted batches never fall back"
            );
            assert_bit_identical(
                &batch_store.to_obs(),
                &want,
                "sorted batch kernel vs reference",
            );
        }
        assert!(nonempty > 0, "the faulty hour must carry records");
    });
}

#[test]
fn chaos_streams_aggregate_identically_and_transcripts_agree() {
    // Chaos plans drop whole batches and disturb probes, but the
    // record stream a ChaosBackend serves for a given (seed, plan,
    // bucket) is parallelism-invariant, so both aggregators must agree
    // on it — and full engine runs over the same chaos must render
    // byte-identical transcripts and verdicts at 1 vs 4 threads.
    check("columnar_equivalence::chaos", 8, |rng| {
        let (world, fault_start) = faulty_world(rng);
        let eval = TimeRange::new(fault_start, fault_start + 3_600);
        let plan = [
            FaultPlan::mild(rng.next_u64()),
            FaultPlan::heavy(rng.next_u64()),
            FaultPlan::probe_storm(rng.next_u64()),
        ][rng.index(3)];

        // Record-stream equivalence through the chaos decorator.
        let mut arena = IngestArena::new();
        for threads in [1usize, 4] {
            let chaos = ChaosBackend::new(WorldBackend::with_parallelism(&world, threads), plan);
            for bucket in eval.buckets() {
                let records = chaos
                    .rtt_records_in(bucket)
                    .expect("chaos backend serves the record stream");
                let want = aggregate_records_reference(&records);
                assert_bit_identical(
                    &kernel(bucket, &records, &mut arena),
                    &want,
                    "chaos columnar vs reference",
                );
            }
        }

        // Engine equivalence: verdicts and transcript across threads.
        let run = |threads: usize| -> Vec<TickOutput> {
            let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&world));
            cfg.parallelism = threads;
            let mut engine = BlameItEngine::new(cfg);
            let mut backend =
                ChaosBackend::new(WorldBackend::with_parallelism(&world, threads), plan);
            engine.warmup(&backend, TimeRange::days(1), 2);
            engine.run(&mut backend, eval)
        };
        let reference = run(1);
        let outs = run(4);
        for (r, o) in reference.iter().zip(&outs) {
            // BlameResult carries no PartialEq; the Debug rendering
            // covers every field, so string equality is bit equality.
            assert_eq!(
                format!("{:?}", r.blames),
                format!("{:?}", o.blames),
                "verdicts diverged across thread counts (plan {plan:?})"
            );
        }
        assert_eq!(
            render_tick_transcript(&reference),
            render_tick_transcript(&outs),
            "chaos transcript diverged across thread counts (plan {plan:?})"
        );
    });
}

#[test]
fn duplicate_and_late_records_keep_both_paths_bit_identical() {
    // Adversarial synthetic streams: heavy duplication (the same
    // record re-delivered), late records whose bucket churns behind
    // the stream head, and whole-group shuffles (scattered duplicate
    // keys force the columnar fallback sort). Split per bucket as the
    // collector does, the fallback must reproduce the reference's
    // stream-order accumulation exactly.
    check("columnar_equivalence::duplicates_late", 8, |rng| {
        let mut records: Vec<RttRecord> = Vec::new();
        let buckets = [TimeBucket(300), TimeBucket(301), TimeBucket(302)];
        let groups = 2 + rng.below(6) as usize;
        for _ in 0..groups {
            let loc = CloudLocId(rng.below(4) as u16);
            let p24 = Prefix24::from_block(rng.below(8) as u32);
            let mobile = rng.chance(0.3);
            let n = 1 + rng.below(12);
            for _ in 0..n {
                let bucket = buckets[rng.index(buckets.len())];
                let rec = RttRecord {
                    loc,
                    p24,
                    mobile,
                    at: bucket.mid(),
                    // Mix magnitudes so accumulation order is visible
                    // in the low mantissa bits if either path strays.
                    rtt_ms: if rng.chance(0.2) {
                        1e12 + rng.f64()
                    } else {
                        rng.range_f64(1.0, 400.0)
                    },
                };
                records.push(rec);
                // Duplicate re-delivery: the exact same record again,
                // sometimes immediately, sometimes after churn.
                if rng.chance(0.3) {
                    records.push(rec);
                }
            }
        }
        // Late churn: yank a suffix and splice it in early, so bucket
        // and key order interleave badly.
        if records.len() > 4 {
            let cut = 1 + rng.index(records.len() - 2);
            let tail: Vec<RttRecord> = records.split_off(cut);
            let insert_at = rng.index(records.len());
            let head = records.split_off(insert_at);
            records.extend(tail);
            records.extend(head);
        }
        rng.shuffle(&mut records);

        let want = aggregate_records_reference(&records);
        let mut arena = IngestArena::new();
        let mut all_buckets: Vec<QuartetObs> = Vec::new();
        // Per-bucket columnar batches (raw and collector-sorted) must
        // agree with the reference restricted to that bucket.
        for &bucket in &buckets {
            let in_bucket: Vec<RttRecord> = records
                .iter()
                .copied()
                .filter(|r| r.at.bucket() == bucket)
                .collect();
            let bucket_want = aggregate_records_reference(&in_bucket);
            let mut batch = RecordBatch::from_records(bucket, &in_bucket);
            let mut batch_store = QuartetStore::new();
            aggregate_batch_reuse(&batch, &mut arena, &mut batch_store);
            assert_bit_identical(
                &batch_store.to_obs(),
                &bucket_want,
                "raw batch vs reference",
            );
            batch.sort_by_key();
            aggregate_batch_reuse(&batch, &mut arena, &mut batch_store);
            assert_bit_identical(
                &batch_store.to_obs(),
                &bucket_want,
                "sorted batch vs reference",
            );
            all_buckets.extend(batch_store.iter());
        }
        // Buckets ascend, so the per-bucket outputs concatenate into
        // the reference's whole-stream answer.
        assert_bit_identical(&all_buckets, &want, "per-bucket kernel vs whole reference");
    });
}
