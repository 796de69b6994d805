//! Sharded-tick scaling benchmark, plus the columnar ingest kernel.
//!
//! Runs the same warmed engine evaluation at increasing thread counts
//! (`1, 2, 4, … --threads`) on one world, times the eval window, and
//! verifies the determinism contract the sharded tick promises: the
//! canonical tick transcript at every thread count is *byte-identical*
//! to the single-threaded run.
//!
//! The second half benchmarks the ingest stage in isolation on one
//! core: the same per-bucket RTT streams are aggregated by the legacy
//! per-record `HashMap` upsert ([`blameit::aggregate_records_reference`]
//! over row-form records) and by the columnar path
//! ([`blameit::aggregate_batch_reuse`] over the key-sorted
//! [`blameit::RecordBatch`] the collector hands the ingest stage, with
//! an arena and store reused across buckets, as the engine would).
//! Outputs are asserted bit-identical batch by batch before either
//! path is timed, and the quartets/sec results land in
//! `BENCH_ingest.json` for CI to archive.

use blameit::{
    aggregate_batch_reuse, aggregate_records_reference, render_tick_transcript, Backend,
    BadnessThresholds, BlameItConfig, BlameItEngine, IngestArena, QuartetStore, RecordBatch,
    WorldBackend,
};
use blameit_bench::{fmt, json::Json, Args, Scale};
use blameit_simnet::{RttRecord, SimTime, TimeRange};
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 2).max(2);
    let warmup_days = args.u64("warmup", 1).min(days - 1);
    let max_threads = args.u64("threads", 8).max(1) as usize;
    let scale = args.scale(Scale::Default);

    fmt::banner("perf", "Sharded engine tick: scaling and determinism");
    // Wall-clock speedup is bounded by the host: on a single-core
    // machine every thread count degenerates to ~1.0x (only the
    // determinism assertion is meaningful there).
    println!(
        "host cores available: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let world = blameit_bench::organic_world(scale, days, seed);
    let eval = TimeRange::new(SimTime::from_days(warmup_days), SimTime::from_days(days));
    let thresholds = BadnessThresholds::default_for(&world);

    let mut threads = Vec::new();
    let mut n = 1;
    while n < max_threads {
        threads.push(n);
        n *= 2;
    }
    threads.push(max_threads);
    threads.dedup();

    let mut reference: Option<String> = None;
    let mut base_secs = 0.0;
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for &t in &threads {
        let mut cfg = BlameItConfig::new(thresholds.clone());
        cfg.parallelism = t;
        let mut engine = BlameItEngine::new(cfg);
        let mut backend = WorldBackend::with_parallelism(&world, t);
        engine.warmup(&backend, TimeRange::days(warmup_days), 2);

        let started = Instant::now();
        let outs = engine.run(&mut backend, eval);
        let secs = started.elapsed().as_secs_f64();

        let transcript = render_tick_transcript(&outs);
        match &reference {
            None => {
                reference = Some(transcript);
                base_secs = secs;
            }
            Some(r) => assert_eq!(
                *r, transcript,
                "transcript at {t} threads diverged from the single-threaded run"
            ),
        }
        rows.push((format!("{t}"), secs, base_secs / secs));
        println!(
            "  threads={t:<3} eval {:.2}s  speedup {:.2}x  (ticks={}, transcript ok)",
            secs,
            base_secs / secs,
            outs.len()
        );
    }

    println!();
    let best = rows
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("at least one row");
    println!(
        "best: {:.2}x at {} threads over {} eval day(s); every transcript byte-identical",
        best.2,
        best.0,
        days - warmup_days
    );

    println!();
    ingest_bench(&args, &world, eval, scale, seed);
}

/// One-core ingest-stage shootout: legacy per-record `HashMap` upsert
/// vs the columnar sort-and-collapse kernel, on identical record
/// batches pulled from the backend's raw RTT stream.
fn ingest_bench(
    args: &Args,
    world: &blameit_simnet::World,
    eval: TimeRange,
    scale: Scale,
    seed: u64,
) {
    let ingest_buckets = args.u64("ingest-buckets", 36).max(1) as usize;
    let reps = args.u64("reps", 5).max(1) as usize;

    fmt::banner(
        "perf",
        "Columnar ingest: reference upsert vs sort-and-collapse",
    );
    let backend = WorldBackend::with_parallelism(world, 1);
    // The same stream, in both forms: row-form records for the legacy
    // per-record upsert, columnar batches (what the collector hands the
    // ingest stage) for the columnar kernel. Materializing either form
    // is collector-side work and excluded from both timings.
    let row_batches: Vec<Vec<RttRecord>> = eval
        .buckets()
        .take(ingest_buckets)
        .map(|b| {
            backend
                .rtt_records_in(b)
                .expect("WorldBackend always serves the raw record stream")
        })
        .collect();
    let col_batches: Vec<RecordBatch> = eval
        .buckets()
        .take(ingest_buckets)
        .map(|b| {
            backend
                .record_batch_in(b)
                .expect("WorldBackend always serves the columnar batch")
        })
        .collect();
    let records: u64 = row_batches.iter().map(|b| b.len() as u64).sum();

    // Correctness gate before any timing: the columnar path must be
    // bit-identical to the reference on every batch.
    let mut arena = IngestArena::new();
    let mut store = QuartetStore::new();
    let mut quartets: u64 = 0;
    for (rows, cols) in row_batches.iter().zip(&col_batches) {
        aggregate_batch_reuse(cols, &mut arena, &mut store);
        quartets += store.len() as u64;
        assert_eq!(
            store.to_obs(),
            aggregate_records_reference(rows),
            "columnar ingest diverged from the reference aggregator"
        );
    }

    // Minimum across reps: the noise-robust estimator for a shared
    // host (anything above the minimum is scheduler interference, not
    // the kernel). Reps of the two paths interleave so drift hits both.
    let mut ref_secs = f64::INFINITY;
    let mut col_secs = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        for batch in &row_batches {
            std::hint::black_box(aggregate_records_reference(std::hint::black_box(batch)));
        }
        ref_secs = ref_secs.min(started.elapsed().as_secs_f64());

        let started = Instant::now();
        for batch in &col_batches {
            aggregate_batch_reuse(std::hint::black_box(batch), &mut arena, &mut store);
            std::hint::black_box(&store);
        }
        col_secs = col_secs.min(started.elapsed().as_secs_f64());
    }

    let qps = |secs: f64| quartets as f64 / secs.max(1e-12);
    let rps = |secs: f64| records as f64 / secs.max(1e-12);
    let speedup = ref_secs / col_secs.max(1e-12);
    println!(
        "  batches={} records={} quartets={} (sort fallbacks {}/{} batches)",
        row_batches.len(),
        records,
        quartets,
        arena.sort_fallbacks,
        arena.batches,
    );
    println!(
        "  reference: {:.4}s  {:>12.0} records/s  {:>12.0} quartets/s",
        ref_secs,
        rps(ref_secs),
        qps(ref_secs)
    );
    println!(
        "  columnar:  {:.4}s  {:>12.0} records/s  {:>12.0} quartets/s",
        col_secs,
        rps(col_secs),
        qps(col_secs)
    );
    println!("  speedup: {speedup:.2}x (single core)");

    let out = Json::obj()
        .field("experiment", "ingest")
        .field("seed", seed)
        .field("scale", format!("{scale:?}").to_lowercase())
        .field(
            "host_cores",
            std::thread::available_parallelism().map_or(1usize, |n| n.get()),
        )
        .field("buckets", row_batches.len())
        .field("records", records)
        .field("quartets", quartets)
        .field("reps", reps)
        .field("reference_secs", ref_secs)
        .field("reference_quartets_per_sec", qps(ref_secs))
        .field("reference_records_per_sec", rps(ref_secs))
        .field("columnar_secs", col_secs)
        .field("columnar_quartets_per_sec", qps(col_secs))
        .field("columnar_records_per_sec", rps(col_secs))
        .field("speedup", speedup)
        .field("sort_fallbacks", arena.sort_fallbacks);
    let path = "BENCH_ingest.json";
    std::fs::write(path, format!("{out}\n")).expect("write BENCH_ingest.json");
    println!("  wrote {path}");
}
