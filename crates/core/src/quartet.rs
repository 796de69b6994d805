//! Quartets: enrichment, aggregation, and validity checks.
//!
//! The quartet — ⟨client /24, cloud location, device class, 5-minute
//! bucket⟩ — is BlameIt's unit of analysis (§2.1). This module turns
//! raw telemetry into the enriched quartets Algorithm 1 consumes:
//! joined with routing metadata, classified good/bad against the
//! region-specific threshold, and filtered to the paper's minimum of
//! 10 RTT samples.

use crate::backend::{Backend, RouteInfo};
use crate::ks::{ks_two_sample, KsResult};
use crate::shard::{concat_chunks, run_chunked};
use crate::thresholds::BadnessThresholds;
use blameit_simnet::{QuartetObs, RttRecord, TimeBucket};
use blameit_topology::rng::DetRng;
// lint:allow(sip-hasher): the legacy reference aggregator below keeps the original std hasher on purpose
use std::collections::HashMap;

/// Minimum RTT samples for a quartet to be trusted (§2.1).
pub const MIN_SAMPLES: u32 = 10;

/// A quartet observation joined with routing metadata and classified
/// against its badness threshold.
#[derive(Clone, Copy, Debug)]
pub struct EnrichedQuartet {
    /// The underlying observation.
    pub obs: QuartetObs,
    /// Routing metadata at the quartet's bucket.
    pub info: RouteInfo,
    /// True if `obs.mean_rtt_ms` breaches the region/device threshold.
    pub bad: bool,
}

impl EnrichedQuartet {
    /// The badness threshold that applied.
    pub fn threshold(&self, thresholds: &BadnessThresholds) -> f64 {
        thresholds.get(self.info.region, self.obs.mobile)
    }
}

/// Enriches all quartets of a bucket: joins routing metadata, drops
/// quartets below [`MIN_SAMPLES`], classifies good/bad.
pub fn enrich_bucket<B: Backend>(
    backend: &B,
    bucket: TimeBucket,
    thresholds: &BadnessThresholds,
) -> Vec<EnrichedQuartet> {
    enrich_bucket_min_samples(backend, bucket, thresholds, MIN_SAMPLES)
}

/// [`enrich_bucket`] with an explicit sample floor (for ablations).
pub fn enrich_bucket_min_samples<B: Backend>(
    backend: &B,
    bucket: TimeBucket,
    thresholds: &BadnessThresholds,
    min_samples: u32,
) -> Vec<EnrichedQuartet> {
    enrich_obs_sharded(
        backend,
        backend.quartets_in(bucket),
        bucket,
        thresholds,
        min_samples,
        1,
    )
}

/// Enrichment over already-fetched observations, fanned out over
/// `parallelism` worker threads. Splitting the backend fetch from the
/// join/classify step lets the engine charge them to separate profile
/// stages (ingest vs. quartet aggregation); the routing join is a pure
/// per-quartet lookup, so the observation list splits into contiguous
/// chunks and the enriched output keeps the input order exactly
/// (`parallelism <= 1` is one sequential pass). Each chunk applies the
/// sample floor and the join in the same pass; no intermediate list of
/// kept observations or of per-observation `Option`s is built.
pub fn enrich_obs_sharded<B: Backend>(
    backend: &B,
    obs: Vec<QuartetObs>,
    bucket: TimeBucket,
    thresholds: &BadnessThresholds,
    min_samples: u32,
    parallelism: usize,
) -> Vec<EnrichedQuartet> {
    let at = bucket.mid();
    concat_chunks(run_chunked(parallelism, &obs, |chunk| {
        chunk
            .iter()
            .filter(|obs| obs.n >= min_samples)
            .filter_map(|obs| {
                let info = backend.route_info(obs.loc, obs.p24, at)?;
                let bad = obs.mean_rtt_ms > thresholds.get(info.region, obs.mobile);
                Some(EnrichedQuartet {
                    obs: *obs,
                    info,
                    bad,
                })
            })
            .collect::<Vec<_>>()
    }))
}

/// Groups raw RTT records into quartet observations (the aggregation
/// the analytics cluster performs on the collector stream, §6.1) the
/// pre-columnar way: one hash upsert per record into a SipHash map,
/// then a sort of the distinct quartets. Kept verbatim as the reference
/// implementation the differential harness
/// (`tests/columnar_equivalence.rs`) compares against. Not for production
/// use — [`crate::columnar::aggregate_batch_reuse`] is ~an order of
/// magnitude faster on collector-shaped streams.
pub fn aggregate_records_reference(records: &[RttRecord]) -> Vec<QuartetObs> {
    #[derive(Default)]
    struct Acc {
        n: u32,
        sum: f64,
    }
    // lint:allow(sip-hasher): reference baseline must keep the original std SipHash map it is benchmarked against
    let mut map: HashMap<_, Acc> = HashMap::new();
    for r in records {
        let key = (r.loc, r.p24, r.mobile, r.at.bucket());
        let a = map.entry(key).or_default();
        a.n += 1;
        a.sum += r.rtt_ms;
    }
    let mut out: Vec<QuartetObs> = map
        .into_iter()
        .map(|((loc, p24, mobile, bucket), a)| QuartetObs {
            loc,
            p24,
            mobile,
            bucket,
            n: a.n,
            mean_rtt_ms: a.sum / a.n as f64,
        })
        .collect();
    out.sort_by_key(|q| (q.bucket, q.loc, q.p24, q.mobile));
    out
}

/// The paper's §2.1 homogeneity check: randomly split one quartet's RTT
/// samples into two halves and KS-test them. Returns `None` when there
/// are fewer than 2·[`MIN_SAMPLES`] samples (split halves too small to
/// test meaningfully).
pub fn split_half_ks(rtts: &[f64], seed: u64) -> Option<KsResult> {
    if rtts.len() < 2 * MIN_SAMPLES as usize {
        return None;
    }
    let mut idx: Vec<usize> = (0..rtts.len()).collect();
    let mut rng = DetRng::from_keys(seed, &[0x59117]);
    rng.shuffle(&mut idx);
    let half = rtts.len() / 2;
    let a: Vec<f64> = idx[..half].iter().map(|i| rtts[*i]).collect();
    let b: Vec<f64> = idx[half..].iter().map(|i| rtts[*i]).collect();
    ks_two_sample(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::WorldBackend;
    use blameit_simnet::{SimTime, World, WorldConfig};
    use blameit_topology::{CloudLocId, Prefix24};

    fn world() -> World {
        World::new(WorldConfig::tiny(1, 41))
    }

    #[test]
    fn enrich_applies_sample_floor() {
        let w = world();
        let b = WorldBackend::new(&w);
        let th = BadnessThresholds::uniform(1e9); // nothing is bad
        let bucket = TimeBucket(140);
        let enriched = enrich_bucket(&b, bucket, &th);
        assert!(!enriched.is_empty());
        for q in &enriched {
            assert!(q.obs.n >= MIN_SAMPLES);
            assert!(!q.bad);
        }
        // The floor actually drops something.
        let raw = b.quartets_in(bucket);
        let small = raw.iter().filter(|q| q.n < MIN_SAMPLES).count();
        assert!(small > 0, "tiny world should have small quartets");
        assert_eq!(enriched.len(), raw.len() - small);
    }

    #[test]
    fn enrich_classifies_badness() {
        let w = world();
        let b = WorldBackend::new(&w);
        let all_bad = enrich_bucket(&b, TimeBucket(140), &BadnessThresholds::uniform(0.0));
        assert!(all_bad.iter().all(|q| q.bad));
        let none_bad = enrich_bucket(&b, TimeBucket(140), &BadnessThresholds::uniform(1e9));
        assert!(none_bad.iter().all(|q| !q.bad));
    }

    /// Single-bucket records through the production kernel.
    fn aggregate(bucket: TimeBucket, recs: &[RttRecord]) -> Vec<QuartetObs> {
        use crate::columnar::{aggregate_batch_reuse, IngestArena, QuartetStore, RecordBatch};
        let mut store = QuartetStore::new();
        let batch = RecordBatch::from_records(bucket, recs);
        aggregate_batch_reuse(&batch, &mut IngestArena::new(), &mut store);
        store.to_obs()
    }

    #[test]
    fn aggregate_matches_simulator_quartets() {
        let w = world();
        let bucket = TimeBucket(150);
        for c in w.topology().clients.iter().take(30) {
            let recs = w.rtt_records(c.primary_loc, c, bucket);
            if recs.is_empty() {
                continue;
            }
            let qs = aggregate(bucket, &recs);
            assert_eq!(qs.len(), 1);
            assert_eq!(qs[0].n as usize, recs.len());
        }
    }

    #[test]
    fn columnar_matches_reference_bit_for_bit() {
        use blameit_topology::testkit;
        // Random record streams, including duplicate keys scattered
        // across the batch (forcing the sort fallback): the
        // columnar kernel must reproduce the reference upsert's output
        // exactly, means compared by bits.
        testkit::check("quartet::columnar_vs_reference", 64, |rng| {
            let nrecs = rng.below(400) as usize;
            let recs: Vec<RttRecord> = (0..nrecs)
                .map(|_| RttRecord {
                    loc: CloudLocId(rng.below(4) as u16),
                    p24: Prefix24::from_block(rng.below(6) as u32),
                    mobile: rng.chance(0.3),
                    at: SimTime(rng.below(300)),
                    rtt_ms: 10.0 + rng.f64() * 200.0,
                })
                .collect();
            let fast = aggregate(TimeBucket(0), &recs);
            let slow = aggregate_records_reference(&recs);
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(
                    (f.loc, f.p24, f.mobile, f.bucket),
                    (s.loc, s.p24, s.mobile, s.bucket)
                );
                assert_eq!(f.n, s.n);
                assert_eq!(
                    f.mean_rtt_ms.to_bits(),
                    s.mean_rtt_ms.to_bits(),
                    "mean bits diverged for {:?}",
                    (f.loc, f.p24, f.mobile, f.bucket)
                );
            }
        });
    }

    #[test]
    fn batch_ingest_is_run_order_independent() {
        use blameit_topology::testkit;
        // Collector streams concatenate per-client record groups; the
        // concatenation order is an accident of collector scheduling.
        // Permuting whole groups (keeping each key's internal sample
        // order) must leave the aggregate bit-identical — the sort
        // that orders runs is keyed on (key, first-index), so run
        // order cannot leak into the output.
        testkit::check("quartet::run_order_independence", 32, |rng| {
            let ngroups = 2 + rng.below(12) as usize;
            let mut groups: Vec<Vec<RttRecord>> = (0..ngroups)
                .map(|g| {
                    let n = 1 + rng.below(20) as usize;
                    (0..n)
                        .map(|_| RttRecord {
                            loc: CloudLocId((g % 3) as u16),
                            p24: Prefix24::from_block(g as u32),
                            mobile: false,
                            at: SimTime(rng.below(300)),
                            rtt_ms: 10.0 + rng.f64() * 200.0,
                        })
                        .collect()
                })
                .collect();
            let flat = |gs: &[Vec<RttRecord>]| gs.concat();
            let before = aggregate(TimeBucket(0), &flat(&groups));
            rng.shuffle(&mut groups);
            let after = aggregate(TimeBucket(0), &flat(&groups));
            assert_eq!(before.len(), after.len());
            for (b, a) in before.iter().zip(&after) {
                assert_eq!(b.n, a.n);
                assert_eq!(b.mean_rtt_ms.to_bits(), a.mean_rtt_ms.to_bits());
            }
        });
    }

    #[test]
    fn split_half_ks_on_real_quartet() {
        let w = world();
        let bucket = TimeBucket(150);
        // Find a populous quartet; its split halves should be
        // indistinguishable (the §2.1 validation).
        let mut tested = 0;
        for c in &w.topology().clients {
            let recs = w.rtt_records(c.primary_loc, c, bucket);
            if recs.len() < 40 {
                continue;
            }
            let rtts: Vec<f64> = recs.iter().map(|r| r.rtt_ms).collect();
            let ks = split_half_ks(&rtts, 1).unwrap();
            assert!(
                !ks.rejects_same_distribution(0.01),
                "quartet halves differ: p={}",
                ks.p_value
            );
            tested += 1;
            if tested >= 5 {
                break;
            }
        }
        assert!(tested > 0, "no populous quartet found");
    }

    #[test]
    fn split_half_ks_needs_enough_samples() {
        assert!(split_half_ks(&[1.0; 19], 1).is_none());
        assert!(split_half_ks(&[1.0; 20], 1).is_some());
    }
}
