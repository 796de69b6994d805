//! [`QueueBackend`]: the bounded ingest queue as a [`Backend`].
//!
//! The engine's tick pulls quartets through [`Backend::quartets_in`];
//! the daemon's ingest path pushes admitted [`RecordBatch`]es. This
//! adapter joins the two: buckets before `feed_start` delegate to the
//! inner backend (warmup history comes from the world, exactly like an
//! offline run), buckets at or after it aggregate whatever the socket
//! fed — concatenated, key-sorted, and collapsed through the columnar
//! ingest kernel.
//!
//! Determinism: for a given multiset of admitted batches pushed in a
//! given order, aggregation is a pure function — no wall clock, no
//! map iteration. With a single feeder connection (the supported
//! configuration) arrival order is the sender's frame order, so a
//! replayed feed reproduces every tick byte-for-byte; that is what
//! lets [`DurableEngine`](blameit::DurableEngine) journal-replay
//! through this backend after a crash.

use blameit::columnar::{aggregate_batch_reuse, IngestArena, QuartetStore, RecordBatch};
use blameit::Backend;
use blameit_simnet::{QuartetObs, RttRecord, SimTime, TimeBucket, TimeRange};
use blameit_topology::bgp::BgpChurnEvent;
use blameit_topology::{CloudLocId, Prefix24};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A [`Backend`] that serves fed batches for the ingest window and
/// delegates everything else (routing, traceroutes, churn, warmup
/// buckets) to the inner backend.
pub struct QueueBackend<B> {
    inner: B,
    feed_start: TimeBucket,
    queued: Mutex<BTreeMap<u32, Vec<RecordBatch>>>,
}

impl<B: Backend> QueueBackend<B> {
    /// Wraps `inner`; buckets `>= feed_start` are served from the
    /// queue, earlier buckets from `inner`.
    pub fn new(inner: B, feed_start: TimeBucket) -> Self {
        QueueBackend {
            inner,
            feed_start,
            queued: Mutex::new(BTreeMap::new()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// First fed bucket.
    pub fn feed_start(&self) -> TimeBucket {
        self.feed_start
    }

    /// Enqueues one admitted batch (appended after any batches already
    /// held for its bucket).
    pub fn push(&self, batch: RecordBatch) {
        if batch.keys.is_empty() {
            return;
        }
        self.queued
            .lock()
            .expect("queue lock")
            .entry(batch.bucket.0)
            .or_default()
            .push(batch);
    }

    /// The highest bucket any batch has been fed for.
    pub fn max_fed(&self) -> Option<TimeBucket> {
        self.queued
            .lock()
            .expect("queue lock")
            .keys()
            .next_back()
            .map(|&b| TimeBucket(b))
    }

    /// Records held for buckets at or after `start`.
    pub fn records_from(&self, start: TimeBucket) -> usize {
        let q = self.queued.lock().expect("queue lock");
        q.range(start.0..)
            .map(|(_, v)| v.iter().map(|b| b.keys.len()).sum::<usize>())
            .sum()
    }

    /// Drops buckets strictly below `cutoff` (covered by a durable
    /// snapshot — no replay can need them again).
    pub fn prune_below(&self, cutoff: TimeBucket) {
        let mut q = self.queued.lock().expect("queue lock");
        *q = q.split_off(&cutoff.0);
    }

    /// The retained batches in (bucket, arrival) order. The daemon
    /// never clones its queue; this survives for the frozen
    /// `benchmark/` harness's shadow ([`IngestWal::compact`]) and goes
    /// with it under ROADMAP item 5.
    ///
    /// [`IngestWal::compact`]: crate::IngestWal::compact
    pub fn retained(&self) -> Vec<RecordBatch> {
        let q = self.queued.lock().expect("queue lock");
        q.values().flat_map(|v| v.iter().cloned()).collect()
    }
}

impl<B: Backend> Backend for QueueBackend<B> {
    fn quartets_in(&self, bucket: TimeBucket) -> Vec<QuartetObs> {
        if bucket.0 < self.feed_start.0 {
            return self.inner.quartets_in(bucket);
        }
        let merged = {
            let q = self.queued.lock().expect("queue lock");
            let Some(batches) = q.get(&bucket.0) else {
                return Vec::new();
            };
            let total: usize = batches.iter().map(|b| b.keys.len()).sum();
            let mut merged = RecordBatch {
                bucket,
                keys: Vec::with_capacity(total),
                rtt: Vec::with_capacity(total),
            };
            for b in batches {
                merged.keys.extend_from_slice(&b.keys);
                merged.rtt.extend_from_slice(&b.rtt);
            }
            merged
        };
        // One admitted batch is key-sorted already; several for the
        // same bucket concatenate unsorted, and the kernel sorts those.
        let mut arena = IngestArena::new();
        let mut store = QuartetStore::new();
        aggregate_batch_reuse(&merged, &mut arena, &mut store);
        store.to_obs()
    }

    fn rtt_records_in(&self, bucket: TimeBucket) -> Option<Vec<RttRecord>> {
        if bucket.0 < self.feed_start.0 {
            self.inner.rtt_records_in(bucket)
        } else {
            // The raw record stream was consumed at the socket; only
            // the columnar form exists here.
            None
        }
    }

    fn route_info(
        &self,
        loc: CloudLocId,
        p24: Prefix24,
        at: SimTime,
    ) -> Option<blameit::RouteInfo> {
        self.inner.route_info(loc, p24, at)
    }

    fn traceroute(
        &self,
        loc: CloudLocId,
        p24: Prefix24,
        at: SimTime,
    ) -> Option<blameit_simnet::Traceroute> {
        self.inner.traceroute(loc, p24, at)
    }

    fn churn_events(&self, range: TimeRange) -> Vec<BgpChurnEvent> {
        self.inner.churn_events(range)
    }

    fn cloud_locations(&self) -> Vec<CloudLocId> {
        self.inner.cloud_locations()
    }

    fn probes_issued(&self) -> u64 {
        self.inner.probes_issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit::{BadnessThresholds, WorldBackend};
    use blameit_simnet::{World, WorldConfig};

    #[test]
    fn fed_buckets_aggregate_and_early_buckets_delegate() {
        let world = World::new(WorldConfig::tiny(2, 7));
        let _ = BadnessThresholds::default_for(&world);
        let backend = WorldBackend::new(&world);
        let feed_start = TimeBucket(10);
        let q = QueueBackend::new(backend, feed_start);

        // Early bucket: identical to the inner backend.
        let inner_obs = q.inner().quartets_in(TimeBucket(3));
        assert_eq!(q.quartets_in(TimeBucket(3)), inner_obs);

        // Fed bucket with nothing queued: empty, not delegated.
        assert!(q.quartets_in(TimeBucket(10)).is_empty());

        // Two split batches aggregate like one combined batch.
        let recs: Vec<RttRecord> = q.inner().rtt_records_in(TimeBucket(10)).unwrap();
        assert!(!recs.is_empty());
        let mid = recs.len() / 2;
        q.push(RecordBatch::from_records(TimeBucket(10), &recs[..mid]));
        q.push(RecordBatch::from_records(TimeBucket(10), &recs[mid..]));
        let split = q.quartets_in(TimeBucket(10));

        let whole = QueueBackend::new(WorldBackend::new(&world), feed_start);
        whole.push(RecordBatch::from_records(TimeBucket(10), &recs));
        assert_eq!(split, whole.quartets_in(TimeBucket(10)));
        assert_eq!(q.records_from(TimeBucket(10)), recs.len());
        assert_eq!(q.max_fed(), Some(TimeBucket(10)));
    }

    #[test]
    fn prune_drops_only_older_buckets() {
        let world = World::new(WorldConfig::tiny(2, 7));
        let q = QueueBackend::new(WorldBackend::new(&world), TimeBucket(0));
        for b in [5u32, 6, 7] {
            q.push(RecordBatch {
                bucket: TimeBucket(b),
                keys: vec![1, 2],
                rtt: vec![10.0, 20.0],
            });
        }
        q.prune_below(TimeBucket(7));
        assert!(q.quartets_in(TimeBucket(5)).is_empty());
        assert!(q.quartets_in(TimeBucket(6)).is_empty());
        assert!(!q.quartets_in(TimeBucket(7)).is_empty());
        assert_eq!(q.records_from(TimeBucket(0)), 2);
    }
}
