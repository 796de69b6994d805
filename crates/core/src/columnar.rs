//! Columnar quartet ingest: sort-by-key batches over a
//! struct-of-arrays store.
//!
//! The paper's analytics cluster aggregates hundreds of millions of
//! RTT records per day per location into quartets (§6.1). Doing that
//! with one `HashMap` upsert per record — a SipHash of a 4-field key
//! plus a probe per sample — dominated the tick in the PR-1 stage
//! profile. The columnar kernel ([`aggregate_batch_reuse`]) instead
//! takes one bucket's records as a [`RecordBatch`] (pre-packed `u64`
//! subkeys whose integer order is the canonical `(loc, p24, mobile)`
//! output order, plus the RTT column) and:
//!
//! 1. collapses *consecutive equal-key runs* in a single sequential
//!    pass — a key-sorted batch is one run per key, so the common case
//!    never hashes or sorts individual records; and
//! 2. checks the collapsed runs (thousands, not millions) came out
//!    strictly key-ascending. They do whenever the sender sorted: the
//!    daemon's admission controller sorts every offered batch
//!    ([`RecordBatch::sort_by_key`], the workspace's one record sort)
//!    before the WAL or the queue sees it. When they do not — a raw
//!    collector stream, or one bucket's batches concatenated — the
//!    kernel takes its one cold fallback: sort a copy with the same
//!    `sort_by_key`, collapse again. Merging the out-of-order partial
//!    sums instead would re-associate `f64` additions, and the
//!    equivalence contract is *bit-identical* means, not approximately
//!    equal ones.
//!
//! Both paths accumulate each key's RTT sum element-by-element in
//! stream order (the sort is stable), exactly like the per-record
//! upsert did, so `sum / n` reproduces its mean to the last bit. That
//! upsert survives as the oracle
//! [`crate::quartet::aggregate_records_reference`]; the differential
//! harness (`tests/columnar_equivalence.rs`) holds the kernel against
//! it across seeds, thread counts, and chaos plans.
//!
//! Scratch lives in an [`IngestArena`] owned by the caller and reused
//! across batches/ticks, so steady-state ingest performs no
//! allocations beyond store growth.

use blameit_simnet::{QuartetObs, RttRecord, TimeBucket};
use blameit_topology::{CloudLocId, Prefix24};
use std::ops::Range;

/// Packs a quartet key into a `u128` whose integer order equals the
/// canonical quartet sort order `(bucket, loc, p24, mobile)`:
/// bits `[73..41]` bucket, `[41..25]` loc, `[25..1]` /24 block,
/// bit 0 mobile.
#[inline]
pub fn pack_key(loc: CloudLocId, p24: Prefix24, mobile: bool, bucket: TimeBucket) -> u128 {
    ((bucket.0 as u128) << 41)
        | ((loc.0 as u128) << 25)
        | ((p24.block() as u128) << 1)
        | (mobile as u128)
}

/// Inverse of [`pack_key`].
#[inline]
pub fn unpack_key(key: u128) -> (CloudLocId, Prefix24, bool, TimeBucket) {
    (
        CloudLocId(((key >> 25) & 0xFFFF) as u16),
        Prefix24::from_block(((key >> 1) & 0x00FF_FFFF) as u32),
        (key & 1) == 1,
        TimeBucket((key >> 41) as u32),
    )
}

/// Packs the bucket-invariant part of a quartet key into a `u64`:
/// bits `[41..25]` loc, `[25..1]` /24 block, bit 0 mobile. Within one
/// bucket, `u64` order equals the canonical `(loc, p24, mobile)`
/// order; [`pack_key`] is `(bucket << 41) | subkey`.
#[inline]
pub fn pack_subkey(loc: CloudLocId, p24: Prefix24, mobile: bool) -> u64 {
    ((loc.0 as u64) << 25) | ((p24.block() as u64) << 1) | (mobile as u64)
}

/// A columnar (struct-of-arrays) batch of RTT records for one time
/// bucket: pre-packed `u64` subkeys and the RTT column, in stream
/// order. This is the form the collector hands the ingest stage — the
/// aggregation kernel streams 16 bytes per record instead of striding
/// over 24-byte `RttRecord` structs, and the key is packed once at
/// batch build time instead of once per aggregation pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordBatch {
    /// The bucket every record in this batch belongs to.
    pub bucket: TimeBucket,
    /// Packed `(loc, p24, mobile)` subkeys ([`pack_subkey`]), stream
    /// order.
    pub keys: Vec<u64>,
    /// RTT samples in milliseconds, parallel to `keys`.
    pub rtt: Vec<f64>,
}

impl RecordBatch {
    /// Columnarizes a record slice known to belong to `bucket`.
    ///
    /// # Panics
    /// Debug-asserts every record's timestamp really falls in
    /// `bucket`; release builds trust the collector's contract.
    pub fn from_records(bucket: TimeBucket, records: &[RttRecord]) -> RecordBatch {
        debug_assert!(
            records.iter().all(|r| r.at.bucket() == bucket),
            "record outside the batch bucket"
        );
        RecordBatch {
            bucket,
            keys: records
                .iter()
                .map(|r| pack_subkey(r.loc, r.p24, r.mobile))
                .collect(),
            rtt: records.iter().map(|r| r.rtt_ms).collect(),
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The batch's consecutive equal-key runs as `(key, start..end)`,
    /// in stream order. A key-sorted batch yields one run per quartet
    /// group.
    pub(crate) fn key_runs(&self) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
        let mut start = 0;
        std::iter::from_fn(move || {
            let key = *self.keys.get(start)?;
            let run = start..run_end(&self.keys, start);
            start = run.end;
            Some((key, run))
        })
    }

    /// Stable-sorts the batch by subkey, keeping each key's samples in
    /// stream order (so downstream accumulation stays bit-identical to
    /// the unsorted stream). This is the collector-side shuffle of the
    /// sort-by-key ingest design: batches arrive at the aggregation
    /// kernel already key-ordered, and the kernel's run collapse never
    /// needs its fallback. No-op on already-sorted batches; otherwise
    /// the sort moves *runs*, not records — a collector stream is a few
    /// thousand key runs, a handful out of place, so it sorts thousands
    /// of `(key, start, end)` triples and gathers each run with one
    /// slice copy per column.
    pub fn sort_by_key(&mut self) {
        if self.keys.windows(2).all(|w| w[0] <= w[1]) {
            return;
        }
        let mut runs: Vec<(u64, usize, usize)> = self
            .key_runs()
            .map(|(key, run)| (key, run.start, run.end))
            .collect();
        // Unstable sort is stable in effect: starts are distinct, so
        // equal keys keep stream order.
        runs.sort_unstable();
        let mut keys = Vec::with_capacity(self.keys.len());
        let mut rtt = Vec::with_capacity(self.rtt.len());
        for &(_, start, end) in &runs {
            keys.extend_from_slice(&self.keys[start..end]);
            rtt.extend_from_slice(&self.rtt[start..end]);
        }
        self.keys = keys;
        self.rtt = rtt;
    }

    /// Drops every run whose key `keep` rejects, compacting both
    /// columns in place: one `keep` call and one `copy_within` per run,
    /// survivors stay in stream order.
    pub(crate) fn retain_runs(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let (mut read, mut write) = (0, 0);
        while let Some(&key) = self.keys.get(read) {
            let end = run_end(&self.keys, read);
            if keep(key) {
                self.keys.copy_within(read..end, write);
                self.rtt.copy_within(read..end, write);
                write += end - read;
            }
            read = end;
        }
        self.keys.truncate(write);
        self.rtt.truncate(write);
    }
}

/// End (exclusive) of the equal-key run that starts at `start`.
fn run_end(keys: &[u64], start: usize) -> usize {
    let key = keys[start];
    start + keys[start..].iter().take_while(|&&k| k == key).count()
}

/// One collapsed run of equal-subkey records in a single-bucket batch.
#[derive(Clone, Copy, Debug)]
struct Run {
    key: u64,
    n: u32,
    sum: f64,
}

/// Reusable per-batch scratch for [`aggregate_batch_reuse`]. Owned by
/// the caller (engine, bench, or collector loop) and reused across
/// ticks so the hot path allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct IngestArena {
    /// Collapsed-run scratch.
    runs: Vec<Run>,
    /// Batches aggregated through this arena (fast + fallback).
    pub batches: u64,
    /// Batches that arrived unsorted and took the sort-a-copy fallback.
    pub sort_fallbacks: u64,
}

impl IngestArena {
    /// A fresh arena.
    pub fn new() -> IngestArena {
        IngestArena::default()
    }
}

/// Struct-of-arrays quartet store: parallel columns sorted by packed
/// key. The layout keeps the aggregation loop's working set to the
/// columns it touches (keys during grouping, sums during the mean
/// division) instead of striding over interleaved `QuartetObs` fields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuartetStore {
    keys: Vec<u128>,
    n: Vec<u32>,
    sum: Vec<f64>,
}

impl QuartetStore {
    /// An empty store.
    pub fn new() -> QuartetStore {
        QuartetStore::default()
    }

    /// Number of distinct quartets held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no quartets are held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drops all quartets, keeping the column capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.n.clear();
        self.sum.clear();
    }

    /// Sample count and RTT sum for one quartet key, if present
    /// (binary search over the sorted key column).
    pub fn get(&self, key: u128) -> Option<(u32, f64)> {
        let i = self.keys.binary_search(&key).ok()?;
        Some((self.n[i], self.sum[i]))
    }

    /// The observation at row `i`, in key order.
    pub fn obs_at(&self, i: usize) -> QuartetObs {
        let (loc, p24, mobile, bucket) = unpack_key(self.keys[i]);
        QuartetObs {
            loc,
            p24,
            mobile,
            bucket,
            n: self.n[i],
            mean_rtt_ms: self.sum[i] / self.n[i] as f64,
        }
    }

    /// Iterates the observations in canonical key order.
    pub fn iter(&self) -> impl Iterator<Item = QuartetObs> + '_ {
        (0..self.len()).map(|i| self.obs_at(i))
    }

    /// Materializes the canonical `Vec<QuartetObs>` (key order — the
    /// same `(bucket, loc, p24, mobile)` order the reference path sorts
    /// into).
    pub fn to_obs(&self) -> Vec<QuartetObs> {
        self.iter().collect()
    }
}

/// Collapses `batch`'s consecutive equal-key runs into `runs` (cleared
/// first). The open run lives in locals (registers); the run length is
/// derived from indices at the boundary instead of counted per record,
/// so the steady-state iteration is two streaming loads, one compare,
/// and the one f64 add the bit-identity contract requires. Sortedness
/// is *not* tracked here — the caller's scan over the collapsed runs
/// recovers it.
#[inline(always)]
fn collapse_runs(batch: &RecordBatch, runs: &mut Vec<Run>) {
    runs.clear();
    let n = batch.keys.len();
    if n > 0 {
        let keys = &batch.keys[..n];
        let rtt = &batch.rtt[..n];
        let mut cur_key = keys[0];
        let mut cur_sum = rtt[0];
        let mut first = 0usize;
        for i in 1..n {
            let key = keys[i];
            let v = rtt[i];
            if key == cur_key {
                cur_sum += v;
            } else {
                runs.push(Run {
                    key: cur_key,
                    n: (i - first) as u32,
                    sum: cur_sum,
                });
                cur_key = key;
                cur_sum = v;
                first = i;
            }
        }
        runs.push(Run {
            key: cur_key,
            n: (n - first) as u32,
            sum: cur_sum,
        });
    }
}

/// The unsorted-batch fallback: a key out of order, or split across
/// non-adjacent runs, cannot be fixed up from the collapsed runs
/// without re-associating its f64 additions, so redo the batch from a
/// stably sorted copy.
#[cold]
fn collapse_sorted_copy(batch: &RecordBatch, arena: &mut IngestArena) {
    arena.sort_fallbacks += 1;
    let mut sorted = batch.clone();
    sorted.sort_by_key();
    collapse_runs(&sorted, &mut arena.runs);
}

/// Aggregates one columnar [`RecordBatch`] into `store` (cleared
/// first), using `arena` for scratch. See the module docs for the
/// collapse-then-check strategy; on either path each key's sum
/// accumulates element-by-element in stream order — bit-identical to
/// the reference upsert. The hot loop streams 16 bytes per record:
/// pre-packed `u64` subkeys and the RTT column, no key packing and no
/// bucket division.
#[inline]
pub fn aggregate_batch_reuse(
    batch: &RecordBatch,
    arena: &mut IngestArena,
    store: &mut QuartetStore,
) {
    store.clear();
    arena.batches += 1;
    collapse_runs(batch, &mut arena.runs);
    if !arena.runs.windows(2).all(|w| w[0].key < w[1].key) {
        collapse_sorted_copy(batch, arena);
    }

    let base = (batch.bucket.0 as u128) << 41;
    store
        .keys
        .extend(arena.runs.iter().map(|r| base | r.key as u128));
    store.n.extend(arena.runs.iter().map(|r| r.n));
    store.sum.extend(arena.runs.iter().map(|r| r.sum));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::DetHashSet;
    use blameit_simnet::SimTime;

    fn rec(loc: u16, block: u32, mobile: bool, secs: u64, rtt: f64) -> RttRecord {
        RttRecord {
            loc: CloudLocId(loc),
            p24: Prefix24::from_block(block),
            mobile,
            at: SimTime(secs),
            rtt_ms: rtt,
        }
    }

    /// One-shot aggregation of bucket-0 records through the kernel.
    fn aggregate(records: &[RttRecord], arena: &mut IngestArena) -> QuartetStore {
        let mut store = QuartetStore::new();
        let batch = RecordBatch::from_records(TimeBucket(0), records);
        aggregate_batch_reuse(&batch, arena, &mut store);
        store
    }

    #[test]
    fn key_order_matches_quartet_sort_order() {
        // Packed integer order must equal (bucket, loc, p24, mobile)
        // tuple order for every pairing of these corner values.
        let locs = [0u16, 1, u16::MAX];
        let blocks = [0u32, 5, (1 << 24) - 1];
        let buckets = [0u32, 7, u32::MAX];
        let mut keys = Vec::new();
        for &b in &buckets {
            for &l in &locs {
                for &p in &blocks {
                    for m in [false, true] {
                        keys.push((
                            pack_key(CloudLocId(l), Prefix24::from_block(p), m, TimeBucket(b)),
                            (b, l, p, m),
                        ));
                    }
                }
            }
        }
        let mut by_packed = keys.clone();
        by_packed.sort_by_key(|(k, _)| *k);
        let mut by_tuple = keys.clone();
        by_tuple.sort_by_key(|(_, t)| *t);
        assert_eq!(by_packed, by_tuple);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (l, p, m, b) in [
            (0u16, 0u32, false, 0u32),
            (42, 12345, true, 99999),
            (u16::MAX, (1 << 24) - 1, true, u32::MAX),
        ] {
            let key = pack_key(CloudLocId(l), Prefix24::from_block(p), m, TimeBucket(b));
            assert_eq!(
                unpack_key(key),
                (CloudLocId(l), Prefix24::from_block(p), m, TimeBucket(b))
            );
        }
    }

    #[test]
    fn run_collapse_handles_client_grouped_streams() {
        // Per-client runs, keys not globally sorted: the fallback
        // sorts them into key order.
        let records = vec![
            rec(1, 9, false, 10, 30.0),
            rec(1, 9, false, 20, 40.0),
            rec(0, 3, true, 15, 50.0),
            rec(0, 3, true, 25, 60.0),
            rec(2, 1, false, 5, 10.0),
        ];
        let mut arena = IngestArena::new();
        let store = aggregate(&records, &mut arena);
        assert_eq!(arena.sort_fallbacks, 1);
        assert_eq!(store.len(), 3);
        let obs = store.to_obs();
        assert_eq!(obs[0].loc, CloudLocId(0));
        assert_eq!((obs[0].n, obs[0].mean_rtt_ms), (2, 55.0));
        assert_eq!((obs[1].n, obs[1].mean_rtt_ms), (2, 35.0));
        assert_eq!(obs[2].loc, CloudLocId(2));
    }

    #[test]
    fn interleaved_keys_take_the_fallback_and_stay_exact() {
        // Key A split across two non-adjacent multi-record runs: the
        // partial-sum merge would be (a1+a2)+(a3+a4); the fallback
        // must restore ((a1+a2)+a3)+a4. 1e16 has ulp 2, so +1.0 rounds
        // away sequentially but the pre-added (1.0 + 1.0) survives: the
        // two associations differ in the last bit.
        let vals: [f64; 4] = [1e16, 1.0, 1.0, 1.0];
        let split = (vals[0] + vals[1]) + (vals[2] + vals[3]);
        let seq = ((vals[0] + vals[1]) + vals[2]) + vals[3];
        assert_ne!(split.to_bits(), seq.to_bits(), "values must discriminate");
        let records = vec![
            rec(1, 9, false, 10, vals[0]),
            rec(1, 9, false, 20, vals[1]),
            rec(0, 3, true, 15, 50.0),
            rec(1, 9, false, 25, vals[2]),
            rec(1, 9, false, 30, vals[3]),
            rec(2, 1, false, 5, 10.0),
        ];
        let mut arena = IngestArena::new();
        let store = aggregate(&records, &mut arena);
        assert_eq!(arena.sort_fallbacks, 1);
        let key = pack_key(CloudLocId(1), Prefix24::from_block(9), false, TimeBucket(0));
        let (n, sum) = store.get(key).unwrap();
        assert_eq!(n, 4);
        assert_eq!(sum.to_bits(), seq.to_bits(), "stream-order accumulation");
    }

    #[test]
    fn collector_sort_preserves_within_key_order() {
        // Key A's samples interleave with key B; sort_by_key groups
        // them while keeping A's samples in stream order, so the
        // kernel's single-pass collapse reproduces the sequential
        // ((a1+a2)+a3)+a4 bits without any fallback.
        let vals: [f64; 4] = [1e16, 1.0, 1.0, 1.0];
        let seq = ((vals[0] + vals[1]) + vals[2]) + vals[3];
        let records = vec![
            rec(1, 1, false, 10, vals[0]),
            rec(1, 1, false, 11, vals[1]),
            rec(0, 2, false, 12, 5.0),
            rec(1, 1, false, 13, vals[2]),
            rec(1, 1, false, 14, vals[3]),
        ];
        let mut batch = RecordBatch::from_records(TimeBucket(0), &records);
        batch.sort_by_key();
        assert!(batch.keys.windows(2).all(|w| w[0] <= w[1]));
        let mut arena = IngestArena::new();
        let mut store = QuartetStore::new();
        aggregate_batch_reuse(&batch, &mut arena, &mut store);
        assert_eq!(arena.sort_fallbacks, 0, "sorted batches skip the fallback");
        let key = pack_key(CloudLocId(1), Prefix24::from_block(1), false, TimeBucket(0));
        let (n, sum) = store.get(key).unwrap();
        assert_eq!(n, 4);
        assert_eq!(
            sum.to_bits(),
            seq.to_bits(),
            "stream order within key survived the sort"
        );
    }

    /// The batch as `(key, rtt)` rows.
    fn rows(batch: &RecordBatch) -> Vec<(u64, f64)> {
        batch
            .keys
            .iter()
            .copied()
            .zip(batch.rtt.iter().copied())
            .collect()
    }

    #[test]
    fn run_sort_matches_the_stable_pair_sort_on_every_shape() {
        // (key, run length) streams; RTTs number the records in stream
        // order, so any reordering inside a key shows.
        let mut shuffled: Vec<(u64, usize)> = (0..40u64)
            .map(|k| (k * 3 % 17, 1 + (k % 4) as usize))
            .collect();
        let mut rng = blameit_topology::rng::DetRng::from_keys(7, &[0x50_27]);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let shapes: Vec<(&str, Vec<(u64, usize)>)> = vec![
            ("empty", vec![]),
            ("single", vec![(9, 1)]),
            ("sorted", vec![(1, 3), (2, 1), (5, 4)]),
            ("reversed", vec![(5, 4), (2, 1), (1, 3)]),
            ("all-equal", vec![(4, 6)]),
            ("interleaved A B A", vec![(7, 2), (3, 1), (7, 3)]),
            ("shuffled runs", shuffled),
        ];
        for (name, runs) in shapes {
            let keys: Vec<u64> = runs
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .collect();
            let rtt: Vec<f64> = (0..keys.len()).map(|i| i as f64).collect();
            let mut batch = RecordBatch {
                bucket: TimeBucket(3),
                keys,
                rtt,
            };
            let mut want = rows(&batch);
            want.sort_by_key(|&(k, _)| k);
            batch.sort_by_key();
            assert_eq!(rows(&batch), want, "{name}");
            let mut arena = IngestArena::new();
            let mut store = QuartetStore::new();
            aggregate_batch_reuse(&batch, &mut arena, &mut store);
            assert_eq!(
                arena.sort_fallbacks, 0,
                "{name}: the kernel sees a sorted batch"
            );
            let distinct: DetHashSet<u64> = batch.keys.iter().copied().collect();
            assert_eq!(store.len(), distinct.len(), "{name}");
        }
    }

    #[test]
    fn retain_runs_matches_filter_and_collect() {
        let mut batch = RecordBatch {
            bucket: TimeBucket(0),
            keys: vec![1, 1, 2, 3, 3, 3, 4, 5, 5],
            rtt: (0..9).map(f64::from).collect(),
        };
        for drop in [vec![], vec![1], vec![5], vec![2, 3, 4], vec![1, 2, 3, 4, 5]] {
            let mut want = rows(&batch);
            want.retain(|(k, _)| !drop.contains(k));
            let mut got = batch.clone();
            got.retain_runs(|k| !drop.contains(&k));
            assert_eq!(rows(&got), want, "dropping {drop:?}");
        }
        batch.keys.clear();
        batch.rtt.clear();
        batch.retain_runs(|_| true);
        assert!(batch.is_empty());
    }

    #[test]
    fn subkey_and_full_key_agree() {
        for (l, p, m, b) in [
            (0u16, 0u32, false, 0u32),
            (42, 12345, true, 99999),
            (u16::MAX, (1 << 24) - 1, true, u32::MAX),
        ] {
            let full = pack_key(CloudLocId(l), Prefix24::from_block(p), m, TimeBucket(b));
            let sub = pack_subkey(CloudLocId(l), Prefix24::from_block(p), m);
            assert_eq!(((b as u128) << 41) | sub as u128, full);
        }
    }

    #[test]
    fn arena_reuse_is_clean_across_batches() {
        let mut arena = IngestArena::new();
        let a = aggregate(&[rec(0, 1, false, 10, 10.0)], &mut arena);
        let b = aggregate(&[rec(1, 2, true, 20, 20.0)], &mut arena);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.to_obs()[0].loc, CloudLocId(1));
        assert_eq!(arena.batches, 2);
        let empty = aggregate(&[], &mut arena);
        assert!(empty.is_empty());
    }
}
