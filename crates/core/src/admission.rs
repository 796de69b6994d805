//! Bounded-ingest admission control and impact-aware overload
//! shedding for the daemon's ingest path.
//!
//! The daemon buffers incoming [`RecordBatch`]es in a bounded queue.
//! Two watermarks govern what happens as the queue fills:
//!
//! * past the **shed watermark**, the controller sheds quartet groups
//!   by *ascending client-time product* — the §5.3 ranking factors,
//!   inverted: the groups predicted to matter least (short expected
//!   remaining duration × few observed records) go first, so the heavy
//!   skew of Fig. 4b means shedding costs minimal localization
//!   coverage. A per-location fairness cap keeps one location's flood
//!   from consuming another location's queue share.
//! * at the **queue cap**, whole batches are refused outright and the
//!   caller replies `SLOW_DOWN` with a retry-after hint — the queue
//!   never buffers past its cap, bounding daemon memory.
//!
//! Shedding never touches the **top impact decile** of an offer: the
//! top ⌈n/10⌉ groups by client-time product survive both passes, even
//! when that leaves the watermark missed (the hard cap still bounds
//! memory — a batch that cannot fit is refused whole). This makes the
//! coverage claim structural — localization coverage of the
//! highest-impact clients is unaffected by shedding, by construction —
//! and doubles as the forward-progress guard: the daemon's tick
//! scheduling is data-driven (a window fires when a later bucket
//! arrives), so a full-shed under sustained overload would stall the
//! feed cursor and the queue could never drain.
//!
//! **Cost model.** An offer costs what it decides. Below the watermark
//! (pass-through) it is one sortedness scan of the batch — or, for a
//! raw collector stream, a sort of its key *runs*
//! ([`RecordBatch::sort_by_key`]) — plus one streak-table probe per
//! group. Past the watermark it adds one score per group (a lookup
//! whose cost is independent of how much history has accumulated,
//! [`DurationHistory::expected_remaining`]), one sort of the groups,
//! and one in-place compaction of the columns per surviving run.
//! Nothing is per record except the scan and the copies, and
//! [`AdmissionController::groups_scored`] counts the scoring so a
//! regression shows as a number, not a timing.
//!
//! Everything here is pure and deterministic: decisions depend only on
//! the controller's own history and the offered batch, never on wall
//! clocks, thread identity, or map iteration order. The caller is
//! responsible for surfacing the returned counts in metrics
//! ([`crate::metrics::shed_reason`]).

use crate::columnar::RecordBatch;
use crate::fxhash::{DetHashMap, DetHashSet};
use crate::history::DurationHistory;
use blameit_topology::{CloudLocId, PathId};

/// Admission-control knobs, all in *records* (one record = one RTT
/// sample; quartet groups are shed whole).
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Hard queue bound: an offer that would push the queue past this
    /// is refused wholesale (`SLOW_DOWN`).
    pub queue_cap_records: usize,
    /// Shedding starts when queue depth + offered records exceed this.
    pub shed_watermark_records: usize,
    /// Fairness threshold: once a location has shed this many records
    /// in one offer it becomes ineligible for further shedding (the
    /// group that crosses the threshold may overshoot), so one
    /// location's flood cannot absorb the whole shed pass.
    pub per_loc_shed_cap: usize,
    /// The retry-after hint attached to `SLOW_DOWN` replies, seconds.
    pub retry_after_secs: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_cap_records: 50_000,
            shed_watermark_records: 40_000,
            per_loc_shed_cap: 1_000,
            retry_after_secs: 30,
        }
    }
}

/// One quartet group's impact score inside an offered batch.
#[derive(Clone, Debug)]
pub struct GroupScore {
    /// The packed `(loc, p24, mobile)` subkey ([`crate::pack_subkey`]).
    pub subkey: u64,
    /// The group's cloud location (for the fairness cap).
    pub loc: CloudLocId,
    /// Records the group contributes to the batch (the observable
    /// client-volume proxy at admission time).
    pub records: u32,
    /// Mean residual life of the group's badness streak, buckets
    /// ([`DurationHistory::expected_remaining`]).
    pub expected_remaining_buckets: f64,
    /// The shed-ordering score: expected remaining × records.
    pub client_time_product: f64,
}

/// What the controller decided about one offered batch.
#[derive(Clone, Debug)]
pub enum AdmissionDecision {
    /// Admit `batch` (sorted by key, possibly reduced); `shed` lists
    /// the groups removed, in shed order.
    Admit {
        /// The admitted, key-sorted remainder of the offer.
        batch: RecordBatch,
        /// Groups shed ascending by `(client_time_product, subkey)`.
        shed: Vec<GroupScore>,
    },
    /// The whole batch was refused at the queue cap; the caller should
    /// reply `SLOW_DOWN` carrying this hint.
    Reject {
        /// Seconds the sender should wait before retrying.
        retry_after_secs: u64,
        /// Records refused (the whole offer).
        records: u64,
    },
}

/// The overload-shedding admission controller. Owns the per-group
/// streak bookkeeping and the [`DurationHistory`] that turns streak
/// lengths into expected-remaining predictions.
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    durations: DurationHistory,
    /// Per-subkey badness streak: (last bucket seen, streak length).
    streaks: DetHashMap<u64, (u32, u32)>,
    /// Groups scored by [`offer`](Self::offer) since construction.
    groups_scored: u64,
}

impl AdmissionController {
    /// A controller with the given knobs and empty history.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            durations: DurationHistory::new(),
            streaks: DetHashMap::default(),
            groups_scored: 0,
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Groups [`offer`](Self::offer) has scored so far: the sum of the
    /// group counts of exactly the offers that arrived past the shed
    /// watermark. A deterministic work counter — zero on a feed that
    /// never sheds.
    pub fn groups_scored(&self) -> u64 {
        self.groups_scored
    }

    /// Groups with a tracked streak. The table only grows (an entry is
    /// what turns a gap into a completed duration), so this is the
    /// number a long soak has to bound.
    pub fn streak_groups(&self) -> usize {
        self.streaks.len()
    }

    /// Scores every quartet group in `batch` (assumed key-sorted),
    /// returned ascending by `(client_time_product, subkey)` — shed
    /// order.
    pub fn score_batch(&self, batch: &RecordBatch) -> Vec<GroupScore> {
        let mut out: Vec<GroupScore> = batch
            .key_runs()
            .map(|(subkey, run)| {
                let records = run.len() as u32;
                let elapsed = self.streaks.get(&subkey).map(|&(_, len)| len).unwrap_or(0);
                let remaining = self
                    .durations
                    .expected_remaining(path_proxy(subkey), elapsed);
                GroupScore {
                    subkey,
                    loc: CloudLocId(((subkey >> 25) & 0xFFFF) as u16),
                    records,
                    expected_remaining_buckets: remaining,
                    client_time_product: remaining * records as f64,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            a.client_time_product
                .total_cmp(&b.client_time_product)
                .then_with(|| a.subkey.cmp(&b.subkey))
        });
        out
    }

    /// Decides about one offered batch given the current queue depth
    /// (records). The batch is sorted in place first (no-op when the
    /// sender pre-sorted), so the decision is independent of how the
    /// sender split or ordered the stream.
    pub fn offer(&mut self, mut batch: RecordBatch, queue_depth: usize) -> AdmissionDecision {
        let offered = batch.keys.len();
        if offered == 0 {
            return AdmissionDecision::Admit {
                batch,
                shed: Vec::new(),
            };
        }
        if queue_depth + offered > self.cfg.queue_cap_records {
            return AdmissionDecision::Reject {
                retry_after_secs: self.cfg.retry_after_secs,
                records: offered as u64,
            };
        }
        batch.sort_by_key();
        let need = (queue_depth + offered).saturating_sub(self.cfg.shed_watermark_records);
        let mut shed: Vec<GroupScore> = Vec::new();
        if need > 0 {
            let scored = self.score_batch(&batch);
            self.groups_scored += scored.len() as u64;
            // The top impact decile (≥ 1 group) is off limits to both
            // passes: `scored` is ascending, so the protected set is
            // exactly its tail and shedding only walks the prefix.
            let sheddable = scored.len() - scored.len().div_ceil(10);
            // Pass 1: ascending impact, honoring the per-location cap.
            let mut shed_records = 0usize;
            let mut by_loc: DetHashMap<CloudLocId, usize> = DetHashMap::default();
            let mut taken: DetHashSet<u64> = DetHashSet::default();
            for g in &scored[..sheddable] {
                if shed_records >= need {
                    break;
                }
                let used = by_loc.entry(g.loc).or_insert(0);
                if *used >= self.cfg.per_loc_shed_cap {
                    continue;
                }
                *used += g.records as usize;
                shed_records += g.records as usize;
                taken.insert(g.subkey);
                shed.push(g.clone());
            }
            // Pass 2: the watermark wins over fairness — if capped
            // locations left us short, keep shedding ascending (still
            // never past the protected decile).
            if shed_records < need {
                for g in &scored[..sheddable] {
                    if shed_records >= need {
                        break;
                    }
                    if taken.contains(&g.subkey) {
                        continue;
                    }
                    shed_records += g.records as usize;
                    taken.insert(g.subkey);
                    shed.push(g.clone());
                }
            }
            if !taken.is_empty() {
                batch.retain_runs(|subkey| !taken.contains(&subkey));
            }
        }
        self.update_streaks(&batch);
        AdmissionDecision::Admit { batch, shed }
    }

    /// Advances per-group streaks with the admitted groups of `batch`
    /// and folds completed streaks into the duration history.
    fn update_streaks(&mut self, batch: &RecordBatch) {
        let b = batch.bucket.0;
        for (subkey, _) in batch.key_runs() {
            match self.streaks.get_mut(&subkey) {
                Some((last, len)) if *last + 1 == b => {
                    *last = b;
                    *len += 1;
                }
                Some((last, _)) if *last == b => {}
                Some((last, len)) => {
                    // Streak broke: its length is a completed duration.
                    self.durations.record(path_proxy(subkey), *len);
                    *last = b;
                    *len = 1;
                }
                None => {
                    self.streaks.insert(subkey, (b, 1));
                }
            }
        }
    }
}

/// The duration-history key for a subkey: its bucket-invariant low 25
/// bits (`p24` block + mobile flag), which fit `PathId`'s `u32`. A
/// proxy — admission runs before routing enrichment, so the real path
/// is unknown — but stable per client group, which is all the residual
/// life estimator needs.
fn path_proxy(subkey: u64) -> PathId {
    PathId((subkey & 0x01FF_FFFF) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::pack_subkey;
    use blameit_simnet::TimeBucket;
    use blameit_topology::Prefix24;

    fn batch(bucket: u32, groups: &[(u16, u32, u32)]) -> RecordBatch {
        // groups: (loc, block, records)
        let mut keys = Vec::new();
        let mut rtt = Vec::new();
        for &(loc, block, n) in groups {
            let k = pack_subkey(CloudLocId(loc), Prefix24::from_block(block), false);
            for s in 0..n {
                keys.push(k);
                rtt.push(40.0 + s as f64);
            }
        }
        RecordBatch {
            bucket: TimeBucket(bucket),
            keys,
            rtt,
        }
    }

    fn cfg(cap: usize, shed: usize, per_loc: usize) -> AdmissionConfig {
        AdmissionConfig {
            queue_cap_records: cap,
            shed_watermark_records: shed,
            per_loc_shed_cap: per_loc,
            retry_after_secs: 7,
        }
    }

    #[test]
    fn under_watermark_admits_everything() {
        let mut c = AdmissionController::new(cfg(100, 50, 100));
        let d = c.offer(batch(0, &[(0, 1, 10), (1, 2, 10)]), 0);
        match d {
            AdmissionDecision::Admit { batch, shed } => {
                assert_eq!(batch.keys.len(), 20);
                assert!(shed.is_empty());
            }
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn over_cap_rejects_with_hint() {
        let mut c = AdmissionController::new(cfg(30, 20, 100));
        let d = c.offer(batch(0, &[(0, 1, 20)]), 15);
        match d {
            AdmissionDecision::Reject {
                retry_after_secs,
                records,
            } => {
                assert_eq!(retry_after_secs, 7);
                assert_eq!(records, 20);
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn sheds_lowest_impact_first() {
        let mut c = AdmissionController::new(cfg(1000, 25, 1000));
        // Group (0,1) has 20 records (high impact), (0,2) has 5, (1,3)
        // has 8. Watermark 25 with 33 offered → shed ≥ 8 records:
        // ascending impact sheds the 5-record group, then the 8-record
        // group, and leaves the 20-record group untouched.
        let d = c.offer(batch(0, &[(0, 1, 20), (0, 2, 5), (1, 3, 8)]), 0);
        match d {
            AdmissionDecision::Admit { batch, shed } => {
                assert_eq!(shed.len(), 2);
                assert_eq!(shed[0].records, 5, "lowest product first");
                assert_eq!(shed[1].records, 8);
                assert_eq!(batch.keys.len(), 20);
                assert!(shed[0].client_time_product <= shed[1].client_time_product);
            }
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn per_location_cap_spreads_shedding() {
        let mut c = AdmissionController::new(cfg(1000, 17, 6));
        // Location 0 offers three small groups, location 1 a mid and a
        // big one (the big one is the protected top). Need = 29 - 17 =
        // 12; the per-loc cap (6) stops loc 0 after two 3-record groups
        // and forces loc 1's mid group to contribute.
        let d = c.offer(
            batch(0, &[(0, 1, 3), (0, 2, 3), (0, 3, 3), (1, 4, 7), (1, 5, 13)]),
            0,
        );
        match d {
            AdmissionDecision::Admit { shed, .. } => {
                let loc0: u32 = shed
                    .iter()
                    .filter(|g| g.loc == CloudLocId(0))
                    .map(|g| g.records)
                    .sum();
                assert!(loc0 <= 6, "fairness cap respected, shed {loc0} from loc 0");
                assert!(
                    shed.iter().any(|g| g.loc == CloudLocId(1)),
                    "other locations contribute"
                );
            }
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn watermark_wins_over_fairness() {
        // Only one location exists, with a tiny per-loc cap: pass 2
        // must still shed down to the watermark.
        let mut c = AdmissionController::new(cfg(1000, 5, 1));
        let d = c.offer(batch(0, &[(0, 1, 4), (0, 2, 4), (0, 3, 4)]), 0);
        match d {
            AdmissionDecision::Admit { batch, shed } => {
                let shed_n: u32 = shed.iter().map(|g| g.records).sum();
                assert!(shed_n >= 7, "shed {shed_n}, need ≥ 7");
                assert!(batch.keys.len() <= 5);
            }
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn highest_impact_group_is_never_shed() {
        // Queue already parked at the watermark: need equals the whole
        // offer, but the top group must survive so the feed cursor
        // (and with it the data-driven tick) keeps advancing.
        let mut c = AdmissionController::new(cfg(10_000, 40, 10_000));
        let d = c.offer(batch(0, &[(0, 1, 9), (0, 2, 2), (1, 3, 5)]), 40);
        match d {
            AdmissionDecision::Admit { batch, shed } => {
                assert_eq!(batch.keys.len(), 9, "top group admitted whole");
                let shed_n: u32 = shed.iter().map(|g| g.records).sum();
                assert_eq!(shed_n, 7, "everything else shed");
            }
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn top_decile_survives_total_overload() {
        // Twenty groups with ascending record counts and a need larger
        // than the whole offer: shedding must stop at the top ⌈20/10⌉
        // = 2 groups, which survive intact.
        let mut c = AdmissionController::new(cfg(100_000, 10, 100_000));
        let groups: Vec<(u16, u32, u32)> = (0..20u32).map(|i| (0u16, i + 1, i + 1)).collect();
        let d = c.offer(batch(0, &groups), 10);
        match d {
            AdmissionDecision::Admit { batch, shed } => {
                assert_eq!(shed.len(), 18, "all sheddable groups shed");
                // The two biggest groups (19 + 20 records) remain.
                assert_eq!(batch.keys.len(), 39, "top decile admitted whole");
            }
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn streak_history_informs_scores() {
        let mut c = AdmissionController::new(cfg(10_000, 10_000, 10_000));
        // Feed group (0,1) for many consecutive buckets so its streak
        // grows; group (0,2) appears fresh. With identical record
        // counts, the longer-lived group scores at least as high once
        // the history has data.
        for b in 0..30 {
            c.offer(batch(b, &[(0, 1, 4)]), 0);
        }
        let scores = c.score_batch(&batch(30, &[(0, 1, 4), (0, 2, 4)]));
        assert_eq!(scores.len(), 2);
        let by_key: DetHashMap<u64, f64> = scores
            .iter()
            .map(|g| (g.subkey, g.client_time_product))
            .collect();
        let k1 = pack_subkey(CloudLocId(0), Prefix24::from_block(1), false);
        let k2 = pack_subkey(CloudLocId(0), Prefix24::from_block(2), false);
        assert!(by_key[&k1] >= by_key[&k2]);
    }

    #[test]
    fn decisions_are_deterministic_across_input_order() {
        // 40 records over a 34-record watermark: need = 6, met by the
        // 1-, 2- and 3-record groups — locations 4, 1 and 3, all in
        // the middle of the key-sorted offer.
        let make = || AdmissionController::new(cfg(1000, 34, 100));
        let groups = [
            (3, 4, 3),
            (0, 1, 9),
            (6, 7, 10),
            (1, 2, 2),
            (5, 6, 7),
            (2, 3, 8),
            (4, 5, 1),
        ];
        let mut rev = groups;
        rev.reverse();
        let d1 = make().offer(batch(5, &groups), 0);
        let d2 = make().offer(batch(5, &rev), 0);
        let (b1, s1) = match d1 {
            AdmissionDecision::Admit { batch, shed } => (batch, shed),
            other => panic!("{other:?}"),
        };
        let (b2, s2) = match d2 {
            AdmissionDecision::Admit { batch, shed } => (batch, shed),
            other => panic!("{other:?}"),
        };
        assert_eq!(b1, b2, "admitted batch independent of stream order");
        let k1: Vec<u64> = s1.iter().map(|g| g.subkey).collect();
        let k2: Vec<u64> = s2.iter().map(|g| g.subkey).collect();
        assert_eq!(k1, k2, "shed order independent of stream order");
        let shed_locs: Vec<u16> = s1.iter().map(|g| g.loc.0).collect();
        assert_eq!(shed_locs, [4, 1, 3], "three groups out of the middle");

        // The in-place run compaction admits what the per-record
        // filter-and-collect it replaced admitted.
        let mut sorted = batch(5, &groups);
        sorted.sort_by_key();
        let keep: Vec<usize> = (0..sorted.keys.len())
            .filter(|&i| !k1.contains(&sorted.keys[i]))
            .collect();
        let want = RecordBatch {
            bucket: sorted.bucket,
            keys: keep.iter().map(|&i| sorted.keys[i]).collect(),
            rtt: keep.iter().map(|&i| sorted.rtt[i]).collect(),
        };
        assert_eq!(b1, want);
    }

    #[test]
    fn scoring_is_paid_only_past_the_watermark() {
        let mut c = AdmissionController::new(cfg(1000, 20, 100));
        c.offer(batch(0, &[(0, 1, 5), (1, 2, 5), (2, 3, 5)]), 0);
        assert_eq!(c.groups_scored(), 0, "pass-through scores nothing");
        assert_eq!(c.streak_groups(), 3);
        // 15 queued + 10 offered > 20: both groups of this offer are
        // scored, whether or not they end up shed.
        c.offer(batch(1, &[(0, 1, 5), (3, 4, 5)]), 15);
        assert_eq!(c.groups_scored(), 2);
        assert_eq!(c.streak_groups(), 4);
    }
}
