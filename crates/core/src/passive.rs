//! Algorithm 1: coarse-grained fault localization from passive data.
//!
//! For every bad quartet (mean RTT above the region/device badness
//! threshold), blame is assigned by hierarchical elimination, exactly
//! following the paper's Algorithm 1:
//!
//! 1. **Cloud** — if the cloud location has > 5 quartets this bucket
//!    and ≥ τ of them exceed the location's *learned* expected RTT
//!    (14-day median, §4.3). Starting from the cloud exploits
//!    Insight-2: simultaneous badness across hundreds of /24s is far
//!    more likely one cloud fault than many client faults.
//! 2. **Middle** — else, if the quartet's middle segment (BGP path by
//!    default) has > 5 quartets and ≥ τ of them exceed the segment's
//!    learned expected RTT.
//! 3. **Ambiguous** — else, if the same /24 saw *good* RTT to another
//!    cloud location in the same bucket (no conclusive blame).
//! 4. **Client** — otherwise.
//!
//! With too few quartets at step 1 or 2 the verdict is
//! **Insufficient**. Bad fractions are *unweighted* by sample counts:
//! a handful of chatty good /24s must not mask many quiet bad ones
//! (§4.2).

use crate::fxhash::{det_map_with_capacity, DetHashMap};
use crate::grouping::{MiddleGrouping, MiddleKey};
use crate::history::{ExpectedRttLearner, RttKey};
use crate::metrics::ShardMetrics;
use crate::provenance::PassiveEvidence;
use crate::quartet::EnrichedQuartet;
use crate::shard::{concat_chunks, run_chunked};
use blameit_simnet::QuartetObs;
use blameit_topology::{Asn, CloudLocId, PathId, Region};
use std::fmt;
use std::hash::Hash;

/// Coarse blame verdict for a bad quartet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Blame {
    /// The cloud's own network/servers.
    Cloud,
    /// The middle segment (localize further with the active phase).
    Middle,
    /// The client's ISP / last mile.
    Client,
    /// The /24 saw good RTT to another location at the same time.
    Ambiguous,
    /// Too few quartets in the relevant aggregate to decide.
    Insufficient,
}

impl Blame {
    /// All verdicts, in report order.
    pub const ALL: [Blame; 5] = [
        Blame::Cloud,
        Blame::Middle,
        Blame::Client,
        Blame::Ambiguous,
        Blame::Insufficient,
    ];
}

impl fmt::Display for Blame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Blame::Cloud => "cloud",
            Blame::Middle => "middle",
            Blame::Client => "client",
            Blame::Ambiguous => "ambiguous",
            Blame::Insufficient => "insufficient",
        })
    }
}

/// Algorithm 1 parameters: the two the paper's evaluation varies.
#[derive(Clone, Copy, Debug)]
pub struct BlameConfig {
    /// Bad-fraction threshold τ (paper: 0.8).
    pub tau: f64,
    /// Middle-segment grouping strategy.
    pub grouping: MiddleGrouping,
}

impl Default for BlameConfig {
    fn default() -> Self {
        BlameConfig {
            tau: 0.8,
            grouping: MiddleGrouping::BgpPath,
        }
    }
}

/// Aggregates with at most this many quartets are "insufficient"
/// (paper: 5).
const MIN_AGGREGATE_QUARTETS: usize = 5;

/// A quartet counts toward an aggregate's bad fraction when its mean
/// exceeds `expected × EXPECTED_MARGIN`. At Azure's aggregate sizes
/// (hundreds of thousands of /24s per location) comparing strictly
/// against the median is safe; at simulation scale the small margin
/// keeps the ~50% of quartets that naturally sit just above their
/// median from tripping τ through noise.
const EXPECTED_MARGIN: f64 = 1.1;

/// One bad quartet's verdict, with the keys needed downstream.
#[derive(Clone, Debug, PartialEq)]
pub struct BlameResult {
    /// The quartet observation.
    pub obs: QuartetObs,
    /// Its middle path.
    pub path: PathId,
    /// Its middle-segment group key under the configured grouping.
    pub middle_key: MiddleKey,
    /// Client AS.
    pub origin: Asn,
    /// Client region.
    pub region: Region,
    /// The verdict.
    pub blame: Blame,
    /// Why: the Algorithm-1 evidence the verdict rests on.
    pub passive: PassiveEvidence,
}

/// Per-aggregate statistics computed during blame assignment, exposed
/// for reporting and confidence calculations (§6.3 case 5 reports the
/// "proportion of quartets blamed in each category").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AggregateStats {
    /// Quartet count and above-expected count per cloud location.
    pub cloud: DetHashMap<CloudLocId, (usize, usize)>,
    /// Quartet count and above-expected count per middle key.
    pub middle: DetHashMap<MiddleKey, (usize, usize)>,
}

impl AggregateStats {
    /// Bad fraction for a location (0 with no quartets).
    pub fn cloud_bad_fraction(&self, loc: CloudLocId) -> f64 {
        match self.cloud.get(&loc) {
            Some((n, bad)) if *n > 0 => *bad as f64 / *n as f64,
            _ => 0.0,
        }
    }

    /// Bad fraction for a middle key (0 with no quartets).
    pub fn middle_bad_fraction(&self, key: MiddleKey) -> f64 {
        match self.middle.get(&key) {
            Some((n, bad)) if *n > 0 => *bad as f64 / *n as f64,
            _ => 0.0,
        }
    }
}

/// The read-only product of the sequential aggregate pass: everything a
/// per-quartet verdict needs. Immutable once built, so chunk workers
/// can evaluate [`PassiveAggregates::verdict`] concurrently.
struct PassiveAggregates {
    /// Per-location / per-middle-key counts for reporting.
    stats: AggregateStats,
    /// Per (p24 block, mobile): the first cloud location that saw good
    /// RTT from it this bucket, and whether a second, distinct one did.
    good_elsewhere: DetHashMap<(u32, bool), (CloudLocId, bool)>,
}

/// One bucket's (aggregate key, device class) groups: per group the
/// comparison value — learned expectation × margin, resolved once, when
/// the group is first seen — and its `(quartets, quartets above it)`.
struct Groups<K>(DetHashMap<(K, bool), (Option<f64>, usize, usize)>);

impl<K: Copy + Eq + Hash> Groups<K> {
    fn count(&mut self, key: K, obs: &QuartetObs, above: impl FnOnce() -> Option<f64>) {
        let (above, n, bad) = self
            .0
            .entry((key, obs.mobile))
            .or_insert_with(|| (above(), 0, 0));
        *n += 1;
        *bad += usize::from(above.is_some_and(|a| obs.mean_rtt_ms > a));
    }

    /// Per-key `(quartets, above expected)` over both device classes.
    fn fold(self) -> DetHashMap<K, (usize, usize)> {
        let mut out: DetHashMap<K, (usize, usize)> = DetHashMap::default();
        // Integer sums per key: every visit order yields the same map.
        for ((key, _), (_, n, bad)) in self.0 {
            let sums = out.entry(key).or_default();
            *sums = (sums.0 + n, sums.1 + bad);
        }
        out
    }
}

/// The sequential aggregate pass over one bucket's enriched quartets:
/// counts quartets and above-expected quartets per cloud location and
/// per middle key, and records which (/24, mobile) pairs saw good RTT
/// somewhere. A quartet with no learned expectation yet counts toward
/// the total but not the bad count (conservative: unlearned keys can't
/// produce cloud/middle blame).
///
/// This stays on one thread because it reads the [`ExpectedRttLearner`]
/// (whose lookup cache is not thread-safe); the per-quartet verdicts it
/// enables are pure against the result, so any partition of the
/// quartets yields the same verdicts.
///
/// One pass, no sort: a quartet upserts its (location, device) and
/// (middle key, device) group, and [`ExpectedRttLearner::expected`] is
/// looked up when a group is created — once per distinct (key, device),
/// so the learner's lookup cache ends the pass with exactly those
/// entries (snapshots sort the cache; lookup order is not on disk). The
/// counts are integer sums: no quartet or group order changes a value.
fn aggregate_pass(
    quartets: &[EnrichedQuartet],
    expected: &ExpectedRttLearner,
    cfg: &BlameConfig,
) -> PassiveAggregates {
    let above = |key| expected.expected(key).map(|e| e * EXPECTED_MARGIN);
    let mut cloud = Groups(DetHashMap::default());
    let mut middle = Groups(DetHashMap::default());
    // Most quartets are good and few /24s reach two locations: size for them all.
    let mut good_elsewhere: DetHashMap<(u32, bool), (CloudLocId, bool)> =
        det_map_with_capacity(quartets.len());
    for q in quartets {
        let (loc, mobile) = (q.obs.loc, q.obs.mobile);
        cloud.count(loc, &q.obs, || above(RttKey::Cloud(loc, mobile)));
        let key = cfg.grouping.key(&q.info);
        middle.count(key, &q.obs, || above(RttKey::Middle(key, mobile)));
        if !q.bad {
            let (first, many) = good_elsewhere
                .entry((q.obs.p24.block(), mobile))
                .or_insert((loc, false));
            *many |= *first != loc;
        }
    }
    PassiveAggregates {
        stats: AggregateStats {
            cloud: cloud.fold(),
            middle: middle.fold(),
        },
        good_elsewhere,
    }
}

impl PassiveAggregates {
    /// Algorithm 1's hierarchical elimination for one quartet: `None`
    /// for good quartets, otherwise the verdict. Pure — depends only on
    /// the quartet and the precomputed aggregates.
    fn verdict(&self, q: &EnrichedQuartet, cfg: &BlameConfig) -> Option<BlameResult> {
        if !q.bad {
            return None;
        }
        let key = cfg.grouping.key(&q.info);
        Some(eliminate(
            q,
            key,
            cfg,
            self.stats.cloud[&q.obs.loc],
            self.stats.middle[&key],
            self.has_good_to_other_loc(q),
        ))
    }

    /// Did the quartet's (/24, device) see good RTT at a location other
    /// than its own this bucket? One map probe, whatever the number of
    /// good quartets in the bucket: the entry holds the first good
    /// location and whether a second distinct one exists, which is all
    /// "some good location ≠ mine" needs.
    fn has_good_to_other_loc(&self, q: &EnrichedQuartet) -> bool {
        self.good_elsewhere
            .get(&(q.obs.p24.block(), q.obs.mobile))
            .is_some_and(|&(first, many)| many || first != q.obs.loc)
    }
}

/// The elimination ladder for one bad quartet, given its location's and
/// its middle key's (quartets, above-expected) counts and whether its
/// /24 was good elsewhere.
fn eliminate(
    q: &EnrichedQuartet,
    key: MiddleKey,
    cfg: &BlameConfig,
    (cloud_n, cloud_bad): (usize, usize),
    (mid_n, mid_bad): (usize, usize),
    good_elsewhere: bool,
) -> BlameResult {
    let blame = if cloud_n <= MIN_AGGREGATE_QUARTETS {
        Blame::Insufficient
    } else if cloud_bad as f64 / cloud_n as f64 >= cfg.tau {
        Blame::Cloud
    } else if mid_n <= MIN_AGGREGATE_QUARTETS {
        Blame::Insufficient
    } else if mid_bad as f64 / mid_n as f64 >= cfg.tau {
        Blame::Middle
    } else if good_elsewhere {
        Blame::Ambiguous
    } else {
        Blame::Client
    };
    BlameResult {
        obs: q.obs,
        path: q.info.path,
        middle_key: key,
        origin: q.info.origin,
        region: q.info.region,
        blame,
        passive: PassiveEvidence {
            branch: blame,
            tau: cfg.tau,
            min_aggregate: MIN_AGGREGATE_QUARTETS,
            cloud_n,
            cloud_bad,
            middle_n: mid_n,
            middle_bad: mid_bad,
            good_elsewhere,
        },
    }
}

/// Algorithm 1 over one bucket's enriched quartets — the one driver the
/// engine tick and [`assign_blames`] both run. The aggregate pass runs
/// on the calling thread; the per-quartet verdicts fan out over
/// `parallelism` contiguous chunks ([`run_chunked`]). Returns a verdict
/// for every **bad** quartet in input order, the aggregate statistics,
/// and one metric scratch per chunk for the caller to absorb (histogram
/// merges are order-independent, so rendered metrics do not depend on
/// the thread count).
///
/// `expected` must have been fed prior history (the learner is *not*
/// updated here; the pipeline owns that, and updates it only after
/// blame assignment so the current bucket never sees its own data).
pub fn blame_bucket(
    quartets: &[EnrichedQuartet],
    expected: &ExpectedRttLearner,
    cfg: &BlameConfig,
    parallelism: usize,
) -> (Vec<BlameResult>, AggregateStats, Vec<ShardMetrics>) {
    let agg = {
        let _s = blameit_obs::span!("blameit::passive", "aggregate_pass");
        aggregate_pass(quartets, expected, cfg)
    };
    let _s = blameit_obs::span!("blameit::passive", "verdicts");
    let (verdicts, scratch): (Vec<_>, Vec<_>) = run_chunked(parallelism, quartets, |chunk| {
        let mut scratch = ShardMetrics::new();
        let mut verdicts = Vec::new();
        for q in chunk {
            scratch.observe_quartet(q.obs.mean_rtt_ms);
            if let Some(r) = agg.verdict(q, cfg) {
                scratch.record_blame(r.blame);
                verdicts.push(r);
            }
        }
        (verdicts, scratch)
    })
    .into_iter()
    .unzip();
    (concat_chunks(verdicts), agg.stats, scratch)
}

/// [`blame_bucket`] on the calling thread, without the metric scratch.
pub fn assign_blames(
    quartets: &[EnrichedQuartet],
    expected: &ExpectedRttLearner,
    cfg: &BlameConfig,
) -> (Vec<BlameResult>, AggregateStats) {
    let mut span = blameit_obs::span!(
        "blameit::passive",
        "assign_blames",
        quartets = quartets.len()
    );
    let (out, stats, _) = blame_bucket(quartets, expected, cfg, 1);
    span.record("verdicts", out.len());
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RouteInfo;
    use crate::fxhash::DetHashSet;
    use blameit_simnet::TimeBucket;
    use blameit_topology::rng::DetRng;
    use blameit_topology::{IpPrefix, MetroId, Prefix24};

    /// Builds an enriched quartet by hand.
    fn q(loc: u16, block: u32, path: u32, origin: u32, mean: f64, bad: bool) -> EnrichedQuartet {
        EnrichedQuartet {
            obs: QuartetObs {
                loc: CloudLocId(loc),
                p24: Prefix24::from_block(block),
                mobile: false,
                bucket: TimeBucket(0),
                n: 30,
                mean_rtt_ms: mean,
            },
            info: RouteInfo {
                path: PathId(path),
                origin: Asn(origin),
                metro: MetroId(0),
                region: Region::Europe,
                prefix: IpPrefix::new(block << 8, 20),
            },
            bad,
        }
    }

    /// Learner with expected 40 ms for every key that appears.
    fn learner_with_40(quartets: &[EnrichedQuartet], cfg: &BlameConfig) -> ExpectedRttLearner {
        let mut l = ExpectedRttLearner::new(1);
        for qq in quartets {
            l.observe(RttKey::Cloud(qq.obs.loc, qq.obs.mobile), 0, 40.0);
            l.observe(
                RttKey::Middle(cfg.grouping.key(&qq.info), qq.obs.mobile),
                0,
                40.0,
            );
        }
        l
    }

    #[test]
    fn cloud_blame_when_whole_location_shifts() {
        let cfg = BlameConfig::default();
        // 10 quartets to loc 0, all above the 40 ms expectation; one is
        // formally "bad" (above its threshold).
        let mut quartets: Vec<EnrichedQuartet> =
            (0..9).map(|i| q(0, i, i, 100 + i, 55.0, false)).collect();
        quartets.push(q(0, 9, 9, 109, 80.0, true));
        let l = learner_with_40(&quartets, &cfg);
        let (res, stats) = assign_blames(&quartets, &l, &cfg);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].blame, Blame::Cloud);
        assert!((stats.cloud_bad_fraction(CloudLocId(0)) - 1.0).abs() < 1e-9);
        // The verdict carries its own evidence: branch, counts, τ.
        let ev = &res[0].passive;
        assert_eq!(ev.branch, Blame::Cloud);
        assert_eq!((ev.cloud_n, ev.cloud_bad), (10, 10));
        assert!((ev.tau - cfg.tau).abs() < 1e-12);
        assert_eq!(ev.min_aggregate, MIN_AGGREGATE_QUARTETS);
        assert!(!ev.good_elsewhere);
    }

    #[test]
    fn middle_blame_when_only_path_shifts() {
        let cfg = BlameConfig::default();
        let mut quartets = Vec::new();
        // Path 1: 8 quartets, all elevated; two formally bad.
        for i in 0..8 {
            quartets.push(q(0, i, 1, 100, 70.0, i < 2));
        }
        // Other paths to the same loc: healthy (so cloud fraction low).
        for i in 8..40 {
            quartets.push(q(0, i, 2 + i, 200 + i, 30.0, false));
        }
        let l = learner_with_40(&quartets, &cfg);
        let (res, _) = assign_blames(&quartets, &l, &cfg);
        assert_eq!(res.len(), 2);
        for r in &res {
            assert_eq!(r.blame, Blame::Middle, "{:?}", r);
            assert_eq!(r.path, PathId(1));
        }
    }

    #[test]
    fn client_blame_when_isolated() {
        let cfg = BlameConfig::default();
        let mut quartets = Vec::new();
        // One bad quartet on a path shared with healthy peers.
        quartets.push(q(0, 0, 1, 100, 90.0, true));
        for i in 1..10 {
            quartets.push(q(0, i, 1, 100 + i, 30.0, false));
        }
        for i in 10..40 {
            quartets.push(q(0, i, 2, 200, 30.0, false));
        }
        let l = learner_with_40(&quartets, &cfg);
        let (res, _) = assign_blames(&quartets, &l, &cfg);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].blame, Blame::Client);
    }

    #[test]
    fn ambiguous_when_good_elsewhere() {
        let cfg = BlameConfig::default();
        let mut quartets = Vec::new();
        // Bad to loc 0 …
        quartets.push(q(0, 0, 1, 100, 90.0, true));
        // … but the same /24 is good to loc 1 at the same time.
        quartets.push(q(1, 0, 5, 100, 20.0, false));
        for i in 1..10 {
            quartets.push(q(0, i, 1, 100 + i, 30.0, false));
        }
        for i in 10..30 {
            quartets.push(q(1, i, 5, 300, 20.0, false));
        }
        let l = learner_with_40(&quartets, &cfg);
        let (res, _) = assign_blames(&quartets, &l, &cfg);
        let mine = res
            .iter()
            .find(|r| r.obs.loc == CloudLocId(0) && r.obs.p24 == Prefix24::from_block(0))
            .unwrap();
        assert_eq!(mine.blame, Blame::Ambiguous);
        assert!(mine.passive.good_elsewhere);
    }

    #[test]
    fn insufficient_when_aggregate_too_small() {
        let cfg = BlameConfig::default();
        // Only 3 quartets at the location: below the >5 requirement.
        let quartets = vec![
            q(0, 0, 1, 100, 90.0, true),
            q(0, 1, 1, 101, 30.0, false),
            q(0, 2, 1, 102, 30.0, false),
        ];
        let l = learner_with_40(&quartets, &cfg);
        let (res, _) = assign_blames(&quartets, &l, &cfg);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].blame, Blame::Insufficient);
    }

    #[test]
    fn insufficient_when_path_aggregate_small() {
        let cfg = BlameConfig::default();
        let mut quartets = Vec::new();
        // Location has plenty of healthy quartets on other paths.
        for i in 0..20 {
            quartets.push(q(0, i, 2, 200, 30.0, false));
        }
        // The bad quartet's own path has only 2 quartets.
        quartets.push(q(0, 100, 1, 100, 90.0, true));
        quartets.push(q(0, 101, 1, 100, 30.0, false));
        let l = learner_with_40(&quartets, &cfg);
        let (res, _) = assign_blames(&quartets, &l, &cfg);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].blame, Blame::Insufficient);
    }

    #[test]
    fn paper_4_3_example_expected_rtt_disambiguates() {
        // §4.3: threshold 50 ms; historical RTTs uniform [35, 45] →
        // expected ≈ 40 ms. After a cloud fault RTTs become uniform
        // [40, 70]: only 1/3 exceed the 50 ms *threshold*, but all
        // exceed the 40 ms *expected* value → blame lands on cloud.
        let cfg = BlameConfig::default();
        let mut l = ExpectedRttLearner::new(7);
        let n = 30;
        for i in 0..n {
            let rtt = 35.0 + 10.0 * (i as f64 / (n - 1) as f64);
            l.observe(RttKey::Cloud(CloudLocId(0), false), 0, rtt);
        }
        // Post-fault quartets: uniform [40, 70]; bad = above 50 ms.
        let mut quartets = Vec::new();
        for i in 0..n {
            let rtt = 40.0 + 30.0 * (i as f64 / (n - 1) as f64);
            let bad = rtt > 50.0;
            quartets.push(q(0, i as u32, i as u32, 100 + i as u32, rtt, bad));
            l.observe(
                RttKey::Middle(cfg.grouping.key(&quartets[i].info), false),
                0,
                39.0,
            );
        }
        let (res, stats) = assign_blames(&quartets, &l, &cfg);
        assert!(!res.is_empty());
        assert!(
            stats.cloud_bad_fraction(CloudLocId(0)) >= cfg.tau,
            "all post-fault RTTs exceed the learned 40 ms"
        );
        for r in &res {
            assert_eq!(r.blame, Blame::Cloud);
        }
        // Counter-check: using the raw 50 ms threshold as the
        // comparison value (the naive design) would NOT cross τ.
        let above_threshold = quartets
            .iter()
            .filter(|qq| qq.obs.mean_rtt_ms > 50.0)
            .count() as f64
            / n as f64;
        assert!(above_threshold < cfg.tau);
    }

    #[test]
    fn good_quartets_get_no_verdict() {
        let cfg = BlameConfig::default();
        let quartets: Vec<_> = (0..10).map(|i| q(0, i, 1, 100, 30.0, false)).collect();
        let l = learner_with_40(&quartets, &cfg);
        let (res, _) = assign_blames(&quartets, &l, &cfg);
        assert!(res.is_empty());
    }

    #[test]
    fn unlearned_keys_cannot_blame_cloud_or_middle() {
        let cfg = BlameConfig::default();
        let quartets: Vec<_> = (0..10).map(|i| q(0, i, 1, 100, 90.0, true)).collect();
        let l = ExpectedRttLearner::new(1); // empty
        let (res, _) = assign_blames(&quartets, &l, &cfg);
        // With no expectations, the bad fractions stay 0 → falls to
        // client (no good-elsewhere evidence).
        for r in &res {
            assert_eq!(r.blame, Blame::Client);
        }
    }

    #[test]
    fn cloud_checked_before_middle() {
        // When both the location AND the path are fully shifted, blame
        // must land on the cloud (hierarchical elimination order) —
        // this is what kept the Australia overload (§6.3 case 3) from
        // being misblamed on the shared BGP paths.
        let cfg = BlameConfig::default();
        let quartets: Vec<_> = (0..10).map(|i| q(0, i, 1, 100, 90.0, true)).collect();
        let l = learner_with_40(&quartets, &cfg);
        let (res, _) = assign_blames(&quartets, &l, &cfg);
        for r in &res {
            assert_eq!(r.blame, Blame::Cloud);
        }
    }

    #[test]
    fn tau_boundary_is_inclusive() {
        let cfg = BlameConfig::default();
        // Exactly 8 of 10 above expected → fraction 0.8 ≥ τ → cloud.
        let mut quartets = Vec::new();
        for i in 0..8 {
            quartets.push(q(0, i, i, 100, 55.0, i == 0));
        }
        quartets.push(q(0, 8, 8, 108, 30.0, false));
        quartets.push(q(0, 9, 9, 109, 30.0, false));
        let l = learner_with_40(&quartets, &cfg);
        let (res, stats) = assign_blames(&quartets, &l, &cfg);
        assert!((stats.cloud_bad_fraction(CloudLocId(0)) - 0.8).abs() < 1e-9);
        assert_eq!(res[0].blame, Blame::Cloud);
    }

    /// The aggregate pass this file shipped before the one-pass group
    /// upsert, kept verbatim as the differential reference: sort an
    /// index list per grouping, walk equal-key runs with one learner
    /// lookup per (key, device) run, and collect every good
    /// (/24, device, location) triple into a set.
    fn aggregate_pass_reference(
        quartets: &[EnrichedQuartet],
        expected: &ExpectedRttLearner,
        cfg: &BlameConfig,
    ) -> (AggregateStats, DetHashSet<(u32, bool, CloudLocId)>) {
        let mut stats = AggregateStats::default();

        let mut idx: Vec<u32> = (0..quartets.len() as u32).collect();
        idx.sort_unstable_by_key(|&i| {
            let q = &quartets[i as usize];
            (q.obs.loc, q.obs.mobile)
        });
        let mut i = 0;
        while i < idx.len() {
            let loc = quartets[idx[i] as usize].obs.loc;
            let (mut n, mut bad) = (0usize, 0usize);
            while i < idx.len() {
                let q = &quartets[idx[i] as usize];
                if q.obs.loc != loc {
                    break;
                }
                let mobile = q.obs.mobile;
                let exp = expected.expected(RttKey::Cloud(loc, mobile));
                while i < idx.len() {
                    let q = &quartets[idx[i] as usize];
                    if q.obs.loc != loc || q.obs.mobile != mobile {
                        break;
                    }
                    n += 1;
                    bad +=
                        usize::from(exp.is_some_and(|e| q.obs.mean_rtt_ms > e * EXPECTED_MARGIN));
                    i += 1;
                }
            }
            stats.cloud.insert(loc, (n, bad));
        }

        idx.sort_unstable_by_key(|&i| {
            let q = &quartets[i as usize];
            (cfg.grouping.key(&q.info), q.obs.mobile)
        });
        let mut i = 0;
        while i < idx.len() {
            let key = cfg.grouping.key(&quartets[idx[i] as usize].info);
            let (mut n, mut bad) = (0usize, 0usize);
            while i < idx.len() {
                let q = &quartets[idx[i] as usize];
                if cfg.grouping.key(&q.info) != key {
                    break;
                }
                let mobile = q.obs.mobile;
                let exp = expected.expected(RttKey::Middle(key, mobile));
                while i < idx.len() {
                    let q = &quartets[idx[i] as usize];
                    if cfg.grouping.key(&q.info) != key || q.obs.mobile != mobile {
                        break;
                    }
                    n += 1;
                    bad +=
                        usize::from(exp.is_some_and(|e| q.obs.mean_rtt_ms > e * EXPECTED_MARGIN));
                    i += 1;
                }
            }
            stats.middle.insert(key, (n, bad));
        }

        let good_elsewhere = quartets
            .iter()
            .filter(|q| !q.bad)
            .map(|q| (q.obs.p24.block(), q.obs.mobile, q.obs.loc))
            .collect();
        (stats, good_elsewhere)
    }

    /// [`blame_bucket`] over the reference aggregates, with the old
    /// good-elsewhere check: a scan of the whole good set per bad
    /// quartet.
    fn blame_bucket_reference(
        quartets: &[EnrichedQuartet],
        expected: &ExpectedRttLearner,
        cfg: &BlameConfig,
    ) -> (Vec<BlameResult>, AggregateStats) {
        let (stats, good) = aggregate_pass_reference(quartets, expected, cfg);
        let verdicts = quartets
            .iter()
            .filter(|q| q.bad)
            .map(|q| {
                let key = cfg.grouping.key(&q.info);
                let good_elsewhere = good.iter().any(|(blk, mob, loc)| {
                    *blk == q.obs.p24.block() && *mob == q.obs.mobile && *loc != q.obs.loc
                });
                let (cloud, middle) = (stats.cloud[&q.obs.loc], stats.middle[&key]);
                eliminate(q, key, cfg, cloud, middle, good_elsewhere)
            })
            .collect();
        (verdicts, stats)
    }

    /// A seeded bucket over 4 locations, both device classes and a few
    /// paths/origins/metros, with duplicate quartet keys allowed, plus
    /// one bad quartet at location 0 per good-elsewhere case (blocks
    /// 1000–1005), all shuffled so the cases meet both arrival orders.
    fn random_bucket(rng: &mut DetRng) -> Vec<EnrichedQuartet> {
        let mut quartets: Vec<EnrichedQuartet> = (0..rng.range_u64(0, 400))
            .map(|_| {
                let block = rng.below(60) as u32;
                let mut e = q(
                    rng.below(4) as u16,
                    block,
                    rng.below(8) as u32,
                    100 + block % 7,
                    rng.range_f64(20.0, 90.0),
                    rng.chance(0.3),
                );
                e.obs.mobile = rng.chance(0.4);
                e.info.metro = MetroId((block % 3) as u16);
                e
            })
            .collect();
        let mobile = |mut e: EnrichedQuartet| {
            e.obs.mobile = true;
            e
        };
        quartets.extend([
            // Good at its own location only.
            q(0, 1000, 1, 100, 90.0, true),
            q(0, 1000, 1, 100, 30.0, false),
            // Good at its own location and at one other.
            q(0, 1001, 1, 100, 30.0, false),
            q(1, 1001, 2, 100, 30.0, false),
            q(0, 1001, 1, 100, 90.0, true),
            // Good at one other location and at its own, from another path.
            q(0, 1002, 1, 100, 90.0, true),
            q(2, 1002, 3, 100, 30.0, false),
            q(0, 1002, 1, 100, 30.0, false),
            // Good at two others, never at its own.
            q(1, 1003, 2, 100, 30.0, false),
            q(0, 1003, 1, 100, 90.0, true),
            q(3, 1003, 4, 100, 30.0, false),
            // Good elsewhere, but only for the other device class.
            q(0, 1004, 1, 100, 90.0, true),
            mobile(q(1, 1004, 2, 100, 30.0, false)),
            // Bad everywhere it appears.
            q(0, 1005, 1, 100, 90.0, true),
            q(1, 1005, 2, 100, 90.0, true),
        ]);
        rng.shuffle(&mut quartets);
        quartets
    }

    #[test]
    fn one_pass_aggregates_match_the_sort_and_scan_reference() {
        let groupings = [
            MiddleGrouping::BgpPath,
            MiddleGrouping::BgpAtom,
            MiddleGrouping::BgpPrefix,
            MiddleGrouping::AsMetro,
        ];
        for seed in 0..12u64 {
            let mut rng = DetRng::from_keys(seed, &[0xA661]);
            let cfg = BlameConfig {
                grouping: groupings[seed as usize % 4],
                ..BlameConfig::default()
            };
            let quartets = random_bucket(&mut rng);
            // Most keys learned (some just above, some just below the
            // bucket's RTTs), a few left without an expectation.
            let mut learner = ExpectedRttLearner::new(seed);
            for qq in &quartets {
                let keys = [
                    RttKey::Cloud(qq.obs.loc, qq.obs.mobile),
                    RttKey::Middle(cfg.grouping.key(&qq.info), qq.obs.mobile),
                ];
                for key in keys {
                    if rng.chance(0.8) {
                        learner.observe(key, 0, rng.range_f64(15.0, 60.0));
                    }
                }
            }

            let reference = learner.clone();
            let (want, want_stats) = blame_bucket_reference(&quartets, &reference, &cfg);
            for par in [1, 4] {
                let l = learner.clone();
                let (got, got_stats, scratch) = blame_bucket(&quartets, &l, &cfg, par);
                assert_eq!(got, want, "seed {seed} par {par}");
                assert_eq!(got_stats, want_stats, "seed {seed} par {par}");
                assert_eq!(
                    *l.cache.borrow(),
                    *reference.cache.borrow(),
                    "seed {seed} par {par}: median cache entries"
                );
                assert!(scratch.len() <= par);
            }

            let elsewhere = |block: u32| {
                want.iter()
                    .find(|r| r.obs.p24.block() == block && r.obs.loc == CloudLocId(0))
                    .expect("the case's bad quartet gets a verdict")
                    .passive
                    .good_elsewhere
            };
            let cases = [1000, 1001, 1002, 1003, 1004, 1005].map(elsewhere);
            assert_eq!(
                cases,
                [false, true, true, true, false, false],
                "seed {seed}"
            );
        }
    }
}
