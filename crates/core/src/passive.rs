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

use crate::fxhash::{DetHashMap, DetHashSet};
use crate::grouping::{MiddleGrouping, MiddleKey};
use crate::history::{ExpectedRttLearner, RttKey};
use crate::metrics::ShardMetrics;
use crate::provenance::PassiveEvidence;
use crate::quartet::EnrichedQuartet;
use crate::shard::run_chunked;
use blameit_simnet::QuartetObs;
use blameit_topology::{Asn, CloudLocId, PathId, Region};
use std::fmt;

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

/// Algorithm 1 parameters.
#[derive(Clone, Copy, Debug)]
pub struct BlameConfig {
    /// Bad-fraction threshold τ (paper: 0.8).
    pub tau: f64,
    /// Aggregates with at most this many quartets are "insufficient"
    /// (paper: 5).
    pub min_aggregate_quartets: usize,
    /// Middle-segment grouping strategy.
    pub grouping: MiddleGrouping,
    /// A quartet counts toward an aggregate's bad fraction when its
    /// mean exceeds `expected × expected_margin`. At Azure's aggregate
    /// sizes (hundreds of thousands of /24s per location) comparing
    /// strictly against the median is safe; at simulation scale the
    /// small margin keeps the ~50% of quartets that naturally sit just
    /// above their median from tripping τ through noise.
    pub expected_margin: f64,
}

impl Default for BlameConfig {
    fn default() -> Self {
        BlameConfig {
            tau: 0.8,
            min_aggregate_quartets: 5,
            grouping: MiddleGrouping::BgpPath,
            expected_margin: 1.1,
        }
    }
}

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
    /// (p24 block, mobile, loc) triples that saw good RTT this bucket.
    good_elsewhere: DetHashSet<(u32, bool, CloudLocId)>,
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
/// Columnar since the quartet-path rebuild: instead of two map upserts
/// and two learner lookups per quartet, the pass sorts a compact index
/// list per grouping and walks equal-key runs — one
/// [`ExpectedRttLearner::expected`] lookup per distinct (key, device)
/// run and one map insert per aggregate. The counts are integer sums,
/// so the run order cannot change any value, and the learner's lookup
/// cache ends the pass with exactly the same entries (same distinct
/// key set), keeping snapshots byte-identical with the legacy pass.
fn aggregate_pass(
    quartets: &[EnrichedQuartet],
    expected: &ExpectedRttLearner,
    cfg: &BlameConfig,
) -> PassiveAggregates {
    let mut stats = AggregateStats::default();

    // Cloud aggregates: runs of (loc, mobile), folded per loc.
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
                    usize::from(exp.is_some_and(|e| q.obs.mean_rtt_ms > e * cfg.expected_margin));
                i += 1;
            }
        }
        stats.cloud.insert(loc, (n, bad));
    }

    // Middle aggregates: runs of (middle key, mobile), folded per key.
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
                    usize::from(exp.is_some_and(|e| q.obs.mean_rtt_ms > e * cfg.expected_margin));
                i += 1;
            }
        }
        stats.middle.insert(key, (n, bad));
    }

    let good_elsewhere: DetHashSet<(u32, bool, CloudLocId)> = quartets
        .iter()
        .filter(|q| !q.bad)
        .map(|q| (q.obs.p24.block(), q.obs.mobile, q.obs.loc))
        .collect();
    PassiveAggregates {
        stats,
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
        let min_q = cfg.min_aggregate_quartets;
        let key = cfg.grouping.key(&q.info);
        let (cloud_n, cloud_bad) = self.stats.cloud[&q.obs.loc];
        let (mid_n, mid_bad) = self.stats.middle[&key];
        let good_elsewhere = self.has_good_to_other_loc(q);
        let blame = if cloud_n <= min_q {
            Blame::Insufficient
        } else if cloud_bad as f64 / cloud_n as f64 >= cfg.tau {
            Blame::Cloud
        } else if mid_n <= min_q {
            Blame::Insufficient
        } else if mid_bad as f64 / mid_n as f64 >= cfg.tau {
            Blame::Middle
        } else if good_elsewhere {
            Blame::Ambiguous
        } else {
            Blame::Client
        };
        Some(BlameResult {
            obs: q.obs,
            path: q.info.path,
            middle_key: key,
            origin: q.info.origin,
            region: q.info.region,
            blame,
            passive: PassiveEvidence {
                branch: blame,
                tau: cfg.tau,
                min_aggregate: min_q,
                cloud_n,
                cloud_bad,
                middle_n: mid_n,
                middle_bad: mid_bad,
                good_elsewhere,
            },
        })
    }

    fn has_good_to_other_loc(&self, q: &EnrichedQuartet) -> bool {
        self.good_elsewhere.iter().any(|(blk, mob, loc)| {
            *blk == q.obs.p24.block() && *mob == q.obs.mobile && *loc != q.obs.loc
        })
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
    let agg = aggregate_pass(quartets, expected, cfg);
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
    (verdicts.into_iter().flatten().collect(), agg.stats, scratch)
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
    use blameit_simnet::TimeBucket;
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
                middle: vec![Asn(1000 + path)],
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
        assert_eq!(ev.min_aggregate, cfg.min_aggregate_quartets);
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
}
