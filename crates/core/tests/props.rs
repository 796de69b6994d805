//! Property-based tests for BlameIt's core data structures, driven by
//! the in-repo seeded harness in `blameit_topology::testkit`.

use blameit::{
    assign_blames, blame_bucket, BlameConfig, ClientCountHistory, DurationHistory,
    ExpectedRttLearner, IncidentTracker, RttKey,
};
use blameit_simnet::TimeBucket;
use blameit_topology::testkit::check;
use blameit_topology::{CloudLocId, PathId};

/// Statistics helpers: quantiles are monotone in q and bounded by the
/// sample extremes; the ECDF is a valid CDF.
#[test]
fn quantiles_monotone_bounded() {
    check("quantiles_monotone_bounded", 128, |rng| {
        let n = rng.range_u64(1, 199) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = blameit::stats::quantile(&xs, q).unwrap();
            assert!(v >= prev - 1e-9);
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prev = v;
        }
        let cdf = blameit::stats::ecdf(&xs);
        let mut last = 0.0;
        for (x, f) in &cdf {
            assert!(*f > last && *f <= 1.0 + 1e-12);
            assert!(*x >= lo && *x <= hi);
            last = *f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    });
}

/// The expected-RTT learner's output is always within the observed
/// value range and tracks the true median for in-window data.
#[test]
fn learner_bounded_by_observations() {
    check("learner_bounded_by_observations", 128, |rng| {
        let n = rng.range_u64(1, 299) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.range_f64(1.0, 500.0)).collect();
        let mut l = ExpectedRttLearner::new(7);
        let key = RttKey::Cloud(CloudLocId(0), false);
        for v in &values {
            l.observe(key, 0, *v);
        }
        let e = l.expected(key).unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(e >= lo - 1e-9 && e <= hi + 1e-9);
    });
}

/// Mean residual life is within the residual range of the surviving
/// durations.
#[test]
fn residual_life_bounded() {
    check("residual_life_bounded", 128, |rng| {
        let n = rng.range_u64(10, 99) as usize;
        let durations: Vec<u32> = (0..n).map(|_| rng.range_u64(1, 199) as u32).collect();
        let elapsed = rng.below(100) as u32;
        let mut h = DurationHistory::new();
        for d in &durations {
            h.record(PathId(1), *d);
        }
        let survivors: Vec<u32> = durations.iter().copied().filter(|d| *d > elapsed).collect();
        let e = h.expected_remaining(PathId(1), elapsed);
        if survivors.is_empty() {
            assert_eq!(e, 1.0);
        } else {
            let min_r = survivors.iter().map(|d| d - elapsed).min().unwrap() as f64;
            let max_r = survivors.iter().map(|d| d - elapsed).max().unwrap() as f64;
            assert!(e >= min_r - 1e-9 && e <= max_r + 1e-9);
        }
    });
}

/// Incident tracking conserves buckets: the total badness fed in equals
/// the sum of closed-incident durations.
#[test]
fn incident_durations_conserve_badness() {
    check("incident_durations_conserve_badness", 128, |rng| {
        let n = rng.range_u64(1, 119) as usize;
        let pattern: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        // Each byte's low 3 bits say which of 3 keys are bad that bucket.
        let mut tracker: IncidentTracker<u8> = IncidentTracker::new();
        let mut fed = [0u32; 3];
        let mut closed_total = [0u32; 3];
        for (i, byte) in pattern.iter().enumerate() {
            let mut keys = Vec::new();
            for k in 0..3u8 {
                if byte & (1 << k) != 0 {
                    keys.push(k);
                    fed[k as usize] += 1;
                }
            }
            for inc in tracker.observe(TimeBucket(i as u32), keys) {
                closed_total[inc.key as usize] += inc.buckets;
            }
        }
        for inc in tracker.finish() {
            closed_total[inc.key as usize] += inc.buckets;
        }
        assert_eq!(fed, closed_total);
    });
}

/// Client-count prediction is always within the min/max of the recorded
/// same-slot history.
#[test]
fn client_prediction_bounded() {
    check("client_prediction_bounded", 128, |rng| {
        let n = rng.range_u64(1, 2) as usize;
        let counts: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        let mut h = ClientCountHistory::new();
        let slot = 77u32;
        for (day, c) in counts.iter().enumerate() {
            let b = TimeBucket(day as u32 * blameit_simnet::BUCKETS_PER_DAY + slot);
            h.record(PathId(3), b, *c);
        }
        let target = TimeBucket(counts.len() as u32 * blameit_simnet::BUCKETS_PER_DAY + slot);
        let p = h.predict(PathId(3), target).unwrap();
        let lo = *counts.iter().min().unwrap() as f64;
        let hi = *counts.iter().max().unwrap() as f64;
        assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    });
}

/// Median and quantiles are order statistics: exactly invariant under
/// any permutation of the sample; the mean to float tolerance.
#[test]
fn stats_permutation_invariant() {
    check("stats_permutation_invariant", 128, |rng| {
        let n = rng.range_u64(1, 199) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let mut shuffled = xs.clone();
        rng.shuffle(&mut shuffled);
        assert_eq!(
            blameit::stats::median(&xs),
            blameit::stats::median(&shuffled)
        );
        for i in 0..=4 {
            let q = f64::from(i) / 4.0;
            assert_eq!(
                blameit::stats::quantile(&xs, q),
                blameit::stats::quantile(&shuffled, q),
                "q={q}"
            );
        }
        let (a, b) = (
            blameit::stats::mean(&xs).unwrap(),
            blameit::stats::mean(&shuffled).unwrap(),
        );
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
    });
}

/// Appending a new sample at (or above) the current maximum can never
/// lower any quantile — growing evidence of slowness must not make a
/// distribution look faster.
#[test]
fn quantiles_monotone_under_max_appends() {
    check("quantiles_monotone_under_max_appends", 128, |rng| {
        let n = rng.range_u64(1, 99) as usize;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1e3)).collect();
        let before: Vec<f64> = (0..=10)
            .map(|i| blameit::stats::quantile(&xs, f64::from(i) / 10.0).unwrap())
            .collect();
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let extra = rng.range_u64(1, 20);
        for _ in 0..extra {
            xs.push(max + rng.range_f64(0.0, 100.0));
        }
        for (i, prev) in before.iter().enumerate() {
            let now = blameit::stats::quantile(&xs, i as f64 / 10.0).unwrap();
            assert!(
                now >= prev - 1e-9,
                "q={} dropped {prev} -> {now}",
                i as f64 / 10.0
            );
        }
    });
}

/// The KS statistic is a proper distance-like quantity: bounded in
/// [0, 1], symmetric in its arguments, exactly zero on identical
/// samples, and undefined (None) when either sample is empty.
#[test]
fn ks_statistic_properties() {
    check("ks_statistic_properties", 128, |rng| {
        let n = rng.range_u64(1, 99) as usize;
        let m = rng.range_u64(1, 99) as usize;
        let shift = rng.range_f64(0.0, 80.0);
        let a: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 100.0)).collect();
        let b: Vec<f64> = (0..m).map(|_| rng.range_f64(0.0, 100.0) + shift).collect();
        let ab = blameit::ks_two_sample(&a, &b).unwrap();
        assert!(
            (0.0..=1.0).contains(&ab.statistic),
            "statistic {} out of range",
            ab.statistic
        );
        assert!((0.0..=1.0).contains(&ab.p_value));
        let ba = blameit::ks_two_sample(&b, &a).unwrap();
        assert!((ab.statistic - ba.statistic).abs() <= 1e-12, "asymmetric");
        let aa = blameit::ks_two_sample(&a, &a).unwrap();
        assert_eq!(aa.statistic, 0.0, "identical samples must have D = 0");
        assert!(blameit::ks_two_sample(&[], &a).is_none());
        assert!(blameit::ks_two_sample(&a, &[]).is_none());
    });
}

/// Calibrated badness targets are monotone in the calibration knobs:
/// a higher quantile or more headroom can only raise (never lower)
/// every (region, device-class) threshold.
#[test]
fn calibrated_thresholds_monotone_in_knobs() {
    use blameit_simnet::{World, WorldConfig};
    use blameit_topology::Region;
    let world = World::new(WorldConfig::tiny(1, 7));
    check("calibrated_thresholds_monotone_in_knobs", 32, |rng| {
        let q_lo = rng.range_f64(0.5, 0.9);
        let q_hi = rng.range_f64(q_lo, 0.99);
        let headroom = rng.range_f64(1.0, 1.4);
        let usa = rng.range_f64(0.6, 1.0);
        let base = blameit::BadnessThresholds::calibrate(&world, q_lo, headroom, usa);
        let higher_q = blameit::BadnessThresholds::calibrate(&world, q_hi, headroom, usa);
        let more_headroom =
            blameit::BadnessThresholds::calibrate(&world, q_lo, headroom * 1.2, usa);
        for region in Region::ALL {
            for mobile in [false, true] {
                let b = base.get(region, mobile);
                assert!(b > 0.0, "{region:?} threshold must be positive");
                assert!(
                    higher_q.get(region, mobile) >= b - 1e-9,
                    "{region:?}/mobile={mobile} fell when the quantile rose"
                );
                assert!(
                    more_headroom.get(region, mobile) >= b - 1e-9,
                    "{region:?}/mobile={mobile} fell when headroom rose"
                );
            }
        }
    });
}

/// Algorithm 1 over an empty learner never blames cloud or middle (no
/// expectations → no aggregate can cross τ), and produces exactly one
/// verdict per bad quartet. With history, the driver the engine tick
/// runs ([`blame_bucket`]) returns the same verdicts, in the same order,
/// and the same aggregate statistics at 1 and 4 threads — and
/// `assign_blames` is that driver at 1.
#[test]
fn algorithm1_conservative_without_history() {
    check("algorithm1_conservative_without_history", 64, |rng| {
        use blameit::{EnrichedQuartet, RouteInfo};
        use blameit_simnet::QuartetObs;
        use blameit_topology::{Asn, IpPrefix, MetroId, Prefix24, Region};
        let n_bad = rng.below(30) as usize;
        let n_good = rng.below(30) as usize;
        let mut mk = |i: usize, bad: bool| {
            let path = rng.below(4) as u32;
            EnrichedQuartet {
                obs: QuartetObs {
                    loc: CloudLocId(rng.below(3) as u16),
                    p24: Prefix24::from_block(i as u32),
                    mobile: rng.chance(0.3),
                    bucket: TimeBucket(0),
                    n: 20,
                    mean_rtt_ms: if bad { 200.0 } else { 20.0 },
                },
                info: RouteInfo {
                    path: PathId(path),
                    origin: Asn(100 + (i % 5) as u32),
                    metro: MetroId(0),
                    region: Region::Europe,
                    prefix: IpPrefix::new((i as u32) << 10, 22),
                },
                bad,
            }
        };
        let mut quartets = Vec::new();
        for i in 0..n_bad {
            quartets.push(mk(i, true));
        }
        for i in 0..n_good {
            quartets.push(mk(1000 + i, false));
        }
        rng.shuffle(&mut quartets);
        let cfg = BlameConfig::default();
        let mut learner = ExpectedRttLearner::new(1);
        let (blames, _) = assign_blames(&quartets, &learner, &cfg);
        assert_eq!(blames.len(), n_bad);
        for b in &blames {
            assert!(
                !matches!(b.blame, blameit::Blame::Cloud | blameit::Blame::Middle),
                "{:?}",
                b.blame
            );
        }

        // A 40 ms expectation everywhere: the 200 ms quartets now push
        // locations and paths over τ, so every branch is in play.
        for q in &quartets {
            learner.observe(RttKey::Cloud(q.obs.loc, q.obs.mobile), 0, 40.0);
            let key = cfg.grouping.key(&q.info);
            learner.observe(RttKey::Middle(key, q.obs.mobile), 0, 40.0);
        }
        let (one, stats_one, _) = blame_bucket(&quartets, &learner, &cfg, 1);
        let (four, stats_four, scratch) = blame_bucket(&quartets, &learner, &cfg, 4);
        assert_eq!(one.len(), n_bad);
        assert_eq!(one, four, "verdicts differ across thread counts");
        assert_eq!(stats_one, stats_four);
        assert!(scratch.len() <= 4, "one metric scratch per chunk");
        let bad_order: Vec<_> = quartets.iter().filter(|q| q.bad).map(|q| q.obs).collect();
        let blamed_order: Vec<_> = four.iter().map(|b| b.obs).collect();
        assert_eq!(blamed_order, bad_order, "verdicts keep quartet order");
        assert_eq!(assign_blames(&quartets, &learner, &cfg), (one, stats_one));
    });
}
