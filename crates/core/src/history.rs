//! Historical learning: expected RTTs, incident durations, client counts.
//!
//! Three learners feed BlameIt's decisions:
//!
//! * [`ExpectedRttLearner`] — §4.3: the *expected* RTT of each cloud
//!   location and each middle segment, learned as the median of the
//!   last 14 days of quartet means, split by device class. Algorithm 1
//!   compares against these (not the badness thresholds!) so that a
//!   left-shifted distribution is caught even when only part of it
//!   crosses the threshold (the paper's 40 ms vs 50 ms example).
//! * [`DurationHistory`] — §5.3(a): per-BGP-path empirical incident
//!   durations, from which the expected *remaining* duration
//!   `E[T | lasted t]` is computed (mean residual life).
//! * [`ClientCountHistory`] — §5.3(b): per-(path, time-of-day) client
//!   volume over the past 3 days, the predictor of how many clients an
//!   ongoing issue will impact.

use crate::fxhash::DetHashMap;
use crate::grouping::MiddleKey;
use blameit_simnet::TimeBucket;
use blameit_topology::rng::DetRng;
use blameit_topology::{CloudLocId, PathId};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

/// Key of an expected-RTT series.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RttKey {
    /// A cloud location (`c.expected-RTT`), per device class.
    Cloud(CloudLocId, bool),
    /// A middle segment (`b.expected-RTT`), per device class.
    Middle(MiddleKey, bool),
}

/// One key's retained history.
#[derive(Clone, Debug, Default)]
pub(crate) struct RttSeries {
    /// Per-day reservoirs `(day, values)`, oldest first.
    pub(crate) days: VecDeque<(u32, Vec<f64>)>,
    /// Observations offered to the newest day so far, for reservoir
    /// replacement.
    pub(crate) seen: u64,
}

/// Rolling per-day reservoirs with a windowed median, one per key.
#[derive(Clone, Debug)]
pub struct ExpectedRttLearner {
    pub(crate) window_days: u32,
    pub(crate) day_cap: usize,
    pub(crate) map: DetHashMap<RttKey, RttSeries>,
    /// Median cache, refreshed once per key per day: recomputing the
    /// window median on every lookup is an O(window · log) sort per
    /// quartet and dominates month-long runs; the paper's expected
    /// values are day-granular anyway (the median of the last 14
    /// *days*). An entry freezes the median at whatever observations
    /// existed at first lookup that day, so it is part of durable
    /// state: snapshots persist it verbatim (recomputing it later in
    /// the day would see more data and diverge).
    pub(crate) cache: std::cell::RefCell<DetHashMap<RttKey, (u32, Option<f64>)>>,
    pub(crate) rng: DetRng,
    pub(crate) latest_day: u32,
}

impl ExpectedRttLearner {
    /// A learner with the paper's 14-day window.
    pub fn new(seed: u64) -> Self {
        Self::with_window(14, seed)
    }

    /// A learner with a custom window (days) — for ablations.
    pub fn with_window(window_days: u32, seed: u64) -> Self {
        assert!(window_days >= 1, "window must be at least one day");
        ExpectedRttLearner {
            window_days,
            day_cap: 64,
            map: DetHashMap::default(),
            cache: std::cell::RefCell::new(DetHashMap::default()),
            rng: DetRng::from_keys(seed, &[0xE59E]),
            latest_day: 0,
        }
    }

    /// Records one quartet-mean RTT for a key on a day. Days must be
    /// fed in non-decreasing order (the pipeline runs forward in time).
    pub fn observe(&mut self, key: RttKey, day: u32, rtt_ms: f64) {
        self.latest_day = self.latest_day.max(day);
        let RttSeries { days, seen } = self.map.entry(key).or_default();
        match days.back_mut() {
            Some((d, values)) if *d == day => {
                *seen += 1;
                if values.len() < self.day_cap {
                    values.push(rtt_ms);
                } else {
                    // Reservoir replacement keeps the day's sample
                    // uniform without unbounded memory.
                    let j = self.rng.below(*seen);
                    if (j as usize) < self.day_cap {
                        values[j as usize] = rtt_ms;
                    }
                }
            }
            _ => {
                debug_assert!(days.back().is_none_or(|(d, _)| *d < day));
                days.push_back((day, vec![rtt_ms]));
                *seen = 1;
                // Evict days that fell out of the window.
                while days
                    .front()
                    .is_some_and(|(d, _)| *d + self.window_days <= day)
                {
                    days.pop_front();
                }
            }
        }
    }

    /// The learned expected RTT: the median of all retained values
    /// within the window ending at the latest observed day. `None` if
    /// the key has never been observed in the window.
    ///
    /// The value is cached per (key, day): within a day, additional
    /// observations do not move the reported median (matching the
    /// day-granular "median of the last 14 days" of §4.3, and keeping
    /// lookups O(1) on the hot path).
    pub fn expected(&self, key: RttKey) -> Option<f64> {
        if let Some((day, cached)) = self.cache.borrow().get(&key) {
            if *day == self.latest_day {
                return *cached;
            }
        }
        let value = self.compute_expected(key);
        self.cache
            .borrow_mut()
            .insert(key, (self.latest_day, value));
        value
    }

    fn compute_expected(&self, key: RttKey) -> Option<f64> {
        let series = self.map.get(&key)?;
        let cutoff = self.latest_day.saturating_sub(self.window_days - 1);
        let mut all: Vec<f64> = series
            .days
            .iter()
            .filter(|(d, _)| *d >= cutoff)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        if all.is_empty() {
            return None;
        }
        all.sort_by(|a, b| a.total_cmp(b));
        Some(crate::stats::median_sorted(&all))
    }
}

/// A bounded FIFO of completed durations beside a derived
/// duration → count index over exactly the samples the FIFO holds.
/// The FIFO is the durable state (snapshots persist it, eviction
/// order depends on it); the index is what lookups read, so a lookup
/// never walks samples.
#[derive(Clone, Debug, Default)]
pub(crate) struct DurationSamples {
    fifo: VecDeque<u32>,
    counts: BTreeMap<u32, u32>,
}

impl DurationSamples {
    /// Rebuilds the index over decoded samples (it is never persisted).
    pub(crate) fn from_fifo(fifo: VecDeque<u32>) -> Self {
        let mut counts = BTreeMap::new();
        for &d in &fifo {
            *counts.entry(d).or_insert(0) += 1;
        }
        DurationSamples { fifo, counts }
    }

    /// The retained samples, oldest first.
    pub(crate) fn fifo(&self) -> &VecDeque<u32> {
        &self.fifo
    }

    /// Appends `d`, evicting the oldest sample first when `cap` are held.
    fn push(&mut self, d: u32, cap: usize) {
        if self.fifo.len() == cap {
            if let Some(old) = self.fifo.pop_front() {
                match self.counts.get_mut(&old) {
                    Some(c) if *c > 1 => *c -= 1,
                    _ => {
                        self.counts.remove(&old);
                    }
                }
            }
        }
        self.fifo.push_back(d);
        *self.counts.entry(d).or_insert(0) += 1;
    }

    /// Mean residual life past `elapsed`, `None` when nothing survives.
    /// Every term is a whole number and the sum stays far below 2⁵³
    /// (≤ 8 192 samples × 2³²), so the integer sum converts to the same
    /// `f64` a left-to-right float sum over the samples produces.
    fn residual(&self, elapsed: u32) -> Option<f64> {
        let (mut n, mut sum) = (0u64, 0u64);
        for (&d, &c) in self
            .counts
            .range((Bound::Excluded(elapsed), Bound::Unbounded))
        {
            n += u64::from(c);
            sum += u64::from(d - elapsed) * u64::from(c);
        }
        (n > 0).then(|| sum as f64 / n as f64)
    }
}

/// Empirical incident durations per BGP path, with a global fallback.
#[derive(Clone, Debug, Default)]
pub struct DurationHistory {
    pub(crate) per_path: DetHashMap<PathId, DurationSamples>,
    pub(crate) global: DurationSamples,
    pub(crate) cap: usize,
}

impl DurationHistory {
    /// History retaining up to 512 incidents per path (and globally
    /// 8192).
    pub fn new() -> Self {
        DurationHistory {
            per_path: DetHashMap::default(),
            global: DurationSamples::default(),
            cap: 512,
        }
    }

    /// Records a *completed* incident's duration in 5-minute buckets.
    pub fn record(&mut self, path: PathId, duration_buckets: u32) {
        self.per_path
            .entry(path)
            .or_default()
            .push(duration_buckets, self.cap);
        self.global.push(duration_buckets, self.cap * 16);
    }

    /// Expected *additional* buckets given the issue has already lasted
    /// `elapsed` buckets: the mean residual life over the path's
    /// history (global history if the path has fewer than 10 samples or
    /// nothing in its history survives past `elapsed`). Returns 1.0
    /// when no history is informative — the conservative "it might end
    /// next bucket" guess.
    ///
    /// Allocates nothing and reads no samples: the cost is one step per
    /// *distinct* duration above `elapsed` in the history consulted
    /// (incident durations are a handful of small integers), whatever
    /// the number of samples retained.
    pub fn expected_remaining(&self, path: PathId, elapsed: u32) -> f64 {
        self.per_path
            .get(&path)
            .filter(|ds| ds.fifo.len() >= 10)
            .and_then(|ds| ds.residual(elapsed))
            .or_else(|| self.global.residual(elapsed))
            .unwrap_or(1.0)
    }

    /// Total incidents recorded (globally).
    pub fn total_recorded(&self) -> usize {
        self.global.fifo.len()
    }
}

/// Per-(path, time-of-day) client-volume history over a few days.
#[derive(Clone, Debug)]
pub struct ClientCountHistory {
    pub(crate) window_days: u32,
    pub(crate) map: DetHashMap<(PathId, u16), VecDeque<(u32, u64)>>,
}

impl ClientCountHistory {
    /// The paper's 3-day window.
    pub fn new() -> Self {
        Self::with_window(3)
    }

    /// Custom window (days).
    pub fn with_window(window_days: u32) -> Self {
        assert!(window_days >= 1);
        ClientCountHistory {
            window_days,
            map: DetHashMap::default(),
        }
    }

    /// Records the client volume seen on a path in a bucket.
    pub fn record(&mut self, path: PathId, bucket: TimeBucket, clients: u64) {
        let key = (path, bucket.slot_in_day() as u16);
        let day = bucket.day();
        let q = self.map.entry(key).or_default();
        match q.back_mut() {
            Some((d, c)) if *d == day => *c += clients,
            _ => q.push_back((day, clients)),
        }
        while q.front().is_some_and(|(d, _)| *d + self.window_days < day) {
            q.pop_front();
        }
    }

    /// Predicts the client volume for a path in a bucket: the mean of
    /// the same time-of-day slot over the past `window_days` days
    /// (strictly before the bucket's own day). `None` with no history.
    pub fn predict(&self, path: PathId, bucket: TimeBucket) -> Option<f64> {
        let key = (path, bucket.slot_in_day() as u16);
        let day = bucket.day();
        let q = self.map.get(&key)?;
        let lo = day.saturating_sub(self.window_days);
        let vals: Vec<u64> = q
            .iter()
            .filter(|(d, _)| *d >= lo && *d < day)
            .map(|(_, c)| *c)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<u64>() as f64 / vals.len() as f64)
        }
    }
}

impl Default for ClientCountHistory {
    fn default() -> Self {
        Self::new()
    }
}

/// The learner's reservoirs as this file kept them before [`RttSeries`]
/// — `map` and `counts`, two maps over one key set, `observe` probing
/// both — for the differential tests here and in `persist::snapshot`.
#[cfg(test)]
pub(crate) mod two_map_reference {
    use super::*;

    pub(crate) struct TwoMapLearner {
        pub(crate) window_days: u32,
        pub(crate) day_cap: usize,
        pub(crate) map: DetHashMap<RttKey, VecDeque<(u32, Vec<f64>)>>,
        pub(crate) counts: DetHashMap<RttKey, u64>,
        pub(crate) rng: DetRng,
        pub(crate) latest_day: u32,
    }

    impl TwoMapLearner {
        fn observe(&mut self, key: RttKey, day: u32, rtt_ms: f64) {
            self.latest_day = self.latest_day.max(day);
            let series = self.map.entry(key).or_default();
            match series.back_mut() {
                Some((d, values)) if *d == day => {
                    let seen = self.counts.entry(key).or_insert(0);
                    *seen += 1;
                    if values.len() < self.day_cap {
                        values.push(rtt_ms);
                    } else {
                        let j = self.rng.below(*seen);
                        if (j as usize) < self.day_cap {
                            values[j as usize] = rtt_ms;
                        }
                    }
                }
                _ => {
                    series.push_back((day, vec![rtt_ms]));
                    self.counts.insert(key, 1);
                    while series
                        .front()
                        .is_some_and(|(d, _)| *d + self.window_days <= day)
                    {
                        series.pop_front();
                    }
                }
            }
        }
    }

    /// Feeds one seeded observation stream to both learners: 6 keys of
    /// both kinds over 5 days with a 3-day window, ≈ 100 observations
    /// per key per day (past `day_cap`, so the shared reservoir RNG is
    /// drawn), with `expected` lookups in between so the median cache
    /// holds entries frozen mid-day.
    pub(crate) fn drive(seed: u64) -> (ExpectedRttLearner, TwoMapLearner) {
        let mut learner = ExpectedRttLearner::with_window(3, seed);
        let mut reference = TwoMapLearner {
            window_days: learner.window_days,
            day_cap: learner.day_cap,
            map: DetHashMap::default(),
            counts: DetHashMap::default(),
            rng: learner.rng.clone(),
            latest_day: 0,
        };
        let mut rng = DetRng::from_keys(seed, &[0x2_3A95]);
        let keys: Vec<RttKey> = (0..6u32)
            .map(|i| match i % 2 {
                0 => RttKey::Cloud(CloudLocId(i as u16), i % 4 == 0),
                _ => RttKey::Middle(MiddleKey::Path(PathId(i)), i % 3 == 0),
            })
            .collect();
        for day in 0..5 {
            for _ in 0..600 {
                let (key, rtt) = (*rng.pick(&keys), rng.range_f64(5.0, 300.0));
                learner.observe(key, day, rtt);
                reference.observe(key, day, rtt);
                if rng.chance(0.05) {
                    let _ = learner.expected(*rng.pick(&keys));
                }
            }
        }
        (learner, reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud_key() -> RttKey {
        RttKey::Cloud(CloudLocId(1), false)
    }

    #[test]
    fn expected_rtt_median_of_window() {
        let mut l = ExpectedRttLearner::new(1);
        for day in 0..5 {
            for v in [10.0, 20.0, 30.0] {
                l.observe(cloud_key(), day, v);
            }
        }
        assert_eq!(l.expected(cloud_key()), Some(20.0));
        assert_eq!(l.expected(RttKey::Cloud(CloudLocId(9), false)), None);
    }

    #[test]
    fn expected_rtt_window_evicts_old_days() {
        let mut l = ExpectedRttLearner::with_window(3, 1);
        l.observe(cloud_key(), 0, 100.0);
        l.observe(cloud_key(), 10, 10.0);
        l.observe(cloud_key(), 11, 20.0);
        // Day 0 fell out of the 3-day window ending at day 11.
        assert_eq!(l.expected(cloud_key()), Some(15.0));
    }

    #[test]
    fn expected_rtt_tracks_shift() {
        // §4.3's example: history says ~40 ms; after a fault RTTs rise.
        // The learned value must reflect the historical median.
        let mut l = ExpectedRttLearner::new(2);
        for day in 0..14 {
            for i in 0..20 {
                l.observe(cloud_key(), day, 35.0 + (i as f64) * 0.5); // 35–45 ms
            }
        }
        let e = l.expected(cloud_key()).unwrap();
        assert!((38.0..42.0).contains(&e), "expected ≈40, got {e}");
    }

    #[test]
    fn reservoir_caps_memory_but_stays_representative() {
        let mut l = ExpectedRttLearner::new(3);
        // 10_000 observations on one day, uniform 0..100.
        for i in 0..10_000 {
            l.observe(cloud_key(), 0, (i % 100) as f64);
        }
        let e = l.expected(cloud_key()).unwrap();
        assert!((30.0..70.0).contains(&e), "median of uniform ≈50, got {e}");
    }

    #[test]
    fn one_map_learner_matches_the_two_map_reference() {
        for seed in 0..4u64 {
            let (learner, reference) = two_map_reference::drive(seed);
            assert_eq!(learner.map.len(), reference.map.len());
            assert_eq!(learner.map.len(), reference.counts.len());
            let mut drew = false;
            for (key, days) in &reference.map {
                let series = &learner.map[key];
                assert_eq!(series.days, *days, "seed {seed} {key:?}");
                assert_eq!(series.seen, reference.counts[key], "seed {seed} {key:?}");
                assert_eq!(days.len(), 3, "days rolled out of the window");
                drew |= series.seen > learner.day_cap as u64;
            }
            assert!(drew, "a reservoir filled, so the RNG was drawn");
            assert_eq!(learner.rng.state(), reference.rng.state(), "same draws");
            assert_eq!(learner.latest_day, reference.latest_day);
        }
    }

    #[test]
    fn mobile_and_nonmobile_learned_separately() {
        let mut l = ExpectedRttLearner::new(4);
        l.observe(RttKey::Cloud(CloudLocId(0), false), 0, 20.0);
        l.observe(RttKey::Cloud(CloudLocId(0), true), 0, 60.0);
        assert_eq!(l.expected(RttKey::Cloud(CloudLocId(0), false)), Some(20.0));
        assert_eq!(l.expected(RttKey::Cloud(CloudLocId(0), true)), Some(60.0));
    }

    #[test]
    fn duration_mean_residual_life() {
        let mut h = DurationHistory::new();
        let path = PathId(1);
        for d in [1u32, 1, 1, 1, 1, 1, 1, 2, 10, 20] {
            h.record(path, d);
        }
        // At elapsed 0: mean of durations = (7+2+10+20)/10 = 3.9.
        let e0 = h.expected_remaining(path, 0);
        assert!((e0 - 3.9).abs() < 1e-9, "{e0}");
        // At elapsed 2: survivors {10, 20} → mean residual (8+18)/2 = 13.
        let e2 = h.expected_remaining(path, 2);
        assert!((e2 - 13.0).abs() < 1e-9, "{e2}");
        // Long-lived issues are expected to continue longer — the
        // long-tail property BlameIt exploits (§5.3).
        assert!(e2 > e0);
    }

    #[test]
    fn duration_falls_back_to_global() {
        let mut h = DurationHistory::new();
        // Path 1 has few samples; global gets them all plus more.
        for d in [5u32, 5, 5] {
            h.record(PathId(1), d);
        }
        for d in [2u32; 20] {
            h.record(PathId(2), d);
        }
        // Path 3 unknown → global history (mixture of 5s and 2s).
        let e = h.expected_remaining(PathId(3), 0);
        assert!((2.0..5.0).contains(&e), "{e}");
        // Path 1 has <10 samples → also global.
        let e1 = h.expected_remaining(PathId(1), 0);
        assert_eq!(e, e1);
        // No survivors anywhere → conservative 1.0.
        assert_eq!(h.expected_remaining(PathId(1), 100), 1.0);
        // Empty history entirely.
        assert_eq!(DurationHistory::new().expected_remaining(PathId(9), 3), 1.0);
    }

    /// The sample-scanning `expected_remaining` this file shipped
    /// before the duration → count index: filter the survivors, sum
    /// their residuals left to right in `f64`.
    fn expected_remaining_reference(h: &DurationHistory, path: PathId, elapsed: u32) -> f64 {
        let residual = |ds: &VecDeque<u32>| -> Option<f64> {
            let survivors: Vec<u32> = ds.iter().copied().filter(|d| *d > elapsed).collect();
            if survivors.is_empty() {
                None
            } else {
                Some(
                    survivors.iter().map(|d| (d - elapsed) as f64).sum::<f64>()
                        / survivors.len() as f64,
                )
            }
        };
        let per_path = h
            .per_path
            .get(&path)
            .map(DurationSamples::fifo)
            .filter(|ds| ds.len() >= 10)
            .and_then(residual);
        per_path
            .or_else(|| residual(h.global.fifo()))
            .unwrap_or(1.0)
    }

    #[test]
    fn indexed_residual_life_matches_the_sample_scan_bit_for_bit() {
        for seed in 0..6u64 {
            let mut rng = DetRng::from_keys(seed, &[0xD0_5A]);
            let mut h = DurationHistory::new();
            // Small enough that both evictions fire: a path holds 12
            // samples (≥ the 10 that make it authoritative), the
            // global FIFO 192.
            h.cap = 12;
            let paths = 1 + rng.below(5) as u32;
            let mut max = 0u32;
            for step in 0..1_500u32 {
                // Long-tailed: mostly short streaks, a few long ones.
                let d = if rng.chance(0.1) {
                    rng.range_u64(20, 90) as u32
                } else {
                    rng.range_u64(1, 6) as u32
                };
                max = max.max(d);
                h.record(PathId(rng.below(paths as u64) as u32), d);
                if step % 13 != 0 && step < 1_450 {
                    continue;
                }
                // One path beyond those recorded: the global fallback.
                for p in 0..=paths {
                    for elapsed in 0..=max + 1 {
                        assert_eq!(
                            h.expected_remaining(PathId(p), elapsed).to_bits(),
                            expected_remaining_reference(&h, PathId(p), elapsed).to_bits(),
                            "seed {seed} step {step} path {p} elapsed {elapsed}"
                        );
                    }
                }
            }
            assert_eq!(h.total_recorded(), 192, "the global FIFO evicted");
            assert!(h.per_path.values().all(|ds| ds.fifo().len() <= 12));
        }
    }

    #[test]
    fn client_count_same_slot_prev_days() {
        let mut h = ClientCountHistory::new();
        let path = PathId(7);
        let slot = 100u32;
        for day in 0..3 {
            let b = TimeBucket(day * blameit_simnet::BUCKETS_PER_DAY + slot);
            h.record(path, b, 100 + day as u64 * 20); // 100, 120, 140
        }
        let target = TimeBucket(3 * blameit_simnet::BUCKETS_PER_DAY + slot);
        let p = h.predict(path, target).unwrap();
        assert!((p - 120.0).abs() < 1e-9, "{p}");
        // A different slot has no history.
        let other = TimeBucket(3 * blameit_simnet::BUCKETS_PER_DAY + slot + 1);
        assert_eq!(h.predict(path, other), None);
    }

    #[test]
    fn client_count_excludes_same_day() {
        let mut h = ClientCountHistory::new();
        let path = PathId(7);
        let b = TimeBucket(5 * blameit_simnet::BUCKETS_PER_DAY + 10);
        h.record(path, b, 999);
        // Same-day observation must not feed the prediction for itself.
        assert_eq!(h.predict(path, b), None);
        let next_day = TimeBucket(6 * blameit_simnet::BUCKETS_PER_DAY + 10);
        assert_eq!(h.predict(path, next_day), Some(999.0));
    }

    #[test]
    fn client_count_accumulates_within_day() {
        let mut h = ClientCountHistory::new();
        let path = PathId(1);
        let b = TimeBucket(10);
        h.record(path, b, 50);
        h.record(path, b, 25);
        let next_day = TimeBucket(blameit_simnet::BUCKETS_PER_DAY + 10);
        assert_eq!(h.predict(path, next_day), Some(75.0));
    }
}
