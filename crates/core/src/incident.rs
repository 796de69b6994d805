//! Incident tracking: merging consecutive bad buckets.
//!
//! The paper measures incident *persistence* as the number of
//! consecutive 5-minute buckets a key stays bad (§2.3, Fig. 4a;
//! Fig. 10 splits durations by blame category). [`IncidentTracker`]
//! maintains open incidents per key, closes them when the key turns
//! good (or stops reporting), and hands completed durations to the
//! duration history that powers probe prioritization (§5.3).

use blameit_simnet::TimeBucket;
use std::collections::BTreeMap;

/// A completed run of consecutive bad buckets for one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Incident<K> {
    /// The key (e.g. ⟨/24, location, device⟩ or ⟨location, path⟩).
    pub key: K,
    /// First bad bucket.
    pub start: TimeBucket,
    /// Number of consecutive bad buckets (≥ 1).
    pub buckets: u32,
}

impl<K> Incident<K> {
    /// Exclusive end bucket.
    pub fn end(&self) -> TimeBucket {
        self.start.plus(self.buckets)
    }
}

/// An incident still open at the current bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenIncident {
    /// First bad bucket.
    pub start: TimeBucket,
    /// Consecutive bad buckets so far (≥ 1).
    pub buckets: u32,
    /// Bad observations folded in so far (one per fed key instance —
    /// repeats within a bucket count). Provenance evidence: how much
    /// passive signal this incident rests on.
    pub observations: u64,
}

impl OpenIncident {
    /// Buckets elapsed so far — the `t` of the paper's `P(T | t)`.
    pub fn elapsed(&self) -> u32 {
        self.buckets
    }
}

/// Tracks runs of consecutive bad buckets per key.
///
/// Open incidents live in a `BTreeMap` so that the order in which
/// incidents *close* (and therefore the order their durations reach the
/// duration history, the snapshot, and any transcript line) is a pure
/// function of the keys — never of a hasher seed. This is part of the
/// determinism contract enforced by `blameit-lint`'s
/// `unordered-iteration` rule.
///
/// ```
/// use blameit::IncidentTracker;
/// use blameit_simnet::TimeBucket;
/// let mut t: IncidentTracker<&str> = IncidentTracker::new();
/// t.observe(TimeBucket(0), ["path7"]);
/// t.observe(TimeBucket(1), ["path7"]);
/// let closed = t.observe(TimeBucket(2), []);
/// assert_eq!(closed[0].buckets, 2);
/// ```
#[derive(Clone, Debug)]
pub struct IncidentTracker<K: Ord + Clone> {
    pub(crate) open: BTreeMap<K, OpenIncident>,
    pub(crate) last_bucket: Option<TimeBucket>,
}

impl<K: Ord + Clone> Default for IncidentTracker<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone> IncidentTracker<K> {
    /// An empty tracker.
    pub fn new() -> Self {
        IncidentTracker {
            open: BTreeMap::new(),
            last_bucket: None,
        }
    }

    /// Feeds one bucket's set of bad keys; buckets must be fed in
    /// strictly increasing order. Returns the incidents that *closed*
    /// (keys bad last bucket but not this one, or keys whose badness
    /// was non-contiguous).
    ///
    /// # Panics
    /// Panics if `bucket` is not after the previously fed bucket.
    pub fn observe(
        &mut self,
        bucket: TimeBucket,
        bad_keys: impl IntoIterator<Item = K>,
    ) -> Vec<Incident<K>> {
        if let Some(last) = self.last_bucket {
            assert!(bucket > last, "buckets must be fed in increasing order");
        }
        let contiguous = self.last_bucket.is_some_and(|l| l.plus(1) == bucket);
        self.last_bucket = Some(bucket);

        let mut closed = Vec::new();
        let mut still_bad: BTreeMap<K, OpenIncident> = BTreeMap::new();
        for key in bad_keys {
            // Callers feed one entry per bad quartet; a key repeats for
            // every quartet sharing the segment. Only the first sighting
            // in a bucket may advance (or open) the incident — a repeat
            // must not reset the accumulated run, but it does count as
            // evidence.
            if let Some(inc) = still_bad.get_mut(&key) {
                inc.observations += 1;
                continue;
            }
            match self.open.remove(&key) {
                Some(mut inc) if contiguous => {
                    inc.buckets += 1;
                    inc.observations += 1;
                    still_bad.insert(key, inc);
                }
                Some(inc) => {
                    // Gap in the feed: the old run is over.
                    closed.push(Incident {
                        key: key.clone(),
                        start: inc.start,
                        buckets: inc.buckets,
                    });
                    still_bad.insert(
                        key,
                        OpenIncident {
                            start: bucket,
                            buckets: 1,
                            observations: 1,
                        },
                    );
                }
                None => {
                    still_bad.insert(
                        key,
                        OpenIncident {
                            start: bucket,
                            buckets: 1,
                            observations: 1,
                        },
                    );
                }
            }
        }
        // Whatever remains in `open` turned good: close it, in key
        // order (BTreeMap iteration), after the gap-closes above (which
        // follow the caller's feed order).
        for (key, inc) in std::mem::take(&mut self.open) {
            closed.push(Incident {
                key,
                start: inc.start,
                buckets: inc.buckets,
            });
        }
        self.open = still_bad;
        closed
    }

    /// Closes everything (end of run). Returns the final incidents,
    /// ordered by start bucket (ties broken by key: the sort is stable
    /// and the drain below yields key order).
    pub fn finish(&mut self) -> Vec<Incident<K>> {
        let mut closed: Vec<Incident<K>> = std::mem::take(&mut self.open)
            .into_iter()
            .map(|(key, inc)| Incident {
                key,
                start: inc.start,
                buckets: inc.buckets,
            })
            .collect();
        closed.sort_by_key(|i| i.start);
        closed
    }

    /// The open incident for a key, if any.
    pub fn open_incident(&self, key: &K) -> Option<&OpenIncident> {
        self.open.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_run_closes_when_good() {
        let mut t: IncidentTracker<u32> = IncidentTracker::new();
        assert!(t.observe(TimeBucket(0), [1]).is_empty());
        assert!(t.observe(TimeBucket(1), [1]).is_empty());
        assert_eq!(t.open_incident(&1).unwrap().elapsed(), 2);
        let closed = t.observe(TimeBucket(2), []);
        assert_eq!(closed.len(), 1);
        assert_eq!(
            closed[0],
            Incident {
                key: 1,
                start: TimeBucket(0),
                buckets: 2
            }
        );
        assert_eq!(closed[0].end(), TimeBucket(2));
        assert!(t.open.is_empty());
    }

    #[test]
    fn interleaved_keys() {
        let mut t: IncidentTracker<u32> = IncidentTracker::new();
        t.observe(TimeBucket(0), [1, 2]);
        let closed = t.observe(TimeBucket(1), [2]);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].key, 1);
        let closed = t.observe(TimeBucket(2), [1]);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].key, 2);
        assert_eq!(closed[0].buckets, 2);
    }

    #[test]
    fn gap_in_feed_splits_runs() {
        let mut t: IncidentTracker<u32> = IncidentTracker::new();
        t.observe(TimeBucket(0), [1]);
        // Bucket 1 was never fed — the run cannot be contiguous.
        let closed = t.observe(TimeBucket(2), [1]);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].buckets, 1);
        assert_eq!(t.open_incident(&1).unwrap().start, TimeBucket(2));
    }

    #[test]
    fn finish_flushes_open() {
        let mut t: IncidentTracker<&str> = IncidentTracker::new();
        t.observe(TimeBucket(5), ["a", "b"]);
        t.observe(TimeBucket(6), ["a", "b"]);
        let mut closed = t.finish();
        closed.sort_by_key(|i| i.key);
        assert_eq!(closed.len(), 2);
        assert!(closed
            .iter()
            .all(|i| i.buckets == 2 && i.start == TimeBucket(5)));
        assert!(t.open.is_empty());
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn rejects_time_travel() {
        let mut t: IncidentTracker<u32> = IncidentTracker::new();
        t.observe(TimeBucket(5), [1]);
        t.observe(TimeBucket(5), [1]);
    }

    #[test]
    fn duplicate_keys_in_one_bucket_are_one_incident() {
        let mut t: IncidentTracker<u32> = IncidentTracker::new();
        t.observe(TimeBucket(0), [1, 1, 1]);
        assert_eq!(t.open.len(), 1);
        let closed = t.observe(TimeBucket(1), []);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].buckets, 1);
    }

    #[test]
    fn duplicate_keys_do_not_reset_elapsed() {
        // Regression: a key appearing once per bad quartet must still
        // accumulate consecutive buckets.
        let mut t: IncidentTracker<u32> = IncidentTracker::new();
        for b in 0..10 {
            t.observe(TimeBucket(b), [1, 1, 1, 1]);
        }
        assert_eq!(t.open_incident(&1).unwrap().elapsed(), 10);
        let closed = t.observe(TimeBucket(10), []);
        assert_eq!(closed[0].buckets, 10);
    }

    #[test]
    fn observations_count_every_sighting() {
        // 4 sightings per bucket × 3 buckets = 12 observations, while
        // elapsed stays 3 — the provenance distinction between "how
        // long" and "how much evidence".
        let mut t: IncidentTracker<u32> = IncidentTracker::new();
        for b in 0..3 {
            t.observe(TimeBucket(b), [1, 1, 1, 1]);
        }
        let inc = t.open_incident(&1).unwrap();
        assert_eq!(inc.elapsed(), 3);
        assert_eq!(inc.observations, 12);
        // A gap resets the count along with the run.
        t.observe(TimeBucket(5), [1, 1]);
        assert_eq!(t.open_incident(&1).unwrap().observations, 2);
    }
}
