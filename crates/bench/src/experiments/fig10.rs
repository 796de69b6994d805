//! Figure 10: duration CDFs of cloud / middle / client incidents.
//!
//! Paper shape: all three categories show the long-tailed persistence
//! distribution of Fig. 4a, with cloud issues generally shorter than
//! middle or client issues (Azure dedicates a team to fixing cloud
//! faults quickly). The simulator encodes no such team, so the three
//! curves here share the same duration law — the comparison point is
//! the per-category long tail itself.

use crate::{fmt, warmed_engine, Args, Scale};
use blameit::{Blame, IncidentTracker, WorldBackend};
use blameit_topology::{CloudLocId, Prefix24};
use std::collections::HashMap;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 7);
    let warmup_days = args.u64("warmup", 2).min(days.saturating_sub(1));
    let scale = args.scale(Scale::Small);

    fmt::banner("Figure 10", "Incident durations split by blame category");
    let world = crate::organic_world(scale, days, seed);
    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(&world, &backend, |_| {}, warmup_days, 2, days);

    // Track incidents per ⟨/24, loc, device⟩; attribute each incident
    // to the plurality blame over its lifetime.
    let mut tracker: IncidentTracker<(Prefix24, CloudLocId, bool)> = IncidentTracker::new();
    let mut votes: HashMap<(Prefix24, CloudLocId, bool), HashMap<Blame, u32>> = HashMap::new();
    let mut per_cat: HashMap<Blame, Vec<f64>> = HashMap::new();

    let buckets: Vec<_> = eval.buckets().collect();
    let mut i = 0;
    while i + 3 <= buckets.len() {
        let out = engine.tick(&mut backend, buckets[i]);
        // Group this tick's blames per bucket to feed the tracker.
        let mut by_bucket: HashMap<u32, Vec<_>> = HashMap::new();
        for b in &out.blames {
            by_bucket.entry(b.obs.bucket.0).or_default().push(b.clone());
        }
        for k in 0..3 {
            let bucket = buckets[i + k];
            let blames = by_bucket.remove(&bucket.0).unwrap_or_default();
            let mut keys = Vec::new();
            for b in &blames {
                let key = (b.obs.p24, b.obs.loc, b.obs.mobile);
                *votes.entry(key).or_default().entry(b.blame).or_default() += 1;
                keys.push(key);
            }
            for inc in tracker.observe(bucket, keys) {
                if let Some(v) = votes.remove(&inc.key) {
                    let (blame, _) = v
                        .into_iter()
                        .max_by_key(|(b, n)| (*n, std::cmp::Reverse(*b)))
                        .unwrap();
                    per_cat.entry(blame).or_default().push(inc.buckets as f64);
                }
            }
        }
        i += 3;
    }
    for inc in tracker.finish() {
        if let Some(v) = votes.remove(&inc.key) {
            let (blame, _) = v
                .into_iter()
                .max_by_key(|(b, n)| (*n, std::cmp::Reverse(*b)))
                .unwrap();
            per_cat.entry(blame).or_default().push(inc.buckets as f64);
        }
    }

    for cat in [Blame::Cloud, Blame::Middle, Blame::Client] {
        let ds = per_cat.get(&cat).cloned().unwrap_or_default();
        println!();
        println!("category {cat}: {} incidents", ds.len());
        if ds.is_empty() {
            continue;
        }
        fmt::cdf(
            &format!("{cat} incident duration (5-min buckets)"),
            &blameit::stats::ecdf(&ds),
            15,
        );
        let le1 = blameit::stats::fraction(&ds, |d| *d <= 1.0);
        let ge24 = blameit::stats::fraction(&ds, |d| *d >= 24.0);
        println!("    ≤5min {}  ≥2h {}", fmt::pct(le1), fmt::pct(ge24));
    }
    println!();
    println!("paper shape: every category long-tailed (mostly ≤5 min, small >2 h tail).");
}
