//! Dataset summaries over the collector stream.
//!
//! Mirrors the production pipeline of §6.1: cloud locations emit RTT
//! streams that are aggregated centrally into per-bucket quartets — the
//! input BlameIt's periodic analysis job consumes.
//! [`DatasetSummary`] walks a time range bucket by bucket and produces
//! Table-2-style corpus statistics.

use crate::time::TimeRange;
use crate::world::World;
use blameit_topology::fxhash::DetHashSet;

/// Corpus statistics in the shape of the paper's Table 2.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DatasetSummary {
    /// Total RTT measurements (sum of quartet sample counts).
    pub rtt_measurements: u64,
    /// Distinct client /24s observed.
    pub client_p24s: usize,
    /// Distinct BGP-announced prefixes observed.
    pub bgp_prefixes: usize,
    /// Distinct client ASes observed.
    pub client_ases: usize,
    /// Distinct client metros observed.
    pub client_metros: usize,
    /// Distinct middle BGP paths traversed.
    pub bgp_paths: usize,
    /// Cloud locations serving traffic.
    pub cloud_locations: usize,
    /// Quartets observed.
    pub quartets: u64,
    /// Buckets covered.
    pub buckets: u32,
}

impl DatasetSummary {
    /// Scans `range` and accumulates the summary. This walks every
    /// bucket; use short ranges or sampled summaries for large worlds.
    pub fn collect(world: &World, range: TimeRange) -> DatasetSummary {
        let _span = blameit_obs::span!(
            "blameit::collector",
            "dataset_summary",
            buckets = range.num_buckets(),
        );
        let mut s = DatasetSummary::default();
        let mut p24s = DetHashSet::default();
        let mut prefixes = DetHashSet::default();
        let mut ases = DetHashSet::default();
        let mut metros = DetHashSet::default();
        let mut paths = DetHashSet::default();
        let mut locs = DetHashSet::default();
        for bucket in range.buckets() {
            s.buckets += 1;
            for q in world.quartets_in(bucket) {
                s.quartets += 1;
                s.rtt_measurements += q.n as u64;
                let c = world.topology().client(q.p24).expect("known client");
                p24s.insert(q.p24);
                prefixes.insert(world.topology().announced_prefix(c).prefix);
                ases.insert(c.origin);
                metros.insert(c.metro);
                locs.insert(q.loc);
                let route = world.route_at(q.loc, c, q.bucket.mid());
                paths.insert(route.path_id);
            }
        }
        s.client_p24s = p24s.len();
        s.bgp_prefixes = prefixes.len();
        s.client_ases = ases.len();
        s.client_metros = metros.len();
        s.bgp_paths = paths.len();
        s.cloud_locations = locs.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn summary_counts_consistent() {
        let w = World::new(WorldConfig::tiny(1, 5));
        // Two hours of data.
        let r = TimeRange::new(crate::time::SimTime(0), crate::time::SimTime(2 * 3600));
        let s = DatasetSummary::collect(&w, r);
        assert_eq!(s.buckets, 24);
        assert!(s.quartets > 0);
        assert!(
            s.rtt_measurements >= s.quartets,
            "each quartet has ≥1 sample"
        );
        assert!(s.client_p24s > 0);
        assert!(s.client_p24s <= w.topology().clients.len());
        assert!(s.bgp_prefixes <= w.topology().prefixes.len());
        assert!(s.client_metros <= w.topology().metros.len());
        assert!(s.cloud_locations <= w.topology().cloud_locations.len());
        assert!(s.bgp_paths > 0);
    }

    #[test]
    fn summary_deterministic() {
        let w = World::new(WorldConfig::tiny(1, 8));
        let r = TimeRange::new(crate::time::SimTime(0), crate::time::SimTime(3600));
        assert_eq!(
            DatasetSummary::collect(&w, r),
            DatasetSummary::collect(&w, r)
        );
    }
}
