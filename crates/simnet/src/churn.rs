//! BGP route churn over time.
//!
//! The generator gives every (location, announced prefix) a primary
//! route and alternates ([`blameit_topology::bgp::RouteOptions`]);
//! this module decides *which* option is live at each instant. Change
//! points arrive as a Poisson process per route, tuned so that about
//! two-thirds of routes see no churn in a day — the stability the
//! paper measured from Azure's IBGP feed ("nearly two-thirds of the
//! BGP paths at the routers do not see any churn in an entire day",
//! §5.4). Every change point is also exported as a
//! [`BgpChurnEvent`], the simulated IBGP-listener feed that triggers
//! background traceroutes.

use crate::time::{SimTime, TimeRange};
use blameit_topology::bgp::{BgpChurnEvent, RouteOption};
use blameit_topology::fxhash::DetHashMap;
use blameit_topology::rng::DetRng;
use blameit_topology::{CloudLocId, Topology};

/// Churn state for a whole simulation run.
#[derive(Clone, Debug)]
pub struct ChurnModel {
    /// Change instants per (location, prefix index), sorted ascending.
    /// Routes with a single option or no events are absent.
    events: DetHashMap<(CloudLocId, u32), Vec<SimTime>>,
    /// All events flattened and time-sorted: `(at, loc, prefix_idx,
    /// flip ordinal)`. The analysis engine asks for "events since the
    /// last tick" thousands of times per run; slicing this index is
    /// O(log n + answer) instead of a full-map scan.
    timeline: Vec<(SimTime, CloudLocId, u32, u32)>,
    /// Expected change points per route per day.
    rate_per_day: f64,
}

impl ChurnModel {
    /// Generates churn for all (location, prefix) routes over `range`.
    /// `rate_per_day = 0.4` reproduces the paper's two-thirds-stable
    /// observation (`P[Poisson(0.4) = 0] ≈ 0.67`).
    pub fn generate(topo: &Topology, range: TimeRange, rate_per_day: f64, seed: u64) -> Self {
        let mut events = DetHashMap::default();
        let days = range.secs() as f64 / 86_400.0;
        for (pi, p) in topo.prefixes.iter().enumerate() {
            for loc in &topo.cloud_locations {
                let ro = topo.bgp.lookup(loc.id, p.prefix).expect("bound");
                if ro.options.len() < 2 {
                    continue; // nowhere to churn to
                }
                let mut rng = DetRng::from_keys(seed, &[0xC4_42, loc.id.0 as u64, pi as u64]);
                let n = rng.poisson(rate_per_day * days);
                if n == 0 {
                    continue;
                }
                let mut times: Vec<SimTime> = (0..n)
                    .map(|_| range.start + rng.below(range.secs()))
                    .collect();
                times.sort();
                times.dedup();
                events.insert((loc.id, pi as u32), times);
            }
        }
        let mut timeline: Vec<(SimTime, CloudLocId, u32, u32)> = events
            .iter()
            .flat_map(|((loc, pi), times)| {
                times
                    .iter()
                    .enumerate()
                    .map(move |(k, t)| (*t, *loc, *pi, k as u32))
            })
            .collect();
        timeline.sort();
        ChurnModel {
            events,
            timeline,
            rate_per_day,
        }
    }

    /// A churn-free model (for controlled experiments).
    pub fn none() -> Self {
        ChurnModel {
            events: DetHashMap::default(),
            timeline: Vec::new(),
            rate_per_day: 0.0,
        }
    }

    /// The configured rate.
    pub fn rate_per_day(&self) -> f64 {
        self.rate_per_day
    }

    /// Index of the live route option for (loc, prefix index) at `t`:
    /// the number of change points at or before `t`, cycling through
    /// the available options.
    pub fn option_index(
        &self,
        loc: CloudLocId,
        prefix_idx: u32,
        n_options: usize,
        t: SimTime,
    ) -> usize {
        if n_options <= 1 {
            return 0;
        }
        match self.events.get(&(loc, prefix_idx)) {
            None => 0,
            Some(times) => {
                let flips = times.partition_point(|x| *x <= t);
                flips % n_options
            }
        }
    }

    /// The live route option at `t`.
    pub fn route_at<'a>(
        &self,
        topo: &'a Topology,
        loc: CloudLocId,
        prefix_idx: u32,
        t: SimTime,
    ) -> &'a RouteOption {
        let p = &topo.prefixes[prefix_idx as usize];
        let ro = topo.bgp.lookup(loc, p.prefix).expect("bound");
        let i = self.option_index(loc, prefix_idx, ro.options.len(), t);
        &ro.options[i]
    }

    /// All churn events in `range`, as the IBGP listener would report
    /// them, sorted by time (ties broken by location and prefix).
    pub fn events_in(&self, topo: &Topology, range: TimeRange) -> Vec<BgpChurnEvent> {
        let lo = self
            .timeline
            .partition_point(|(t, _, _, _)| *t < range.start);
        let hi = self.timeline.partition_point(|(t, _, _, _)| *t < range.end);
        let mut out: Vec<BgpChurnEvent> = self.timeline[lo..hi]
            .iter()
            .map(|(t, loc, pi, k)| {
                let p = &topo.prefixes[*pi as usize];
                let ro = topo.bgp.lookup(*loc, p.prefix).expect("bound");
                let n = ro.options.len();
                let old = *k as usize % n;
                let new = (*k as usize + 1) % n;
                BgpChurnEvent {
                    at_secs: t.secs(),
                    loc: *loc,
                    prefix: p.prefix,
                    old_path: ro.options[old].path_id,
                    new_path: ro.options[new].path_id,
                }
            })
            .collect();
        out.sort_by_key(|e| (e.at_secs, e.loc, e.prefix));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::tiny(5))
    }

    #[test]
    fn none_model_is_static() {
        let t = topo();
        let m = ChurnModel::none();
        for c in t.clients.iter().take(10) {
            let a = m.route_at(&t, c.primary_loc, c.prefix_idx, SimTime(0));
            let b = m.route_at(&t, c.primary_loc, c.prefix_idx, SimTime(86_400 * 30));
            assert_eq!(a.path_id, b.path_id);
        }
        assert!(m.events.is_empty());
    }

    #[test]
    fn two_thirds_of_routes_stable_per_day() {
        let t = Topology::with_seed(31);
        let m = ChurnModel::generate(&t, TimeRange::days(1), 0.4, 77);
        // Count (loc, prefix) routes with ≥2 options (churn-capable).
        let mut capable = 0usize;
        for p in &t.prefixes {
            for loc in &t.cloud_locations {
                if t.bgp.lookup(loc.id, p.prefix).unwrap().options.len() >= 2 {
                    capable += 1;
                }
            }
        }
        // One `events` entry per route with at least one change point.
        let stable_frac = 1.0 - m.events.len() as f64 / capable as f64;
        assert!(
            (0.58..0.78).contains(&stable_frac),
            "stable fraction {stable_frac}"
        );
    }

    #[test]
    fn option_index_steps_at_events() {
        let t = topo();
        let m = ChurnModel::generate(&t, TimeRange::days(7), 1.0, 3);
        // Find a route with events.
        let ((loc, pi), times) = m
            .events
            .iter()
            .next()
            .expect("7 days at rate 1/day must churn something");
        let p = &t.prefixes[*pi as usize];
        let n = t.bgp.lookup(*loc, p.prefix).unwrap().options.len();
        let before = m.option_index(*loc, *pi, n, times[0] - 1);
        let after = m.option_index(*loc, *pi, n, times[0]);
        assert_eq!(before, 0);
        assert_eq!(after, 1 % n);
    }

    #[test]
    fn events_sorted_and_in_range() {
        let t = topo();
        let m = ChurnModel::generate(&t, TimeRange::days(7), 1.0, 9);
        let r = TimeRange::new(SimTime::from_days(2), SimTime::from_days(4));
        let evs = m.events_in(&t, r);
        for w in evs.windows(2) {
            assert!(w[0].at_secs <= w[1].at_secs);
        }
        for e in &evs {
            assert!(r.contains(SimTime(e.at_secs)));
            // old/new path ids may coincide when two route options share
            // the same AS sequence over different PoPs; the IBGP
            // listener still reports the change.
        }
    }

    #[test]
    fn deterministic() {
        let t = topo();
        let a = ChurnModel::generate(&t, TimeRange::days(3), 0.5, 11);
        let b = ChurnModel::generate(&t, TimeRange::days(3), 0.5, 11);
        assert_eq!(
            a.events_in(&t, TimeRange::days(3)),
            b.events_in(&t, TimeRange::days(3))
        );
    }
}
