//! Standard seeded scenarios for the experiment harness.
//!
//! Every experiment builds its world here so scales and seeds
//! stay consistent and each experiment is reproducible from its
//! default seed. The incident suite re-creates the paper's §6.3
//! validation set: 88 scripted incidents (including the five named
//! case studies) with known ground truth.

use blameit::{Backend, BadnessThresholds, BlameItConfig, BlameItEngine};
use blameit_simnet::{
    Fault, FaultId, FaultRates, FaultTarget, Segment, SimTime, TimeRange, World, WorldConfig,
};
use blameit_topology::gen::ClientBlock;
use blameit_topology::rng::DetRng;
use blameit_topology::{Asn, CloudLocId, Region, Topology, TopologyConfig};
use std::collections::BTreeMap;

/// World scale for experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// ~400 client /24s (unit-test speed).
    Tiny,
    /// ~1500 client /24s (figure regeneration; minutes-long runs).
    Small,
    /// Paper-shaped default (~5000 /24s).
    Default,
}

impl Scale {
    /// Topology configuration at this scale.
    pub fn topology(self, seed: u64) -> TopologyConfig {
        match self {
            Scale::Tiny => TopologyConfig::tiny(seed),
            Scale::Small => TopologyConfig {
                seed,
                broadband_per_metro: 3,
                mobile_per_metro: 1,
                prefixes_per_access: (2, 3),
                prefix_len: (20, 21),
                ..TopologyConfig::default()
            },
            Scale::Default => TopologyConfig {
                seed,
                ..TopologyConfig::default()
            },
        }
    }
}

/// The [`WorldConfig`] behind [`organic_world`]/[`quiet_world`],
/// exposed so scenario files (`blameit-scenario`) can override model
/// knobs — activity, latency, churn, topology — before the world is
/// built. `quiet` zeroes generated faults and churn.
pub fn world_config(scale: Scale, days: u64, seed: u64, quiet: bool) -> WorldConfig {
    let mut cfg = WorldConfig {
        topology: scale.topology(seed ^ 0x7090),
        ..WorldConfig::new(days, seed)
    };
    if quiet {
        cfg.fault_rates = FaultRates {
            cloud_per_loc_day: 0.0,
            middle_per_as_day: 0.0,
            client_as_per_day: 0.0,
            client_prefix_per_k_day: 0.0,
            middle_path_scoped_frac: 0.0,
        };
        cfg.churn_rate_per_day = 0.0;
    }
    cfg
}

/// A world with organic (generated) faults and churn — the standard
/// measurement-study setting.
pub fn organic_world(scale: Scale, days: u64, seed: u64) -> World {
    let _span = blameit_obs::span!("blameit::bench", "organic_world", days = days, seed = seed);
    World::new(world_config(scale, days, seed, false))
}

/// A world with *no* generated faults and no churn: scenarios inject
/// their own.
pub fn quiet_world(scale: Scale, days: u64, seed: u64) -> World {
    let _span = blameit_obs::span!("blameit::bench", "quiet_world", days = days, seed = seed);
    World::new(world_config(scale, days, seed, true))
}

/// The preamble every engine experiment shares: default badness
/// thresholds for `world`, a [`BlameItConfig`] adjusted by `configure`,
/// an engine warmed up through `backend` on every `sample_every`-th
/// bucket of days `0..warmup_days`, and the evaluation range
/// `warmup_days..days`.
pub fn warmed_engine<B: Backend>(
    world: &World,
    backend: &B,
    configure: impl FnOnce(&mut BlameItConfig),
    warmup_days: u64,
    sample_every: u32,
    days: u64,
) -> (BlameItEngine, TimeRange) {
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(world));
    configure(&mut cfg);
    let mut engine = BlameItEngine::new(cfg);
    engine.warmup(backend, TimeRange::days(warmup_days), sample_every);
    let eval = TimeRange::new(SimTime::from_days(warmup_days), SimTime::from_days(days));
    (engine, eval)
}

/// One scripted incident with ground truth, for the §6.3 validation.
#[derive(Clone, Debug)]
pub struct IncidentScenario {
    /// Short name (the five case studies carry the paper's names).
    pub name: String,
    /// The injected fault.
    pub fault: Fault,
    /// Expected coarse blame.
    pub expected_segment: Segment,
    /// Expected culprit AS.
    pub expected_asn: Asn,
    /// Locations where the incident should be visible (empty = any).
    pub visible_at: Vec<CloudLocId>,
}

impl IncidentScenario {
    /// The incident's active window.
    pub fn window(&self) -> TimeRange {
        TimeRange::new(self.fault.start, self.fault.end())
    }
}

/// For each AS, the largest share it holds of any one location's
/// clients (locations with < 6 clients are too small to judge), where
/// `ases_of` names the ASes a client counts towards.
fn max_location_share<I: IntoIterator<Item = Asn>>(
    topo: &Topology,
    ases_of: impl Fn(&ClientBlock) -> I,
) -> BTreeMap<Asn, f64> {
    let mut per_loc_total: BTreeMap<CloudLocId, u32> = BTreeMap::new();
    let mut per_loc_as: BTreeMap<(CloudLocId, Asn), u32> = BTreeMap::new();
    for c in &topo.clients {
        *per_loc_total.entry(c.primary_loc).or_default() += 1;
        for asn in ases_of(c) {
            *per_loc_as.entry((c.primary_loc, asn)).or_default() += 1;
        }
    }
    let mut share: BTreeMap<Asn, f64> = BTreeMap::new();
    for ((loc, asn), n) in per_loc_as {
        let total = per_loc_total[&loc];
        if total >= 6 {
            let e = share.entry(asn).or_default();
            *e = e.max(n as f64 / total as f64);
        }
    }
    share
}

/// The suite under construction. Every incident draws from one RNG
/// stream and one clock, so the order of draws is part of the output.
struct SuiteBuilder<'a> {
    topo: &'a Topology,
    /// Investigated incidents are the strong, unambiguous ones (the
    /// paper's case 5 is an 18× RTT jump); client-fault magnitudes scale
    /// to the region's badness target so every affected /24 breaches it
    /// at its nearest location, not just dual-homed secondaries.
    thresholds: BadnessThresholds,
    /// Share of each location's clients belonging to one access AS —
    /// a client AS holding most of a small edge location's traffic is
    /// indistinguishable from the location itself under hierarchical
    /// elimination (Azure locations serve thousands of ASes; our
    /// simulated ones serve a handful).
    client_loc_share: BTreeMap<Asn, f64>,
    /// Share of each location's clients whose primary route crosses a
    /// given AS — the paper's regime has no middle AS carrying ≥80% of
    /// a location's traffic (each Azure edge is served by many
    /// transits); overconcentrated ASes stay out of the suite, since
    /// hierarchical elimination cannot tell them from the cloud itself.
    middle_loc_share: BTreeMap<Asn, f64>,
    rng: DetRng,
    t: SimTime,
    out: Vec<IncidentScenario>,
}

impl SuiteBuilder<'_> {
    /// The next incident's start; the clock moves 60–90 minutes on.
    fn advance(&mut self) -> SimTime {
        let cur = self.t;
        self.t = self.t + 3_600 + self.rng.below(1_800);
        cur
    }

    /// Holds the clock until 30–60 minutes after the last incident ends.
    fn settle(&mut self) {
        if let Some(last) = self.out.last() {
            let gap_end = last.fault.end() + 1_800 + self.rng.below(1_800);
            if gap_end > self.t {
                self.t = gap_end;
            }
        }
    }

    fn loc_in(&mut self, region: Region) -> CloudLocId {
        let locs: Vec<CloudLocId> = self
            .topo
            .cloud_locations
            .iter()
            .filter(|l| l.region == region)
            .map(|l| l.id)
            .collect();
        *self.rng.pick(&locs)
    }

    /// A broadband client AS serving a given region (any if None). The
    /// paper's investigated client incidents are broadband ISPs (case 5
    /// is a fixed-line ISP); cellular thresholds are loose enough that a
    /// moderate fault can stay under them at the nearest location.
    fn client_as(&mut self, region: Option<Region>) -> Asn {
        let ases: Vec<Asn> = self
            .topo
            .clients
            .iter()
            .filter(|c| !c.mobile)
            .filter(|c| region.is_none_or(|r| c.region == r))
            .filter(|c| self.client_loc_share.get(&c.origin).copied().unwrap_or(0.0) < 0.6)
            .map(|c| c.origin)
            .collect();
        *self.rng.pick(&ases)
    }

    /// A middle AS actually traversed by someone's primary route and
    /// not blanketing any location.
    fn middle_as(&mut self, region_hint: Option<Region>) -> Asn {
        let topo = self.topo;
        let mut ases: Vec<Asn> = Vec::new();
        for c in &topo.clients {
            if region_hint.is_some_and(|r| c.region != r) {
                continue;
            }
            let route = &topo.routes_for(c.primary_loc, c).options[0];
            ases.extend(topo.paths.get(route.path_id).middle.iter().copied());
        }
        ases.sort();
        ases.dedup();
        let diverse: Vec<Asn> = ases
            .iter()
            .copied()
            .filter(|a| self.middle_loc_share.get(a).copied().unwrap_or(0.0) < 0.55)
            .collect();
        let pool = if diverse.is_empty() { &ases } else { &diverse };
        assert!(!pool.is_empty(), "no middle AS for {region_hint:?}");
        *self.rng.pick(pool)
    }

    fn client_fault_ms(&mut self, asn: Asn) -> f64 {
        let region = self
            .topo
            .clients
            .iter()
            .find(|c| c.origin == asn)
            .map(|c| c.region)
            .unwrap_or(Region::Europe);
        let thr = self.thresholds.get(region, false);
        (thr * self.rng.range_f64(0.9, 1.3)).max(80.0)
    }

    /// Appends one incident; the expected coarse blame is the target's
    /// own segment, and a cloud incident is visible at its location.
    fn push(
        &mut self,
        name: String,
        target: FaultTarget,
        expected_asn: Asn,
        start: SimTime,
        duration_secs: u64,
        added_ms: f64,
    ) {
        self.out.push(IncidentScenario {
            name,
            fault: Fault {
                id: FaultId(0),
                target,
                start,
                duration_secs,
                added_ms,
            },
            expected_segment: target.segment(),
            expected_asn,
            visible_at: match target {
                FaultTarget::CloudLocation(loc) => vec![loc],
                _ => vec![],
            },
        });
    }

    /// The five named case studies (§6.3).
    fn case_studies(&mut self) {
        let cloud_asn = self.topo.cloud_asn;
        let as_wide = |asn| FaultTarget::MiddleAs {
            asn,
            via_path: None,
        };
        // 1) "Maintenance in Brazil": unfinished maintenance inside the
        //    cloud location; lasted days.
        let loc = self.loc_in(Region::Brazil);
        let start = self.advance();
        self.t = self.t + 2 * 86_400; // the next incident waits out the two days
        let target = FaultTarget::CloudLocation(loc);
        let name = "case1-brazil-maintenance".into();
        self.push(name, target, cloud_asn, start, 2 * 86_400, 70.0);
        // 2) "Peering fault": a widespread middle-AS issue hitting many US
        //    clients on all paths through the AS.
        self.settle();
        let asn = self.middle_as(Some(Region::UnitedStates));
        let start = self.advance();
        let name = "case2-us-peering-fault".into();
        self.push(name, as_wide(asn), asn, start, 4 * 3_600, 55.0);
        // 3) "Cloud overload in Australia": median RTT 25 → 82 ms from
        //    server CPU overload.
        self.settle();
        let loc = self.loc_in(Region::Australia);
        let start = self.advance();
        let target = FaultTarget::CloudLocation(loc);
        let name = "case3-australia-overload".into();
        self.push(name, target, cloud_asn, start, 3 * 3_600, 57.0);
        // 4) "Traffic shift from East Asia": clients rerouted through a
        //    poorly-connected transit — a path-scoped middle inflation.
        self.settle();
        let asn = self.middle_as(Some(Region::EastAsia));
        let start = self.advance();
        let name = "case4-east-asia-shift".into();
        self.push(name, as_wide(asn), asn, start, 5 * 3_600, 90.0);
        // 5) "Client ISP issues in Italy": median 9 → 161 ms from an
        //    unannounced maintenance inside the client ISP.
        self.settle();
        let asn = self.client_as(Some(Region::Europe));
        let start = self.advance();
        let added_ms = self.client_fault_ms(asn).max(152.0);
        let name = "case5-client-isp-maintenance".into();
        self.push(
            name,
            FaultTarget::ClientAs(asn),
            asn,
            start,
            6 * 3_600,
            added_ms,
        );
    }

    /// One generated incident: cloud, AS-wide middle, or client AS.
    fn generated(&mut self) {
        self.settle();
        let kind = self.rng.below(3);
        let duration_secs = self.rng.range_u64(2_700, 4 * 3_600);
        let start = self.advance();
        let i = self.out.len();
        let (name, target, expected_asn, added_ms) = match kind {
            0 => {
                let locs: Vec<CloudLocId> =
                    self.topo.cloud_locations.iter().map(|l| l.id).collect();
                let loc = *self.rng.pick(&locs);
                let target = FaultTarget::CloudLocation(loc);
                let added_ms = self.rng.range_f64(50.0, 150.0);
                (
                    format!("gen{i}-cloud-{loc}"),
                    target,
                    self.topo.cloud_asn,
                    added_ms,
                )
            }
            1 => {
                let asn = self.middle_as(None);
                let target = FaultTarget::MiddleAs {
                    asn,
                    via_path: None,
                };
                let added_ms = self.rng.range_f64(50.0, 150.0);
                (format!("gen{i}-middle-{asn}"), target, asn, added_ms)
            }
            _ => {
                let asn = self.client_as(None);
                let added_ms = self.client_fault_ms(asn);
                (
                    format!("gen{i}-client-{asn}"),
                    FaultTarget::ClientAs(asn),
                    asn,
                    added_ms,
                )
            }
        };
        self.push(name, target, expected_asn, start, duration_secs, added_ms);
    }
}

/// Builds the 88-incident validation suite over a (quiet) world:
/// 5 named case studies patterned on §6.3 plus 83 generated incidents
/// mixing cloud, middle (AS-wide and path-scoped) and client faults.
/// Incidents are serialized — each starts ≥ 30 minutes after the
/// previous one *ends* — so every one can be scored in isolation, as
/// the paper's individually-investigated incidents were. All are long
/// (≥ 45 min) and strong — they model *investigated* incidents, which
/// are exactly the long-lived, high-impact tail (§2.3).
pub fn incident_suite(world: &World, start_day: u64, seed: u64) -> Vec<IncidentScenario> {
    let _span = blameit_obs::span!("blameit::bench", "incident_suite", start_day = start_day);
    let topo = world.topology();
    let mut suite = SuiteBuilder {
        topo,
        thresholds: BadnessThresholds::default_for(world),
        client_loc_share: max_location_share(topo, |c| [c.origin]),
        middle_loc_share: max_location_share(topo, |c| {
            let route = &topo.routes_for(c.primary_loc, c).options[0];
            topo.paths.get(route.path_id).middle.iter().copied()
        }),
        rng: DetRng::from_keys(seed, &[0x88]),
        t: SimTime::from_days(start_day),
        out: Vec::new(),
    };
    suite.case_studies();
    while suite.out.len() < 88 {
        suite.generated();
    }
    suite.out
}

/// The end of the last incident in a suite (for sizing the world).
pub fn suite_end(suite: &[IncidentScenario]) -> SimTime {
    suite
        .iter()
        .map(|s| s.fault.end())
        .max()
        .unwrap_or(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_88_incidents_with_case_studies() {
        let w = quiet_world(Scale::Tiny, 1, 7);
        let suite = incident_suite(&w, 2, 7);
        assert_eq!(suite.len(), 88);
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        for case in [
            "case1-brazil-maintenance",
            "case2-us-peering-fault",
            "case3-australia-overload",
            "case4-east-asia-shift",
            "case5-client-isp-maintenance",
        ] {
            assert!(names.contains(&case), "{case} missing");
        }
        // Every category represented.
        for seg in [Segment::Cloud, Segment::Middle, Segment::Client] {
            assert!(suite.iter().any(|s| s.expected_segment == seg));
        }
    }

    #[test]
    fn incidents_do_not_overlap() {
        let w = quiet_world(Scale::Tiny, 1, 9);
        let mut suite = incident_suite(&w, 2, 9);
        suite.sort_by_key(|s| s.fault.start);
        for pair in suite.windows(2) {
            assert!(
                pair[1].fault.start >= pair[0].fault.end() + 1_800,
                "{} overlaps {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn suite_deterministic() {
        let w = quiet_world(Scale::Tiny, 1, 11);
        let a = incident_suite(&w, 2, 11);
        let b = incident_suite(&w, 2, 11);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.fault.start, y.fault.start);
            assert_eq!(x.expected_asn, y.expected_asn);
        }
    }

    #[test]
    fn expected_asns_consistent_with_targets() {
        let w = quiet_world(Scale::Tiny, 1, 13);
        for s in incident_suite(&w, 2, 13) {
            match s.fault.target {
                FaultTarget::CloudLocation(_) => {
                    assert_eq!(s.expected_segment, Segment::Cloud);
                    assert_eq!(s.expected_asn, w.topology().cloud_asn);
                }
                FaultTarget::MiddleAs { asn, .. } => {
                    assert_eq!(s.expected_segment, Segment::Middle);
                    assert_eq!(s.expected_asn, asn);
                    let role = w.topology().as_info(asn).unwrap().role;
                    assert!(role.is_middle());
                }
                FaultTarget::ClientAs(asn) => {
                    assert_eq!(s.expected_segment, Segment::Client);
                    assert_eq!(s.expected_asn, asn);
                    assert!(w.topology().as_info(asn).unwrap().role.is_access());
                }
                FaultTarget::ClientPrefix(_) | FaultTarget::MiddleAsReverse { .. } => {
                    unreachable!("suite never uses prefix or reverse faults")
                }
            }
        }
        let _ = blameit_topology::AsRole::Tier1;
    }

    #[test]
    fn quiet_world_truly_quiet() {
        let w = quiet_world(Scale::Tiny, 2, 15);
        assert!(w.faults().is_empty());
        assert!(w.churn_events(TimeRange::days(2)).is_empty());
    }
}
