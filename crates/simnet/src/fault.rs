//! Fault injection: the simulator's ground truth.
//!
//! Every latency degradation in the synthetic world is caused by a
//! scheduled [`Fault`] targeting one network segment — mirroring the
//! paper's Insight-1 that "typically, only one of the cloud, middle, or
//! client network segments causes the inflation" (§4.1). The
//! [`FaultSchedule`] generator draws fault durations from a long-tailed
//! mixture calibrated to §2.3 (over 60% of issues last ≤ 5 minutes,
//! ~8% last over 2 hours) and schedules more middle-segment faults in
//! regions with immature transit (§6.2: India, China, Brazil).
//!
//! Because faults are explicit objects, evaluation code can always ask
//! the simulator *which AS really was at fault* — the role played by
//! Azure's manual incident investigations in the paper (§6.3).

use crate::time::{SimTime, TimeRange};
use blameit_topology::rng::DetRng;
use blameit_topology::{Asn, CloudLocId, PathId, Prefix24, Region, Topology};
use std::fmt;

/// The coarse path segment a fault (or a blame) lands on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Segment {
    /// The cloud provider's own network/servers.
    Cloud,
    /// Any AS between the cloud and the client AS.
    Middle,
    /// The client's ISP (or the client prefix itself).
    Client,
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Segment::Cloud => "cloud",
            Segment::Middle => "middle",
            Segment::Client => "client",
        })
    }
}

/// What a fault afflicts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultTarget {
    /// The cloud location itself: server overload, internal routing
    /// trouble (§6.3 cases 1 and 3). Inflates *all* connections served
    /// by the location.
    CloudLocation(CloudLocId),
    /// A middle AS. With `via_path: Some(p)`, only traffic on that
    /// exact BGP path is affected — the localized-issue case §3.1
    /// insists on ("a problem along certain paths but not all").
    MiddleAs {
        /// The faulty transit/backbone AS.
        asn: Asn,
        /// Optional scope: only this middle path is affected.
        via_path: Option<PathId>,
    },
    /// A middle AS fault afflicting only the *reverse* (client→cloud)
    /// direction. Internet routing is asymmetric (§5.1 cites He et al.); a
    /// reverse-path fault inflates the handshake RTT but is invisible
    /// to the per-hop structure of a forward traceroute — the
    /// motivation for the paper's proposed client-coordinated reverse
    /// traceroutes.
    MiddleAsReverse {
        /// The faulty AS on the reverse path.
        asn: Asn,
    },
    /// A client ISP (e.g. the Italian ISP maintenance, §6.3 case 5).
    ClientAs(Asn),
    /// A single client /24 (very local last-mile trouble).
    ClientPrefix(Prefix24),
}

impl FaultTarget {
    /// The segment this target belongs to.
    pub fn segment(self) -> Segment {
        match self {
            FaultTarget::CloudLocation(_) => Segment::Cloud,
            FaultTarget::MiddleAs { .. } | FaultTarget::MiddleAsReverse { .. } => Segment::Middle,
            FaultTarget::ClientAs(_) | FaultTarget::ClientPrefix(_) => Segment::Client,
        }
    }
}

/// Identifier of a fault within a schedule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FaultId(pub u32);

/// A scheduled latency fault.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    /// Identifier.
    pub id: FaultId,
    /// What is afflicted.
    pub target: FaultTarget,
    /// Start instant.
    pub start: SimTime,
    /// Duration in seconds.
    pub duration_secs: u64,
    /// Round-trip milliseconds added to affected connections while
    /// active.
    pub added_ms: f64,
}

impl Fault {
    /// Exclusive end instant.
    pub fn end(&self) -> SimTime {
        self.start + self.duration_secs
    }

    /// True if active at instant `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }
}

/// Per-category daily fault counts for the generator, before regional
/// scaling.
#[derive(Clone, Copy, Debug)]
pub struct FaultRates {
    /// Cloud-location faults per location per day.
    pub cloud_per_loc_day: f64,
    /// Middle-AS faults per middle AS per day (scaled up by transit
    /// immaturity of the AS's region).
    pub middle_per_as_day: f64,
    /// Client-AS faults per access AS per day.
    pub client_as_per_day: f64,
    /// Per-/24 faults per 1000 client blocks per day.
    pub client_prefix_per_k_day: f64,
    /// Fraction of middle faults that are path-scoped rather than
    /// AS-wide.
    pub middle_path_scoped_frac: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            cloud_per_loc_day: 0.05,
            middle_per_as_day: 1.5,
            client_as_per_day: 0.4,
            client_prefix_per_k_day: 20.0,
            middle_path_scoped_frac: 0.8,
        }
    }
}

/// Draws one incident duration from the calibrated long-tailed mixture:
/// with probability 0.72 an exponential of mean 150 s (min 60 s), else
/// a Pareto(xm = 300 s, α = 0.4) capped at 20 h. This lands near the
/// paper's Fig. 4a: ≈60% of incidents ≤ 5 min, ≈8% ≥ 2 h.
pub fn sample_duration_secs(rng: &mut DetRng) -> u64 {
    if rng.chance(0.72) {
        rng.exponential(150.0).max(60.0) as u64
    } else {
        rng.pareto(300.0, 0.4).min(72_000.0) as u64
    }
}

/// The full set of faults for a simulation run, indexed for fast
/// "active at t" queries.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// All faults, sorted by start time.
    faults: Vec<Fault>,
    /// Per-hour index: `hour_index[h]` lists (by position in `faults`)
    /// every fault overlapping hour `h`. Telemetry generation queries
    /// active faults billions of times across a month; scanning a
    /// start-time window costs ~100× more than this lookup.
    hour_index: Vec<Vec<u32>>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Builds from an explicit fault list (ids are reassigned in start
    /// order).
    pub fn from_faults(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| (f.start, f.duration_secs));
        for (i, f) in faults.iter_mut().enumerate() {
            f.id = FaultId(i as u32);
        }
        let max_end_hour = faults
            .iter()
            .map(|f| f.end().secs() / 3_600 + 1)
            .max()
            .unwrap_or(0) as usize;
        let mut hour_index = vec![Vec::new(); max_end_hour];
        for (i, f) in faults.iter().enumerate() {
            let first = (f.start.secs() / 3_600) as usize;
            let last = (f.end().secs() / 3_600) as usize;
            let last = last.min(max_end_hour.saturating_sub(1));
            for slot in hour_index[first..=last].iter_mut() {
                slot.push(i as u32);
            }
        }
        FaultSchedule { faults, hour_index }
    }

    /// Generates a schedule for `range` over `topo` with the given
    /// rates, deterministically in `seed`. Extra hand-placed faults
    /// (scenario incidents) can be appended via [`FaultSchedule::merged_with`].
    pub fn generate(topo: &Topology, range: TimeRange, rates: &FaultRates, seed: u64) -> Self {
        let mut faults = Vec::new();
        let days = range.secs() as f64 / 86_400.0;

        // Cloud-location faults. Durations are capped at 3 hours: the
        // paper observes cloud issues "generally last for lesser
        // durations than middle or client segment issues, possibly
        // explained by Azure dedicating a team to fix them at the
        // earliest" (Fig. 10).
        for loc in &topo.cloud_locations {
            let mut rng = DetRng::from_keys(seed, &[0xFA_01, loc.id.0 as u64]);
            let n = rng.poisson(rates.cloud_per_loc_day * days);
            for _ in 0..n {
                let start = range.start + rng.below(range.secs());
                faults.push(Fault {
                    id: FaultId(0),
                    target: FaultTarget::CloudLocation(loc.id),
                    start,
                    duration_secs: sample_duration_secs(&mut rng).min(3 * 3_600),
                    added_ms: rng.lognormal(45f64.ln(), 0.5).clamp(15.0, 200.0),
                });
            }
        }

        // Middle-AS faults, region-scaled: immature transit breaks more.
        for a in &topo.ases {
            if !a.role.is_middle() {
                continue;
            }
            let mut rng = DetRng::from_keys(seed, &[0xFA_02, a.asn.0 as u64]);
            // Home region of the AS: mode of its PoP metros' regions.
            let region = as_home_region(topo, a.asn);
            let scale = match region {
                Some(r) => 0.4 + 2.2 * (1.0 - r.transit_maturity()),
                None => 1.0, // global tier-1
            };
            let n = rng.poisson(rates.middle_per_as_day * scale * days);
            for _ in 0..n {
                let start = range.start + rng.below(range.secs());
                let via_path = if rng.chance(rates.middle_path_scoped_frac) {
                    pick_path_containing(topo, a.asn, &mut rng)
                } else {
                    None
                };
                faults.push(Fault {
                    id: FaultId(0),
                    target: FaultTarget::MiddleAs {
                        asn: a.asn,
                        via_path,
                    },
                    start,
                    duration_secs: sample_duration_secs(&mut rng),
                    added_ms: rng.lognormal(35f64.ln(), 0.6).clamp(10.0, 300.0),
                });
            }
        }

        // Client-AS faults.
        for a in &topo.ases {
            if !a.role.is_access() {
                continue;
            }
            let mut rng = DetRng::from_keys(seed, &[0xFA_03, a.asn.0 as u64]);
            let n = rng.poisson(rates.client_as_per_day * days);
            for _ in 0..n {
                let start = range.start + rng.below(range.secs());
                faults.push(Fault {
                    id: FaultId(0),
                    target: FaultTarget::ClientAs(a.asn),
                    start,
                    duration_secs: sample_duration_secs(&mut rng),
                    added_ms: rng.lognormal(45f64.ln(), 0.7).clamp(15.0, 400.0),
                });
            }
        }

        // Per-/24 faults (lots of tiny, fleeting last-mile issues).
        {
            let mut rng = DetRng::from_keys(seed, &[0xFA_04]);
            let n = rng
                .poisson(rates.client_prefix_per_k_day * topo.clients.len() as f64 / 1000.0 * days);
            for _ in 0..n {
                let c = &topo.clients[rng.index(topo.clients.len())];
                let start = range.start + rng.below(range.secs());
                faults.push(Fault {
                    id: FaultId(0),
                    target: FaultTarget::ClientPrefix(c.p24),
                    start,
                    duration_secs: sample_duration_secs(&mut rng),
                    added_ms: rng.lognormal(50f64.ln(), 0.7).clamp(15.0, 400.0),
                });
            }
        }

        FaultSchedule::from_faults(faults)
    }

    /// Returns a new schedule with `extra` faults merged in.
    pub fn merged_with(&self, extra: Vec<Fault>) -> FaultSchedule {
        let mut all = self.faults.clone();
        all.extend(extra);
        FaultSchedule::from_faults(all)
    }

    /// All faults, sorted by start.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// A fault by id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn fault(&self, id: FaultId) -> &Fault {
        &self.faults[id.0 as usize]
    }

    /// Faults active at instant `t`.
    pub fn active_at(&self, t: SimTime) -> impl Iterator<Item = &Fault> {
        let hour = (t.secs() / 3_600) as usize;
        let slot: &[u32] = self
            .hour_index
            .get(hour)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        slot.iter()
            .map(|i| &self.faults[*i as usize])
            .filter(move |f| f.active_at(t))
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// The region where an AS has most of its PoPs (None for well-spread
/// global backbones).
pub fn as_home_region(topo: &Topology, asn: Asn) -> Option<Region> {
    let mut counts = [0usize; Region::ALL.len()];
    let mut total = 0usize;
    for pop in topo.graph.pops_of(asn) {
        counts[topo.metro(pop.metro).region.index()] += 1;
        total += 1;
    }
    if total == 0 {
        return None;
    }
    let (best_idx, best) = counts.iter().enumerate().max_by_key(|(_, c)| **c).unwrap();
    // "Home" only if a strict majority of PoPs are there.
    if *best * 2 > total {
        Some(Region::ALL[best_idx])
    } else {
        None
    }
}

/// Picks an interned path containing `asn` (for path-scoped faults), or
/// `None` if the AS appears on no path.
fn pick_path_containing(topo: &Topology, asn: Asn, rng: &mut DetRng) -> Option<PathId> {
    let candidates: Vec<PathId> = topo
        .paths
        .iter()
        .filter(|(_, p)| p.middle.contains(&asn))
        .map(|(id, _)| id)
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(*rng.pick(&candidates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::tiny(11))
    }

    #[test]
    fn fault_activity_window() {
        let f = Fault {
            id: FaultId(0),
            target: FaultTarget::CloudLocation(CloudLocId(0)),
            start: SimTime(1000),
            duration_secs: 600,
            added_ms: 50.0,
        };
        assert!(!f.active_at(SimTime(999)));
        assert!(f.active_at(SimTime(1000)));
        assert!(f.active_at(SimTime(1599)));
        assert!(!f.active_at(SimTime(1600)));
        assert_eq!(f.end(), SimTime(1600));
    }

    #[test]
    fn duration_mixture_matches_fig4a_shape() {
        let mut rng = DetRng::new(42);
        let n = 50_000;
        let durations: Vec<u64> = (0..n).map(|_| sample_duration_secs(&mut rng)).collect();
        let le_5min = durations.iter().filter(|&&d| d <= 300).count() as f64 / n as f64;
        let ge_2h = durations.iter().filter(|&&d| d >= 7200).count() as f64 / n as f64;
        assert!((0.52..0.72).contains(&le_5min), "≤5min fraction {le_5min}");
        assert!((0.04..0.13).contains(&ge_2h), "≥2h fraction {ge_2h}");
        assert!(durations.iter().all(|&d| (60..=72_000).contains(&d)));
    }

    #[test]
    fn schedule_sorted_and_ids_dense() {
        let t = topo();
        let s = FaultSchedule::generate(&t, TimeRange::days(3), &FaultRates::default(), 7);
        assert!(!s.is_empty());
        for w in s.faults().windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        for (i, f) in s.faults().iter().enumerate() {
            assert_eq!(f.id, FaultId(i as u32));
        }
    }

    #[test]
    fn active_at_matches_linear_scan() {
        let t = topo();
        let s = FaultSchedule::generate(&t, TimeRange::days(2), &FaultRates::default(), 9);
        for probe in [0u64, 3_600, 40_000, 90_000, 170_000] {
            let t0 = SimTime(probe);
            let fast: Vec<FaultId> = s.active_at(t0).map(|f| f.id).collect();
            let slow: Vec<FaultId> = s
                .faults()
                .iter()
                .filter(|f| f.active_at(t0))
                .map(|f| f.id)
                .collect();
            assert_eq!(fast, slow, "at {t0}");
        }
    }

    #[test]
    fn generation_deterministic() {
        let t = topo();
        let a = FaultSchedule::generate(&t, TimeRange::days(2), &FaultRates::default(), 5);
        let b = FaultSchedule::generate(&t, TimeRange::days(2), &FaultRates::default(), 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.faults().iter().zip(b.faults()) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.target, y.target);
        }
        let c = FaultSchedule::generate(&t, TimeRange::days(2), &FaultRates::default(), 6);
        assert!(
            a.len() != c.len()
                || a.faults()
                    .iter()
                    .zip(c.faults())
                    .any(|(x, y)| x.start != y.start)
        );
    }

    #[test]
    fn immature_regions_get_more_middle_faults() {
        let t = Topology::with_seed(21);
        let s = FaultSchedule::generate(&t, TimeRange::days(14), &FaultRates::default(), 13);
        let mut counts: std::collections::HashMap<Asn, usize> = std::collections::HashMap::new();
        for f in s.faults() {
            if let FaultTarget::MiddleAs { asn, .. } = f.target {
                *counts.entry(asn).or_default() += 1;
            }
        }
        // Compare the per-AS fault rate of clearly-immature transit
        // regions (maturity < 0.6) against clearly-mature ones (> 0.85).
        let rate = |pred: &dyn Fn(f64) -> bool| -> f64 {
            let ases: Vec<Asn> = t
                .ases
                .iter()
                .filter(|a| a.role == blameit_topology::AsRole::Transit)
                .filter(|a| {
                    as_home_region(&t, a.asn)
                        .map(|r| pred(r.transit_maturity()))
                        .unwrap_or(false)
                })
                .map(|a| a.asn)
                .collect();
            let total: usize = ases
                .iter()
                .map(|a| counts.get(a).copied().unwrap_or(0))
                .sum();
            total as f64 / ases.len() as f64
        };
        let immature = rate(&|m| m < 0.6);
        let mature = rate(&|m| m > 0.85);
        assert!(
            immature > 1.5 * mature,
            "immature {immature} vs mature {mature}"
        );
    }

    #[test]
    fn merged_with_reindexes() {
        let t = topo();
        let s = FaultSchedule::generate(&t, TimeRange::days(1), &FaultRates::default(), 3);
        let extra = Fault {
            id: FaultId(9999),
            target: FaultTarget::CloudLocation(CloudLocId(0)),
            start: SimTime(50),
            duration_secs: 100,
            added_ms: 80.0,
        };
        let merged = s.merged_with(vec![extra]);
        assert_eq!(merged.len(), s.len() + 1);
        for (i, f) in merged.faults().iter().enumerate() {
            assert_eq!(f.id, FaultId(i as u32));
        }
        assert!(merged
            .active_at(SimTime(60))
            .any(|f| matches!(f.target, FaultTarget::CloudLocation(CloudLocId(0)))));
    }

    #[test]
    fn target_segments() {
        assert_eq!(
            FaultTarget::CloudLocation(CloudLocId(0)).segment(),
            Segment::Cloud
        );
        assert_eq!(
            FaultTarget::MiddleAs {
                asn: Asn(1),
                via_path: None
            }
            .segment(),
            Segment::Middle
        );
        assert_eq!(FaultTarget::ClientAs(Asn(1)).segment(), Segment::Client);
        assert_eq!(
            FaultTarget::ClientPrefix(Prefix24::from_block(1)).segment(),
            Segment::Client
        );
    }

    #[test]
    fn home_region_of_regional_transit() {
        let t = topo();
        // Every transit AS in the tiny topology covers exactly one region.
        for a in &t.ases {
            if a.role == blameit_topology::AsRole::Transit {
                assert!(as_home_region(&t, a.asn).is_some(), "{}", a.name);
            }
        }
    }
}
