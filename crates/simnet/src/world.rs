//! The `World`: topology + models + faults + churn, with ground truth.
//!
//! A [`World`] is one fully-specified simulation run. It answers every
//! question the reproduction needs:
//!
//! * what telemetry did the cloud record? — [`World::quartet`],
//!   [`World::quartets_in`], [`World::rtt_records`];
//! * what would a traceroute have seen? — [`World::traceroute`];
//! * what did the IBGP listener report? — [`World::churn_events`];
//! * and, crucially, *what was actually wrong* — [`World::ground_truth`],
//!   playing the role of the paper's manual incident investigations
//!   (§6.3) when scoring BlameIt's localization.
//!
//! Everything is deterministic in the config seed and addressable in
//! isolation: asking for one quartet does not require simulating any
//! other.

use crate::activity::ActivityModel;
use crate::churn::ChurnModel;
use crate::fault::{Fault, FaultId, FaultRates, FaultSchedule, FaultTarget, Segment};
use crate::latency::{LatencyModel, SegRtt};
use crate::measure::{QuartetObs, RttRecord};
use crate::time::{SimTime, TimeBucket, TimeRange};
use crate::traceroute::{Traceroute, TracerouteHop, TracerouteNoise};
use blameit_topology::bgp::{BgpChurnEvent, RouteOption};
use blameit_topology::gen::ClientBlock;
use blameit_topology::rng::DetRng;
use blameit_topology::{Asn, CloudLocId, Prefix24, Topology, TopologyConfig};

/// Full configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Topology generation parameters.
    pub topology: TopologyConfig,
    /// Simulated time span (faults and churn are generated for it).
    pub range: TimeRange,
    /// Fault arrival rates.
    pub fault_rates: FaultRates,
    /// Client activity parameters.
    pub activity: ActivityModel,
    /// Latency model parameters.
    pub latency: LatencyModel,
    /// Traceroute observation noise.
    pub traceroute_noise: TracerouteNoise,
    /// BGP churn events per route per day (0.4 ≈ paper's stability).
    pub churn_rate_per_day: f64,
    /// Master seed for faults, churn, and telemetry noise.
    pub seed: u64,
}

impl WorldConfig {
    /// A default-scale world covering `days` days with the given seed.
    pub fn new(days: u64, seed: u64) -> Self {
        let latency = LatencyModel {
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1A7E,
            ..LatencyModel::default()
        };
        WorldConfig {
            topology: TopologyConfig {
                seed: seed ^ 0x7090,
                ..TopologyConfig::default()
            },
            range: TimeRange::days(days),
            fault_rates: FaultRates::default(),
            activity: ActivityModel::default(),
            latency,
            traceroute_noise: TracerouteNoise::default(),
            churn_rate_per_day: 0.4,
            seed,
        }
    }

    /// A reduced-scale world for fast tests.
    pub fn tiny(days: u64, seed: u64) -> Self {
        WorldConfig {
            topology: TopologyConfig::tiny(seed ^ 0x7090),
            ..WorldConfig::new(days, seed)
        }
    }
}

/// Who was really to blame for an inflated path, per the simulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Culprit {
    /// The coarse segment at fault.
    pub segment: Segment,
    /// The specific AS at fault (cloud AS for cloud faults, the faulty
    /// middle AS, or the client's origin AS).
    pub asn: Asn,
    /// The scheduled fault behind it, if any (`None` when evening
    /// congestion alone is responsible).
    pub fault: Option<FaultId>,
}

/// Ground-truth decomposition of one (location, client, instant).
#[derive(Clone, Debug)]
pub struct GroundTruth {
    /// Fault-free segmented RTT (client segment *excludes* evening
    /// congestion; that is reported as inflation below).
    pub baseline: SegRtt,
    /// Cloud-segment inflation (ms) and its fault.
    pub cloud_infl_ms: f64,
    /// Per-middle-AS inflation (ms) with the responsible fault.
    pub middle_infl: Vec<(Asn, f64, FaultId)>,
    /// Client-segment inflation from scheduled faults (ms).
    pub client_fault_infl_ms: f64,
    /// Client-segment inflation from evening congestion (ms).
    pub congestion_ms: f64,
    /// The dominant cause, if total inflation is material (≥ 5 ms).
    pub culprit: Option<Culprit>,
    /// Fraction of the total inflation contributed by the dominant
    /// single cause (1.0 when there is exactly one cause) — the
    /// quantity behind the paper's Insight-1 (§4.1).
    pub dominant_fraction: f64,
}

impl GroundTruth {
    /// Total inflation across all causes (ms).
    pub fn total_inflation_ms(&self) -> f64 {
        self.cloud_infl_ms
            + self.middle_infl.iter().map(|m| m.1).sum::<f64>()
            + self.client_fault_infl_ms
            + self.congestion_ms
    }

    /// The RTT the telemetry would center on.
    pub fn inflated_total_ms(&self) -> f64 {
        self.baseline.total() + self.total_inflation_ms()
    }
}

/// A fully-specified simulation run.
#[derive(Clone, Debug)]
pub struct World {
    topo: Topology,
    cfg: WorldConfig,
    faults: FaultSchedule,
    churn: ChurnModel,
}

impl World {
    /// Generates a world from a config (topology, faults, churn).
    pub fn new(cfg: WorldConfig) -> World {
        let topo = Topology::generate(cfg.topology.clone());
        let faults = FaultSchedule::generate(&topo, cfg.range, &cfg.fault_rates, cfg.seed ^ 0xFA);
        let churn = if cfg.churn_rate_per_day > 0.0 {
            ChurnModel::generate(&topo, cfg.range, cfg.churn_rate_per_day, cfg.seed ^ 0xC4)
        } else {
            ChurnModel::none()
        };
        World {
            topo,
            cfg,
            faults,
            churn,
        }
    }

    /// Adds extra hand-placed faults to an existing world.
    pub fn add_faults(&mut self, extra: Vec<Fault>) {
        self.faults = self.faults.merged_with(extra);
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// The fault schedule (ground truth).
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// The churn model.
    pub fn churn(&self) -> &ChurnModel {
        &self.churn
    }

    /// The live route for a client block toward a location at `t`.
    pub fn route_at(&self, loc: CloudLocId, c: &ClientBlock, t: SimTime) -> &RouteOption {
        self.churn.route_at(&self.topo, loc, c.prefix_idx, t)
    }

    /// The *reverse* (client→cloud) route at `t`, read in cloud→client
    /// orientation for comparability. Internet paths are asymmetric
    /// (§5.1): with probability ~40% per (route, day) the reverse
    /// direction takes a different option of the same route set.
    pub fn reverse_route_at(&self, loc: CloudLocId, c: &ClientBlock, t: SimTime) -> &RouteOption {
        let p = &self.topo.prefixes[c.prefix_idx as usize];
        let ro = self.topo.bgp.lookup(loc, p.prefix).expect("bound");
        let forward = self.route_at(loc, c, t);
        if ro.options.len() < 2 {
            return forward;
        }
        let mut rng = DetRng::from_keys(
            self.cfg.seed,
            &[0x4E5E, loc.0 as u64, c.prefix_idx as u64, t.day() as u64],
        );
        if rng.chance(0.6) {
            forward
        } else {
            // A different option than the forward one, deterministically.
            let fwd_idx = ro
                .options
                .iter()
                .position(|o| std::ptr::eq(o, forward))
                .unwrap_or(0);
            let alt = (fwd_idx + 1 + rng.index(ro.options.len() - 1)) % ro.options.len();
            &ro.options[alt]
        }
    }

    /// IBGP-listener events in a range.
    pub fn churn_events(&self, range: TimeRange) -> Vec<BgpChurnEvent> {
        self.churn.events_in(&self.topo, range)
    }

    /// Ground truth for (location, client, instant): baseline segments,
    /// all active inflations, and the dominant culprit.
    pub fn ground_truth(&self, loc: CloudLocId, c: &ClientBlock, t: SimTime) -> GroundTruth {
        let route = self.route_at(loc, c, t);
        let base_with_cong = self.cfg.latency.baseline(&self.topo, loc, c, route, t);
        let congestion_ms = self.cfg.latency.evening_congestion(&self.topo, c, t);
        let baseline = SegRtt {
            client_ms: base_with_cong.client_ms - congestion_ms,
            ..base_with_cong
        };

        let mut cloud_infl_ms = 0.0;
        let mut cloud_fault = None;
        let mut middle_infl: Vec<(Asn, f64, FaultId)> = Vec::new();
        let mut client_fault_infl_ms = 0.0;
        let mut client_fault = None;
        for f in self.faults.active_at(t) {
            match f.target {
                FaultTarget::CloudLocation(l) if l == loc => {
                    cloud_infl_ms += f.added_ms;
                    cloud_fault = Some(f.id);
                }
                FaultTarget::MiddleAs { asn, via_path } => {
                    let middle = &self.topo.paths.get(route.path_id).middle;
                    if middle.contains(&asn) && via_path.is_none_or(|p| p == route.path_id) {
                        middle_infl.push((asn, f.added_ms, f.id));
                    }
                }
                FaultTarget::MiddleAsReverse { asn } => {
                    let rev = self.reverse_route_at(loc, c, t);
                    if self.topo.paths.get(rev.path_id).middle.contains(&asn) {
                        middle_infl.push((asn, f.added_ms, f.id));
                    }
                }
                FaultTarget::ClientAs(a) if a == c.origin => {
                    client_fault_infl_ms += f.added_ms;
                    client_fault = Some(f.id);
                }
                FaultTarget::ClientPrefix(p) if p == c.p24 => {
                    client_fault_infl_ms += f.added_ms;
                    client_fault = Some(f.id);
                }
                _ => {}
            }
        }

        // Dominant single cause.
        let mut candidates: Vec<(Segment, Asn, f64, Option<FaultId>)> = Vec::new();
        if cloud_infl_ms > 0.0 {
            candidates.push((
                Segment::Cloud,
                self.topo.cloud_asn,
                cloud_infl_ms,
                cloud_fault,
            ));
        }
        for (asn, ms, fid) in &middle_infl {
            candidates.push((Segment::Middle, *asn, *ms, Some(*fid)));
        }
        let client_total = client_fault_infl_ms + congestion_ms;
        if client_total > 0.0 {
            candidates.push((Segment::Client, c.origin, client_total, client_fault));
        }
        let total: f64 =
            cloud_infl_ms + middle_infl.iter().map(|m| m.1).sum::<f64>() + client_total;
        let (culprit, dominant_fraction) =
            match candidates.iter().max_by(|a, b| a.2.total_cmp(&b.2)) {
                Some((seg, asn, ms, fid)) if total >= 5.0 => (
                    Some(Culprit {
                        segment: *seg,
                        asn: *asn,
                        fault: *fid,
                    }),
                    ms / total,
                ),
                Some((_, _, ms, _)) => (None, ms / total),
                None => (None, 1.0),
            };

        GroundTruth {
            baseline,
            cloud_infl_ms,
            middle_infl,
            client_fault_infl_ms,
            congestion_ms,
            culprit,
            dominant_fraction,
        }
    }

    /// Whether (and how heavily) a client talks to a location:
    /// `None` if it never does, `Some(secondary)` otherwise.
    fn connection_kind(&self, loc: CloudLocId, c: &ClientBlock) -> Option<bool> {
        if c.primary_loc == loc {
            Some(false)
        } else if c.secondary_loc == Some(loc) {
            Some(true)
        } else {
            None
        }
    }

    /// The quartet observation for (location, client, bucket), or
    /// `None` if the client does not use that location or recorded no
    /// connections in the bucket.
    pub fn quartet(
        &self,
        loc: CloudLocId,
        c: &ClientBlock,
        bucket: TimeBucket,
    ) -> Option<QuartetObs> {
        let secondary = self.connection_kind(loc, c)?;
        let t = bucket.mid();
        let mut act_rng = DetRng::from_keys(
            self.cfg.seed,
            &[0xAC71, loc.0 as u64, c.p24.block() as u64, bucket.0 as u64],
        );
        let n = self
            .cfg
            .activity
            .sample_connections(&self.topo, c, t, secondary, &mut act_rng);
        if n == 0 {
            return None;
        }
        let gt = self.ground_truth(loc, c, t);
        let mean = gt.inflated_total_ms();
        let mut rtt_rng = DetRng::from_keys(
            self.cfg.seed,
            &[0x0B5E, loc.0 as u64, c.p24.block() as u64, bucket.0 as u64],
        );
        let mean_rtt_ms = self.cfg.latency.quartet_mean_rtt(mean, n, &mut rtt_rng);
        Some(QuartetObs {
            loc,
            p24: c.p24,
            mobile: c.mobile,
            bucket,
            n,
            mean_rtt_ms,
        })
    }

    /// All quartets recorded in a bucket, across every location
    /// (primary connections plus dual-homed secondaries), in
    /// deterministic client order.
    pub fn quartets_in(&self, bucket: TimeBucket) -> Vec<QuartetObs> {
        let mut out = Vec::new();
        for c in &self.topo.clients {
            if let Some(q) = self.quartet(c.primary_loc, c, bucket) {
                out.push(q);
            }
            if let Some(sec) = c.secondary_loc {
                if let Some(q) = self.quartet(sec, c, bucket) {
                    out.push(q);
                }
            }
        }
        out
    }

    /// Sample-level RTT records for one quartet (slow path; same
    /// connection count as [`World::quartet`], individual noise draws).
    pub fn rtt_records(
        &self,
        loc: CloudLocId,
        c: &ClientBlock,
        bucket: TimeBucket,
    ) -> Vec<RttRecord> {
        let Some(secondary) = self.connection_kind(loc, c) else {
            return Vec::new();
        };
        let t = bucket.mid();
        let mut act_rng = DetRng::from_keys(
            self.cfg.seed,
            &[0xAC71, loc.0 as u64, c.p24.block() as u64, bucket.0 as u64],
        );
        let n = self
            .cfg
            .activity
            .sample_connections(&self.topo, c, t, secondary, &mut act_rng);
        if n == 0 {
            return Vec::new();
        }
        let gt = self.ground_truth(loc, c, t);
        let mean = gt.inflated_total_ms();
        let mut rng = DetRng::from_keys(
            self.cfg.seed,
            &[0x5A31, loc.0 as u64, c.p24.block() as u64, bucket.0 as u64],
        );
        (0..n)
            .map(|i| RttRecord {
                loc,
                p24: c.p24,
                mobile: c.mobile,
                at: SimTime(bucket.start().secs() + (i as u64 * 300) / n as u64),
                rtt_ms: self.cfg.latency.sample_rtt(mean, &mut rng),
            })
            .collect()
    }

    /// Issues a traceroute from a location toward a client /24 at `t`.
    /// Returns `None` for an unknown /24. **This is the expensive
    /// operation BlameIt budgets** — callers are expected to count
    /// invocations (see the probe accounting in the evaluation crates).
    pub fn traceroute(&self, loc: CloudLocId, p24: Prefix24, t: SimTime) -> Option<Traceroute> {
        let c = self.topo.client(p24)?;
        let route = self.route_at(loc, c, t);
        let gt = self.ground_truth(loc, c, t);
        let noise = self.cfg.traceroute_noise;
        let mut rng = DetRng::from_keys(
            self.cfg.seed,
            &[0x7FAC, loc.0 as u64, p24.block() as u64, t.secs()],
        );

        // Reverse-direction middle inflations hit every hop's RTT (the
        // echo reply crosses the reverse path regardless of which
        // forward hop answered) — which is exactly why forward-only
        // probing cannot localize them (§5.1).
        let rev_route = self.reverse_route_at(loc, c, t);
        let rev_middle = &self.topo.paths.get(rev_route.path_id).middle;
        let mut reverse_infl = 0.0;
        for f in self.faults.active_at(t) {
            if let FaultTarget::MiddleAsReverse { asn } = f.target {
                if rev_middle.contains(&asn) {
                    reverse_infl += f.added_ms;
                }
            }
        }
        // Pre-compute where each middle inflation starts applying.
        let drift = self.cfg.latency.path_drift(route, t);
        let n_hops = route.as_hops.len();
        let mut hops = Vec::with_capacity(n_hops);
        for (i, h) in route.as_hops.iter().enumerate() {
            let mut rtt = 2.0 * h.cum_oneway_ms + 1.0; // +1 ms server stack
                                                       // Cloud faults delay every probe the server sends.
            rtt += gt.cloud_infl_ms;
            // Reverse-path faults delay every reply.
            rtt += reverse_infl;
            // Forward middle faults delay this hop if the faulty AS is
            // at or before it on the path.
            for (fasn, ms, fid) in &gt.middle_infl {
                let is_reverse = matches!(
                    self.faults.fault(*fid).target,
                    FaultTarget::MiddleAsReverse { .. }
                );
                if !is_reverse && route.as_hops[..=i].iter().any(|x| x.asn == *fasn) {
                    rtt += ms;
                }
            }
            // Day-long internal drift applies from its AS onward, same
            // as a middle fault would (it lives in the same hops).
            if let Some((dasn, dms)) = drift {
                if route.as_hops[..=i].iter().any(|x| x.asn == dasn) {
                    rtt += dms;
                }
            }
            let is_last = i == n_hops - 1;
            if is_last {
                // Final hop sits past the last mile, inside the client
                // network.
                rtt +=
                    self.cfg.latency.last_mile_ms(c) + gt.client_fault_infl_ms + gt.congestion_ms;
            }
            rtt += rng.normal() * noise.hop_sigma_ms;
            let responded = i == 0 || is_last || !rng.chance(noise.non_response_prob);
            hops.push(TracerouteHop {
                asn: h.asn,
                metro: h.metro,
                rtt_ms: rtt.max(0.1),
                responded,
                segment: if i == 0 {
                    Segment::Cloud
                } else if is_last {
                    Segment::Client
                } else {
                    Segment::Middle
                },
            });
        }
        Some(Traceroute {
            loc,
            p24,
            at: t,
            hops,
        })
    }

    /// A client-coordinated **reverse** traceroute (client → cloud),
    /// the §5.1 extension: "Azure already has many users with rich
    /// clients that can be coordinated to issue traceroutes to measure
    /// the client-to-cloud paths." Hops run client-first; reverse-path
    /// middle faults inflate hops at/after the faulty AS, so a
    /// reverse diff *can* localize what the forward probe cannot.
    pub fn reverse_traceroute(
        &self,
        loc: CloudLocId,
        p24: Prefix24,
        t: SimTime,
    ) -> Option<Traceroute> {
        let c = self.topo.client(p24)?;
        let route = self.reverse_route_at(loc, c, t).clone();
        let gt = self.ground_truth(loc, c, t);
        let noise = self.cfg.traceroute_noise;
        let mut rng = DetRng::from_keys(
            self.cfg.seed,
            &[0x4EFA, loc.0 as u64, p24.block() as u64, t.secs()],
        );
        let total = route.total_oneway_ms;
        let n_hops = route.as_hops.len();
        // Client-first hop order; cumulative one-way from the client =
        // total − (cum from cloud at the PREVIOUS hop).
        let mut hops = Vec::with_capacity(n_hops);
        for (j, h) in route.as_hops.iter().enumerate().rev() {
            let from_client = if j == 0 {
                total
            } else {
                total - route.as_hops[j - 1].cum_oneway_ms
            };
            let mut rtt = 2.0 * from_client + self.cfg.latency.last_mile_ms(c);
            // Reverse middle faults apply once the probe has crossed
            // the faulty AS (client side first).
            for f in self.faults.active_at(t) {
                if let FaultTarget::MiddleAsReverse { asn } = f.target {
                    if route.as_hops[j..].iter().any(|x| x.asn == asn) {
                        rtt += f.added_ms;
                    }
                }
            }
            // Forward faults and client faults inflate every reply.
            rtt += gt
                .middle_infl
                .iter()
                .filter(|(_, _, fid)| {
                    !matches!(
                        self.faults.fault(*fid).target,
                        FaultTarget::MiddleAsReverse { .. }
                    )
                })
                .map(|(_, ms, _)| ms)
                .sum::<f64>();
            rtt += gt.client_fault_infl_ms + gt.congestion_ms;
            if j == 0 {
                // Final hop reaches the cloud location itself.
                rtt += gt.cloud_infl_ms + self.topo.cloud_location(loc).base_cloud_ms;
            }
            rtt += rng.normal() * noise.hop_sigma_ms;
            let is_first = j == n_hops - 1;
            let is_last = j == 0;
            let responded = is_first || is_last || !rng.chance(noise.non_response_prob);
            hops.push(TracerouteHop {
                asn: h.asn,
                metro: h.metro,
                rtt_ms: rtt.max(0.1),
                responded,
                segment: if is_last {
                    Segment::Cloud
                } else if is_first {
                    Segment::Client
                } else {
                    Segment::Middle
                },
            });
        }
        Some(Traceroute {
            loc,
            p24,
            at: t,
            hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world(days: u64, seed: u64) -> World {
        World::new(WorldConfig::tiny(days, seed))
    }

    #[test]
    fn quartets_deterministic_and_isolated() {
        let w = tiny_world(1, 42);
        let b = TimeBucket(100);
        let all = w.quartets_in(b);
        assert!(!all.is_empty());
        // Re-deriving a single quartet matches the batch result.
        for q in all.iter().take(20) {
            let c = w.topology().client(q.p24).unwrap();
            let again = w.quartet(q.loc, c, b).unwrap();
            assert_eq!(&again, q);
        }
    }

    #[test]
    fn quartet_none_for_unrelated_location() {
        let w = tiny_world(1, 42);
        let c = &w.topology().clients[0];
        let other = w
            .topology()
            .cloud_locations
            .iter()
            .find(|l| l.id != c.primary_loc && Some(l.id) != c.secondary_loc)
            .unwrap();
        assert!(w.quartet(other.id, c, TimeBucket(10)).is_none());
    }

    #[test]
    fn rtt_records_consistent_with_quartet() {
        let w = tiny_world(1, 7);
        let b = TimeBucket(130);
        let mut checked = 0;
        for c in &w.topology().clients {
            if let Some(q) = w.quartet(c.primary_loc, c, b) {
                let recs = w.rtt_records(c.primary_loc, c, b);
                assert_eq!(recs.len() as u32, q.n);
                // Same underlying mean; independent noise draws (and a
                // spike can dominate a small sample), so only compare
                // well-populated quartets, within a loose band.
                if q.n >= 20 {
                    let mean: f64 = recs.iter().map(|r| r.rtt_ms).sum::<f64>() / recs.len() as f64;
                    let rel = (mean - q.mean_rtt_ms).abs() / q.mean_rtt_ms;
                    assert!(rel < 0.25, "rel diff {rel} (n={})", q.n);
                    checked += 1;
                }
                if checked > 30 {
                    break;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn cloud_fault_shows_in_ground_truth_and_rtt() {
        let mut w = tiny_world(1, 9);
        let loc = w.topology().cloud_locations[0].id;
        w.add_faults(vec![Fault {
            id: FaultId(0),
            target: FaultTarget::CloudLocation(loc),
            start: SimTime(0),
            duration_secs: 86_400,
            added_ms: 100.0,
        }]);
        let c = w
            .topology()
            .clients
            .iter()
            .find(|c| c.primary_loc == loc)
            .expect("location serves someone")
            .clone();
        let gt = w.ground_truth(loc, &c, SimTime(1000));
        assert!(gt.cloud_infl_ms >= 100.0);
        let culprit = gt.culprit.expect("100 ms is material");
        assert_eq!(culprit.segment, Segment::Cloud);
        assert_eq!(culprit.asn, w.topology().cloud_asn);
    }

    #[test]
    fn middle_fault_scoped_to_path() {
        let w = tiny_world(1, 21);
        // Find a client whose primary route has a middle AS.
        let (c, asn) = w
            .topology()
            .clients
            .iter()
            .find_map(|c| {
                let r = w.route_at(c.primary_loc, c, SimTime(0));
                let mid = &w.topology().paths.get(r.path_id).middle;
                mid.first().map(|a| (c.clone(), *a))
            })
            .expect("some path has a middle AS");
        let route = w.route_at(c.primary_loc, &c, SimTime(0)).clone();
        let mut w2 = w.clone();
        w2.add_faults(vec![Fault {
            id: FaultId(0),
            target: FaultTarget::MiddleAs {
                asn,
                via_path: Some(route.path_id),
            },
            start: SimTime(0),
            duration_secs: 86_400,
            added_ms: 80.0,
        }]);
        let gt = w2.ground_truth(c.primary_loc, &c, SimTime(600));
        assert!(
            gt.middle_infl
                .iter()
                .any(|(a, ms, _)| *a == asn && *ms >= 80.0),
            "scoped middle fault must hit its own path"
        );
        // A client on a different path via a different middle is spared.
        let other = w2
            .topology()
            .clients
            .iter()
            .find(|o| {
                let r = w2.route_at(o.primary_loc, o, SimTime(600));
                r.path_id != route.path_id
            })
            .unwrap();
        let gt2 = w2.ground_truth(other.primary_loc, other, SimTime(600));
        assert!(gt2
            .middle_infl
            .iter()
            .all(|(_, _, fid)| *fid != FaultId(0) || gt2.middle_infl.is_empty()));
    }

    #[test]
    fn traceroute_reflects_middle_fault() {
        let w = tiny_world(1, 33);
        let (c, asn) = w
            .topology()
            .clients
            .iter()
            .find_map(|c| {
                let r = w.route_at(c.primary_loc, c, SimTime(0));
                let mid = &w.topology().paths.get(r.path_id).middle;
                mid.first().map(|a| (c.clone(), *a))
            })
            .unwrap();
        let before = w.traceroute(c.primary_loc, c.p24, SimTime(600)).unwrap();
        let mut w2 = w.clone();
        w2.add_faults(vec![Fault {
            id: FaultId(0),
            target: FaultTarget::MiddleAs {
                asn,
                via_path: None,
            },
            start: SimTime(0),
            duration_secs: 86_400,
            added_ms: 60.0,
        }]);
        let after = w2.traceroute(c.primary_loc, c.p24, SimTime(600)).unwrap();
        // Contribution of the faulty AS rises by ~60 ms.
        let contr = |t: &Traceroute| -> f64 {
            t.as_contributions()
                .iter()
                .filter(|(a, _)| *a == asn)
                .map(|(_, ms)| *ms)
                .sum()
        };
        let delta = contr(&after) - contr(&before);
        assert!(
            (delta - 60.0).abs() < 10.0,
            "expected ~60 ms rise at {asn}, got {delta}"
        );
        // End-to-end inflates too.
        assert!(after.end_to_end_ms().unwrap() > before.end_to_end_ms().unwrap() + 40.0);
    }

    #[test]
    fn traceroute_unknown_prefix_is_none() {
        let w = tiny_world(1, 1);
        assert!(w
            .traceroute(CloudLocId(0), Prefix24::from_block(0xFFFFFF), SimTime(0))
            .is_none());
    }

    #[test]
    fn ground_truth_congestion_counts_toward_client() {
        let w = tiny_world(1, 13);
        // Scan for a home-broadband client in its local evening with
        // material congestion.
        let mut found = false;
        'outer: for c in w
            .topology()
            .clients
            .iter()
            .filter(|c| !c.mobile && !c.enterprise)
        {
            for h in 0..24u64 {
                let t = SimTime::from_hours(h);
                let gt = w.ground_truth(c.primary_loc, c, t);
                if gt.congestion_ms > 5.0
                    && gt.cloud_infl_ms == 0.0
                    && gt.middle_infl.is_empty()
                    && gt.client_fault_infl_ms == 0.0
                {
                    if let Some(culprit) = gt.culprit {
                        assert_eq!(culprit.segment, Segment::Client);
                        assert_eq!(culprit.asn, c.origin);
                        assert_eq!(culprit.fault, None);
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "no congested evening quartet found");
    }

    #[test]
    fn world_generation_deterministic() {
        let a = tiny_world(2, 5);
        let b = tiny_world(2, 5);
        assert_eq!(a.faults().len(), b.faults().len());
        let qa = a.quartets_in(TimeBucket(50));
        let qb = b.quartets_in(TimeBucket(50));
        assert_eq!(qa, qb);
    }
}
