//! The data-plane abstraction BlameIt runs against.
//!
//! In production (paper Fig. 7) BlameIt consumes: the RTT collector
//! stream, the IP→AS and BGP tables, an IBGP churn feed, and a
//! traceroute agent at each edge. [`Backend`] bundles those five
//! capabilities behind one trait so the engine, the baselines, and the
//! experiment harness all run against the same interface;
//! [`WorldBackend`] implements it over the simulator, counting every
//! traceroute issued (probe volume is a headline metric: BlameIt
//! claims 72× fewer probes than an active-only solution, §6.5).

use blameit_obs::metrics::{Counter, MetricsRegistry};
use blameit_simnet::{
    ChurnFault, FaultPlan, ProbeFault, QuartetObs, RttRecord, SimTime, TimeBucket, TimeRange,
    Traceroute, World,
};
use blameit_topology::bgp::BgpChurnEvent;
use blameit_topology::{Asn, CloudLocId, IpPrefix, MetroId, PathId, Prefix24, Region};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Routing metadata for one (location, client /24) pair at an instant —
/// what the paper's "IP-AS Table" and "BGP Table" joins provide. Ids
/// only, so the per-quartet join allocates nothing; the middle ASes
/// behind `path` are `Topology::paths.get(path)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteInfo {
    /// Interned middle path (the BlameIt middle-segment key).
    pub path: PathId,
    /// Client (origin) AS.
    pub origin: Asn,
    /// Client home metro.
    pub metro: MetroId,
    /// Client region (drives the badness threshold).
    pub region: Region,
    /// BGP-announced prefix covering the /24.
    pub prefix: IpPrefix,
}

/// Everything BlameIt needs from the serving infrastructure.
///
/// `Sync` is a supertrait so the sharded tick can hand `&B` to scoped
/// worker threads; implementations keep any mutable accounting (like
/// the probe counter) behind interior mutability.
pub trait Backend: Sync {
    /// All quartet observations recorded in a bucket.
    fn quartets_in(&self, bucket: TimeBucket) -> Vec<QuartetObs>;

    /// The raw RTT sample stream behind a bucket, for backends that can
    /// expose the collector feed *before* aggregation: records arrive
    /// grouped per client (each quartet's samples contiguous), not
    /// key-sorted — [`crate::columnar::RecordBatch::sort_by_key`] is
    /// the sender's or the admission controller's job.
    /// Returns `None` when the backend only carries pre-aggregated
    /// observations — callers must fall back to [`Backend::quartets_in`].
    ///
    /// Note the simulator's pre-aggregated [`Backend::quartets_in`]
    /// means are sampled directly (a separate RNG stream), so
    /// aggregating this record stream does not reproduce those exact
    /// observations; the record stream is the ground truth for the
    /// ingest bench and the columnar differential harness, while the
    /// engine tick stays on the aggregated feed.
    fn rtt_records_in(&self, _bucket: TimeBucket) -> Option<Vec<RttRecord>> {
        None
    }

    /// Routing metadata for a (location, /24) pair at `at`; `None` for
    /// unknown clients.
    fn route_info(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<RouteInfo>;

    /// Issues a traceroute (counted!). `None` for unknown targets.
    fn traceroute(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<Traceroute>;

    /// IBGP-listener churn events within a range.
    fn churn_events(&self, range: TimeRange) -> Vec<BgpChurnEvent>;

    /// All cloud edge locations.
    fn cloud_locations(&self) -> Vec<CloudLocId>;

    /// Total traceroutes issued so far through this backend.
    fn probes_issued(&self) -> u64;
}

/// [`Backend`] over a simulated [`World`], with probe accounting.
///
/// The probe counter is atomic so concurrent shard workers can issue
/// traceroutes through a shared `&WorldBackend` without losing counts.
/// Quartet ingest — the per-client activity/latency sampling that
/// dominates a tick at scale — fans out over [`crate::shard::parallel_map`];
/// each client's quartets are pure functions of `(seed, ids, bucket)`,
/// and the order-preserving map keeps the stream byte-identical to the
/// sequential loop at any thread count.
#[derive(Debug)]
pub struct WorldBackend<'w> {
    world: &'w World,
    probes: AtomicU64,
    parallelism: usize,
}

impl<'w> WorldBackend<'w> {
    /// Wraps a world; ingest parallelism defaults to
    /// [`crate::shard::default_parallelism`] (safe because the output
    /// does not depend on the thread count).
    pub fn new(world: &'w World) -> Self {
        Self::with_parallelism(world, crate::shard::default_parallelism())
    }

    /// Wraps a world with an explicit ingest thread count (`0` and `1`
    /// both mean inline sequential ingest).
    pub fn with_parallelism(world: &'w World, parallelism: usize) -> Self {
        WorldBackend {
            world,
            probes: AtomicU64::new(0),
            parallelism: parallelism.max(1),
        }
    }

    /// The wrapped world (for evaluation-side ground-truth queries).
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// Resets the probe counter (e.g. after a warm-up phase).
    pub fn reset_probes(&mut self) {
        self.probes.store(0, Ordering::Relaxed);
    }
}

impl Backend for WorldBackend<'_> {
    fn quartets_in(&self, bucket: TimeBucket) -> Vec<QuartetObs> {
        // Same order as `World::quartets_in`: per client, primary then
        // secondary, clients in topology order.
        let world = self.world;
        let clients = &world.topology().clients;
        crate::shard::parallel_map(self.parallelism, clients, |c| {
            [
                world.quartet(c.primary_loc, c, bucket),
                c.secondary_loc
                    .and_then(|sec| world.quartet(sec, c, bucket)),
            ]
        })
        .into_iter()
        .flatten()
        .flatten()
        .collect()
    }

    fn rtt_records_in(&self, bucket: TimeBucket) -> Option<Vec<RttRecord>> {
        // Same client order as `quartets_in`; each client contributes
        // its primary-location samples then (if dual-homed) the
        // secondary's, so every quartet's records are one contiguous
        // run.
        let world = self.world;
        let clients = &world.topology().clients;
        Some(
            crate::shard::parallel_map(self.parallelism, clients, |c| {
                let mut recs = world.rtt_records(c.primary_loc, c, bucket);
                if let Some(sec) = c.secondary_loc {
                    recs.extend(world.rtt_records(sec, c, bucket));
                }
                recs
            })
            .into_iter()
            .flatten()
            .collect(),
        )
    }

    fn route_info(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<RouteInfo> {
        let topo = self.world.topology();
        let c = topo.client(p24)?;
        let route = self.world.route_at(loc, c, at);
        Some(RouteInfo {
            path: route.path_id,
            origin: c.origin,
            metro: c.metro,
            region: c.region,
            prefix: topo.announced_prefix(c).prefix,
        })
    }

    fn traceroute(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<Traceroute> {
        let mut span = blameit_obs::span!(
            "blameit::backend",
            "traceroute",
            loc = loc.0,
            at = at.secs()
        );
        self.probes.fetch_add(1, Ordering::Relaxed);
        let tr = self.world.traceroute(loc, p24, at);
        span.record("hops", tr.as_ref().map_or(0, |t| t.hops.len()));
        tr
    }

    fn churn_events(&self, range: TimeRange) -> Vec<BgpChurnEvent> {
        self.world.churn_events(range)
    }

    fn cloud_locations(&self) -> Vec<CloudLocId> {
        self.world
            .topology()
            .cloud_locations
            .iter()
            .map(|c| c.id)
            .collect()
    }

    fn probes_issued(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

/// Per-kind injection counts of a [`ChaosBackend`], in a fixed order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Traceroutes answered with `None`.
    pub probe_timeouts: u64,
    /// Traceroutes returned with a truncated hop list.
    pub probes_truncated: u64,
    /// Traceroutes whose result timestamp was pushed forward.
    pub probes_delayed: u64,
    /// Whole quartet buckets dropped.
    pub quartet_batches_dropped: u64,
    /// Route-table lookups answered with `None`.
    pub route_infos_dropped: u64,
    /// Churn events delivered twice.
    pub churn_duplicated: u64,
    /// Churn events delivered late.
    pub churn_delayed: u64,
}

impl ChaosStats {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.probe_timeouts
            + self.probes_truncated
            + self.probes_delayed
            + self.quartet_batches_dropped
            + self.route_infos_dropped
            + self.churn_duplicated
            + self.churn_delayed
    }
}

/// Indices into the per-kind counter arrays; order matches
/// [`ChaosStats`] field order and `KIND_LABELS`.
const KIND_PROBE_TIMEOUT: usize = 0;
const KIND_PROBE_TRUNCATED: usize = 1;
const KIND_PROBE_DELAYED: usize = 2;
const KIND_BATCH_DROPPED: usize = 3;
const KIND_ROUTE_DROPPED: usize = 4;
const KIND_CHURN_DUPLICATED: usize = 5;
const KIND_CHURN_DELAYED: usize = 6;
/// The `kind` labels on `blameit_chaos_faults_injected_total`, in
/// counter-array order.
const KIND_LABELS: [&str; 7] = [
    "probe_timeout",
    "probe_truncated",
    "probe_delayed",
    "quartet_batch_dropped",
    "route_info_dropped",
    "churn_duplicated",
    "churn_delayed",
];

/// `registry`'s `blameit_chaos_faults_injected_total{kind=…}` counters,
/// [`KIND_LABELS`] order: a [`ChaosBackend`] counts into and reads them,
/// the snapshot codec saves and re-seeds them.
pub(crate) fn chaos_counters(registry: &MetricsRegistry) -> [Arc<Counter>; 7] {
    KIND_LABELS
        .map(|kind| registry.counter_with("blameit_chaos_faults_injected_total", &[("kind", kind)]))
}

/// [`Backend`] decorator that injects the measurement-plane faults of a
/// [`FaultPlan`] between the engine and any inner backend.
///
/// Every fault decision is keyed on `(plan seed, entity ids, time)` —
/// never on call order or thread identity — so a wrapped run stays
/// byte-deterministic at any thread count, and a zero-rate plan is
/// fully transparent (same answers, same probe accounting).
#[derive(Debug)]
pub struct ChaosBackend<B> {
    inner: B,
    plan: FaultPlan,
    counters: [Arc<Counter>; 7],
}

impl<B: Backend> ChaosBackend<B> {
    /// Wraps `inner` with a fault plan, counting injections in a
    /// registry of its own.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self::with_registry(inner, plan, &MetricsRegistry::new())
    }

    /// Wraps `inner`, counting every injection in `registry`'s
    /// `blameit_chaos_faults_injected_total{kind=…}` counters (share
    /// the registry with the engine to get one exposition covering both
    /// sides). Backends on one registry share those counts.
    pub fn with_registry(inner: B, plan: FaultPlan, registry: &MetricsRegistry) -> Self {
        ChaosBackend {
            inner,
            plan,
            counters: chaos_counters(registry),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Per-kind injection counts, read off the registry counters.
    pub fn stats(&self) -> ChaosStats {
        let n = |i: usize| self.counters[i].get();
        ChaosStats {
            probe_timeouts: n(KIND_PROBE_TIMEOUT),
            probes_truncated: n(KIND_PROBE_TRUNCATED),
            probes_delayed: n(KIND_PROBE_DELAYED),
            quartet_batches_dropped: n(KIND_BATCH_DROPPED),
            route_infos_dropped: n(KIND_ROUTE_DROPPED),
            churn_duplicated: n(KIND_CHURN_DUPLICATED),
            churn_delayed: n(KIND_CHURN_DELAYED),
        }
    }

    /// Total faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.stats().total()
    }

    fn inject(&self, kind: usize) {
        self.counters[kind].inc();
        let _span = blameit_obs::span!("blameit::chaos", "inject", kind = KIND_LABELS[kind]);
    }
}

impl<B: Backend> Backend for ChaosBackend<B> {
    fn quartets_in(&self, bucket: TimeBucket) -> Vec<QuartetObs> {
        if self.plan.drop_quartet_batch(bucket) {
            self.inject(KIND_BATCH_DROPPED);
            return Vec::new();
        }
        self.inner.quartets_in(bucket)
    }

    fn rtt_records_in(&self, bucket: TimeBucket) -> Option<Vec<RttRecord>> {
        // A dropped collector batch loses the raw samples too.
        if self.plan.drop_quartet_batch(bucket) {
            self.inject(KIND_BATCH_DROPPED);
            return Some(Vec::new());
        }
        self.inner.rtt_records_in(bucket)
    }

    fn route_info(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<RouteInfo> {
        if self.plan.drop_route_info(loc, p24, at) {
            self.inject(KIND_ROUTE_DROPPED);
            return None;
        }
        self.inner.route_info(loc, p24, at)
    }

    fn traceroute(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<Traceroute> {
        // The inner backend is always consulted so the probe *counts*:
        // a timed-out traceroute was still sent.
        let tr = self.inner.traceroute(loc, p24, at);
        match self.plan.probe_fault(loc, p24, at) {
            ProbeFault::None => tr,
            ProbeFault::Timeout => {
                self.inject(KIND_PROBE_TIMEOUT);
                None
            }
            ProbeFault::Truncate { keep_fraction } => {
                let mut tr = tr?;
                if tr.hops.len() < 2 {
                    // Nothing to cut without emptying the result; a
                    // one-hop answer degenerates to a timeout.
                    self.inject(KIND_PROBE_TIMEOUT);
                    return None;
                }
                let keep = ((tr.hops.len() as f64 * keep_fraction).ceil() as usize)
                    .clamp(1, tr.hops.len() - 1);
                tr.hops.truncate(keep);
                self.inject(KIND_PROBE_TRUNCATED);
                Some(tr)
            }
            ProbeFault::Slow { by_secs } => {
                let mut tr = tr?;
                tr.at = tr.at + by_secs;
                self.inject(KIND_PROBE_DELAYED);
                Some(tr)
            }
        }
    }

    fn churn_events(&self, range: TimeRange) -> Vec<BgpChurnEvent> {
        if !self.plan.has_churn_faults() {
            return self.inner.churn_events(range);
        }
        // Widen the query backwards so events delayed *into* this
        // window are seen. The fate of an event is keyed on its own
        // identity, and engine consumers query contiguous
        // non-overlapping windows, so each event is delivered exactly
        // once (at its effective time) and duplicates exactly twice.
        let lookback = self.plan.max_churn_delay_secs();
        let wide = TimeRange::new(
            SimTime(range.start.secs().saturating_sub(lookback)),
            range.end,
        );
        let mut out = Vec::new();
        for e in self.inner.churn_events(wide) {
            let original = range.contains(SimTime(e.at_secs));
            match self.plan.churn_fault(&e) {
                ChurnFault::Deliver => {
                    if original {
                        out.push(e);
                    }
                }
                ChurnFault::Duplicate => {
                    if original {
                        self.inject(KIND_CHURN_DUPLICATED);
                        out.push(e);
                        out.push(e);
                    }
                }
                ChurnFault::Delay(d) => {
                    if range.contains(SimTime(e.at_secs + d)) {
                        self.inject(KIND_CHURN_DELAYED);
                        out.push(e);
                    }
                }
            }
        }
        out.sort_by_key(|e| (e.at_secs, e.loc, e.prefix));
        out
    }

    fn cloud_locations(&self) -> Vec<CloudLocId> {
        self.inner.cloud_locations()
    }

    fn probes_issued(&self) -> u64 {
        self.inner.probes_issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_simnet::WorldConfig;

    #[test]
    fn world_backend_roundtrip() {
        let w = World::new(WorldConfig::tiny(1, 4));
        let mut b = WorldBackend::new(&w);
        let c = &w.topology().clients[0];
        let info = b
            .route_info(c.primary_loc, c.p24, SimTime(600))
            .expect("known client");
        assert_eq!(info.origin, c.origin);
        assert_eq!(info.region, c.region);
        assert!(info.prefix.covers_24(c.p24));
        assert_eq!(
            info.path,
            w.route_at(c.primary_loc, c, SimTime(600)).path_id
        );
        assert_eq!(b.probes_issued(), 0);
        assert!(b.traceroute(c.primary_loc, c.p24, SimTime(600)).is_some());
        assert!(b
            .traceroute(c.primary_loc, Prefix24::from_block(0xFFFFFF), SimTime(0))
            .is_none());
        // Failed lookups still count: the probe was sent.
        assert_eq!(b.probes_issued(), 2);
        b.reset_probes();
        assert_eq!(b.probes_issued(), 0);
    }

    #[test]
    fn parallel_ingest_matches_sequential_world_order() {
        let w = World::new(WorldConfig::tiny(2, 7));
        for bucket in [TimeBucket(0), TimeBucket(12), TimeBucket(100)] {
            let want = w.quartets_in(bucket);
            for par in [1, 2, 8] {
                let b = WorldBackend::with_parallelism(&w, par);
                assert_eq!(b.quartets_in(bucket), want, "par={par}");
            }
        }
    }

    #[test]
    fn rtt_record_stream_is_parallelism_invariant_and_run_shaped() {
        let w = World::new(WorldConfig::tiny(2, 7));
        let bucket = TimeBucket(140);
        let want = WorldBackend::with_parallelism(&w, 1)
            .rtt_records_in(bucket)
            .expect("world backend exposes raw records");
        assert!(!want.is_empty());
        for par in [2, 8] {
            let b = WorldBackend::with_parallelism(&w, par);
            assert_eq!(b.rtt_records_in(bucket).unwrap(), want, "par={par}");
        }
        // Collector shape: each quartet's samples form one contiguous
        // run (as many runs as quartets), and the aggregate covers
        // exactly the simulator's quartets.
        let mut arena = crate::columnar::IngestArena::new();
        let mut store = crate::columnar::QuartetStore::new();
        let batch = crate::columnar::RecordBatch::from_records(bucket, &want);
        crate::columnar::aggregate_batch_reuse(&batch, &mut arena, &mut store);
        let runs = 1 + batch.keys.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(runs, store.len(), "stream must be run-shaped");
        let sim = w.quartets_in(bucket);
        assert_eq!(store.len(), sim.len());
        let agg = store.to_obs();
        let mut sim_sorted = sim;
        sim_sorted.sort_by_key(|q| (q.bucket, q.loc, q.p24, q.mobile));
        for (a, s) in agg.iter().zip(&sim_sorted) {
            assert_eq!(
                (a.loc, a.p24, a.mobile, a.bucket),
                (s.loc, s.p24, s.mobile, s.bucket)
            );
            assert_eq!(a.n, s.n, "sample count per quartet");
        }
    }

    #[test]
    fn backend_lists_locations() {
        let w = World::new(WorldConfig::tiny(1, 4));
        let b = WorldBackend::new(&w);
        assert_eq!(
            b.cloud_locations().len(),
            w.topology().cloud_locations.len()
        );
    }

    #[test]
    fn noop_chaos_backend_is_transparent() {
        let w = World::new(WorldConfig::tiny(2, 21));
        let plain = WorldBackend::new(&w);
        let chaos = ChaosBackend::new(WorldBackend::new(&w), FaultPlan::none(1));
        let c = &w.topology().clients[0];
        for bucket in [TimeBucket(0), TimeBucket(30), TimeBucket(288)] {
            assert_eq!(chaos.quartets_in(bucket), plain.quartets_in(bucket));
        }
        let t = SimTime::from_hours(12);
        assert_eq!(
            chaos.route_info(c.primary_loc, c.p24, t),
            plain.route_info(c.primary_loc, c.p24, t)
        );
        assert_eq!(
            chaos.traceroute(c.primary_loc, c.p24, t),
            plain.traceroute(c.primary_loc, c.p24, t)
        );
        let day = TimeRange::days(1);
        assert_eq!(chaos.churn_events(day), plain.churn_events(day));
        assert_eq!(chaos.probes_issued(), plain.probes_issued());
        assert_eq!(chaos.stats(), ChaosStats::default());
        assert_eq!(chaos.faults_injected(), 0);
    }

    #[test]
    fn timed_out_probes_still_count() {
        let w = World::new(WorldConfig::tiny(1, 8));
        let plan = FaultPlan {
            probe_timeout: 1.0,
            ..FaultPlan::none(2)
        };
        let chaos = ChaosBackend::new(WorldBackend::new(&w), plan);
        let c = &w.topology().clients[0];
        assert!(chaos
            .traceroute(c.primary_loc, c.p24, SimTime(600))
            .is_none());
        assert_eq!(chaos.probes_issued(), 1);
        assert_eq!(chaos.stats().probe_timeouts, 1);
    }

    #[test]
    fn truncated_probes_lose_their_tail_but_keep_a_hop() {
        let w = World::new(WorldConfig::tiny(1, 8));
        let plan = FaultPlan {
            probe_truncate: 1.0,
            ..FaultPlan::none(3)
        };
        let chaos = ChaosBackend::new(WorldBackend::new(&w), plan);
        let inner = WorldBackend::new(&w);
        let c = &w.topology().clients[0];
        let t = SimTime::from_hours(10);
        let full = inner.traceroute(c.primary_loc, c.p24, t).unwrap();
        let cut = chaos.traceroute(c.primary_loc, c.p24, t).unwrap();
        assert!(!cut.hops.is_empty());
        assert!(cut.hops.len() < full.hops.len());
        assert_eq!(cut.hops[..], full.hops[..cut.hops.len()]);
        assert_eq!(chaos.stats().probes_truncated, 1);
    }

    #[test]
    fn slow_probes_arrive_late() {
        let w = World::new(WorldConfig::tiny(1, 8));
        let plan = FaultPlan {
            probe_slow: 1.0,
            slow_by_secs: 45,
            ..FaultPlan::none(4)
        };
        let chaos = ChaosBackend::new(WorldBackend::new(&w), plan);
        let c = &w.topology().clients[0];
        let t = SimTime::from_hours(10);
        let tr = chaos.traceroute(c.primary_loc, c.p24, t).unwrap();
        assert_eq!(tr.at, t + 45);
        assert_eq!(chaos.stats().probes_delayed, 1);
    }

    #[test]
    fn dropped_batches_are_empty_and_counted() {
        let w = World::new(WorldConfig::tiny(2, 8));
        let plan = FaultPlan {
            drop_quartet_batch: 1.0,
            ..FaultPlan::none(5)
        };
        let chaos = ChaosBackend::new(WorldBackend::new(&w), plan);
        assert!(chaos.quartets_in(TimeBucket(140)).is_empty());
        assert_eq!(chaos.stats().quartet_batches_dropped, 1);
        // The raw sample stream is lost with the batch.
        assert_eq!(chaos.rtt_records_in(TimeBucket(140)), Some(Vec::new()));
        assert_eq!(chaos.stats().quartet_batches_dropped, 2);
    }

    #[test]
    fn delayed_churn_delivers_exactly_once_across_windows() {
        let w = World::new(WorldConfig::tiny(2, 77));
        let plan = FaultPlan {
            churn_delay: 1.0,
            churn_delay_secs: 900,
            ..FaultPlan::none(6)
        };
        let chaos = ChaosBackend::new(WorldBackend::new(&w), plan);
        let inner = WorldBackend::new(&w);
        // Query two days in consecutive 900 s windows; every event of
        // day 0 must appear exactly once, shifted into a later window.
        let horizon = 2 * 86_400;
        let mut delivered = Vec::new();
        let mut t = 0;
        while t < horizon {
            delivered.extend(chaos.churn_events(TimeRange::new(SimTime(t), SimTime(t + 900))));
            t += 900;
        }
        let mut want = inner.churn_events(TimeRange::new(SimTime(0), SimTime(horizon - 900)));
        want.sort_by_key(|e| (e.at_secs, e.loc, e.prefix));
        let mut got: Vec<_> = delivered
            .iter()
            .filter(|e| e.at_secs + 900 < horizon)
            .copied()
            .collect();
        got.sort_by_key(|e| (e.at_secs, e.loc, e.prefix));
        assert!(!want.is_empty(), "the world must churn");
        assert_eq!(got, want);
        assert_eq!(chaos.stats().churn_delayed, delivered.len() as u64);
    }

    #[test]
    fn duplicated_churn_delivers_exactly_twice() {
        let w = World::new(WorldConfig::tiny(2, 77));
        let plan = FaultPlan {
            churn_duplicate: 1.0,
            ..FaultPlan::none(7)
        };
        let chaos = ChaosBackend::new(WorldBackend::new(&w), plan);
        let inner = WorldBackend::new(&w);
        let day = TimeRange::days(1);
        let got = chaos.churn_events(day);
        let want = inner.churn_events(day);
        assert!(!want.is_empty(), "the world must churn");
        assert_eq!(got.len(), 2 * want.len());
        for pair in got.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
        assert_eq!(chaos.stats().churn_duplicated, want.len() as u64);
    }

    #[test]
    fn backends_share_counts_exactly_when_they_share_a_registry() {
        let w = World::new(WorldConfig::tiny(1, 8));
        let plan = FaultPlan {
            probe_timeout: 1.0,
            ..FaultPlan::none(8)
        };
        let shared = MetricsRegistry::new();
        let a = ChaosBackend::with_registry(WorldBackend::new(&w), plan, &shared);
        let b = ChaosBackend::with_registry(WorldBackend::new(&w), plan, &shared);
        let apart =
            ChaosBackend::with_registry(WorldBackend::new(&w), plan, &MetricsRegistry::new());
        let own = ChaosBackend::new(WorldBackend::new(&w), plan);
        let c = &w.topology().clients[0];
        a.traceroute(c.primary_loc, c.p24, SimTime(600));
        b.traceroute(c.primary_loc, c.p24, SimTime(900));
        assert_eq!(a.stats().probe_timeouts, 2, "one registry, one count");
        assert_eq!(a.stats(), b.stats());
        assert_eq!(chaos_counters(&shared)[KIND_PROBE_TIMEOUT].get(), 2);
        assert_eq!(apart.stats(), ChaosStats::default());
        assert_eq!(own.stats(), ChaosStats::default());
    }
}
