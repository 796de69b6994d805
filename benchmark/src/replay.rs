//! The `replay` workload: the engine alone, over quartets that were
//! sampled from the simulator during set-up.
//!
//! No wire, admission, WAL, journal or snapshot runs here, and no
//! simulator sampling either: [`ReplayBackend`] serves pre-materialised
//! `quartets_in` vectors and delegates only routing, traceroutes and
//! churn to `WorldBackend`. Each rep is a fresh engine: `warmup` over
//! day 0, then one `tick` per window of the evaluation range.

use crate::daemon::Exact;
use crate::inputs::{build_world, engine_config, feed_start, warmup_range, Deadline, SetupTimings};
use crate::layers::LayerAcc;
use crate::spans::Tracer;
use blameit::{
    tick_digest, Backend, BlameItConfig, BlameItEngine, RouteInfo, TickOutput, WorldBackend,
};
use blameit_bench::Scale;
use blameit_daemon::IngestStats;
use blameit_simnet::{QuartetObs, RttRecord, SimTime, TimeBucket, TimeRange, Traceroute, World};
use blameit_topology::bgp::BgpChurnEvent;
use blameit_topology::{CloudLocId, Prefix24};
use std::collections::BTreeMap;
use std::time::Instant;

/// Warm-up stride: every second bucket of day 0, as `DaemonCore::open`
/// warms up.
const WARMUP_STRIDE: u32 = 2;

/// Inputs of `replay`: the world and every quartet vector the engine
/// will ask for.
pub struct ReplayInputs {
    /// The seeded world (routing, traceroutes and churn come from it).
    pub world: World,
    /// Engine config.
    pub cfg: BlameItConfig,
    /// Quartets per bucket, for the strided warm-up buckets and every
    /// evaluation bucket.
    pub quartets: BTreeMap<u32, Vec<QuartetObs>>,
    /// Evaluation range: `ticks` windows from the end of the warm-up.
    pub eval: TimeRange,
    /// RTT records the evaluation quartets stand for (`Σ n`).
    pub eval_records: u64,
    /// What building this cost.
    pub timings: SetupTimings,
}

impl ReplayInputs {
    /// Builds the world and samples the quartets.
    pub fn build(scale: Scale, seed: u64, ticks: u32) -> Result<ReplayInputs, String> {
        let t0 = Instant::now();
        let world = build_world(scale, seed);
        let world_build_s = t0.elapsed().as_secs_f64();
        let cfg = engine_config(&world);
        let first = feed_start().0;
        let eval_buckets = ticks * cfg.tick_buckets;
        let eval = TimeRange::new(
            TimeBucket(first).start(),
            TimeBucket(first + eval_buckets).start(),
        );

        let t1 = Instant::now();
        let sampler = WorldBackend::with_parallelism(&world, 1);
        let wanted = (0..first)
            .step_by(WARMUP_STRIDE as usize)
            .chain(first..first + eval_buckets);
        let quartets: BTreeMap<u32, Vec<QuartetObs>> = wanted
            .map(|b| (b, sampler.quartets_in(TimeBucket(b))))
            .collect();
        let materialize_s = t1.elapsed().as_secs_f64();
        let eval_records = quartets
            .range(first..)
            .flat_map(|(_, qs)| qs.iter().map(|q| u64::from(q.n)))
            .sum();
        let records_generated = quartets.values().map(|qs| qs.len() as u64).sum();
        if eval_records == 0 {
            return Err("the evaluation range sampled no quartets".to_string());
        }
        Ok(ReplayInputs {
            world,
            cfg,
            quartets,
            eval,
            eval_records,
            timings: SetupTimings {
                world_build_s,
                materialize_s,
                records_generated,
                total_s: t0.elapsed().as_secs_f64(),
            },
        })
    }
}

/// Serves stored quartets; everything else is the world's.
pub struct ReplayBackend<'a> {
    inner: WorldBackend<'a>,
    quartets: &'a BTreeMap<u32, Vec<QuartetObs>>,
}

impl<'a> ReplayBackend<'a> {
    /// A backend over `inputs`.
    pub fn new(inputs: &'a ReplayInputs) -> ReplayBackend<'a> {
        ReplayBackend {
            inner: WorldBackend::with_parallelism(&inputs.world, 1),
            quartets: &inputs.quartets,
        }
    }
}

impl Backend for ReplayBackend<'_> {
    fn quartets_in(&self, bucket: TimeBucket) -> Vec<QuartetObs> {
        self.quartets
            .get(&bucket.0)
            .unwrap_or_else(|| panic!("bucket {} was not materialised during set-up", bucket.0))
            .clone()
    }

    fn rtt_records_in(&self, _bucket: TimeBucket) -> Option<Vec<RttRecord>> {
        None
    }

    fn route_info(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<RouteInfo> {
        self.inner.route_info(loc, p24, at)
    }

    fn traceroute(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<Traceroute> {
        self.inner.traceroute(loc, p24, at)
    }

    fn churn_events(&self, range: TimeRange) -> Vec<BgpChurnEvent> {
        self.inner.churn_events(range)
    }

    fn cloud_locations(&self) -> Vec<CloudLocId> {
        self.inner.cloud_locations()
    }

    fn probes_issued(&self) -> u64 {
        self.inner.probes_issued()
    }
}

/// One fresh-engine rep.
pub struct ReplayRep {
    /// `BlameItEngine::warmup`, ms (the engine's cold start).
    pub warmup_ms: f64,
    /// Per `tick` call, ms.
    pub ticks_ms: Vec<f64>,
    /// All ticks, first call → last return, seconds.
    pub run_s: f64,
    /// What the rep decided.
    pub exact: Exact,
    /// Layer accounting (traced reps only).
    pub layers: Option<LayerAcc>,
}

/// Runs one rep.
pub fn run_rep(
    inputs: &ReplayInputs,
    tracer: &mut Tracer,
    deadline: &Deadline,
) -> Result<ReplayRep, String> {
    let mut backend = ReplayBackend::new(inputs);
    let mut engine = BlameItEngine::new(inputs.cfg.clone());
    let (_, warmup_s) = tracer.time("pipeline.warmup", None, 0, || {
        engine.warmup(&backend, warmup_range(), WARMUP_STRIDE)
    });

    let starts: Vec<TimeBucket> = inputs
        .eval
        .buckets()
        .step_by(inputs.cfg.tick_buckets as usize)
        .collect();
    let mut outs: Vec<TickOutput> = Vec::with_capacity(starts.len());
    let mut ticks_ms = Vec::with_capacity(starts.len());
    let t_run = Instant::now();
    for (i, start) in starts.into_iter().enumerate() {
        deadline.check()?;
        let (out, secs) = tracer.time("pipeline.tick", None, i as u32, || {
            engine.tick(&mut backend, start)
        });
        ticks_ms.push(secs * 1e3);
        outs.push(out);
    }
    let run_s = t_run.elapsed().as_secs_f64();

    let exact = Exact::new(
        outs.iter().map(tick_digest),
        outs.len() as u64,
        outs.iter().map(|o| o.alerts.len() as u64).sum(),
        IngestStats::default(),
    )?;
    let layers = tracer.enabled().then(|| {
        let mut acc = LayerAcc::default();
        acc.add_ticks(&outs);
        acc.sum("pipeline.warmup_s", warmup_s);
        acc.sum(
            "pipeline.quartets_processed",
            engine.metrics().quartets_processed.get() as f64,
        );
        acc
    });
    Ok(ReplayRep {
        warmup_ms: warmup_s * 1e3,
        ticks_ms,
        run_s,
        exact,
        layers,
    })
}
