//! One run of one workload: set-up, a warm-up rep, timed reps until
//! `--seconds` is spent, checks, and the metrics.
//!
//! Every rep of a run is the same deterministic pass over the same
//! inputs on fresh state, so every rep must decide exactly what the
//! first one decided ([`Exact`]); a rep that does not fails the run.
//! End-to-end metrics pool the samples of all timed reps (rates take
//! the median over reps). They are only ever taken with tracing off;
//! a traced run reports the per-layer metrics instead.

use crate::catalogue::{WorkloadDef, END_TO_END};
use crate::daemon::{self, Exact};
use crate::inputs::{repeat_setup, DaemonInputs, Deadline, Profile, SetupTimings};
use crate::layers::{merge, LayerAcc};
use crate::recover::{self, RecoverInputs};
use crate::replay::{self, ReplayInputs};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::wire::{self, RepError};
use blameit_daemon::Frame;
use std::time::{Duration, Instant};

/// The driver allows a run 180 s; the harness gives up before that,
/// naming the workload.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Reps of one run that may be voided and run again because the
/// connection broke under the feeder (see [`RepError`]); one more
/// fails the run.
const MAX_VOIDED_REPS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static WorkloadDef,
    /// Input seed.
    pub seed: u64,
    /// Timed reps start until this much time has been measured.
    pub seconds: f64,
    /// Record spans and shadow the layers.
    pub trace: bool,
    /// Sizes.
    pub profile: Profile,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind it (0 for a per-layer metric).
    pub samples: usize,
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Whether this used the smoke sizes.
    pub smoke: bool,
    /// Timed reps.
    pub reps: usize,
    /// Reps voided by a broken connection and run again (`wire` only;
    /// their samples are in no metric).
    pub voided_reps: usize,
    /// Operations attempted (batches offered, ticks run, opens made).
    pub attempted: u64,
    /// Operations that did not succeed (abandoned batches).
    pub failed: u64,
    /// Records not admitted ÷ records offered (0 where none are offered).
    pub failed_share: f64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// What every rep decided.
    pub exact: Exact,
    /// The recorded spans as JSON lines (traced run).
    pub trace_jsonl: Option<String>,
}

/// What one rep contributes to the pooled samples.
struct RepSamples {
    acks_ms: Vec<f64>,
    verdicts_ms: Vec<f64>,
    ticks_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    /// Records consumed and ticks run inside `wall_s`.
    records: u64,
    ticks: u64,
    wall_s: f64,
    ops: u64,
    ops_failed: u64,
    exact: Exact,
    layers: Option<LayerAcc>,
    /// `ack` samples of batches sent right after a tick (wire only).
    ack_after_tick_ms: Vec<f64>,
}

/// The inputs of the workload being run.
enum Inputs {
    /// `steady` and `surge`.
    Daemon(DaemonInputs),
    /// `wire`: the inputs plus the pre-built frames.
    Wire(DaemonInputs, Vec<Frame>),
    Replay(ReplayInputs),
    Recover(RecoverInputs),
}

impl Inputs {
    /// Sets up `setup_reps` times; the inputs of the last set-up and
    /// the median set-up time.
    fn build(cfg: &RunConfig, deadline: &Deadline) -> Result<(Inputs, f64), String> {
        repeat_setup(
            cfg.profile.setup_reps,
            || Inputs::build_once(cfg, deadline),
            Inputs::setup_s,
        )
    }

    fn build_once(cfg: &RunConfig, deadline: &Deadline) -> Result<Inputs, String> {
        let p = &cfg.profile;
        let (scale, seed) = (p.daemon_scale, cfg.seed);
        match cfg.workload.name {
            "steady" => {
                DaemonInputs::build(scale, seed, p.steady_batches, false).map(Inputs::Daemon)
            }
            "surge" => DaemonInputs::build(scale, seed, p.surge_batches, true).map(Inputs::Daemon),
            "wire" => {
                // A prefix of `steady`'s batches (same seed, same
                // world), plus the frames the feeder will send.
                let t0 = Instant::now();
                let mut i = DaemonInputs::build(scale, seed, p.wire_batches, false)?;
                let frames = wire::frames_of(&i.batches);
                i.timings.total_s = t0.elapsed().as_secs_f64();
                Ok(Inputs::Wire(i, frames))
            }
            "replay" => {
                ReplayInputs::build(p.replay_scale, seed, p.replay_ticks).map(Inputs::Replay)
            }
            "recover" => {
                RecoverInputs::build(scale, seed, p.crash_batches, p.resume_batches, deadline)
                    .map(Inputs::Recover)
            }
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    fn setup_s(&self) -> f64 {
        match self {
            Inputs::Recover(i) => i.total_s,
            other => other.simnet().total_s,
        }
    }

    fn simnet(&self) -> SetupTimings {
        match self {
            Inputs::Daemon(i) | Inputs::Wire(i, _) => i.timings,
            Inputs::Replay(i) => i.timings,
            Inputs::Recover(i) => i.daemon.timings,
        }
    }

    /// One rep. The warm-up rep is discarded; it fills caches and
    /// fixes the reference [`Exact`]. On `wire` it is an *in-process*
    /// rep over the same batches: the check that the socket changes no
    /// decision and, on a traced run, the source of the daemon-layer
    /// metrics.
    fn rep(
        &self,
        warm_up: bool,
        cfg: &RunConfig,
        tracer: &mut Tracer,
        deadline: &Deadline,
    ) -> Result<RepSamples, RepError> {
        let reopens = cfg.profile.reopen_reps;
        match self {
            Inputs::Daemon(i) => Ok(daemon_samples(daemon::run_rep(
                i, reopens, tracer, deadline,
            )?)),
            Inputs::Wire(i, _) if warm_up => Ok(daemon_samples(daemon::run_rep(
                i, reopens, tracer, deadline,
            )?)),
            Inputs::Wire(i, frames) => {
                let mut acc = tracer.enabled().then(LayerAcc::default);
                let rep = wire::run_rep(i, frames, reopens, tracer, acc.as_mut(), deadline)?;
                let f = rep.feed;
                Ok(RepSamples {
                    records: f.offered,
                    ticks: rep.exact.ticks,
                    wall_s: f.wall_s,
                    ops: frames.len() as u64,
                    ops_failed: f.abandoned,
                    acks_ms: f.acks_ms,
                    verdicts_ms: f.verdicts_ms,
                    ticks_ms: f.ticks_ms,
                    recover_ms: rep.reopen_ms,
                    exact: rep.exact,
                    layers: acc,
                    ack_after_tick_ms: f.ack_after_tick_ms,
                })
            }
            Inputs::Replay(i) => {
                let rep = replay::run_rep(i, tracer, deadline)?;
                // The engine has no ingest step: a tick call takes its
                // input and returns its verdict, so `ack` and `verdict`
                // read the tick itself, and the cold start a fresh
                // engine pays (`warmup`) stands where recovery does.
                Ok(RepSamples {
                    acks_ms: rep.ticks_ms.clone(),
                    verdicts_ms: rep.ticks_ms.clone(),
                    recover_ms: vec![rep.warmup_ms],
                    records: i.eval_records,
                    ticks: rep.ticks_ms.len() as u64,
                    wall_s: rep.run_s,
                    ops: rep.ticks_ms.len() as u64,
                    ops_failed: 0,
                    ticks_ms: rep.ticks_ms,
                    exact: rep.exact,
                    layers: rep.layers,
                    ack_after_tick_ms: Vec::new(),
                })
            }
            Inputs::Recover(i) => {
                let rep = recover::run_rep(i, tracer, deadline)?;
                let resumed = &i.daemon.batches[i.crash_batches..];
                let f = rep.feed;
                Ok(RepSamples {
                    // The recovery is inside the wall time: records the
                    // restarted daemon took in, and ticks it replayed
                    // and ran, per second since `open` was called.
                    records: rep.resumed_records,
                    ticks: rep.replayed + f.outs.len() as u64,
                    wall_s: rep.open_ms / 1e3 + f.wall_s,
                    ops: 1 + resumed.len() as u64,
                    ops_failed: f.abandoned,
                    acks_ms: f.acks_ms,
                    verdicts_ms: f.verdicts_ms,
                    ticks_ms: f.ticks.iter().map(|t| t.pump_ms).collect(),
                    recover_ms: vec![rep.open_ms],
                    exact: rep.exact,
                    layers: rep.layers,
                    ack_after_tick_ms: Vec::new(),
                })
            }
        }
    }
}

fn daemon_samples(rep: daemon::DaemonRep) -> RepSamples {
    let f = rep.feed;
    RepSamples {
        records: rep.exact.offered,
        ticks: rep.exact.ticks,
        wall_s: f.wall_s,
        ops: f.acks_ms.len() as u64,
        ops_failed: f.abandoned,
        acks_ms: f.acks_ms,
        verdicts_ms: f.verdicts_ms,
        ticks_ms: f.ticks.iter().map(|t| t.pump_ms).collect(),
        recover_ms: rep.reopen_ms,
        exact: rep.exact,
        layers: rep.layers,
        ack_after_tick_ms: Vec::new(),
    }
}

/// Per-rep readings of the timed reps. A percentile is taken inside
/// each rep and the run reports the median over reps: every rep does
/// identical work, so what differs between reps is the machine, and a
/// burst of interference that slows some reps of a run moves a pooled
/// tail percentile but not the median rep.
#[derive(Default)]
struct Pool {
    /// One vector of per-rep readings per end-to-end metric (indexed
    /// like [`END_TO_END`]; `setup_s` stays empty).
    per_rep: [Vec<f64>; END_TO_END.len()],
    /// Samples behind each metric, over all reps.
    samples: [usize; END_TO_END.len()],
    acks_ms: Vec<f64>,
    ack_after_tick_ms: Vec<f64>,
    walls_s: Vec<f64>,
    ops: u64,
    ops_failed: u64,
}

impl Pool {
    fn add(&mut self, rep: &RepSamples) {
        for (i, def) in END_TO_END.iter().enumerate() {
            let (value, n) = match def.name {
                "setup_s" => continue,
                "records_per_s" => (rep.records as f64 / rep.wall_s, 1),
                "ticks_per_s" => (rep.ticks as f64 / rep.wall_s, 1),
                "ack_ms_p50" => (percentile(&rep.acks_ms, 0.5), rep.acks_ms.len()),
                "ack_ms_p90" => (percentile(&rep.acks_ms, 0.9), rep.acks_ms.len()),
                "verdict_ms_p50" => (percentile(&rep.verdicts_ms, 0.5), rep.verdicts_ms.len()),
                "verdict_ms_p90" => (percentile(&rep.verdicts_ms, 0.9), rep.verdicts_ms.len()),
                "tick_ms_p50" => (percentile(&rep.ticks_ms, 0.5), rep.ticks_ms.len()),
                "tick_ms_p95" => (percentile(&rep.ticks_ms, 0.95), rep.ticks_ms.len()),
                "recover_ms_p50" => (percentile(&rep.recover_ms, 0.5), rep.recover_ms.len()),
                other => unreachable!("end-to-end metric `{other}` has no definition"),
            };
            self.per_rep[i].push(value);
            self.samples[i] += n;
        }
        self.acks_ms.extend(&rep.acks_ms);
        self.ack_after_tick_ms.extend(&rep.ack_after_tick_ms);
        self.walls_s.push(rep.wall_s);
        self.ops += rep.ops;
        self.ops_failed += rep.ops_failed;
    }

    fn end_to_end(&self, setup_s: f64, setup_reps: usize) -> Vec<Metric> {
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, def)| {
                let (value, samples) = if def.name == "setup_s" {
                    (setup_s, setup_reps)
                } else {
                    (median(&self.per_rep[i]), self.samples[i])
                };
                Metric {
                    name: def.name,
                    unit: def.unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let deadline = Deadline::new(cfg.workload.name, RUN_DEADLINE);
    let (inputs, setup_s) = Inputs::build(cfg, &deadline)?;

    // Layer accounting of a traced run. `layer_reps` counts the reps
    // whose per-rep totals are in `acc`, so totals reduce to one rep's.
    let mut acc = LayerAcc::default();
    let mut layer_reps = 0usize;
    let on_wire = matches!(inputs, Inputs::Wire(..));

    // On `wire` the warm-up rep is the in-process rep whose layers a
    // traced run reports, so it is traced when the run is.
    let mut tracer = Tracer::new(cfg.trace && on_wire);
    let warm = inputs
        .rep(true, cfg, &mut tracer, &deadline)
        .map_err(|e| e.msg)?;
    let reference = warm.exact.clone();
    let inproc_ack_p50 = median(&warm.acks_ms);
    if let Some(l) = warm.layers {
        merge(&mut acc, l);
        layer_reps += 1;
    }

    let mut voided = 0usize;
    // One rep, run again when the connection broke under its feeder.
    let mut rep_unless_void = |tracer: &mut Tracer| loop {
        let mark = tracer.spans().len();
        match inputs.rep(false, cfg, tracer, &deadline) {
            Ok(rep) => return Ok(rep),
            Err(e) if e.connection_broke && voided < MAX_VOIDED_REPS => {
                voided += 1;
                tracer.truncate(mark);
                eprintln!(
                    "blameit-benchmark: rep voided and run again ({voided} of at most {MAX_VOIDED_REPS}): {}",
                    e.msg
                );
            }
            Err(e) => return Err(e.msg),
        }
    };

    let reference_wall = if cfg.trace {
        tracer.set_enabled(false);
        let rep = rep_unless_void(&mut tracer)?;
        check_same(&reference, &rep.exact, "the untraced reference rep")?;
        Some(rep.wall_s)
    } else {
        None
    };

    tracer.set_enabled(cfg.trace);
    let mut pool = Pool::default();
    let mut reps = 0usize;
    let t_measure = Instant::now();
    while reps < cfg.profile.min_reps || t_measure.elapsed().as_secs_f64() < cfg.seconds {
        deadline.check()?;
        let rep = rep_unless_void(&mut tracer)?;
        check_same(&reference, &rep.exact, &format!("rep {reps}"))?;
        pool.add(&rep);
        if let Some(l) = rep.layers {
            merge(&mut acc, l);
            // A wire rep adds ratios only (`wire.*`); the totals came
            // from the one in-process rep.
            layer_reps += usize::from(!on_wire);
        }
        reps += 1;
    }

    let failed_share = if reference.offered == 0 {
        0.0
    } else {
        (reference.offered - reference.admitted) as f64 / reference.offered as f64
    };
    let metrics = if cfg.trace {
        let simnet = inputs.simnet();
        acc.set("simnet.world_build_s", simnet.world_build_s);
        acc.set("simnet.materialize_s", simnet.materialize_s);
        acc.set("simnet.records_generated", simnet.records_generated as f64);
        if let Some(wall) = reference_wall {
            acc.set("trace.overhead_share", median(&pool.walls_s) / wall - 1.0);
        }
        if on_wire {
            acc.set(
                "server.ack_minus_offer_ms_p50",
                median(&pool.acks_ms) - inproc_ack_p50,
            );
            acc.set(
                "server.ack_after_tick_ms_p50",
                median(&pool.ack_after_tick_ms),
            );
        }
        acc.finish(layer_reps)
            .into_iter()
            .map(|(def, value)| Metric {
                name: def.name,
                unit: def.unit,
                value,
                samples: 0,
            })
            .collect()
    } else {
        pool.end_to_end(setup_s, cfg.profile.setup_reps)
    };
    Ok(RunResult {
        workload: cfg.workload.name,
        seed: cfg.seed,
        trace: cfg.trace,
        smoke: cfg.profile.smoke,
        reps,
        voided_reps: voided,
        attempted: pool.ops,
        failed: pool.ops_failed,
        failed_share,
        metrics,
        exact: reference,
        trace_jsonl: cfg.trace.then(|| tracer.render_jsonl()),
    })
}

/// The self-check every rep passes through: a rep that decided
/// anything different from the reference fails the run.
pub fn check_same(reference: &Exact, got: &Exact, what: &str) -> Result<(), String> {
    if reference == got {
        return Ok(());
    }
    let diff: Vec<String> = reference
        .fields()
        .into_iter()
        .zip(got.fields())
        .filter(|(a, b)| a != b)
        .map(|((name, want), (_, got))| format!("{name}: {got} (reference {want})"))
        .collect();
    Err(format!("{what} decided differently: {}", diff.join(", ")))
}
