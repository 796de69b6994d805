//! Set-up: sizes, the seeded world, materialised inputs, state dirs.
//!
//! Everything the program is handed during a timed region is built
//! here, from `--seed`, before the clock starts: the program only ever
//! sees finished `RecordBatch`es or quartet vectors. The reference
//! feeder (`blameit_daemon::feed_world`) is *not* used for that reason
//! — it synthesises records inside its send loop, so timing it would
//! time the simulator.

use blameit::{
    aggregate_records_reference, AdmissionConfig, Backend, BadnessThresholds, BlameItConfig,
    RecordBatch, RecoveryReport, WorldBackend,
};
use blameit_bench::{world_config, Scale};
use blameit_daemon::{DaemonConfig, DaemonCore, QueueBackend};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{
    FaultRates, FaultSchedule, SimTime, SurgePlan, SurgeWindow, TimeBucket, TimeRange, World,
    BUCKETS_PER_DAY,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deployment — topology, per-client latency model and incident
/// schedule — is pinned to this seed. `--seed` drives everything
/// sampled *from* the deployment: client activity, per-sample RTT
/// noise, BGP churn and surge jitter. The driver compares runs made
/// at different seeds, so a workload's cost has to be a property of
/// the workload, not of the seed: with an organic per-seed fault
/// schedule, blame counts (and `replay` tick time) differ by 3x
/// between seeds; with the deployment pinned they agree within 2 %.
pub const DEPLOYMENT_SEED: u64 = 2019;

/// World length: one warm-up day and up to one fed day.
const WORLD_DAYS: u64 = 2;

/// Surge caps as multiples of the mean un-amplified batch, in eighths:
/// queue cap 21x, shed watermark 5.25x, per-location shed cap 1.625x
/// (the issue's 1.6 M / 400 k / 120 k at ~76 k records per batch).
const SURGE_CAP_EIGHTHS: (usize, usize, usize) = (168, 42, 13);

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `smoke`
/// is the same code at `Scale::Tiny` for the test suite, and its
/// numbers are never compared against bounds.
#[derive(Clone, Debug)]
pub struct Profile {
    /// True for the smoke sizes.
    pub smoke: bool,
    /// World scale of the four daemon workloads.
    pub daemon_scale: Scale,
    /// Batches (= buckets) in one `steady` rep.
    pub steady_batches: u32,
    /// Batches in one `wire` rep (a prefix of `steady`'s).
    pub wire_batches: u32,
    /// Batches in one `surge` rep.
    pub surge_batches: u32,
    /// Batches fed before the simulated crash of `recover`.
    pub crash_batches: u32,
    /// Batches fed after each recovery.
    pub resume_batches: u32,
    /// World scale of `replay`.
    pub replay_scale: Scale,
    /// Evaluation ticks in one `replay` rep.
    pub replay_ticks: u32,
    /// Times set-up is repeated (the median is `setup_s`).
    pub setup_reps: usize,
    /// Timed reps a run makes even when `--seconds` is already spent.
    pub min_reps: usize,
    /// Clean re-opens timed after each daemon rep.
    pub reopen_reps: usize,
}

impl Profile {
    /// The sizes `BENCHMARK.json` measures, chosen so one run (three
    /// set-ups, a warm-up rep and `--seconds` of timed reps) ends in
    /// about 20 s on two cores.
    pub fn full() -> Profile {
        Profile {
            smoke: false,
            daemon_scale: Scale::Small,
            steady_batches: 63,
            wire_batches: 24,
            surge_batches: 24,
            crash_batches: 23,
            resume_batches: 13,
            replay_scale: Scale::Default,
            replay_ticks: 32,
            setup_reps: 3,
            min_reps: 2,
            reopen_reps: 20,
        }
    }

    /// `Scale::Tiny`, 24 buckets, 2 reps.
    pub fn smoke() -> Profile {
        Profile {
            smoke: true,
            daemon_scale: Scale::Tiny,
            steady_batches: 24,
            wire_batches: 12,
            surge_batches: 12,
            crash_batches: 17,
            resume_batches: 7,
            replay_scale: Scale::Tiny,
            replay_ticks: 8,
            setup_reps: 1,
            min_reps: 2,
            reopen_reps: 2,
        }
    }
}

/// A whole-run deadline, checked between operations (socket timeouts
/// bound every blocking call in between).
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Instant,
    workload: &'static str,
}

impl Deadline {
    /// A deadline `limit` from now for `workload`.
    pub fn new(workload: &'static str, limit: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + limit,
            workload,
        }
    }

    /// `Err` naming the workload once the deadline has passed.
    pub fn check(&self) -> Result<(), String> {
        if Instant::now() >= self.at {
            return Err(format!(
                "workload `{}` exceeded the whole-run deadline",
                self.workload
            ));
        }
        Ok(())
    }
}

/// The seeded world over the pinned deployment.
pub fn build_world(scale: Scale, seed: u64) -> World {
    let mut cfg = world_config(scale, WORLD_DAYS, seed, false);
    let pinned = world_config(scale, WORLD_DAYS, DEPLOYMENT_SEED, false);
    cfg.topology = pinned.topology;
    cfg.latency = pinned.latency;
    // Build without organic faults, then add the pinned schedule: the
    // fault generator needs the topology, which only a world exposes.
    let rates = std::mem::replace(
        &mut cfg.fault_rates,
        FaultRates {
            cloud_per_loc_day: 0.0,
            middle_per_as_day: 0.0,
            client_as_per_day: 0.0,
            client_prefix_per_k_day: 0.0,
            middle_path_scoped_frac: 0.0,
        },
    );
    let range = cfg.range;
    let mut world = World::new(cfg);
    let faults = FaultSchedule::generate(world.topology(), range, &rates, DEPLOYMENT_SEED ^ 0xFA);
    world.add_faults(faults.faults().to_vec());
    world
}

/// Engine config every workload shares: one thread, snapshots every
/// four ticks, state dir set per rep.
pub fn engine_config(world: &World) -> BlameItConfig {
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(world));
    // Pinned, and BLAMEIT_THREADS ignored: this host has two cores and
    // the harness itself needs one of them on `wire`.
    cfg.parallelism = 1;
    cfg.snapshot_every_ticks = 4;
    cfg
}

/// The warm-up range (day 0); the feed starts at its end.
pub fn warmup_range() -> TimeRange {
    TimeRange::new(SimTime::ZERO, SimTime::from_days(1))
}

/// First fed bucket.
pub fn feed_start() -> TimeBucket {
    TimeBucket(BUCKETS_PER_DAY)
}

/// A directory under `<dir of this executable>/bench-state`, removed
/// when dropped — on success, on a failed check, and on unwinding.
/// The executable lives in the cargo target directory, so state is
/// written on the checkout's own (real) filesystem — fsync is part of
/// what is measured — and never outside the checkout.
#[derive(Debug)]
pub struct StateDir(PathBuf);

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl StateDir {
    /// Creates a fresh, empty, uniquely named directory.
    pub fn new(tag: &str) -> Result<StateDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let root = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("bench-state");
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(StateDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh directory holding a copy of this one's files.
    pub fn duplicate(&self, tag: &str) -> Result<StateDir, String> {
        let copy = StateDir::new(tag)?;
        copy_dir(&self.0, &copy.0).map_err(|e| format!("copy state dir: {e}"))?;
        Ok(copy)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            std::fs::create_dir_all(&dest)?;
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
        }
    }
    Ok(())
}

/// The `surge` schedule over the first `n_batches` fed buckets: the
/// middle bucket of every tick window, 10x. (A sustained surge stalls
/// the data-driven feed cursor after three batches and measures
/// nothing.)
pub fn surge_plan(seed: u64, n_batches: u32) -> SurgePlan {
    SurgePlan {
        windows: (0..n_batches / 3)
            .map(|w| {
                let b = TimeBucket(feed_start().0 + 3 * w + 1);
                SurgeWindow {
                    start: b,
                    end: b,
                    multiplier: 10,
                }
            })
            .collect(),
        seed: seed ^ 0x5u64,
    }
}

/// What set-up cost, split the way the `simnet` layer reports it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimings {
    /// `World` construction.
    pub world_build_s: f64,
    /// Record / quartet materialisation.
    pub materialize_s: f64,
    /// Records (or quartets, on `replay`) materialised.
    pub records_generated: u64,
    /// Whole set-up, including the cold open and any crash-state feed.
    pub total_s: f64,
}

/// Inputs of a daemon workload: the world, its batches in feed order,
/// the configs, and a template state dir holding the post-warm-up
/// checkpoint every rep starts from.
pub struct DaemonInputs {
    /// The seeded world.
    pub world: World,
    /// One stream-order batch per bucket, from [`feed_start`] on — the
    /// same `RecordBatch::from_records` batches `feed_world` sends.
    pub batches: Vec<RecordBatch>,
    /// Engine config (`state_dir` unset; see [`open_core`](Self::open_core)).
    pub cfg: BlameItConfig,
    /// Daemon config (admission caps).
    pub dcfg: DaemonConfig,
    /// State dir after a cold open: the tick-0 checkpoint.
    pub template: StateDir,
    /// What building this cost.
    pub timings: SetupTimings,
}

impl DaemonInputs {
    /// Builds the world, materialises `n_batches` buckets (surged when
    /// `surge`), and cold-opens a daemon core into the template dir.
    pub fn build(scale: Scale, seed: u64, n_batches: u32, surge: bool) -> Result<Self, String> {
        let t0 = Instant::now();
        let world = build_world(scale, seed);
        let world_build_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let first = feed_start().0;
        let plan = if surge {
            surge_plan(seed, n_batches)
        } else {
            SurgePlan::default()
        };
        let backend = WorldBackend::with_parallelism(&world, 1);
        let mut batches = Vec::with_capacity(n_batches as usize);
        let mut plain_records = 0usize;
        for b in first..first + n_batches {
            let bucket = TimeBucket(b);
            let records = backend
                .rtt_records_in(bucket)
                .ok_or("the world backend exposes raw records")?;
            plain_records += records.len();
            let records = plan.amplify(bucket, &records);
            if records.is_empty() {
                return Err(format!("bucket {b} generated no records"));
            }
            let batch = RecordBatch::from_records(bucket, &records);
            // On three buckets, the daemon's aggregation path must
            // agree with the reference aggregation of the same records.
            if b < first + 3 {
                let queue = QueueBackend::new(WorldBackend::with_parallelism(&world, 1), bucket);
                queue.push(batch.clone());
                if queue.quartets_in(bucket) != aggregate_records_reference(&records) {
                    return Err(format!(
                        "bucket {b}: QueueBackend::quartets_in differs from aggregate_records_reference"
                    ));
                }
            }
            batches.push(batch);
        }
        let materialize_s = t1.elapsed().as_secs_f64();
        let records_generated = batches.iter().map(|b| b.keys.len() as u64).sum();

        let cfg = engine_config(&world);
        let admission = if surge {
            let mean = plain_records / n_batches as usize;
            AdmissionConfig {
                queue_cap_records: mean * SURGE_CAP_EIGHTHS.0 / 8,
                shed_watermark_records: mean * SURGE_CAP_EIGHTHS.1 / 8,
                per_loc_shed_cap: mean * SURGE_CAP_EIGHTHS.2 / 8,
                retry_after_secs: 1,
            }
        } else {
            // Far above the feed: nothing is shed or refused.
            AdmissionConfig {
                queue_cap_records: usize::MAX / 4,
                shed_watermark_records: usize::MAX / 4,
                per_loc_shed_cap: usize::MAX / 4,
                retry_after_secs: 1,
            }
        };
        let dcfg = DaemonConfig {
            admission,
            overload_sustained_ticks: 3,
        };
        let template = StateDir::new("template")?;
        let mut inputs = DaemonInputs {
            world,
            batches,
            cfg,
            dcfg,
            template,
            timings: SetupTimings::default(),
        };
        let (core, report) = inputs.open_core(inputs.template.path())?;
        if report.mode != blameit::StartMode::Cold {
            return Err(format!("template open was {:?}, not cold", report.mode));
        }
        drop(core);
        inputs.timings = SetupTimings {
            world_build_s,
            materialize_s,
            records_generated,
            total_s: t0.elapsed().as_secs_f64(),
        };
        Ok(inputs)
    }

    /// Opens a daemon core on `dir` (cold when empty, recovered when
    /// it holds state) with its own registry and a fresh world backend.
    pub fn open_core(
        &self,
        dir: &Path,
    ) -> Result<(DaemonCore<WorldBackend<'_>>, RecoveryReport), String> {
        let mut cfg = self.cfg.clone();
        cfg.state_dir = Some(dir.to_path_buf());
        DaemonCore::open(
            cfg,
            self.dcfg.clone(),
            Arc::new(MetricsRegistry::new()),
            WorldBackend::with_parallelism(&self.world, 1),
            warmup_range(),
        )
        .map_err(|e| format!("DaemonCore::open on {}: {e}", dir.display()))
    }
}

/// Runs `build` `reps` times and keeps the last product, so `setup_s`
/// can be a median. Earlier products are dropped before the next
/// build so two copies of the inputs never coexist.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
    total_s: impl Fn(&T) -> f64,
) -> Result<(T, f64), String> {
    let mut totals = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let built = build()?;
        totals.push(total_s(&built));
        last = Some(built);
    }
    let built = last.expect("at least one set-up ran");
    Ok((built, crate::stats::median(&totals)))
}
