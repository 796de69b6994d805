//! Ablations of BlameIt's design choices (DESIGN.md §6).
//!
//! Sweeps, each against ground truth on the same world:
//!
//! * **τ** (the bad-fraction threshold, paper: 0.8) — too low misfires
//!   the cloud/middle checks on noise; too high starves them.
//! * **expected-RTT window** (paper: 14-day median) — too short chases
//!   incidents; 1 day vs 14 days.
//! * **minimum quartet samples** (paper: ≥10 RTTs) — lower floors
//!   admit noisy quartets.
//!
//! Each row reports the decisive-verdict accuracy (confusion-matrix
//! diagonal over cloud/middle/client verdicts) plus the decisive rate
//! (how often BlameIt commits to a verdict at all).

use crate::{fmt, organic_world, Args, ConfusionMatrix, Scale};
use blameit::{
    assign_blames, enrich_bucket_min_samples, BadnessThresholds, Blame, BlameConfig,
    ExpectedRttLearner, RttKey, WorldBackend,
};
use blameit_simnet::{SimTime, TimeRange, World};

struct Row {
    label: String,
    accuracy: f64,
    decisive_rate: f64,
    verdicts: u64,
}

/// Runs Algorithm 1 standalone over an eval day with the given knobs
/// and scores it against ground truth.
fn run_variant(
    world: &World,
    cfg: &BlameConfig,
    min_samples: u32,
    learner_window_days: u32,
    warmup_days: u64,
    label: String,
) -> Row {
    let thresholds = BadnessThresholds::default_for(world);
    let backend = WorldBackend::new(world);
    let mut learner = ExpectedRttLearner::with_window(learner_window_days, 1);

    // Warmup learning (strided).
    for bucket in TimeRange::days(warmup_days).buckets().step_by(2) {
        for q in enrich_bucket_min_samples(&backend, bucket, &thresholds, min_samples) {
            learner.observe(
                RttKey::Cloud(q.obs.loc, q.obs.mobile),
                bucket.day(),
                q.obs.mean_rtt_ms,
            );
            learner.observe(
                RttKey::Middle(cfg.grouping.key(&q.info), q.obs.mobile),
                bucket.day(),
                q.obs.mean_rtt_ms,
            );
        }
    }

    // Eval day.
    let mut matrix = ConfusionMatrix::new();
    let mut ambiguous_or_insufficient = 0u64;
    let eval = TimeRange::new(
        SimTime::from_days(warmup_days),
        SimTime::from_days(warmup_days + 1),
    );
    for bucket in eval.buckets() {
        let quartets = enrich_bucket_min_samples(&backend, bucket, &thresholds, min_samples);
        let (blames, _) = assign_blames(&quartets, &learner, cfg);
        for b in &blames {
            let Some(client) = world.topology().client(b.obs.p24) else {
                continue;
            };
            let gt = world.ground_truth(b.obs.loc, client, bucket.mid());
            if matches!(b.blame, Blame::Ambiguous | Blame::Insufficient) {
                ambiguous_or_insufficient += 1;
            }
            if let Some(c) = gt.culprit {
                matrix.add(c.segment, b.blame);
            }
        }
        // Keep learning forward, post-assignment.
        for q in &quartets {
            learner.observe(
                RttKey::Cloud(q.obs.loc, q.obs.mobile),
                bucket.day(),
                q.obs.mean_rtt_ms,
            );
            learner.observe(
                RttKey::Middle(cfg.grouping.key(&q.info), q.obs.mobile),
                bucket.day(),
                q.obs.mean_rtt_ms,
            );
        }
    }
    let total = matrix.total() + ambiguous_or_insufficient;
    Row {
        label,
        accuracy: matrix.accuracy(),
        decisive_rate: if total == 0 {
            0.0
        } else {
            matrix.decisive() as f64 / total as f64
        },
        verdicts: matrix.total(),
    }
}

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let warmup = args.u64("warmup", 2);
    let scale = args.scale(Scale::Small);
    fmt::banner("Ablations", "τ / learning window / sample floor sweeps");
    let world = organic_world(scale, warmup + 1, seed);

    let mut rows: Vec<Row> = Vec::new();
    for tau in [0.5, 0.65, 0.8, 0.9, 0.99] {
        let cfg = BlameConfig {
            tau,
            ..BlameConfig::default()
        };
        rows.push(run_variant(
            &world,
            &cfg,
            10,
            14,
            warmup,
            format!("tau={tau}"),
        ));
    }
    for window in [1u32, 3, 14] {
        let cfg = BlameConfig::default();
        rows.push(run_variant(
            &world,
            &cfg,
            10,
            window,
            warmup,
            format!("window={window}d"),
        ));
    }
    for min_samples in [1u32, 10, 40] {
        let cfg = BlameConfig::default();
        rows.push(run_variant(
            &world,
            &cfg,
            min_samples,
            14,
            warmup,
            format!("min_samples={min_samples}"),
        ));
    }

    println!(
        "{:<20} {:>10} {:>14} {:>10}",
        "variant", "accuracy", "decisive-rate", "scored"
    );
    for r in &rows {
        println!(
            "{:<20} {:>9.1}% {:>13.1}% {:>10}",
            r.label,
            100.0 * r.accuracy,
            100.0 * r.decisive_rate,
            r.verdicts
        );
    }

    let at = |label: &str| rows.iter().find(|r| r.label == label).unwrap();
    println!();
    println!(
        "paper's τ=0.8 within 3 pts of the best τ: {}",
        if rows[..5]
            .iter()
            .all(|r| r.accuracy <= at("tau=0.8").accuracy + 0.03)
        {
            "HOLDS"
        } else {
            "a different τ wins here"
        }
    );
    println!(
        "14-day window no worse than 1-day: {}",
        if at("window=14d").accuracy + 1e-9 >= at("window=1d").accuracy {
            "HOLDS"
        } else {
            "short window wins here"
        }
    );
}
