//! Figure 13: active-phase localization accuracy vs background probing
//! frequency, with and without BGP-churn-triggered probes.
//!
//! Paper shape: accuracy degrades as background probes become rarer
//! (baselines go stale, especially across path changes); churn
//! triggers recover most of it. The paper's sweet spot: once per 12 h
//! plus churn triggers retains ≈93% accuracy at 72× fewer probes than
//! 10-minute continuous probing.

use crate::{fmt, warmed_engine, Args, Scale};
use blameit::{Backend, BlameItConfig, WorldBackend};
use blameit_simnet::{Segment, SimTime, TimeRange, World};

/// One cell of the frequency × churn grid.
pub struct Cell {
    /// Background probing period, seconds.
    pub period_secs: u64,
    /// Whether BGP-churn-triggered probes were on.
    pub churn: bool,
    /// Middle-fault localizations naming the true culprit AS.
    pub accuracy: f64,
    /// Localizations scored (ground truth a middle fault).
    pub localized: u64,
    /// All probes per evaluated day.
    pub probes_per_day: f64,
    /// Background probes per evaluated day.
    pub background_per_day: f64,
}

/// The experiment's flags, resolved: the world and its day split.
fn setup(args: &Args) -> (World, u64, u64) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 5);
    let warmup_days = args.u64("warmup", 2).min(days.saturating_sub(1));
    let scale = args.scale(Scale::Small);
    (crate::organic_world(scale, days, seed), warmup_days, days)
}

/// Scores one cell — a fresh engine at the given background period,
/// with or without churn triggers — which is all
/// `tests/paper_claims.rs` needs for the 12 h + churn sweet spot.
pub fn score(args: &Args, period_secs: u64, churn: bool) -> Cell {
    let (world, warmup_days, days) = setup(args);
    run_cell(&world, period_secs, churn, warmup_days, days)
}

fn run_cell(world: &World, period_secs: u64, churn: bool, warmup_days: u64, days: u64) -> Cell {
    let mut backend = WorldBackend::new(world);
    let configure = |cfg: &mut BlameItConfig| {
        cfg.background_period_secs = period_secs;
        cfg.churn_triggered = churn;
    };
    let (mut engine, rest) = warmed_engine(world, &backend, configure, warmup_days - 1, 2, days);
    // One unscored burn-in day: the paper's system runs in steady
    // state, with background baselines already in place.
    let burn_in = TimeRange::new(rest.start, SimTime::from_days(warmup_days));
    for _ in engine.run(&mut backend, burn_in) {}
    backend.reset_probes();
    let background_before = engine.state().background_probes_total;
    let eval = TimeRange::new(burn_in.end, rest.end);

    let mut attempted = 0u64;
    let mut correct = 0u64;
    for out in engine.run(&mut backend, eval) {
        for l in &out.localizations {
            let Some(client) = world.topology().client(l.probed_p24) else {
                continue;
            };
            let gt = world.ground_truth(l.issue.issue.loc, client, l.probed_at);
            // Only score issues whose ground truth is a middle fault.
            let Some(culprit) = gt.culprit.filter(|c| c.segment == Segment::Middle) else {
                continue;
            };
            attempted += 1;
            if l.culprit == Some(culprit.asn) {
                correct += 1;
            }
        }
    }
    let eval_days = (days - warmup_days) as f64;
    Cell {
        period_secs,
        churn,
        accuracy: if attempted == 0 {
            0.0
        } else {
            correct as f64 / attempted as f64
        },
        localized: attempted,
        probes_per_day: backend.probes_issued() as f64 / eval_days,
        background_per_day: (engine.state().background_probes_total - background_before) as f64
            / eval_days,
    }
}

pub fn run(args: &Args) {
    fmt::banner(
        "Figure 13",
        "Localization accuracy vs background probing frequency (± churn triggers)",
    );
    let (world, warmup_days, days) = setup(args);

    let periods: [(u64, &str); 5] = [
        (600, "10 min"),
        (3_600, "1 h"),
        (21_600, "6 h"),
        (43_200, "12 h"),
        (86_400, "24 h"),
    ];
    println!(
        "{:>8} {:>7} {:>10} {:>10} {:>14} {:>10}",
        "period", "churn", "accuracy", "scored", "probes/day", "bg/day"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for churn in [true, false] {
        for (p, label) in periods {
            let c = run_cell(&world, p, churn, warmup_days, days);
            println!(
                "{:>8} {:>7} {:>9.1}% {:>10} {:>14.0} {:>10.0}",
                label,
                if churn { "yes" } else { "no" },
                100.0 * c.accuracy,
                c.localized,
                c.probes_per_day,
                c.background_per_day
            );
            cells.push(c);
        }
    }

    // Shape checks.
    let find = |p: u64, churn: bool| {
        cells
            .iter()
            .find(|c| c.period_secs == p && c.churn == churn)
            .unwrap()
    };
    let fast = find(600, true);
    let sweet = find(43_200, true);
    let sweet_nochurn = find(43_200, false);
    let slow_nochurn = find(86_400, false);
    println!();
    println!(
        "12h+churn accuracy {} vs 10min {}  [paper: 93% at the sweet spot]",
        fmt::pct(sweet.accuracy),
        fmt::pct(fast.accuracy)
    );
    println!(
        "churn triggers help at 12 h: {} vs {} without → {}",
        fmt::pct(sweet.accuracy),
        fmt::pct(sweet_nochurn.accuracy),
        if sweet.accuracy >= sweet_nochurn.accuracy {
            "HOLDS"
        } else {
            "check"
        }
    );
    println!(
        "degradation with rarer probing (no churn): 10min {} → 24h {}",
        fmt::pct(find(600, false).accuracy),
        fmt::pct(slow_nochurn.accuracy),
    );
    println!(
        "  (known deviation: the paper's accuracy falls steeply toward 24 h because real\n\
         \x20  Internet baselines drift continuously; the simulator's baselines are more\n\
         \x20  stationary, so the frequency axis is muted — the sweet-spot accuracy and the\n\
         \x20  churn-trigger benefit are the reproduced effects)"
    );
    println!(
        "background probe saving 12h vs 10min continuous: {:.0}×  [paper: 72×]",
        find(600, false).background_per_day / sweet_nochurn.background_per_day.max(1.0)
    );
    println!(
        "total probe saving 12h+churn vs 10min full coverage: {:.0}×",
        fast.probes_per_day / sweet.probes_per_day.max(1.0)
    );
}
