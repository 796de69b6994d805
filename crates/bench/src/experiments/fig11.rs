//! Figure 11: large-scale corroboration — CDF of per-BGP-path
//! corroboration ratios, BlameIt's BGP-path grouping vs the
//! traditional ⟨AS, Metro⟩ grouping.
//!
//! The paper corroborates BlameIt against continuous traceroutes on
//! 1,000 BGP paths and sees near-perfect ratios for ~88% of paths with
//! BGP-path grouping, and significantly worse ratios with ⟨AS, Metro⟩
//! grouping. Here the simulator's ground truth takes the place of the
//! continuous traceroutes: a diagnosis counts as corroborated when the
//! blamed segment's culprit AS matches the true one.

use crate::{fmt, warmed_engine, Args, Scale};
use blameit::{Blame, MiddleGrouping, WorldBackend};
use blameit_simnet::{Segment, World};
use blameit_topology::PathId;
use std::collections::HashMap;

fn ratios(world: &World, grouping: MiddleGrouping, warmup_days: u64, days: u64) -> Vec<f64> {
    let mut backend = WorldBackend::new(world);
    let (mut engine, eval) = warmed_engine(
        world,
        &backend,
        |cfg| cfg.blame.grouping = grouping,
        warmup_days,
        2,
        days,
    );

    // Per BGP path: (issues, corroborated).
    let mut per_path: HashMap<PathId, (u64, u64)> = HashMap::new();
    for out in engine.run(&mut backend, eval) {
        for b in &out.blames {
            let Some(client) = world.topology().client(b.obs.p24) else {
                continue;
            };
            let gt = world.ground_truth(b.obs.loc, client, b.obs.bucket.mid());
            let Some(culprit) = gt.culprit else {
                continue; // noise-only badness: no adjudicable truth
            };
            let matched = match b.blame {
                Blame::Cloud => culprit.segment == Segment::Cloud,
                Blame::Middle => culprit.segment == Segment::Middle,
                Blame::Client => culprit.segment == Segment::Client && culprit.asn == b.origin,
                // Non-verdicts make no diagnosis to corroborate — the
                // paper scores only BlameIt's actual conclusions.
                Blame::Ambiguous | Blame::Insufficient => continue,
            };
            let e = per_path.entry(b.path).or_default();
            e.0 += 1;
            if matched {
                e.1 += 1;
            }
        }
    }
    let mut ratios: Vec<f64> = per_path
        .values()
        .filter(|(n, _)| *n >= 3)
        .map(|(n, ok)| *ok as f64 / *n as f64)
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios
}

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 3);
    let warmup_days = args.u64("warmup", 2).min(days.saturating_sub(1));
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "Figure 11",
        "Corroboration ratios: BGP-path grouping vs <AS, Metro> grouping",
    );
    let world = crate::organic_world(scale, days, seed);

    let path_ratios = ratios(&world, MiddleGrouping::BgpPath, warmup_days, days);
    let asmetro_ratios = ratios(&world, MiddleGrouping::AsMetro, warmup_days, days);

    println!(
        "paths scored: {} (bgp-path), {} (as-metro)",
        path_ratios.len(),
        asmetro_ratios.len()
    );
    fmt::cdf(
        "BlameIt with BGP-path grouping",
        &blameit::stats::ecdf(&path_ratios),
        15,
    );
    fmt::cdf(
        "BlameIt with <AS, Metro> grouping",
        &blameit::stats::ecdf(&asmetro_ratios),
        15,
    );

    let perfect = |rs: &[f64]| blameit::stats::fraction(rs, |r| *r >= 0.999);
    let mean = |rs: &[f64]| blameit::stats::mean(rs).unwrap_or(0.0);
    println!();
    println!(
        "perfect-corroboration paths: bgp-path {} vs as-metro {}  [paper: ~88% vs far fewer]",
        fmt::pct(perfect(&path_ratios)),
        fmt::pct(perfect(&asmetro_ratios))
    );
    println!(
        "mean corroboration: bgp-path {:.3} vs as-metro {:.3} → {}",
        mean(&path_ratios),
        mean(&asmetro_ratios),
        if mean(&path_ratios) > mean(&asmetro_ratios) {
            "HOLDS"
        } else {
            "check grouping ablation"
        }
    );
}
