//! §6.5 headline: probe-budget comparison.
//!
//! * BlameIt (12 h background + churn triggers + budgeted on-demand)
//!   vs continuous 10-minute traceroutes over every (location, BGP
//!   path): the paper reports **72× fewer** probes.
//! * vs Trinocular-style adaptive probing: **20× fewer**.
//!
//! All three run over the same target set (the (location, path) pairs
//! that actually carry traffic), with probes counted by the backend.

use crate::{fmt, warmed_engine, Args, Scale};
use blameit::{Backend, ProbeTarget, WorldBackend};
use blameit_baselines::{ActiveOnlyMonitor, TrinocularMonitor};
use blameit_simnet::TimeRange;
use std::collections::BTreeMap;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 3);
    let warmup_days = args.u64("warmup", 2).min(days.saturating_sub(1));
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "§6.5",
        "Probe overhead: BlameIt vs active-only vs Trinocular",
    );
    let world = crate::organic_world(scale, days, seed);
    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(&world, &backend, |_| {}, warmup_days, 2, days);
    let eval_days = (days - warmup_days) as f64;

    // The common target set: (loc, path) pairs observed carrying
    // traffic (primary + secondary anycast assignments).
    let topo = world.topology();
    // Ordered: both monitors walk `targets` in this order.
    let mut targets_map: BTreeMap<(_, _), ProbeTarget> = BTreeMap::new();
    for c in &topo.clients {
        for loc in [Some(c.primary_loc), c.secondary_loc].into_iter().flatten() {
            let route = world.route_at(loc, c, eval.start);
            targets_map
                .entry((loc, route.path_id))
                .or_insert(ProbeTarget {
                    loc,
                    path: route.path_id,
                    p24: c.p24,
                });
        }
    }
    let targets: Vec<ProbeTarget> = targets_map.into_values().collect();
    println!("monitored (location, BGP path) targets: {}", targets.len());

    // BlameIt.
    for _ in engine.run(&mut backend, eval) {}
    let blameit_per_day = backend.probes_issued() as f64 / eval_days;

    // Active-only: continuous 10-minute probing, full coverage.
    // (Counted analytically and cross-checked by running the monitor
    // for two hours on the real backend.)
    let active_only_per_day = (86_400f64 / 600.0) * targets.len() as f64;
    let mut check_backend = WorldBackend::new(&world);
    let mut monitor = ActiveOnlyMonitor::new(600, 12);
    let two_hours = TimeRange::new(eval.start, eval.start + 2 * 3_600);
    let sample = monitor.run(&mut check_backend, two_hours, &targets);
    let extrapolated = sample as f64 * 12.0;

    // Trinocular-style adaptive probing, run for a full eval day.
    let mut tri_backend = WorldBackend::new(&world);
    let mut tri = TrinocularMonitor::paper_default();
    let one_day = TimeRange::new(eval.start, eval.start + 86_400);
    let tri_per_day = tri.run(&mut tri_backend, one_day, &targets) as f64;

    println!();
    fmt::kv_table(&[
        (
            "BlameIt probes/day (bg + on-demand)",
            format!("{blameit_per_day:.0}"),
        ),
        (
            "  of which background",
            format!(
                "{:.0}",
                engine.state().background_probes_total as f64 / eval_days
            ),
        ),
        (
            "  of which on-demand",
            format!(
                "{:.0}",
                engine.state().on_demand_probes_total as f64 / eval_days
            ),
        ),
        (
            "active-only probes/day (10 min)",
            format!("{active_only_per_day:.0} (measured 2h×12 = {extrapolated:.0})"),
        ),
        (
            "Trinocular-style probes/day",
            format!("{tri_per_day:.0} ({} anomalies)", tri.anomalies_detected()),
        ),
    ]);
    println!();
    let bg_per_day = engine.state().background_probes_total as f64 / eval_days;
    let vs_active_bg = active_only_per_day / bg_per_day.max(1.0);
    let vs_active = active_only_per_day / blameit_per_day.max(1.0);
    let vs_tri = tri_per_day / blameit_per_day.max(1.0);
    println!("BlameIt background vs active-only: {vs_active_bg:.0}× fewer  [paper: 72× = 144/day vs 2/day]");
    println!("BlameIt total (bg+on-demand) vs active-only: {vs_active:.0}× fewer");
    println!("BlameIt total vs Trinocular:  {vs_tri:.0}× fewer  [paper: 20×]");
    println!(
        "ordering BlameIt < Trinocular < active-only: {}",
        if blameit_per_day < tri_per_day && tri_per_day < active_only_per_day {
            "HOLDS"
        } else {
            "check budgets"
        }
    );
}
