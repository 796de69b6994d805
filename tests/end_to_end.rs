//! End-to-end integration: a scripted incident flows through the whole
//! stack — topology → telemetry → Algorithm 1 → prioritization →
//! active localization → alerts — and the ground truth adjudicates.

use blameit::{Backend, BadnessThresholds, Blame, BlameItConfig, BlameItEngine, WorldBackend};
use blameit_bench::{quiet_world, Scale};
use blameit_simnet::{Fault, FaultId, FaultTarget, SimTime, TimeRange};

/// A world with one strong AS-wide middle fault on day 2. Also returns
/// the faulty AS's worst per-location traffic share (tiny topologies
/// concentrate traffic; callers relax dominance checks when the AS
/// blankets a location).
fn middle_fault_world() -> (blameit_simnet::World, blameit_topology::Asn, f64) {
    let mut world = quiet_world(Scale::Tiny, 3, 1234);
    // Find a middle AS that does not blanket any location (so the
    // hierarchy resolves to "middle", not "cloud").
    let topo = world.topology();
    let mut counts: std::collections::HashMap<
        (blameit_topology::CloudLocId, blameit_topology::Asn),
        usize,
    > = std::collections::HashMap::new();
    let mut totals: std::collections::HashMap<blameit_topology::CloudLocId, usize> =
        std::collections::HashMap::new();
    for c in &topo.clients {
        *totals.entry(c.primary_loc).or_default() += 1;
        let route = &topo.routes_for(c.primary_loc, c).options[0];
        for asn in &topo.paths.get(route.path_id).middle {
            *counts.entry((c.primary_loc, *asn)).or_default() += 1;
        }
    }
    // Pick the middle AS with the lowest worst-location share (most
    // diverse), breaking ties toward higher total coverage.
    let mut best: Option<(blameit_topology::Asn, f64, usize)> = None;
    let mut candidates: Vec<blameit_topology::Asn> = counts.keys().map(|(_, a)| *a).collect();
    candidates.sort();
    candidates.dedup();
    for asn in candidates {
        let max_share = counts
            .iter()
            .filter(|((_, a), _)| *a == asn)
            .map(|((loc, _), n)| *n as f64 / totals[loc] as f64)
            .fold(0.0, f64::max);
        let coverage: usize = counts
            .iter()
            .filter(|((_, a), _)| *a == asn)
            .map(|(_, n)| *n)
            .sum();
        if coverage < 10 {
            continue;
        }
        let better = match best {
            None => true,
            Some((_, s, c)) => max_share < s - 1e-9 || (max_share < s + 1e-9 && coverage > c),
        };
        if better {
            best = Some((asn, max_share, coverage));
        }
    }
    let (asn, share, _) = best.expect("a usable middle AS exists");
    world.add_faults(vec![Fault {
        id: FaultId(0),
        target: FaultTarget::MiddleAs {
            asn,
            via_path: None,
        },
        start: SimTime::from_days(2),
        duration_secs: 4 * 3600,
        added_ms: 80.0,
    }]);
    (world, asn, share)
}

#[test]
fn middle_fault_detected_prioritized_and_localized() {
    let (world, faulty_as, share) = middle_fault_world();
    let thresholds = BadnessThresholds::default_for(&world);
    let mut engine = BlameItEngine::new(BlameItConfig::new(thresholds));
    let mut backend = WorldBackend::new(&world);
    // Learn on the quiet day 0, build baselines during day 1 (burn-in).
    engine.warmup(&backend, TimeRange::days(1), 1);
    for _ in engine.run(
        &mut backend,
        TimeRange::new(SimTime::from_days(1), SimTime::from_days(2)),
    ) {}

    // Analyze the first two hours of the fault.
    let start = SimTime::from_days(2);
    let mut middle_blames = 0u64;
    let mut other_blames = 0u64;
    let mut localized_correct = false;
    let mut saw_middle_alert = false;
    for out in engine.run(&mut backend, TimeRange::new(start, start + 2 * 3600)) {
        for b in &out.blames {
            let on_fault_path = world
                .topology()
                .paths
                .get(b.path)
                .middle
                .contains(&faulty_as);
            if !on_fault_path {
                continue;
            }
            if b.blame == Blame::Middle {
                middle_blames += 1;
            } else {
                other_blames += 1;
            }
        }
        for l in &out.localizations {
            if l.culprit == Some(faulty_as) {
                localized_correct = true;
            }
        }
        if out
            .alerts
            .iter()
            .any(|a| a.blame == Blame::Middle && a.culprit == Some(faulty_as))
        {
            saw_middle_alert = true;
        }
    }
    assert!(middle_blames > 0, "the fault must produce middle verdicts");
    if share < 0.5 {
        // Only meaningful when the AS does not blanket a location (a
        // blanketed location's verdicts legitimately go to the cloud
        // check first — Insight-2's trade-off).
        assert!(
            middle_blames > other_blames,
            "middle must dominate on the fault's paths: {middle_blames} vs {other_blames}"
        );
    }
    assert!(localized_correct, "the active phase must name {faulty_as}");
    assert!(
        saw_middle_alert,
        "operators must get a middle alert naming the culprit"
    );
}

#[test]
fn probe_accounting_is_exact() {
    let (world, _, _) = middle_fault_world();
    let thresholds = BadnessThresholds::default_for(&world);
    let mut engine = BlameItEngine::new(BlameItConfig::new(thresholds));
    let mut backend = WorldBackend::new(&world);
    engine.warmup(&backend, TimeRange::days(2), 2);
    assert_eq!(backend.probes_issued(), 0, "warmup must not probe");
    let start = SimTime::from_days(2);
    let outs = engine.run(&mut backend, TimeRange::new(start, start + 3 * 3600));
    let from_ticks: u64 = outs
        .iter()
        .map(|o| o.on_demand_probes + o.background_probes)
        .sum();
    assert_eq!(backend.probes_issued(), from_ticks);
    assert_eq!(
        from_ticks,
        engine.state().on_demand_probes_total + engine.state().background_probes_total
    );
}

#[test]
fn engine_run_is_deterministic() {
    let run = || {
        let (world, _, _) = middle_fault_world();
        let thresholds = BadnessThresholds::default_for(&world);
        let mut engine = BlameItEngine::new(BlameItConfig::new(thresholds));
        let mut backend = WorldBackend::new(&world);
        engine.warmup(&backend, TimeRange::days(2), 2);
        let start = SimTime::from_days(2);
        let outs = engine.run(&mut backend, TimeRange::new(start, start + 3600));
        outs.iter()
            .flat_map(|o| o.blames.iter())
            .map(|b| (b.obs.loc, b.obs.p24, b.obs.bucket, b.blame))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
