//! §6.3 validation: 88 scripted incidents (5 named case studies + 83
//! generated), scored against the simulator's ground truth.
//!
//! The paper reports BlameIt's localization matched the network
//! engineers' manual conclusion in **all 88** investigated incidents.
//! Here the fault injector plays the adversary and the fault schedule
//! plays the engineers: an incident is correct when the dominant blame
//! matches the injected segment (and the actively-localized culprit AS
//! matches for middle incidents).

use crate::{fmt, scenarios, warmed_engine, Args, Scale};
use blameit::{Backend, WorldBackend};

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let warmup_days = args.u64("warmup", 2);
    let scale = args.scale(Scale::Small);

    fmt::banner("§6.3", "88-incident validation against ground truth");
    // Build the suite over a quiet world, then inject all incidents.
    let prototype = scenarios::quiet_world(scale, 1, seed);
    let suite = scenarios::incident_suite(&prototype, warmup_days, seed);
    let end = scenarios::suite_end(&suite);
    let days = end.secs() / 86_400 + 2;
    let mut world = scenarios::quiet_world(scale, days, seed);
    world.add_faults(suite.iter().map(|s| s.fault).collect());
    println!(
        "{} incidents over days {}..{} ({} case studies named)",
        suite.len(),
        warmup_days,
        days,
        5
    );

    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(&world, &backend, |_| {}, warmup_days, 2, days);

    let mut blames = Vec::new();
    let mut localizations = Vec::new();
    for out in engine.run(&mut backend, eval) {
        blames.extend(out.blames);
        localizations.extend(out.localizations);
    }
    println!(
        "engine: {} blame verdicts, {} active localizations, {} probes",
        blames.len(),
        localizations.len(),
        backend.probes_issued()
    );
    println!();

    let mut correct = 0usize;
    let mut failures = Vec::new();
    for s in &suite {
        let v = crate::score_incident(&world, s, &blames, &localizations);
        let ok = v.correct;
        if ok {
            correct += 1;
        } else {
            failures.push(v.clone());
        }
        // Print the named case studies and any failures in detail.
        if s.name.starts_with("case") || !ok {
            println!(
                "{:<32} expected {:<7} {:<7} → dominant {:?} culprit {:?} confidence {} [{}]",
                v.name,
                s.expected_segment.to_string(),
                s.expected_asn.to_string(),
                v.dominant,
                v.localized_culprit,
                fmt::pct(v.confidence),
                if ok { "OK" } else { "MISS" }
            );
        }
    }
    println!();
    println!(
        "correctly localized: {correct}/{}  [paper: 88/88]",
        suite.len()
    );
    println!(
        "verdict: {}",
        if correct == suite.len() {
            "HOLDS (all incidents localized)"
        } else if correct * 100 >= suite.len() * 90 {
            "MOSTLY HOLDS (≥90%)"
        } else {
            "check engine calibration"
        }
    );
}
