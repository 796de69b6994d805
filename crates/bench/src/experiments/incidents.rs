//! §6.3 validation: 88 scripted incidents (5 named case studies + 83
//! generated), scored against the simulator's ground truth.
//!
//! The paper reports BlameIt's localization matched the network
//! engineers' manual conclusion in **all 88** investigated incidents.
//! Here the fault injector plays the adversary and the fault schedule
//! plays the engineers: an incident is correct when the dominant blame
//! matches the injected segment (and the actively-localized culprit AS
//! matches for middle incidents).

use crate::{fmt, scenarios, warmed_engine, Args, IncidentScenario, IncidentVerdict, Scale};
use blameit::{Backend, WorldBackend};

/// What the validation measured; [`run`] prints it and
/// `tests/paper_claims.rs` gates on it.
pub struct IncidentsScore {
    /// The evaluated days: warm-up end to the end of the suite.
    pub days: std::ops::Range<u64>,
    /// Passive blame verdicts the engine produced.
    pub blames: usize,
    /// Active localizations attempted.
    pub localizations: usize,
    /// Probes issued, background and on-demand.
    pub probes: u64,
    /// Each incident with its verdict, in suite order.
    pub verdicts: Vec<(IncidentScenario, IncidentVerdict)>,
}

impl IncidentsScore {
    /// Incidents whose dominant blame (and culprit AS, for middle
    /// incidents) matched the injected ground truth.
    pub fn correct(&self) -> usize {
        self.verdicts.iter().filter(|(_, v)| v.correct).count()
    }
}

/// Injects the 88-incident suite into a quiet world, runs the engine
/// over it and scores every incident against ground truth.
pub fn score(args: &Args) -> IncidentsScore {
    let seed = args.u64("seed", 2019);
    let warmup_days = args.u64("warmup", 2);
    let scale = args.scale(Scale::Small);

    // Build the suite over a quiet world, then inject all incidents.
    let prototype = scenarios::quiet_world(scale, 1, seed);
    let suite = scenarios::incident_suite(&prototype, warmup_days, seed);
    let end = scenarios::suite_end(&suite);
    let days = end.secs() / 86_400 + 2;
    let mut world = scenarios::quiet_world(scale, days, seed);
    world.add_faults(suite.iter().map(|s| s.fault).collect());

    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(&world, &backend, |_| {}, warmup_days, 2, days);

    let mut blames = Vec::new();
    let mut localizations = Vec::new();
    for out in engine.run(&mut backend, eval) {
        blames.extend(out.blames);
        localizations.extend(out.localizations);
    }
    IncidentsScore {
        days: warmup_days..days,
        blames: blames.len(),
        localizations: localizations.len(),
        probes: backend.probes_issued(),
        verdicts: suite
            .into_iter()
            .map(|s| {
                let v = crate::score_incident(&world, &s, &blames, &localizations);
                (s, v)
            })
            .collect(),
    }
}

pub fn run(args: &Args) {
    fmt::banner("§6.3", "88-incident validation against ground truth");
    let score = score(args);
    let total = score.verdicts.len();
    println!(
        "{total} incidents over days {}..{} ({} case studies named)",
        score.days.start, score.days.end, 5
    );
    println!(
        "engine: {} blame verdicts, {} active localizations, {} probes",
        score.blames, score.localizations, score.probes
    );
    println!();

    for (s, v) in &score.verdicts {
        // Print the named case studies and any failures in detail.
        if s.name.starts_with("case") || !v.correct {
            println!(
                "{:<32} expected {:<7} {:<7} → dominant {:?} culprit {:?} confidence {} [{}]",
                v.name,
                s.expected_segment.to_string(),
                s.expected_asn.to_string(),
                v.dominant,
                v.localized_culprit,
                fmt::pct(v.confidence),
                if v.correct { "OK" } else { "MISS" }
            );
        }
    }
    let correct = score.correct();
    println!();
    println!("correctly localized: {correct}/{total}  [paper: 88/88]");
    println!(
        "verdict: {}",
        if correct == total {
            "HOLDS (all incidents localized)"
        } else if correct * 100 >= total * 90 {
            "MOSTLY HOLDS (≥90%)"
        } else {
            "check engine calibration"
        }
    );
}
