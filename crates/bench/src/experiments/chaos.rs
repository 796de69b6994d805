//! Chaos sweep: blame quality under data-plane fault injection.
//!
//! Wraps the simulator backend in a [`ChaosBackend`] and sweeps the
//! probe-timeout rate (plus the named `mild`/`heavy` plans) over a
//! quiet world carrying one injected middle-AS fault. For each point
//! it reports how often the active phase still names the culprit AS,
//! how the failures degrade (per-reason breakdown), and the passive
//! phase's blame accuracy — the degradation curve the chaos layer is
//! designed to flatten: verdicts may become `MiddleUnlocalized`, but
//! never wrong or panicked.

use crate::{fmt, quiet_world, score_blames, warmed_engine, Args, Scale};
use blameit::{ChaosBackend, LocalizationVerdict, TickOutput, UnlocalizedReason, WorldBackend};
use blameit_simnet::{Fault, FaultId, FaultPlan, FaultTarget, SimTime, TimeRange, World};
use blameit_topology::rng::DetRng;
use blameit_topology::Asn;

/// A quiet world with one strong middle-AS fault in hour 25–27.
fn chaos_world(seed: u64) -> (World, Asn, TimeRange) {
    let mut world = quiet_world(Scale::Tiny, 2, seed);
    let topo = world.topology();
    let mut middles: Vec<Asn> = topo
        .clients
        .iter()
        .flat_map(|c| {
            let route = &topo.routes_for(c.primary_loc, c).options[0];
            topo.paths.get(route.path_id).middle.clone()
        })
        .collect();
    middles.sort_unstable();
    middles.dedup();
    let mut rng = DetRng::from_keys(seed, &[0xC4A0]);
    let culprit = *rng.pick(&middles);
    let start = SimTime::from_hours(25);
    world.add_faults(vec![Fault {
        id: FaultId(0),
        target: FaultTarget::MiddleAs {
            asn: culprit,
            via_path: None,
        },
        start,
        duration_secs: 2 * 3_600,
        added_ms: 110.0,
    }]);
    (world, culprit, TimeRange::new(start, start + 2 * 3_600))
}

struct CasePoint {
    label: String,
    localizations: u64,
    culprit_named: u64,
    culprit_correct: u64,
    degraded: [u64; UnlocalizedReason::ALL.len()],
    retries: u64,
    faults_injected: u64,
    accuracy: f64,
}

impl CasePoint {
    fn culprit_fraction(&self) -> f64 {
        if self.localizations == 0 {
            return 0.0;
        }
        self.culprit_named as f64 / self.localizations as f64
    }
}

fn run_case(
    label: &str,
    world: &World,
    culprit: Asn,
    plan: FaultPlan,
    eval: TimeRange,
) -> CasePoint {
    let mut backend = ChaosBackend::new(WorldBackend::new(world), plan);
    // Warm up on day 0 through the chaos layer; the window scored is
    // the injected fault's, not the helper's whole second day.
    let (mut engine, _) = warmed_engine(world, &backend, |_| {}, 1, 2, 2);
    let outs: Vec<TickOutput> = engine.run(&mut backend, eval);

    let mut point = CasePoint {
        label: label.to_string(),
        localizations: 0,
        culprit_named: 0,
        culprit_correct: 0,
        degraded: [0; UnlocalizedReason::ALL.len()],
        retries: engine.metrics().probe_retries.get(),
        faults_injected: backend.faults_injected(),
        accuracy: 0.0,
    };
    let blames: Vec<_> = outs.iter().flat_map(|o| o.blames.iter().cloned()).collect();
    point.accuracy = score_blames(world, &blames).accuracy();
    for out in &outs {
        for l in &out.localizations {
            point.localizations += 1;
            match l.verdict {
                LocalizationVerdict::Culprit(asn) => {
                    point.culprit_named += 1;
                    if asn == culprit {
                        point.culprit_correct += 1;
                    }
                }
                LocalizationVerdict::MiddleUnlocalized { reason } => {
                    let idx = UnlocalizedReason::ALL
                        .iter()
                        .position(|r| *r == reason)
                        .expect("reason in ALL");
                    point.degraded[idx] += 1;
                }
            }
        }
    }
    point
}

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let fault_seed = args.u64("fault-seed", 0xC4A05);

    fmt::banner(
        "chaos",
        "Fault injection: blame degradation vs probe-timeout rate",
    );
    let (world, culprit, eval) = chaos_world(seed);
    println!(
        "world: quiet tiny, middle fault on {culprit:?} (+110 ms, hours 25\u{2013}27), \
         fault seed {fault_seed:#x}"
    );
    println!();

    let mut cases: Vec<(String, FaultPlan)> = [0.0, 0.1, 0.2, 0.3, 0.5]
        .iter()
        .map(|&rate| {
            (
                format!("timeout {:>3.0}%", rate * 100.0),
                FaultPlan::probe_timeouts(rate, fault_seed),
            )
        })
        .collect();
    for name in ["mild", "heavy"] {
        cases.push((
            format!("plan {name:>6}"),
            FaultPlan::parse(name, fault_seed).expect("named plan"),
        ));
    }

    let mut points: Vec<CasePoint> = Vec::new();
    println!(
        "{:<14} {:>7} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "case", "faults", "localized", "culprit%", "correct", "degraded", "retries", "accuracy"
    );
    for (label, plan) in cases {
        let p = run_case(&label, &world, culprit, plan, eval);
        println!(
            "{:<14} {:>7} {:>9} {:>8.0}% {:>9} {:>8} {:>8} {:>8.0}%",
            p.label,
            p.faults_injected,
            p.localizations,
            p.culprit_fraction() * 100.0,
            p.culprit_correct,
            p.degraded.iter().sum::<u64>(),
            p.retries,
            p.accuracy * 100.0,
        );
        points.push(p);
    }

    println!();
    println!(
        "degraded-verdict reasons (worst case, {}):",
        points.last().unwrap().label
    );
    let worst = points
        .iter()
        .max_by_key(|p| p.degraded.iter().sum::<u64>())
        .unwrap();
    for (i, r) in UnlocalizedReason::ALL.iter().enumerate() {
        if worst.degraded[i] > 0 {
            println!("  {:<18} {}", r.label(), worst.degraded[i]);
        }
    }

    // The contract under fire: faults cost coverage (fewer culprits
    // named), never honesty (no panics; clean runs stay clean).
    let clean = &points[0];
    let storm = &points[4];
    assert!(
        clean.faults_injected == 0,
        "a 0% plan must inject nothing (saw {})",
        clean.faults_injected
    );
    assert!(
        storm.culprit_fraction() <= clean.culprit_fraction() + 1e-9,
        "culprit coverage should not improve under a 50% timeout storm"
    );
    println!();
    println!(
        "degradation: culprit coverage {} -> {} from 0% to 50% timeouts (graceful: {})",
        fmt::pct(clean.culprit_fraction()),
        fmt::pct(storm.culprit_fraction()),
        if storm.culprit_fraction() <= clean.culprit_fraction() + 1e-9 {
            "HOLDS"
        } else {
            "violated"
        }
    );
}
