//! Ablation: what does client-time-product prioritization buy?
//!
//! §2.4/§5.3: a 5% probe budget suffices *because* BlameIt aims it at
//! predicted impact. This ablation holds the budget fixed — the top K%
//! of middle-segment faults may be investigated — and compares three
//! ways of choosing them:
//!
//! * **impact-ranked** — BlameIt's client-time-product estimates
//!   (duration prediction × client prediction, accumulated per fault
//!   over its lifetime exactly as the engine computes them);
//! * **detection-order** — first detected, first investigated
//!   (PlanetSeer-style triggering without prioritization);
//! * **random** — Odin-style undirected sampling.
//!
//! Each selection is scored by the *true* client-time impact covered.

use crate::{fmt, organic_world, warmed_engine, Args, Scale};
use blameit::WorldBackend;
use blameit_simnet::FaultId;
use blameit_topology::rng::DetRng;
use std::collections::{BTreeMap, HashMap};

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 7);
    let warmup_days = args.u64("warmup", 2).min(days.saturating_sub(1));
    let budget_pct = args.f64("budget-pct", 5.0);
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "Ablation",
        "Investigation budget: impact-ranked vs detection-order vs random",
    );
    let world = organic_world(scale, days, seed);
    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(&world, &backend, |_| {}, warmup_days, 1, days);

    // True impact per middle fault.
    let oracle: HashMap<FaultId, f64> = blameit_baselines::middle_issues(&world, eval)
        .into_iter()
        .map(|i| (i.fault, i.client_time_product()))
        .collect();
    let total_impact: f64 = oracle.values().sum();

    // Run the engine, accumulating per-fault estimates exactly as
    // fig12 does: per (loc, path) issue, the peak client-time product;
    // per fault, the sum over its issues. Also record first detection.
    // (Ordered maps: the per-fault f64 sum must add up in the same
    // order every run.)
    let mut per_issue: BTreeMap<FaultId, BTreeMap<(u16, u32), f64>> = BTreeMap::new();
    let mut first_detect: HashMap<FaultId, usize> = HashMap::new();
    for (tick_i, out) in engine.run(&mut backend, eval).into_iter().enumerate() {
        for p in &out.ranked_issues {
            let fault = p
                .issue
                .affected_p24s
                .first()
                .and_then(|p24| world.topology().client(*p24))
                .and_then(|client| {
                    world
                        .ground_truth(p.issue.loc, client, p.issue.bucket.mid())
                        .middle_infl
                        .iter()
                        .max_by(|a, b| a.1.total_cmp(&b.1))
                        .map(|m| m.2)
                });
            if let Some(f) = fault {
                let e = per_issue
                    .entry(f)
                    .or_default()
                    .entry((p.issue.loc.0, p.issue.path.0))
                    .or_insert(0.0);
                *e = e.max(p.client_time_product);
                first_detect.entry(f).or_insert(tick_i);
            }
        }
    }
    let estimates: HashMap<FaultId, f64> = per_issue
        .into_iter()
        .map(|(f, m)| (f, m.values().sum()))
        .collect();

    // Sorted: the shuffles below must not inherit the map's iteration order.
    let mut detected: Vec<FaultId> = estimates.keys().copied().collect();
    detected.sort();
    let k = ((oracle.len() as f64 * budget_pct / 100.0).ceil() as usize).max(1);
    println!(
        "middle faults: {} total, {} detected; investigation budget: top {k} ({budget_pct}%)",
        oracle.len(),
        detected.len()
    );

    let coverage = |picked: &[FaultId]| -> f64 {
        picked
            .iter()
            .take(k)
            .filter_map(|f| oracle.get(f))
            .sum::<f64>()
            / total_impact.max(1.0)
    };

    // Impact-ranked.
    let mut by_estimate = detected.clone();
    by_estimate.sort_by(|a, b| estimates[b].total_cmp(&estimates[a]).then(a.cmp(b)));
    // Detection order.
    let mut by_detection = detected.clone();
    by_detection.sort_by_key(|f| (first_detect[f], *f));
    // Random (mean over 20 seeded shuffles for a stable number).
    let mut rng = DetRng::from_keys(seed, &[0xAB1A]);
    let mut random_cov = 0.0;
    for _ in 0..20 {
        let mut shuffled = detected.clone();
        rng.shuffle(&mut shuffled);
        random_cov += coverage(&shuffled);
    }
    random_cov /= 20.0;
    // Oracle ceiling for this budget.
    let mut by_truth: Vec<FaultId> = oracle.keys().copied().collect();
    by_truth.sort_by(|a, b| oracle[b].total_cmp(&oracle[a]).then(a.cmp(b)));

    let ranked_cov = coverage(&by_estimate);
    let fifo_cov = coverage(&by_detection);
    let oracle_cov = coverage(&by_truth);

    println!();
    println!("{:<18} {:>16}", "policy", "impact covered");
    println!("{:<18} {:>16}", "oracle ceiling", fmt::pct(oracle_cov));
    println!("{:<18} {:>16}", "impact-ranked", fmt::pct(ranked_cov));
    println!("{:<18} {:>16}", "detection-order", fmt::pct(fifo_cov));
    println!("{:<18} {:>16}", "random", fmt::pct(random_cov));
    println!();
    println!(
        "impact ranking beats unprioritized policies: {}",
        if ranked_cov > fifo_cov && ranked_cov > random_cov {
            "HOLDS"
        } else {
            "check estimators"
        }
    );
    println!(
        "and approaches the oracle ceiling ({} of it): {}",
        fmt::pct(ranked_cov / oracle_cov.max(1e-9)),
        if ranked_cov > 0.6 * oracle_cov {
            "HOLDS"
        } else {
            "check"
        }
    );
}
