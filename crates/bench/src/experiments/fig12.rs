//! Figure 12: CDF of client-time product of middle-segment issues
//! ranked by the oracle, and how BlameIt's *estimated* prioritization
//! compares.
//!
//! Paper shape: impact is extremely skewed — ~5% of middle issues
//! cover >83% of cumulative client-time product, so a 5% probe budget
//! suffices; and BlameIt's estimates prioritize "as good as an
//! oracle".

use crate::{fmt, warmed_engine, Args, Scale};
use blameit::WorldBackend;
use blameit_simnet::FaultId;
use std::collections::{BTreeMap, HashMap};

/// What the ranking comparison measured; [`run`] prints it and
/// `tests/paper_claims.rs` gates on the two coverages.
pub struct Fig12Score {
    /// Middle issues in the window, by the oracle.
    pub oracle_issues: usize,
    /// Middle faults BlameIt detected and ranked.
    pub ranked_faults: usize,
    /// Cumulative true impact vs issue rank, oracle order.
    pub curve: Vec<(f64, f64)>,
    /// Share of total client-time impact the oracle's top 5 % covers.
    pub oracle_top5: f64,
    /// True impact share of the top 5 % by BlameIt's *estimates*.
    pub blameit_top5: f64,
    /// The `--debug` rows (top-10 true faults); empty without the flag.
    debug_rows: Vec<String>,
}

/// Ranks an organic run's middle issues by the oracle's true
/// client-time product and by BlameIt's estimates.
pub fn score(args: &Args) -> Fig12Score {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 10);
    let warmup_days = args.u64("warmup", 3).min(days.saturating_sub(1));
    let scale = args.scale(Scale::Small);

    let world = crate::organic_world(scale, days, seed);
    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(&world, &backend, |_| {}, warmup_days, 1, days);

    // Oracle: true client-time products of middle issues in the window.
    let oracle = blameit_baselines::middle_issues(&world, eval);
    let mut true_product: HashMap<FaultId, f64> = oracle
        .iter()
        .map(|i| (i.fault, i.client_time_product()))
        .collect();

    // BlameIt: run the engine, capture every pre-budget ranked issue's
    // estimated product, attribute it to the ground-truth fault.
    // A fault may span many (location, path) issues; the engine
    // estimates per issue, so a fault's estimate is the sum over its
    // issues of each issue's peak client-time product.
    // Ordered maps: each fault's estimate is an f64 sum over its
    // issues, which must add up in the same order every run.
    let mut per_issue: BTreeMap<
        FaultId,
        BTreeMap<(blameit_topology::CloudLocId, blameit_topology::PathId), f64>,
    > = BTreeMap::new();
    let mut max_elapsed: HashMap<FaultId, u32> = HashMap::new();
    let mut max_rem: HashMap<FaultId, f64> = HashMap::new();
    for out in engine.run(&mut backend, eval) {
        for p in &out.ranked_issues {
            let Some(p24) = p.issue.affected_p24s.first() else {
                continue;
            };
            let Some(client) = world.topology().client(*p24) else {
                continue;
            };
            let gt = world.ground_truth(p.issue.loc, client, p.issue.bucket.mid());
            // Attribute to the dominant middle fault on the path.
            let fault = gt
                .middle_infl
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|m| m.2);
            if let Some(f) = fault {
                let e = per_issue
                    .entry(f)
                    .or_default()
                    .entry((p.issue.loc, p.issue.path))
                    .or_insert(0.0);
                *e = e.max(p.client_time_product);
                if args.get("debug").is_some() {
                    max_elapsed
                        .entry(f)
                        .and_modify(|m: &mut u32| *m = (*m).max(p.issue.elapsed_buckets))
                        .or_insert(p.issue.elapsed_buckets);
                    max_rem
                        .entry(f)
                        .and_modify(|m: &mut f64| *m = m.max(p.expected_remaining_buckets))
                        .or_insert(p.expected_remaining_buckets);
                }
            }
        }
    }
    let estimates: HashMap<FaultId, f64> = per_issue
        .into_iter()
        .map(|(f, m)| (f, m.values().sum()))
        .collect();

    // Oracle ordering CDF.
    let mut by_true: Vec<(FaultId, f64)> = true_product.clone().into_iter().collect();
    by_true.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let total: f64 = by_true.iter().map(|x| x.1).sum();
    let mut acc = 0.0;
    let curve: Vec<(f64, f64)> = by_true
        .iter()
        .enumerate()
        .map(|(i, (_, p))| {
            acc += p;
            ((i + 1) as f64 / by_true.len() as f64, acc / total)
        })
        .collect();
    let coverage_at = |curve: &[(f64, f64)], frac: f64| {
        curve
            .iter()
            .take_while(|(x, _)| *x <= frac + 1e-9)
            .last()
            .map(|(_, y)| *y)
            .unwrap_or(0.0)
    };
    let oracle_top5 = coverage_at(&curve, 0.05);

    // BlameIt's ordering, measured in *true* impact.
    let mut by_est: Vec<(FaultId, f64)> = estimates.iter().map(|(f, e)| (*f, *e)).collect();
    by_est.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let k = (by_true.len() as f64 * 0.05).ceil() as usize;
    let blameit_top5_impact: f64 = by_est
        .iter()
        .take(k)
        .map(|(f, _)| true_product.remove(f).unwrap_or(0.0))
        .sum();
    let blameit_top5 = blameit_top5_impact / total;

    let mut debug_rows = Vec::new();
    if args.get("debug").is_some() {
        for (f, p) in by_true.iter().take(10) {
            let dur = oracle
                .iter()
                .find(|i| i.fault == *f)
                .map(|i| i.duration_buckets)
                .unwrap_or(0);
            debug_rows.push(format!(
                "  {:?} true={:.0} dur={} est={:.0} elapsed={} rem={:.1}",
                f,
                p,
                dur,
                estimates.get(f).copied().unwrap_or(0.0),
                max_elapsed.get(f).copied().unwrap_or(0),
                max_rem.get(f).copied().unwrap_or(0.0)
            ));
        }
    }
    Fig12Score {
        oracle_issues: oracle.len(),
        ranked_faults: estimates.len(),
        curve,
        oracle_top5,
        blameit_top5,
        debug_rows,
    }
}

pub fn run(args: &Args) {
    fmt::banner(
        "Figure 12",
        "Client-time product of middle issues: oracle vs BlameIt ranking",
    );
    let s = score(args);
    println!("middle issues in window (oracle): {}", s.oracle_issues);
    println!(
        "middle issues detected & ranked by BlameIt: {}",
        s.ranked_faults
    );
    fmt::cdf(
        "cumulative impact vs issue rank (oracle order)",
        &s.curve,
        20,
    );
    if args.get("debug").is_some() {
        println!(
            "top-10 true faults: (true_product, duration_buckets, est, max_elapsed, max_E[rem])"
        );
        for row in &s.debug_rows {
            println!("{row}");
        }
    }
    println!();
    println!(
        "top-5% coverage of total client-time impact: oracle {}  blameit {}  [paper: ~83%, near-oracle]",
        fmt::pct(s.oracle_top5),
        fmt::pct(s.blameit_top5)
    );
    println!(
        "skew + near-oracle prioritization: {}",
        if s.oracle_top5 > 0.5 && s.blameit_top5 > 0.6 * s.oracle_top5 {
            "HOLDS"
        } else {
            "check estimators"
        }
    );
}
