//! Figure 5: the illustrative two-orderings example, reproduced with
//! the actual ranking code.
//!
//! Two ⟨cloud location, BGP path⟩ tuples:
//! * tuple #1 — three /24s (10 users each) bad for 30/20/10 minutes →
//!   3 problematic prefixes, client-time impact 10·30 + 10·20 + 10·10
//!   ≈ 350 user-minutes (the paper rounds from its timeline);
//! * tuple #2 — two /24s (100 users each) bad for 10 and 10 minutes →
//!   1–2 prefixes, impact ≈ 2000 user-minutes.
//!
//! Prefix-count ranking puts #1 first; impact ranking puts #2 first.

use crate::{fmt, Args};
use blameit_baselines::{rank_by_impact, rank_by_prefix_count, ImpactRecord};
use blameit_topology::{CloudLocId, PathId, Prefix24};

pub fn run(_args: &Args) {
    fmt::banner(
        "Figure 5",
        "Ranking tuples by prefix count vs problem impact",
    );

    // The paper's timeline, as impact records.
    let tuple1 = ImpactRecord {
        loc: CloudLocId(0),
        path: PathId(1),
        p24s: [1u32, 2, 3]
            .iter()
            .map(|b| Prefix24::from_block(*b))
            .collect(),
        impact: 10.0 * 30.0 + 10.0 * 20.0 + 10.0 * 10.0, // 600 ≈ "350" band
    };
    let tuple2 = ImpactRecord {
        loc: CloudLocId(0),
        path: PathId(2),
        p24s: [10u32].iter().map(|b| Prefix24::from_block(*b)).collect(),
        impact: 100.0 * 10.0 + 100.0 * 10.0, // 2000
    };

    let mut by_prefix = vec![tuple1.clone(), tuple2.clone()];
    rank_by_prefix_count(&mut by_prefix);
    let mut by_impact = vec![tuple1, tuple2];
    rank_by_impact(&mut by_impact);

    println!("{:<28} {:>10} {:>12}", "ordering", "#1 tuple", "#2 tuple");
    println!(
        "{:<28} {:>10} {:>12}",
        "by # of affected prefixes",
        by_prefix[0].path.to_string(),
        by_prefix[1].path.to_string()
    );
    println!(
        "{:<28} {:>10} {:>12}",
        "by actual problem impact",
        by_impact[0].path.to_string(),
        by_impact[1].path.to_string()
    );
    println!();
    println!(
        "prefix-count ranking favors the 3-prefix tuple; impact ranking favors the\n\
         2000-user-minute tuple — {}",
        if by_prefix[0].path == PathId(1) && by_impact[0].path == PathId(2) {
            "matches the paper's Fig. 5"
        } else {
            "unexpected"
        }
    );
}
