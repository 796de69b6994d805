//! Table 2: details of the dataset analyzed.
//!
//! The paper summarizes one month of Azure telemetry (trillions of
//! RTTs, O(100M) client IPs, millions of /24s, O(100k) BGP prefixes,
//! O(10k) client ASes, O(100) metros). This regenerates the same rows
//! from the simulated corpus; absolute counts are smaller by design
//! (the simulator runs on one machine), but the row *structure* and
//! the relative ordering of magnitudes match.

use crate::{fmt, Args, Scale};
use blameit_simnet::{DatasetSummary, TimeRange};

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 1);
    let scale = args.scale(Scale::Small);

    fmt::banner("Table 2", "Details of the dataset analyzed");
    let world = crate::organic_world(scale, days, seed);
    let s = DatasetSummary::collect(&world, TimeRange::days(days));

    fmt::kv_table(&[
        ("# RTT measurements", s.rtt_measurements.to_string()),
        ("# quartets", s.quartets.to_string()),
        ("# client IP /24's", s.client_p24s.to_string()),
        ("# BGP prefixes", s.bgp_prefixes.to_string()),
        ("# client AS'es", s.client_ases.to_string()),
        ("# client metros", s.client_metros.to_string()),
        ("# middle BGP paths", s.bgp_paths.to_string()),
        ("# cloud locations", s.cloud_locations.to_string()),
        ("days covered", days.to_string()),
    ]);
    println!();
    println!(
        "paper (1 month of Azure): many trillions RTTs, O(100M) client IPs,\n\
         many millions /24s, O(100k) BGP prefixes, O(10k) client ASes, O(100) metros."
    );
    println!(
        "shape check: RTTs >> /24s > prefixes > ASes > metros: {}",
        if s.rtt_measurements as usize > s.client_p24s
            && s.client_p24s > s.bgp_prefixes
            && s.bgp_prefixes > s.client_ases
            && s.client_ases > s.client_metros
        {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
