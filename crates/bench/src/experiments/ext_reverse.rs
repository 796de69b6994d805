//! Extension experiment (§5.1): reverse-path faults and
//! client-coordinated reverse traceroutes.
//!
//! The paper's active phase probes only cloud→client ("for ease of
//! deployment") and notes that "reverse traceroute techniques can be
//! incorporated" because "Azure already has many users with rich
//! clients". This experiment quantifies what that buys: inject
//! reverse-direction middle faults (invisible to forward per-hop
//! structure — they shift every hop uniformly, which diffs onto the
//! first AS), then localize with (a) forward-only diffs, as deployed,
//! and (b) forward + reverse combined.
//!
//! Expected shape: forward-only accuracy collapses on reverse faults;
//! adding the reverse probe recovers most of it.

use crate::{fmt, quiet_world, Args, Scale};
use blameit::{combine_directional_diffs, diff_traceroutes};
use blameit_simnet::{Fault, FaultId, FaultTarget, SimTime};
use blameit_topology::rng::DetRng;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let trials = args.u64("trials", 120) as usize;
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "§5.1 extension",
        "Reverse-path faults: forward-only vs forward+reverse localization",
    );
    let base_world = quiet_world(scale, 2, seed);
    let topo = base_world.topology();
    let mut rng = DetRng::from_keys(seed, &[0x004E_5EEE]);

    let mut fwd_correct = 0usize;
    let mut fwd_blamed_first_hop = 0usize;
    let mut both_correct = 0usize;
    let mut scored = 0usize;

    for trial in 0..trials {
        // A random client and a middle AS on its *reverse* path.
        let c = &topo.clients[rng.index(topo.clients.len())];
        let probe_t = SimTime::from_hours(30 + (trial as u64 % 7));
        let rev = base_world.reverse_route_at(c.primary_loc, c, probe_t);
        let rev_middle = &topo.paths.get(rev.path_id).middle;
        let Some(asn) = rev_middle.first().copied() else {
            continue;
        };

        let mut world = base_world.clone();
        world.add_faults(vec![Fault {
            id: FaultId(0),
            target: FaultTarget::MiddleAsReverse { asn },
            start: SimTime::from_hours(28),
            duration_secs: 12 * 3_600,
            added_ms: 70.0,
        }]);

        // Baselines from before the fault; probes during it.
        let base_t = SimTime::from_hours(20);
        let (Some(fwd_base), Some(fwd_now)) = (
            base_world.traceroute(c.primary_loc, c.p24, base_t),
            world.traceroute(c.primary_loc, c.p24, probe_t),
        ) else {
            continue;
        };
        let (Some(rev_base), Some(rev_now)) = (
            base_world.reverse_traceroute(c.primary_loc, c.p24, base_t),
            world.reverse_traceroute(c.primary_loc, c.p24, probe_t),
        ) else {
            continue;
        };

        scored += 1;
        let fwd_diff = diff_traceroutes(&fwd_base, &fwd_now);
        let rev_diff = diff_traceroutes(&rev_base, &rev_now);

        if fwd_diff.culprit == Some(asn) {
            fwd_correct += 1;
        }
        // The characteristic failure: a uniform shift lands on the
        // first forward hop (the cloud AS).
        if fwd_diff.culprit == Some(topo.cloud_asn) {
            fwd_blamed_first_hop += 1;
        }
        if combine_directional_diffs(&fwd_diff, &rev_diff) == Some(asn) {
            both_correct += 1;
        }
    }

    let pct = |n: usize| fmt::pct(n as f64 / scored.max(1) as f64);
    println!("reverse-fault trials scored: {scored}");
    fmt::kv_table(&[
        ("forward-only culprit accuracy", pct(fwd_correct)),
        ("  …misblamed the cloud AS", pct(fwd_blamed_first_hop)),
        ("forward + reverse accuracy", pct(both_correct)),
    ]);
    println!();
    println!(
        "reverse probing recovers reverse-path faults: {}",
        if both_correct > fwd_correct && both_correct as f64 / scored.max(1) as f64 > 0.6 {
            "HOLDS"
        } else {
            "check asymmetry model"
        }
    );
}
