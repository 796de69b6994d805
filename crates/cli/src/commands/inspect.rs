//! Read-only inspection verbs: `topo`, `routes`, `simulate`, `probe`.
//! They build a world and print what is in it; no engine runs.

use super::{err, CliError};
use blameit_bench::{organic_world, Args, Scale};
use blameit_simnet::{DatasetSummary, SimTime, TimeRange};
use blameit_topology::{AsRole, CloudLocId, Prefix24, Region};
use std::fmt::Write as _;

pub(super) fn cmd_topo(args: &Args) -> Result<String, CliError> {
    let world = organic_world(args.scale(Scale::Small), 1, args.u64("seed", 2019));
    let topo = world.topology();
    if args.get("dot").is_some() {
        return Ok(render_dot(topo));
    }
    let mut out = String::new();
    let count_role = |role: AsRole| topo.ases.iter().filter(|a| a.role == role).count();
    writeln!(out, "topology (seed {}):", args.u64("seed", 2019)).unwrap();
    writeln!(out, "  metros:           {}", topo.metros.len()).unwrap();
    writeln!(out, "  cloud locations:  {}", topo.cloud_locations.len()).unwrap();
    writeln!(out, "  tier-1 ASes:      {}", count_role(AsRole::Tier1)).unwrap();
    writeln!(out, "  transit ASes:     {}", count_role(AsRole::Transit)).unwrap();
    writeln!(
        out,
        "  access ISPs:      {} broadband + {} cellular",
        count_role(AsRole::AccessBroadband),
        count_role(AsRole::AccessMobile)
    )
    .unwrap();
    writeln!(out, "  announced prefixes: {}", topo.prefixes.len()).unwrap();
    writeln!(out, "  client /24s:      {}", topo.clients.len()).unwrap();
    writeln!(out, "  middle BGP paths: {}", topo.paths.len()).unwrap();
    writeln!(out, "\n  per-region clients:").unwrap();
    for r in Region::ALL {
        let n = topo.clients.iter().filter(|c| c.region == r).count();
        writeln!(out, "    {:>12}: {n}", r.label()).unwrap();
    }
    Ok(out)
}

/// Renders the AS-level peering graph as Graphviz DOT: one node per
/// AS (shaped by role), one edge per distinct AS adjacency in the PoP
/// graph.
fn render_dot(topo: &blameit_topology::Topology) -> String {
    use std::collections::BTreeSet;
    let mut out = String::new();
    writeln!(out, "graph blameit_topology {{").unwrap();
    writeln!(out, "  layout=sfdp; overlap=false; splines=true;").unwrap();
    for a in &topo.ases {
        let (shape, color) = match a.role {
            AsRole::Cloud => ("doublecircle", "gold"),
            AsRole::Tier1 => ("hexagon", "steelblue"),
            AsRole::Transit => ("box", "seagreen"),
            AsRole::AccessBroadband => ("ellipse", "gray70"),
            AsRole::AccessMobile => ("ellipse", "plum"),
        };
        writeln!(
            out,
            "  \"{}\" [label=\"{}\\n{}\", shape={shape}, style=filled, fillcolor={color}];",
            a.asn, a.asn, a.name
        )
        .unwrap();
    }
    // Distinct AS-level adjacencies from the PoP graph.
    let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
    for pop in topo.graph.pops() {
        for (nbr, _, _) in topo.graph.neighbors(pop.id) {
            let other = topo.graph.pop(nbr).asn;
            if other != pop.asn {
                let (a, b) = if pop.asn.0 < other.0 {
                    (pop.asn.0, other.0)
                } else {
                    (other.0, pop.asn.0)
                };
                edges.insert((a, b));
            }
        }
    }
    for (a, b) in edges {
        writeln!(out, "  \"AS{a}\" -- \"AS{b}\";").unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

pub(super) fn cmd_routes(args: &Args) -> Result<String, CliError> {
    let world = organic_world(args.scale(Scale::Small), 1, args.u64("seed", 2019));
    let topo = world.topology();
    let c = match args.get("p24") {
        Some(s) => {
            let p24: Prefix24 = s.parse().map_err(|e| err(format!("bad --p24: {e}")))?;
            topo.client(p24)
                .ok_or_else(|| err(format!("{p24} is not a known client block")))?
        }
        None => &topo.clients[args.u64("client", 0) as usize % topo.clients.len()],
    };
    let mut out = String::new();
    writeln!(
        out,
        "client {} — {} ({}, {}), population ~{}, {}",
        c.p24,
        c.origin,
        topo.as_info(c.origin)
            .map(|a| a.name.clone())
            .unwrap_or_default(),
        c.region.label(),
        c.population,
        if c.mobile {
            "cellular"
        } else if c.enterprise {
            "enterprise"
        } else {
            "home broadband"
        },
    )
    .unwrap();
    writeln!(
        out,
        "announced prefix {}, anycast primary {}, secondary {}",
        topo.announced_prefix(c).prefix,
        c.primary_loc,
        c.secondary_loc
            .map(|l| l.to_string())
            .unwrap_or_else(|| "-".into()),
    )
    .unwrap();
    for loc in [Some(c.primary_loc), c.secondary_loc].into_iter().flatten() {
        let ro = topo.routes_for(loc, c);
        let live = world.route_at(loc, c, SimTime(args.u64("at-secs", 43_200)));
        writeln!(out, "\nroutes from {loc}:").unwrap();
        for (i, opt) in ro.options.iter().enumerate() {
            let middle = topo.paths.get(opt.path_id);
            writeln!(
                out,
                "  option {} {} {:<28} one-way {:>6.2} ms  {}",
                i,
                if opt.path_id == live.path_id && opt.total_oneway_ms == live.total_oneway_ms {
                    "*"
                } else {
                    " "
                },
                middle.to_string(),
                opt.total_oneway_ms,
                opt.path_id,
            )
            .unwrap();
        }
    }
    writeln!(out, "\n(* = live at --at-secs, accounting for BGP churn)").unwrap();
    Ok(out)
}

pub(super) fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let days = args.u64("days", 1);
    let world = organic_world(args.scale(Scale::Small), days, args.u64("seed", 2019));
    let s = DatasetSummary::collect(&world, TimeRange::days(days));
    if args.get("json").is_some() {
        let j = blameit_obs::json::Json::obj()
            .field("days", days)
            .field("seed", args.u64("seed", 2019))
            .field("rtt_measurements", s.rtt_measurements)
            .field("quartets", s.quartets)
            .field("client_p24s", s.client_p24s)
            .field("bgp_prefixes", s.bgp_prefixes)
            .field("client_ases", s.client_ases)
            .field("bgp_paths", s.bgp_paths)
            .field("scheduled_faults", world.faults().len());
        return Ok(format!("{j}\n"));
    }
    let mut out = String::new();
    writeln!(out, "simulated {days} day(s):").unwrap();
    writeln!(out, "  RTT measurements: {}", s.rtt_measurements).unwrap();
    writeln!(out, "  quartets:         {}", s.quartets).unwrap();
    writeln!(out, "  client /24s:      {}", s.client_p24s).unwrap();
    writeln!(out, "  BGP prefixes:     {}", s.bgp_prefixes).unwrap();
    writeln!(out, "  client ASes:      {}", s.client_ases).unwrap();
    writeln!(out, "  middle BGP paths: {}", s.bgp_paths).unwrap();
    writeln!(out, "  scheduled faults: {}", world.faults().len()).unwrap();
    Ok(out)
}

pub(super) fn cmd_probe(args: &Args) -> Result<String, CliError> {
    let world = organic_world(args.scale(Scale::Small), 1, args.u64("seed", 2019));
    let loc = CloudLocId(args.int("loc", 0));
    if loc.0 as usize >= world.topology().cloud_locations.len() {
        return Err(err(format!("no cloud location {}", loc.0)));
    }
    let p24 = match args.get("p24") {
        Some(s) => s
            .parse::<Prefix24>()
            .map_err(|e| err(format!("bad --p24: {e}")))?,
        None => {
            // Default: the first /24 served by this location.
            world
                .topology()
                .clients_of(loc)
                .next()
                .ok_or_else(|| err(format!("{loc} serves no clients")))?
                .p24
        }
    };
    let at = SimTime(args.u64("at-secs", 43_200));
    let tr = world
        .traceroute(loc, p24, at)
        .ok_or_else(|| err(format!("{p24} is not a known client block")))?;

    let mut out = String::new();
    writeln!(out, "traceroute {loc} → {p24} at {at}:").unwrap();
    for (i, h) in tr.hops.iter().enumerate() {
        if h.responded {
            writeln!(
                out,
                "  {:>2}  {:<8} {:<10} {:>8.2} ms   [{}]",
                i + 1,
                h.asn.to_string(),
                world
                    .topology()
                    .as_info(h.asn)
                    .map(|a| a.name.clone())
                    .unwrap_or_default(),
                h.rtt_ms,
                h.segment,
            )
            .unwrap();
        } else {
            writeln!(out, "  {:>2}  * * *  (no response)", i + 1).unwrap();
        }
    }
    writeln!(out, "\nper-AS contributions:").unwrap();
    for (asn, ms) in tr.as_contributions() {
        writeln!(out, "  {:<8} {:>8.2} ms", asn.to_string(), ms).unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tests::run_s;
    use super::*;

    #[test]
    fn topo_lists_inventory() {
        let out = run_s(&["topo", "--scale", "tiny", "--seed", "3"]).unwrap();
        assert!(out.contains("cloud locations:"), "{out}");
        assert!(out.contains("middle BGP paths:"));
        for r in Region::ALL {
            assert!(out.contains(r.label()));
        }
    }

    #[test]
    fn topo_dot_is_valid_graphviz() {
        let out = run_s(&["topo", "--scale", "tiny", "--dot", "1"]).unwrap();
        assert!(out.starts_with("graph blameit_topology {"), "{out}");
        assert!(out.trim_end().ends_with('}'));
        assert!(out.contains("doublecircle"), "cloud node styled");
        assert!(out.contains(" -- "), "has edges");
        // Every quoted node in an edge line was declared.
        let declared: std::collections::HashSet<&str> = out
            .lines()
            .filter(|l| l.contains("[label="))
            .filter_map(|l| l.trim().split('"').nth(1))
            .collect();
        for line in out.lines().filter(|l| l.contains(" -- ")) {
            let mut parts = line.trim().trim_end_matches(';').split(" -- ");
            let a = parts.next().unwrap().trim_matches('"');
            let b = parts.next().unwrap().trim_matches('"');
            assert!(declared.contains(a), "undeclared {a}");
            assert!(declared.contains(b), "undeclared {b}");
        }
    }

    #[test]
    fn routes_shows_options() {
        let out = run_s(&["routes", "--scale", "tiny", "--client", "0"]).unwrap();
        assert!(out.contains("routes from"), "{out}");
        assert!(out.contains("option 0"), "{out}");
        assert!(out.contains("anycast primary"), "{out}");
        assert!(run_s(&["routes", "--scale", "tiny", "--p24", "9.9.9.0/24"]).is_err());
    }

    #[test]
    fn simulate_summarizes() {
        let out = run_s(&["simulate", "--scale", "tiny", "--days", "1"]).unwrap();
        assert!(out.contains("RTT measurements:"));
        assert!(out.contains("scheduled faults:"));
    }

    #[test]
    fn simulate_json_mode() {
        let out = run_s(&["simulate", "--scale", "tiny", "--days", "1", "--json", "1"]).unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"rtt_measurements\":"));
        assert!(out.trim_end().ends_with('}'));
    }

    #[test]
    fn probe_prints_hops() {
        let out = run_s(&["probe", "--scale", "tiny", "--loc", "0"]).unwrap();
        assert!(out.contains("traceroute cloud0"), "{out}");
        assert!(out.contains("per-AS contributions:"));
        assert!(out.contains("[cloud]"));
        assert!(out.contains("[client]"));
    }

    #[test]
    fn probe_rejects_unknown() {
        assert!(run_s(&["probe", "--scale", "tiny", "--loc", "9999"]).is_err());
        assert!(run_s(&["probe", "--scale", "tiny", "--loc", "65535"]).is_err());
        assert!(run_s(&["probe", "--scale", "tiny", "--p24", "9.9.9.0/24"]).is_err());
    }

    #[test]
    #[should_panic(expected = "--loc must fit in 16 bits, got 65536")]
    fn probe_refuses_a_location_past_u16() {
        let _ = run_s(&["probe", "--scale", "tiny", "--loc", "65536"]);
    }

    #[test]
    fn deterministic_output() {
        let a = run_s(&["simulate", "--scale", "tiny", "--seed", "5"]).unwrap();
        let b = run_s(&["simulate", "--scale", "tiny", "--seed", "5"]).unwrap();
        assert_eq!(a, b);
    }
}
