//! Seeded synthetic-Internet generation.
//!
//! [`Topology::generate`] assembles the whole substrate: metros, ASes,
//! the PoP graph, cloud edge locations, announced prefixes with client
//! `/24`s, and full per-location BGP tables (primary + alternate routes
//! per prefix). The output is deterministic in the seed.
//!
//! The construction follows the Internet's loose hierarchy:
//!
//! * one **cloud** AS with a PoP (edge location) in every configured
//!   metro, mirroring Azure's global edge (paper §1, Fig. 1);
//! * a handful of **tier-1** backbones present in many metros;
//! * regional **transit** ASes covering their region's metros — these
//!   are the usual middle segment, and the generator peers them less
//!   richly in low-[`Region::transit_maturity`] regions;
//! * **access** ISPs (broadband and cellular) in one or two metros,
//!   each announcing a few BGP prefixes that fan out into client /24s.

use crate::asn::{AsInfo, AsRole, Asn};
use crate::bgp::{AsHop, BgpTable, PathTable, RouteIdx, RouteOption, RouteOptions};
use crate::cloud::{CloudLocId, CloudLocation};
use crate::fxhash::DetHashMap;
use crate::geo::{builtin_metros, Metro, MetroId, Region};
use crate::graph::{AsGraph, LinkKind, PopId, PopPath};
use crate::ip::{IpPrefix, Prefix24};
use crate::rng::DetRng;

/// Tuning knobs for topology generation.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of global tier-1 backbones.
    pub tier1_count: usize,
    /// Regional transit providers per region.
    pub transits_per_region: usize,
    /// Broadband access ISPs per metro.
    pub broadband_per_metro: usize,
    /// Cellular carriers per metro.
    pub mobile_per_metro: usize,
    /// Announced BGP prefixes per access ISP: inclusive range.
    pub prefixes_per_access: (usize, usize),
    /// Announced prefix length: inclusive range (must be ≤ 24). A /20
    /// fans out into 16 client /24s.
    pub prefix_len: (u8, u8),
    /// Alternate routes computed per (location, origin) for churn.
    pub route_alternates: usize,
    /// Probability a /24 also maintains connections to its
    /// second-nearest cloud location (enables the paper's "ambiguous"
    /// check, Algorithm 1 lines 18–19).
    pub secondary_loc_prob: f64,
    /// Probability the cloud peers directly with an access ISP present
    /// at one of its edge metros (produces empty middle paths).
    pub direct_peering_prob: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 0x0B1A_3E17,
            tier1_count: 8,
            transits_per_region: 3,
            broadband_per_metro: 3,
            mobile_per_metro: 1,
            prefixes_per_access: (2, 4),
            prefix_len: (18, 21),
            route_alternates: 3,
            secondary_loc_prob: 0.30,
            direct_peering_prob: 0.20,
        }
    }
}

impl TopologyConfig {
    /// A reduced-scale configuration for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        TopologyConfig {
            seed,
            tier1_count: 3,
            transits_per_region: 1,
            broadband_per_metro: 1,
            mobile_per_metro: 1,
            prefixes_per_access: (1, 2),
            prefix_len: (21, 22),
            route_alternates: 2,
            ..TopologyConfig::default()
        }
    }
}

/// A BGP-announced prefix and where it lives.
#[derive(Clone, Debug)]
pub struct AnnouncedPrefix {
    /// The announced block (coarser than /24).
    pub prefix: IpPrefix,
    /// Origin (client) AS.
    pub origin: Asn,
    /// Metro where the origin AS homes this prefix.
    pub metro: MetroId,
    /// True if the origin is a cellular carrier.
    pub mobile: bool,
}

/// One client /24: the unit of quartet aggregation.
#[derive(Clone, Debug)]
pub struct ClientBlock {
    /// The /24 itself.
    pub p24: Prefix24,
    /// Index of the announced prefix covering it (into
    /// [`Topology::prefixes`]).
    pub prefix_idx: u32,
    /// Client AS.
    pub origin: Asn,
    /// Home metro.
    pub metro: MetroId,
    /// Region (denormalized).
    pub region: Region,
    /// True for cellular clients ("mobile device" in the quartet key).
    pub mobile: bool,
    /// Nominal active-client population scale (the paper: "large IP
    /// address blocks often have fewer active clients than smaller IP
    /// blocks", §3.2 — populations here are heavy-tailed and
    /// independent of announced-prefix size).
    pub population: u32,
    /// True for enterprise blocks (daytime-heavy activity, §2.2).
    pub enterprise: bool,
    /// Nearest cloud location (anycast primary).
    pub primary_loc: CloudLocId,
    /// Second-nearest location this block *also* talks to, if any.
    pub secondary_loc: Option<CloudLocId>,
}

/// The fully generated synthetic Internet.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The configuration used.
    pub config: TopologyConfig,
    /// Metro catalogue.
    pub metros: Vec<Metro>,
    /// All ASes (cloud, tier-1, transit, access).
    pub ases: Vec<AsInfo>,
    /// PoP-level graph.
    pub graph: AsGraph,
    /// The cloud provider's AS number.
    pub cloud_asn: Asn,
    /// Cloud edge locations.
    pub cloud_locations: Vec<CloudLocation>,
    /// Interned middle paths.
    pub paths: PathTable,
    /// Per-location BGP tables (route options per announced prefix).
    pub bgp: BgpTable,
    /// Announced-prefix catalogue.
    pub prefixes: Vec<AnnouncedPrefix>,
    /// Client /24 catalogue.
    pub clients: Vec<ClientBlock>,
    p24_index: DetHashMap<Prefix24, u32>,
    as_index: DetHashMap<Asn, u32>,
}

impl Topology {
    /// Generates a topology from the configuration. Deterministic in
    /// `config.seed`.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (e.g. prefix length
    /// range outside `8..=24`, or an empty metro catalogue).
    pub fn generate(config: TopologyConfig) -> Topology {
        assert!(
            (8..=24).contains(&config.prefix_len.0)
                && config.prefix_len.0 <= config.prefix_len.1
                && config.prefix_len.1 <= 24,
            "prefix_len must be within 8..=24 and ordered"
        );
        assert!(config.tier1_count >= 1, "need at least one tier-1");
        assert!(
            config.transits_per_region >= 1,
            "need at least one transit per region"
        );

        let mut rng = DetRng::from_keys(config.seed, &[0x7090_1057]);
        let metros = builtin_metros();
        let mut builder = Builder {
            config: &config,
            metros: &metros,
            rng: &mut rng,
            ases: Vec::new(),
            graph: AsGraph::new(),
            pops_by_as: DetHashMap::default(),
            next_asn: 100,
        };

        let cloud_asn = builder.build_cloud();
        let tier1s = builder.build_tier1s();
        let transits = builder.build_transits(&tier1s);
        builder.ensure_cloud_egress(cloud_asn, &transits);
        let access = builder.build_access(&transits, &tier1s, cloud_asn);

        let Builder {
            ases,
            graph,
            pops_by_as,
            ..
        } = builder;

        // Cloud edge locations: one per cloud PoP.
        let cloud_locations: Vec<CloudLocation> = pops_by_as[&cloud_asn]
            .iter()
            .enumerate()
            .map(|(i, pop)| {
                let metro = graph.pop(*pop).metro;
                let m = &metros[metro.0 as usize];
                let mut r = DetRng::from_keys(config.seed, &[0xC10D, i as u64]);
                CloudLocation {
                    id: CloudLocId(i as u16),
                    name: format!("edge-{}-{}", m.name, i),
                    metro,
                    region: m.region,
                    base_cloud_ms: r.range_f64(2.0, 5.0),
                }
            })
            .collect();
        let loc_pop: Vec<PopId> = pops_by_as[&cloud_asn].clone();

        let prefixes = announce_prefixes(&config, &access);
        let as_index: DetHashMap<Asn, u32> = ases
            .iter()
            .enumerate()
            .map(|(i, a)| (a.asn, i as u32))
            .collect();
        let (paths, bgp) = compute_routes(&config, &graph, &ases, &as_index, &prefixes, &loc_pop);
        let (clients, p24_index) =
            fan_out_clients(&config, &metros, &prefixes, &cloud_locations, &bgp);

        Topology {
            config,
            metros,
            ases,
            graph,
            cloud_asn,
            cloud_locations,
            paths,
            bgp,
            prefixes,
            clients,
            p24_index,
            as_index,
        }
    }

    /// Generates with the default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Topology {
        Topology::generate(TopologyConfig {
            seed,
            ..TopologyConfig::default()
        })
    }

    /// Looks up AS metadata.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.as_index.get(&asn).map(|i| &self.ases[*i as usize])
    }

    /// Looks up a client block by its /24.
    pub fn client(&self, p24: Prefix24) -> Option<&ClientBlock> {
        self.p24_index.get(&p24).map(|i| &self.clients[*i as usize])
    }

    /// The announced prefix covering a client block.
    pub fn announced_prefix(&self, c: &ClientBlock) -> &AnnouncedPrefix {
        &self.prefixes[c.prefix_idx as usize]
    }

    /// A cloud location by id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn cloud_location(&self, id: CloudLocId) -> &CloudLocation {
        &self.cloud_locations[id.0 as usize]
    }

    /// A metro by id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn metro(&self, id: MetroId) -> &Metro {
        &self.metros[id.0 as usize]
    }

    /// Route options for a client block toward a location.
    ///
    /// # Panics
    /// Panics if the pair has no bound route (cannot happen for blocks
    /// and locations from the same topology).
    pub fn routes_for(&self, loc: CloudLocId, c: &ClientBlock) -> &RouteOptions {
        let p = &self.prefixes[c.prefix_idx as usize];
        self.bgp
            .lookup(loc, p.prefix)
            .expect("every (location, prefix) pair is bound at generation")
    }

    /// Cloud locations in a region.
    pub fn locations_in(&self, region: Region) -> impl Iterator<Item = &CloudLocation> {
        self.cloud_locations
            .iter()
            .filter(move |c| c.region == region)
    }

    /// Client blocks whose anycast primary is the given location.
    pub fn clients_of(&self, loc: CloudLocId) -> impl Iterator<Item = &ClientBlock> {
        self.clients.iter().filter(move |c| c.primary_loc == loc)
    }
}

/// Allocates non-overlapping announced prefixes from `1.0.0.0` upward.
/// Announces prefixes for every access ISP.
fn announce_prefixes(config: &TopologyConfig, access: &[AccessAs]) -> Vec<AnnouncedPrefix> {
    let mut prefixes = Vec::new();
    let mut alloc = PrefixAllocator::new();
    for a in access {
        let mut r = DetRng::from_keys(config.seed, &[0x9F1C, a.asn.0 as u64]);
        let n = r.range_u64(
            config.prefixes_per_access.0 as u64,
            config.prefixes_per_access.1 as u64,
        ) as usize;
        for _ in 0..n {
            let len = r.range_u64(config.prefix_len.0 as u64, config.prefix_len.1 as u64) as u8;
            let prefix = alloc.alloc(len);
            let metro = *r.pick(&a.metros);
            prefixes.push(AnnouncedPrefix {
                prefix,
                origin: a.asn,
                metro,
                mobile: a.mobile,
            });
        }
    }
    prefixes
}

/// Route computation: per (location, origin PoP), bound to every
/// prefix homed at that PoP. `loc_pop[i]` is location `i`'s PoP.
fn compute_routes(
    config: &TopologyConfig,
    graph: &AsGraph,
    ases: &[AsInfo],
    as_index: &DetHashMap<Asn, u32>,
    prefixes: &[AnnouncedPrefix],
    loc_pop: &[PopId],
) -> (PathTable, BgpTable) {
    let mut paths = PathTable::new();
    let mut bgp = BgpTable::new();
    let mut route_cache: DetHashMap<(CloudLocId, PopId), RouteIdx> = DetHashMap::default();
    for p in prefixes {
        // The origin AS PoP at the prefix's home metro.
        let origin_pop = graph
            .pops_of(p.origin)
            .find(|pop| pop.metro == p.metro)
            .expect("origin AS must have a PoP at the prefix's home metro")
            .id;
        for (loc_i, src) in loc_pop.iter().enumerate() {
            let loc = CloudLocId(loc_i as u16);
            let idx = *route_cache.entry((loc, origin_pop)).or_insert_with(|| {
                let pop_paths = graph.diverse_paths(*src, origin_pop, config.route_alternates);
                if pop_paths.is_empty() {
                    let dump = |pop: PopId| -> String {
                        graph
                            .neighbors(pop)
                            .map(|(n, ms, k)| {
                                let np = graph.pop(n);
                                format!(
                                    "{}@{}({:?},{:.1}ms,t={})",
                                    np.asn, np.metro, k, ms, np.transit_ok
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    panic!(
                        "no route from {loc} to {} — generator must keep the graph connected
src {} nbrs: [{}]
dst {} nbrs: [{}]",
                        p.origin,
                        src,
                        dump(*src),
                        origin_pop,
                        dump(origin_pop)
                    );
                }
                let options: Vec<RouteOption> = pop_paths
                    .iter()
                    .map(|pp| build_route_option(pp, graph, ases, as_index, &mut paths))
                    .collect();
                bgp.push_routes(RouteOptions {
                    loc,
                    origin: p.origin,
                    options,
                })
            });
            bgp.bind_prefix(loc, p.prefix, idx);
        }
    }
    (paths, bgp)
}

/// Client /24s: fans each prefix out, assigns populations and anycast
/// locations. Returns the blocks and the /24 → block index.
fn fan_out_clients(
    config: &TopologyConfig,
    metros: &[Metro],
    prefixes: &[AnnouncedPrefix],
    cloud_locations: &[CloudLocation],
    bgp: &BgpTable,
) -> (Vec<ClientBlock>, DetHashMap<Prefix24, u32>) {
    let mut clients = Vec::new();
    let mut p24_index = DetHashMap::default();
    for (pi, p) in prefixes.iter().enumerate() {
        let region = metros[p.metro.0 as usize].region;
        // Rank locations by primary-route latency for this origin.
        let mut latencies: Vec<(CloudLocId, f64)> = cloud_locations
            .iter()
            .map(|cl| {
                let ro = bgp.lookup(cl.id, p.prefix).expect("bound above");
                (cl.id, ro.options[0].total_oneway_ms)
            })
            .collect();
        latencies.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let primary_loc = latencies[0].0;
        let second = latencies.get(1).map(|x| x.0);

        for p24 in p.prefix.iter_24s() {
            let mut r = DetRng::from_keys(config.seed, &[0xB10C, p24.block() as u64]);
            // Heavy-tailed population: median ~40 active clients.
            let population = r.lognormal(40f64.ln(), 1.1).clamp(2.0, 8000.0) as u32;
            let enterprise = !p.mobile && r.chance(0.25);
            let secondary_loc = match second {
                Some(s) if r.chance(config.secondary_loc_prob) => Some(s),
                _ => None,
            };
            let idx = clients.len() as u32;
            p24_index.insert(p24, idx);
            clients.push(ClientBlock {
                p24,
                prefix_idx: pi as u32,
                origin: p.origin,
                metro: p.metro,
                region,
                mobile: p.mobile,
                population,
                enterprise,
                primary_loc,
                secondary_loc,
            });
        }
    }
    (clients, p24_index)
}

struct PrefixAllocator {
    next_block: u32, // next free /24 block number
}

impl PrefixAllocator {
    fn new() -> Self {
        // Start at 1.0.0.0 to avoid 0.0.0.0/8.
        PrefixAllocator {
            next_block: 1 << 16,
        }
    }

    fn alloc(&mut self, len: u8) -> IpPrefix {
        let span = 1u32 << (24 - len); // /24 blocks covered
                                       // Align to span.
        let start = self.next_block.div_ceil(span) * span;
        self.next_block = start + span;
        IpPrefix::new(start << 8, len)
    }
}

/// Converts a PoP path to an AS-level [`RouteOption`], adding each AS's
/// processing latency once (at its last hop) and interning the middle.
fn build_route_option(
    pp: &PopPath,
    graph: &AsGraph,
    ases: &[AsInfo],
    as_index: &DetHashMap<Asn, u32>,
    paths: &mut PathTable,
) -> RouteOption {
    // Collapse to per-AS last hops, carrying the metro of the last PoP.
    let mut hops: Vec<AsHop> = Vec::new();
    for (i, pop) in pp.pops.iter().enumerate() {
        let p = graph.pop(*pop);
        let cum = pp.cum_ms[i];
        match hops.last_mut() {
            Some(h) if h.asn == p.asn => {
                h.cum_oneway_ms = cum;
                h.metro = p.metro;
            }
            _ => hops.push(AsHop {
                asn: p.asn,
                cum_oneway_ms: cum,
                metro: p.metro,
            }),
        }
    }
    // Add per-AS processing latency cumulatively.
    let mut proc_acc = 0.0;
    for h in hops.iter_mut() {
        let info = &ases[as_index[&h.asn] as usize];
        proc_acc += info.hop_latency_ms;
        h.cum_oneway_ms += proc_acc;
    }
    let total = hops.last().map_or(0.0, |h| h.cum_oneway_ms);
    let middle: Vec<Asn> = if hops.len() > 2 {
        hops[1..hops.len() - 1].iter().map(|h| h.asn).collect()
    } else {
        Vec::new()
    };
    RouteOption {
        path_id: paths.intern(middle),
        as_hops: hops,
        total_oneway_ms: total,
    }
}

/// Internal per-access description used during generation.
struct AccessAs {
    asn: Asn,
    metros: Vec<MetroId>,
    mobile: bool,
}

struct Builder<'a> {
    config: &'a TopologyConfig,
    metros: &'a [Metro],
    rng: &'a mut DetRng,
    ases: Vec<AsInfo>,
    graph: AsGraph,
    pops_by_as: DetHashMap<Asn, Vec<PopId>>,
    next_asn: u32,
}

impl Builder<'_> {
    fn alloc_asn(&mut self) -> Asn {
        let a = Asn(self.next_asn);
        self.next_asn += 1;
        a
    }

    fn add_as(&mut self, name: String, role: AsRole, hop_ms: f64) -> Asn {
        let asn = self.alloc_asn();
        self.ases.push(AsInfo::new(asn, name, role, hop_ms));
        self.pops_by_as.insert(asn, Vec::new());
        asn
    }

    fn add_pop(&mut self, asn: Asn, metro: MetroId) -> PopId {
        self.add_pop_with(asn, metro, true)
    }

    fn add_pop_with(&mut self, asn: Asn, metro: MetroId, transit_ok: bool) -> PopId {
        let id = self.graph.add_pop_with(asn, metro, transit_ok);
        self.pops_by_as.get_mut(&asn).unwrap().push(id);
        id
    }

    fn geo_ms(&self, a: MetroId, b: MetroId) -> f64 {
        self.metros[a.0 as usize]
            .location
            .fiber_delay_ms(self.metros[b.0 as usize].location)
    }

    /// Links all PoP pairs of one AS with geo-latency backbone links.
    fn mesh_intra(&mut self, asn: Asn) {
        let pops = self.pops_by_as[&asn].clone();
        for i in 0..pops.len() {
            for j in i + 1..pops.len() {
                let (ma, mb) = (self.graph.pop(pops[i]).metro, self.graph.pop(pops[j]).metro);
                let ms = self.geo_ms(ma, mb).max(0.2);
                self.graph.add_link(pops[i], pops[j], ms, LinkKind::IntraAs);
            }
        }
    }

    /// The cloud AS: a PoP in every metro, meshed backbone. Cloud PoPs
    /// are not transit for external routes (traffic egresses at the
    /// serving location), so client paths never show the cloud AS in
    /// their middle segment.
    fn build_cloud(&mut self) -> Asn {
        let asn = self.add_as("cloud".into(), AsRole::Cloud, 0.3);
        for m in self.metros {
            self.add_pop_with(asn, m.id, false);
        }
        self.mesh_intra(asn);
        asn
    }

    /// Tier-1 backbones present in ~60% of metros each.
    fn build_tier1s(&mut self) -> Vec<Asn> {
        let mut out = Vec::new();
        for i in 0..self.config.tier1_count {
            let asn = self.add_as(format!("tier1-{i}"), AsRole::Tier1, 0.5);
            let mut metro_ids: Vec<MetroId> = self.metros.iter().map(|m| m.id).collect();
            self.rng.shuffle(&mut metro_ids);
            let keep = (metro_ids.len() * 3) / 5;
            for m in metro_ids.into_iter().take(keep.max(4)) {
                self.add_pop(asn, m);
            }
            self.mesh_intra(asn);
            out.push(asn);
        }
        // Tier-1 ↔ tier-1 peering at shared metros (probabilistic).
        for i in 0..out.len() {
            for j in i + 1..out.len() {
                self.peer_at_shared_metros(out[i], out[j], 0.5);
            }
        }
        // Cloud ↔ tier-1 everywhere they co-locate.
        let cloud = self.ases[0].asn;
        for t in &out {
            self.peer_at_shared_metros(cloud, *t, 0.9);
        }
        out
    }

    /// Regional transit ASes covering their region's metros.
    fn build_transits(&mut self, tier1s: &[Asn]) -> Vec<Asn> {
        let mut out = Vec::new();
        let cloud = self.ases[0].asn;
        for region in Region::ALL {
            let region_metros: Vec<MetroId> = self
                .metros
                .iter()
                .filter(|m| m.region == region)
                .map(|m| m.id)
                .collect();
            for t in 0..self.config.transits_per_region {
                let asn = self.add_as(
                    format!("transit-{}-{t}", region.label().to_lowercase()),
                    AsRole::Transit,
                    // Less mature regions have slower transit gear.
                    1.0 + 2.0 * (1.0 - region.transit_maturity()),
                );
                for m in &region_metros {
                    self.add_pop(asn, *m);
                }
                self.mesh_intra(asn);
                // Transit ↔ tier-1: richer peering in mature regions.
                let p = 0.4 + 0.5 * region.transit_maturity();
                let mut connected = false;
                for t1 in tier1s {
                    connected |= self.peer_at_shared_metros(asn, *t1, p);
                }
                if !connected {
                    // Force one cross-metro peering so the transit is
                    // never isolated from the backbone.
                    let t1 = tier1s[self.rng.index(tier1s.len())];
                    self.force_peering(asn, t1);
                }
                // Cloud ↔ transit at cloud metros.
                self.peer_at_shared_metros(cloud, asn, 0.5 + 0.3 * region.transit_maturity());
                out.push(asn);
            }
            // Transit ↔ transit within the region.
            let start = out.len() - self.config.transits_per_region;
            for i in start..out.len() {
                for j in i + 1..out.len() {
                    self.peer_at_shared_metros(out[i], out[j], 0.4);
                }
            }
        }
        out
    }

    /// Guarantees every cloud PoP can egress: if the dice left a cloud
    /// metro with no tier-1/transit peering, force one to a transit
    /// with a PoP at that metro.
    fn ensure_cloud_egress(&mut self, cloud: Asn, transits: &[Asn]) {
        let cloud_pops = self.pops_by_as[&cloud].clone();
        for cp in cloud_pops {
            let metro = self.graph.pop(cp).metro;
            let has_middle_peer = {
                // Any peering link from this cloud PoP to a transit-ok PoP?
                let mut found = false;
                for other in self.graph.pops() {
                    if other.metro == metro && other.transit_ok && other.asn != cloud {
                        // Is there already a link? Re-check by probing a
                        // 1-hop shortest path.
                        if let Some(p) = self.graph.shortest_path(cp, other.id) {
                            if p.pops.len() == 2 {
                                found = true;
                                break;
                            }
                        }
                    }
                }
                found
            };
            if !has_middle_peer {
                let local: Vec<Asn> = transits
                    .iter()
                    .copied()
                    .filter(|t| {
                        self.pops_by_as[t]
                            .iter()
                            .any(|p| self.graph.pop(*p).metro == metro)
                    })
                    .collect();
                assert!(!local.is_empty(), "metro without transit coverage");
                let t = local[0];
                let target = *self.pops_by_as[&t]
                    .iter()
                    .find(|p| self.graph.pop(**p).metro == metro)
                    .unwrap();
                let ms = self.rng.range_f64(0.3, 1.5);
                self.graph.add_link(cp, target, ms, LinkKind::Peering);
            }
        }
    }

    /// Access ISPs: broadband and mobile, per metro.
    fn build_access(&mut self, transits: &[Asn], tier1s: &[Asn], cloud: Asn) -> Vec<AccessAs> {
        let mut out = Vec::new();
        let metro_ids: Vec<MetroId> = self.metros.iter().map(|m| m.id).collect();
        for m in &metro_ids {
            let region = self.metros[m.0 as usize].region;
            let n_bb = self.config.broadband_per_metro;
            let n_mb = self.config.mobile_per_metro;
            for k in 0..n_bb + n_mb {
                let mobile = k >= n_bb;
                let kind = if mobile { "mobile" } else { "isp" };
                let name = format!("{kind}-{}-{k}", self.metros[m.0 as usize].name);
                let role = if mobile {
                    AsRole::AccessMobile
                } else {
                    AsRole::AccessBroadband
                };
                let asn = self.add_as(name, role, if mobile { 2.5 } else { 1.5 });
                let access_transit = false;
                let _ = access_transit;
                let mut my_metros = vec![*m];
                // Some broadband ISPs span a second metro in-region.
                if !mobile && self.rng.chance(0.3) {
                    let others: Vec<MetroId> = metro_ids
                        .iter()
                        .copied()
                        .filter(|x| *x != *m && self.metros[x.0 as usize].region == region)
                        .collect();
                    if !others.is_empty() {
                        my_metros.push(*self.rng.pick(&others));
                    }
                }
                for mm in &my_metros {
                    // Access ISPs never transit other networks' traffic.
                    self.add_pop_with(asn, *mm, false);
                }
                if my_metros.len() > 1 {
                    self.mesh_intra(asn);
                }
                // Upstreams: 1–2 transits with PoPs at the home metro.
                let local_transits: Vec<Asn> = transits
                    .iter()
                    .copied()
                    .filter(|t| {
                        self.pops_by_as[t]
                            .iter()
                            .any(|p| my_metros.contains(&self.graph.pop(*p).metro))
                    })
                    .collect();
                assert!(
                    !local_transits.is_empty(),
                    "every metro must have transit coverage"
                );
                // Multi-homing: most access ISPs take 2 transit
                // upstreams, many take 3 — this spreads a location's
                // clients across transits so a single transit fault
                // does not blanket the location (which would read as a
                // cloud fault to hierarchical elimination).
                let mut n_up = 1;
                if self.rng.chance(0.75) {
                    n_up += 1;
                }
                if self.rng.chance(0.35) {
                    n_up += 1;
                }
                let n_up = n_up.min(local_transits.len());
                let mut ups = local_transits.clone();
                self.rng.shuffle(&mut ups);
                for up in ups.into_iter().take(n_up) {
                    self.peer_at_shared_metros_forced(asn, up);
                }
                // Occasionally multi-home to a tier-1 directly.
                if self.rng.chance(0.25) {
                    let present: Vec<Asn> = tier1s
                        .iter()
                        .copied()
                        .filter(|t| {
                            self.pops_by_as[t]
                                .iter()
                                .any(|p| my_metros.contains(&self.graph.pop(*p).metro))
                        })
                        .collect();
                    if !present.is_empty() {
                        let t1 = *self.rng.pick(&present);
                        self.peer_at_shared_metros_forced(asn, t1);
                    }
                }
                // Direct cloud peering (gives empty middle paths).
                if self.rng.chance(self.config.direct_peering_prob) {
                    self.peer_at_shared_metros_forced(asn, cloud);
                }
                out.push(AccessAs {
                    asn,
                    metros: my_metros,
                    mobile,
                });
            }
        }
        out
    }

    /// Peers two ASes at each metro where both have PoPs, independently
    /// with probability `p`. Returns true if at least one link was made.
    fn peer_at_shared_metros(&mut self, a: Asn, b: Asn, p: f64) -> bool {
        let mut made = false;
        let pa = self.pops_by_as[&a].clone();
        let pb = self.pops_by_as[&b].clone();
        for x in &pa {
            for y in &pb {
                if self.graph.pop(*x).metro == self.graph.pop(*y).metro && self.rng.chance(p) {
                    let ms = self.rng.range_f64(0.3, 1.5);
                    self.graph.add_link(*x, *y, ms, LinkKind::Peering);
                    made = true;
                }
            }
        }
        made
    }

    /// Like [`Self::peer_at_shared_metros`] but guarantees at least one
    /// link (picking the first shared metro if the dice made none).
    fn peer_at_shared_metros_forced(&mut self, a: Asn, b: Asn) {
        if self.peer_at_shared_metros(a, b, 0.8) {
            return;
        }
        let pa = self.pops_by_as[&a].clone();
        let pb = self.pops_by_as[&b].clone();
        for x in &pa {
            for y in &pb {
                if self.graph.pop(*x).metro == self.graph.pop(*y).metro {
                    let ms = self.rng.range_f64(0.3, 1.5);
                    self.graph.add_link(*x, *y, ms, LinkKind::Peering);
                    return;
                }
            }
        }
        // No shared metro at all: fall through to a forced remote link.
        self.force_peering(a, b);
    }

    /// Cross-metro peering between the geographically closest PoPs of
    /// two ASes (used to rescue otherwise-isolated transits).
    fn force_peering(&mut self, a: Asn, b: Asn) {
        let pa = self.pops_by_as[&a].clone();
        let pb = self.pops_by_as[&b].clone();
        let mut best: Option<(PopId, PopId, f64)> = None;
        for x in &pa {
            for y in &pb {
                let ms = self.geo_ms(self.graph.pop(*x).metro, self.graph.pop(*y).metro);
                if best.is_none_or(|(_, _, b_ms)| ms < b_ms) {
                    best = Some((*x, *y, ms));
                }
            }
        }
        let (x, y, ms) = best.expect("both ASes must have PoPs");
        self.graph
            .add_link(x, y, ms.max(0.3) + 1.0, LinkKind::Peering);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        Topology::generate(TopologyConfig::tiny(1))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::generate(TopologyConfig::tiny(5));
        let b = Topology::generate(TopologyConfig::tiny(5));
        assert_eq!(a.clients.len(), b.clients.len());
        assert_eq!(a.paths.len(), b.paths.len());
        for (ca, cb) in a.clients.iter().zip(&b.clients) {
            assert_eq!(ca.p24, cb.p24);
            assert_eq!(ca.primary_loc, cb.primary_loc);
            assert_eq!(ca.population, cb.population);
        }
        let c = Topology::generate(TopologyConfig::tiny(6));
        // A different seed shifts at least the populations.
        assert!(
            a.clients
                .iter()
                .zip(&c.clients)
                .any(|(x, y)| x.population != y.population)
                || a.clients.len() != c.clients.len()
        );
    }

    #[test]
    fn every_client_has_routes_from_every_location() {
        let t = tiny();
        assert!(!t.clients.is_empty());
        for c in &t.clients {
            for loc in &t.cloud_locations {
                let ro = t.routes_for(loc.id, c);
                assert!(!ro.options.is_empty());
                let primary = &ro.options[0];
                assert!(primary.total_oneway_ms > 0.0);
                // First hop is the cloud AS, last is the client AS.
                assert_eq!(primary.as_hops.first().unwrap().asn, t.cloud_asn);
                assert_eq!(primary.as_hops.last().unwrap().asn, c.origin);
            }
        }
    }

    #[test]
    fn cumulative_latencies_monotone() {
        let t = tiny();
        for c in t.clients.iter().take(50) {
            let ro = t.routes_for(c.primary_loc, c);
            for opt in &ro.options {
                let mut prev = -1.0;
                for h in &opt.as_hops {
                    assert!(
                        h.cum_oneway_ms > prev,
                        "non-monotone hops: {:?}",
                        opt.as_hops
                    );
                    prev = h.cum_oneway_ms;
                }
                assert!((opt.total_oneway_ms - prev).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn middle_path_excludes_cloud_and_client() {
        let t = tiny();
        for c in t.clients.iter().take(100) {
            let ro = t.routes_for(c.primary_loc, c);
            for opt in &ro.options {
                let middle = &t.paths.get(opt.path_id).middle;
                assert!(!middle.contains(&t.cloud_asn));
                assert!(!middle.contains(&c.origin));
                for asn in middle {
                    let role = t.as_info(*asn).unwrap().role;
                    assert!(role.is_middle(), "{asn} in middle has role {role}");
                }
            }
        }
    }

    #[test]
    fn primary_is_nearest_location() {
        let t = tiny();
        for c in t.clients.iter().take(50) {
            let primary_ms = t.routes_for(c.primary_loc, c).options[0].total_oneway_ms;
            for loc in &t.cloud_locations {
                let ms = t.routes_for(loc.id, c).options[0].total_oneway_ms;
                assert!(
                    primary_ms <= ms + 1e-9,
                    "{}: primary {} at {primary_ms}ms but {} at {ms}ms",
                    c.p24,
                    c.primary_loc,
                    loc.id
                );
            }
        }
    }

    #[test]
    fn announced_prefixes_do_not_overlap() {
        let t = tiny();
        for (i, a) in t.prefixes.iter().enumerate() {
            for b in t.prefixes.iter().skip(i + 1) {
                assert!(
                    !a.prefix.covers(b.prefix) && !b.prefix.covers(a.prefix),
                    "{} overlaps {}",
                    a.prefix,
                    b.prefix
                );
            }
        }
    }

    #[test]
    fn client_index_consistent() {
        let t = tiny();
        for c in &t.clients {
            let found = t.client(c.p24).unwrap();
            assert_eq!(found.p24, c.p24);
            let ap = t.announced_prefix(c);
            assert!(ap.prefix.covers_24(c.p24));
            assert_eq!(ap.origin, c.origin);
        }
        assert!(t.client(Prefix24::from_block(0)).is_none());
    }

    #[test]
    fn mobile_flags_follow_origin_role() {
        let t = tiny();
        for c in &t.clients {
            let role = t.as_info(c.origin).unwrap().role;
            assert_eq!(c.mobile, role == AsRole::AccessMobile);
            assert!(role.is_access());
        }
        assert!(t.clients.iter().any(|c| c.mobile));
        assert!(t.clients.iter().any(|c| !c.mobile));
    }

    #[test]
    fn secondary_location_differs_from_primary() {
        let t = Topology::with_seed(3);
        let with_secondary = t
            .clients
            .iter()
            .filter(|c| c.secondary_loc.is_some())
            .count();
        assert!(with_secondary > 0, "some clients must be dual-homed");
        for c in &t.clients {
            if let Some(s) = c.secondary_loc {
                assert_ne!(s, c.primary_loc);
            }
        }
    }

    #[test]
    fn default_scale_is_substantial() {
        let t = Topology::with_seed(1);
        assert!(t.cloud_locations.len() >= 20, "{}", t.cloud_locations.len());
        assert!(t.clients.len() >= 2000, "{}", t.clients.len());
        assert!(t.paths.len() >= 100, "{}", t.paths.len());
        assert!(t.ases.len() >= 80, "{}", t.ases.len());
        // Every region must have clients.
        for r in Region::ALL {
            assert!(t.clients.iter().any(|c| c.region == r), "no clients in {r}");
        }
    }

    #[test]
    fn some_paths_have_multiple_middle_ases_and_some_are_direct() {
        let t = Topology::with_seed(2);
        let mut multi = 0;
        let mut direct = 0;
        for (_, p) in t.paths.iter() {
            if p.middle.len() >= 2 {
                multi += 1;
            }
            if p.middle.is_empty() {
                direct += 1;
            }
        }
        assert!(multi > 0, "expected multi-AS middle paths");
        assert!(direct > 0, "expected direct cloud-client peerings");
    }

    #[test]
    fn route_alternates_present() {
        let t = Topology::with_seed(4);
        let mut with_alt = 0usize;
        let mut total = 0usize;
        for c in &t.clients {
            let ro = t.routes_for(c.primary_loc, c);
            total += 1;
            if ro.options.len() >= 2 {
                with_alt += 1;
            }
        }
        assert!(
            with_alt * 2 > total,
            "most routes should have alternates: {with_alt}/{total}"
        );
    }
}
