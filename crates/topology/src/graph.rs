//! PoP-level topology graph.
//!
//! Modeling paths as sequences of whole ASes is exactly what the paper
//! warns against: "a large AS like Comcast might have a problem along
//! certain paths but not all" (§3.1). To retain that realism, the graph
//! nodes are *points of presence* — an (AS, metro) pair — and edges are
//! either intra-AS backbone links (latency from metro geography) or
//! inter-AS peering links at a shared metro. Shortest paths through this
//! graph yield AS-level paths that depend on *where* the traffic enters,
//! so the same AS can be healthy on one route and faulty on another.

use crate::asn::Asn;
use crate::geo::MetroId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a PoP (index into [`AsGraph::pops`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PopId(pub u32);

impl fmt::Display for PopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pop{}", self.0)
    }
}

/// A point of presence: one AS's footprint in one metro.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pop {
    /// Identifier.
    pub id: PopId,
    /// Owning AS.
    pub asn: Asn,
    /// Metro where the PoP sits.
    pub metro: MetroId,
    /// Whether routes may pass *through* this PoP. Access ISPs (and
    /// the cloud, once left) do not provide transit — the valley-free
    /// property real BGP policy enforces. Paths may still start or
    /// terminate at a non-transit PoP.
    pub transit_ok: bool,
}

/// Kind of a graph edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkKind {
    /// Backbone link between two PoPs of the same AS.
    IntraAs,
    /// Peering/interconnect between two different ASes in one metro.
    Peering,
}

/// A directed adjacency entry (links are stored both ways).
#[derive(Clone, Copy, Debug)]
struct Edge {
    to: PopId,
    /// One-way latency in milliseconds.
    latency_ms: f64,
    kind: LinkKind,
}

/// A shortest path through the PoP graph.
#[derive(Clone, Debug, PartialEq)]
pub struct PopPath {
    /// PoPs from source to destination, inclusive.
    pub pops: Vec<PopId>,
    /// Cumulative one-way latency (ms) from the source up to and
    /// including arrival at `pops[i]`. `cum_ms[0] == 0`.
    pub cum_ms: Vec<f64>,
}

impl PopPath {
    /// Collapses the PoP path to the AS-level path (consecutive
    /// duplicates removed), with the cumulative latency at the *last*
    /// PoP of each AS — i.e. the latency a traceroute would see at the
    /// final hop inside that AS, which is how the paper compares per-AS
    /// contributions (§5.2).
    pub fn as_path(&self, graph: &AsGraph) -> Vec<(Asn, f64)> {
        let mut out: Vec<(Asn, f64)> = Vec::new();
        for (i, pop) in self.pops.iter().enumerate() {
            let asn = graph.pop(*pop).asn;
            let cum = self.cum_ms[i];
            match out.last_mut() {
                Some((last, last_cum)) if *last == asn => *last_cum = cum,
                _ => out.push((asn, cum)),
            }
        }
        out
    }
}

/// The PoP-level topology graph.
#[derive(Clone, Debug, Default)]
pub struct AsGraph {
    pops: Vec<Pop>,
    adj: Vec<Vec<Edge>>,
}

impl AsGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        AsGraph::default()
    }

    /// Adds a transit-capable PoP and returns its id.
    pub fn add_pop(&mut self, asn: Asn, metro: MetroId) -> PopId {
        self.add_pop_with(asn, metro, true)
    }

    /// Adds a PoP with explicit transit capability.
    pub fn add_pop_with(&mut self, asn: Asn, metro: MetroId, transit_ok: bool) -> PopId {
        let id = PopId(self.pops.len() as u32);
        self.pops.push(Pop {
            id,
            asn,
            metro,
            transit_ok,
        });
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected link with the given one-way latency.
    ///
    /// # Panics
    /// Panics if either endpoint is unknown, if `a == b`, or if the
    /// latency is not finite and non-negative.
    pub fn add_link(&mut self, a: PopId, b: PopId, latency_ms: f64, kind: LinkKind) {
        assert!(a != b, "self-link on {a}");
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "bad latency {latency_ms}"
        );
        assert!((a.0 as usize) < self.pops.len(), "unknown pop {a}");
        assert!((b.0 as usize) < self.pops.len(), "unknown pop {b}");
        self.adj[a.0 as usize].push(Edge {
            to: b,
            latency_ms,
            kind,
        });
        self.adj[b.0 as usize].push(Edge {
            to: a,
            latency_ms,
            kind,
        });
    }

    /// Looks up a PoP.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn pop(&self, id: PopId) -> Pop {
        self.pops[id.0 as usize]
    }

    /// All PoPs.
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// All PoPs of one AS.
    pub fn pops_of(&self, asn: Asn) -> impl Iterator<Item = Pop> + '_ {
        self.pops.iter().copied().filter(move |p| p.asn == asn)
    }

    /// Direct neighbours of a PoP: `(neighbour, one-way ms, kind)`.
    pub fn neighbors(&self, id: PopId) -> impl Iterator<Item = (PopId, f64, LinkKind)> + '_ {
        self.adj[id.0 as usize]
            .iter()
            .map(|e| (e.to, e.latency_ms, e.kind))
    }

    /// Dijkstra shortest path from `src` to `dst` by one-way latency.
    ///
    /// `penalty` lets callers discourage specific edges (used to derive
    /// alternate routes for BGP churn): it receives `(from, to, kind)`
    /// and returns an additive milliseconds penalty.
    ///
    /// Ties are broken deterministically by PoP id, so the same graph
    /// always yields the same path. Returns `None` if `dst` is
    /// unreachable.
    pub fn shortest_path_with(
        &self,
        src: PopId,
        dst: PopId,
        penalty: impl Fn(PopId, PopId, LinkKind) -> f64,
    ) -> Option<PopPath> {
        #[derive(PartialEq)]
        struct State {
            cost: f64,
            node: PopId,
            chain: bool,
        }
        impl Eq for State {}
        impl Ord for State {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap by cost, then by node id for determinism.
                other
                    .cost
                    .total_cmp(&self.cost)
                    .then_with(|| other.node.0.cmp(&self.node.0))
                    .then_with(|| other.chain.cmp(&self.chain))
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.pops.len();
        let src_asn = self.pops[src.0 as usize].asn;
        let dst_asn = self.pops[dst.0 as usize].asn;
        // Two Dijkstra states per node: reached while still inside the
        // source AS (chain = 1, permits cold-potato backbone rides) or
        // after leaving it (chain = 0). Without the split, a cheap
        // external route to a source-AS PoP would shadow the more
        // expensive — but forwarding-capable — internal route.
        let idx = |node: PopId, chain: bool| node.0 as usize * 2 + usize::from(chain);
        let mut dist = vec![f64::INFINITY; n * 2];
        let mut prev: Vec<Option<(PopId, bool)>> = vec![None; n * 2];
        let mut heap = BinaryHeap::new();
        dist[idx(src, true)] = 0.0;
        heap.push(State {
            cost: 0.0,
            node: src,
            chain: true,
        });

        let mut final_state: Option<(PopId, bool)> = None;
        while let Some(State { cost, node, chain }) = heap.pop() {
            if cost > dist[idx(node, chain)] {
                continue;
            }
            if node == dst {
                final_state = Some((node, chain));
                break;
            }
            // Valley-free forwarding rules:
            //  * transit-capable PoPs forward anything;
            //  * PoPs of the source AS forward while the path is still
            //    inside the source AS (cold-potato egress);
            //  * PoPs of the destination AS forward only over their own
            //    backbone (reaching the homed prefix), never back out.
            let p = self.pops[node.0 as usize];
            let full_forward = p.transit_ok || (p.asn == src_asn && chain);
            let intra_only = p.asn == dst_asn;
            if !full_forward && !intra_only {
                continue;
            }
            for e in &self.adj[node.0 as usize] {
                if !full_forward && e.kind != LinkKind::IntraAs {
                    continue;
                }
                let next_chain = chain && self.pops[e.to.0 as usize].asn == src_asn;
                let next = cost + e.latency_ms + penalty(node, e.to, e.kind);
                let d = &mut dist[idx(e.to, next_chain)];
                if next < *d - 1e-12 {
                    *d = next;
                    prev[idx(e.to, next_chain)] = Some((node, chain));
                    heap.push(State {
                        cost: next,
                        node: e.to,
                        chain: next_chain,
                    });
                }
            }
        }

        let (mut cur, mut cur_chain) = final_state?;
        let mut pops = vec![cur];
        let mut chains = vec![cur_chain];
        while let Some((p, ch)) = prev[idx(cur, cur_chain)] {
            pops.push(p);
            chains.push(ch);
            cur = p;
            cur_chain = ch;
        }
        pops.reverse();
        debug_assert_eq!(pops[0], src);
        // Recompute cumulative latencies along the found path *without*
        // penalties, so reported latencies reflect the real links.
        let mut cum_ms = Vec::with_capacity(pops.len());
        let mut acc = 0.0;
        cum_ms.push(0.0);
        for w in pops.windows(2) {
            let (from, to) = (w[0], w[1]);
            let edge = self.adj[from.0 as usize]
                .iter()
                .find(|e| e.to == to)
                .expect("path edge must exist");
            acc += edge.latency_ms;
            cum_ms.push(acc);
        }
        Some(PopPath { pops, cum_ms })
    }

    /// Plain shortest path (no penalties).
    pub fn shortest_path(&self, src: PopId, dst: PopId) -> Option<PopPath> {
        self.shortest_path_with(src, dst, |_, _, _| 0.0)
    }

    /// Up to `k` latency-diverse paths from `src` to `dst`: the shortest
    /// path first, then paths found after cumulatively penalizing the
    /// peering edges of earlier results. Duplicates are dropped, so the
    /// result may be shorter than `k`. Used by the generator to give
    /// each route alternates for churn events.
    pub fn diverse_paths(&self, src: PopId, dst: PopId, k: usize) -> Vec<PopPath> {
        let mut found: Vec<PopPath> = Vec::new();
        let mut penalized: Vec<(PopId, PopId)> = Vec::new();
        for _ in 0..k {
            let path = self.shortest_path_with(src, dst, |a, b, kind| {
                let hit = penalized
                    .iter()
                    .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a));
                if hit && kind == LinkKind::Peering {
                    50.0
                } else if hit {
                    10.0
                } else {
                    0.0
                }
            });
            let Some(path) = path else { break };
            for w in path.pops.windows(2) {
                penalized.push((w[0], w[1]));
            }
            if !found.iter().any(|p| p.pops == path.pops) {
                found.push(path);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> (AsGraph, Vec<PopId>) {
        // AS1(m0) - AS2(m0) - AS2(m1) - AS3(m1)
        let mut g = AsGraph::new();
        let a = g.add_pop(Asn(1), MetroId(0));
        let b = g.add_pop(Asn(2), MetroId(0));
        let c = g.add_pop(Asn(2), MetroId(1));
        let d = g.add_pop(Asn(3), MetroId(1));
        g.add_link(a, b, 1.0, LinkKind::Peering);
        g.add_link(b, c, 10.0, LinkKind::IntraAs);
        g.add_link(c, d, 2.0, LinkKind::Peering);
        (g, vec![a, b, c, d])
    }

    #[test]
    fn shortest_path_line() {
        let (g, p) = line_graph();
        let path = g.shortest_path(p[0], p[3]).unwrap();
        assert_eq!(path.pops, p);
        assert_eq!(path.cum_ms, vec![0.0, 1.0, 11.0, 13.0]);
    }

    #[test]
    fn as_path_collapses_and_uses_last_hop() {
        let (g, p) = line_graph();
        let path = g.shortest_path(p[0], p[3]).unwrap();
        let asp = path.as_path(&g);
        assert_eq!(asp.len(), 3);
        assert_eq!(asp[0], (Asn(1), 0.0));
        // AS2's last PoP is at cumulative 11 ms (not the 1 ms entry hop).
        assert_eq!(asp[1], (Asn(2), 11.0));
        assert_eq!(asp[2], (Asn(3), 13.0));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = AsGraph::new();
        let a = g.add_pop(Asn(1), MetroId(0));
        let b = g.add_pop(Asn(2), MetroId(1));
        assert!(g.shortest_path(a, b).is_none());
    }

    #[test]
    fn picks_cheaper_of_two_routes() {
        let mut g = AsGraph::new();
        let a = g.add_pop(Asn(1), MetroId(0));
        let b = g.add_pop(Asn(2), MetroId(0));
        let c = g.add_pop(Asn(3), MetroId(0));
        let d = g.add_pop(Asn(4), MetroId(1));
        g.add_link(a, b, 1.0, LinkKind::Peering);
        g.add_link(b, d, 1.0, LinkKind::Peering);
        g.add_link(a, c, 0.5, LinkKind::Peering);
        g.add_link(c, d, 10.0, LinkKind::Peering);
        let path = g.shortest_path(a, d).unwrap();
        assert_eq!(path.pops, vec![a, b, d]);
        assert_eq!(path.cum_ms.last(), Some(&2.0));
    }

    #[test]
    fn diverse_paths_finds_alternate() {
        let mut g = AsGraph::new();
        let a = g.add_pop(Asn(1), MetroId(0));
        let b = g.add_pop(Asn(2), MetroId(0));
        let c = g.add_pop(Asn(3), MetroId(0));
        let d = g.add_pop(Asn(4), MetroId(1));
        g.add_link(a, b, 1.0, LinkKind::Peering);
        g.add_link(b, d, 1.0, LinkKind::Peering);
        g.add_link(a, c, 1.5, LinkKind::Peering);
        g.add_link(c, d, 1.5, LinkKind::Peering);
        let paths = g.diverse_paths(a, d, 3);
        assert!(paths.len() >= 2, "expected an alternate path");
        assert_eq!(paths[0].pops, vec![a, b, d]);
        assert_eq!(paths[1].pops, vec![a, c, d]);
        // Alternate's latency is the true (unpenalized) latency.
        assert_eq!(paths[1].cum_ms.last(), Some(&3.0));
    }

    #[test]
    fn diverse_paths_dedupes_single_route() {
        let (g, p) = line_graph();
        let paths = g.diverse_paths(p[0], p[3], 4);
        assert_eq!(paths.len(), 1, "line graph has a single simple route");
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_panics() {
        let mut g = AsGraph::new();
        let a = g.add_pop(Asn(1), MetroId(0));
        g.add_link(a, a, 1.0, LinkKind::IntraAs);
    }

    #[test]
    fn pops_of_filters_by_asn() {
        let (g, _) = line_graph();
        let of2: Vec<_> = g.pops_of(Asn(2)).collect();
        assert_eq!(of2.len(), 2);
        assert!(of2.iter().all(|p| p.asn == Asn(2)));
    }

    #[test]
    fn non_transit_pop_is_not_traversed() {
        // AS1 - AS2(no transit) - AS3, and a longer AS1 - AS4 - AS3.
        let mut g = AsGraph::new();
        let a = g.add_pop(Asn(1), MetroId(0));
        let b = g.add_pop_with(Asn(2), MetroId(0), false);
        let c = g.add_pop(Asn(3), MetroId(0));
        let d = g.add_pop(Asn(4), MetroId(0));
        g.add_link(a, b, 0.5, LinkKind::Peering);
        g.add_link(b, c, 0.5, LinkKind::Peering);
        g.add_link(a, d, 2.0, LinkKind::Peering);
        g.add_link(d, c, 2.0, LinkKind::Peering);
        // The short route through AS2 is forbidden (valley).
        let path = g.shortest_path(a, c).unwrap();
        assert_eq!(path.pops, vec![a, d, c]);
        // But AS2 is reachable as a destination.
        let to_b = g.shortest_path(a, b).unwrap();
        assert_eq!(to_b.pops, vec![a, b]);
        // And a non-transit source may still originate traffic.
        let from_b = g.shortest_path(b, a).unwrap();
        assert_eq!(from_b.pops, vec![b, a]);
    }

    #[test]
    fn destination_as_backbone_is_usable() {
        // cloud → transit → acc@m1 → (intra) acc@m2: the destination
        // AS carries its own traffic to the homed PoP.
        let mut g = AsGraph::new();
        let cloud = g.add_pop_with(Asn(1), MetroId(0), false);
        let t = g.add_pop(Asn(2), MetroId(0));
        let acc1 = g.add_pop_with(Asn(3), MetroId(0), false);
        let acc2 = g.add_pop_with(Asn(3), MetroId(1), false);
        g.add_link(cloud, t, 1.0, LinkKind::Peering);
        g.add_link(t, acc1, 1.0, LinkKind::Peering);
        g.add_link(acc1, acc2, 3.0, LinkKind::IntraAs);
        let path = g.shortest_path(cloud, acc2).unwrap();
        assert_eq!(path.pops, vec![cloud, t, acc1, acc2]);
        // The destination AS must not exit back out through a peering:
        // give acc2 a peering to another transit and ask for a
        // destination beyond it — unreachable via the access AS.
        let t2 = g.add_pop(Asn(4), MetroId(1));
        let far = g.add_pop_with(Asn(5), MetroId(1), false);
        g.add_link(acc2, t2, 0.1, LinkKind::Peering);
        g.add_link(t2, far, 0.1, LinkKind::Peering);
        assert!(
            g.shortest_path(cloud, far).is_none(),
            "AS3 must not transit cloud→far traffic"
        );
    }

    #[test]
    fn source_as_backbone_cold_potato() {
        // cloud@m0 —backbone→ cloud@m1 —peer→ acc@m1; no egress at m0.
        let mut g = AsGraph::new();
        let c0 = g.add_pop_with(Asn(1), MetroId(0), false);
        let c1 = g.add_pop_with(Asn(1), MetroId(1), false);
        let acc = g.add_pop_with(Asn(3), MetroId(1), false);
        g.add_link(c0, c1, 20.0, LinkKind::IntraAs);
        g.add_link(c1, acc, 1.0, LinkKind::Peering);
        let path = g.shortest_path(c0, acc).unwrap();
        assert_eq!(path.pops, vec![c0, c1, acc]);
        // Once the path leaves the cloud it may not re-enter, even when
        // a transit detour back into cloud@m1 would be far cheaper:
        // forwarding from a re-entered cloud PoP would make the cloud a
        // transit for the tier below it.
        let t = g.add_pop(Asn(2), MetroId(0));
        g.add_link(c0, t, 0.1, LinkKind::Peering);
        g.add_link(t, c1, 0.1, LinkKind::Peering);
        let p2 = g.shortest_path(c0, acc).unwrap();
        assert_eq!(
            p2.pops,
            vec![c0, c1, acc],
            "the 0.2 ms detour re-enters the cloud and must be rejected"
        );
        assert_eq!(p2.cum_ms.last(), Some(&21.0));
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-cost routes: the lower pop id must win, always.
        let mut g = AsGraph::new();
        let a = g.add_pop(Asn(1), MetroId(0));
        let b = g.add_pop(Asn(2), MetroId(0));
        let c = g.add_pop(Asn(3), MetroId(0));
        let d = g.add_pop(Asn(4), MetroId(1));
        g.add_link(a, b, 1.0, LinkKind::Peering);
        g.add_link(b, d, 1.0, LinkKind::Peering);
        g.add_link(a, c, 1.0, LinkKind::Peering);
        g.add_link(c, d, 1.0, LinkKind::Peering);
        let first = g.shortest_path(a, d).unwrap();
        for _ in 0..10 {
            assert_eq!(g.shortest_path(a, d).unwrap().pops, first.pops);
        }
    }
}
