//! BGP routing: tables, paths, atoms, and churn.
//!
//! BlameIt's middle segment is the **BGP path**: "the set of middle
//! ASes between the client and cloud" (§3.1). §4.2 compares three
//! grouping granularities for a bad quartet's middle segment:
//!
//! * **BGP prefix** — all RTTs traversing `(X1-X2-C1)` where `C1` is the
//!   exact announced prefix (fine-grained, fewest samples);
//! * **BGP atom** — all RTTs traversing `(X1-X2-C)` where `C` is the
//!   client's AS (coarser);
//! * **BGP path** — all RTTs whose middle ASes are `(X1-X2)` regardless
//!   of client AS (BlameIt's choice: most samples, still accurate).
//!
//! This module provides the interned [`BgpPath`]/[`PathId`] type, the
//! per-location routing state ([`BgpTable`]) with primary + alternate
//! routes per announced prefix, and [`BgpChurnEvent`]s mimicking what
//! Azure's IBGP listener reports (§5.4).

use crate::asn::Asn;
use crate::cloud::CloudLocId;
use crate::fxhash::DetHashMap;
use crate::geo::MetroId;
use crate::ip::IpPrefix;
use std::fmt;

/// Interned identifier of a [`BgpPath`] (a middle-AS sequence).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// A middle segment: the ordered middle ASes between cloud and client.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BgpPath {
    /// Middle ASes in cloud→client order. Excludes the cloud AS and the
    /// client AS. May be empty when the cloud peers directly with the
    /// client ISP.
    pub middle: Vec<Asn>,
}

impl fmt::Display for BgpPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.middle.is_empty() {
            return f.write_str("(direct)");
        }
        for (i, asn) in self.middle.iter().enumerate() {
            if i > 0 {
                f.write_str("-")?;
            }
            write!(f, "{asn}")?;
        }
        Ok(())
    }
}

/// Interner mapping middle-AS sequences to dense [`PathId`]s.
#[derive(Clone, Debug, Default)]
pub struct PathTable {
    paths: Vec<BgpPath>,
    index: DetHashMap<Vec<Asn>, PathId>,
}

impl PathTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PathTable::default()
    }

    /// Interns a middle-AS sequence, returning its id.
    pub fn intern(&mut self, middle: Vec<Asn>) -> PathId {
        if let Some(id) = self.index.get(&middle) {
            return *id;
        }
        let id = PathId(self.paths.len() as u32);
        self.index.insert(middle.clone(), id);
        self.paths.push(BgpPath { middle });
        id
    }

    /// Resolves an id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn get(&self, id: PathId) -> &BgpPath {
        &self.paths[id.0 as usize]
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True if no path has been interned.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates over `(id, path)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &BgpPath)> {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, p)| (PathId(i as u32), p))
    }
}

/// A BGP atom key: prefixes of one client AS sharing one middle path
/// (the coarser alternative of §4.2 / Fig. 6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BgpAtom {
    /// Middle path.
    pub path: PathId,
    /// Client (origin) AS.
    pub origin: Asn,
}

/// One hop of an AS-level route, as a traceroute would summarize it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsHop {
    /// The AS this hop belongs to.
    pub asn: Asn,
    /// Cumulative **one-way** latency (ms) from the cloud location to
    /// the *last* PoP inside this AS — the quantity the paper's active
    /// phase differences between neighbouring hops (§5.2).
    pub cum_oneway_ms: f64,
    /// Metro of that last PoP (used by the fault injector to scope
    /// faults to an AS's footprint in one metro).
    pub metro: MetroId,
}

/// One concrete route (primary or alternate) from a cloud location to a
/// client origin AS.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteOption {
    /// Interned middle segment.
    pub path_id: PathId,
    /// Full AS-level path: first hop is the cloud AS, last is the
    /// client AS; between them, the middle ASes in order.
    pub as_hops: Vec<AsHop>,
    /// Total one-way latency of the route (== last hop's cumulative).
    pub total_oneway_ms: f64,
}

impl RouteOption {
    /// The middle-AS contribution (ms, one-way): total minus the cloud
    /// AS's own hop latency.
    pub fn middle_oneway_ms(&self) -> f64 {
        let cloud_exit = self.as_hops.first().map_or(0.0, |h| h.cum_oneway_ms);
        let client_entry = if self.as_hops.len() >= 2 {
            self.as_hops[self.as_hops.len() - 2].cum_oneway_ms
        } else {
            cloud_exit
        };
        client_entry - cloud_exit
    }
}

/// Primary + alternates from one cloud location to one client origin AS
/// footprint. All prefixes announced at that footprint share these
/// options; which option is *live* at a given instant is tracked
/// per-prefix by the simulator (churn).
#[derive(Clone, Debug)]
pub struct RouteOptions {
    /// Cloud location the routes originate from.
    pub loc: CloudLocId,
    /// Client (origin) AS the routes terminate in.
    pub origin: Asn,
    /// Route choices; `options[0]` is the BGP best path.
    pub options: Vec<RouteOption>,
}

/// Identifier of a [`RouteOptions`] entry in a [`BgpTable`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RouteIdx(pub u32);

/// A churn event as reported by the IBGP listener: the best path for a
/// prefix at a border router changed (or was withdrawn and replaced).
/// The paper re-issues a background traceroute on each such event
/// (§5.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BgpChurnEvent {
    /// Event time, in seconds since the simulation epoch.
    pub at_secs: u64,
    /// Cloud location whose border router saw the change.
    pub loc: CloudLocId,
    /// The announced prefix affected.
    pub prefix: IpPrefix,
    /// Middle path before the change.
    pub old_path: PathId,
    /// Middle path after the change.
    pub new_path: PathId,
}

/// Per-cloud-location routing: an arena of [`RouteOptions`] plus the
/// mapping from announced prefix to its route entry.
#[derive(Clone, Debug, Default)]
pub struct BgpTable {
    routes: Vec<RouteOptions>,
    /// (loc, prefix) → arena index. Built once by the generator.
    by_prefix: DetHashMap<(CloudLocId, IpPrefix), RouteIdx>,
}

impl BgpTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        BgpTable::default()
    }

    /// Adds a [`RouteOptions`] entry to the arena.
    pub fn push_routes(&mut self, routes: RouteOptions) -> RouteIdx {
        let idx = RouteIdx(self.routes.len() as u32);
        self.routes.push(routes);
        idx
    }

    /// Associates an announced prefix (at a location) with a route entry.
    ///
    /// # Panics
    /// Panics if the pair was already bound or the index is unknown.
    pub fn bind_prefix(&mut self, loc: CloudLocId, prefix: IpPrefix, idx: RouteIdx) {
        assert!((idx.0 as usize) < self.routes.len(), "unknown route index");
        let prev = self.by_prefix.insert((loc, prefix), idx);
        assert!(prev.is_none(), "prefix {prefix} already bound at {loc}");
    }

    /// Resolves the route options for an announced prefix at a location.
    pub fn lookup(&self, loc: CloudLocId, prefix: IpPrefix) -> Option<&RouteOptions> {
        self.by_prefix
            .get(&(loc, prefix))
            .map(|idx| &self.routes[idx.0 as usize])
    }

    /// Resolves by arena index.
    ///
    /// # Panics
    /// Panics on an unknown index.
    pub fn routes(&self, idx: RouteIdx) -> &RouteOptions {
        &self.routes[idx.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(asn: u32, cum: f64) -> AsHop {
        AsHop {
            asn: Asn(asn),
            cum_oneway_ms: cum,
            metro: MetroId(0),
        }
    }

    #[test]
    fn path_interning_dedupes() {
        let mut t = PathTable::new();
        let a = t.intern(vec![Asn(10), Asn(20)]);
        let b = t.intern(vec![Asn(10), Asn(20)]);
        let c = t.intern(vec![Asn(20), Asn(10)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).middle, vec![Asn(10), Asn(20)]);
    }

    #[test]
    fn path_display() {
        let mut t = PathTable::new();
        let id = t.intern(vec![Asn(10), Asn(20)]);
        assert_eq!(t.get(id).to_string(), "AS10-AS20");
        let empty = t.intern(vec![]);
        assert_eq!(t.get(empty).to_string(), "(direct)");
    }

    #[test]
    fn route_option_middle_contribution() {
        // cloud exits at 4 ms; client entered after middle at 8 ms.
        let r = RouteOption {
            path_id: PathId(0),
            as_hops: vec![hop(8075, 4.0), hop(10, 6.0), hop(20, 8.0), hop(30, 9.0)],
            total_oneway_ms: 9.0,
        };
        // Last middle hop is AS20 at 8 ms; middle = 8 - 4 = 4 ms.
        assert!((r.middle_oneway_ms() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn route_option_direct_peering_has_zero_middle() {
        let r = RouteOption {
            path_id: PathId(0),
            as_hops: vec![hop(8075, 4.0), hop(30, 9.0)],
            total_oneway_ms: 9.0,
        };
        assert!((r.middle_oneway_ms() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn table_bind_and_lookup() {
        let mut table = BgpTable::new();
        let idx = table.push_routes(RouteOptions {
            loc: CloudLocId(1),
            origin: Asn(30),
            options: vec![],
        });
        let p: IpPrefix = "10.0.0.0/16".parse().unwrap();
        table.bind_prefix(CloudLocId(1), p, idx);
        assert!(table.lookup(CloudLocId(1), p).is_some());
        assert!(table.lookup(CloudLocId(2), p).is_none());
        let q: IpPrefix = "10.1.0.0/16".parse().unwrap();
        assert!(table.lookup(CloudLocId(1), q).is_none());
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut table = BgpTable::new();
        let idx = table.push_routes(RouteOptions {
            loc: CloudLocId(0),
            origin: Asn(1),
            options: vec![],
        });
        let p: IpPrefix = "10.0.0.0/16".parse().unwrap();
        table.bind_prefix(CloudLocId(0), p, idx);
        table.bind_prefix(CloudLocId(0), p, idx);
    }

    #[test]
    fn bindings_are_per_location() {
        let mut table = BgpTable::new();
        let idx0 = table.push_routes(RouteOptions {
            loc: CloudLocId(0),
            origin: Asn(1),
            options: vec![],
        });
        let idx1 = table.push_routes(RouteOptions {
            loc: CloudLocId(1),
            origin: Asn(1),
            options: vec![],
        });
        table.bind_prefix(CloudLocId(0), "10.0.0.0/16".parse().unwrap(), idx0);
        table.bind_prefix(CloudLocId(1), "10.0.0.0/16".parse().unwrap(), idx1);
        table.bind_prefix(CloudLocId(0), "10.1.0.0/16".parse().unwrap(), idx0);
        let at = |loc, prefix: &str| table.lookup(CloudLocId(loc), prefix.parse().unwrap());
        assert_eq!(at(0, "10.0.0.0/16").map(|r| r.loc), Some(CloudLocId(0)));
        assert_eq!(at(1, "10.0.0.0/16").map(|r| r.loc), Some(CloudLocId(1)));
        assert!(at(1, "10.1.0.0/16").is_none());
    }

    #[test]
    fn atom_equality() {
        let a = BgpAtom {
            path: PathId(1),
            origin: Asn(30),
        };
        let b = BgpAtom {
            path: PathId(1),
            origin: Asn(30),
        };
        let c = BgpAtom {
            path: PathId(1),
            origin: Asn(31),
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
