//! Middle-segment grouping granularities.
//!
//! §4.2 of the paper weighs four ways to group the RTT samples that
//! share a bad quartet's middle segment:
//!
//! * **BGP path** (BlameIt's choice) — all clients whose middle ASes
//!   are identical, regardless of client AS or prefix. Most samples.
//! * **BGP atom** — same middle ASes *and* same client AS. Coarser
//!   than prefix, finer than path.
//! * **BGP prefix** — same middle ASes and same announced prefix.
//!   Fine-grained; fewest samples.
//! * **⟨AS, Metro⟩** — the traditional client grouping of prior work
//!   [Lee & Spring, IMC'16], which ignores the path entirely; the
//!   paper found only 47% of ⟨AS, Metro⟩ groups see a single
//!   consistent path even within 5 minutes, and Fig. 11 shows this
//!   grouping significantly hurts corroboration.
//!
//! Fig. 6 plots how many /24s share a group under the first three
//! definitions; the `fig6` bench regenerates it from these keys.

use crate::backend::RouteInfo;
use blameit_topology::{Asn, IpPrefix, MetroId, PathId};
use std::fmt;

/// Strategy for grouping quartets into middle segments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MiddleGrouping {
    /// Group by the middle-AS path only (BlameIt's default).
    #[default]
    BgpPath,
    /// Group by (middle path, client AS).
    BgpAtom,
    /// Group by (middle path, announced prefix).
    BgpPrefix,
    /// Group by (client AS, client metro) — ignores the path.
    AsMetro,
}

/// A middle-segment group key under some [`MiddleGrouping`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum MiddleKey {
    /// BGP-path key.
    Path(PathId),
    /// BGP-atom key.
    Atom(PathId, Asn),
    /// BGP-prefix key.
    Prefix(PathId, IpPrefix),
    /// ⟨AS, Metro⟩ key.
    AsMetro(Asn, MetroId),
}

impl fmt::Display for MiddleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiddleKey::Path(p) => write!(f, "{p}"),
            MiddleKey::Atom(p, a) => write!(f, "{p}@{a}"),
            MiddleKey::Prefix(p, pre) => write!(f, "{p}@{pre}"),
            MiddleKey::AsMetro(a, m) => write!(f, "{a}@{m}"),
        }
    }
}

impl MiddleGrouping {
    /// The group key of a quartet's route under this strategy.
    pub fn key(self, info: &RouteInfo) -> MiddleKey {
        match self {
            MiddleGrouping::BgpPath => MiddleKey::Path(info.path),
            MiddleGrouping::BgpAtom => MiddleKey::Atom(info.path, info.origin),
            MiddleGrouping::BgpPrefix => MiddleKey::Prefix(info.path, info.prefix),
            MiddleGrouping::AsMetro => MiddleKey::AsMetro(info.origin, info.metro),
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            MiddleGrouping::BgpPath => "BGP path",
            MiddleGrouping::BgpAtom => "BGP atom",
            MiddleGrouping::BgpPrefix => "BGP prefix",
            MiddleGrouping::AsMetro => "<AS, Metro>",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_topology::Region;

    fn info(path: u32, origin: u32, metro: u16, prefix: &str) -> RouteInfo {
        RouteInfo {
            path: PathId(path),
            origin: Asn(origin),
            metro: MetroId(metro),
            region: Region::Europe,
            prefix: prefix.parse().unwrap(),
        }
    }

    #[test]
    fn path_grouping_merges_across_origins() {
        let a = info(1, 100, 0, "10.0.0.0/20");
        let b = info(1, 200, 5, "10.16.0.0/20");
        assert_eq!(
            MiddleGrouping::BgpPath.key(&a),
            MiddleGrouping::BgpPath.key(&b)
        );
        assert_ne!(
            MiddleGrouping::BgpAtom.key(&a),
            MiddleGrouping::BgpAtom.key(&b)
        );
    }

    #[test]
    fn atom_merges_prefixes_of_same_origin() {
        let a = info(1, 100, 0, "10.0.0.0/20");
        let b = info(1, 100, 0, "10.16.0.0/20");
        assert_eq!(
            MiddleGrouping::BgpAtom.key(&a),
            MiddleGrouping::BgpAtom.key(&b)
        );
        assert_ne!(
            MiddleGrouping::BgpPrefix.key(&a),
            MiddleGrouping::BgpPrefix.key(&b)
        );
    }

    #[test]
    fn as_metro_ignores_path() {
        let a = info(1, 100, 3, "10.0.0.0/20");
        let b = info(2, 100, 3, "10.0.0.0/20");
        assert_eq!(
            MiddleGrouping::AsMetro.key(&a),
            MiddleGrouping::AsMetro.key(&b)
        );
        assert_ne!(
            MiddleGrouping::BgpPath.key(&a),
            MiddleGrouping::BgpPath.key(&b)
        );
    }

    #[test]
    fn granularity_ordering_holds() {
        // Path ⊇ Atom ⊇ Prefix: equal finer keys imply equal coarser keys.
        let a = info(4, 7, 1, "10.0.0.0/20");
        let b = info(4, 7, 1, "10.0.0.0/20");
        assert_eq!(
            MiddleGrouping::BgpPrefix.key(&a),
            MiddleGrouping::BgpPrefix.key(&b)
        );
        assert_eq!(
            MiddleGrouping::BgpAtom.key(&a),
            MiddleGrouping::BgpAtom.key(&b)
        );
        assert_eq!(
            MiddleGrouping::BgpPath.key(&a),
            MiddleGrouping::BgpPath.key(&b)
        );
    }

    #[test]
    fn labels_distinct() {
        let labels: Vec<_> = [
            MiddleGrouping::BgpPath,
            MiddleGrouping::BgpAtom,
            MiddleGrouping::BgpPrefix,
            MiddleGrouping::AsMetro,
        ]
        .iter()
        .map(|g| g.label())
        .collect();
        let mut d = labels.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), labels.len());
    }
}
