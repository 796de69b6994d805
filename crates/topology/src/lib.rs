//! # blameit-topology — synthetic Internet model
//!
//! This crate is the *Internet substrate* for the BlameIt reproduction
//! (Jin et al., *Zooming in on Wide-area Latencies to a Global Cloud
//! Provider*, SIGCOMM 2019). The paper runs on Azure's production
//! telemetry: hundreds of edge locations, BGP tables from border routers,
//! and clients in millions of IPv4 /24 blocks. None of that is publicly
//! available, so this crate builds a deterministic synthetic equivalent:
//!
//! * [`ip`] — IPv4 /24 client blocks and variable-length BGP prefixes.
//! * [`asn`] — autonomous-system numbers and roles (cloud, tier-1,
//!   transit, access, mobile carrier).
//! * [`geo`] — regions, metros, coordinates, and great-circle fiber RTT.
//! * [`cloud`] — the cloud provider's edge locations (the paper's
//!   "cloud locations") and anycast client assignment.
//! * [`graph`] — a PoP-level (AS × metro) topology graph with latencied
//!   links; paths through it yield realistic, location-dependent AS paths.
//! * [`bgp`] — per-location BGP tables, the *BGP path* middle-segment
//!   abstraction (§4.2 of the paper), BGP atoms/prefixes, route churn,
//!   and an IBGP-listener event feed.
//! * [`gen`] — a seeded generator assembling all of the above into a
//!   [`Topology`].
//! * [`fxhash`] — the workspace's fixed-seed hasher and the
//!   `DetHashMap`/`DetHashSet` aliases every lookup table is built on.
//!
//! Everything is deterministic given a seed: the same seed produces the
//! same Internet, byte for byte, regardless of platform or thread count.

pub mod asn;
pub mod bgp;
pub mod cloud;
pub mod fxhash;
pub mod gen;
pub mod geo;
pub mod graph;
pub mod ip;
pub mod rng;
pub mod testkit;

pub use asn::{AsInfo, AsRole, Asn};
pub use bgp::{BgpAtom, BgpChurnEvent, BgpPath, BgpTable, PathId};
pub use cloud::{CloudLocId, CloudLocation};
pub use gen::{Topology, TopologyConfig};
pub use geo::{GeoPoint, Metro, MetroId, Region};
pub use graph::{AsGraph, LinkKind, PopId};
pub use ip::{IpPrefix, Prefix24};
