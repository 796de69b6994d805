//! # blameit-baselines — comparator systems
//!
//! The systems BlameIt is evaluated against (paper Table 1 and §6.5),
//! implemented over the same [`blameit::Backend`] abstraction so probe
//! budgets and localization accuracy are directly comparable:
//!
//! * [`tomography`] — boolean network tomography: exoneration from good
//!   paths plus greedy minimal-set cover. Demonstrates the ambiguity
//!   that §4.1 says makes classical tomography impractical.
//! * [`active_only`] — continuous traceroutes on a fixed short period
//!   with rolling per-AS baselines; the design BlameIt beats by 72× on
//!   probe volume.
//! * [`trinocular`] — Trinocular-style belief/back-off adaptive
//!   probing (the 20× comparison).
//! * [`ip_rank`] — prefix-count issue ranking vs impact ranking
//!   (Fig. 4b / Fig. 5 / Fig. 12).
//! * [`oracle`] — ground-truth middle issues with true client-time
//!   products, straight from the simulator's fault schedule.

pub mod active_only;
pub mod ip_rank;
pub mod oracle;
pub mod tomography;
pub mod trinocular;

pub use active_only::ActiveOnlyMonitor;
pub use ip_rank::{
    cumulative_impact_curve, rank_by_impact, rank_by_prefix_count, tuples_needed_for_coverage,
    ImpactRecord,
};
pub use oracle::{impact_records, middle_issues, OracleIssue};
pub use tomography::{boolean_tomography, SegmentNode, TomographyResult};
pub use trinocular::TrinocularMonitor;
