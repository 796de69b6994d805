//! Boolean network tomography baseline.
//!
//! §4.1 argues classical tomography is infeasible at BlameIt's scale:
//! the linear system over (cloud, middle, client) segment latencies is
//! rank-deficient (only composite expressions are solvable), and even
//! *boolean* tomography — each segment is good or bad, a path is good
//! iff all its segments are good — leaves many bad paths ambiguous
//! when coverage is thin. This module implements boolean tomography
//! honestly (exoneration from good paths + greedy minimal-set cover
//! for the rest) so the experiments can measure exactly how ambiguous
//! it is on the same inputs BlameIt handles.

use blameit::{EnrichedQuartet, MiddleKey};
use blameit_topology::{Asn, CloudLocId};
use std::collections::{HashMap, HashSet};

/// A boolean-tomography segment node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum SegmentNode {
    /// A cloud location.
    Cloud(CloudLocId),
    /// A middle segment (BGP path).
    Middle(MiddleKey),
    /// A client AS.
    Client(Asn),
}

/// Outcome of a boolean-tomography solve over one bucket.
#[derive(Clone, Debug, Default)]
pub struct TomographyResult {
    /// Segments declared faulty by the greedy minimal cover.
    pub blamed: Vec<SegmentNode>,
    /// Bad paths fully explained by a single forced segment.
    pub explained: usize,
    /// Bad paths whose culprit choice was ambiguous (≥ 2 candidate
    /// segments remained; greedy picked one arbitrarily).
    pub ambiguous: usize,
    /// Bad paths with *no* candidate segment (every segment exonerated
    /// by good paths — contradictory observations).
    pub contradictory: usize,
}

impl TomographyResult {
    /// Fraction of bad paths that were ambiguous or contradictory.
    pub fn unresolved_fraction(&self) -> f64 {
        let total = self.explained + self.ambiguous + self.contradictory;
        if total == 0 {
            0.0
        } else {
            (self.ambiguous + self.contradictory) as f64 / total as f64
        }
    }
}

/// The three segment nodes of a quartet's path.
fn nodes_of(q: &EnrichedQuartet) -> [SegmentNode; 3] {
    [
        SegmentNode::Cloud(q.obs.loc),
        SegmentNode::Middle(MiddleKey::Path(q.info.path)),
        SegmentNode::Client(q.info.origin),
    ]
}

/// Runs boolean tomography over one bucket's enriched quartets:
///
/// 1. every segment on any *good* path is exonerated;
/// 2. each bad path must contain ≥ 1 faulty segment among its
///    non-exonerated ones;
/// 3. a greedy set cover picks the fewest segments explaining all bad
///    paths (Insight-2's smaller-failure-set prior, applied globally).
pub fn boolean_tomography(quartets: &[EnrichedQuartet]) -> TomographyResult {
    let mut exonerated: HashSet<SegmentNode> = HashSet::new();
    for q in quartets.iter().filter(|q| !q.bad) {
        exonerated.extend(nodes_of(q));
    }

    // Candidate sets per bad path.
    let mut candidate_sets: Vec<Vec<SegmentNode>> = Vec::new();
    for q in quartets.iter().filter(|q| q.bad) {
        let cands: Vec<SegmentNode> = nodes_of(q)
            .into_iter()
            .filter(|n| !exonerated.contains(n))
            .collect();
        candidate_sets.push(cands);
    }

    let mut result = TomographyResult::default();
    let mut blamed: HashSet<SegmentNode> = HashSet::new();

    // Classify determinism first.
    for cands in &candidate_sets {
        match cands.len() {
            0 => result.contradictory += 1,
            1 => result.explained += 1,
            _ => result.ambiguous += 1,
        }
    }

    // Greedy cover: repeatedly pick the candidate covering the most
    // uncovered bad paths (ties → smallest node, deterministically).
    let mut uncovered: Vec<&Vec<SegmentNode>> =
        candidate_sets.iter().filter(|c| !c.is_empty()).collect();
    while !uncovered.is_empty() {
        let mut freq: HashMap<SegmentNode, usize> = HashMap::new();
        for cands in &uncovered {
            for n in cands.iter() {
                *freq.entry(*n).or_default() += 1;
            }
        }
        let best = *freq
            // lint:allow(unordered-iteration): max fold under a total order (count, then smallest node); the winner is the same from any visit order
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(n, _)| n)
            .expect("uncovered paths have candidates");
        blamed.insert(best);
        uncovered.retain(|cands| !cands.contains(&best));
    }

    let mut blamed: Vec<SegmentNode> = blamed.into_iter().collect();
    blamed.sort();
    result.blamed = blamed;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit::RouteInfo;
    use blameit_simnet::{QuartetObs, TimeBucket};
    use blameit_topology::{IpPrefix, MetroId, PathId, Prefix24, Region};

    fn q(loc: u16, block: u32, path: u32, origin: u32, bad: bool) -> EnrichedQuartet {
        EnrichedQuartet {
            obs: QuartetObs {
                loc: CloudLocId(loc),
                p24: Prefix24::from_block(block),
                mobile: false,
                bucket: TimeBucket(0),
                n: 20,
                mean_rtt_ms: if bad { 200.0 } else { 20.0 },
            },
            info: RouteInfo {
                path: PathId(path),
                origin: Asn(origin),
                metro: MetroId(0),
                region: Region::Europe,
                prefix: IpPrefix::new(block << 8, 22),
            },
            bad,
        }
    }

    #[test]
    fn exoneration_forces_unique_culprit() {
        // Path 1 bad for client A; the same loc and the same middle are
        // good for client B → only Client(A) remains.
        let quartets = vec![q(0, 1, 1, 100, true), q(0, 2, 1, 200, false)];
        let r = boolean_tomography(&quartets);
        assert_eq!(r.explained, 1);
        assert_eq!(r.ambiguous, 0);
        assert_eq!(r.blamed, vec![SegmentNode::Client(Asn(100))]);
        assert_eq!(r.unresolved_fraction(), 0.0);
    }

    #[test]
    fn isolated_bad_path_is_ambiguous() {
        // One bad path, nothing else observed: cloud, middle and client
        // are all candidates — tomography cannot decide.
        let quartets = vec![q(0, 1, 1, 100, true)];
        let r = boolean_tomography(&quartets);
        assert_eq!(r.ambiguous, 1);
        assert_eq!(r.explained, 0);
        assert_eq!(r.blamed.len(), 1, "greedy still picks one");
        assert!(r.unresolved_fraction() > 0.99);
    }

    #[test]
    fn contradictory_when_all_exonerated() {
        // The same (loc, path, client) triple is both good and bad in
        // the bucket (flapping) → every segment exonerated.
        let quartets = vec![q(0, 1, 1, 100, true), q(0, 1, 1, 100, false)];
        let r = boolean_tomography(&quartets);
        assert_eq!(r.contradictory, 1);
        assert!(r.blamed.is_empty());
    }

    #[test]
    fn greedy_prefers_shared_segment() {
        // Many bad paths share one middle; separate clients. Insight-2
        // says blame the shared middle, and greedy cover agrees.
        let mut quartets: Vec<_> = (0..10).map(|i| q(0, i, 7, 100 + i, true)).collect();
        // Exonerate the cloud with a good path elsewhere.
        quartets.push(q(0, 99, 8, 500, false));
        let r = boolean_tomography(&quartets);
        assert!(r
            .blamed
            .contains(&SegmentNode::Middle(MiddleKey::Path(PathId(7)))));
        assert_eq!(
            r.blamed.len(),
            1,
            "one segment explains all: {:?}",
            r.blamed
        );
    }

    #[test]
    fn empty_input() {
        let r = boolean_tomography(&[]);
        assert!(r.blamed.is_empty());
        assert_eq!(r.unresolved_fraction(), 0.0);
    }
}
