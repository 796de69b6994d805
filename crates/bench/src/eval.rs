//! Evaluation: scoring BlameIt against the simulator's ground truth.
//!
//! The paper validates against manual incident investigations (§6.3)
//! and continuous-traceroute corroboration (§6.4). Here the simulator
//! *is* the adjudicator: every quartet's true culprit segment/AS is
//! known, so accuracy is exact.

use crate::scenarios::IncidentScenario;
use blameit::{Blame, BlameResult, MiddleLocalization};
use blameit_simnet::{Segment, World};
use blameit_topology::Asn;
use std::collections::HashMap;
use std::fmt;

/// Confusion matrix: ground-truth segment (rows) × BlameIt verdict
/// (columns). Quartets that are bad without any ground-truth cause
/// (pure noise) are tracked separately.
#[derive(Clone, Debug, Default)]
pub struct ConfusionMatrix {
    counts: HashMap<(Segment, Blame), u64>,
    /// Bad quartets with no ground-truth culprit (noise-only badness).
    pub no_ground_truth: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        ConfusionMatrix::default()
    }

    /// Adds one scored quartet.
    pub fn add(&mut self, gt: Segment, blame: Blame) {
        *self.counts.entry((gt, blame)).or_default() += 1;
    }

    /// Count in one cell.
    pub fn get(&self, gt: Segment, blame: Blame) -> u64 {
        self.counts.get(&(gt, blame)).copied().unwrap_or(0)
    }

    /// Total scored quartets (excluding no-ground-truth ones).
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Decisive verdicts (cloud/middle/client, not
    /// ambiguous/insufficient).
    pub fn decisive(&self) -> u64 {
        self.counts
            .iter()
            .filter(|((_, b), _)| matches!(b, Blame::Cloud | Blame::Middle | Blame::Client))
            .map(|(_, n)| n)
            .sum()
    }

    /// Correct decisive verdicts: GT segment matches the blame.
    pub fn correct(&self) -> u64 {
        [
            (Segment::Cloud, Blame::Cloud),
            (Segment::Middle, Blame::Middle),
            (Segment::Client, Blame::Client),
        ]
        .iter()
        .map(|(g, b)| self.get(*g, *b))
        .sum()
    }

    /// Accuracy over decisive verdicts (0 when none).
    pub fn accuracy(&self) -> f64 {
        let d = self.decisive();
        if d == 0 {
            0.0
        } else {
            self.correct() as f64 / d as f64
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>10} | {:>8} {:>8} {:>8} {:>10} {:>12}",
            "gt\\blame", "cloud", "middle", "client", "ambiguous", "insufficient"
        )?;
        for gt in [Segment::Cloud, Segment::Middle, Segment::Client] {
            writeln!(
                f,
                "{:>10} | {:>8} {:>8} {:>8} {:>10} {:>12}",
                gt.to_string(),
                self.get(gt, Blame::Cloud),
                self.get(gt, Blame::Middle),
                self.get(gt, Blame::Client),
                self.get(gt, Blame::Ambiguous),
                self.get(gt, Blame::Insufficient),
            )?;
        }
        writeln!(f, "no-ground-truth bad quartets: {}", self.no_ground_truth)?;
        write!(f, "decisive accuracy: {:.1}%", 100.0 * self.accuracy())
    }
}

/// Scores each blame verdict against the quartet's ground truth at its
/// bucket midpoint.
pub fn score_blames(world: &World, blames: &[BlameResult]) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::new();
    for b in blames {
        let Some(client) = world.topology().client(b.obs.p24) else {
            continue;
        };
        let gt = world.ground_truth(b.obs.loc, client, b.obs.bucket.mid());
        match gt.culprit {
            Some(c) => m.add(c.segment, b.blame),
            None => m.no_ground_truth += 1,
        }
    }
    m
}

/// The verdict for one scripted incident.
#[derive(Clone, Debug)]
pub struct IncidentVerdict {
    /// Scenario name.
    pub name: String,
    /// Blame verdicts within the incident's scope, per category.
    pub votes: HashMap<Blame, u64>,
    /// The dominant (plurality) verdict, if any votes exist.
    pub dominant: Option<Blame>,
    /// Culprit AS named by the active phase, if localized.
    pub localized_culprit: Option<Asn>,
    /// True if the dominant verdict matches the expected segment (and,
    /// for middle incidents with a localization, the culprit AS too).
    pub correct: bool,
    /// Confidence: fraction of in-scope votes agreeing with the
    /// dominant verdict (the §6.3 case-5 notion).
    pub confidence: f64,
}

/// Scores one incident from the engine outputs produced while it was
/// active. `blames` and `localizations` may span more than the
/// incident; scoping is applied here.
pub fn score_incident(
    world: &World,
    scenario: &IncidentScenario,
    blames: &[BlameResult],
    localizations: &[MiddleLocalization],
) -> IncidentVerdict {
    let window = scenario.window();
    let topo = world.topology();
    let in_scope = |b: &BlameResult| -> bool {
        if !window.contains(b.obs.bucket.mid()) {
            return false;
        }
        match scenario.expected_segment {
            Segment::Cloud => {
                scenario.visible_at.is_empty() || scenario.visible_at.contains(&b.obs.loc)
            }
            Segment::Middle => topo
                .paths
                .get(b.path)
                .middle
                .contains(&scenario.expected_asn),
            Segment::Client => b.origin == scenario.expected_asn,
        }
    };

    let mut votes: HashMap<Blame, u64> = HashMap::new();
    for b in blames.iter().filter(|b| in_scope(b)) {
        *votes.entry(b.blame).or_default() += 1;
    }
    let dominant = votes
        // lint:allow(unordered-iteration): max fold under a total order (count, then smallest blame); the winner is the same from any visit order
        .iter()
        .max_by_key(|(b, n)| (**n, std::cmp::Reverse(**b)))
        .map(|(b, _)| *b);
    let total: u64 = votes.values().sum();
    let confidence = dominant
        .map(|d| votes[&d] as f64 / total as f64)
        .unwrap_or(0.0);

    // Active-phase attribution inside the window: for middle
    // incidents, a localization on a path through the faulty AS; for
    // client incidents, any localization naming the client AS (a path
    // dominated by one client AS is passively indistinguishable from a
    // middle issue, but the traceroute diff pins the client hop).
    let localized_culprit = match scenario.expected_segment {
        Segment::Middle => localizations
            .iter()
            .filter(|l| window.contains(l.probed_at))
            .filter(|l| {
                topo.paths
                    .get(l.issue.issue.path)
                    .middle
                    .contains(&scenario.expected_asn)
            })
            .find_map(|l| l.culprit),
        Segment::Client => localizations
            .iter()
            .filter(|l| window.contains(l.probed_at))
            .find_map(|l| l.culprit.filter(|c| *c == scenario.expected_asn)),
        Segment::Cloud => None,
    };

    let expected_blame = match scenario.expected_segment {
        Segment::Cloud => Blame::Cloud,
        Segment::Middle => Blame::Middle,
        Segment::Client => Blame::Client,
    };
    let segment_ok = dominant == Some(expected_blame);
    // BlameIt's deliverable is the blamed AS (§1): the incident counts
    // as localized when either the coarse verdict or the active-phase
    // culprit names the injected fault — and counts as missed when the
    // active phase confidently names a *different* AS.
    let correct = match scenario.expected_segment {
        Segment::Cloud => segment_ok,
        Segment::Middle | Segment::Client => match localized_culprit {
            Some(c) => c == scenario.expected_asn,
            None => segment_ok,
        },
    };

    IncidentVerdict {
        name: scenario.name.clone(),
        votes,
        dominant,
        localized_culprit,
        correct,
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_accuracy() {
        let mut m = ConfusionMatrix::new();
        for _ in 0..8 {
            m.add(Segment::Middle, Blame::Middle);
        }
        m.add(Segment::Middle, Blame::Client);
        m.add(Segment::Cloud, Blame::Cloud);
        m.add(Segment::Client, Blame::Ambiguous); // not decisive
        assert_eq!(m.total(), 11);
        assert_eq!(m.decisive(), 10);
        assert_eq!(m.correct(), 9);
        assert!((m.accuracy() - 0.9).abs() < 1e-12);
        let s = m.to_string();
        assert!(s.contains("decisive accuracy: 90.0%"), "{s}");
    }

    #[test]
    fn empty_matrix() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.total(), 0);
    }
}
