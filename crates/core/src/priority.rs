//! Impact-proportional probe prioritization.
//!
//! §5.3: on-demand traceroutes are budgeted, so middle-segment issues
//! are ranked by their **client-time product** — (predicted remaining
//! duration) × (predicted impacted clients) — and probed best-first.
//! Duration is predicted from per-path incident history (mean residual
//! life given the issue has lasted `t` buckets); client volume from
//! the same 5-minute slot over the past 3 days. §2.4 shows this
//! space×time ranking concentrates impact ~3× better than counting
//! affected prefixes.

use crate::fxhash::DetHashMap;
use crate::grouping::MiddleKey;
use crate::history::{ClientCountHistory, DurationHistory};
use crate::provenance::PriorityEvidence;
use blameit_simnet::TimeBucket;
use blameit_topology::{CloudLocId, PathId, Prefix24};

/// An ongoing middle-segment issue eligible for on-demand probing.
#[derive(Clone, Debug)]
pub struct MiddleIssue {
    /// Cloud location observing the issue.
    pub loc: CloudLocId,
    /// The blamed middle path.
    pub path: PathId,
    /// Its group key (matches the configured grouping).
    pub middle_key: MiddleKey,
    /// The bucket the issue was observed in.
    pub bucket: TimeBucket,
    /// Consecutive bad buckets so far (the `t` of `P(T|t)`).
    pub elapsed_buckets: u32,
    /// Client volume observed on the path this bucket (connection
    /// count — the observable proxy for active clients).
    pub current_clients: u64,
    /// Affected /24s (probe target candidates), deduplicated.
    pub affected_p24s: Vec<Prefix24>,
}

/// A [`MiddleIssue`] with its predicted impact.
#[derive(Clone, Debug)]
pub struct PrioritizedIssue {
    /// The issue.
    pub issue: MiddleIssue,
    /// Predicted additional duration (buckets).
    pub expected_remaining_buckets: f64,
    /// Predicted impacted clients while it lasts.
    pub predicted_clients: f64,
    /// The ranking score: duration × clients.
    pub client_time_product: f64,
}

impl PrioritizedIssue {
    /// The provenance record of this issue's ranking: its score and
    /// where it landed in the budgeted selection (`budget_rank` of
    /// `selected` issues chosen out of `candidates` competing).
    pub fn evidence(
        &self,
        budget_rank: usize,
        selected: usize,
        candidates: usize,
    ) -> PriorityEvidence {
        PriorityEvidence {
            client_time_product: self.client_time_product,
            predicted_clients: self.predicted_clients,
            expected_remaining_buckets: self.expected_remaining_buckets,
            budget_rank,
            selected,
            candidates,
        }
    }
}

/// Scores and ranks middle issues by client-time product, descending.
/// Ties break deterministically by (location, path).
pub fn prioritize(
    issues: Vec<MiddleIssue>,
    durations: &DurationHistory,
    clients: &ClientCountHistory,
) -> Vec<PrioritizedIssue> {
    let _span = blameit_obs::span!("blameit::priority", "prioritize", issues = issues.len());
    let mut out: Vec<PrioritizedIssue> = issues
        .into_iter()
        .map(|issue| {
            let remaining = durations.expected_remaining(issue.path, issue.elapsed_buckets);
            // Client prediction: same-slot history, falling back to
            // what we can see right now.
            let predicted = clients
                .predict(issue.path, issue.bucket)
                .unwrap_or(issue.current_clients as f64);
            PrioritizedIssue {
                client_time_product: remaining * predicted,
                expected_remaining_buckets: remaining,
                predicted_clients: predicted,
                issue,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.client_time_product
            .total_cmp(&a.client_time_product)
            .then_with(|| (a.issue.loc, a.issue.path).cmp(&(b.issue.loc, b.issue.path)))
    });
    out
}

/// Applies a per-location probe budget (the paper budgets per cloud
/// location rather than per AS, §5.3): keeps at most `per_loc` issues
/// for each location and `max_total` overall, preserving rank order.
/// The global cap is the coarse safety valve for chaos runs — the
/// fine-grained limit is the engine's per-tick probe *deadline* budget,
/// which accounts for time actually spent retrying.
pub fn select_within_budgets(
    ranked: &[PrioritizedIssue],
    per_loc: usize,
    max_total: usize,
) -> Vec<&PrioritizedIssue> {
    let mut used: DetHashMap<CloudLocId, usize> = DetHashMap::default();
    let mut out = Vec::new();
    for p in ranked {
        if out.len() >= max_total {
            break;
        }
        let u = used.entry(p.issue.loc).or_insert(0);
        if *u < per_loc {
            *u += 1;
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(loc: u16, path: u32, elapsed: u32, clients: u64) -> MiddleIssue {
        MiddleIssue {
            loc: CloudLocId(loc),
            path: PathId(path),
            middle_key: MiddleKey::Path(PathId(path)),
            bucket: TimeBucket(10),
            elapsed_buckets: elapsed,
            current_clients: clients,
            affected_p24s: vec![Prefix24::from_block(path)],
        }
    }

    #[test]
    fn ranks_by_product() {
        let mut durations = DurationHistory::new();
        // Path 1: short history (2 buckets); path 2: long (20 buckets).
        for _ in 0..20 {
            durations.record(PathId(1), 2);
            durations.record(PathId(2), 20);
        }
        let clients = ClientCountHistory::new();
        let ranked = prioritize(
            vec![issue(0, 1, 1, 1000), issue(0, 2, 1, 1000)],
            &durations,
            &clients,
        );
        // Same clients; path 2 expected to last far longer → first.
        assert_eq!(ranked[0].issue.path, PathId(2));
        assert!(ranked[0].client_time_product > ranked[1].client_time_product);
    }

    #[test]
    fn many_clients_beat_few() {
        let durations = DurationHistory::new();
        let clients = ClientCountHistory::new();
        let ranked = prioritize(
            vec![issue(0, 1, 1, 10), issue(0, 2, 1, 4_000_000)],
            &durations,
            &clients,
        );
        assert_eq!(ranked[0].issue.path, PathId(2));
    }

    #[test]
    fn history_overrides_current_count() {
        let durations = DurationHistory::new();
        let mut clients = ClientCountHistory::new();
        // Path 1 historically carries huge volume at this slot.
        for day in 7..10 {
            let b = TimeBucket(day * blameit_simnet::BUCKETS_PER_DAY + 10);
            clients.record(PathId(1), b, 1_000_000);
        }
        let mut i1 = issue(0, 1, 1, 5);
        i1.bucket = TimeBucket(10 * blameit_simnet::BUCKETS_PER_DAY + 10);
        let mut i2 = issue(0, 2, 1, 500);
        i2.bucket = i1.bucket;
        let ranked = prioritize(vec![i2, i1], &durations, &clients);
        assert_eq!(ranked[0].issue.path, PathId(1));
        assert!((ranked[0].predicted_clients - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn paper_fig5_ordering() {
        // Fig. 5: tuple #1 has 3 problematic prefixes but impact 350;
        // tuple #2 has 1 prefix but impact 2000. Client-time ranking
        // must put #2 first even though prefix-count ranking says #1.
        let mut durations = DurationHistory::new();
        for _ in 0..20 {
            durations.record(PathId(1), 4); // ~20 min issues
            durations.record(PathId(2), 6); // ~30 min issues
        }
        let clients = ClientCountHistory::new();
        let mut i1 = issue(0, 1, 1, 30); // 3 prefixes × 10 users
        i1.affected_p24s = vec![
            Prefix24::from_block(1),
            Prefix24::from_block(2),
            Prefix24::from_block(3),
        ];
        let i2 = issue(0, 2, 1, 200); // 1 prefix × 100 users, ongoing
        let ranked = prioritize(vec![i1, i2], &durations, &clients);
        assert_eq!(ranked[0].issue.path, PathId(2));
        assert_eq!(ranked[1].issue.affected_p24s.len(), 3);
    }

    #[test]
    fn budget_caps_per_location() {
        let durations = DurationHistory::new();
        let clients = ClientCountHistory::new();
        let issues = vec![
            issue(0, 1, 1, 400),
            issue(0, 2, 1, 300),
            issue(0, 3, 1, 200),
            issue(1, 4, 1, 100),
        ];
        let ranked = prioritize(issues, &durations, &clients);
        let picked = select_within_budgets(&ranked, 2, usize::MAX);
        assert_eq!(picked.len(), 3);
        let loc0 = picked
            .iter()
            .filter(|p| p.issue.loc == CloudLocId(0))
            .count();
        assert_eq!(loc0, 2, "location budget respected");
        // Highest-impact issues survive the cut.
        assert_eq!(picked[0].issue.path, PathId(1));
        assert_eq!(picked[1].issue.path, PathId(2));
    }

    #[test]
    fn global_cap_trims_after_rank() {
        let durations = DurationHistory::new();
        let clients = ClientCountHistory::new();
        let issues = vec![
            issue(0, 1, 1, 400),
            issue(1, 2, 1, 300),
            issue(2, 3, 1, 200),
            issue(3, 4, 1, 100),
        ];
        let ranked = prioritize(issues, &durations, &clients);
        let picked = select_within_budgets(&ranked, 5, 2);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].issue.path, PathId(1));
        assert_eq!(picked[1].issue.path, PathId(2));
        // usize::MAX cap reduces to the per-location rule.
        assert_eq!(select_within_budgets(&ranked, 5, usize::MAX).len(), 4);
    }

    #[test]
    fn evidence_captures_score_and_budget_position() {
        let durations = DurationHistory::new();
        let clients = ClientCountHistory::new();
        let ranked = prioritize(vec![issue(0, 1, 1, 400)], &durations, &clients);
        let ev = ranked[0].evidence(0, 1, 3);
        assert_eq!((ev.budget_rank, ev.selected, ev.candidates), (0, 1, 3));
        assert!((ev.client_time_product - ranked[0].client_time_product).abs() < 1e-12);
        assert!((ev.predicted_clients - 400.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_tie_break() {
        let durations = DurationHistory::new();
        let clients = ClientCountHistory::new();
        let ranked = prioritize(
            vec![issue(0, 2, 1, 100), issue(0, 1, 1, 100)],
            &durations,
            &clients,
        );
        assert_eq!(ranked[0].issue.path, PathId(1), "ties break by id");
    }
}
