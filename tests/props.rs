//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary inputs, spanning the public APIs of the workspace crates.
//! Driven by the in-repo seeded harness in `blameit_topology::testkit`.

use blameit::{
    aggregate_batch_reuse, diff_contributions, ks_two_sample, prioritize, select_within_budgets,
    ClientCountHistory, DurationHistory, IngestArena, MiddleIssue, MiddleKey, QuartetStore,
    RecordBatch,
};
use blameit_simnet::{RttRecord, SimTime, TimeBucket};
use blameit_topology::rng::DetRng;
use blameit_topology::testkit::check;
use blameit_topology::{Asn, CloudLocId, IpPrefix, PathId, Prefix24};

fn arb_record(rng: &mut DetRng) -> RttRecord {
    RttRecord {
        loc: CloudLocId(rng.below(8) as u16),
        p24: Prefix24::from_block(rng.below(64) as u32),
        mobile: rng.chance(0.5),
        at: SimTime(rng.below(300)),
        rtt_ms: rng.range_f64(1.0, 500.0),
    }
}

/// Aggregation conserves samples and respects RTT bounds.
#[test]
fn aggregation_conserves_mass() {
    check("aggregation_conserves_mass", 64, |rng| {
        let n = rng.below(300) as usize;
        let records: Vec<RttRecord> = (0..n).map(|_| arb_record(rng)).collect();
        let mut store = QuartetStore::new();
        let batch = RecordBatch::from_records(TimeBucket(0), &records);
        aggregate_batch_reuse(&batch, &mut IngestArena::new(), &mut store);
        let quartets = store.to_obs();
        let total: u64 = quartets.iter().map(|q| q.n as u64).sum();
        assert_eq!(total, records.len() as u64);
        let lo = records
            .iter()
            .map(|r| r.rtt_ms)
            .fold(f64::INFINITY, f64::min);
        let hi = records
            .iter()
            .map(|r| r.rtt_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        for q in &quartets {
            assert!(q.n >= 1);
            assert!(q.mean_rtt_ms >= lo - 1e-9 && q.mean_rtt_ms <= hi + 1e-9);
        }
        // Keys are unique.
        let mut keys: Vec<_> = quartets
            .iter()
            .map(|q| (q.loc, q.p24, q.mobile, q.bucket))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), quartets.len());
    });
}

/// The traceroute diff is antisymmetric in its inputs and never names a
/// culprit below the floor.
#[test]
fn diff_antisymmetry() {
    check("diff_antisymmetry", 128, |rng| {
        let n = rng.range_u64(1, 11) as usize;
        let a: Vec<(Asn, f64)> = (0..n)
            .map(|_| {
                (
                    Asn(rng.range_u64(100, 139) as u32),
                    rng.range_f64(0.0, 100.0),
                )
            })
            .collect();
        let d = diff_contributions(&a, &a);
        assert!(d.culprit.is_none(), "identical traceroutes have no culprit");
        for row in &d.rows {
            assert!(row.delta_ms().abs() < 1e-9);
        }
    });
}

/// Raising one AS's contribution by more than the floor names it.
#[test]
fn diff_names_the_raised_as() {
    check("diff_names_the_raised_as", 128, |rng| {
        let n = rng.range_u64(1, 9) as usize;
        let contributions: Vec<(u32, f64)> = (0..n)
            .map(|_| (rng.range_u64(100, 199) as u32, rng.range_f64(0.0, 50.0)))
            .collect();
        let bump = rng.range_f64(10.0, 200.0);
        // Dedup ASNs to keep one contribution each.
        let mut base: Vec<(Asn, f64)> = Vec::new();
        for (x, ms) in &contributions {
            if !base.iter().any(|(a, _)| *a == Asn(*x)) {
                base.push((Asn(*x), *ms));
            }
        }
        let idx = rng.index(base.len());
        let mut cur = base.clone();
        cur[idx].1 += bump;
        let d = diff_contributions(&base, &cur);
        assert_eq!(d.culprit, Some(base[idx].0));
    });
}

/// KS of a sample against itself never rejects; the statistic is in
/// [0, 1]; and the test is symmetric.
#[test]
fn ks_properties() {
    check("ks_properties", 64, |rng| {
        let nx = rng.range_u64(1, 199) as usize;
        let ny = rng.range_u64(1, 199) as usize;
        let xs: Vec<f64> = (0..nx).map(|_| rng.range_f64(0.0, 1000.0)).collect();
        let ys: Vec<f64> = (0..ny).map(|_| rng.range_f64(0.0, 1000.0)).collect();
        let same = ks_two_sample(&xs, &xs).unwrap();
        assert!(same.statistic < 1e-9);
        let r1 = ks_two_sample(&xs, &ys).unwrap();
        let r2 = ks_two_sample(&ys, &xs).unwrap();
        assert!((r1.statistic - r2.statistic).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&r1.statistic));
        assert!((0.0..=1.0).contains(&r1.p_value));
    });
}

fn arb_issue(rng: &mut DetRng) -> MiddleIssue {
    let path = PathId(rng.below(24) as u32);
    MiddleIssue {
        loc: CloudLocId(rng.below(6) as u16),
        path,
        middle_key: MiddleKey::Path(path),
        bucket: TimeBucket(rng.below(4000) as u32),
        elapsed_buckets: rng.below(12) as u32,
        current_clients: rng.below(100_000),
        affected_p24s: vec![Prefix24::from_block(path.0)],
    }
}

fn arb_issues(rng: &mut DetRng) -> (Vec<MiddleIssue>, DurationHistory, ClientCountHistory) {
    let n = rng.range_u64(1, 40) as usize;
    let mut issues = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let i = arb_issue(rng);
        // One issue per (loc, path), as the pipeline emits.
        if seen.insert((i.loc, i.path)) {
            issues.push(i);
        }
    }
    let mut durations = DurationHistory::new();
    for _ in 0..rng.below(60) {
        durations.record(PathId(rng.below(24) as u32), rng.below(30) as u32 + 1);
    }
    let mut clients = ClientCountHistory::new();
    for _ in 0..rng.below(60) {
        clients.record(
            PathId(rng.below(24) as u32),
            TimeBucket(rng.below(4000) as u32),
            rng.below(1_000_000),
        );
    }
    (issues, durations, clients)
}

/// The per-location budget is never exceeded, and the selection is the
/// per-location prefix of the ranking: scanning `ranked` and keeping
/// the first `per_loc` issues of each location reproduces it exactly.
#[test]
fn budget_selection_is_ranked_prefix() {
    check("budget_selection_is_ranked_prefix", 128, |rng| {
        let (issues, durations, clients) = arb_issues(rng);
        let total = issues.len();
        let ranked = prioritize(issues, &durations, &clients);
        let per_loc = rng.below(5) as usize;
        let picked = select_within_budgets(&ranked, per_loc, usize::MAX);
        let mut used: std::collections::HashMap<CloudLocId, usize> =
            std::collections::HashMap::new();
        for p in &picked {
            *used.entry(p.issue.loc).or_default() += 1;
        }
        assert!(
            used.values().all(|u| *u <= per_loc),
            "budget {per_loc} exceeded: {used:?}"
        );
        // Order-preserving subsequence of the ranking…
        let mut cursor = 0;
        for p in &picked {
            let pos = ranked[cursor..]
                .iter()
                .position(|r| std::ptr::eq(*p, r))
                .expect("picked issues appear in rank order");
            cursor += pos + 1;
        }
        // …and exactly the greedy per-location prefix.
        let mut greedy_used: std::collections::HashMap<CloudLocId, usize> =
            std::collections::HashMap::new();
        let greedy: Vec<_> = ranked
            .iter()
            .filter(|r| {
                let u = greedy_used.entry(r.issue.loc).or_default();
                *u += 1;
                *u <= per_loc
            })
            .collect();
        assert_eq!(greedy.len(), picked.len());
        for (g, p) in greedy.iter().zip(&picked) {
            assert!(std::ptr::eq(*g, *p));
        }
        // A budget covering everything selects everything, in order.
        let all = select_within_budgets(&ranked, total.max(1), usize::MAX);
        assert_eq!(all.len(), ranked.len());
    });
}

/// Ranking is a deterministic function of the issue *set*: shuffling
/// the input changes nothing, equal client-time products break ties by
/// (location, path), and products are sorted descending.
#[test]
fn prioritize_is_order_insensitive_with_total_tie_break() {
    check("prioritize_order_insensitive", 128, |rng| {
        let (mut issues, durations, clients) = arb_issues(rng);
        // Force some exact product ties: clone volumes across paths.
        if issues.len() >= 2 {
            let c = issues[0].current_clients;
            let e = issues[0].elapsed_buckets;
            let half = issues.len() / 2;
            for i in issues.iter_mut().take(half) {
                i.current_clients = c;
                i.elapsed_buckets = e;
            }
        }
        let key = |r: &blameit::PrioritizedIssue| (r.issue.loc, r.issue.path);
        let a = prioritize(issues.clone(), &durations, &clients);
        rng.shuffle(&mut issues);
        let b = prioritize(issues, &durations, &clients);
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>(),
            "shuffled input must rank identically"
        );
        for w in a.windows(2) {
            assert!(
                w[0].client_time_product >= w[1].client_time_product,
                "descending products"
            );
            if w[0].client_time_product == w[1].client_time_product {
                assert!(key(&w[0]) < key(&w[1]), "ties break by (loc, path)");
            }
        }
    });
}

/// Prefix containment is consistent between the /24 and variable-length
/// views.
#[test]
fn prefix_containment_consistent() {
    check("prefix_containment_consistent", 256, |rng| {
        let base = rng.next_u64() as u32;
        let len = rng.range_u64(8, 24) as u8;
        let host = rng.next_u64() as u8;
        let p = IpPrefix::new(base, len);
        for p24 in p.iter_24s().take(4) {
            assert!(p.covers_24(p24));
            assert!(p.contains(p24.addr(host)));
            assert!(p.covers(p24.as_prefix()));
        }
        assert_eq!(p.num_24s(), 1u32 << (24 - len));
    });
}
