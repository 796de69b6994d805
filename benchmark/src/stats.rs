//! Order statistics and the FNV-64 digest the ledger uses.

/// Nearest-rank percentile of an unsorted sample: the smallest value
/// with at least a share `q` of the sample at or below it — always a
/// sample, never a blend of two. That matters for the bimodal tick
/// times (one tick in four snapshots): with the 7 verdicts of a `wire`
/// rep, an interpolated p90 would sit *between* a plain and a snapshot
/// tick; this one is the snapshot tick. 0.0 for an empty sample (a
/// layer that did no work on this workload reports 0).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, last + 1) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when
/// the count is even); 0.0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    blameit::stats::median(samples).unwrap_or(0.0)
}

/// `(q1, median, q3)` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// driver computes spreads with. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// FNV-1a 64 over a byte string, continuing from `state`.
pub fn fnv64_update(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0100_0000_01b3);
    }
    state
}

/// The FNV-1a 64 offset basis (the digest of the empty string).
pub const FNV64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Chains per-tick transcript digests (`blameit::tick_digest`, itself
/// FNV-64 of `render_tick_transcript`) into one verdict digest.
pub fn chain_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV64_INIT, |h, d| fnv64_update(h, &d.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_samples_and_medians_are_medians() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.9), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Six plain ticks and one snapshot tick: p90 is the snapshot.
        assert_eq!(
            percentile(&[4.0, 5.0, 4.0, 150.0, 5.0, 4.0, 5.0], 0.9),
            150.0
        );
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 5.5, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_chain_is_order_sensitive() {
        assert_ne!(chain_digests([1, 2]), chain_digests([2, 1]));
        assert_eq!(chain_digests([]), FNV64_INIT);
    }
}
