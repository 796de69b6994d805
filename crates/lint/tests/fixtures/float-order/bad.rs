// Fixture: a non-total float order inside a sort/min/max comparator
// or key — every shape must fire.

pub struct Probe {
    pub rtt_us: u64,
}

// `partial_cmp` in a comparator: NaN panics or compares Equal.
pub fn rank(estimates: &mut Vec<f64>) {
    estimates.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

// A float-typed key cannot express a total order.
pub fn worst_first(probes: &mut Vec<Probe>) {
    probes.sort_by_key(|p| p.rtt_us as f64 * 1.5);
}

// Both at once: `partial_cmp` over float-literal arithmetic.
pub fn pick_median_weight(weights: &[(u32, f64)]) -> Option<u32> {
    weights
        .iter()
        .max_by(|a, b| (a.1 * 2.0).partial_cmp(&(b.1 * 2.0)).unwrap())
        .map(|w| w.0)
}
