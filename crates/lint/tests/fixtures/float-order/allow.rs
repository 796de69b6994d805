// Fixture: a justified partial_cmp comparator may be annotated, and so
// may a float key when ties are provably absent.
pub fn rank(estimates: &mut Vec<f64>) {
    // lint:allow(float-order): inputs are validated finite at the API boundary; kept to mirror the paper's pseudocode
    estimates.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn rank_weights(weights: &mut Vec<(u32, f64)>) {
    // lint:allow(float-order): weights are distinct powers of two by construction; no ties to break
    weights.sort_by_key(|w| (w.1 * 4.0) as u64);
}
