// Fixture: total_cmp / to_bits give a total order (NaN included) —
// stable rankings across runs; integer keys never had the problem.
// All of these stay quiet.

pub struct Probe {
    pub rtt_us: u64,
    pub score: f64,
}

pub fn rank(estimates: &mut Vec<f64>) {
    estimates.sort_by(|a, b| a.total_cmp(b));
}

pub fn worst_first(probes: &mut Vec<Probe>) {
    probes.sort_by(|a, b| a.score.total_cmp(&b.score));
}

pub fn by_bits(probes: &mut Vec<Probe>) {
    probes.sort_by_key(|p| p.score.to_bits());
}

pub fn by_integer(probes: &mut Vec<Probe>) {
    probes.sort_by_key(|p| p.rtt_us);
}
