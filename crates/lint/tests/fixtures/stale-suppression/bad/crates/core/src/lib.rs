// Fixture tree: a lint:allow that suppresses nothing is dead weight —
// the auditor must flag it.

pub fn tick_count(ticks: &[u64]) -> u64 {
    // lint:allow(wall-clock): metrics-only timing for an operator report
    ticks.iter().sum()
}
