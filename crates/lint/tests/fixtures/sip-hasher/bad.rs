// Fixture: bare std hash containers on the engine's hot path or in a
// simulator lookup table (the rule covers both crates' trees). Both
// the `use` line and the constructions must trip — the rule is
// lexical, so the hazard surfaces at the import before any map is
// built.
use std::collections::{HashMap, HashSet};

pub fn build_index(keys: &[u32]) -> usize {
    let mut seen: HashSet<u32> = HashSet::new();
    for k in keys {
        seen.insert(*k);
    }
    let counts: HashMap<u32, u64> = HashMap::with_capacity(keys.len());
    seen.len() + counts.len()
}
