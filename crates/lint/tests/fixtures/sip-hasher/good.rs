// Fixture: the deterministic Fx-hashed aliases, constructed through
// `::default()` and the sanctioned capacity helpers, imported the way
// the engine does (`crate::fxhash`, core's re-export) and the way the
// simulator does (from the bottom crate). No bare std names anywhere,
// so the rule stays quiet.
use crate::fxhash::{det_map_with_capacity, DetHashMap};
use blameit_topology::fxhash::DetHashSet;

pub fn build_index(keys: &[u32]) -> usize {
    let mut seen: DetHashSet<u32> = DetHashSet::default();
    for k in keys {
        seen.insert(*k);
    }
    let counts: DetHashMap<u32, u64> = det_map_with_capacity(keys.len());
    seen.len() + counts.len()
}
