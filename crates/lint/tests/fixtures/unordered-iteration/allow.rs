// Fixture: order-insensitive folds may be annotated.
use std::collections::HashMap;

pub fn total_clients(per_path: &HashMap<u32, u64>) -> u64 {
    let counts: HashMap<u32, u64> = per_path.clone();
    let mut total = 0;
    // lint:allow(unordered-iteration): folds into an order-insensitive sum for a gauge; no per-entry output escapes
    for (_path, n) in counts {
        total += n;
    }
    total
}

pub fn queued_bytes(queues: &HashMap<u32, Vec<u8>>) -> usize {
    let sizes: HashMap<u32, Vec<u8>> = queues.clone();
    let mut total = 0;
    // lint:allow(unordered-iteration): order-insensitive sum for a backpressure gauge; no per-entry output escapes
    for (_path, q) in sizes {
        total += q.len();
    }
    total
}
