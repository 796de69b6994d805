// Fixture tree: same call chain as bad/, but the probe crate's clock
// read is a sanctioned boundary (annotated at the site) — a justified
// direct effect seeds no taint, so the core chain stays clean.

pub fn tick_all(shards: usize) -> u64 {
    let mut acc = 0;
    for _ in 0..shards {
        acc += scheduler_advance();
    }
    acc
}
