use std::time::Instant;

pub fn probe_stamp() -> u64 {
    // lint:allow(wall-clock): the probe crate is the sanctioned wall-clock boundary of this tree
    Instant::now().elapsed().as_micros() as u64
}
