// Fixture: narrowing `as` casts on the wire codec path must fire.

pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let len = payload.len() as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
}

pub fn encode_verdict_code(code: i64, out: &mut Vec<u8>) {
    out.push(code as u8);
}

// ... and so must a config integer read from a file or a flag: 2^32
// becomes 0.
pub fn tick_width(parsed: u64) -> u32 {
    parsed as u32
}
