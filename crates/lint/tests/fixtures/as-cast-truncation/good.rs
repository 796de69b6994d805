// Fixture: try_from rejects out-of-range values instead of wrapping,
// and widening casts lose nothing — both stay quiet.

pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    let len = u32::try_from(payload.len())
        .map_err(|_| format!("frame too large: {} bytes", payload.len()))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

pub fn tick_width(parsed: u64) -> Result<u32, String> {
    u32::try_from(parsed).map_err(|_| format!("tick width {parsed} does not fit in 32 bits"))
}

pub fn widen_tick(tick: u32) -> u64 {
    tick as u64
}
