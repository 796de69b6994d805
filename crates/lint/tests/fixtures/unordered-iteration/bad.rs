// Fixture: hash-order iteration feeding an emitted transcript.
use std::collections::HashMap;

pub fn emit(transcript: &mut Vec<String>) {
    let counts: HashMap<u32, u64> = HashMap::new();
    for (path, n) in counts {
        transcript.push(format!("{path} {n}"));
    }
}

// Shadowed rebinding: `rows` starts ordered, but the later `let`
// rebinds it to a hash container — iterating it afterwards is
// hash-order again and must still trip.
pub fn emit_rebound(transcript: &mut Vec<String>) {
    let rows: Vec<(u32, u64)> = Vec::new();
    for (path, n) in &rows {
        transcript.push(format!("{path} {n}"));
    }
    let rows: HashMap<u32, u64> = HashMap::new();
    for (path, n) in &rows {
        transcript.push(format!("{path} {n}"));
    }
}

// The hazard is not core-only: a daemon-style drain of pending
// verdicts into emitted output is the same finding.
pub fn drain_verdicts(out: &mut Vec<String>) {
    let pending: HashMap<u64, String> = HashMap::new();
    for (id, verdict) in pending {
        out.push(format!("{id} {verdict}"));
    }
}
