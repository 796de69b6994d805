//! Process-crash points for the persistence layer's kill-point harness.
//!
//! The [`chaos`](crate::chaos) module degrades the *measurement plane*;
//! this module names where the *process itself* can die inside the
//! engine's durable-tick protocol (journal append, snapshot write). The
//! persistence layer's fault table (`blameit::persist::fs`) maps each
//! [`CrashPoint`] to the filesystem call a kill interrupts, and the
//! fault filesystem leaves the disk exactly as a real crash would — a
//! torn journal record, a half-written snapshot temp file.
//! `tests/crash_recovery.rs` proves recovery from every point resumes
//! byte-identically.
//!
//! Like [`FaultPlan`](crate::chaos::FaultPlan), the one random choice —
//! how much of a torn write survives — is a pure function of `(seed,
//! kill point, tick index)` via [`DetRng::from_keys`], never of call
//! order or thread identity, so a crash is reproducible at any thread
//! count.

use blameit_topology::rng::DetRng;

// Domain-separation tag, continuing the chaos module's series.
const TAG_TEAR: u64 = 0xC4A0_0006;

/// A named point in the durable-tick protocol where the process can be
/// killed. Ordered as the protocol reaches them within one tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Mid-append of the tick's journal record: a torn (prefix-only)
    /// record reaches disk, no fsync completes.
    MidJournal,
    /// Immediately after the journal record is fully written and
    /// fsync'd, before any snapshot consideration.
    PostJournal,
    /// A snapshot is due and about to be written; nothing of it reaches
    /// disk.
    PreSnapshot,
    /// Mid-write of the snapshot temp file: a prefix of the encoded
    /// bytes reaches disk, the atomic rename never happens.
    MidSnapshotWrite,
}

impl CrashPoint {
    /// Every kill point, protocol order.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::MidJournal,
        CrashPoint::PostJournal,
        CrashPoint::PreSnapshot,
        CrashPoint::MidSnapshotWrite,
    ];

    /// Stable label (reports, metrics).
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::MidJournal => "mid-journal",
            CrashPoint::PostJournal => "post-journal",
            CrashPoint::PreSnapshot => "pre-snapshot",
            CrashPoint::MidSnapshotWrite => "mid-snapshot-write",
        }
    }

    /// Stable id used as a key in the tear's RNG stream.
    fn id(self) -> u64 {
        match self {
            CrashPoint::MidJournal => 0,
            CrashPoint::PostJournal => 1,
            CrashPoint::PreSnapshot => 2,
            CrashPoint::MidSnapshotWrite => 3,
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How much of the in-flight write survives a kill at `point` during
/// tick `tick`, as a fraction in `[0.05, 0.95)` — keyed on the tick so
/// different crashes tear at different offsets.
pub fn tear_fraction(seed: u64, point: CrashPoint, tick: u64) -> f64 {
    let mut rng = DetRng::from_keys(seed, &[TAG_TEAR, point.id(), tick]);
    rng.range_f64(0.05, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tear_fraction_is_deterministic_and_in_range() {
        for t in 0..100 {
            for p in [CrashPoint::MidJournal, CrashPoint::MidSnapshotWrite] {
                let f = tear_fraction(5, p, t);
                assert!((0.05..0.95).contains(&f), "{f}");
                assert_eq!(f.to_bits(), tear_fraction(5, p, t).to_bits());
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CrashPoint::MidJournal.to_string(), "mid-journal");
        assert_eq!(CrashPoint::ALL.len(), 4);
    }
}
