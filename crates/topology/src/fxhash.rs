//! Deterministic hashing for the hot path.
//!
//! In the bottom crate so the simulator's lookup tables and the engine's
//! maps share one hasher (`blameit::fxhash` re-exports this module).
//!
//! `std`'s default `RandomState` seeds SipHash from OS entropy, which
//! is both slow for the small fixed-width keys the engine hashes
//! (quartet keys, location ids, path ids) and a latent determinism
//! hazard: iteration order differs per process, so any map that leaks
//! iteration order into output does so differently on every run. The
//! workspace answer is [`DetHashMap`]/[`DetHashSet`]: `std` containers
//! over [`FxHasher`], the multiply-rotate hash used by rustc — seedless,
//! platform-stable, and several times faster than SipHash on short
//! keys.
//!
//! Determinism caveat: a fixed hasher makes iteration order *stable
//! across runs on one build*, not canonical. The `unordered-iteration`
//! lint still applies — anything leaving a map for a transcript,
//! snapshot, or alert must pass through a sort. What the fixed hasher
//! buys is (a) SipHash off the per-record profile and (b) one fewer
//! source of run-to-run variance while debugging. The companion
//! `sip-hasher` lint rule makes these aliases mandatory in
//! `crates/{topology,simnet,core}`: bare `HashMap`/`HashSet`
//! construction does not pass review without an annotated reason.

// lint:allow(sip-hasher): this module defines the deterministic aliases; the underlying std containers appear only here
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The rustc/Firefox "Fx" multiply-rotate hash, written against
/// `u64` words so results do not depend on pointer width.
///
/// Not cryptographic and not DoS-resistant — fine here, because every
/// key the simulator and the engine hash is derived from simulator
/// state, not from untrusted network input.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 2^64 / φ multiplicative constant.
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the tail length in so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The deterministic build-hasher state (zero-sized; `Default` yields
/// an identical hasher every time, on every platform).
pub type DetState = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the deterministic Fx hasher. Construct with
/// `DetHashMap::default()` (the alias has no `new()`; that constructor
/// is specific to `RandomState`) or [`det_map_with_capacity`].
// lint:allow(sip-hasher): alias definition — every other module builds maps through this
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

/// Drop-in `HashSet` with the deterministic Fx hasher. Construct with
/// `DetHashSet::default()` or [`det_set_with_capacity`].
// lint:allow(sip-hasher): alias definition — every other module builds sets through this
pub type DetHashSet<T> = HashSet<T, DetState>;

/// `DetHashMap` pre-sized for `n` entries (`with_capacity` lives on the
/// `RandomState` impl, so the alias needs this helper).
pub fn det_map_with_capacity<K, V>(n: usize) -> DetHashMap<K, V> {
    DetHashMap::with_capacity_and_hasher(n, DetState::default())
}

/// `DetHashSet` pre-sized for `n` entries.
pub fn det_set_with_capacity<T>(n: usize) -> DetHashSet<T> {
    DetHashSet::with_capacity_and_hasher(n, DetState::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        DetState::default().hash_one(v)
    }

    #[test]
    fn hashes_are_platform_stable_constants() {
        // Pinned values: if these change, every DetHashMap's internal
        // layout changes too. That is allowed (layout is not part of
        // any transcript), but it should never happen by accident.
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), K);
        assert_eq!(hash_of(0x1234_5678u32), 0x1234_5678u64.wrapping_mul(K));
        assert_eq!(hash_of("quartet"), hash_of("quartet"));
    }

    #[test]
    fn identical_across_instances() {
        for v in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(hash_of(v), hash_of(v));
        }
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn byte_stream_tail_disambiguated() {
        let h = |bytes: &[u8]| {
            let mut f = FxHasher::default();
            f.write(bytes);
            f.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
        assert_eq!(h(b"abcdefghij"), h(b"abcdefghij"));
    }

    #[test]
    fn det_containers_behave_like_std() {
        let mut m: DetHashMap<u32, u32> = DetHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&7), Some(&14));
        let mut s: DetHashSet<(u16, bool)> = det_set_with_capacity(4);
        assert!(s.insert((3, true)));
        assert!(!s.insert((3, true)));
        let m2 = det_map_with_capacity::<u32, u32>(64);
        assert!(m2.capacity() >= 64);
    }

    #[test]
    fn iteration_order_stable_within_build() {
        // Two identically-filled maps iterate identically — the
        // property RandomState deliberately breaks.
        let fill = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..500u64 {
                m.insert(i.wrapping_mul(0x9E37_79B9), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }
}
