//! The workspace's one custom hasher, for maps keyed by small fixed-width
//! values: page numbers, code locations, block ids, offsets.
//!
//! [`FastHasher`] consumes one 64-bit word per step, as
//! `h = (h.rotl(5) ^ word) * K`, and mixes its high half into the low half at
//! the end, so both the bucket index (low bits) and the control tag (high
//! bits) see every key bit. [`FastState`] seeds each map once, from [`RandomState`]: iteration
//! order stays random per map, exactly as with the standard hasher, so a
//! result that leaks map order still differs between runs and the
//! byte-identity tests still catch it. See DESIGN.md, "Hashing".

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Odd multiplier with well-spread bits (2^64 / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A [`HashMap`] using [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A [`HashSet`] using [`FastState`].
pub type FastSet<T> = HashSet<T, FastState>;

/// Word-at-a-time multiply-rotate hasher; build it through [`FastState`].
#[derive(Clone, Copy, Debug)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // The top byte of a tail word is free: it carries the tail's
            // length, so "a" and "a\0" differ.
            word[7] = tail.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(K);
        h ^ (h >> 32)
    }
}

/// Builds [`FastHasher`]s from a seed drawn once per map (per
/// `FastState::default()`) from the standard library's [`RandomState`].
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    seed: u64,
}

impl FastState {
    fn with_seed(seed: u64) -> FastState {
        FastState { seed }
    }
}

impl Default for FastState {
    fn default() -> FastState {
        FastState::with_seed(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(seed: u64, keys: &[u64]) -> Vec<u64> {
        let mut set = HashSet::with_hasher(FastState::with_seed(seed));
        set.extend(keys.iter().copied());
        set.into_iter().collect()
    }

    #[test]
    fn iteration_order_depends_on_the_seed_and_repeats_for_one_seed() {
        let keys: Vec<u64> = (0..1000).collect();
        let a = order(1, &keys);
        assert_eq!(a, order(1, &keys), "one seed must give one order");
        assert_ne!(a, order(2, &keys), "two seeds must give two orders");
    }

    #[test]
    fn default_states_draw_distinct_seeds() {
        let (a, b) = (FastState::default(), FastState::default());
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
    }

    #[test]
    fn byte_tails_of_different_lengths_hash_apart() {
        let s = FastState::with_seed(0);
        let raw = |bytes: &[u8]| {
            let mut h = s.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(raw(b"a"), raw(b"a\0"));
        assert_ne!(raw(b"abcdefgh"), raw(b"abcdefgh\0"));
        assert_ne!(s.hash_one("ab"), s.hash_one("ba"));
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_low_bits() {
        // Page numbers or offsets that differ only above bit 40 must still
        // land in different buckets of a small table.
        let s = FastState::with_seed(3);
        let buckets: HashSet<u64> = (0..64u64).map(|i| s.hash_one(i << 40) & 63).collect();
        assert!(buckets.len() > 32, "{} of 64 buckets", buckets.len());
    }
}
