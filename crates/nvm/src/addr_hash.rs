//! The hasher behind the crate's block-address maps.
//!
//! Every device write hashes a `u64` block address into two maps or more
//! (the backend's blocks, the wear counts, a file backend's pending
//! frame), and a file image's open hashes every record it replays.
//! std's default, SipHash, is built for byte strings an adversary
//! chooses; a block address is one word, for which one keyed
//! multiply-fold is enough. The key is drawn once per process from
//! [`RandomState`], so neither the addresses a tenant writes nor the
//! records a forged image carries can be chosen to pile into one bucket.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A map keyed by block address.
pub(crate) type AddrMap<V> = HashMap<u64, V, AddrHash>;

/// Odd, with its bits spread over the whole word: ⌊2⁶⁴ / φ⌋.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the multiply-fold: `word` mixed into the state `hash` as
/// the full 128-bit product of `hash ^ word` and [`MUL`], its high half
/// folded onto its low half. Also the step of the WAL's frame tag.
#[inline]
pub(crate) fn fold(hash: u64, word: u64) -> u64 {
    let product = u128::from(hash ^ word) * u128::from(MUL);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Builds [`AddrHasher`]s under the process's key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AddrHash {
    key: u64,
}

impl AddrHash {
    /// A builder under `key` instead of the process's.
    #[cfg(test)]
    pub(crate) fn with_key(key: u64) -> Self {
        AddrHash { key }
    }
}

impl Default for AddrHash {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        let key = *KEY.get_or_init(|| RandomState::new().hash_one(MUL));
        AddrHash { key }
    }
}

impl BuildHasher for AddrHash {
    type Hasher = AddrHasher;

    fn build_hasher(&self) -> AddrHasher {
        AddrHasher { hash: self.key }
    }
}

/// One [`fold`] per word from the key: the full 128-bit product because
/// hashbrown picks the bucket from the low bits, and the low half of a
/// product depends only on the low bits of its factors — addresses that
/// differ only above them (one per page, one per node) would otherwise
/// share a bucket.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AddrHasher {
    hash: u64,
}

impl Hasher for AddrHasher {
    fn write_u64(&mut self, word: u64) {
        self.hash = fold(self.hash, word);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_strided_addresses_spread_over_the_low_bits_for_any_key() {
        // 4096 addresses 2^16 apart share their low 16 bits; a bucket
        // index taken from the low 12 bits of an unfolded product would
        // be one value for all of them. Random hashing fills ≈ 63 % of
        // the 4096 buckets (1 − 1/e) with at most ≈ 8 in one.
        let mut keys = vec![0, 1, u64::MAX, MUL, AddrHash::default().key];
        let mut rng = crate::SplitMix64::new(0x0AD0_4A54_0000_0021);
        keys.extend((0..8).map(|_| rng.next_u64()));
        for key in keys {
            let build = AddrHash::with_key(key);
            let mut load = [0u32; 4096];
            for k in 0..4096u64 {
                load[(build.hash_one(k << 16) & 0xFFF) as usize] += 1;
            }
            let used = load.iter().filter(|&&n| n > 0).count();
            let deepest = load.iter().copied().max().unwrap_or(0);
            assert!(
                used >= 2048 && deepest <= 16,
                "key {key:#x}: {used} of 4096 buckets used, {deepest} in the fullest"
            );
        }
    }

    #[test]
    fn one_key_per_process_and_distinct_words_hash_apart() {
        let (a, b) = (AddrHash::default(), AddrHash::default());
        assert_eq!(a.key, b.key);
        assert_eq!(a.hash_one(7u64), b.hash_one(7u64));
        assert_ne!(a.hash_one(7u64), a.hash_one(8u64));
        // Byte input folds word by word, zero-padded.
        let mut h = a.build_hasher();
        h.write(&7u64.to_le_bytes());
        assert_eq!(h.finish(), a.hash_one(7u64));
    }
}
