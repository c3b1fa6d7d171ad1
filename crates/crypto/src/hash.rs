//! Keyed hashes and MACs: NH, the universal hash of UMAC and VMAC, then
//! one Speck128 encryption as the PRF (hash-then-PRF).
//!
//! One kernel serves every digest and MAC of the reproduction:
//!
//! * **64-bit child digests** for the general 8-ary Bonsai tree (eight 8-byte
//!   hashes per 64-byte parent node, paper §2.3.1);
//! * **56-bit MACs** for SGX-style nodes (one 56-bit MAC co-located with
//!   eight 56-bit counters per 64-byte line, paper §4.3);
//! * the **data MAC** of every sealed line, with the line's tweak in the
//!   PRF input ([`DataCodec`](crate::DataCodec)).
//!
//! These are simulation-grade primitives standing in for the SHA/Carter-
//! Wegman hardware of a real memory encryption engine.

use crate::speck::Speck128;
use crate::Key;

/// Mask selecting the low 56 bits (SGX counter/MAC width).
pub const MASK56: u64 = (1 << 56) - 1;

/// NH key words, i.e. the 64-bit words one NH block covers (128 bytes):
/// every tree node, SGX node and data line is one block.
const NH_WORDS: usize = 16;

/// A keyed hash function producing 64-bit digests.
///
/// Construction: NH over the input's little-endian 64-bit words,
/// `Σ (m₂ᵢ + k₂ᵢ)·(m₂ᵢ₊₁ + k₂ᵢ₊₁) mod 2¹²⁸` (an odd trailing word is
/// paired with zero), then one Speck encryption of that sum with the
/// byte length mixed in, folded to 64 bits. An input longer than one NH
/// block chains each full block's sum through the same encryption.
///
/// # Example
///
/// ```
/// use anubis_crypto::{Key, hash::Hasher64};
/// let h = Hasher64::new(Key([1, 2]).derive("tree-hash"));
/// let a = h.hash(b"node contents");
/// let b = h.hash(b"node content!");
/// assert_ne!(a, b);
/// ```
#[derive(Clone)]
pub struct Hasher64 {
    /// Precomputed schedule of the PRF that finalizes every digest and
    /// chains the blocks of a long input.
    key_cipher: Speck128,
    /// NH key, drawn once from the hasher's key.
    nh_key: [u64; NH_WORDS],
}

impl Hasher64 {
    /// Creates a hasher bound to `key`.
    pub fn new(key: Key) -> Self {
        // The NH key is Speck in counter mode under a sub-key, so no
        // input of the finalization PRF can reveal a key word.
        let draw = Speck128::new(key.derive("nh-key"));
        let mut nh_key = [0u64; NH_WORDS];
        for (i, pair) in nh_key.chunks_exact_mut(2).enumerate() {
            (pair[0], pair[1]) = draw.encrypt((i as u64, 0));
        }
        Hasher64 {
            key_cipher: Speck128::new(key),
            nh_key,
        }
    }

    /// Hashes arbitrary bytes to a 64-bit digest.
    pub fn hash(&self, data: &[u8]) -> u64 {
        let sum = self.nh_blocks(data.chunks(NH_WORDS * 8).map(LeWords::load));
        self.prf(sum, data.len() as u64, 0)
    }

    /// Hashes a sequence of 64-bit words (the common case for counter and
    /// MAC material, which is always word-shaped). Bit-identical to
    /// serializing the words little-endian and calling
    /// [`hash`](Self::hash).
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        self.prf(self.nh(words), (words.len() * 8) as u64, 0)
    }

    /// The finalization: one encryption of an [`nh`](Self::nh) sum with
    /// `byte_len` and `tweak` mixed in, folded to 64 bits.
    #[inline]
    pub(crate) fn prf(&self, (lo, hi): (u64, u64), byte_len: u64, tweak: u64) -> u64 {
        let f = self.key_cipher.encrypt((lo ^ byte_len, hi ^ tweak));
        f.0 ^ f.1
    }

    /// The hash: NH over `words` in blocks of [`NH_WORDS`], returned
    /// unfinalized. A keyed universal hash, not a PRF: only
    /// [`prf`](Self::prf)'s output may leave the chip.
    #[inline]
    pub(crate) fn nh(&self, words: &[u64]) -> (u64, u64) {
        self.nh_blocks(words.chunks(NH_WORDS))
    }

    /// NH of each block (an odd trailing word pairs with zero); every
    /// block's sum but the last is chained through the PRF, and the last
    /// is XORed into the chaining value.
    fn nh_blocks<B: AsRef<[u64]>>(&self, blocks: impl Iterator<Item = B>) -> (u64, u64) {
        let mut chain = (0, 0);
        let mut sum = 0u128;
        for (i, block) in blocks.enumerate() {
            if i > 0 {
                chain = self.key_cipher.encrypt(fold(chain, sum));
            }
            sum = block
                .as_ref()
                .chunks(2)
                .zip(self.nh_key.chunks_exact(2))
                .fold(0, |sum, (m, k)| {
                    let hi = m.get(1).copied().unwrap_or(0);
                    let product =
                        u128::from(m[0].wrapping_add(k[0])) * u128::from(hi.wrapping_add(k[1]));
                    sum.wrapping_add(product)
                });
        }
        fold(chain, sum)
    }
}

impl core::fmt::Debug for Hasher64 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The NH key words are key material: never print them.
        write!(f, "Hasher64(<key>)")
    }
}

/// One NH block of a byte input as little-endian words, on the stack.
struct LeWords {
    words: [u64; NH_WORDS],
    len: usize,
}

impl LeWords {
    /// Loads up to `8 * NH_WORDS` bytes. A short final chunk zero-pads
    /// its word; the length in the finalization tells the padding from
    /// real zeros.
    fn load(bytes: &[u8]) -> Self {
        let mut words = [0u64; NH_WORDS];
        let chunks = bytes.chunks_exact(8);
        let tail = chunks.remainder();
        for (w, c) in words.iter_mut().zip(chunks) {
            *w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        }
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            words[bytes.len() / 8] = u64::from_le_bytes(w);
        }
        LeWords {
            words,
            len: bytes.len().div_ceil(8),
        }
    }
}

impl AsRef<[u64]> for LeWords {
    fn as_ref(&self) -> &[u64] {
        &self.words[..self.len]
    }
}

/// XORs a 128-bit NH sum into a `(low, high)` chaining value.
#[inline]
fn fold(chain: (u64, u64), sum: u128) -> (u64, u64) {
    (chain.0 ^ sum as u64, chain.1 ^ (sum >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hasher() -> Hasher64 {
        Hasher64::new(Key([0xAA, 0xBB]))
    }

    #[test]
    fn deterministic() {
        assert_eq!(hasher().hash(b"abc"), hasher().hash(b"abc"));
    }

    #[test]
    fn key_dependent() {
        let a = Hasher64::new(Key([1, 1])).hash(b"abc");
        let b = Hasher64::new(Key([1, 2])).hash(b"abc");
        assert_ne!(a, b);
    }

    #[test]
    fn length_extension_padding() {
        // Same prefix, different lengths of zero padding must differ.
        let h = hasher();
        assert_ne!(h.hash(&[0u8; 15]), h.hash(&[0u8; 16]));
        assert_ne!(h.hash(&[0u8; 16]), h.hash(&[0u8; 17]));
        assert_ne!(h.hash(b""), h.hash(&[0u8]));
    }

    #[test]
    fn debug_hides_the_key() {
        assert_eq!(format!("{:?}", hasher()), "Hasher64(<key>)");
    }

    #[test]
    fn known_answers() {
        // Pinned outputs under fixed keys: one NH block (empty, short,
        // a 64-byte node, an SGX node's nine words) and three chained
        // blocks (40 words).
        let h = Hasher64::new(Key([0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908]));
        let node: Vec<u8> = (0..64).collect();
        let words: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let got = [
            h.hash(b""),
            h.hash(b"abc"),
            h.hash(&node),
            h.hash_words(&words[..9]),
            h.hash_words(&words),
            Hasher64::new(Key([1, 2]).derive("tree-hash")).hash(&node),
        ];
        assert_eq!(
            got,
            [
                0x366d_8b48_a344_2ff8,
                0xe344_5ed7_a3c3_38df,
                0xb830_fb33_2d0b_af7f,
                0x899a_2bc4_f83a_22e9,
                0x19f1_ae8f_cc5d_335b,
                0x21f1_ae8a_f702_8363,
            ],
            "{got:#018x?}"
        );
    }

    #[test]
    fn hash_words_matches_bytes() {
        // The word path must stay bit-identical to serializing
        // little-endian and hashing bytes, for every padding shape:
        // empty, odd trailing word, full pairs, and inputs that end
        // inside, at and past a chained NH block.
        let h = hasher();
        let words: Vec<u64> = (0..40).map(|i| i * 0x0101_0101_0101_0101).collect();
        for n in 0..=words.len() {
            let mut bytes = Vec::new();
            for w in &words[..n] {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            assert_eq!(h.hash_words(&words[..n]), h.hash(&bytes), "n = {n}");
        }
    }

    #[test]
    fn every_nh_block_of_a_long_input_counts() {
        // A flip in any word of a three-block input moves the digest: the
        // chained blocks are not dropped, nor the trailing one.
        let h = hasher();
        let words: Vec<u64> = (0..40).collect();
        let base = h.hash_words(&words);
        for i in 0..words.len() {
            let mut flipped = words.clone();
            flipped[i] ^= 1 << 63;
            assert_ne!(h.hash_words(&flipped), base, "word {i}");
        }
    }

    #[test]
    fn no_trivial_collisions_in_small_space() {
        let h = hasher();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            assert!(seen.insert(h.hash(&i.to_le_bytes())), "collision at {i}");
        }
    }
}
