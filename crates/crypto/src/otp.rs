//! Counter-mode one-time-pad encryption of 64-byte blocks (paper §2.2).
//!
//! The IV for each 16-byte pad lane combines the block's physical address
//! (spatial uniqueness), the encryption counter (temporal uniqueness) and
//! the lane index. Encryption and decryption are both a single XOR with the
//! pad, which is what lets a real memory controller overlap pad generation
//! with the data fetch.

use crate::speck::Speck128;
use crate::Key;
use anubis_nvm::{Block, BlockAddr};

/// The counter value used to build an IV.
///
/// For the split-counter scheme this packs the major and minor counters;
/// for SGX-style encryption it is the 56-bit per-line counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IvCounter {
    /// Major (per-page) counter, or 0 when unused.
    pub major: u64,
    /// Minor (per-line) counter, or the whole counter for SGX style.
    pub minor: u64,
}

impl IvCounter {
    /// An IV counter from split major/minor components.
    pub fn split(major: u64, minor: u64) -> Self {
        IvCounter { major, minor }
    }

    /// An IV counter from a single monolithic counter (SGX style).
    pub fn monolithic(counter: u64) -> Self {
        IvCounter {
            major: 0,
            minor: counter,
        }
    }
}

/// Generates the 64-byte one-time pad for `(addr, counter)` under `key`.
///
/// Four Speck encryptions produce four 16-byte lanes. Expands the key
/// schedule on every call; hot paths should expand once and use
/// [`pad_with`].
pub fn pad(key: Key, addr: BlockAddr, counter: IvCounter) -> Block {
    pad_with(&Speck128::new(key), addr, counter)
}

/// [`pad`] with a precomputed key schedule — the fast path for batch
/// sealing/probing, where one 32-round schedule expansion would otherwise
/// be repeated per block.
pub fn pad_with(cipher: &Speck128, addr: BlockAddr, counter: IvCounter) -> Block {
    let mut out = Block::zeroed();
    for lane in 0..4u64 {
        // IV: (address ^ rotated minor, major ^ lane) — unique per
        // (addr, major, minor, lane) tuple.
        let iv = (
            addr.index() ^ counter.minor.rotate_left(20),
            counter.major.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (lane << 56) ^ counter.minor,
        );
        let (a, b) = cipher.encrypt(iv);
        out.set_word(lane as usize * 2, a);
        out.set_word(lane as usize * 2 + 1, b);
    }
    out
}

/// Encrypts `plaintext` in counter mode. Decryption is the same operation.
///
/// # Example
///
/// ```
/// use anubis_crypto::{Key, otp};
/// use anubis_nvm::{Block, BlockAddr};
/// let key = Key([1, 2]).derive("encryption");
/// let addr = BlockAddr::new(99);
/// let ctr = otp::IvCounter::split(1, 5);
/// let ct = otp::encrypt(key, addr, ctr, &Block::filled(0x42));
/// assert_ne!(ct, Block::filled(0x42));
/// assert_eq!(otp::decrypt(key, addr, ctr, &ct), Block::filled(0x42));
/// ```
pub fn encrypt(key: Key, addr: BlockAddr, counter: IvCounter, plaintext: &Block) -> Block {
    plaintext.xored(&pad(key, addr, counter))
}

/// Decrypts `ciphertext` in counter mode (identical to [`encrypt`]).
pub fn decrypt(key: Key, addr: BlockAddr, counter: IvCounter, ciphertext: &Block) -> Block {
    ciphertext.xored(&pad(key, addr, counter))
}

/// Generates an 8-byte pad word for encrypting per-block ECC/MAC metadata
/// under the same IV space (distinct lane index 4).
pub fn pad_word(key: Key, addr: BlockAddr, counter: IvCounter) -> u64 {
    pad_word_with(&Speck128::new(key), addr, counter)
}

/// [`pad_word`] with a precomputed key schedule.
pub fn pad_word_with(cipher: &Speck128, addr: BlockAddr, counter: IvCounter) -> u64 {
    let iv = (
        addr.index() ^ counter.minor.rotate_left(20),
        counter.major.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (4u64 << 56) ^ counter.minor,
    );
    cipher.encrypt(iv).0
}

/// Every pad a seal/open needs for one `(addr, counter)`, produced in a
/// single pass over the five IV lanes.
///
/// The side lane's Speck call yields 128 bits but [`pad_word_with`] keeps
/// only the low word; the high word was thrown away on every call. The
/// fused path surfaces it as [`tweak`](PadSet::tweak) so the data MAC can
/// bind `(addr, counter)` through an already-paid-for PRF output instead
/// of hashing the address and counter words itself.
#[derive(Clone, Copy, Debug)]
pub struct PadSet {
    /// The four 16-byte data lanes (lanes 0–3), as one 64-byte pad block.
    pub data: Block,
    /// The 8-byte side-word pad (lane 4, low half) that encrypts the ECC.
    pub side: u64,
    /// The side lane's high half: an `(addr, counter)`-bound PRF word for
    /// keying the data MAC. Never stored, so revealing `side` on the DIMM
    /// does not reveal the tweak.
    pub tweak: u64,
}

/// Generates the full [`PadSet`] under a precomputed key schedule — the
/// hot-path entry point for seal/open/probe. `data` is bit-identical to
/// [`pad_with`] and `side` to [`pad_word_with`]; the IV base is computed
/// once and shared by all five lanes, which are encrypted together
/// ([`Speck128::encrypt_many`]).
pub fn pad_set_with(cipher: &Speck128, addr: BlockAddr, counter: IvCounter) -> PadSet {
    let x = addr.index() ^ counter.minor.rotate_left(20);
    let y = counter.major.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ counter.minor;
    let lanes = cipher.encrypt_many(core::array::from_fn::<_, 5, _>(|lane| {
        (x, y ^ ((lane as u64) << 56))
    }));
    let mut data = Block::zeroed();
    for (lane, &(a, b)) in lanes[..4].iter().enumerate() {
        data.set_word(lane * 2, a);
        data.set_word(lane * 2 + 1, b);
    }
    let (side, tweak) = lanes[4];
    PadSet { data, side, tweak }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key([11, 22]).derive("encryption")
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let pt = Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
        let ct = encrypt(key(), BlockAddr::new(7), IvCounter::split(3, 9), &pt);
        assert_eq!(
            decrypt(key(), BlockAddr::new(7), IvCounter::split(3, 9), &ct),
            pt
        );
    }

    #[test]
    fn spatial_uniqueness() {
        let pt = Block::filled(0);
        let a = encrypt(key(), BlockAddr::new(1), IvCounter::split(0, 0), &pt);
        let b = encrypt(key(), BlockAddr::new(2), IvCounter::split(0, 0), &pt);
        assert_ne!(a, b, "same data at different addresses must differ");
    }

    #[test]
    fn temporal_uniqueness() {
        let pt = Block::filled(0);
        let a = encrypt(key(), BlockAddr::new(1), IvCounter::split(0, 1), &pt);
        let b = encrypt(key(), BlockAddr::new(1), IvCounter::split(0, 2), &pt);
        let c = encrypt(key(), BlockAddr::new(1), IvCounter::split(1, 1), &pt);
        assert_ne!(a, b, "minor counter must vary the pad");
        assert_ne!(a, c, "major counter must vary the pad");
    }

    #[test]
    fn wrong_counter_does_not_decrypt() {
        let pt = Block::filled(0x5A);
        let ct = encrypt(key(), BlockAddr::new(1), IvCounter::split(0, 5), &pt);
        let wrong = decrypt(key(), BlockAddr::new(1), IvCounter::split(0, 6), &ct);
        assert_ne!(wrong, pt);
    }

    #[test]
    fn monolithic_and_split_differ() {
        let pt = Block::filled(0);
        let a = encrypt(key(), BlockAddr::new(1), IvCounter::monolithic(5), &pt);
        let b = encrypt(key(), BlockAddr::new(1), IvCounter::split(5, 0), &pt);
        assert_ne!(a, b);
    }

    #[test]
    fn precomputed_schedule_matches_per_call_expansion() {
        let k = key();
        let cipher = Speck128::new(k);
        let ctr = IvCounter::split(7, 11);
        let addr = BlockAddr::new(42);
        assert_eq!(pad(k, addr, ctr), pad_with(&cipher, addr, ctr));
        assert_eq!(pad_word(k, addr, ctr), pad_word_with(&cipher, addr, ctr));
    }

    #[test]
    fn pad_set_matches_scalar_pads() {
        let k = key();
        let cipher = Speck128::new(k);
        let mut rng = anubis_nvm::SplitMix64::new(0x0DD);
        let fixed = [(0u64, 0u64, 0u64), (7, 3, 9), (1 << 40, 5, 1 << 33)];
        let random = (0..2_000).map(|_| (rng.next_u64(), rng.next_u64(), rng.next_u64()));
        for (addr, major, minor) in fixed.into_iter().chain(random) {
            let iv_side = (
                addr ^ minor.rotate_left(20),
                major.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (4u64 << 56) ^ minor,
            );
            let addr = BlockAddr::new(addr);
            let ctr = IvCounter::split(major, minor);
            let set = pad_set_with(&cipher, addr, ctr);
            assert_eq!(set.data, pad_with(&cipher, addr, ctr));
            assert_eq!(set.side, pad_word_with(&cipher, addr, ctr));
            assert_eq!(set.tweak, cipher.encrypt(iv_side).1);
        }
    }

    #[test]
    fn pad_set_tweak_distinct_from_stored_pads() {
        // The MAC tweak must not equal anything an adversary can read off
        // the DIMM (data lanes or the side word) for the same IV tuple.
        let cipher = Speck128::new(key());
        let set = pad_set_with(&cipher, BlockAddr::new(9), IvCounter::split(2, 3));
        assert_ne!(set.tweak, set.side);
        for i in 0..8 {
            assert_ne!(set.tweak, set.data.word(i));
        }
    }

    #[test]
    fn pad_word_distinct_from_block_lanes() {
        let k = key();
        let ctr = IvCounter::split(2, 3);
        let p = pad(k, BlockAddr::new(9), ctr);
        let w = pad_word(k, BlockAddr::new(9), ctr);
        for i in 0..8 {
            assert_ne!(p.word(i), w, "ECC lane must not reuse a data lane");
        }
    }
}
