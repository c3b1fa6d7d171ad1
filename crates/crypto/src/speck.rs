//! Speck128/128 block cipher (Beaulieu et al., NSA 2013).
//!
//! Chosen as the workhorse PRF because it is tiny, fast in software and
//! trivially implementable from the published round function — exactly what
//! a self-contained simulator needs. It stands in for the AES hardware of a
//! real secure processor.

use crate::Key;

/// Number of rounds for Speck128/128.
const ROUNDS: usize = 32;

/// The Speck128/128 block cipher: 128-bit blocks, 128-bit keys, 32 rounds.
///
/// # Example
///
/// ```
/// use anubis_crypto::{Key, Speck128};
/// let cipher = Speck128::new(Key([7, 9]));
/// let ct = cipher.encrypt((1, 2));
/// assert_ne!(ct, (1, 2));
/// assert_eq!(cipher.decrypt(ct), (1, 2));
/// ```
#[derive(Clone)]
pub struct Speck128 {
    round_keys: [u64; ROUNDS],
}

impl Speck128 {
    /// Expands `key` into the round-key schedule.
    pub fn new(key: Key) -> Self {
        let mut round_keys = [0u64; ROUNDS];
        let mut l = key.0[1];
        let mut k = key.0[0];
        for (i, rk) in round_keys.iter_mut().enumerate() {
            *rk = k;
            l = l.rotate_right(8).wrapping_add(k) ^ i as u64;
            k = k.rotate_left(3) ^ l;
        }
        Speck128 { round_keys }
    }

    /// Encrypts one 128-bit block given as `(low, high)` words.
    pub fn encrypt(&self, block: (u64, u64)) -> (u64, u64) {
        let (mut y, mut x) = block;
        for &rk in &self.round_keys {
            x = x.rotate_right(8).wrapping_add(y) ^ rk;
            y = y.rotate_left(3) ^ x;
        }
        (y, x)
    }

    /// Encrypts `N` independent blocks round by round, so their 32-round
    /// dependency chains overlap. Each output equals [`Speck128::encrypt`]
    /// of its input.
    pub fn encrypt_many<const N: usize>(&self, blocks: [(u64, u64); N]) -> [(u64, u64); N] {
        let mut y = blocks.map(|b| b.0);
        let mut x = blocks.map(|b| b.1);
        for &rk in &self.round_keys {
            for (x, y) in x.iter_mut().zip(&mut y) {
                *x = x.rotate_right(8).wrapping_add(*y) ^ rk;
                *y = y.rotate_left(3) ^ *x;
            }
        }
        core::array::from_fn(|i| (y[i], x[i]))
    }

    /// Decrypts one 128-bit block given as `(low, high)` words.
    pub fn decrypt(&self, block: (u64, u64)) -> (u64, u64) {
        let (mut y, mut x) = block;
        for &rk in self.round_keys.iter().rev() {
            y = (y ^ x).rotate_right(3);
            x = (x ^ rk).wrapping_sub(y).rotate_left(8);
        }
        (y, x)
    }
}

impl core::fmt::Debug for Speck128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Speck128(<key schedule>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published test vector for Speck128/128:
    /// key = 0x0f0e0d0c0b0a0908_0706050403020100,
    /// pt  = 0x6c61766975716520_7469206564616d20,
    /// ct  = 0xa65d985179783265_7860fedf5c570d18.
    #[test]
    fn reference_vector() {
        let cipher = Speck128::new(Key([0x0706050403020100, 0x0f0e0d0c0b0a0908]));
        let pt = (0x7469206564616d20, 0x6c61766975716520);
        let ct = cipher.encrypt(pt);
        assert_eq!(ct, (0x7860fedf5c570d18, 0xa65d985179783265));
        assert_eq!(cipher.decrypt(ct), pt);
    }

    #[test]
    fn encrypt_many_matches_scalar_encrypt() {
        let cipher = Speck128::new(Key([0xA5A5, 0x5A5A]));
        let mut rng = anubis_nvm::SplitMix64::new(0x5BEC);
        let mut block = || (rng.next_u64(), rng.next_u64());
        for _ in 0..1_000 {
            let one = [block()];
            assert_eq!(cipher.encrypt_many(one), one.map(|b| cipher.encrypt(b)));
            let five = [block(), block(), block(), block(), block()];
            assert_eq!(cipher.encrypt_many(five), five.map(|b| cipher.encrypt(b)));
        }
    }

    #[test]
    fn roundtrip_many() {
        let cipher = Speck128::new(Key([0x1234, 0x5678]));
        for i in 0..100u64 {
            let pt = (i.wrapping_mul(0x9E3779B97F4A7C15), i);
            assert_eq!(cipher.decrypt(cipher.encrypt(pt)), pt);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Speck128::new(Key([1, 0])).encrypt((0, 0));
        let b = Speck128::new(Key([2, 0])).encrypt((0, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn avalanche_single_bit() {
        let cipher = Speck128::new(Key([3, 4]));
        let a = cipher.encrypt((0, 0));
        let b = cipher.encrypt((1, 0));
        let diff = (a.0 ^ b.0).count_ones() + (a.1 ^ b.1).count_ones();
        // Expect roughly half of 128 bits to flip; demand at least a third.
        assert!(diff > 42, "weak avalanche: {diff} bits");
    }

    #[test]
    fn debug_hides_schedule() {
        let s = format!("{:?}", Speck128::new(Key([0, 0])));
        assert!(s.contains("Speck128"));
        assert!(!s.contains('0'));
    }
}
