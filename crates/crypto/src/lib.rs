//! Cryptographic substrate for the Anubis reproduction.
//!
//! Implements, from scratch, everything the secure-memory data path needs:
//!
//! * [`Speck128`] — the Speck128/128 block cipher, used as the PRF behind
//!   pads, hashes and MACs. *Simulation-grade*: the reproduction needs the
//!   right structure (keyed, pseudorandom, 128-bit), not a production
//!   cipher; do not reuse this for real secrets.
//! * [`otp`] — counter-mode one-time-pad encryption of 64-byte blocks with
//!   spatially (address) and temporally (counter) unique IVs (paper §2.2).
//! * [`SplitCounterBlock`] — the split-counter scheme: one 64-bit major
//!   counter per 4 KiB page plus 64 seven-bit minor counters, packed into a
//!   single 64-byte counter block (paper Fig. 1).
//! * [`SgxCounterNode`] — SGX-style nodes: eight 56-bit counters plus a
//!   56-bit MAC per 64-byte line (paper §4.3, Fig. 3).
//! * [`hash`] — the one MAC kernel, NH then one Speck call: keyed 64-bit
//!   hashes (Merkle-tree arity 8 ⇒ 8-byte child digests), 56-bit MACs for
//!   SGX nodes, and the data MAC.
//! * [`ecc`] — SEC-DED Hamming(72,64) codes computed over *plaintext* and
//!   stored encrypted alongside data, which is exactly the sanity check the
//!   Osiris counter-recovery scheme relies on.
//! * [`DataCodec`] — the full per-block data path: encrypt/decrypt with
//!   ECC + data-MAC verification, and the Osiris counter-trial probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ecc;
pub mod hash;
pub mod otp;

mod codec;
mod counter;
mod error;
mod sgx;
mod speck;

pub use codec::{DataCodec, SealedBlock};
pub use counter::{
    CounterError, CounterIncrement, SplitCounterBlock, MINOR_COUNTERS_PER_BLOCK, MINOR_MAX,
};
pub use error::CryptoError;
pub use sgx::{SgxCounterNode, SGX_COUNTERS_PER_NODE, SGX_COUNTER_BITS, SGX_COUNTER_MAX};
pub use speck::Speck128;

/// A 128-bit secret key held inside the processor chip.
///
/// Newtype so processor keys, hash keys and MAC keys cannot be confused
/// with plain integers.
///
/// # Example
///
/// ```
/// use anubis_crypto::Key;
/// let master = Key([0xDEAD, 0xBEEF]);
/// let enc = master.derive("encryption");
/// let mac = master.derive("data-mac");
/// assert_ne!(enc, mac);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub [u64; 2]);

impl Key {
    /// Derives a deterministic sub-key for a named purpose ("domain
    /// separation"): the encryption key, tree-hash key and MAC key must all
    /// differ even when the system is seeded from one master key.
    pub fn derive(&self, purpose: &str) -> Key {
        let cipher = Speck128::new(*self);
        let mut h: (u64, u64) = (0x6b65_7964_6572_6976, purpose.len() as u64);
        for chunk in purpose.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h.0 ^= u64::from_le_bytes(w);
            h = cipher.encrypt(h);
        }
        Key([h.0, h.1])
    }
}

impl core::fmt::Debug for Key {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material in logs.
        write!(f, "Key(<secret>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_differ_by_purpose() {
        let master = Key([1, 2]);
        let a = master.derive("encryption");
        let b = master.derive("tree-hash");
        let c = master.derive("data-mac");
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        assert_eq!(a, master.derive("encryption"));
    }

    #[test]
    fn derived_keys_differ_by_master() {
        let a = Key([1, 2]).derive("x");
        let b = Key([1, 3]).derive("x");
        assert_ne!(a, b);
    }

    #[test]
    fn key_debug_hides_material() {
        assert_eq!(format!("{:?}", Key([42, 42])), "Key(<secret>)");
    }
}
