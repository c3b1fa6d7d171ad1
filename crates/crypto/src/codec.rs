//! The per-block secure data path: counter-mode encryption + encrypted
//! plaintext ECC (Osiris) + Bonsai-style data MAC.

use crate::ecc;
use crate::error::CryptoError;
use crate::hash::Hasher64;
use crate::otp::{self, IvCounter};
use crate::speck::Speck128;
use crate::Key;
use anubis_nvm::{Block, BlockAddr, BLOCK_BYTES};

/// What the memory controller actually stores for one data line:
/// the ciphertext plus two encrypted 8-byte side words.
///
/// On a real DIMM the ECC word lives in the spare ECC bits and the MAC in
/// spare bits or a colocated scheme (Synergy); neither costs an extra
/// memory transaction, which is how the timing model treats them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SealedBlock {
    /// Counter-mode encrypted data.
    pub ciphertext: Block,
    /// ECC of the plaintext, encrypted under the ECC pad lane.
    pub ecc: u64,
    /// MAC over (plaintext, counter, address), truncated to 64 bits.
    pub mac: u64,
}

/// Encrypts and authenticates data blocks under a processor key pair.
///
/// This is the Bonsai Merkle Tree data path (paper §2.3): counters are
/// integrity-protected by the tree, data is protected by a MAC over the
/// data and its counter, and the plaintext ECC rides along encrypted so
/// that recovery can test candidate counters (Osiris, §2.4).
///
/// # Example
///
/// ```
/// use anubis_crypto::{Key, DataCodec, otp::IvCounter};
/// use anubis_nvm::{Block, BlockAddr};
/// let codec = DataCodec::new(Key([1, 2]));
/// let addr = BlockAddr::new(10);
/// let ctr = IvCounter::split(0, 3);
/// let sealed = codec.seal(addr, ctr, &Block::filled(0x77));
/// let opened = codec.open(addr, ctr, &sealed)?;
/// assert_eq!(opened, Block::filled(0x77));
/// # Ok::<(), anubis_crypto::CryptoError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DataCodec {
    /// Speck schedule for the data-encryption key, expanded once at
    /// construction: recovery probes millions of blocks.
    enc: Speck128,
    /// The data MAC: the one NH + Speck kernel of [`Hasher64`], under the
    /// data-MAC key.
    mac: Hasher64,
}

impl DataCodec {
    /// Derives the encryption and MAC keys from a master key.
    pub fn new(master: Key) -> Self {
        DataCodec {
            enc: Speck128::new(master.derive("data-encryption")),
            mac: Hasher64::new(master.derive("data-mac")),
        }
    }

    /// Encrypts `plaintext` for storage at `addr` under `counter`.
    ///
    /// One fused pad pass produces the four data lanes, the ECC side pad
    /// and the MAC tweak (five Speck calls under the precomputed
    /// schedule); the MAC itself is NH over the plaintext words plus one
    /// finalization PRF call. Nothing is heap allocated.
    pub fn seal(&self, addr: BlockAddr, counter: IvCounter, plaintext: &Block) -> SealedBlock {
        let pads = otp::pad_set_with(&self.enc, addr, counter);
        SealedBlock {
            ciphertext: plaintext.xored(&pads.data),
            ecc: ecc::ecc_block(plaintext) ^ pads.side,
            mac: self.data_mac(pads.tweak, plaintext),
        }
    }

    /// Decrypts and fully verifies a sealed block.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::EccMismatch`] — wrong counter or corrupted
    ///   ciphertext/ECC.
    /// * [`CryptoError::DataMacMismatch`] — ECC passed but the
    ///   authentication MAC failed (targeted tampering).
    pub fn open(
        &self,
        addr: BlockAddr,
        counter: IvCounter,
        sealed: &SealedBlock,
    ) -> Result<Block, CryptoError> {
        let pads = otp::pad_set_with(&self.enc, addr, counter);
        let plaintext = sealed.ciphertext.xored(&pads.data);
        if !ecc::check_block(&plaintext, sealed.ecc ^ pads.side) {
            return Err(CryptoError::EccMismatch);
        }
        if sealed.mac != self.data_mac(pads.tweak, &plaintext) {
            return Err(CryptoError::DataMacMismatch);
        }
        Ok(plaintext)
    }

    /// Decrypts like [`open`](Self::open), but runs the SEC-DED decoder
    /// when the strict check fails: because the cipher is a counter-mode
    /// XOR, a flipped ciphertext bit is a flipped plaintext bit, so the
    /// per-word Hamming(72,64) code can repair one flip per word and the
    /// MAC then re-verifies the repaired plaintext end to end.
    ///
    /// Returns the plaintext and the number of repaired words (0 for a
    /// clean block — the common case decrypts, checks and MACs off one
    /// fused pad set with no heap allocation and no recomputation).
    ///
    /// # Errors
    ///
    /// * [`CryptoError::UncorrectableEcc`] — multi-bit corruption the
    ///   code can detect but not repair. The caller must not serve data.
    /// * [`CryptoError::DataMacMismatch`] — the (possibly repaired)
    ///   plaintext fails authentication: the stored counter is stale or
    ///   the block was tampered with rather than randomly flipped.
    pub fn open_correcting(
        &self,
        addr: BlockAddr,
        counter: IvCounter,
        sealed: &SealedBlock,
    ) -> Result<(Block, u32), CryptoError> {
        let pads = otp::pad_set_with(&self.enc, addr, counter);
        let plaintext = sealed.ciphertext.xored(&pads.data);
        let ecc_plain = sealed.ecc ^ pads.side;
        if ecc::check_block(&plaintext, ecc_plain) {
            if sealed.mac != self.data_mac(pads.tweak, &plaintext) {
                return Err(CryptoError::DataMacMismatch);
            }
            return Ok((plaintext, 0));
        }
        // Strict check failed: try to repair the already-decrypted
        // plaintext in place (the pads are still valid — correction never
        // changes the IV).
        let decoded =
            ecc::correct_block(&plaintext, ecc_plain).ok_or(CryptoError::UncorrectableEcc)?;
        if sealed.mac != self.data_mac(pads.tweak, &decoded.data) {
            return Err(CryptoError::DataMacMismatch);
        }
        Ok((decoded.data, decoded.corrected_words))
    }

    /// The Osiris primitive: attempts decryption with `counter` and returns
    /// the plaintext only if the decrypted ECC sanity check passes. Does
    /// *not* check the data MAC — recovery verifies integrity via the tree
    /// root afterwards.
    pub fn probe(
        &self,
        addr: BlockAddr,
        counter: IvCounter,
        sealed: &SealedBlock,
    ) -> Option<Block> {
        let pads = otp::pad_set_with(&self.enc, addr, counter);
        let plaintext = sealed.ciphertext.xored(&pads.data);
        ecc::check_block(&plaintext, sealed.ecc ^ pads.side).then_some(plaintext)
    }

    /// MAC over `(plaintext, addr, counter)`, truncated to 64 bits.
    ///
    /// Hash-then-PRF, standing in for the GMAC hardware of a real memory
    /// encryption engine: NH over the eight plaintext words, then one
    /// Speck call under the MAC key whose input carries `tweak` — the
    /// side lane's second PRF word, which already binds
    /// `(addr, major, minor)`. The kernel is [`Hasher64`]'s, the one every
    /// tree digest and SGX node MAC runs. NH's full 128-bit products
    /// matter: a lane that only multiplies by an odd key carries a bit-63
    /// difference through unchanged (`(x ⊕ 2⁶³)·r = x·r ⊕ 2⁶³`), so two
    /// flipped top bits would cancel, and the linear ECC lets a tamperer
    /// patch the check bytes to match.
    pub fn data_mac(&self, tweak: u64, plaintext: &Block) -> u64 {
        self.mac
            .prf(self.mac.nh(&plaintext.words()), BLOCK_BYTES as u64, tweak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> DataCodec {
        DataCodec::new(Key([77, 88]))
    }

    fn ctr(minor: u64) -> IvCounter {
        IvCounter::split(2, minor)
    }

    #[test]
    fn seal_open_roundtrip() {
        let c = codec();
        let pt = Block::from_words([10, 20, 30, 40, 50, 60, 70, 80]);
        let sealed = c.seal(BlockAddr::new(5), ctr(1), &pt);
        assert_eq!(c.open(BlockAddr::new(5), ctr(1), &sealed).unwrap(), pt);
    }

    #[test]
    fn wrong_counter_fails_ecc() {
        let c = codec();
        let sealed = c.seal(BlockAddr::new(5), ctr(1), &Block::filled(9));
        assert_eq!(
            c.open(BlockAddr::new(5), ctr(2), &sealed),
            Err(CryptoError::EccMismatch)
        );
    }

    #[test]
    fn wrong_address_fails_ecc() {
        let c = codec();
        let sealed = c.seal(BlockAddr::new(5), ctr(1), &Block::filled(9));
        assert!(c.open(BlockAddr::new(6), ctr(1), &sealed).is_err());
    }

    #[test]
    fn ciphertext_tamper_fails() {
        let c = codec();
        let mut sealed = c.seal(BlockAddr::new(5), ctr(1), &Block::filled(9));
        sealed.ciphertext.flip_bit(3);
        assert!(c.open(BlockAddr::new(5), ctr(1), &sealed).is_err());
    }

    #[test]
    fn mac_tamper_detected_even_if_ecc_passes() {
        let c = codec();
        let mut sealed = c.seal(BlockAddr::new(5), ctr(1), &Block::filled(9));
        sealed.mac ^= 1;
        assert_eq!(
            c.open(BlockAddr::new(5), ctr(1), &sealed),
            Err(CryptoError::DataMacMismatch)
        );
    }

    #[test]
    fn a_keyless_bit63_pair_forgery_fails_every_verifying_open() {
        // Bit 63 of ciphertext words 0 and 5 flipped, and the check byte
        // of that flip XORed into ECC bytes 0 and 5: counter mode and the
        // linear Hamming code let the forgery past the ECC check, so the
        // data MAC must catch it.
        let c = codec();
        let addr = BlockAddr::new(5);
        let sealed = c.seal(addr, ctr(1), &Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]));
        let mut forged = sealed;
        for word in [0, 5] {
            forged.ciphertext.flip_bit(word * 64 + 63);
            forged.ecc ^= u64::from(ecc::ecc_word(1 << 63)) << (word * 8);
        }
        assert!(c.probe(addr, ctr(1), &forged).is_some(), "ECC must pass");
        let refused = Err(CryptoError::DataMacMismatch);
        assert_eq!(c.open(addr, ctr(1), &forged), refused);
        let refused = refused.map(|b| (b, 0));
        assert_eq!(c.open_correcting(addr, ctr(1), &forged), refused);
    }

    #[test]
    fn open_correcting_repairs_single_ciphertext_flips() {
        let c = codec();
        let pt = Block::from_words([9, 8, 7, 6, 5, 4, 3, 2]);
        let mut sealed = c.seal(BlockAddr::new(5), ctr(1), &pt);
        sealed.ciphertext.flip_bit(130); // one flip, word 2
        assert!(c.open(BlockAddr::new(5), ctr(1), &sealed).is_err());
        let (opened, fixed) = c
            .open_correcting(BlockAddr::new(5), ctr(1), &sealed)
            .unwrap();
        assert_eq!(opened, pt);
        assert_eq!(fixed, 1);
    }

    #[test]
    fn open_correcting_reports_multi_bit_damage() {
        let c = codec();
        let mut sealed = c.seal(BlockAddr::new(5), ctr(1), &Block::filled(9));
        sealed.ciphertext.flip_bit(0);
        sealed.ciphertext.flip_bit(1); // two flips in the same word
        assert_eq!(
            c.open_correcting(BlockAddr::new(5), ctr(1), &sealed),
            Err(CryptoError::UncorrectableEcc)
        );
    }

    #[test]
    fn open_correcting_never_launders_a_wrong_counter() {
        // A stale counter produces a pseudorandom plaintext; the decoder
        // must not "repair" it into something served as data — the MAC
        // (or multi-bit detection) must fire.
        let c = codec();
        let sealed = c.seal(BlockAddr::new(5), ctr(6), &Block::filled(9));
        let out = c.open_correcting(BlockAddr::new(5), ctr(2), &sealed);
        assert!(
            matches!(
                out,
                Err(CryptoError::UncorrectableEcc) | Err(CryptoError::DataMacMismatch)
            ),
            "stale counter must be a typed failure, got {out:?}"
        );
    }

    #[test]
    fn probe_does_not_require_mac() {
        let c = codec();
        let mut sealed = c.seal(BlockAddr::new(9), ctr(3), &Block::filled(1));
        sealed.mac = 0; // destroyed MAC
        assert!(c.probe(BlockAddr::new(9), ctr(3), &sealed).is_some());
    }

    #[test]
    fn data_mac_domain_separation() {
        // The same plaintext sealed at a different address, major or
        // minor counter must carry a different MAC — otherwise a replayed
        // (ciphertext, ecc, mac) triple from elsewhere could authenticate.
        let c = codec();
        let pt = Block::filled(0x5A);
        let base = c.seal(BlockAddr::new(5), IvCounter::split(2, 3), &pt).mac;
        let variants = [
            c.seal(BlockAddr::new(6), IvCounter::split(2, 3), &pt).mac,
            c.seal(BlockAddr::new(5), IvCounter::split(3, 3), &pt).mac,
            c.seal(BlockAddr::new(5), IvCounter::split(2, 4), &pt).mac,
            c.seal(BlockAddr::new(5), IvCounter::monolithic(3), &pt).mac,
        ];
        for (i, m) in variants.iter().enumerate() {
            assert_ne!(base, *m, "variant {i} collided with the base MAC");
        }
        // And all pairwise distinct among themselves.
        for i in 0..variants.len() {
            for j in i + 1..variants.len() {
                assert_ne!(variants[i], variants[j], "variants {i} and {j} collided");
            }
        }
    }

    #[test]
    fn data_mac_known_answers() {
        // Pinned MACs under a fixed key: the tweak enters the PRF input,
        // so the same plaintext under two tweaks differs.
        let c = codec();
        let pt = Block::from_words([1, 2, 3, 4, 5, 6, 7, 1 << 63]);
        let got = [
            c.data_mac(0, &Block::zeroed()),
            c.data_mac(0, &pt),
            c.data_mac(0x5EED, &pt),
            c.seal(BlockAddr::new(5), ctr(1), &pt).mac,
        ];
        assert_eq!(
            got,
            [
                0x1681_5c48_f45e_7634,
                0x0ee4_5cdc_3229_ba24,
                0xeb41_1162_299f_ae1c,
                0xb586_eceb_b5e9_7859,
            ],
            "{got:#018x?}"
        );
    }

    #[test]
    fn data_mac_key_separation() {
        // Different master keys must give unrelated MACs for identical
        // (addr, counter, plaintext).
        let a = DataCodec::new(Key([1, 2]));
        let b = DataCodec::new(Key([1, 3]));
        let pt = Block::filled(7);
        assert_ne!(
            a.seal(BlockAddr::new(5), ctr(1), &pt).mac,
            b.seal(BlockAddr::new(5), ctr(1), &pt).mac
        );
    }
}
