//! The per-block secure data path: counter-mode encryption + encrypted
//! plaintext ECC (Osiris) + Bonsai-style data MAC.

use crate::ecc;
use crate::error::CryptoError;
use crate::hash::Hasher64;
use crate::otp::{self, IvCounter, PadSet};
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
    /// Precomputed Speck schedule for the data-encryption key. Every
    /// seal/open/probe used to re-expand the 32-round schedule (twice:
    /// block pad + side-word pad); recovery probes millions of blocks, so
    /// the schedule is expanded once at construction and reused.
    enc: Speck128,
    /// The data MAC and the [`MacCache`] fingerprint: the one NH + Speck
    /// kernel of [`Hasher64`], under the data-MAC key.
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
        self.seal_with_pads(&otp::pad_set_with(&self.enc, addr, counter), plaintext)
    }

    fn seal_with_pads(&self, pads: &PadSet, plaintext: &Block) -> SealedBlock {
        SealedBlock {
            ciphertext: plaintext.xored(&pads.data),
            ecc: ecc::ecc_block(plaintext) ^ pads.side,
            mac: self.data_mac(pads.tweak, plaintext),
        }
    }

    /// Seals a batch of blocks in input order, writing into a caller-owned
    /// buffer — the bulk path for commit groups and re-encryption sweeps.
    /// The whole group runs under the one precomputed key schedule with
    /// fused per-item pad generation, and a reused `out` makes the steady
    /// state allocation-free. Bit-identical to calling
    /// [`seal`](Self::seal) per element.
    pub fn seal_batch_into(
        &self,
        items: &[(BlockAddr, IvCounter, Block)],
        out: &mut Vec<SealedBlock>,
    ) {
        out.clear();
        out.reserve(items.len());
        for (addr, ctr, pt) in items {
            let pads = otp::pad_set_with(&self.enc, *addr, *ctr);
            out.push(self.seal_with_pads(&pads, pt));
        }
    }

    /// [`seal_batch_into`](Self::seal_batch_into) returning a fresh `Vec`.
    pub fn seal_batch(&self, items: &[(BlockAddr, IvCounter, Block)]) -> Vec<SealedBlock> {
        let mut out = Vec::new();
        self.seal_batch_into(items, &mut out);
        out
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

    /// [`open_correcting`](Self::open_correcting) with a per-controller
    /// [`MacCache`] consulted first: if this exact sealed image was
    /// already MAC-verified clean at this `(addr, counter)` — the common
    /// case for a read of an unmodified line on a clean counter-cache hit
    /// — only the decrypt + ECC sanity check runs and the MAC
    /// recomputation is skipped. Any mismatch (evicted, modified, or
    /// corrupted line) falls back to the full verifying path, so the
    /// result is always identical to `open_correcting`; only clean
    /// (zero-correction) verifications are ever cached.
    pub fn open_correcting_cached(
        &self,
        cache: &mut MacCache,
        addr: BlockAddr,
        counter: IvCounter,
        sealed: &SealedBlock,
    ) -> Result<(Block, u32), CryptoError> {
        let fp = self.line_fingerprint(addr, counter, sealed);
        if cache.contains(addr, fp) {
            let pads = otp::pad_set_with(&self.enc, addr, counter);
            let plaintext = sealed.ciphertext.xored(&pads.data);
            if ecc::check_block(&plaintext, sealed.ecc ^ pads.side) {
                cache.hits += 1;
                return Ok((plaintext, 0));
            }
            // The stored image changed under us (e.g. in-flight fault):
            // drop the stale entry and take the full path.
            cache.invalidate(addr);
        }
        cache.misses += 1;
        let out = self.open_correcting(addr, counter, sealed);
        if let Ok((_, 0)) = out {
            cache.record(addr, fp);
        }
        out
    }

    /// Records a freshly sealed line as MAC-verified, so the next read of
    /// the unmodified line takes the
    /// [`open_correcting_cached`](Self::open_correcting_cached) fast path.
    pub fn note_sealed(
        &self,
        cache: &mut MacCache,
        addr: BlockAddr,
        counter: IvCounter,
        sealed: &SealedBlock,
    ) {
        let fp = self.line_fingerprint(addr, counter, sealed);
        cache.record(addr, fp);
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

    /// Opens a batch of sealed blocks in input order, writing into a
    /// caller-owned buffer; each element verifies independently. Shares
    /// the one precomputed key schedule across the group and reuses `out`
    /// so the steady state is allocation-free. Bit-identical to calling
    /// [`open`](Self::open) per element.
    pub fn open_batch_into(
        &self,
        items: &[(BlockAddr, IvCounter, SealedBlock)],
        out: &mut Vec<Result<Block, CryptoError>>,
    ) {
        out.clear();
        out.reserve(items.len());
        for (addr, ctr, sealed) in items {
            out.push(self.open(*addr, *ctr, sealed));
        }
    }

    /// [`open_batch_into`](Self::open_batch_into) returning a fresh `Vec`.
    pub fn open_batch(
        &self,
        items: &[(BlockAddr, IvCounter, SealedBlock)],
    ) -> Vec<Result<Block, CryptoError>> {
        let mut out = Vec::new();
        self.open_batch_into(items, &mut out);
        out
    }

    /// Runs the Osiris trial loop: tries `candidates` in order and returns
    /// the index of the first counter whose ECC check passes.
    ///
    /// # Errors
    ///
    /// [`CryptoError::CounterNotRecovered`] if no candidate passes.
    pub fn osiris_recover(
        &self,
        addr: BlockAddr,
        candidates: impl IntoIterator<Item = IvCounter>,
        sealed: &SealedBlock,
    ) -> Result<(usize, Block), CryptoError> {
        let mut trials = 0u32;
        for (i, ctr) in candidates.into_iter().enumerate() {
            trials += 1;
            if let Some(pt) = self.probe(addr, ctr, sealed) {
                return Ok((i, pt));
            }
        }
        Err(CryptoError::CounterNotRecovered { trials })
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

    /// Compressed identity of one stored line for the [`MacCache`]: the
    /// kernel's unfinalized NH sum over the full sealed image (ciphertext,
    /// ECC, MAC) and its `(addr, counter)` binding. Two lines that differ
    /// anywhere fingerprint differently except with negligible
    /// probability, and the NH key is secret, so a tamperer cannot aim for
    /// a colliding image. The sum never leaves the controller, so it needs
    /// no PRF call.
    fn line_fingerprint(&self, addr: BlockAddr, counter: IvCounter, sealed: &SealedBlock) -> u64 {
        let mut image = [0u64; Block::WORDS + 5];
        image[..Block::WORDS].copy_from_slice(&sealed.ciphertext.words());
        image[Block::WORDS..].copy_from_slice(&[
            sealed.ecc,
            sealed.mac,
            addr.index(),
            counter.major,
            counter.minor,
        ]);
        let (lo, hi) = self.mac.nh(&image);
        lo ^ hi
    }
}

/// Direct-mapped cache of MAC-verified line fingerprints.
///
/// Models a small on-controller SRAM structure: each slot remembers the
/// fingerprint of the last sealed image that passed full MAC
/// verification (or was just sealed) for addresses mapping to it. Purely
/// a performance hint — a hit only skips the MAC *recomputation*; the
/// decrypt + ECC check still runs, and any fingerprint mismatch falls
/// back to the fully verifying path. Volatile by construction: it holds
/// no recoverable state and must simply be cleared on crash.
#[derive(Clone, Debug)]
pub struct MacCache {
    slots: Vec<u64>,
    /// Slot-index mask (`capacity - 1`; capacity is a power of two).
    mask: usize,
    hits: u64,
    misses: u64,
}

/// Empty-slot sentinel: fingerprints are remapped off this value.
const MAC_CACHE_EMPTY: u64 = 0;

impl MacCache {
    /// Default slot count for a per-controller cache (64 KiB-line working
    /// sets map fully; larger sets degrade gracefully by eviction).
    pub const DEFAULT_SLOTS: usize = 1024;

    /// Creates a cache with `slots` entries, rounded up to a power of two.
    pub fn new(slots: usize) -> Self {
        let cap = slots.next_power_of_two().max(1);
        MacCache {
            slots: vec![MAC_CACHE_EMPTY; cap],
            mask: cap - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Drops every cached verification (crash / recovery entry point).
    pub fn clear(&mut self) {
        self.slots.fill(MAC_CACHE_EMPTY);
    }

    /// Lines whose MAC recomputation was skipped.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lines that took the full verifying path.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn slot(&self, addr: BlockAddr) -> usize {
        addr.index() as usize & self.mask
    }

    fn contains(&self, addr: BlockAddr, fp: u64) -> bool {
        self.slots[self.slot(addr)] == Self::encode(fp)
    }

    fn record(&mut self, addr: BlockAddr, fp: u64) {
        let slot = self.slot(addr);
        self.slots[slot] = Self::encode(fp);
    }

    fn invalidate(&mut self, addr: BlockAddr) {
        let slot = self.slot(addr);
        self.slots[slot] = MAC_CACHE_EMPTY;
    }

    /// Keeps real fingerprints disjoint from the empty sentinel.
    fn encode(fp: u64) -> u64 {
        if fp == MAC_CACHE_EMPTY {
            1
        } else {
            fp
        }
    }
}

impl Default for MacCache {
    fn default() -> Self {
        MacCache::new(Self::DEFAULT_SLOTS)
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
        // data MAC (and the cached path's fingerprint) must catch it.
        let c = codec();
        let addr = BlockAddr::new(5);
        let sealed = c.seal(addr, ctr(1), &Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]));
        let mut cache = MacCache::new(8);
        c.open_correcting_cached(&mut cache, addr, ctr(1), &sealed)
            .unwrap();
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
        assert_eq!(
            c.open_correcting_cached(&mut cache, addr, ctr(1), &forged),
            refused
        );
    }

    #[test]
    fn osiris_recovers_recent_counter() {
        // Memory holds a counter persisted at minor=4 (stop-loss write);
        // the block was actually encrypted at minor=6. Trials walk forward.
        let c = codec();
        let pt = Block::filled(0xCD);
        let sealed = c.seal(BlockAddr::new(9), ctr(6), &pt);
        let candidates = (4..8).map(ctr);
        let (idx, recovered) = c
            .osiris_recover(BlockAddr::new(9), candidates, &sealed)
            .unwrap();
        assert_eq!(idx, 2); // 4, 5, then 6 matches
        assert_eq!(recovered, pt);
    }

    #[test]
    fn osiris_fails_outside_stop_loss_window() {
        let c = codec();
        let sealed = c.seal(BlockAddr::new(9), ctr(10), &Block::filled(1));
        let candidates = (4..8).map(ctr);
        assert_eq!(
            c.osiris_recover(BlockAddr::new(9), candidates, &sealed),
            Err(CryptoError::CounterNotRecovered { trials: 4 })
        );
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
    fn batch_paths_match_single_block_paths() {
        let c = codec();
        let items: Vec<(BlockAddr, IvCounter, Block)> = (0..8)
            .map(|i| (BlockAddr::new(i), ctr(i + 1), Block::filled(i as u8)))
            .collect();
        let sealed = c.seal_batch(&items);
        for (i, (addr, iv, pt)) in items.iter().enumerate() {
            assert_eq!(sealed[i], c.seal(*addr, *iv, pt));
        }
        let to_open: Vec<(BlockAddr, IvCounter, SealedBlock)> = items
            .iter()
            .zip(&sealed)
            .map(|((addr, iv, _), s)| (*addr, *iv, *s))
            .collect();
        for (res, (_, _, pt)) in c.open_batch(&to_open).iter().zip(&items) {
            assert_eq!(res.as_ref().unwrap(), pt);
        }
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

    #[test]
    fn batch_matches_scalar_randomized() {
        // Property test: for random (addr, counter, plaintext) triples,
        // the batch paths are bit-identical to the scalar paths — both
        // the Vec-returning wrappers and the `_into` buffer-reuse forms.
        use anubis_nvm::SplitMix64;
        let c = codec();
        let mut sealed_buf = Vec::new();
        let mut open_buf = Vec::new();
        for seed in 0..16u64 {
            let mut rng = SplitMix64::new(0xBA7C * 31 + seed);
            let n = (rng.next_u64() % 65) as usize; // includes empty batches
            let items: Vec<(BlockAddr, IvCounter, Block)> = (0..n)
                .map(|_| {
                    let addr = BlockAddr::new(rng.next_u64() % (1 << 34));
                    let iv = if rng.next_u64() & 1 == 0 {
                        IvCounter::split(rng.next_u64() % 1024, rng.next_u64() % (1 << 30))
                    } else {
                        IvCounter::monolithic(rng.next_u64() & ((1 << 56) - 1))
                    };
                    let mut words = [0u64; 8];
                    for w in &mut words {
                        *w = rng.next_u64();
                    }
                    (addr, iv, Block::from_words(words))
                })
                .collect();

            c.seal_batch_into(&items, &mut sealed_buf);
            assert_eq!(sealed_buf, c.seal_batch(&items));
            for (i, (addr, iv, pt)) in items.iter().enumerate() {
                assert_eq!(
                    sealed_buf[i],
                    c.seal(*addr, *iv, pt),
                    "seed {seed} item {i}"
                );
            }

            let to_open: Vec<(BlockAddr, IvCounter, SealedBlock)> = items
                .iter()
                .zip(&sealed_buf)
                .map(|((addr, iv, _), s)| (*addr, *iv, *s))
                .collect();
            c.open_batch_into(&to_open, &mut open_buf);
            assert_eq!(open_buf, c.open_batch(&to_open));
            for (i, (res, (addr, iv, pt))) in open_buf.iter().zip(&items).enumerate() {
                assert_eq!(res.as_ref().unwrap(), pt, "seed {seed} item {i}");
                assert_eq!(res.clone().ok(), c.open(*addr, *iv, &sealed_buf[i]).ok());
            }
        }
    }

    #[test]
    fn mac_cache_hit_skips_recompute_but_matches_full_path() {
        let c = codec();
        let mut cache = MacCache::new(8);
        let pt = Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
        let addr = BlockAddr::new(21);
        let sealed = c.seal(addr, ctr(4), &pt);

        // First read: full path, recorded.
        let first = c.open_correcting_cached(&mut cache, addr, ctr(4), &sealed);
        assert_eq!(first, Ok((pt, 0)));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        // Second read of the unmodified line: fast path.
        let second = c.open_correcting_cached(&mut cache, addr, ctr(4), &sealed);
        assert_eq!(second, Ok((pt, 0)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(second, c.open_correcting(addr, ctr(4), &sealed));
    }

    #[test]
    fn mac_cache_never_launders_tampering() {
        // A cached verification of the clean image must not let a
        // tampered image through: the fingerprint covers the whole
        // sealed image, so any change misses and re-verifies fully.
        let c = codec();
        let mut cache = MacCache::new(8);
        let addr = BlockAddr::new(5);
        let sealed = c.seal(addr, ctr(1), &Block::filled(9));
        c.open_correcting_cached(&mut cache, addr, ctr(1), &sealed)
            .unwrap();

        let mut tampered = sealed;
        tampered.ciphertext.flip_bit(17);
        tampered.mac ^= 0xDEAD;
        let out = c.open_correcting_cached(&mut cache, addr, ctr(1), &tampered);
        assert_eq!(out, c.open_correcting(addr, ctr(1), &tampered));
        assert!(
            out.is_err() || out.as_ref().unwrap().1 > 0,
            "served: {out:?}"
        );
    }

    #[test]
    fn mac_cache_corrected_reads_are_not_cached() {
        // A read that needed SEC-DED repair must keep re-verifying: only
        // clean verifications populate the cache.
        let c = codec();
        let mut cache = MacCache::new(8);
        let addr = BlockAddr::new(13);
        let pt = Block::filled(0x3C);
        let mut sealed = c.seal(addr, ctr(2), &pt);
        sealed.ciphertext.flip_bit(200);
        for round in 0..2 {
            let (opened, fixed) = c
                .open_correcting_cached(&mut cache, addr, ctr(2), &sealed)
                .unwrap();
            assert_eq!((opened, fixed), (pt, 1), "round {round}");
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn mac_cache_note_sealed_primes_fast_path() {
        let c = codec();
        let mut cache = MacCache::new(8);
        let addr = BlockAddr::new(3);
        let pt = Block::filled(0x11);
        let sealed = c.seal(addr, ctr(7), &pt);
        c.note_sealed(&mut cache, addr, ctr(7), &sealed);
        assert_eq!(
            c.open_correcting_cached(&mut cache, addr, ctr(7), &sealed),
            Ok((pt, 0))
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn mac_cache_clear_forgets_everything() {
        let c = codec();
        let mut cache = MacCache::new(8);
        let addr = BlockAddr::new(3);
        let sealed = c.seal(addr, ctr(7), &Block::filled(1));
        c.note_sealed(&mut cache, addr, ctr(7), &sealed);
        cache.clear();
        c.open_correcting_cached(&mut cache, addr, ctr(7), &sealed)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }
}
