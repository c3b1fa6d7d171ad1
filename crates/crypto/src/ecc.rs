//! SEC-DED Hamming(72,64) error-correcting codes — the Osiris sanity check.
//!
//! Real NVDIMMs store 8 ECC bits per 64-bit word. Osiris (MICRO'18)
//! observes that if the ECC is computed over the *plaintext* and stored
//! encrypted with the data, then decrypting with the wrong counter yields a
//! pseudorandom word whose recomputed ECC almost surely mismatches — so the
//! ECC doubles as a counter-sanity check during recovery.
//!
//! We implement the classic Hamming(72,64) extended code per 8-byte word,
//! giving an 8-byte ECC word per 64-byte block (one check byte per data
//! word).

use anubis_nvm::Block;

/// Data-bit coverage masks for the seven Hamming parity groups: data bits
/// occupy codeword positions 1..=71 skipping power-of-two positions, and
/// parity group `p` covers every position with bit `p` set.
const COVERAGE: [u64; 7] = build_coverage();

const fn build_coverage() -> [u64; 7] {
    let mut masks = [0u64; 7];
    let mut data_index = 0u32;
    let mut cw_pos = 1u64;
    while data_index < 64 {
        if !cw_pos.is_power_of_two() {
            let mut p = 0;
            while p < 7 {
                if cw_pos & (1u64 << p) != 0 {
                    masks[p] |= 1u64 << data_index;
                }
                p += 1;
            }
            data_index += 1;
        }
        cw_pos += 1;
    }
    masks
}

/// The check byte of every byte value at every byte position of a word.
/// Each check bit, the overall parity included, is a parity over data
/// bits — linear over GF(2) — so a word's check byte is the XOR of its
/// eight bytes' entries.
const BYTE_CODES: [[u8; 256]; 8] = build_byte_codes();

const fn build_byte_codes() -> [[u8; 256]; 8] {
    let mut table = [[0u8; 256]; 8];
    let mut pos = 0;
    while pos < 8 {
        let mut byte = 0;
        while byte < 256 {
            let data = (byte as u64) << (pos * 8);
            let mut check = 0u8;
            let mut p = 0;
            while p < 7 {
                check |= (((data & COVERAGE[p]).count_ones() & 1) as u8) << p;
                p += 1;
            }
            let total = data.count_ones() + (check as u32).count_ones();
            table[pos][byte] = check | (((total & 1) as u8) << 7);
            byte += 1;
        }
        pos += 1;
    }
    table
}

/// Computes the 8 check bits for one 64-bit data word.
///
/// Bits 0..6: the seven Hamming parity groups; bit 7: overall parity,
/// extending the code to single-error-correct / double-error-detect.
pub fn ecc_word(data: u64) -> u8 {
    (data.to_le_bytes().iter().zip(&BYTE_CODES))
        .fold(0, |check, (&b, codes)| check ^ codes[b as usize])
}

/// Computes the per-word ECC bytes for a whole 64-byte block, packed into
/// one `u64` (byte `i` = ECC of word `i`).
///
/// # Example
///
/// ```
/// use anubis_nvm::Block;
/// use anubis_crypto::ecc;
/// let b = Block::filled(0x3C);
/// let code = ecc::ecc_block(&b);
/// assert!(ecc::check_block(&b, code));
/// assert!(!ecc::check_block(&Block::filled(0x3D), code));
/// ```
pub fn ecc_block(block: &Block) -> u64 {
    let mut out = [0u8; 8];
    for (i, o) in out.iter_mut().enumerate() {
        *o = ecc_word(block.word(i));
    }
    u64::from_le_bytes(out)
}

/// Verifies a block against its packed ECC word.
#[must_use]
pub fn check_block(block: &Block, ecc: u64) -> bool {
    ecc_block(block) == ecc
}

/// The last codeword position: 64 data bits and seven check bits fill
/// positions 1..=71 (the overall parity bit has no position).
const LAST_POS: usize = 71;

/// Codeword-position → data-bit-index table for syndrome decoding:
/// position `p` (1..=71) maps to its data bit, or `NOT_DATA` when `p` is
/// a power of two (a check-bit position).
const NOT_DATA: u8 = 0xFF;
const POS_TO_DATA: [u8; LAST_POS + 1] = build_pos_to_data();

const fn build_pos_to_data() -> [u8; LAST_POS + 1] {
    let mut table = [NOT_DATA; LAST_POS + 1];
    let mut data_index = 0u8;
    let mut cw_pos = 1usize;
    while cw_pos <= LAST_POS {
        if !(cw_pos as u64).is_power_of_two() {
            table[cw_pos] = data_index;
            data_index += 1;
        }
        cw_pos += 1;
    }
    table
}

/// Outcome of SEC-DED decoding one 72-bit codeword.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordDecode {
    /// Codeword was consistent; data returned unmodified.
    Clean,
    /// A single-bit error (in the data or the check bits) was corrected.
    Corrected,
    /// Two or more bit errors: detected but not correctable.
    Uncorrectable,
}

/// SEC-DED syndrome decode of one data word against its check byte.
///
/// Returns the (possibly corrected) data word and what happened. A
/// single flipped bit anywhere in the 72-bit codeword is repaired; an
/// even number of flips is reported as [`WordDecode::Uncorrectable`].
pub fn correct_word(data: u64, check: u8) -> (u64, WordDecode) {
    let recomputed = ecc_word(data);
    // Syndrome over the seven Hamming groups; the extended bit gives the
    // overall parity of the received 72-bit codeword.
    let syndrome = (recomputed ^ check) & 0x7F;
    let overall_odd =
        (data.count_ones() + (check & 0x7F).count_ones() + u32::from(check >> 7)) & 1 == 1;
    match (syndrome, overall_odd) {
        (0, false) => (data, WordDecode::Clean),
        // Overall parity flipped but no group disagrees: the error is in
        // the extended parity bit itself. Data is intact.
        (0, true) => (data, WordDecode::Corrected),
        (s, true) => {
            // A syndrome that names no position: at least three flips.
            let pos = s as usize;
            if pos > LAST_POS {
                return (data, WordDecode::Uncorrectable);
            }
            match POS_TO_DATA[pos] {
                NOT_DATA => (data, WordDecode::Corrected), // flipped check bit
                bit => (data ^ (1u64 << bit), WordDecode::Corrected),
            }
        }
        // Nonzero syndrome with even overall parity: double error.
        (_, false) => (data, WordDecode::Uncorrectable),
    }
}

/// Outcome of SEC-DED decoding a 64-byte block against its packed ECC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockDecode {
    /// The block with any single-bit-per-word errors repaired.
    pub data: Block,
    /// How many of the eight words needed a correction.
    pub corrected_words: u32,
}

/// Decodes a whole block word-by-word, repairing one flipped bit per
/// 72-bit codeword. Returns `None` if any word is uncorrectable (≥2
/// flips in one codeword); callers map that to their own typed error.
#[must_use]
pub fn correct_block(block: &Block, ecc: u64) -> Option<BlockDecode> {
    let checks = ecc.to_le_bytes();
    let mut words = block.words();
    let mut corrected_words = 0u32;
    for (i, w) in words.iter_mut().enumerate() {
        let (fixed, status) = correct_word(*w, checks[i]);
        match status {
            WordDecode::Clean => {}
            WordDecode::Corrected => {
                *w = fixed;
                corrected_words += 1;
            }
            WordDecode::Uncorrectable => return None,
        }
    }
    Some(BlockDecode {
        data: Block::from_words(words),
        corrected_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_nvm::SplitMix64;

    /// The check byte as seven masked parities plus the overall parity:
    /// the reference for the table-driven form.
    fn ecc_word_popcount(data: u64) -> u8 {
        let mut check: u8 = 0;
        for (p, mask) in COVERAGE.iter().enumerate() {
            check |= (((data & mask).count_ones() & 1) as u8) << p;
        }
        let total = data.count_ones() + (check as u32).count_ones();
        check | (((total & 1) as u8) << 7)
    }

    #[test]
    fn ecc_word_matches_the_popcount_reference() {
        assert_eq!(ecc_word(0), ecc_word_popcount(0));
        assert_eq!(ecc_word(u64::MAX), ecc_word_popcount(u64::MAX));
        for bit in 0..64 {
            let w = 1u64 << bit;
            assert_eq!(ecc_word(w), ecc_word_popcount(w), "bit {bit}");
        }
        for pos in 0..8 {
            for byte in 0..=255u64 {
                let w = byte << (pos * 8);
                assert_eq!(ecc_word(w), ecc_word_popcount(w), "byte {byte:#x} at {pos}");
            }
        }
        let mut rng = SplitMix64::new(0xECC);
        for _ in 0..100_000 {
            let w = rng.next_u64();
            assert_eq!(ecc_word(w), ecc_word_popcount(w), "word {w:#x}");
        }
    }

    #[test]
    fn ecc_is_deterministic() {
        assert_eq!(ecc_word(0xDEAD_BEEF), ecc_word(0xDEAD_BEEF));
        assert_eq!(ecc_word(0), ecc_word(0));
    }

    #[test]
    fn zero_word_has_zero_ecc() {
        assert_eq!(ecc_word(0), 0);
    }

    #[test]
    fn single_bit_flips_change_the_code() {
        // SEC property: every single-bit data error must produce a nonzero,
        // unique syndrome — hence a different check byte.
        let base = 0xA5A5_5A5A_0F0F_F0F0u64;
        let code = ecc_word(base);
        let mut seen = std::collections::HashSet::new();
        for bit in 0..64 {
            let flipped = ecc_word(base ^ (1u64 << bit));
            assert_ne!(flipped, code, "bit {bit} undetected");
            assert!(seen.insert(flipped ^ code), "bit {bit} shares a syndrome");
        }
    }

    #[test]
    fn double_bit_flips_detected() {
        let base = 0x0123_4567_89AB_CDEFu64;
        let code = ecc_word(base);
        for (a, b) in [(0usize, 1usize), (3, 40), (62, 63), (0, 63)] {
            let flipped = base ^ (1u64 << a) ^ (1u64 << b);
            assert_ne!(ecc_word(flipped), code, "double error ({a},{b}) undetected");
        }
    }

    #[test]
    fn block_check_roundtrip() {
        let b = Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
        let code = ecc_block(&b);
        assert!(check_block(&b, code));
        let mut tampered = b;
        tampered.flip_bit(200);
        assert!(!check_block(&tampered, code));
        assert!(!check_block(&b, code ^ 1));
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let base = 0xFACE_B00C_1234_5678u64;
        let check = ecc_word(base);
        // Data-bit flips.
        for bit in 0..64 {
            let (fixed, status) = correct_word(base ^ (1u64 << bit), check);
            assert_eq!(status, WordDecode::Corrected, "bit {bit}");
            assert_eq!(fixed, base, "bit {bit}");
        }
        // Check-bit flips (including the extended parity bit): data is
        // returned untouched.
        for bit in 0..8 {
            let (fixed, status) = correct_word(base, check ^ (1 << bit));
            assert_eq!(status, WordDecode::Corrected, "check bit {bit}");
            assert_eq!(fixed, base, "check bit {bit}");
        }
        // Clean codeword decodes clean.
        assert_eq!(correct_word(base, check), (base, WordDecode::Clean));
    }

    #[test]
    fn double_bit_errors_are_uncorrectable_not_miscorrected() {
        let base = 0x0123_4567_89AB_CDEFu64;
        let check = ecc_word(base);
        for (a, b) in [(0usize, 1usize), (3, 40), (62, 63), (0, 63), (17, 18)] {
            let garbled = base ^ (1u64 << a) ^ (1u64 << b);
            let (_, status) = correct_word(garbled, check);
            assert_eq!(status, WordDecode::Uncorrectable, "pair ({a},{b})");
        }
    }

    /// The codeword has 71 positions (64 data bits, seven check bits)
    /// plus the overall parity: a syndrome past 71 names no bit, so the
    /// word is uncorrectable. Three data-bit errors reach such syndromes.
    #[test]
    fn a_syndrome_past_the_last_position_is_uncorrectable() {
        assert_eq!(correct_word(0, 0xC8), (0, WordDecode::Uncorrectable));
        let mut past_the_end = 0;
        for a in 0..64 {
            for b in a + 1..64 {
                for c in b + 1..64 {
                    let garbled = (1u64 << a) ^ (1u64 << b) ^ (1u64 << c);
                    let (fixed, status) = correct_word(garbled, 0);
                    match status {
                        WordDecode::Uncorrectable => past_the_end += 1,
                        // A miscorrection flips at most one more bit.
                        _ => assert!((fixed ^ garbled).count_ones() <= 1, "({a},{b},{c})"),
                    }
                }
            }
        }
        // 178 of them at syndrome 72, the rest at 73..=127.
        assert_eq!(past_the_end, 9_905);
    }

    #[test]
    fn block_correction_repairs_one_flip_per_word() {
        let b = Block::from_words([11, 22, 33, 44, 55, 66, 77, 88]);
        let code = ecc_block(&b);
        let mut hit = b;
        hit.flip_bit(5); // word 0
        hit.flip_bit(64 + 9); // word 1
        hit.flip_bit(7 * 64 + 63); // word 7
        let decoded = correct_block(&hit, code).expect("correctable");
        assert_eq!(decoded.data, b);
        assert_eq!(decoded.corrected_words, 3);

        let mut dead = b;
        dead.flip_bit(0);
        dead.flip_bit(1); // two flips in word 0
        assert!(correct_block(&dead, code).is_none());
    }

    #[test]
    fn random_words_rarely_match_foreign_ecc() {
        // The Osiris property: a pseudorandom (mis-decrypted) word should
        // fail the check. With 8 check bits per word and 8 words, a full
        // block passes spuriously with probability ~2^-64; spot-check that
        // no trivial aliasing exists across a few thousand words.
        let mut mismatches = 0u32;
        let total = 4096u64;
        for i in 0..total {
            let w = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            if ecc_word(w) == ecc_word(w ^ 0xFFFF) {
                continue;
            }
            mismatches += 1;
        }
        assert!(mismatches as u64 > total * 9 / 10);
    }
}
