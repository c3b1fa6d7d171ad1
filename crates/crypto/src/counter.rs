//! The split-counter scheme (paper §2.2, Fig. 1).

use anubis_nvm::Block;
use core::fmt;

/// Errors from counter arithmetic during recovery replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CounterError {
    /// Replaying Osiris trials would advance a minor counter past its
    /// 7-bit overflow boundary — more lost updates than the stop-loss
    /// window permits, which a correct persist schedule never produces.
    /// Reachable from corrupted NVM (a torn counter-block write can
    /// present an arbitrary stale minor), so it must surface as an error,
    /// not a panic.
    StopLossExceeded {
        /// The line whose minor counter would overflow.
        line: usize,
        /// The stale minor counter value read from NVM.
        minor: u8,
        /// The advance that was requested.
        advance: u8,
    },
}

impl fmt::Display for CounterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterError::StopLossExceeded {
                line,
                minor,
                advance,
            } => write!(
                f,
                "advancing minor counter for line {line} by {advance} from {minor} \
                 would cross the overflow boundary (stop-loss exceeded)"
            ),
        }
    }
}

impl std::error::Error for CounterError {}

/// Number of minor counters per counter block — one per 64-byte line of a
/// 4 KiB page.
pub const MINOR_COUNTERS_PER_BLOCK: usize = 64;

/// Maximum value of a 7-bit minor counter before it overflows.
pub const MINOR_MAX: u8 = 0x7F;

/// Result of incrementing a minor counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterIncrement {
    /// The minor counter advanced; only this line needs re-encryption.
    Minor,
    /// The minor counter overflowed: the major counter advanced, every
    /// minor counter in the block was reset, and the caller must
    /// re-encrypt the whole page with the new major counter.
    MajorOverflow,
}

/// A split-counter block: one 64-bit major counter shared by a 4 KiB page
/// plus 64 seven-bit minor counters (one per cache line), packed into
/// exactly one 64-byte block (8 B major + 64 × 7 bit = 56 B minors).
///
/// # Example
///
/// ```
/// use anubis_crypto::{SplitCounterBlock, CounterIncrement};
/// let mut ctr = SplitCounterBlock::new();
/// assert_eq!(ctr.increment(3), CounterIncrement::Minor);
/// assert_eq!(ctr.minor(3), 1);
/// assert_eq!(ctr.major(), 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SplitCounterBlock {
    major: u64,
    minors: [u8; MINOR_COUNTERS_PER_BLOCK],
}

impl Default for SplitCounterBlock {
    fn default() -> Self {
        SplitCounterBlock {
            major: 0,
            minors: [0; MINOR_COUNTERS_PER_BLOCK],
        }
    }
}

impl SplitCounterBlock {
    /// A fresh counter block with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter block with the given major counter and all minors zero —
    /// the state of a page right after re-encryption.
    pub fn with_major(major: u64) -> Self {
        SplitCounterBlock {
            major,
            minors: [0; MINOR_COUNTERS_PER_BLOCK],
        }
    }

    /// The page's major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The minor counter for line `line` of the page.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn minor(&self, line: usize) -> u8 {
        self.minors[line]
    }

    /// Increments the minor counter for `line`.
    ///
    /// On overflow the major counter advances and **all** minors reset to
    /// zero; the caller must re-encrypt the page (paper §2.2).
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn increment(&mut self, line: usize) -> CounterIncrement {
        if self.minors[line] == MINOR_MAX {
            self.major += 1;
            self.minors = [0; MINOR_COUNTERS_PER_BLOCK];
            self.minors[line] = 1;
            CounterIncrement::MajorOverflow
        } else {
            self.minors[line] += 1;
            CounterIncrement::Minor
        }
    }

    /// Advances the minor counter for `line` by `n` without page
    /// re-encryption — used by recovery code to replay Osiris trials.
    ///
    /// Recovery of an *intact* counter block never needs to cross an
    /// overflow boundary (the stop-loss persist happens before it), but a
    /// corrupted block read back from NVM can present an arbitrary stale
    /// minor, so the boundary is a typed error rather than a panic: a torn
    /// write must never abort the recovering process.
    ///
    /// # Errors
    ///
    /// [`CounterError::StopLossExceeded`] if the addition would overflow
    /// the 7-bit minor counter. The counter block is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn advance_minor(&mut self, line: usize, n: u8) -> Result<(), CounterError> {
        let v = self.minors[line].checked_add(n).filter(|&v| v <= MINOR_MAX);
        match v {
            Some(v) => {
                self.minors[line] = v;
                Ok(())
            }
            None => Err(CounterError::StopLossExceeded {
                line,
                minor: self.minors[line],
                advance: n,
            }),
        }
    }

    /// Serializes into a 64-byte block: word 0 = major (LE), bytes 8..64 =
    /// 64 minors packed 7 bits each, as a little-endian bit stream. Each
    /// run of eight minors is one 56-bit word in seven bytes.
    pub fn to_block(&self) -> Block {
        let mut b = Block::zeroed();
        b.set_word(0, self.major);
        let groups = b.as_bytes_mut()[8..].chunks_exact_mut(7);
        for (out, minors) in groups.zip(self.minors.chunks_exact(8)) {
            let packed = (minors.iter().rev()).fold(0u64, |w, &m| (w << 7) | u64::from(m & 0x7F));
            out.copy_from_slice(&packed.to_le_bytes()[..7]);
        }
        b
    }

    /// Deserializes from a 64-byte block written by
    /// [`SplitCounterBlock::to_block`].
    pub fn from_block(b: &Block) -> Self {
        let bytes = b.as_bytes();
        let mut minors = [0u8; MINOR_COUNTERS_PER_BLOCK];
        for (g, group) in minors.chunks_exact_mut(8).enumerate() {
            // The eight bytes ending at the group's last one, shifted past
            // the byte before it, stay inside the block for every group.
            let at = 7 + 7 * g;
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[at..at + 8]);
            let packed = u64::from_le_bytes(word) >> 8;
            for (j, m) in group.iter_mut().enumerate() {
                *m = (packed >> (7 * j)) as u8 & 0x7F;
            }
        }
        SplitCounterBlock {
            major: b.word(0),
            minors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_nvm::SplitMix64;

    /// Packs the minors one at a time, each straddling at most two
    /// bytes: the reference for the word-wise packing.
    fn to_block_bytewise(c: &SplitCounterBlock) -> Block {
        let mut b = Block::zeroed();
        b.set_word(0, c.major);
        let bytes = b.as_bytes_mut();
        for (i, &m) in c.minors.iter().enumerate() {
            let bit = i * 7;
            let byte = 8 + bit / 8;
            let off = bit % 8;
            bytes[byte] |= (m & 0x7F) << off;
            if off > 1 {
                bytes[byte + 1] |= (m & 0x7F) >> (8 - off);
            }
        }
        b
    }

    /// Unpacks the minors one at a time (the reference for `from_block`).
    fn from_block_bytewise(b: &Block) -> SplitCounterBlock {
        let bytes = b.as_bytes();
        let mut minors = [0u8; MINOR_COUNTERS_PER_BLOCK];
        for (i, m) in minors.iter_mut().enumerate() {
            let bit = i * 7;
            let byte = 8 + bit / 8;
            let off = bit % 8;
            let mut v = (bytes[byte] >> off) as u16;
            if off > 1 {
                v |= (bytes[byte + 1] as u16) << (8 - off);
            }
            *m = (v & 0x7F) as u8;
        }
        SplitCounterBlock {
            major: b.word(0),
            minors,
        }
    }

    #[test]
    fn packing_matches_the_bytewise_reference() {
        let mut rng = SplitMix64::new(0xC72);
        for round in 0..2_000 {
            // Minors with arbitrary high bits: packing keeps the low 7.
            let c = SplitCounterBlock {
                major: rng.next_u64(),
                minors: core::array::from_fn(|_| rng.next_u64() as u8),
            };
            assert_eq!(c.to_block(), to_block_bytewise(&c), "round {round}");
            // Any block parses alike, not only an encoded one.
            let noise = Block::from_words(core::array::from_fn(|_| rng.next_u64()));
            assert_eq!(
                SplitCounterBlock::from_block(&noise),
                from_block_bytewise(&noise),
                "round {round}"
            );
        }
    }

    #[test]
    fn increment_and_read_back() {
        let mut c = SplitCounterBlock::new();
        for _ in 0..5 {
            assert_eq!(c.increment(10), CounterIncrement::Minor);
        }
        assert_eq!(c.minor(10), 5);
        assert_eq!(c.minor(9), 0);
        assert_eq!(c.major(), 0);
    }

    #[test]
    fn overflow_bumps_major_and_resets_minors() {
        let mut c = SplitCounterBlock::new();
        c.increment(1);
        for _ in 0..MINOR_MAX {
            c.increment(0);
        }
        assert_eq!(c.minor(0), MINOR_MAX);
        assert_eq!(c.increment(0), CounterIncrement::MajorOverflow);
        assert_eq!(c.major(), 1);
        assert_eq!(c.minor(0), 1, "overflowing line restarts at 1");
        assert_eq!(c.minor(1), 0, "other minors reset");
    }

    #[test]
    fn block_roundtrip_exhaustive_pattern() {
        let mut c = SplitCounterBlock::new();
        c.major = 0xDEAD_BEEF_CAFE_F00D;
        for i in 0..MINOR_COUNTERS_PER_BLOCK {
            c.minors[i] = ((i * 37 + 5) % 128) as u8;
        }
        let b = c.to_block();
        assert_eq!(SplitCounterBlock::from_block(&b), c);
    }

    #[test]
    fn block_roundtrip_extremes() {
        let mut c = SplitCounterBlock::new();
        c.major = u64::MAX;
        c.minors = [MINOR_MAX; MINOR_COUNTERS_PER_BLOCK];
        let b = c.to_block();
        assert_eq!(SplitCounterBlock::from_block(&b), c);

        let zero = SplitCounterBlock::new();
        assert_eq!(SplitCounterBlock::from_block(&zero.to_block()), zero);
        assert!(zero.to_block().is_zeroed());
    }

    #[test]
    fn packing_uses_exactly_64_bytes() {
        // The last minor occupies bits 441..448 relative to byte 8, i.e.
        // ends exactly at byte 64. Verify the last byte carries data.
        let mut c = SplitCounterBlock::new();
        c.minors[63] = MINOR_MAX;
        let b = c.to_block();
        assert_ne!(b.as_bytes()[63], 0);
    }

    #[test]
    fn advance_minor_replays_increments() {
        let mut a = SplitCounterBlock::new();
        let mut b = SplitCounterBlock::new();
        for _ in 0..7 {
            a.increment(4);
        }
        b.advance_minor(4, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn advance_past_overflow_is_a_typed_error_not_a_panic() {
        let mut c = SplitCounterBlock::new();
        assert_eq!(
            c.advance_minor(0, MINOR_MAX + 1),
            Err(CounterError::StopLossExceeded {
                line: 0,
                minor: 0,
                advance: MINOR_MAX + 1,
            })
        );
        // The failed advance must leave the block untouched.
        assert_eq!(c, SplitCounterBlock::new());

        // Boundary cases: up to MINOR_MAX is fine, one past is not.
        assert!(c.advance_minor(5, MINOR_MAX).is_ok());
        assert_eq!(c.minor(5), MINOR_MAX);
        let err = c.advance_minor(5, 1).unwrap_err();
        assert!(err.to_string().contains("stop-loss"));
        assert_eq!(c.minor(5), MINOR_MAX);

        // u8 wrap-around (corrupted stale minor + large gap) is caught too.
        let mut d = SplitCounterBlock::new();
        d.advance_minor(0, MINOR_MAX).unwrap();
        assert!(d.advance_minor(0, 200).is_err());
    }
}
