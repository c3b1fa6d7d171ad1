//! Shadow-table entry formats (paper Fig. 9).
//!
//! * [`ShadowAddrEntry`] — one SCT/SMT block (AGIT, Fig. 9a): the address
//!   (tree position) of the metadata block resident in the corresponding
//!   cache slot. Only ~3 words of the 64-byte block are used; the table is
//!   sized one block per cache slot, exactly as in the paper (Table 1:
//!   256 KB SCT for a 256 KB counter cache).
//! * [`StEntry`] — one ASIT Shadow Table block (Fig. 9b): the node's
//!   device address (8 B), its 56-bit MAC (7 B) and 49-bit LSBs of each of
//!   the node's eight counters (49 B) — 64 bytes exactly.

use anubis_itree::NodeId;
use anubis_nvm::{Block, BlockAddr};

/// Magic word marking a valid SCT/SMT entry (never-written slots are
/// all-zero and therefore invalid).
const SHADOW_VALID: u64 = 0x414e_5542_4953_0001;

/// One Shadow Counter Table / Shadow Merkle-tree Table entry: the tree
/// position of the block occupying the mirrored cache slot.
///
/// # Example
///
/// ```
/// use anubis::ShadowAddrEntry;
/// use anubis_itree::NodeId;
///
/// let e = ShadowAddrEntry::new(NodeId::new(2, 77));
/// let block = e.to_block();
/// assert_eq!(ShadowAddrEntry::from_block(&block), Some(e));
/// assert_eq!(ShadowAddrEntry::from_block(&Default::default()), None);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShadowAddrEntry {
    node: NodeId,
}

impl ShadowAddrEntry {
    /// Creates an entry recording `node`.
    pub fn new(node: NodeId) -> Self {
        ShadowAddrEntry { node }
    }

    /// The recorded tree position.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Serializes to a shadow block.
    pub fn to_block(&self) -> Block {
        let mut b = Block::zeroed();
        b.set_word(0, SHADOW_VALID);
        b.set_word(1, self.node.level as u64);
        b.set_word(2, self.node.index);
        b
    }

    /// Parses a shadow block; `None` for invalid (never-written) slots.
    pub fn from_block(b: &Block) -> Option<Self> {
        (b.word(0) == SHADOW_VALID).then(|| ShadowAddrEntry {
            node: NodeId::new(b.word(1) as usize, b.word(2)),
        })
    }
}

/// Width of the per-counter LSB field in an ST entry.
pub const ST_LSB_FIELD_BITS: u32 = 49;

const LSB_FIELD_MASK: u64 = (1 << ST_LSB_FIELD_BITS) - 1;

/// Byte offset of the packed LSB fields in an ST entry block.
const LSB_START: usize = 15;

/// One ASIT Shadow Table entry: everything needed to restore the mirrored
/// metadata-cache slot after a crash.
///
/// Layout (64 bytes): `addr` (8 B LE) · `mac` (7 B LE) · eight 49-bit LSB
/// fields packed little-endian-bitwise into the remaining 49 bytes.
/// A zero `addr` marks an invalid (never used) slot — the layout places
/// the data region at device address 0, so no metadata node has address 0.
///
/// # Example
///
/// ```
/// use anubis::StEntry;
/// use anubis_nvm::BlockAddr;
///
/// let e = StEntry::new(BlockAddr::new(0x1234), 0xAB_CDEF, [1, 2, 3, 4, 5, 6, 7, 8]);
/// assert_eq!(StEntry::from_block(&e.to_block()), Some(e));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StEntry {
    addr: BlockAddr,
    mac: u64,
    lsbs: [u64; 8],
}

impl StEntry {
    /// Creates an entry.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is 0 (reserved as the invalid marker), `mac`
    /// exceeds 56 bits, or any LSB field exceeds 49 bits.
    pub fn new(addr: BlockAddr, mac: u64, lsbs: [u64; 8]) -> Self {
        assert!(
            addr.index() != 0,
            "address 0 is reserved as the invalid ST marker"
        );
        assert!(mac < (1 << 56), "ST MAC must fit 56 bits");
        for l in lsbs {
            assert!(l < (1 << ST_LSB_FIELD_BITS), "LSB field must fit 49 bits");
        }
        StEntry { addr, mac, lsbs }
    }

    /// Device address of the mirrored metadata node.
    pub fn addr(&self) -> BlockAddr {
        self.addr
    }

    /// The node's 56-bit MAC at tracking time.
    pub fn mac(&self) -> u64 {
        self.mac
    }

    /// The 49-bit LSBs of the node's eight counters.
    pub fn lsbs(&self) -> [u64; 8] {
        self.lsbs
    }

    /// Serializes to a 64-byte shadow block.
    pub fn to_block(&self) -> Block {
        let mut b = Block::zeroed();
        let bytes = b.as_bytes_mut();
        bytes[0..8].copy_from_slice(&self.addr.index().to_le_bytes());
        bytes[8..15].copy_from_slice(&self.mac.to_le_bytes()[..7]);
        // The eight 49-bit fields, as one little-endian bit stream from
        // byte 15, go out through an accumulator 8 bytes at a time.
        let out = &mut bytes[LSB_START..];
        let (mut acc, mut bits, mut next) = (0u128, 0, 0);
        for &v in &self.lsbs {
            acc |= u128::from(v) << bits;
            bits += ST_LSB_FIELD_BITS;
            if bits >= 64 {
                out[next..next + 8].copy_from_slice(&(acc as u64).to_le_bytes());
                (acc, bits, next) = (acc >> 64, bits - 64, next + 8);
            }
        }
        let tail = out.len() - next;
        out[next..].copy_from_slice(&(acc as u64).to_le_bytes()[..tail]);
        b
    }

    /// Parses a shadow block; `None` for invalid slots (`addr == 0`).
    pub fn from_block(b: &Block) -> Option<Self> {
        let bytes = b.as_bytes();
        let addr = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        if addr == 0 {
            return None;
        }
        let mut mac_bytes = [0u8; 8];
        mac_bytes[..7].copy_from_slice(&bytes[8..15]);
        let mac = u64::from_le_bytes(mac_bytes);
        let input = &bytes[LSB_START..];
        let (mut acc, mut bits, mut next) = (0u128, 0, 0);
        let mut lsbs = [0u64; 8];
        for l in &mut lsbs {
            if bits < ST_LSB_FIELD_BITS {
                let n = (input.len() - next).min(8);
                let mut word = [0u8; 8];
                word[..n].copy_from_slice(&input[next..next + n]);
                acc |= u128::from(u64::from_le_bytes(word)) << bits;
                (bits, next) = (bits + 8 * n as u32, next + n);
            }
            *l = acc as u64 & LSB_FIELD_MASK;
            (acc, bits) = (acc >> ST_LSB_FIELD_BITS, bits - ST_LSB_FIELD_BITS);
        }
        Some(StEntry {
            addr: BlockAddr::new(addr),
            mac,
            lsbs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_nvm::SplitMix64;

    /// Writes `width` bits of `value` at bit offset `start` into `buf`,
    /// one bit at a time: the reference for the word-wise packing.
    fn write_bits(buf: &mut [u8], start: u32, width: u32, value: u64) {
        for bit in 0..width {
            let v = (value >> bit) & 1;
            let pos = (start + bit) as usize;
            if v == 1 {
                buf[pos / 8] |= 1 << (pos % 8);
            } else {
                buf[pos / 8] &= !(1 << (pos % 8));
            }
        }
    }

    /// Reads `width` bits at bit offset `start` from `buf`, one at a time.
    fn read_bits(buf: &[u8], start: u32, width: u32) -> u64 {
        let mut out = 0u64;
        for bit in 0..width {
            let pos = (start + bit) as usize;
            if buf[pos / 8] & (1 << (pos % 8)) != 0 {
                out |= 1 << bit;
            }
        }
        out
    }

    #[test]
    fn st_entry_packs_as_the_bitwise_reference_does() {
        let mut rng = SplitMix64::new(0x57E7);
        for round in 0..500 {
            // Mix full-width, zero and narrow fields.
            let lsbs: [u64; 8] = core::array::from_fn(|_| match rng.gen_index(3) {
                0 => rng.next_u64() & LSB_FIELD_MASK,
                1 => 0,
                _ => rng.next_u64() & 0xFF,
            });
            let addr = BlockAddr::new(rng.next_u64() | 1);
            let mac = rng.next_u64() >> 8;
            let e = StEntry::new(addr, mac, lsbs);
            let block = e.to_block();
            let mut want = [0u8; 64];
            want[0..8].copy_from_slice(&addr.index().to_le_bytes());
            want[8..15].copy_from_slice(&mac.to_le_bytes()[..7]);
            for (i, &v) in lsbs.iter().enumerate() {
                let start = i as u32 * ST_LSB_FIELD_BITS;
                write_bits(&mut want[LSB_START..], start, ST_LSB_FIELD_BITS, v);
            }
            assert_eq!(block.as_bytes(), &want, "round {round}");
            // Parsing any block, not only an encoded one, agrees too.
            let mut noise = Block::from_words(core::array::from_fn(|_| rng.next_u64()));
            noise.set_word(0, addr.index());
            let parsed = StEntry::from_block(&noise).expect("nonzero addr");
            for (i, l) in parsed.lsbs().iter().enumerate() {
                let start = i as u32 * ST_LSB_FIELD_BITS;
                let bytes = &noise.as_bytes()[LSB_START..];
                assert_eq!(
                    *l,
                    read_bits(bytes, start, ST_LSB_FIELD_BITS),
                    "round {round}"
                );
            }
            assert_eq!(StEntry::from_block(&block), Some(e), "round {round}");
        }
    }

    #[test]
    fn shadow_addr_roundtrip_all_levels() {
        for level in 0..12 {
            for index in [0u64, 1, 0xFFFF_FFFF] {
                let e = ShadowAddrEntry::new(NodeId::new(level, index));
                assert_eq!(ShadowAddrEntry::from_block(&e.to_block()), Some(e));
            }
        }
    }

    #[test]
    fn zero_block_is_invalid() {
        assert_eq!(ShadowAddrEntry::from_block(&Block::zeroed()), None);
        assert_eq!(StEntry::from_block(&Block::zeroed()), None);
    }

    #[test]
    fn st_entry_roundtrip_extremes() {
        let max49 = (1u64 << 49) - 1;
        let e = StEntry::new(
            BlockAddr::new(u64::MAX),
            (1 << 56) - 1,
            [max49, 0, max49, 1, 2, max49 - 1, 12345, max49],
        );
        assert_eq!(StEntry::from_block(&e.to_block()), Some(e));
    }

    #[test]
    fn st_entry_uses_all_64_bytes() {
        let max49 = (1u64 << 49) - 1;
        let e = StEntry::new(BlockAddr::new(1), 0, [max49; 8]);
        let b = e.to_block();
        // Last LSB field ends at bit 15*8 + 8*49 = 512 exactly.
        assert_ne!(b.as_bytes()[63], 0);
    }

    #[test]
    fn st_fields_do_not_bleed() {
        // Each field isolated: set one, others must read zero.
        for i in 0..8 {
            let mut lsbs = [0u64; 8];
            lsbs[i] = (1u64 << 49) - 1;
            let e = StEntry::new(BlockAddr::new(7), 0x42, lsbs);
            let d = StEntry::from_block(&e.to_block()).unwrap();
            assert_eq!(d.lsbs(), lsbs, "field {i} bled");
            assert_eq!(d.mac(), 0x42);
            assert_eq!(d.addr(), BlockAddr::new(7));
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn st_addr_zero_rejected() {
        let _ = StEntry::new(BlockAddr::new(0), 0, [0; 8]);
    }

    #[test]
    #[should_panic(expected = "56 bits")]
    fn st_wide_mac_rejected() {
        let _ = StEntry::new(BlockAddr::new(1), 1 << 56, [0; 8]);
    }

    #[test]
    #[should_panic(expected = "49 bits")]
    fn st_wide_lsb_rejected() {
        let _ = StEntry::new(BlockAddr::new(1), 0, [1 << 49, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn bit_helpers_roundtrip() {
        let mut buf = [0u8; 16];
        write_bits(&mut buf, 3, 49, 0x1_2345_6789_ABCD);
        assert_eq!(read_bits(&buf, 3, 49), 0x1_2345_6789_ABCD);
        write_bits(&mut buf, 52, 49, 0xFFFF);
        assert_eq!(
            read_bits(&buf, 3, 49),
            0x1_2345_6789_ABCD,
            "neighbor untouched"
        );
        assert_eq!(read_bits(&buf, 52, 49), 0xFFFF);
    }
}
