//! Bad-block quarantine: a persistent remap table that retires
//! unrecoverable blocks into a spare region.
//!
//! When recovery concludes that a block's content cannot be restored (the
//! escalation ladder in `anubis::supervisor` exhausted ECC correction,
//! counter reconstruction and tree rebuild), the block is *quarantined*:
//! its address is remapped to a block from a reserved spare pool and the
//! original cells are never used again — the standard bad-block management
//! move of NAND/PCM controllers. Subsequent reads and writes through
//! [`crate::NvmDevice::try_read`] / [`crate::NvmDevice::try_write`] follow
//! the remap transparently; `peek`/`poke` and the tamper primitives stay
//! raw so tests and attackers keep addressing physical cells.
//!
//! The table itself must survive power loss, so it serializes to 64-byte
//! blocks ([`RemapTable::to_blocks`]) that the controllers persist into a
//! dedicated `qtable` region and reload with [`RemapTable::from_blocks`].

use crate::addr::BlockAddr;
use crate::block::Block;
use std::collections::BTreeMap;

/// Header magic for a serialized remap table ("ANBQUAR1").
const QTABLE_MAGIC: u64 = 0x414e_4251_5541_5231;

/// Remapped-address pairs packed per serialized block after the header.
const PAIRS_PER_BLOCK: usize = 4;

/// A malformed serialized remap table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuarantineError {
    /// The header block does not carry the expected magic.
    BadMagic,
    /// Fewer entry blocks than the header's entry count requires.
    Truncated,
}

impl core::fmt::Display for QuarantineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QuarantineError::BadMagic => write!(f, "quarantine table header magic mismatch"),
            QuarantineError::Truncated => write!(f, "quarantine table truncated"),
        }
    }
}

impl std::error::Error for QuarantineError {}

/// The persistent bad-block remap table plus its spare pool.
///
/// Deterministic by construction: mappings iterate in address order
/// (`BTreeMap`) and spares are consumed in pool order, so two runs that
/// quarantine the same blocks in the same order produce bit-identical
/// tables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RemapTable {
    map: BTreeMap<u64, u64>,
    spares: Vec<u64>,
    next_spare: u64,
    lost_lines: u64,
}

impl RemapTable {
    /// An empty table with no spare pool.
    pub fn new() -> Self {
        RemapTable::default()
    }

    /// Registers the spare pool (device block addresses reserved for
    /// remapping). A no-op once a pool is present, so repeated
    /// installation — or installation after a [`RemapTable::from_blocks`]
    /// reload — cannot reseat spares that are already in use
    /// (`next_spare` indexes into the original pool order).
    pub fn install_spares(&mut self, spares: Vec<BlockAddr>) {
        if self.spares.is_empty() {
            self.spares = spares.into_iter().map(BlockAddr::index).collect();
        }
    }

    /// Copies the spare pool from `other` (the pre-reload table) if this
    /// table has none — used when deserializing, since the pool is not
    /// part of the persistent image.
    pub fn inherit_pool(&mut self, other: &RemapTable) {
        if self.spares.is_empty() {
            self.spares = other.spares.clone();
        }
    }

    /// Quarantines `addr`: returns the spare block it now maps to, or the
    /// existing mapping if it was already quarantined. Once the spare
    /// pool is exhausted the block is retired *in place* (an identity
    /// mapping — the cells keep serving, but the line is marked bad), up
    /// to [`RemapTable::capacity`] total entries; beyond that the table
    /// is full and `None` is returned (the caller can only count the
    /// loss).
    pub fn quarantine(&mut self, addr: BlockAddr) -> Option<BlockAddr> {
        if let Some(&spare) = self.map.get(&addr.index()) {
            return Some(BlockAddr::new(spare));
        }
        if let Some(&spare) = self.spares.get(self.next_spare as usize) {
            self.next_spare += 1;
            self.map.insert(addr.index(), spare);
            return Some(BlockAddr::new(spare));
        }
        if (self.map.len() as u64) < self.capacity() {
            self.map.insert(addr.index(), addr.index());
            return Some(addr);
        }
        None
    }

    /// Maximum entries the table records: twice the spare pool, matching
    /// the `qtable` region the layouts reserve (remapped entries plus an
    /// equal budget of in-place retirements).
    pub fn capacity(&self) -> u64 {
        2 * self.spares.len() as u64
    }

    /// Whether `addr` has been quarantined.
    pub fn is_quarantined(&self, addr: BlockAddr) -> bool {
        self.map.contains_key(&addr.index())
    }

    /// The physical block backing `addr` (identity unless quarantined).
    pub fn resolve(&self, addr: BlockAddr) -> BlockAddr {
        match self.map.get(&addr.index()) {
            Some(&spare) => BlockAddr::new(spare),
            None => addr,
        }
    }

    /// Number of quarantined blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no block is quarantined.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Spare blocks still available.
    pub fn spares_left(&self) -> u64 {
        (self.spares.len() as u64).saturating_sub(self.next_spare)
    }

    /// Data lines whose content was permanently lost (counted by the
    /// scrub pass when it retires a line that held non-zero data).
    pub fn lost_lines(&self) -> u64 {
        self.lost_lines
    }

    /// Records `n` permanently lost data lines. Saturates: the count is
    /// reloaded from the image unverified, so it may already be at the
    /// top of its range.
    pub fn record_lost(&mut self, n: u64) {
        self.lost_lines = self.lost_lines.saturating_add(n);
    }

    /// Iterates `(original, spare)` mappings in address order.
    pub fn mappings(&self) -> impl Iterator<Item = (BlockAddr, BlockAddr)> + '_ {
        self.map
            .iter()
            .map(|(&o, &s)| (BlockAddr::new(o), BlockAddr::new(s)))
    }

    /// Number of 64-byte blocks [`RemapTable::to_blocks`] emits for
    /// `entries` mappings: one header plus packed pair blocks.
    pub fn blocks_for(entries: u64) -> u64 {
        1 + entries.div_ceil(PAIRS_PER_BLOCK as u64)
    }

    /// Serializes the table (header + packed `(orig, spare)` pairs). The
    /// spare pool is *not* serialized: it is a property of the layout and
    /// is re-installed on startup.
    pub fn to_blocks(&self) -> Vec<Block> {
        let mut out = Vec::with_capacity(Self::blocks_for(self.map.len() as u64) as usize);
        out.push(Block::from_words([
            QTABLE_MAGIC,
            self.map.len() as u64,
            self.lost_lines,
            self.next_spare,
            0,
            0,
            0,
            0,
        ]));
        let pairs: Vec<(u64, u64)> = self.map.iter().map(|(&o, &s)| (o, s)).collect();
        for chunk in pairs.chunks(PAIRS_PER_BLOCK) {
            let mut b = Block::zeroed();
            for (i, &(o, s)) in chunk.iter().enumerate() {
                b.set_word(2 * i, o);
                b.set_word(2 * i + 1, s);
            }
            out.push(b);
        }
        out
    }

    /// Deserializes a table written by [`RemapTable::to_blocks`]. The
    /// caller re-installs the spare pool afterwards.
    ///
    /// # Errors
    ///
    /// [`QuarantineError::BadMagic`] if the header is not a quarantine
    /// table, [`QuarantineError::Truncated`] if entry blocks are missing.
    pub fn from_blocks(blocks: &[Block]) -> Result<Self, QuarantineError> {
        let header = blocks.first().ok_or(QuarantineError::Truncated)?;
        if header.word(0) != QTABLE_MAGIC {
            return Err(QuarantineError::BadMagic);
        }
        let entries = header.word(1) as usize;
        let lost_lines = header.word(2);
        let next_spare = header.word(3);
        let need = entries.div_ceil(PAIRS_PER_BLOCK);
        if blocks.len() < 1 + need {
            return Err(QuarantineError::Truncated);
        }
        let mut map = BTreeMap::new();
        for e in 0..entries {
            let b = &blocks[1 + e / PAIRS_PER_BLOCK];
            let i = e % PAIRS_PER_BLOCK;
            map.insert(b.word(2 * i), b.word(2 * i + 1));
        }
        Ok(RemapTable {
            map,
            spares: Vec::new(),
            next_spare,
            lost_lines,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(start: u64, n: u64) -> Vec<BlockAddr> {
        (start..start + n).map(BlockAddr::new).collect()
    }

    #[test]
    fn quarantine_consumes_spares_in_order() {
        let mut t = RemapTable::new();
        t.install_spares(pool(100, 2));
        assert_eq!(t.quarantine(BlockAddr::new(5)), Some(BlockAddr::new(100)));
        assert_eq!(t.quarantine(BlockAddr::new(9)), Some(BlockAddr::new(101)));
        // Re-quarantine returns the existing mapping, no new spare.
        assert_eq!(t.quarantine(BlockAddr::new(5)), Some(BlockAddr::new(100)));
        // Pool exhausted: retired in place (identity mapping) until the
        // table itself is full.
        assert_eq!(t.quarantine(BlockAddr::new(7)), Some(BlockAddr::new(7)));
        assert!(t.is_quarantined(BlockAddr::new(7)));
        assert_eq!(t.resolve(BlockAddr::new(7)), BlockAddr::new(7));
        assert_eq!(t.len(), 3);
        assert_eq!(t.spares_left(), 0);
        assert_eq!(t.capacity(), 4);
        assert_eq!(t.quarantine(BlockAddr::new(8)), Some(BlockAddr::new(8)));
        assert_eq!(t.quarantine(BlockAddr::new(11)), None, "table full");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn resolve_redirects_only_quarantined() {
        let mut t = RemapTable::new();
        t.install_spares(pool(50, 4));
        t.quarantine(BlockAddr::new(3));
        assert_eq!(t.resolve(BlockAddr::new(3)), BlockAddr::new(50));
        assert_eq!(t.resolve(BlockAddr::new(4)), BlockAddr::new(4));
        assert!(t.is_quarantined(BlockAddr::new(3)));
        assert!(!t.is_quarantined(BlockAddr::new(4)));
    }

    #[test]
    fn serialization_roundtrips() {
        let mut t = RemapTable::new();
        t.install_spares(pool(1000, 9));
        for a in [1u64, 17, 2, 300, 4, 5, 60] {
            t.quarantine(BlockAddr::new(a));
        }
        t.record_lost(3);
        let blocks = t.to_blocks();
        assert_eq!(blocks.len() as u64, RemapTable::blocks_for(7));
        let mut back = RemapTable::from_blocks(&blocks).unwrap();
        back.install_spares(pool(1000, 9));
        assert_eq!(back.lost_lines(), 3);
        assert_eq!(back.len(), 7);
        for a in [1u64, 17, 2, 300, 4, 5, 60] {
            assert_eq!(
                back.resolve(BlockAddr::new(a)),
                t.resolve(BlockAddr::new(a))
            );
        }
        // Reload must not reseat spares already consumed.
        assert_eq!(
            back.quarantine(BlockAddr::new(99)),
            t.quarantine(BlockAddr::new(99))
        );
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert_eq!(
            RemapTable::from_blocks(&[]),
            Err(QuarantineError::Truncated)
        );
        assert_eq!(
            RemapTable::from_blocks(&[Block::filled(0xAB)]),
            Err(QuarantineError::BadMagic)
        );
        let mut t = RemapTable::new();
        t.install_spares(pool(10, 8));
        for a in 0..5u64 {
            t.quarantine(BlockAddr::new(100 + a));
        }
        let mut blocks = t.to_blocks();
        blocks.pop();
        assert_eq!(
            RemapTable::from_blocks(&blocks),
            Err(QuarantineError::Truncated)
        );
    }

    #[test]
    fn a_lost_line_count_at_the_top_of_its_range_saturates() {
        let mut header = RemapTable::new().to_blocks();
        header[0].set_word(2, u64::MAX);
        let mut t = RemapTable::from_blocks(&header).unwrap();
        t.record_lost(1);
        assert_eq!(t.lost_lines(), u64::MAX);
    }

    #[test]
    fn empty_table_serializes_to_header_only() {
        let t = RemapTable::new();
        let blocks = t.to_blocks();
        assert_eq!(blocks.len(), 1);
        let back = RemapTable::from_blocks(&blocks).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.lost_lines(), 0);
    }
}
