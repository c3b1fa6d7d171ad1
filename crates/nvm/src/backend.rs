//! Pluggable storage backends for the sparse NVM device.
//!
//! [`NvmDevice`](crate::NvmDevice) is generic over an [`NvmBackend`] that
//! owns the actual block contents. Two implementations exist:
//!
//! * [`MemBackend`] — the original process-lifetime hash map. Zero-cost,
//!   volatile across process death; the default everywhere.
//! * [`FileBackend`](crate::FileBackend) — a write-ahead-logged file image
//!   whose durability boundary is the acknowledgement: persisted bytes
//!   are always a whole-commit-group prefix of history holding every
//!   acknowledged operation, so a SIGKILLed process can be restarted
//!   against the image and recovered.
//!
//! The backend also hosts the *persistent register file*: a small set of
//! numbered 64-byte register images the controllers use to mirror their
//! on-chip persistent registers (tree root, reencryption log, shadow-table
//! root) so restart-entry recovery can restore them.

use crate::anchor::Freshness;
use crate::block::Block;
use crate::error::NvmError;
use std::collections::{BTreeMap, HashMap};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit checksum — the in-tree integrity check for WAL frames and
/// snapshot images (no external dependencies).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64-bit stream from `seed`, so multi-part inputs
/// (frame epoch ‖ payload) checksum without concatenating buffers.
pub(crate) fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Size and economy of a durable backend's write-ahead log, for the
/// controllers' telemetry. All zero for volatile backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Logical end of the log: header plus every committed frame.
    pub log_bytes: u64,
    /// Zero bytes already on disk past the logical end, which the next
    /// frames land in.
    pub slack_bytes: u64,
    /// Records that never became frame bytes of their own: overwritten
    /// in place by a later record of the same frame, or equal to what
    /// the log already replays for their address.
    pub records_coalesced: u64,
}

/// Storage abstraction behind [`NvmDevice`](crate::NvmDevice).
///
/// Implementations own the sparse block map plus the persistent register
/// file. The `Send + Sync` supertraits let recovery lanes share a device
/// reference across threads.
///
/// # Durability contract
///
/// [`NvmBackend::store`], [`NvmBackend::store_reg`] and
/// [`NvmBackend::journal`] may buffer; only [`NvmBackend::barrier`] makes
/// buffered records durable, and it must do so atomically and in order (a
/// torn barrier must be indistinguishable from no barrier on reopen, and
/// replaying the barriers in order must yield, per address and per
/// register, the last image buffered — a backend may drop a record that
/// a later one of the same barrier supersedes, or that repeats what the
/// log already yields). When `barrier` returns `Ok` the records are on
/// the medium: [`FileBackend`](crate::FileBackend) has `sync_data`ed the
/// whole frame and then sealed the freshness anchor. That sync commits
/// file contents only — the frame lands in zero-filled slack whose
/// length and blocks an earlier `sync_all` made durable — which makes it
/// cheaper, not weaker.
///
/// `barrier` is called where durability becomes *observable*, not where
/// the simulated hardware persists: a commit group is persistent against
/// a simulated power failure the moment it is drained, but it only
/// journals here. The callers are
///
/// * the controllers, exactly once at the end of every public operation
///   (`read` / `write` / `write_batch` / `shutdown_flush`, on `Ok` and on
///   `Err`) through [`PersistenceDomain::barrier`](crate::PersistenceDomain::barrier)
///   — an operation is acknowledged iff that barrier returned, and all
///   the commit groups it produced share one barrier;
/// * the persistence domain itself on the paths that model the platform
///   rather than an operation: the ADR flush of a (fault-injected or
///   explicit) power failure, the REDO pass at power-up, an idle-time
///   WPQ drain, and snapshot capture / restore.
///
/// Because a barrier covers a whole number of commit groups in commit
/// order, each preceded by its register mirrors, a reopened image is
/// always a group-prefix of history that contains every acknowledged
/// operation; a barrier that never completed removes its operation whole.
pub trait NvmBackend: std::fmt::Debug + Send + Sync {
    /// Loads the block at physical index `phys`, if ever stored.
    fn load(&self, phys: u64) -> Option<Block>;

    /// Stores a block at physical index `phys`.
    fn store(&mut self, phys: u64, block: Block);

    /// Number of distinct physical blocks ever stored (materialized
    /// footprint).
    fn touched(&self) -> usize;

    /// Every stored block, sorted by physical index.
    fn entries(&self) -> Vec<(u64, Block)>;

    /// Stores one persistent-register image.
    fn store_reg(&mut self, idx: u8, block: Block);

    /// Loads a persistent-register image.
    fn reg(&self, idx: u8) -> Option<Block>;

    /// Every register image, sorted by index.
    fn regs(&self) -> Vec<(u8, Block)>;

    /// Journals a write that is in the persistent domain but still
    /// WPQ-resident in this process: durable backends must replay it on
    /// reopen without updating the live block map (the in-process WPQ
    /// still holds it). Volatile backends ignore it.
    fn journal(&mut self, phys: u64, block: Block) {
        let _ = (phys, block);
    }

    /// Makes everything stored/journaled so far durable.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] when the underlying medium fails.
    fn barrier(&mut self) -> Result<(), NvmError> {
        Ok(())
    }

    /// Power died (write cut fired mid-recovery): discard unflushed
    /// journal records and turn every subsequent [`NvmBackend::barrier`]
    /// into a no-op — a dying platform flushes nothing more.
    fn suppress_flushes(&mut self) {}

    /// The backend's current freshness epoch: a monotonic counter bumped
    /// on every flushing barrier (so: once per acknowledged operation
    /// that wrote), compaction, and snapshot by durable backends. Volatile backends report 0 — within one process there is
    /// no restart for a rollback to hide behind.
    fn epoch(&self) -> u64 {
        0
    }

    /// What the freshness-anchor check concluded when this backend was
    /// opened. [`Freshness::Untracked`] for volatile or un-anchored
    /// backends.
    fn freshness(&self) -> Freshness {
        Freshness::Untracked
    }

    /// Explicitly advances the freshness epoch (snapshot capture point),
    /// making the bump durable. No-op for volatile backends.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] when the underlying medium fails.
    fn bump_epoch(&mut self) -> Result<(), NvmError> {
        Ok(())
    }

    /// Structurally damaged WAL frames discarded when the image was
    /// opened (torn tails truncated away) — the source feeding the
    /// `wal_rejected_total` telemetry counter.
    fn frames_rejected(&self) -> u64 {
        0
    }

    /// Log size, preallocated slack and coalesced-record count of a
    /// durable backend — the `wal_log_bytes` / `wal_slack_bytes` /
    /// `wal_records_coalesced_total` telemetry.
    fn wal_stats(&self) -> WalStats {
        WalStats::default()
    }
}

/// The original in-memory backend: a sparse hash map, volatile across
/// process death. [`NvmBackend::barrier`] is a no-op — within one process
/// the map itself is the persistence model.
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    store: HashMap<u64, Block>,
    regs: BTreeMap<u8, Block>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NvmBackend for MemBackend {
    fn load(&self, phys: u64) -> Option<Block> {
        self.store.get(&phys).copied()
    }

    fn store(&mut self, phys: u64, block: Block) {
        self.store.insert(phys, block);
    }

    fn touched(&self) -> usize {
        self.store.len()
    }

    fn entries(&self) -> Vec<(u64, Block)> {
        let mut v: Vec<_> = self.store.iter().map(|(&k, &b)| (k, b)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    fn store_reg(&mut self, idx: u8, block: Block) {
        self.regs.insert(idx, block);
    }

    fn reg(&self, idx: u8) -> Option<Block> {
        self.regs.get(&idx).copied()
    }

    fn regs(&self) -> Vec<(u8, Block)> {
        self.regs.iter().map(|(&i, &b)| (i, b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_roundtrip() {
        let mut b = MemBackend::new();
        assert_eq!(b.load(7), None);
        b.store(7, Block::filled(0xAA));
        b.store(3, Block::filled(0xBB));
        assert_eq!(b.load(7), Some(Block::filled(0xAA)));
        assert_eq!(b.touched(), 2);
        let e = b.entries();
        assert_eq!(e[0].0, 3);
        assert_eq!(e[1].0, 7);
        b.barrier().unwrap();
        b.journal(9, Block::filled(1)); // no-op for the volatile backend
        assert_eq!(b.load(9), None);
    }

    #[test]
    fn mem_backend_registers() {
        let mut b = MemBackend::new();
        assert_eq!(b.reg(0), None);
        b.store_reg(2, Block::filled(2));
        b.store_reg(0, Block::filled(0));
        assert_eq!(b.reg(2), Some(Block::filled(2)));
        let r = b.regs();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, 0);
    }

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"acb"));
    }
}
