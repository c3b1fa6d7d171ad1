//! The Write Pending Queue (WPQ).

use crate::addr::BlockAddr;
use crate::backend::NvmBackend;
use crate::block::Block;
use crate::device::NvmDevice;
use crate::domain::WriteOp;
use std::collections::VecDeque;

/// Default number of WPQ entries — "tens of entries" per the paper (§2.7);
/// we use 32 as a representative value.
pub const DEFAULT_WPQ_ENTRIES: usize = 32;

/// Buckets of the queue's "is it queued?" index: eight per default
/// entry, so with a full default queue about one probe in eight scans.
const BUCKET_BITS: u32 = 8;

/// The Write Pending Queue inside the memory controller.
///
/// Anything inserted into the WPQ is considered **persistent**: the ADR
/// (Asynchronous DRAM Self-Refresh) feature guarantees enough residual
/// power to flush the queue contents to the NVM device on a power failure.
///
/// During normal operation entries drain to the device lazily; when the
/// queue is full, an insertion forces the oldest entry out first (modeling
/// the write-buffer back-pressure the timing simulator charges for).
///
/// Every insert and every read asks whether an address is queued, and
/// almost always it is not. The addresses sit in a ring of their own,
/// apart from the blocks, and beside it each of 256 buckets counts the
/// queued addresses that hash to it: a zero count answers "not queued"
/// without looking at the ring, and only a nonzero one scans it —
/// `capacity` words, not `capacity` whole entries. The counts are `u16`,
/// so the capacity is at most `u16::MAX`.
#[derive(Clone, Debug)]
pub struct Wpq {
    /// The queued writes' addresses, oldest first; one entry per address.
    addrs: VecDeque<BlockAddr>,
    /// Their blocks, in the same order.
    blocks: VecDeque<Block>,
    /// Per bucket of [`Wpq::bucket`], how many of `addrs` fall in it.
    queued: [u16; 1 << BUCKET_BITS],
    capacity: usize,
    forced_drains: u64,
}

impl Wpq {
    /// Creates a WPQ with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above `u16::MAX`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ capacity must be nonzero");
        assert!(
            capacity <= usize::from(u16::MAX),
            "WPQ capacity {capacity} exceeds the index's u16 counts"
        );
        Wpq {
            addrs: VecDeque::with_capacity(capacity),
            blocks: VecDeque::with_capacity(capacity),
            queued: [0; 1 << BUCKET_BITS],
            capacity,
            forced_drains: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Queue capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many insertions had to evict the oldest entry to the device
    /// because the queue was full.
    pub fn forced_drains(&self) -> u64 {
        self.forced_drains
    }

    /// Inserts a write into the persistent domain. If the queue is full the
    /// oldest entry is written to the device first.
    ///
    /// Writes to the same address coalesce onto the existing entry, as in a
    /// real write queue.
    pub fn insert<B: NvmBackend>(&mut self, op: WriteOp, device: &mut NvmDevice<B>) {
        if let Some(at) = self.find(op.addr) {
            self.blocks[at] = op.block;
            return;
        }
        if self.addrs.len() == self.capacity {
            if let (Some(addr), Some(block)) = (self.addrs.pop_front(), self.blocks.pop_front()) {
                self.queued[Self::bucket(addr)] -= 1;
                device.write(addr, block);
                self.forced_drains += 1;
            }
        }
        self.queued[Self::bucket(op.addr)] += 1;
        self.addrs.push_back(op.addr);
        self.blocks.push_back(op.block);
    }

    /// Drains every pending entry to the device (ADR flush or idle drain).
    pub fn flush<B: NvmBackend>(&mut self, device: &mut NvmDevice<B>) {
        for (addr, block) in self.addrs.drain(..).zip(self.blocks.drain(..)) {
            device.write(addr, block);
        }
        self.queued = [0; 1 << BUCKET_BITS];
    }

    /// Looks up a pending (not yet drained) write to `addr`, if any — the
    /// controller must see its own queued writes.
    pub fn pending(&self, addr: BlockAddr) -> Option<Block> {
        self.find(addr).map(|at| self.blocks[at])
    }

    /// Where the queue holds `addr`; scans only when `addr`'s bucket
    /// counts a queued address.
    fn find(&self, addr: BlockAddr) -> Option<usize> {
        if self.queued[Self::bucket(addr)] == 0 {
            return None;
        }
        self.addrs.iter().position(|&queued| queued == addr)
    }

    /// The index bucket of `addr`: the top bits of a Fibonacci hash, so
    /// that strided addresses spread over the buckets too.
    fn bucket(addr: BlockAddr) -> usize {
        (addr.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - BUCKET_BITS)) as usize
    }
}

impl Default for Wpq {
    fn default() -> Self {
        Wpq::new(DEFAULT_WPQ_ENTRIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u64) -> WriteOp {
        WriteOp::new(BlockAddr::new(i), Block::filled(i as u8))
    }

    #[test]
    fn insert_then_flush_persists() {
        let mut dev = NvmDevice::new(1 << 20);
        let mut wpq = Wpq::new(4);
        wpq.insert(op(1), &mut dev);
        wpq.insert(op(2), &mut dev);
        assert_eq!(wpq.len(), 2);
        assert!(dev.peek(BlockAddr::new(1)).is_zeroed());
        wpq.flush(&mut dev);
        assert!(wpq.is_empty());
        assert_eq!(dev.peek(BlockAddr::new(1)), Block::filled(1));
        assert_eq!(dev.peek(BlockAddr::new(2)), Block::filled(2));
    }

    #[test]
    fn full_queue_forces_oldest_out() {
        let mut dev = NvmDevice::new(1 << 20);
        let mut wpq = Wpq::new(2);
        wpq.insert(op(1), &mut dev);
        wpq.insert(op(2), &mut dev);
        wpq.insert(op(3), &mut dev);
        assert_eq!(wpq.len(), 2);
        assert_eq!(wpq.forced_drains(), 1);
        assert_eq!(dev.peek(BlockAddr::new(1)), Block::filled(1));
        assert!(dev.peek(BlockAddr::new(2)).is_zeroed());
    }

    #[test]
    fn same_address_coalesces() {
        let mut dev = NvmDevice::new(1 << 20);
        let mut wpq = Wpq::new(2);
        wpq.insert(op(1), &mut dev);
        wpq.insert(
            WriteOp::new(BlockAddr::new(1), Block::filled(0xFF)),
            &mut dev,
        );
        assert_eq!(wpq.len(), 1);
        assert_eq!(wpq.pending(BlockAddr::new(1)), Some(Block::filled(0xFF)));
        wpq.flush(&mut dev);
        assert_eq!(dev.peek(BlockAddr::new(1)), Block::filled(0xFF));
    }

    #[test]
    fn pending_lookup_misses_other_addresses() {
        let mut dev = NvmDevice::new(1 << 20);
        let mut wpq = Wpq::new(2);
        wpq.insert(op(1), &mut dev);
        assert_eq!(wpq.pending(BlockAddr::new(2)), None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        Wpq::new(0);
    }

    #[test]
    #[should_panic(expected = "u16")]
    fn a_capacity_the_counts_cannot_hold_panics() {
        Wpq::new(usize::from(u16::MAX) + 1);
    }

    #[test]
    fn addresses_sharing_a_bucket_are_told_apart() {
        let mut dev = NvmDevice::new(1 << 20);
        let mut wpq = Wpq::new(4);
        let first = BlockAddr::new(3);
        let twin = (4..)
            .map(BlockAddr::new)
            .find(|&a| Wpq::bucket(a) == Wpq::bucket(first))
            .expect("256 buckets");
        wpq.insert(WriteOp::new(first, Block::filled(1)), &mut dev);
        assert_eq!(wpq.pending(twin), None, "same bucket, not queued");
        wpq.insert(WriteOp::new(twin, Block::filled(2)), &mut dev);
        assert_eq!(wpq.pending(first), Some(Block::filled(1)));
        assert_eq!(wpq.pending(twin), Some(Block::filled(2)));
        wpq.flush(&mut dev);
        assert_eq!((wpq.pending(first), wpq.pending(twin)), (None, None));
    }
}
