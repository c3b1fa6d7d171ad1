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

/// The Write Pending Queue inside the memory controller.
///
/// Anything inserted into the WPQ is considered **persistent**: the ADR
/// (Asynchronous DRAM Self-Refresh) feature guarantees enough residual
/// power to flush the queue contents to the NVM device on a power failure.
///
/// During normal operation entries drain to the device lazily; when the
/// queue is full, an insertion forces the oldest entry out first (modeling
/// the write-buffer back-pressure the timing simulator charges for).
#[derive(Clone, Debug)]
pub struct Wpq {
    entries: VecDeque<WriteOp>,
    capacity: usize,
    forced_drains: u64,
}

impl Wpq {
    /// Creates a WPQ with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ capacity must be nonzero");
        Wpq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            forced_drains: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        if let Some(existing) = self.entries.iter_mut().find(|e| e.addr == op.addr) {
            existing.block = op.block;
            return;
        }
        if self.entries.len() == self.capacity {
            if let Some(oldest) = self.entries.pop_front() {
                device.write(oldest.addr, oldest.block);
                self.forced_drains += 1;
            }
        }
        self.entries.push_back(op);
    }

    /// Drains every pending entry to the device (ADR flush or idle drain).
    pub fn flush<B: NvmBackend>(&mut self, device: &mut NvmDevice<B>) {
        for op in self.entries.drain(..) {
            device.write(op.addr, op.block);
        }
    }

    /// Looks up a pending (not yet drained) write to `addr`, if any — the
    /// controller must see its own queued writes.
    pub fn pending(&self, addr: BlockAddr) -> Option<Block> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.addr == addr)
            .map(|e| e.block)
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
}
