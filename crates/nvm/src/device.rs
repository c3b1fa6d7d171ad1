//! The sparse NVM device model.

use crate::addr::{BlockAddr, Region, RegionAllocator};
use crate::backend::{MemBackend, NvmBackend};
use crate::block::Block;
use crate::error::NvmError;
use crate::quarantine::{QuarantineError, RemapTable};
use crate::stats::NvmStats;

/// Countdown for a power cut *during recovery*: once it expires, every
/// subsequent counted write is silently dropped (the cells never see it),
/// modeling the tail of a recovery pass that was still in flight when
/// power died. Recovery writes go straight to the device (they bypass the
/// two-stage commit), so this lives here rather than in the domain's
/// [`crate::FaultPlan`] machinery.
#[derive(Clone, Debug)]
struct WriteCut {
    remaining: u64,
    fired: bool,
}

/// A sparse, block-addressable non-volatile memory device.
///
/// Never-written blocks read as all zeros, which lets the simulation cover
/// terabyte-scale address spaces while only storing the touched footprint.
/// Contents survive [`crate::PersistenceDomain::power_fail`]; only the
/// caches and queues in front of the device are volatile.
///
/// The device is generic over a storage [`NvmBackend`] that owns the
/// block contents: the default [`MemBackend`] keeps them in a hash map,
/// while [`crate::FileBackend`] persists them to a write-ahead-logged
/// file image that survives process death.
///
/// Blocks can be attributed to named [`Region`]s (registered via
/// [`NvmDevice::register_regions`]) so per-region read/write counts are
/// available for endurance and write-amplification studies.
///
/// # Example
///
/// ```
/// use anubis_nvm::{NvmDevice, BlockAddr, Block};
/// let mut dev = NvmDevice::new(1 << 30); // 1 GiB
/// let a = BlockAddr::new(42);
/// assert!(dev.read(a).is_zeroed());
/// dev.write(a, Block::filled(7));
/// assert_eq!(dev.read(a), Block::filled(7));
/// ```
#[derive(Clone, Debug)]
pub struct NvmDevice<B: NvmBackend = MemBackend> {
    capacity_blocks: u64,
    store: B,
    regions: RegionAllocator,
    stats: NvmStats,
    quarantine: RemapTable,
    write_cut: Option<WriteCut>,
}

impl NvmDevice<MemBackend> {
    /// Creates an in-memory device of `capacity_bytes` bytes (rounded down
    /// to whole 64-byte blocks). Capacity is an addressing limit, not an
    /// allocation: memory is materialized lazily per touched block.
    pub fn new(capacity_bytes: u64) -> Self {
        NvmDevice::with_backend(capacity_bytes, MemBackend::new())
    }
}

impl<B: NvmBackend> NvmDevice<B> {
    /// Creates a device of `capacity_bytes` bytes over an existing storage
    /// backend (e.g. a [`crate::FileBackend`] replayed from an image).
    pub fn with_backend(capacity_bytes: u64, backend: B) -> Self {
        NvmDevice {
            capacity_blocks: capacity_bytes / crate::BLOCK_BYTES as u64,
            store: backend,
            regions: RegionAllocator::new(),
            stats: NvmStats::new(),
            quarantine: RemapTable::new(),
            write_cut: None,
        }
    }

    /// The storage backend (block contents and register file).
    pub fn backend(&self) -> &B {
        &self.store
    }

    /// Mutable access to the storage backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.store
    }

    /// Flushes the backend's write-ahead buffer — the ordered durability
    /// point. A no-op for the in-memory backend.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] when the storage medium fails.
    pub fn flush_backend(&mut self) -> Result<(), NvmError> {
        self.store.barrier()
    }

    /// Stores one persistent-register image (controllers mirror their
    /// on-chip persistent registers here so restart recovery can restore
    /// them). Durable at the next [`NvmDevice::flush_backend`]. A fired
    /// write cut drops it like any other persist.
    pub fn set_reg(&mut self, idx: u8, block: Block) {
        if !self.cut_drops(false) {
            self.store.store_reg(idx, block);
        }
    }

    /// Loads a persistent-register image.
    pub fn reg(&self, idx: u8) -> Option<Block> {
        self.store.reg(idx)
    }

    /// Journals a write that entered the persistent domain but is still
    /// WPQ-resident, so durable backends replay it on reopen.
    pub(crate) fn journal_write(&mut self, addr: BlockAddr, block: Block) {
        let phys = self.quarantine.resolve(addr);
        self.store.journal(phys.index(), block);
    }

    /// Registers the region map used to attribute accesses in
    /// [`NvmDevice::stats`]. Replaces any previous map and resets the
    /// per-region counters to match the new layout.
    pub fn register_regions(&mut self, regions: RegionAllocator) {
        let names = regions.regions().iter().map(Region::name).collect();
        self.regions = regions;
        self.stats.configure_regions(names);
    }

    /// Device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Checked read. Takes `&self`: reading does not logically mutate the
    /// device, and the access statistics live behind interior mutability.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::OutOfRange`] if `addr` is beyond capacity.
    pub fn try_read(&self, addr: BlockAddr) -> Result<Block, NvmError> {
        self.count_read(addr)?;
        let phys = self.quarantine.resolve(addr);
        Ok(self.store.load(phys.index()).unwrap_or_default())
    }

    /// Counts a read of `addr` against its region, as [`NvmDevice::try_read`]
    /// does, without reading it: the WPQ forwarded the block.
    pub(crate) fn count_read(&self, addr: BlockAddr) -> Result<(), NvmError> {
        self.check(addr)?;
        self.stats.record_read(self.regions.region_index_of(addr));
        Ok(())
    }

    /// Reads a block, counting the access.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond device capacity (see [`NvmDevice::try_read`]
    /// for the checked variant).
    pub fn read(&self, addr: BlockAddr) -> Block {
        self.try_read(addr).expect("read within device capacity")
    }

    /// Reads without counting the access — for inspection by tests and
    /// reporting code that must not perturb statistics.
    pub fn peek(&self, addr: BlockAddr) -> Block {
        self.store.load(addr.index()).unwrap_or_default()
    }

    /// Checked write.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::OutOfRange`] if `addr` is beyond capacity.
    pub fn try_write(&mut self, addr: BlockAddr, block: Block) -> Result<(), NvmError> {
        self.check(addr)?;
        if self.cut_drops(true) {
            return Ok(());
        }
        let phys = self.quarantine.resolve(addr);
        let count = self.store.store_counted(phys.index(), block);
        self.stats
            .record_write(self.regions.region_index_of(addr), count);
        Ok(())
    }

    /// Writes a block, counting the access.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond device capacity (see
    /// [`NvmDevice::try_write`] for the checked variant).
    pub fn write(&mut self, addr: BlockAddr, block: Block) {
        self.try_write(addr, block)
            .expect("write within device capacity");
    }

    /// Overwrites a block without counting the access — used to initialize
    /// memory images before an experiment starts.
    pub fn poke(&mut self, addr: BlockAddr, block: Block) {
        assert!(
            addr.index() < self.capacity_blocks,
            "poke at {addr} beyond capacity of {} blocks",
            self.capacity_blocks
        );
        self.store.store(addr.index(), block);
    }

    /// Flips one bit of one block in place — the attacker primitive for
    /// integrity experiments. Does not perturb statistics.
    pub fn tamper_flip_bit(&mut self, addr: BlockAddr, bit: usize) {
        let mut b = self.peek(addr);
        b.flip_bit(bit);
        self.store.store(addr.index(), b);
    }

    /// Replays an old value into a block (replay-attack primitive).
    /// Does not perturb statistics.
    pub fn tamper_replay(&mut self, addr: BlockAddr, old: Block) {
        self.store.store(addr.index(), old);
    }

    /// Number of times `addr` has been written (endurance tracking), as
    /// the backend counts it per physical block: the block `addr`'s counted
    /// writes land in, through the remap table — a quarantined line's
    /// spare, which counts its writes since the remap.
    pub fn writes_to(&self, addr: BlockAddr) -> u64 {
        self.store.writes_to(self.quarantine.resolve(addr).index())
    }

    /// Access statistics.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Resets access statistics (contents and wear counts are kept).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Registers the spare pool used by [`NvmDevice::quarantine_block`].
    /// A no-op once a pool is present (see [`RemapTable::install_spares`]).
    pub fn install_spare_pool(&mut self, spares: Vec<BlockAddr>) {
        self.quarantine.install_spares(spares);
    }

    /// Quarantines `addr`: future counted reads/writes of `addr` are
    /// redirected to the returned spare block. Returns the existing
    /// mapping if already quarantined, or `None` when the spare pool is
    /// exhausted (the block is then retired in place by the caller).
    pub fn quarantine_block(&mut self, addr: BlockAddr) -> Option<BlockAddr> {
        self.quarantine.quarantine(addr)
    }

    /// Whether `addr` has been remapped into the spare region.
    pub fn is_quarantined(&self, addr: BlockAddr) -> bool {
        self.quarantine.is_quarantined(addr)
    }

    /// The bad-block remap table (mappings, spares left, lost-line count).
    pub fn quarantine_table(&self) -> &RemapTable {
        &self.quarantine
    }

    /// Records `n` permanently lost data lines in the remap table.
    pub fn record_lost_lines(&mut self, n: u64) {
        self.quarantine.record_lost(n);
    }

    /// Serializes the remap table for persistence into a `qtable` region.
    pub fn quarantine_table_blocks(&self) -> Vec<Block> {
        self.quarantine.to_blocks()
    }

    /// Replaces the remap table with the one in `blocks` — as produced by
    /// [`NvmDevice::quarantine_table_blocks`] — keeping the installed
    /// spare pool. A zero header is a region no table was ever persisted
    /// to, and loads as an empty table.
    ///
    /// # Errors
    ///
    /// Propagates [`QuarantineError`] for malformed input; the table is
    /// then empty.
    pub fn load_quarantine_table(&mut self, blocks: &[Block]) -> Result<(), QuarantineError> {
        let loaded = match blocks.first() {
            Some(header) if !header.is_zeroed() => RemapTable::from_blocks(blocks),
            _ => Ok(RemapTable::new()),
        };
        let mut table = loaded.clone().unwrap_or_default();
        table.inherit_pool(&self.quarantine);
        self.quarantine = table;
        loaded.map(drop)
    }

    /// Arms a power cut during recovery: the next `after` counted writes
    /// land, every write past that is silently dropped until
    /// [`NvmDevice::clear_write_cut`].
    pub fn arm_write_cut(&mut self, after: u64) {
        self.write_cut = Some(WriteCut {
            remaining: after,
            fired: false,
        });
    }

    /// Whether an armed write cut has started dropping writes.
    pub fn write_cut_fired(&self) -> bool {
        self.write_cut.as_ref().is_some_and(|c| c.fired)
    }

    /// Disarms the write cut; subsequent writes land normally.
    pub fn clear_write_cut(&mut self) {
        self.write_cut = None;
    }

    /// Whether an armed write cut drops this persist. Power died
    /// mid-recovery: the persist never reaches the cells. Reported via
    /// `write_cut_fired`, not an error — a dying platform gets no error
    /// path either. A dying platform also flushes nothing more, so
    /// durable backends stop persisting from this instant. A `counted`
    /// persist (a block write) that lands uses up one of the cut's
    /// remaining writes.
    fn cut_drops(&mut self, counted: bool) -> bool {
        let Some(cut) = self.write_cut.as_mut() else {
            return false;
        };
        if cut.remaining == 0 {
            cut.fired = true;
            self.store.suppress_flushes();
            return true;
        }
        cut.remaining -= u64::from(counted);
        false
    }

    fn check(&self, addr: BlockAddr) -> Result<(), NvmError> {
        if addr.index() < self.capacity_blocks {
            Ok(())
        } else {
            Err(NvmError::OutOfRange {
                addr,
                capacity_blocks: self.capacity_blocks,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let dev = NvmDevice::new(1 << 20);
        assert!(dev.read(BlockAddr::new(100)).is_zeroed());
        assert_eq!(dev.stats().reads(), 1);
        assert_eq!(dev.backend().touched(), 0);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut dev = NvmDevice::new(1 << 20);
        let b = Block::from_words([9, 8, 7, 6, 5, 4, 3, 2]);
        dev.write(BlockAddr::new(5), b);
        assert_eq!(dev.read(BlockAddr::new(5)), b);
        assert_eq!(dev.backend().touched(), 1);
        assert_eq!(dev.writes_to(BlockAddr::new(5)), 1);
    }

    #[test]
    fn out_of_range_is_error() {
        let mut dev = NvmDevice::new(128); // 2 blocks
        assert!(dev.try_read(BlockAddr::new(1)).is_ok());
        assert_eq!(
            dev.try_read(BlockAddr::new(2)),
            Err(NvmError::OutOfRange {
                addr: BlockAddr::new(2),
                capacity_blocks: 2
            })
        );
        assert!(dev.try_write(BlockAddr::new(2), Block::zeroed()).is_err());
    }

    #[test]
    fn peek_and_poke_do_not_count() {
        let mut dev = NvmDevice::new(1 << 20);
        dev.poke(BlockAddr::new(1), Block::filled(1));
        assert_eq!(dev.peek(BlockAddr::new(1)), Block::filled(1));
        assert_eq!(dev.stats().reads(), 0);
        assert_eq!(dev.stats().writes(), 0);
        assert_eq!(dev.writes_to(BlockAddr::new(1)), 0);
    }

    #[test]
    fn region_attribution() {
        let mut alloc = RegionAllocator::new();
        let data = alloc.alloc("data", 10);
        let ctr = alloc.alloc("ctr", 10);
        let mut dev = NvmDevice::new(1 << 20);
        dev.register_regions(alloc);
        dev.write(data.nth(0), Block::zeroed());
        dev.write(ctr.nth(0), Block::zeroed());
        dev.write(ctr.nth(1), Block::zeroed());
        assert_eq!(dev.stats().writes_in("data"), 1);
        assert_eq!(dev.stats().writes_in("ctr"), 2);
    }

    #[test]
    fn tamper_flips_one_bit() {
        let mut dev = NvmDevice::new(1 << 20);
        dev.poke(BlockAddr::new(3), Block::zeroed());
        dev.tamper_flip_bit(BlockAddr::new(3), 17);
        let b = dev.peek(BlockAddr::new(3));
        let ones: u32 = b.as_bytes().iter().map(|x| x.count_ones()).sum();
        assert_eq!(ones, 1);
    }

    #[test]
    fn quarantined_block_redirects_counted_io_only() {
        let mut dev = NvmDevice::new(1 << 20);
        dev.install_spare_pool(vec![BlockAddr::new(100), BlockAddr::new(101)]);
        let a = BlockAddr::new(7);
        dev.write(a, Block::filled(0xEE));
        let spare = dev.quarantine_block(a).expect("pool has spares");
        assert_eq!(spare, BlockAddr::new(100));
        assert!(dev.is_quarantined(a));
        // Counted I/O follows the remap: the stale physical cells are
        // invisible, the spare starts zeroed.
        assert!(dev.read(a).is_zeroed());
        dev.write(a, Block::filled(0x11));
        assert_eq!(dev.read(a), Block::filled(0x11));
        assert_eq!(dev.peek(spare), Block::filled(0x11));
        // Raw access still sees the retired cells.
        assert_eq!(dev.peek(a), Block::filled(0xEE));
    }

    #[test]
    fn a_remapped_line_keeps_counting_its_writes() {
        let mut dev = NvmDevice::new(1 << 20);
        dev.install_spare_pool(vec![BlockAddr::new(100)]);
        let a = BlockAddr::new(7);
        dev.write(a, Block::filled(1));
        dev.quarantine_block(a).expect("pool has a spare");
        let before = dev.writes_to(a);
        dev.write(a, Block::filled(2));
        assert_eq!(dev.writes_to(a), before + 1);
    }

    #[test]
    fn quarantine_table_persists_and_reloads() {
        let mut dev = NvmDevice::new(1 << 20);
        dev.install_spare_pool(vec![BlockAddr::new(200), BlockAddr::new(201)]);
        dev.quarantine_block(BlockAddr::new(3));
        dev.record_lost_lines(1);
        let image = dev.quarantine_table_blocks();
        let mut fresh = NvmDevice::new(1 << 20);
        fresh.install_spare_pool(vec![BlockAddr::new(200), BlockAddr::new(201)]);
        fresh.load_quarantine_table(&image).unwrap();
        assert!(fresh.is_quarantined(BlockAddr::new(3)));
        assert_eq!(fresh.quarantine_table().lost_lines(), 1);
        // The reloaded table keeps consuming the pool past used spares.
        assert_eq!(
            fresh.quarantine_block(BlockAddr::new(9)),
            Some(BlockAddr::new(201))
        );
    }

    #[test]
    fn write_cut_drops_the_tail() {
        let mut dev = NvmDevice::new(1 << 20);
        dev.arm_write_cut(2);
        dev.write(BlockAddr::new(0), Block::filled(1));
        dev.write(BlockAddr::new(1), Block::filled(2));
        assert!(!dev.write_cut_fired());
        dev.write(BlockAddr::new(2), Block::filled(3)); // dropped
        dev.write(BlockAddr::new(3), Block::filled(4)); // dropped
        assert!(dev.write_cut_fired());
        assert_eq!(dev.peek(BlockAddr::new(1)), Block::filled(2));
        assert!(dev.peek(BlockAddr::new(2)).is_zeroed());
        dev.clear_write_cut();
        dev.write(BlockAddr::new(2), Block::filled(5));
        assert_eq!(dev.peek(BlockAddr::new(2)), Block::filled(5));
    }

    #[test]
    fn write_cut_drops_register_mirrors_too() {
        let mut dev = NvmDevice::new(1 << 20);
        dev.arm_write_cut(1);
        dev.set_reg(0, Block::filled(1)); // lands, uses up nothing
        dev.write(BlockAddr::new(0), Block::filled(2));
        assert!(!dev.write_cut_fired());
        dev.set_reg(0, Block::filled(3)); // dropped
        assert!(dev.write_cut_fired());
        assert_eq!(dev.reg(0), Some(Block::filled(1)));
    }

    #[test]
    fn wear_tracking_counts_repeat_writes() {
        let mut dev = NvmDevice::new(1 << 20);
        for _ in 0..7 {
            dev.write(BlockAddr::new(9), Block::zeroed());
        }
        assert_eq!(dev.writes_to(BlockAddr::new(9)), 7);
        assert_eq!(dev.stats().max_writes_to_one_block(), 7);
    }

    /// One write sequence — counted writes, uncounted pokes and tampers,
    /// a quarantined block, a barrier — and the wear it leaves.
    fn wear_of<B: NvmBackend>(mut dev: NvmDevice<B>) -> (Vec<u64>, u64) {
        dev.install_spare_pool(vec![BlockAddr::new(60), BlockAddr::new(61)]);
        let mut rng = crate::SplitMix64::new(0x3EA2);
        for step in 0..400u64 {
            let a = BlockAddr::new(rng.gen_range(0..24));
            match step % 7 {
                0 => dev.poke(a, Block::filled(step as u8)),
                1 => dev.tamper_flip_bit(a, (step % 512) as usize),
                _ => dev.write(a, Block::filled(step as u8)),
            }
            if step == 150 {
                dev.quarantine_block(BlockAddr::new(5));
            }
            if step % 50 == 0 {
                dev.flush_backend().unwrap();
            }
        }
        let writes = (0..64).map(|i| dev.writes_to(BlockAddr::new(i))).collect();
        (writes, dev.stats().max_writes_to_one_block())
    }

    #[test]
    fn wear_is_counted_alike_over_memory_and_file_backends() {
        let path = std::env::temp_dir().join(format!("anubis-wear-{}.img", std::process::id()));
        let cleanup = |p: &std::path::Path| {
            for f in [
                p.to_path_buf(),
                crate::home_path_for(p),
                crate::anchor_path_for(p),
            ] {
                let _ = std::fs::remove_file(f);
            }
        };
        cleanup(&path);
        let file = crate::FileBackend::open_with_anchor(&path, [3, 4], crate::AnchorPolicy::Strict)
            .unwrap();
        let on_file = wear_of(NvmDevice::with_backend(1 << 20, file));
        cleanup(&path);
        let in_memory = wear_of(NvmDevice::new(1 << 20));
        assert_eq!(on_file, in_memory);
        assert!(in_memory.1 > 10, "the sequence repeats writes");
        assert!(
            in_memory.0[5] > 0 && in_memory.0[60] > 0,
            "both sides of the remap"
        );
    }
}
