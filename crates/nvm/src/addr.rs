//! Block addressing and region bookkeeping.

use core::fmt;

/// Size of one memory block (cache line) in bytes.
///
/// The whole system — data, encryption counters, Merkle-tree nodes and
/// shadow tables — is organized in 64-byte blocks, matching the paper's
/// cache-line granularity (Table 1).
pub const BLOCK_BYTES: usize = 64;

/// The index of a 64-byte block in the physical address space.
///
/// A newtype rather than a bare `u64` so data addresses, counter addresses
/// and shadow-table addresses cannot be silently confused with byte offsets.
///
/// # Example
///
/// ```
/// use anubis_nvm::BlockAddr;
/// let a = BlockAddr::new(2);
/// assert_eq!(a.index(), 2);
/// assert_eq!(a.offset(3), BlockAddr::new(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        BlockAddr(index)
    }

    /// The block index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the address `offset` blocks after this one.
    #[inline]
    pub const fn offset(self, offset: u64) -> Self {
        BlockAddr(self.0 + offset)
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAddr({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<BlockAddr> for u64 {
    fn from(a: BlockAddr) -> u64 {
        a.0
    }
}

/// A contiguous range of blocks with a purpose label, e.g. the data region,
/// the counter region, one Merkle-tree level, or a shadow table.
///
/// Regions are handed out by a [`RegionAllocator`] so the memory-controller
/// crate can lay out an arbitrary number of metadata regions without this
/// crate knowing anything about integrity trees.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Region {
    name: &'static str,
    base: BlockAddr,
    len: u64,
}

impl Region {
    /// Creates a region covering `len` blocks starting at `base`.
    pub fn new(name: &'static str, base: BlockAddr, len: u64) -> Self {
        Region { name, base, len }
    }

    /// The purpose label given at allocation time.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// First block of the region.
    pub fn base(&self) -> BlockAddr {
        self.base
    }

    /// Number of blocks in the region.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        addr.index() >= self.base.index() && addr.index() < self.base.index() + self.len
    }

    /// Address of the `i`-th block in the region.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn nth(&self, i: u64) -> BlockAddr {
        assert!(
            i < self.len,
            "region {}: index {} out of {}",
            self.name,
            i,
            self.len
        );
        self.base.offset(i)
    }

    /// The offset of `addr` within the region, if it is contained.
    pub fn offset_of(&self, addr: BlockAddr) -> Option<u64> {
        self.contains(addr)
            .then(|| addr.index() - self.base.index())
    }

    /// Iterates over every block address in the region.
    pub fn iter(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.len).map(move |i| self.base.offset(i))
    }
}

/// Sequentially parcels a physical address space into [`Region`]s.
///
/// # Example
///
/// ```
/// use anubis_nvm::RegionAllocator;
/// let mut alloc = RegionAllocator::new();
/// let data = alloc.alloc("data", 1024);
/// let counters = alloc.alloc("counters", 16);
/// assert_eq!(counters.base().index(), 1024);
/// assert_eq!(alloc.total_blocks(), 1040);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RegionAllocator {
    next: u64,
    regions: Vec<Region>,
}

impl RegionAllocator {
    /// Creates an empty allocator starting at block 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next `len` blocks as a named region.
    pub fn alloc(&mut self, name: &'static str, len: u64) -> Region {
        let region = Region::new(name, BlockAddr::new(self.next), len);
        self.next += len;
        self.regions.push(region.clone());
        region
    }

    /// Total number of blocks allocated so far.
    pub fn total_blocks(&self) -> u64 {
        self.next
    }

    /// All regions allocated so far, in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Finds the region containing `addr`, if any.
    pub fn region_of(&self, addr: BlockAddr) -> Option<&Region> {
        self.region_index_of(addr).map(|i| &self.regions[i])
    }

    /// Index (allocation order) of the region containing `addr`, if any.
    ///
    /// Regions are handed out sequentially, so their bases are sorted:
    /// the regions starting at or before `addr` are a prefix, counted in
    /// one pass without a branch to mispredict — there are a handful, and
    /// every counted device access asks.
    pub fn region_index_of(&self, addr: BlockAddr) -> Option<usize> {
        let n = (self.regions.iter())
            .filter(|r| r.base().index() <= addr.index())
            .count();
        // Candidate: the last region starting at or before `addr`. Empty
        // regions share their base with the next region but sort before
        // it and contain nothing, so the last candidate is the right one.
        let i = n.checked_sub(1)?;
        self.regions[i].contains(addr).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_addr_roundtrip() {
        let a = BlockAddr::new(7);
        assert_eq!(a.index(), 7);
        assert_eq!(u64::from(a), 7);
    }

    #[test]
    fn block_addr_display() {
        assert_eq!(format!("{}", BlockAddr::new(255)), "0xff");
        assert_eq!(format!("{:?}", BlockAddr::new(255)), "BlockAddr(0xff)");
    }

    #[test]
    fn region_contains_and_offset() {
        let r = Region::new("r", BlockAddr::new(10), 5);
        assert!(!r.contains(BlockAddr::new(9)));
        assert!(r.contains(BlockAddr::new(10)));
        assert!(r.contains(BlockAddr::new(14)));
        assert!(!r.contains(BlockAddr::new(15)));
        assert_eq!(r.offset_of(BlockAddr::new(12)), Some(2));
        assert_eq!(r.offset_of(BlockAddr::new(15)), None);
        assert_eq!(r.nth(0), BlockAddr::new(10));
        assert_eq!(r.iter().count(), 5);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn region_nth_out_of_bounds_panics() {
        Region::new("r", BlockAddr::new(0), 3).nth(3);
    }

    #[test]
    fn allocator_is_sequential_and_disjoint() {
        let mut alloc = RegionAllocator::new();
        let a = alloc.alloc("a", 100);
        let b = alloc.alloc("b", 50);
        let c = alloc.alloc("c", 1);
        assert_eq!(a.base().index(), 0);
        assert_eq!(b.base().index(), 100);
        assert_eq!(c.base().index(), 150);
        assert_eq!(alloc.total_blocks(), 151);
        assert_eq!(alloc.region_of(BlockAddr::new(120)).unwrap().name(), "b");
        assert_eq!(alloc.region_of(BlockAddr::new(151)), None);
        assert_eq!(alloc.regions().len(), 3);
    }

    #[test]
    fn region_index_search_matches_linear_scan() {
        let mut alloc = RegionAllocator::new();
        alloc.alloc("a", 100);
        alloc.alloc("gap", 0); // empty region sharing its base with "b"
        alloc.alloc("b", 50);
        alloc.alloc("c", 1);
        for idx in 0..(alloc.total_blocks() + 4) {
            let addr = BlockAddr::new(idx);
            let linear = alloc.regions().iter().position(|r| r.contains(addr));
            assert_eq!(alloc.region_index_of(addr), linear, "addr {addr}");
        }
        assert_eq!(alloc.region_index_of(BlockAddr::new(100)), Some(2));
        assert_eq!(
            RegionAllocator::new().region_index_of(BlockAddr::new(0)),
            None
        );
    }

    #[test]
    fn empty_region() {
        let r = Region::new("none", BlockAddr::new(4), 0);
        assert!(r.is_empty());
        assert!(!r.contains(BlockAddr::new(4)));
    }
}
