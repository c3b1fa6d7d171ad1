//! Physical memory layout: where data, counters, tree nodes and shadow
//! tables live in the NVM address space.

use crate::config::AnubisConfig;
use anubis_itree::{NodeId, TreeGeometry};
use anubis_nvm::{BlockAddr, Region, RegionAllocator, RemapTable};

/// Index of a 64-byte line within the *data region* — the address space
/// the CPU sees. Newtype so data addresses cannot be confused with device
/// block addresses (which also cover metadata regions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DataAddr(u64);

impl DataAddr {
    /// Creates a data address from a line index.
    pub const fn new(index: u64) -> Self {
        DataAddr(index)
    }

    /// The line index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for DataAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "D{:#x}", self.0)
    }
}

impl From<u64> for DataAddr {
    fn from(v: u64) -> Self {
        DataAddr(v)
    }
}

/// Data lines covered by one split-counter block (one 4 KiB page).
pub const LINES_PER_COUNTER_BLOCK: u64 = 64;

/// Data lines covered by one SGX leaf node.
pub const LINES_PER_SGX_LEAF: u64 = 8;

/// NVM layout for the Bonsai (general-tree) controller family.
///
/// Regions, in order: `data`, `side` (per-line ECC+MAC words, physically
/// co-located with data on a real DIMM — see DESIGN.md), `counters`
/// (split-counter blocks, the tree leaves), `tree` (interior nodes),
/// `sct` (Shadow Counter Table), `smt` (Shadow Merkle-tree Table),
/// `spare` (bad-block quarantine pool) and `qtable` (the persisted remap
/// table).
#[derive(Clone, Debug)]
pub struct BonsaiLayout {
    data: Region,
    side: Region,
    counters: Region,
    tree: Region,
    sct: Region,
    smt: Region,
    spare: Region,
    qtable: Region,
    geometry: TreeGeometry,
    total_blocks: u64,
    regions: RegionAllocator,
}

impl BonsaiLayout {
    /// Computes the layout for a configuration. `sct_slots`/`smt_slots`
    /// are the shadow-table lengths (= cache slot counts).
    pub fn new(config: &AnubisConfig, sct_slots: u64, smt_slots: u64) -> Self {
        let n_data = config.data_blocks().max(LINES_PER_COUNTER_BLOCK);
        let n_ctr = n_data.div_ceil(LINES_PER_COUNTER_BLOCK);
        let geometry = TreeGeometry::new(n_ctr, 8);
        let mut alloc = RegionAllocator::new();
        let data = alloc.alloc("data", n_data);
        let side = alloc.alloc("side", n_data);
        let counters = alloc.alloc("counters", n_ctr);
        let tree = alloc.alloc("tree", geometry.interior_blocks().max(1));
        let sct = alloc.alloc("sct", sct_slots);
        let smt = alloc.alloc("smt", smt_slots);
        let n_spare = config.spare_blocks.max(1);
        let spare = alloc.alloc("spare", n_spare);
        // Sized for the table's full capacity: remapped entries plus an
        // equal budget of in-place retirements (see RemapTable::capacity).
        let qtable = alloc.alloc("qtable", RemapTable::blocks_for(2 * n_spare));
        let total_blocks = alloc.total_blocks();
        BonsaiLayout {
            data,
            side,
            counters,
            tree,
            sct,
            smt,
            spare,
            qtable,
            geometry,
            total_blocks,
            regions: alloc,
        }
    }

    /// Total device size needed, in bytes.
    pub fn device_bytes(&self) -> u64 {
        self.total_blocks * 64
    }

    /// The region map for device statistics attribution.
    pub fn regions(&self) -> RegionAllocator {
        self.regions.clone()
    }

    /// The integrity-tree shape (leaves = counter blocks).
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// Number of data lines.
    pub fn data_blocks(&self) -> u64 {
        self.data.len()
    }

    /// Device address of a data line.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range (callers validate first).
    pub fn data_addr(&self, addr: DataAddr) -> BlockAddr {
        self.data.nth(addr.index())
    }

    /// Device address of a data line's side block (ECC + MAC words).
    pub fn side_addr(&self, addr: DataAddr) -> BlockAddr {
        self.side.nth(addr.index())
    }

    /// The counter block (tree leaf) covering a data line, and the line's
    /// slot within it.
    pub fn counter_of(&self, addr: DataAddr) -> (NodeId, usize) {
        let leaf = addr.index() / LINES_PER_COUNTER_BLOCK;
        let slot = (addr.index() % LINES_PER_COUNTER_BLOCK) as usize;
        (NodeId::new(0, leaf), slot)
    }

    /// The data line covered by counter leaf `leaf` at minor slot `slot`.
    pub fn line_of(&self, leaf: u64, slot: usize) -> Option<DataAddr> {
        let idx = leaf * LINES_PER_COUNTER_BLOCK + slot as u64;
        (idx < self.data.len()).then_some(DataAddr::new(idx))
    }

    /// Device address of any tree node: leaves map into the counter
    /// region, interior nodes into the tree region.
    pub fn node_addr(&self, node: NodeId) -> BlockAddr {
        if node.level == 0 {
            self.counters.nth(node.index)
        } else {
            self.tree.nth(self.geometry.interior_offset(node))
        }
    }

    /// Inverse of [`BonsaiLayout::node_addr`] for metadata addresses.
    pub fn node_of_addr(&self, addr: BlockAddr) -> Option<NodeId> {
        if let Some(off) = self.counters.offset_of(addr) {
            Some(NodeId::new(0, off))
        } else {
            self.tree
                .offset_of(addr)
                .filter(|&off| off < self.geometry.interior_blocks())
                .map(|off| self.geometry.locate_interior(off))
        }
    }

    /// Device address of SCT slot `i`.
    pub fn sct_slot(&self, i: u64) -> BlockAddr {
        self.sct.nth(i)
    }

    /// Device address of SMT slot `i`.
    pub fn smt_slot(&self, i: u64) -> BlockAddr {
        self.smt.nth(i)
    }

    /// Number of SCT slots.
    pub fn sct_slots(&self) -> u64 {
        self.sct.len()
    }

    /// Number of SMT slots.
    pub fn smt_slots(&self) -> u64 {
        self.smt.len()
    }

    /// The quarantine spare pool: device addresses reserved for remapping
    /// retired blocks.
    pub fn spare_pool(&self) -> Vec<BlockAddr> {
        (0..self.spare.len()).map(|i| self.spare.nth(i)).collect()
    }

    /// Device address of the `i`-th block of the persisted remap table.
    pub fn qtable_addr(&self, i: u64) -> BlockAddr {
        self.qtable.nth(i)
    }

    /// Capacity of the remap-table region, in blocks.
    pub fn qtable_blocks(&self) -> u64 {
        self.qtable.len()
    }

    /// The data-line region, for the shared data path.
    pub(crate) fn data(&self) -> Region {
        self.data.clone()
    }

    /// The remap-table region, for the shared data path.
    pub(crate) fn qtable(&self) -> Region {
        self.qtable.clone()
    }
}

/// NVM layout for the SGX-style controller family.
///
/// Regions: `data`, `side`, `leaves` (SGX counter leaves, 8 lines each),
/// `tree` (interior SGX nodes, excluding the on-chip top node), `st`
/// (the ASIT Shadow Table), `spare` (bad-block quarantine pool) and
/// `qtable` (the persisted remap table).
#[derive(Clone, Debug)]
pub struct SgxLayout {
    data: Region,
    side: Region,
    leaves: Region,
    tree: Region,
    st: Region,
    spare: Region,
    qtable: Region,
    geometry: TreeGeometry,
    total_blocks: u64,
    regions: RegionAllocator,
}

impl SgxLayout {
    /// Computes the layout; `st_slots` is the Shadow Table length
    /// (= combined metadata-cache slot count).
    pub fn new(config: &AnubisConfig, st_slots: u64) -> Self {
        let n_data = config.data_blocks().max(LINES_PER_SGX_LEAF);
        let n_leaves = n_data.div_ceil(LINES_PER_SGX_LEAF);
        let geometry = TreeGeometry::new(n_leaves, 8);
        let mut alloc = RegionAllocator::new();
        let data = alloc.alloc("data", n_data);
        let side = alloc.alloc("side", n_data);
        let leaves = alloc.alloc("leaves", n_leaves);
        // The top node lives on-chip; it has no NVM home.
        let interior_wo_top = geometry.interior_blocks().saturating_sub(1);
        let tree = alloc.alloc("tree", interior_wo_top.max(1));
        let st = alloc.alloc("st", st_slots);
        let n_spare = config.spare_blocks.max(1);
        let spare = alloc.alloc("spare", n_spare);
        let qtable = alloc.alloc("qtable", RemapTable::blocks_for(2 * n_spare));
        let total_blocks = alloc.total_blocks();
        SgxLayout {
            data,
            side,
            leaves,
            tree,
            st,
            spare,
            qtable,
            geometry,
            total_blocks,
            regions: alloc,
        }
    }

    /// Total device size needed, in bytes.
    pub fn device_bytes(&self) -> u64 {
        self.total_blocks * 64
    }

    /// The region map for device statistics attribution.
    pub fn regions(&self) -> RegionAllocator {
        self.regions.clone()
    }

    /// The tree shape (leaves = SGX counter leaves).
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// Number of data lines.
    pub fn data_blocks(&self) -> u64 {
        self.data.len()
    }

    /// Device address of a data line.
    pub fn data_addr(&self, addr: DataAddr) -> BlockAddr {
        self.data.nth(addr.index())
    }

    /// Device address of a data line's side block.
    pub fn side_addr(&self, addr: DataAddr) -> BlockAddr {
        self.side.nth(addr.index())
    }

    /// The leaf covering a data line, and the line's counter slot in it.
    pub fn leaf_of(&self, addr: DataAddr) -> (NodeId, usize) {
        let leaf = addr.index() / LINES_PER_SGX_LEAF;
        let slot = (addr.index() % LINES_PER_SGX_LEAF) as usize;
        (NodeId::new(0, leaf), slot)
    }

    /// Whether `node` is the on-chip top node (no NVM home).
    pub fn is_on_chip(&self, node: NodeId) -> bool {
        node == self.geometry.top()
    }

    /// Device address of a tree node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the on-chip top node.
    pub fn node_addr(&self, node: NodeId) -> BlockAddr {
        assert!(
            !self.is_on_chip(node),
            "the top node lives on-chip, not in NVM"
        );
        if node.level == 0 {
            self.leaves.nth(node.index)
        } else {
            self.tree.nth(self.geometry.interior_offset(node))
        }
    }

    /// Inverse of [`SgxLayout::node_addr`] for metadata addresses.
    pub fn node_of_addr(&self, addr: BlockAddr) -> Option<NodeId> {
        if let Some(off) = self.leaves.offset_of(addr) {
            Some(NodeId::new(0, off))
        } else {
            self.tree
                .offset_of(addr)
                .filter(|&off| off + 1 < self.geometry.interior_blocks().max(1) + 1)
                .map(|off| self.geometry.locate_interior(off))
                .filter(|n| !self.is_on_chip(*n))
        }
    }

    /// Device address of ST slot `i`.
    pub fn st_slot(&self, i: u64) -> BlockAddr {
        self.st.nth(i)
    }

    /// Number of ST slots.
    pub fn st_slots(&self) -> u64 {
        self.st.len()
    }

    /// The quarantine spare pool: device addresses reserved for remapping
    /// retired blocks.
    pub fn spare_pool(&self) -> Vec<BlockAddr> {
        (0..self.spare.len()).map(|i| self.spare.nth(i)).collect()
    }

    /// Device address of the `i`-th block of the persisted remap table.
    pub fn qtable_addr(&self, i: u64) -> BlockAddr {
        self.qtable.nth(i)
    }

    /// Capacity of the remap-table region, in blocks.
    pub fn qtable_blocks(&self) -> u64 {
        self.qtable.len()
    }

    /// The data-line region, for the shared data path.
    pub(crate) fn data(&self) -> Region {
        self.data.clone()
    }

    /// The remap-table region, for the shared data path.
    pub(crate) fn qtable(&self) -> Region {
        self.qtable.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AnubisConfig {
        AnubisConfig::small_test()
    }

    #[test]
    fn bonsai_regions_cover_everything_disjointly() {
        let l = BonsaiLayout::new(&cfg(), 64, 64);
        // 1 MiB data = 16384 lines, 256 counter blocks; 64 quarantine
        // spares plus 1 + ceil(128/4) = 33 remap-table blocks (the table
        // holds up to 2x the pool: remaps plus in-place retirements).
        assert_eq!(l.data_blocks(), 16384);
        assert_eq!(l.geometry().num_leaves(), 256);
        assert_eq!(l.spare_pool().len(), 64);
        assert_eq!(l.qtable_blocks(), RemapTable::blocks_for(128));
        assert_eq!(
            l.device_bytes() / 64,
            16384 + 16384 + 256 + l.geometry().interior_blocks() + 128 + 64 + 33
        );
    }

    #[test]
    fn quarantine_regions_are_disjoint_from_metadata() {
        let b = BonsaiLayout::new(&cfg(), 64, 64);
        let spares = b.spare_pool();
        assert!(spares.iter().all(|a| b.node_of_addr(*a).is_none()));
        assert!(b.node_of_addr(b.qtable_addr(0)).is_none());
        let s = SgxLayout::new(&cfg(), 128);
        let spares = s.spare_pool();
        assert!(spares.iter().all(|a| s.node_of_addr(*a).is_none()));
        assert!(s.node_of_addr(s.qtable_addr(0)).is_none());
    }

    #[test]
    fn bonsai_counter_mapping() {
        let l = BonsaiLayout::new(&cfg(), 64, 64);
        let (leaf, slot) = l.counter_of(DataAddr::new(130));
        assert_eq!(leaf, NodeId::new(0, 2));
        assert_eq!(slot, 2);
        assert_eq!(l.line_of(2, 2), Some(DataAddr::new(130)));
        assert_eq!(l.line_of(10_000, 0), None);
    }

    #[test]
    fn bonsai_node_addr_roundtrip() {
        let l = BonsaiLayout::new(&cfg(), 64, 64);
        let g = l.geometry().clone();
        for level in 0..g.num_levels() {
            for index in [0, g.nodes_at(level) - 1] {
                let node = NodeId::new(level, index);
                assert_eq!(l.node_of_addr(l.node_addr(node)), Some(node));
            }
        }
        // Data addresses are not metadata.
        assert_eq!(l.node_of_addr(l.data_addr(DataAddr::new(0))), None);
    }

    #[test]
    fn bonsai_shadow_slots() {
        let l = BonsaiLayout::new(&cfg(), 10, 20);
        assert_eq!(l.sct_slots(), 10);
        assert_eq!(l.smt_slots(), 20);
        assert_ne!(l.sct_slot(0), l.smt_slot(0));
    }

    #[test]
    fn sgx_leaf_mapping() {
        let l = SgxLayout::new(&cfg(), 128);
        let (leaf, slot) = l.leaf_of(DataAddr::new(17));
        assert_eq!(leaf, NodeId::new(0, 2));
        assert_eq!(slot, 1);
        assert_eq!(l.geometry().num_leaves(), 16384 / 8);
    }

    #[test]
    fn sgx_top_is_on_chip() {
        let l = SgxLayout::new(&cfg(), 128);
        let top = l.geometry().top();
        assert!(l.is_on_chip(top));
        // All non-top nodes have NVM addresses that roundtrip.
        let g = l.geometry().clone();
        for level in 0..g.num_levels() {
            for index in [0, g.nodes_at(level) - 1] {
                let node = NodeId::new(level, index);
                if node == top {
                    continue;
                }
                assert_eq!(l.node_of_addr(l.node_addr(node)), Some(node), "node {node}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "on-chip")]
    fn sgx_top_addr_panics() {
        let l = SgxLayout::new(&cfg(), 128);
        let _ = l.node_addr(l.geometry().top());
    }

    #[test]
    fn data_addr_display_and_from() {
        let a: DataAddr = 255u64.into();
        assert_eq!(a.index(), 255);
        assert_eq!(a.to_string(), "D0xff");
    }

    #[test]
    fn tiny_capacity_clamps() {
        let c = cfg().with_capacity(64); // one line
        let l = BonsaiLayout::new(&c, 1, 1);
        assert_eq!(l.data_blocks(), 64, "clamped to one full counter block");
        let s = SgxLayout::new(&c, 1);
        assert_eq!(s.data_blocks(), 8, "clamped to one full leaf");
    }
}
