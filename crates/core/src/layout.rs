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

/// The NVM layout of either controller family: the families differ in
/// metadata policy, not in how memory is laid out, so the two
/// constructors differ only in their arguments.
///
/// Regions, in order: `data`, `side` (per-line ECC+MAC words, physically
/// co-located with data on a real DIMM — see DESIGN.md), the tree leaves
/// (`counters`: Bonsai split-counter blocks of 64 lines; `leaves`: SGX
/// counter leaves of 8), `tree` (interior nodes, less an on-chip top
/// node), the shadow tables (`sct` + `smt` for AGIT, `st` for ASIT),
/// `spare` (bad-block quarantine pool) and `qtable` (the persisted remap
/// table).
#[derive(Clone, Debug)]
pub struct Layout {
    data: Region,
    side: Region,
    leaves: Region,
    tree: Region,
    shadow: Vec<Region>,
    spare: Region,
    qtable: Region,
    geometry: TreeGeometry,
    /// log2 of the lines per leaf: `leaf_of` is a shift and a mask.
    leaf_shift: u32,
    /// Whether the top node lives on chip, with no NVM home (SGX).
    top_on_chip: bool,
    regions: RegionAllocator,
}

impl Layout {
    /// The Bonsai (general-tree) layout: 64-line counter blocks, the
    /// whole tree in NVM, and the Shadow Counter and Shadow Merkle-tree
    /// Tables of `sct_slots` / `smt_slots` slots (= the caches' slot
    /// counts).
    pub fn bonsai(config: &AnubisConfig, sct_slots: u64, smt_slots: u64) -> Self {
        let shadow = [("sct", sct_slots), ("smt", smt_slots)];
        Self::new(config, LINES_PER_COUNTER_BLOCK, "counters", false, &shadow)
    }

    /// The SGX-style layout: 8-line counter leaves, the top node on chip,
    /// and the ASIT Shadow Table of `st_slots` slots (= the combined
    /// metadata cache's slot count).
    pub fn sgx(config: &AnubisConfig, st_slots: u64) -> Self {
        let shadow = [("st", st_slots)];
        Self::new(config, LINES_PER_SGX_LEAF, "leaves", true, &shadow)
    }

    fn new(
        config: &AnubisConfig,
        lines_per_leaf: u64,
        leaf_region: &'static str,
        top_on_chip: bool,
        shadow: &[(&'static str, u64)],
    ) -> Self {
        let n_data = config.data_blocks().max(lines_per_leaf);
        let n_leaves = n_data.div_ceil(lines_per_leaf);
        let geometry = TreeGeometry::new(n_leaves, 8);
        let interior = (geometry.interior_blocks()).saturating_sub(u64::from(top_on_chip));
        let n_spare = config.spare_blocks.max(1);
        let mut alloc = RegionAllocator::new();
        // The regions are allocated in field order.
        Layout {
            data: alloc.alloc("data", n_data),
            side: alloc.alloc("side", n_data),
            leaves: alloc.alloc(leaf_region, n_leaves),
            tree: alloc.alloc("tree", interior.max(1)),
            shadow: (shadow.iter())
                .map(|&(name, slots)| alloc.alloc(name, slots))
                .collect(),
            spare: alloc.alloc("spare", n_spare),
            // Sized for the table's full capacity: remapped entries plus
            // an equal budget of in-place retirements (see
            // RemapTable::capacity).
            qtable: alloc.alloc("qtable", RemapTable::blocks_for(2 * n_spare)),
            geometry,
            leaf_shift: lines_per_leaf.trailing_zeros(),
            top_on_chip,
            regions: alloc,
        }
    }

    /// Total device size needed, in bytes.
    pub fn device_bytes(&self) -> u64 {
        self.regions.total_blocks() * 64
    }

    /// The region map, in address order (device statistics attribute
    /// accesses by it).
    pub fn regions(&self) -> &RegionAllocator {
        &self.regions
    }

    /// The integrity-tree shape (leaves = counter blocks or SGX leaves).
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

    /// The leaf covering a data line, and the line's counter slot in it.
    pub fn leaf_of(&self, addr: DataAddr) -> (NodeId, usize) {
        let mask = (1 << self.leaf_shift) - 1;
        let leaf = NodeId::new(0, addr.index() >> self.leaf_shift);
        (leaf, (addr.index() & mask) as usize)
    }

    /// The data line covered by leaf `leaf` at counter slot `slot`.
    pub fn line_of(&self, leaf: u64, slot: usize) -> Option<DataAddr> {
        let idx = (leaf << self.leaf_shift) + slot as u64;
        (idx < self.data.len()).then_some(DataAddr::new(idx))
    }

    /// Whether `node` is an on-chip top node (no NVM home).
    pub fn is_on_chip(&self, node: NodeId) -> bool {
        self.top_on_chip && node == self.geometry.top()
    }

    /// Device address of a tree node: leaves map into the leaf region,
    /// interior nodes into the tree region.
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

    /// Inverse of [`Layout::node_addr`] for metadata addresses.
    pub fn node_of_addr(&self, addr: BlockAddr) -> Option<NodeId> {
        if let Some(off) = self.leaves.offset_of(addr) {
            Some(NodeId::new(0, off))
        } else {
            self.tree
                .offset_of(addr)
                .filter(|&off| off < self.geometry.interior_blocks())
                .map(|off| self.geometry.locate_interior(off))
                .filter(|n| !self.is_on_chip(*n))
        }
    }

    /// The shadow table named `name` (`sct`, `smt` or `st`).
    ///
    /// # Panics
    ///
    /// Panics if the layout has no shadow table of that name.
    pub fn shadow(&self, name: &str) -> &Region {
        (self.shadow.iter())
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("no shadow table named {name}"))
    }

    /// Whether `region` names one of the layout's shadow tables.
    pub(crate) fn is_shadow(&self, region: &str) -> bool {
        self.shadow.iter().any(|r| r.name() == region)
    }

    /// The quarantine spare pool: device addresses reserved for remapping
    /// retired blocks.
    pub(crate) fn spare_pool(&self) -> Vec<BlockAddr> {
        self.spare.iter().collect()
    }

    /// Device address of the `i`-th block of the persisted remap table.
    pub fn qtable_addr(&self, i: u64) -> BlockAddr {
        self.qtable.nth(i)
    }

    /// The remap-table region, for the shared data path.
    pub(crate) fn qtable(&self) -> &Region {
        &self.qtable
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
        let l = Layout::bonsai(&cfg(), 64, 64);
        // 1 MiB data = 16384 lines, 256 counter blocks; 64 quarantine
        // spares plus 1 + ceil(128/4) = 33 remap-table blocks (the table
        // holds up to 2x the pool: remaps plus in-place retirements).
        assert_eq!(l.data_blocks(), 16384);
        assert_eq!(l.geometry().num_leaves(), 256);
        assert_eq!(l.spare_pool().len(), 64);
        assert_eq!(l.qtable().len(), RemapTable::blocks_for(128));
        assert_eq!(
            l.device_bytes() / 64,
            16384 + 16384 + 256 + l.geometry().interior_blocks() + 128 + 64 + 33
        );
    }

    #[test]
    fn quarantine_regions_are_disjoint_from_metadata() {
        for l in [Layout::bonsai(&cfg(), 64, 64), Layout::sgx(&cfg(), 128)] {
            let spares = l.spare_pool();
            assert!(spares.iter().all(|a| l.node_of_addr(*a).is_none()));
            assert!(l.node_of_addr(l.qtable_addr(0)).is_none());
        }
    }

    #[test]
    fn bonsai_counter_mapping() {
        let l = Layout::bonsai(&cfg(), 64, 64);
        let (leaf, slot) = l.leaf_of(DataAddr::new(130));
        assert_eq!(leaf, NodeId::new(0, 2));
        assert_eq!(slot, 2);
        assert_eq!(l.line_of(2, 2), Some(DataAddr::new(130)));
        assert_eq!(l.line_of(10_000, 0), None);
    }

    #[test]
    fn bonsai_node_addr_roundtrip() {
        let l = Layout::bonsai(&cfg(), 64, 64);
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
    fn shadow_tables_by_name() {
        let l = Layout::bonsai(&cfg(), 10, 20);
        assert_eq!(l.shadow("sct").len(), 10);
        assert_eq!(l.shadow("smt").len(), 20);
        assert_ne!(l.shadow("sct").nth(0), l.shadow("smt").nth(0));
        assert!(l.is_shadow("smt") && !l.is_shadow("st") && !l.is_shadow("data"));
        assert_eq!(Layout::sgx(&cfg(), 128).shadow("st").len(), 128);
    }

    #[test]
    fn sgx_leaf_mapping() {
        let l = Layout::sgx(&cfg(), 128);
        let (leaf, slot) = l.leaf_of(DataAddr::new(17));
        assert_eq!(leaf, NodeId::new(0, 2));
        assert_eq!(slot, 1);
        assert_eq!(l.line_of(2, 1), Some(DataAddr::new(17)));
        assert_eq!(l.geometry().num_leaves(), 16384 / 8);
    }

    #[test]
    fn sgx_top_is_on_chip() {
        let l = Layout::sgx(&cfg(), 128);
        let top = l.geometry().top();
        assert!(l.is_on_chip(top));
        assert!(!Layout::bonsai(&cfg(), 64, 64).is_on_chip(top));
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
        let l = Layout::sgx(&cfg(), 128);
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
        let l = Layout::bonsai(&c, 1, 1);
        assert_eq!(l.data_blocks(), 64, "clamped to one full counter block");
        let s = Layout::sgx(&c, 1);
        assert_eq!(s.data_blocks(), 8, "clamped to one full leaf");
    }
}
