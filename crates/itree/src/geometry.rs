//! Arity/level/indexing math for 8-ary (or any-ary) integrity trees.

/// Identifies one node of an integrity tree.
///
/// Level 0 is the leaf level (counter blocks); the highest level contains
/// exactly one node (the top node, whose digest or counters live on-chip).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Tree level, 0 = leaves.
    pub level: usize,
    /// Node index within the level.
    pub index: u64,
}

impl NodeId {
    /// Convenience constructor.
    pub fn new(level: usize, index: u64) -> Self {
        NodeId { level, index }
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "L{}#{}", self.level, self.index)
    }
}

/// The shape of an integrity tree over `n_leaves` leaf blocks with a given
/// arity.
///
/// Levels shrink by the arity until a single top node remains. Interior
/// nodes (levels ≥ 1) are also assigned a dense linear offset so the
/// memory-controller crate can map them into one contiguous NVM region,
/// packed level by level starting with level 1.
///
/// # Example
///
/// ```
/// use anubis_itree::{TreeGeometry, NodeId};
/// let g = TreeGeometry::new(64, 8);
/// assert_eq!(g.num_levels(), 3);          // 64 leaves, 8 L1 nodes, 1 top
/// assert_eq!(g.nodes_at(1), 8);
/// assert_eq!(g.parent(NodeId::new(0, 17)), Some(NodeId::new(1, 2)));
/// assert_eq!(g.interior_blocks(), 9);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeGeometry {
    arity: u64,
    level_sizes: Vec<u64>,
    /// Linear offset of the first node of each interior level (level 1 is
    /// offset 0); same length as `level_sizes`, entry 0 unused.
    interior_offsets: Vec<u64>,
}

impl TreeGeometry {
    /// Builds the geometry for `n_leaves` leaves and the given `arity`.
    ///
    /// # Panics
    ///
    /// Panics if `n_leaves == 0` or `arity < 2`.
    pub fn new(n_leaves: u64, arity: usize) -> Self {
        assert!(n_leaves > 0, "a tree needs at least one leaf");
        assert!(arity >= 2, "arity must be at least 2");
        let arity = arity as u64;
        let mut level_sizes = vec![n_leaves];
        while *level_sizes.last().expect("nonempty") > 1 {
            let prev = *level_sizes.last().expect("nonempty");
            level_sizes.push(prev.div_ceil(arity));
        }
        let mut interior_offsets = vec![0u64; level_sizes.len()];
        let mut acc = 0u64;
        for level in 1..level_sizes.len() {
            interior_offsets[level] = acc;
            acc += level_sizes[level];
        }
        TreeGeometry {
            arity,
            level_sizes,
            interior_offsets,
        }
    }

    /// Tree arity.
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Number of levels including the leaf level.
    pub fn num_levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// The level of the single top node.
    pub fn top_level(&self) -> usize {
        self.level_sizes.len() - 1
    }

    /// The single top node.
    pub fn top(&self) -> NodeId {
        NodeId::new(self.top_level(), 0)
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> u64 {
        self.level_sizes[0]
    }

    /// Number of nodes at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_levels()`.
    pub fn nodes_at(&self, level: usize) -> u64 {
        self.level_sizes[level]
    }

    /// Total number of interior nodes (levels 1 and above) — the size of
    /// the Merkle-tree NVM region in blocks.
    pub fn interior_blocks(&self) -> u64 {
        self.level_sizes.iter().skip(1).sum()
    }

    /// The parent of `node`, or `None` for the top node.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist in this geometry.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.check(node);
        if node.level == self.top_level() {
            None
        } else {
            Some(NodeId::new(node.level + 1, node.index / self.arity))
        }
    }

    /// The ancestor `up` levels above `node` (`node` itself for 0).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist in this geometry or the tree has
    /// fewer than `up` levels above it.
    pub fn ancestor(&self, node: NodeId, up: usize) -> NodeId {
        (0..up).fold(node, |n, _| self.parent(n).expect("below the top"))
    }

    /// Which child slot (0..arity) `node` occupies in its parent.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist in this geometry.
    pub fn child_slot(&self, node: NodeId) -> usize {
        self.check(node);
        (node.index % self.arity) as usize
    }

    /// The children of an interior `node`, clamped to the lower level's
    /// size (the last node of a level may have fewer than `arity`
    /// children).
    ///
    /// # Panics
    ///
    /// Panics if `node` is a leaf or does not exist.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.check(node);
        assert!(node.level >= 1, "leaves have no children");
        let child_level = node.level - 1;
        let first = node.index * self.arity;
        let last = (first + self.arity).min(self.level_sizes[child_level]);
        (first..last).map(move |i| NodeId::new(child_level, i))
    }

    /// The path of ancestors from `leaf`'s parent up to and including the
    /// top node.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a level-0 node in this geometry.
    pub fn path_to_top(&self, leaf: NodeId) -> Vec<NodeId> {
        assert_eq!(leaf.level, 0, "path_to_top starts from a leaf");
        self.check(leaf);
        let mut path = Vec::with_capacity(self.num_levels() - 1);
        let mut cur = leaf;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Dense linear offset of an interior node in the Merkle-tree region
    /// (level 1 node 0 is offset 0, levels packed in ascending order).
    ///
    /// # Panics
    ///
    /// Panics if `node` is a leaf or does not exist.
    pub fn interior_offset(&self, node: NodeId) -> u64 {
        self.check(node);
        assert!(node.level >= 1, "leaves are not in the interior region");
        self.interior_offsets[node.level] + node.index
    }

    /// Inverse of [`TreeGeometry::interior_offset`].
    ///
    /// # Panics
    ///
    /// Panics if `offset >= interior_blocks()`.
    pub fn locate_interior(&self, offset: u64) -> NodeId {
        assert!(
            offset < self.interior_blocks(),
            "interior offset out of range"
        );
        for level in (1..self.num_levels()).rev() {
            if offset >= self.interior_offsets[level] {
                return NodeId::new(level, offset - self.interior_offsets[level]);
            }
        }
        unreachable!("offset checked against interior_blocks")
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.level < self.num_levels() && node.index < self.level_sizes[node.level],
            "node {node} outside geometry ({} levels)",
            self.num_levels()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_tree() {
        let g = TreeGeometry::new(1, 8);
        assert_eq!(g.num_levels(), 1);
        assert_eq!(g.top(), NodeId::new(0, 0));
        assert_eq!(g.parent(NodeId::new(0, 0)), None);
        assert_eq!(g.interior_blocks(), 0);
    }

    #[test]
    fn exact_power_tree() {
        let g = TreeGeometry::new(512, 8); // 8^3
        assert_eq!(g.num_levels(), 4);
        assert_eq!(g.nodes_at(0), 512);
        assert_eq!(g.nodes_at(1), 64);
        assert_eq!(g.nodes_at(2), 8);
        assert_eq!(g.nodes_at(3), 1);
        assert_eq!(g.interior_blocks(), 73);
    }

    #[test]
    fn ragged_tree_clamps_children() {
        let g = TreeGeometry::new(10, 8); // level1 = 2, top = 1
        assert_eq!(g.num_levels(), 3);
        assert_eq!(g.nodes_at(1), 2);
        let kids: Vec<_> = g.children(NodeId::new(1, 1)).collect();
        assert_eq!(kids.len(), 2); // leaves 8 and 9 only
        assert_eq!(kids[0], NodeId::new(0, 8));
        assert_eq!(kids[1], NodeId::new(0, 9));
    }

    #[test]
    fn parent_child_are_inverse() {
        let g = TreeGeometry::new(1000, 8);
        for level in 1..g.num_levels() {
            for index in 0..g.nodes_at(level) {
                let node = NodeId::new(level, index);
                for child in g.children(node) {
                    assert_eq!(g.parent(child), Some(node));
                    let slot = g.child_slot(child);
                    assert_eq!(child.index, node.index * 8 + slot as u64);
                }
            }
        }
    }

    #[test]
    fn path_to_top_lengths() {
        let g = TreeGeometry::new(512, 8);
        let path = g.path_to_top(NodeId::new(0, 511));
        assert_eq!(path.len(), 3);
        assert_eq!(path.last(), Some(&g.top()));
        assert_eq!(path[0], NodeId::new(1, 63));
    }

    #[test]
    fn ancestors_walk_the_path_to_top() {
        let g = TreeGeometry::new(512, 8);
        let leaf = NodeId::new(0, 511);
        assert_eq!(g.ancestor(leaf, 0), leaf);
        for (up, &node) in g.path_to_top(leaf).iter().enumerate() {
            assert_eq!(g.ancestor(leaf, up + 1), node);
        }
    }

    #[test]
    fn interior_offsets_are_dense_and_invertible() {
        let g = TreeGeometry::new(100, 8); // levels: 100, 13, 2, 1
        assert_eq!(g.interior_blocks(), 16);
        let mut seen = std::collections::HashSet::new();
        for level in 1..g.num_levels() {
            for index in 0..g.nodes_at(level) {
                let node = NodeId::new(level, index);
                let off = g.interior_offset(node);
                assert!(off < g.interior_blocks());
                assert!(seen.insert(off));
                assert_eq!(g.locate_interior(off), node);
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn paper_scale_16gb() {
        // 16 GiB data, 64 B lines, 64 lines per counter block:
        // 2^28 data blocks -> 2^22 counter blocks (leaves).
        let g = TreeGeometry::new(1 << 22, 8);
        assert_eq!(g.num_levels(), 9); // 8^8 > 2^22 >= 8^7; leaves + 8 levels... check below
        assert_eq!(g.nodes_at(g.top_level()), 1);
        // 2^22 / 8^7 = 2^22 / 2^21 = 2: level 7 has 2 nodes, level 8 has 1.
        assert_eq!(g.nodes_at(7), 2);
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_panics() {
        let _ = TreeGeometry::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn bogus_node_panics() {
        TreeGeometry::new(8, 8).parent(NodeId::new(0, 8)).unwrap();
    }

    #[test]
    #[should_panic(expected = "no children")]
    fn leaf_children_panics() {
        let g = TreeGeometry::new(8, 8);
        let _ = g.children(NodeId::new(0, 0)).count();
    }
}
