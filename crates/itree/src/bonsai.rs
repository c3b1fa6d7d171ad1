//! The general, non-parallelizable 8-ary Bonsai-style Merkle tree
//! (paper §2.3.1, Fig. 2).
//!
//! Interior nodes are 64-byte blocks holding eight 8-byte keyed hashes,
//! one per child block. The digest of the single top node is the **root**
//! kept on-chip. Because every interior node is a pure function of its
//! children, the whole tree — root included — can be rebuilt from the
//! leaves, which is what AGIT exploits to repair only tracked nodes.

use crate::geometry::{NodeId, TreeGeometry};
use anubis_crypto::hash::Hasher64;
use anubis_crypto::Key;
use anubis_nvm::Block;

/// An on-chip Merkle root digest.
///
/// Newtype so roots cannot be confused with ordinary hash words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Root(pub u64);

/// Keyed hashing for Bonsai-tree nodes.
///
/// Digests are content-only, as in the classical Bonsai Merkle Tree:
/// position is enforced *structurally* — a child is always checked
/// against the digest stored in its own slot of its own parent, so
/// transplanting a block to another position fails against that slot's
/// stored digest. Content-only digests are also what make the all-zero
/// initial memory image cheap to support: every never-written node of a
/// level shares one canonical zero-state content.
///
/// # Example
///
/// ```
/// use anubis_crypto::Key;
/// use anubis_itree::bonsai::BonsaiHasher;
/// use anubis_nvm::Block;
///
/// let h = BonsaiHasher::new(Key([1, 2]));
/// assert_ne!(h.digest(&Block::filled(1)), h.digest(&Block::filled(2)));
/// ```
#[derive(Clone, Debug)]
pub struct BonsaiHasher {
    hasher: Hasher64,
}

impl BonsaiHasher {
    /// Derives the tree-hash key from a master key.
    pub fn new(master: Key) -> Self {
        BonsaiHasher {
            hasher: Hasher64::new(master.derive("bonsai-tree")),
        }
    }

    /// Digest of one node/leaf block.
    pub fn digest(&self, content: &Block) -> u64 {
        self.hasher.hash(content.as_bytes())
    }

    /// Builds an interior node block from the digests of its children.
    /// Missing children (ragged last node) hash as zero words.
    pub fn parent_block(&self, child_digests: &[u64]) -> Block {
        assert!(child_digests.len() <= Block::WORDS, "at most 8 children");
        let mut b = Block::zeroed();
        for (i, d) in child_digests.iter().enumerate() {
            b.set_word(i, *d);
        }
        b
    }
}

/// A fully materialized Bonsai Merkle tree over an in-memory leaf array.
///
/// This is the *reference model*: tests build one next to a cached,
/// lazily-written controller and check that the controller's recovered
/// root matches `ReferenceTree::root()`. It is also the O(n) "rebuild
/// everything" path used to model Osiris whole-memory recovery.
///
/// # Example
///
/// ```
/// use anubis_crypto::Key;
/// use anubis_itree::bonsai::ReferenceTree;
/// use anubis_nvm::Block;
///
/// let leaves = vec![Block::filled(1), Block::filled(2), Block::filled(3)];
/// let mut tree = ReferenceTree::build(Key([1, 2]), leaves);
/// let before = tree.root();
/// tree.update_leaf(1, Block::filled(9));
/// assert_ne!(tree.root(), before);
/// ```
#[derive(Clone, Debug)]
pub struct ReferenceTree {
    hasher: BonsaiHasher,
    geometry: TreeGeometry,
    /// `levels[0]` are the leaves; higher levels are interior blocks.
    levels: Vec<Vec<Block>>,
}

impl ReferenceTree {
    /// Builds the full tree bottom-up from `leaves`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn build(master: Key, leaves: Vec<Block>) -> Self {
        let hasher = BonsaiHasher::new(master);
        let geometry = TreeGeometry::new(leaves.len() as u64, 8);
        let mut levels = vec![leaves];
        for level in 1..geometry.num_levels() {
            let mut nodes = Vec::with_capacity(geometry.nodes_at(level) as usize);
            for index in 0..geometry.nodes_at(level) {
                let digests: Vec<u64> = geometry
                    .children(NodeId::new(level, index))
                    .map(|c| hasher.digest(&levels[level - 1][c.index as usize]))
                    .collect();
                nodes.push(hasher.parent_block(&digests));
            }
            levels.push(nodes);
        }
        ReferenceTree {
            hasher,
            geometry,
            levels,
        }
    }

    /// The tree's shape.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// The on-chip root digest (hash of the top node).
    pub fn root(&self) -> Root {
        let top = self.geometry.top();
        Root(self.hasher.digest(&self.levels[top.level][0]))
    }

    /// The current content of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the geometry.
    pub fn node(&self, node: NodeId) -> &Block {
        &self.levels[node.level][node.index as usize]
    }

    /// Replaces leaf `index` and eagerly re-hashes the path to the top.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update_leaf(&mut self, index: u64, content: Block) {
        self.levels[0][index as usize] = content;
        let mut child = NodeId::new(0, index);
        while let Some(parent) = self.geometry.parent(child) {
            let digest = self
                .hasher
                .digest(&self.levels[child.level][child.index as usize]);
            let slot = self.geometry.child_slot(child);
            self.levels[parent.level][parent.index as usize].set_word(slot, digest);
            child = parent;
        }
    }

    /// Replaces leaf `index` without touching the interior: the path
    /// above it is stale until a [`rehash`](Self::rehash) covers `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_leaf(&mut self, index: u64, content: Block) {
        self.levels[0][index as usize] = content;
    }

    /// Re-hashes the union of the paths above the leaves in `dirty`,
    /// bottom-up, hashing each node on it once: the interior ends as
    /// [`update_leaf`](Self::update_leaf) per write would leave it.
    /// `dirty` may hold repeats and any order; it is left empty with its
    /// capacity kept, so a caller that reuses it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if an index in `dirty` is out of range.
    pub fn rehash(&mut self, dirty: &mut Vec<u64>) {
        dirty.sort_unstable();
        dirty.dedup();
        for level in 0..self.geometry.top_level() {
            // Parents of sorted children come out sorted, so consecutive
            // repeats are the only ones and the list is rewritten in place.
            let mut parents = 0;
            for i in 0..dirty.len() {
                let child = NodeId::new(level, dirty[i]);
                let digest = self
                    .hasher
                    .digest(&self.levels[level][child.index as usize]);
                let parent = self.geometry.parent(child).expect("below the top");
                let slot = self.geometry.child_slot(child);
                self.levels[level + 1][parent.index as usize].set_word(slot, digest);
                if parents == 0 || dirty[parents - 1] != parent.index {
                    dirty[parents] = parent.index;
                    parents += 1;
                }
            }
            dirty.truncate(parents);
        }
        dirty.clear();
    }

    /// Verifies that every interior node matches its children and returns
    /// the root if consistent, or the first inconsistent node.
    ///
    /// # Errors
    ///
    /// Returns the `NodeId` of the first node whose stored child digest
    /// disagrees with the child's recomputed digest.
    pub fn verify_all(&self) -> Result<Root, NodeId> {
        for level in 1..self.geometry.num_levels() {
            for index in 0..self.geometry.nodes_at(level) {
                let node = NodeId::new(level, index);
                for child in self.geometry.children(node) {
                    let expect = self
                        .hasher
                        .digest(&self.levels[child.level][child.index as usize]);
                    let stored =
                        self.levels[level][index as usize].word(self.geometry.child_slot(child));
                    if stored != expect {
                        return Err(node);
                    }
                }
            }
        }
        Ok(self.root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Block> {
        (0..n).map(|i| Block::filled(i as u8)).collect()
    }

    #[test]
    fn two_word_flips_change_the_digest() {
        // Words i < j of a node, one bit of each, including the bit-63
        // pair.
        let h = BonsaiHasher::new(Key([1, 2]));
        let words: [u64; 8] = core::array::from_fn(|i| (i as u64 + 1) * 0x0123_4567);
        let base = h.digest(&Block::from_words(words));
        const BITS: [u32; 4] = [0, 31, 55, 63];
        for i in 0..8 {
            for j in i + 1..8 {
                for a in BITS {
                    for b in BITS {
                        let mut w = words;
                        w[i] ^= 1 << a;
                        w[j] ^= 1 << b;
                        let d = h.digest(&Block::from_words(w));
                        assert_ne!(d, base, "word {i} bit {a}, word {j} bit {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn build_and_verify() {
        let t = ReferenceTree::build(Key([1, 2]), leaves(100));
        assert_eq!(t.verify_all().unwrap(), t.root());
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let mut t = ReferenceTree::build(Key([1, 2]), leaves(64));
        let r0 = t.root();
        for i in [0u64, 31, 63] {
            t.update_leaf(i, Block::filled(0xEE));
            assert_ne!(t.root(), r0, "leaf {i} update must change root");
            assert!(t.verify_all().is_ok());
        }
    }

    #[test]
    fn update_then_rebuild_agree() {
        let mut t = ReferenceTree::build(Key([7, 7]), leaves(200));
        t.update_leaf(123, Block::filled(0xAB));
        t.update_leaf(0, Block::filled(0xCD));
        let rebuilt = ReferenceTree::build(Key([7, 7]), t.levels[0].clone());
        assert_eq!(t.root(), rebuilt.root());
    }

    #[test]
    fn tamper_detected_by_verify_all() {
        let mut t = ReferenceTree::build(Key([1, 2]), leaves(64));
        // Corrupt an interior node directly.
        t.levels[1][3].flip_bit(5);
        let bad = t.verify_all().unwrap_err();
        // The inconsistency is found at the corrupted node's parent or at
        // the node itself (its own children no longer match it).
        assert!(bad.level >= 1);
    }

    #[test]
    fn leaf_tamper_detected() {
        let mut t = ReferenceTree::build(Key([1, 2]), leaves(64));
        t.levels[0][17].flip_bit(0);
        assert_eq!(t.verify_all().unwrap_err(), NodeId::new(1, 2));
    }

    #[test]
    fn different_keys_different_roots() {
        let a = ReferenceTree::build(Key([1, 2]), leaves(10));
        let b = ReferenceTree::build(Key([1, 3]), leaves(10));
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn single_leaf_root_is_leaf_digest() {
        let t = ReferenceTree::build(Key([1, 2]), leaves(1));
        let h = BonsaiHasher::new(Key([1, 2]));
        assert_eq!(t.root(), Root(h.digest(&Block::filled(0))));
    }

    #[test]
    fn swapping_distinct_leaves_changes_root() {
        // Transplants are caught structurally: each parent slot stores the
        // digest of *its* child, so moving content between positions
        // perturbs the parents and hence the root.
        let mut ls = leaves(16);
        let t1 = ReferenceTree::build(Key([1, 2]), ls.clone());
        ls.swap(0, 9);
        let t2 = ReferenceTree::build(Key([1, 2]), ls);
        assert_ne!(t1.root(), t2.root());
    }
}
