//! The small non-parallelizable tree protecting the ASIT Shadow Table
//! (paper §4.3.1, "Protecting Shadow Table").
//!
//! The tree's *interior* lives in volatile storage (the paper reserves a
//! slice of the metadata cache for it); only its root — `SHADOW_TREE_ROOT`
//! — is kept in an on-chip persistent register. The paper's engine
//! updates it **eagerly** on every Shadow Table write, so after a crash
//! the register attests the exact last-committed ST contents, which
//! recovery re-hashes and checks.
//!
//! The cost model charges that eager update ([`ShadowTree::update_hash_ops`]
//! per ST write). The host does the same work once per commit group
//! instead: [`ShadowTree::stage`] writes a leaf, and
//! [`ShadowTree::settle`], which the controller calls before it builds a
//! group's register mirrors, hashes each node on the union of the staged
//! paths once. The register only moves at commit, and the tree's content
//! is a pure function of its leaves, so every committed root is the one
//! the eager updates give.

use anubis_crypto::Key;
use anubis_itree::bonsai::{ReferenceTree, Root};
use anubis_nvm::Block;

/// Volatile mirror of the Shadow Table plus its protection tree.
#[derive(Clone, Debug)]
pub struct ShadowTree {
    tree: ReferenceTree,
    levels: u32,
    /// Slots staged since the last settle (repeats allowed); reused, so
    /// a steady state allocates nothing.
    dirty: Vec<u64>,
}

impl ShadowTree {
    /// Builds the tree over `slots` all-zero ST blocks.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn new(master: Key, slots: u64) -> Self {
        assert!(slots > 0, "shadow table must have at least one slot");
        Self::over(master, vec![Block::zeroed(); slots as usize])
    }

    /// Rebuilds from an ST image read back from NVM (recovery path) and
    /// returns the recomputed root for comparison with the register.
    pub fn rebuild(master: Key, st_blocks: Vec<Block>) -> Self {
        assert!(
            !st_blocks.is_empty(),
            "shadow table must have at least one slot"
        );
        Self::over(master, st_blocks)
    }

    fn over(master: Key, st_blocks: Vec<Block>) -> Self {
        let tree = ReferenceTree::build(master.derive("shadow-table-tree"), st_blocks);
        let levels = tree.geometry().num_levels() as u32;
        ShadowTree {
            tree,
            levels,
            dirty: Vec::new(),
        }
    }

    /// Records a new ST block at `slot`; the path above it is re-hashed
    /// at the next [`settle`](Self::settle).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn stage(&mut self, slot: u64, block: Block) {
        self.tree.set_leaf(slot, block);
        self.dirty.push(slot);
    }

    /// Re-hashes the paths of every slot staged since the last settle,
    /// each node once, then the root. Returns the new root, or `None`
    /// when nothing was staged.
    pub fn settle(&mut self) -> Option<Root> {
        if self.dirty.is_empty() {
            return None;
        }
        self.tree.rehash(&mut self.dirty);
        Some(self.tree.root())
    }

    /// The root as of the last [`settle`](Self::settle) (or the build).
    pub fn root(&self) -> Root {
        self.tree.root()
    }

    /// Hash computations the cost model charges per ST write: one digest
    /// per level, as the paper's eager engine spends them. The host
    /// settles once per group, which hashes a shared ancestor once; the
    /// charge is per logical write all the same.
    pub fn update_hash_ops(&self) -> u32 {
        self.levels
    }

    /// Hash computations charged for a full rebuild (≈ every node once).
    pub fn rebuild_hash_ops(&self) -> u64 {
        let g = self.tree.geometry();
        (0..g.num_levels()).map(|l| g.nodes_at(l)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_changes_root_deterministically() {
        let mut a = ShadowTree::new(Key([1, 2]), 16);
        let mut b = ShadowTree::new(Key([1, 2]), 16);
        assert_eq!(a.root(), b.root());
        a.stage(3, Block::filled(0xAA));
        b.stage(3, Block::filled(0xAA));
        let ra = a.settle().expect("a slot was staged");
        assert_eq!(Some(ra), b.settle());
        assert_eq!(a.settle(), None, "nothing staged since");
        assert_eq!(a.root(), ra);
        assert_ne!(ra, ShadowTree::new(Key([1, 2]), 16).root());
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut inc = ShadowTree::new(Key([5, 6]), 32);
        let mut image = vec![Block::zeroed(); 32];
        for (slot, fill) in [(0u64, 1u8), (31, 2), (7, 3), (7, 4)] {
            image[slot as usize] = Block::filled(fill);
            inc.stage(slot, Block::filled(fill));
        }
        inc.settle();
        let rebuilt = ShadowTree::rebuild(Key([5, 6]), image);
        assert_eq!(rebuilt.root(), inc.root());
    }

    #[test]
    fn tampered_image_mismatches() {
        let mut inc = ShadowTree::new(Key([5, 6]), 8);
        inc.stage(2, Block::filled(9));
        inc.settle();
        let mut image = vec![Block::zeroed(); 8];
        image[2] = Block::filled(9);
        image[2].flip_bit(0); // attacker flips one ST bit
        assert_ne!(ShadowTree::rebuild(Key([5, 6]), image).root(), inc.root());
    }

    #[test]
    fn paper_sized_table_has_four_plus_levels() {
        // 256 KB cache -> 4096 slots -> 8-ary tree of 4 interior levels
        // (the paper: "only a tree of four levels (8-ary) needs to be
        // maintained").
        let t = ShadowTree::new(Key([1, 1]), 4096);
        assert_eq!(t.update_hash_ops(), 5); // 4096 leaves + 4 levels above
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = ShadowTree::new(Key([1, 1]), 0);
    }
}
