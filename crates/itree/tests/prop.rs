//! Randomized property tests for the integrity trees, driven by the
//! in-tree [`SplitMix64`] generator; failure messages carry the seed.

use anubis_crypto::Key;
use anubis_itree::bonsai::ReferenceTree;
use anubis_itree::sgx::ReferenceSgxTree;
use anubis_itree::{NodeId, TreeGeometry};
use anubis_nvm::{Block, SplitMix64};

fn rand_block(rng: &mut SplitMix64) -> Block {
    Block::from_words(core::array::from_fn(|_| rng.next_u64()))
}

/// Incremental leaf updates and a from-scratch rebuild agree on the
/// root for any update sequence.
#[test]
fn bonsai_incremental_equals_rebuild() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed);
        let n_leaves = rng.gen_range(1..200) as usize;
        let n_updates = rng.gen_range(0..30) as usize;
        let mut leaves = vec![Block::zeroed(); n_leaves];
        let mut tree = ReferenceTree::build(Key([1, 2]), leaves.clone());
        for _ in 0..n_updates {
            let i = rng.next_u64() % n_leaves as u64;
            let content = rand_block(&mut rng);
            leaves[i as usize] = content;
            tree.update_leaf(i, content);
        }
        let rebuilt = ReferenceTree::build(Key([1, 2]), leaves);
        assert_eq!(tree.root(), rebuilt.root(), "seed {seed}");
        assert!(tree.verify_all().is_ok(), "seed {seed}");
    }
}

/// Any sequence of `set_leaf` calls, repeats included, followed by one
/// `rehash` leaves every node and the root as `update_leaf` per write
/// does — on one-leaf trees, full trees and ragged ones.
#[test]
fn bonsai_set_leaf_then_rehash_equals_update_per_write() {
    let mut sizes = vec![1u64, 8, 64, 65, 513];
    let mut rng = SplitMix64::new(0x5E7);
    sizes.extend((0..19).map(|_| rng.gen_range(1..300)));
    for (seed, n_leaves) in sizes.into_iter().enumerate() {
        let mut rng = SplitMix64::new(seed as u64 ^ 0x2EA);
        let mut eager = ReferenceTree::build(Key([8, 9]), vec![Block::zeroed(); n_leaves as usize]);
        let mut lazy = eager.clone();
        let mut dirty = Vec::new();
        for _ in 0..rng.gen_range(0..40) {
            // Draw from a few leaves half the time, so repeats are common.
            let i = if rng.gen_index(2) == 0 {
                rng.next_u64() % n_leaves.min(3)
            } else {
                rng.next_u64() % n_leaves
            };
            let content = rand_block(&mut rng);
            eager.update_leaf(i, content);
            lazy.set_leaf(i, content);
            dirty.push(i);
        }
        lazy.rehash(&mut dirty);
        assert!(dirty.is_empty(), "seed {seed}");
        assert_eq!(lazy.root(), eager.root(), "seed {seed}, {n_leaves} leaves");
        let g = eager.geometry().clone();
        for level in 0..g.num_levels() {
            for index in 0..g.nodes_at(level) {
                let node = NodeId::new(level, index);
                assert_eq!(lazy.node(node), eager.node(node), "seed {seed}: {node}");
            }
        }
    }
}

/// Any single-bit tamper of any node or leaf breaks verification or
/// changes the root.
#[test]
fn bonsai_tamper_always_detected() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed ^ 0x7A3);
        let n_leaves = rng.gen_range(2..64) as usize;
        let bit = rng.gen_index(512);
        let leaves: Vec<Block> = (0..n_leaves).map(|i| Block::filled(i as u8)).collect();
        let tree = ReferenceTree::build(Key([3, 4]), leaves.clone());
        let g = tree.geometry().clone();
        let level = rng.gen_index(g.num_levels());
        let index = rng.next_u64() % g.nodes_at(level);
        let mut content = *tree.node(NodeId::new(level, index));
        content.flip_bit(bit);
        // Interior tamper: detected by digest recomputation. Leaf tamper:
        // changes the root.
        if level == 0 {
            let mut leaves2 = leaves;
            leaves2[index as usize] = content;
            let rebuilt = ReferenceTree::build(Key([3, 4]), leaves2);
            assert_ne!(rebuilt.root(), tree.root(), "seed {seed}");
        } else {
            let h = anubis_itree::bonsai::BonsaiHasher::new(Key([3, 4]));
            assert_ne!(
                h.digest(&content),
                h.digest(tree.node(NodeId::new(level, index))),
                "seed {seed}"
            );
        }
    }
}

/// SGX tree: any interleaving of counter bumps keeps every MAC chain
/// valid, and replaying any pre-bump node is detected.
#[test]
fn sgx_bumps_keep_consistency_and_reject_replay() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed ^ 0x59C);
        let lines = rng.gen_range(8..512);
        let n_bumps = rng.gen_range(1..40) as usize;
        let mut tree = ReferenceSgxTree::new(Key([5, 6]), lines);
        let mut snapshots = Vec::new();
        for _ in 0..n_bumps {
            let line = rng.next_u64() % lines;
            let leaf = NodeId::new(0, line / 8);
            snapshots.push((leaf, *tree.node(leaf)));
            tree.bump_leaf_counter(line);
        }
        assert!(tree.verify_all().is_ok(), "seed {seed}");
        // Replay the oldest snapshot of a bumped leaf: must be detected —
        // except in the degenerate single-node tree, where the "leaf" is
        // the top node, which lives on-chip in hardware and cannot be
        // replayed at all (the controller models it as a register).
        let (leaf, old) = snapshots[0];
        if tree.geometry().num_levels() > 1 {
            let mut attacked = tree.clone();
            attacked.set_node(leaf, old);
            assert!(
                attacked.verify_leaf_path(leaf.index).is_err(),
                "seed {seed}"
            );
        }
    }
}

/// Geometry: interior offsets form a dense bijection for arbitrary
/// leaf counts.
#[test]
fn geometry_offsets_bijective() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed ^ 0x6E0);
        let n_leaves = rng.gen_range(1..100_000);
        let g = TreeGeometry::new(n_leaves, 8);
        let total = g.interior_blocks();
        // Spot-check boundaries of every level rather than all nodes.
        for level in 1..g.num_levels() {
            for index in [0, g.nodes_at(level) / 2, g.nodes_at(level) - 1] {
                let node = NodeId::new(level, index);
                let off = g.interior_offset(node);
                assert!(off < total, "seed {seed}");
                assert_eq!(g.locate_interior(off), node, "seed {seed}");
            }
        }
        // Parent of every leaf exists and has the right child span.
        for index in [0, n_leaves / 2, n_leaves - 1] {
            let leaf = NodeId::new(0, index);
            if g.num_levels() > 1 {
                let p = g.parent(leaf).unwrap();
                assert!(g.children(p).any(|c| c == leaf), "seed {seed}");
            }
        }
    }
}
