//! Degraded-mode repair for the SGX-style controller family: the two
//! metadata rungs of [`crate::Supervised`] the recovery supervisor drives
//! when Algorithm 2 cannot restore a verified state (the per-line rungs
//! are the shared data path's).
//!
//! SGX-style trees cannot be rebuilt bottom-up — interior version
//! counters are not derivable from leaves — so degraded mode works
//! *top-down* from the on-chip top node instead:
//!
//! * **Spill splice** — when a verified Shadow Table tracks more nodes
//!   than the cache can hold (`ShadowCapacityExceeded`), splice entries
//!   straight into NVM, parents before children, keeping only splices
//!   that MAC-verify against their (already-spliced) parent counter.
//! * **Verify-and-reseal cascade** — walk every level below the on-chip
//!   top node; a node that fails MAC verification against its finalized
//!   parent counter keeps its *stored counters* and is re-sealed in
//!   place. Trusting NVM counters restores self-consistency without
//!   wiping subtrees: a genuinely corrupted counter word surfaces one
//!   level down (a child that no longer verifies) or at the data lines
//!   (a line that no longer opens), where the scrub pass repairs or
//!   quarantines exactly the damaged extent. The top node itself stays
//!   the hardware-anchored source of truth.
//! * **Quarantine** — retire unrecoverable data lines into the spare
//!   region, readable as zero under their current leaf counter.

use super::{recovery, SgxController, SgxScheme};
use crate::datapath::Policy;
use crate::error::RecoveryError;
use crate::shadow::StEntry;
use crate::shadow_tree::ShadowTree;
use crate::supervisor::RepairSummary;
use crate::MemoryController;
use anubis_crypto::SgxCounterNode;
use anubis_itree::NodeId;
use anubis_nvm::{Block, BlockAddr, NvmBackend};
use std::collections::BTreeMap;

/// `targeted`: the spill splice when the verified Shadow Table outgrew
/// the cache, then the shared degraded path.
pub(super) fn targeted<B: NvmBackend>(
    c: &mut SgxController<B>,
    err: &RecoveryError,
) -> RepairSummary {
    let mut sum = RepairSummary::default();
    if c.scheme == SgxScheme::Asit && matches!(err, RecoveryError::ShadowCapacityExceeded { .. }) {
        sum.absorb(spill_splice(c));
    }
    sum.absorb(degrade(c));
    sum
}

/// Splices a verified-but-over-capacity Shadow Table straight into NVM,
/// bypassing the cache: parents before children, each splice kept only if
/// it MAC-verifies against its (already-spliced) parent counter. Entries
/// that fail are left stale for the cascade.
fn spill_splice<B: NvmBackend>(c: &mut SgxController<B>) -> RepairSummary {
    let mut sum = RepairSummary::default();
    let st_blocks = c.st_image();
    // Only splice from a table the on-chip root still vouches for.
    if ShadowTree::rebuild(c.config.key, st_blocks.clone()).root() != c.shadow_root {
        return sum;
    }
    let mut entries = dedup_st_entries(c, &st_blocks);
    entries.sort_by_key(|(addr, _)| {
        std::cmp::Reverse(c.layout().node_of_addr(*addr).map(|n| n.level).unwrap_or(0))
    });
    let lsb_bits = c.config.st_lsb_bits;
    for (addr, entry) in entries {
        let Some(id) = c.layout().node_of_addr(addr) else {
            continue;
        };
        let stale = SgxCounterNode::from_block(&c.path.domain.device_mut().read(addr));
        let node = recovery::splice_node(&stale, &entry, lsb_bits);
        if node.verify(&c.mac_key, stored_parent_counter(c, id)) {
            c.path.domain.device_mut().write(addr, node.to_block());
            sum.rebuilt += 1;
        }
    }
    sum
}

/// Parses an ST image into deduplicated `(address, entry)` pairs in
/// node-address order, keeping the freshest duplicate (componentwise-
/// largest counters — counters only ever grow, and a stale duplicate
/// always equals the NVM copy; see DESIGN.md). Entries pointing outside
/// the metadata regions are dropped — possible only through tampering
/// that also defeated the shadow root, but stay defensive.
fn dedup_st_entries<B: NvmBackend>(
    c: &SgxController<B>,
    st_blocks: &[Block],
) -> Vec<(BlockAddr, StEntry)> {
    let mut by_addr: BTreeMap<BlockAddr, StEntry> = BTreeMap::new();
    for block in st_blocks {
        let Some(entry) = StEntry::from_block(block) else {
            continue;
        };
        if c.layout().node_of_addr(entry.addr()).is_none() {
            continue;
        }
        by_addr
            .entry(entry.addr())
            .and_modify(|existing| {
                if lsb_sum(&entry) > lsb_sum(existing) {
                    *existing = entry;
                }
            })
            .or_insert(entry);
    }
    by_addr.into_iter().collect()
}

fn lsb_sum(e: &StEntry) -> u128 {
    e.lsbs().iter().map(|&v| v as u128).sum()
}

/// `node`'s version counter as its parent stores it on the medium, or
/// the on-chip top node holds it: what degraded mode verifies against,
/// with the cache out of the picture.
fn stored_parent_counter<B: NvmBackend>(c: &SgxController<B>, node: NodeId) -> u64 {
    let g = c.layout().geometry();
    match g.parent(node) {
        None => 0,
        Some(p) if c.layout().is_on_chip(p) => c.top.counter(g.child_slot(node)),
        Some(p) => {
            SgxCounterNode::from_block(&c.path.domain.device().read(c.layout().node_addr(p)))
                .counter(g.child_slot(node))
        }
    }
}

/// The shared degraded-mode path: flush whatever the cache still holds,
/// run the verify-and-reseal cascade over the whole tree, and (ASIT)
/// reset the Shadow Table to match the now-empty cache.
pub(super) fn degrade<B: NvmBackend>(c: &mut SgxController<B>) -> RepairSummary {
    // The ASIT flush path stages ST entries through the volatile shadow
    // tree; after a crash it is gone until recovery succeeds.
    if c.scheme == SgxScheme::Asit && c.shadow_tree.is_none() {
        c.shadow_tree = Some(ShadowTree::new(c.config.key, c.st().len()));
    }
    // Best-effort flush of dirty (possibly splice-recovered) nodes so the
    // cascade sees them in NVM; verification failures mid-flush are
    // exactly what the cascade then repairs.
    let _ = c.shutdown_flush();
    c.cache.invalidate_all();
    c.reset_group();
    let sum = verify_reseal_cascade(c);
    if c.scheme == SgxScheme::Asit {
        // ST invariant: entries exist only for resident nodes — none now.
        for slot in 0..c.st().len() {
            let st_addr = c.st().nth(slot);
            if !c.path.domain.device_mut().read(st_addr).is_zeroed() {
                c.path.domain.device_mut().write(st_addr, Block::zeroed());
            }
        }
        let fresh = ShadowTree::new(c.config.key, c.st().len());
        c.shadow_root = fresh.root();
        c.shadow_tree = Some(fresh);
    }
    c.lost_dirty_metadata = false;
    sum
}

/// Walks every level below the on-chip top node, top-down, verifying
/// each node's MAC against its parent counter (finalized by the level
/// above); a failure is re-sealed in place over its stored counters.
fn verify_reseal_cascade<B: NvmBackend>(c: &mut SgxController<B>) -> RepairSummary {
    let g = c.layout().geometry().clone();
    let mut sum = RepairSummary::default();
    let top_level = g.num_levels() - 1;
    for level in (0..top_level).rev() {
        for index in 0..g.nodes_at(level) {
            let node = NodeId::new(level, index);
            let addr = c.layout().node_addr(node);
            let raw = c.path.domain.device().read(addr);
            let pc = stored_parent_counter(c, node);
            let mut val = if raw.is_zeroed() {
                if pc == 0 {
                    // Canonical zero state verifies implicitly.
                    continue;
                }
                SgxCounterNode::new()
            } else {
                SgxCounterNode::from_block(&raw)
            };
            if !val.verify(&c.mac_key, pc) {
                val.seal(&c.mac_key, pc);
                c.path.domain.device_mut().write(addr, val.to_block());
                sum.rebuilt += 1;
            }
        }
    }
    sum
}
