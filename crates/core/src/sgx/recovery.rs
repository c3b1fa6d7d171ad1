//! Post-crash recovery for the SGX-style controller family.
//!
//! * **Strict persistence** — nothing was lost; trivial.
//! * **Write-back / Osiris** — structurally unrecoverable once dirty
//!   metadata was lost: interior nodes cannot be rebuilt from leaves
//!   (paper §3). The simulation reads the loss from the image (the
//!   dirty-metadata bit its last commit left with the register mirrors)
//!   and reports [`RecoveryError::SchemeCannotRecover`].
//! * **ASIT** (Algorithm 2) — read the Shadow Table, verify it against
//!   `SHADOW_TREE_ROOT`, splice each tracked node's counter LSBs and MAC
//!   onto its stale NVM copy, place the recovered nodes in the metadata
//!   cache (dirty, so they lazily propagate), and verify every recovered
//!   node's MAC against its parent counter.
//!
//! Unlike the Bonsai rebuild, no level ordering is needed: each SGX
//! node's MAC verifies against its *parent counter* — already current in
//! the cache, the on-chip top node or NVM — not against sibling or child
//! contents, so every recovered node verifies independently. Entries are
//! processed in node-address order, which fixes cache placement and the
//! rewritten ST.

use super::{SgxController, SgxEntry, SgxScheme};
use crate::error::RecoveryError;
use crate::recovery::RecoveryReport;
use crate::shadow::StEntry;
use crate::shadow_tree::ShadowTree;
use anubis_crypto::{SgxCounterNode, SGX_COUNTERS_PER_NODE};
use anubis_nvm::{BlockAddr, NvmBackend};
use std::collections::BTreeMap;

/// The scheme's recovery, after power-up (`crate::recovery::run`).
pub(super) fn recover<B: NvmBackend>(
    c: &mut SgxController<B>,
    t: &mut RecoveryReport,
) -> Result<(), RecoveryError> {
    match c.scheme {
        // Everything persisted eagerly; the tree in NVM plus the on-chip
        // top node is complete and fresh.
        SgxScheme::StrictPersist => Ok(()),
        SgxScheme::WriteBack | SgxScheme::EagerWriteBack | SgxScheme::Osiris => {
            if c.lost_dirty_metadata {
                return Err(RecoveryError::SchemeCannotRecover {
                    reason: "SGX-style interior nodes cannot be rebuilt from leaves; \
                             dirty metadata lost in the crash is gone for good \
                             (even with an eagerly-updated, perfectly fresh top node)",
                });
            }
            Ok(())
        }
        SgxScheme::Asit => recover_asit(c, t),
    }
}

/// Algorithm 2 (paper §4.3.2).
fn recover_asit<B: NvmBackend>(
    c: &mut SgxController<B>,
    t: &mut RecoveryReport,
) -> Result<(), RecoveryError> {
    let tel = c.path.telemetry.clone();
    // Step 1: read the whole Shadow Table in slot order.
    let st_slots = c.st().len();
    let st_blocks = {
        let _span = tel.span("recovery_phase", "st_scan").items(st_slots);
        c.st_image()
    };
    t.nvm_reads += st_slots;

    // Step 2: regenerate SHADOW_TREE_ROOT and verify against the on-chip
    // register.
    let rebuilt = {
        let _span = tel.span("recovery_phase", "shadow_verify");
        ShadowTree::rebuild(c.config.key, st_blocks.clone())
    };
    t.hash_ops += rebuilt.rebuild_hash_ops();
    if rebuilt.root() != c.shadow_root {
        return Err(RecoveryError::ShadowTableTampered);
    }

    // Parse and deduplicate the entries in node-address order (shared
    // with the degraded-mode spill splice in the `repair` module).
    let lsb_bits = c.config.st_lsb_bits;
    let entries = dedup_st_entries(c, &st_blocks);

    // Step 3: recover each tracked node: stale NVM MSBs + shadow LSBs,
    // MAC replaced from the shadow entry.
    let splice_span = tel
        .span("recovery_phase", "splice")
        .items(entries.len() as u64);
    let mut recovered: Vec<(BlockAddr, SgxCounterNode)> = Vec::with_capacity(entries.len());
    for (addr, entry) in &entries {
        t.nvm_reads += 1;
        let stale = SgxCounterNode::from_block(&c.path.domain.device().read(*addr));
        let node = splice_node(&stale, entry, lsb_bits);
        let outcome = c.cache.insert(
            *addr,
            SgxEntry {
                node,
                since_persist: 0,
            },
        );
        // Recovered nodes co-resided before the crash, so they must fit
        // without evicting each other; an eviction means the verified ST
        // held more distinct nodes than the cache geometry allows —
        // corruption, reported as a typed error rather than a panic.
        if outcome.evicted.is_some() {
            tel.incr("recovery_errors_total", "shadow_capacity", 1);
            return Err(RecoveryError::ShadowCapacityExceeded { addr: *addr });
        }
        c.cache.mark_dirty(*addr);
        t.nodes_fixed += 1;
        recovered.push((*addr, node));
    }
    drop(splice_span);

    // Step 4: verify every recovered node's MAC against its parent
    // counter (recovered parent from the cache, the on-chip top node, or
    // the — necessarily current — NVM copy). Parent counters are never
    // *contents being repaired here*, so the checks need no order.
    let g = c.layout().geometry().clone();
    let mac_span = tel
        .span("recovery_phase", "mac_verify")
        .items(recovered.len() as u64);
    for (addr, node) in &recovered {
        let id = c.layout().node_of_addr(*addr).expect("validated above");
        let pc = match g.parent(id) {
            None => 0,
            Some(p) if c.layout().is_on_chip(p) => c.top.counter(g.child_slot(id)),
            Some(p) => {
                let p_addr = c.layout().node_addr(p);
                if let Some(entry) = c.cache.peek(p_addr) {
                    entry.node.counter(g.child_slot(id))
                } else {
                    t.nvm_reads += 1;
                    let b = c.path.domain.device().read(p_addr);
                    SgxCounterNode::from_block(&b).counter(g.child_slot(id))
                }
            }
        };
        t.hash_ops += 1;
        if !node.verify(&c.mac_key, pc) {
            tel.incr("recovery_errors_total", "node_mac_mismatch", 1);
            return Err(RecoveryError::NodeMacMismatch { addr: *addr });
        }
    }
    drop(mac_span);

    // Normalize the Shadow Table to the post-recovery cache state.
    //
    // Re-insertion may have placed recovered nodes in different ways than
    // they occupied before the crash; without rewriting the ST, the old
    // slots would keep orphaned entries that a *later* recovery could
    // resurrect (rolling counters back to a stale-but-MAC-valid state).
    // Recovery therefore rewrites each recovered node's entry at its
    // current slot and clears every other slot, re-anchoring
    // SHADOW_TREE_ROOT. O(cache) work, like the rest of Algorithm 2.
    let _rewrite_span = tel
        .span("recovery_phase", "st_rewrite")
        .items(recovered.len() as u64);
    let lsb_mask = (1u64 << lsb_bits) - 1;
    let mut fresh_tree = ShadowTree::new(c.config.key, st_slots);
    t.hash_ops += fresh_tree.rebuild_hash_ops();
    let mut occupied = vec![false; st_slots as usize];
    for (addr, node) in &recovered {
        // Residency was established by the insert loop above; a miss here
        // would mean the cache dropped a just-inserted node — treat it as
        // the same capacity corruption rather than panicking.
        let Some(slot_id) = c.cache.slot_of(*addr) else {
            tel.incr("recovery_errors_total", "shadow_capacity", 1);
            return Err(RecoveryError::ShadowCapacityExceeded { addr: *addr });
        };
        let slot = slot_id.linear(c.cache.ways()) as u64;
        let mut lsbs = [0u64; SGX_COUNTERS_PER_NODE];
        for (i, l) in lsbs.iter_mut().enumerate() {
            *l = node.counter(i) & lsb_mask;
        }
        let block = StEntry::new(*addr, node.mac(), lsbs).to_block();
        t.nvm_writes += 1;
        let st_addr = c.st().nth(slot);
        c.path.domain.device_mut().write(st_addr, block);
        fresh_tree.stage(slot, block);
        occupied[slot as usize] = true;
    }
    for slot in 0..st_slots {
        if !occupied[slot as usize] && !st_blocks[slot as usize].is_zeroed() {
            t.nvm_writes += 1;
            let st_addr = c.st().nth(slot);
            (c.path.domain.device_mut()).write(st_addr, anubis_nvm::Block::zeroed());
        }
    }
    fresh_tree.settle();
    c.shadow_root = fresh_tree.root();
    c.shadow_tree = Some(fresh_tree);
    Ok(())
}

/// Parses an ST image into deduplicated `(address, entry)` pairs in
/// node-address order, keeping the freshest duplicate (componentwise-
/// largest counters — counters only ever grow, and a stale duplicate
/// always equals the NVM copy; see DESIGN.md). Entries pointing outside
/// the metadata regions are dropped — possible only through tampering
/// that also defeated the shadow root, but stay defensive.
pub(super) fn dedup_st_entries<B: NvmBackend>(
    c: &SgxController<B>,
    st_blocks: &[anubis_nvm::Block],
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

/// Splices a shadow entry onto the stale NVM copy of its node: shadow
/// LSBs replace the counters' low bits, the MAC comes from the entry.
pub(super) fn splice_node(
    stale: &SgxCounterNode,
    entry: &StEntry,
    lsb_bits: u32,
) -> SgxCounterNode {
    let mask = (1u64 << lsb_bits) - 1;
    let mut node = SgxCounterNode::new();
    for i in 0..SGX_COUNTERS_PER_NODE {
        node.set_counter(i, (stale.counter(i) & !mask) | entry.lsbs()[i]);
    }
    node.set_mac(entry.mac());
    node
}

pub(super) fn lsb_sum(e: &StEntry) -> u128 {
    e.lsbs().iter().map(|&v| v as u128).sum()
}
