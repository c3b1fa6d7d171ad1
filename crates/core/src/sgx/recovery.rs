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
//!   onto its stale NVM copy, put each recovered node back into the cache
//!   slot its entry occupies (dirty, so it lazily propagates), and verify
//!   every recovered node's MAC against its parent counter.
//!
//! ASIT recovery writes nothing. The ST is indexed by the cache's stable
//! slot and holds an entry exactly while that slot's node is resident and
//! dirty, so once every node is back in its own slot the table, its
//! shadow tree and `SHADOW_TREE_ROOT` already describe the recovered
//! cache. A cut recovery leaves the image it started from, and the next
//! one does the same work again.
//!
//! Unlike the Bonsai rebuild, no level ordering is needed: each SGX
//! node's MAC verifies against its *parent counter* — already current in
//! the cache, the on-chip top node or NVM — not against sibling or child
//! contents, so every recovered node verifies independently. Entries are
//! processed in slot order.

use super::{SgxController, SgxEntry, SgxScheme};
use crate::error::RecoveryError;
use crate::recovery::RecoveryReport;
use crate::shadow::StEntry;
use crate::shadow_tree::ShadowTree;
use anubis_crypto::{SgxCounterNode, SGX_COUNTERS_PER_NODE};
use anubis_nvm::{BlockAddr, NvmBackend};

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
    let entries: Vec<(usize, StEntry)> = (st_blocks.iter().enumerate())
        .filter_map(|(slot, block)| StEntry::from_block(block).map(|e| (slot, e)))
        .collect();

    // Step 2: regenerate SHADOW_TREE_ROOT and verify against the on-chip
    // register.
    let rebuilt = {
        let _span = tel.span("recovery_phase", "shadow_verify");
        ShadowTree::rebuild(c.config.key, st_blocks)
    };
    t.hash_ops += rebuilt.rebuild_hash_ops();
    if rebuilt.root() != c.shadow_root {
        return Err(RecoveryError::ShadowTableTampered);
    }

    // Step 3: recover each tracked node — stale NVM MSBs + shadow LSBs,
    // MAC from the entry — into the cache slot its entry occupies.
    // Entries pointing outside the metadata regions are dropped: possible
    // only through tampering that also defeated the shadow root.
    let lsb_bits = c.config.st_lsb_bits;
    let splice_span = tel
        .span("recovery_phase", "splice")
        .items(entries.len() as u64);
    let mut recovered: Vec<(BlockAddr, SgxCounterNode)> = Vec::with_capacity(entries.len());
    for (slot, entry) in &entries {
        let addr = entry.addr();
        if c.layout().node_of_addr(addr).is_none() {
            continue;
        }
        t.nvm_reads += 1;
        let stale = SgxCounterNode::from_block(&c.path.domain.device().read(addr));
        let node = splice_node(&stale, entry, lsb_bits);
        let value = SgxEntry {
            node,
            since_persist: 0,
        };
        // An entry in a slot of another set, or naming a node another
        // slot already holds, describes no cache the geometry allows:
        // corruption, reported as a typed error rather than a panic.
        let Some(resident) = c.cache.insert_at(addr, *slot, value) else {
            tel.incr("recovery_errors_total", "shadow_capacity", 1);
            return Err(RecoveryError::ShadowCapacityExceeded { addr });
        };
        c.cache.mark_dirty_at(resident);
        t.nodes_fixed += 1;
        recovered.push((addr, node));
    }
    drop(splice_span);

    // Step 4: verify every recovered node's MAC against its parent
    // counter (recovered parent from the cache, the on-chip top node, or
    // the — necessarily current — NVM copy). Parent counters are never
    // *contents being repaired here*, so the checks need no order.
    let g = c.layout().geometry().clone();
    let _mac_span = tel
        .span("recovery_phase", "mac_verify")
        .items(recovered.len() as u64);
    for (addr, node) in &recovered {
        let id = c.layout().node_of_addr(*addr).expect("validated above");
        let pc = match g.parent(id) {
            None => 0,
            Some(p) if c.layout().is_on_chip(p) => c.top.counter(g.child_slot(id)),
            Some(p) => {
                let p_addr = c.layout().node_addr(p);
                if let Some(resident) = c.cache.slot_of(p_addr) {
                    c.cache.at(resident).node.counter(g.child_slot(id))
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
    // The table already describes the recovered cache, slot for slot: the
    // tree verified over it is the run-time shadow tree, and neither the
    // table nor `SHADOW_TREE_ROOT` moves.
    c.shadow_tree = Some(rebuilt);
    Ok(())
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
