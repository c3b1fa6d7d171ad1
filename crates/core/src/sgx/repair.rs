//! Degraded-mode repair hooks for the SGX-style controller family: the
//! [`Supervised`] implementation the recovery supervisor drives when
//! Algorithm 2 cannot restore a verified state.
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
use crate::datapath::{Line, Policy};
use crate::error::RecoveryError;
use crate::layout::DataAddr;
use crate::shadow_tree::ShadowTree;
use crate::supervisor::{RepairSummary, Supervised};
use crate::MemoryController;
use anubis_crypto::SgxCounterNode;
use anubis_itree::NodeId;
use anubis_nvm::{Block, BlockAddr, NvmBackend};
use anubis_telemetry::Telemetry;

impl<B: NvmBackend> Supervised for SgxController<B> {
    fn data_lines(&self) -> u64 {
        self.layout.data_blocks()
    }

    fn data_block(&self, addr: DataAddr) -> BlockAddr {
        self.layout.data_addr(addr)
    }

    fn repair_line(&mut self, addr: DataAddr) -> Result<u32, RecoveryError> {
        let line = self.current_line(addr);
        self.path.repair_line(line)
    }

    fn quarantine_line(&mut self, addr: DataAddr) -> Result<bool, RecoveryError> {
        let line = self.current_line(addr);
        Ok(self.path.quarantine_line(line))
    }

    fn targeted_repair(&mut self, err: &RecoveryError) -> Result<RepairSummary, RecoveryError> {
        let mut sum = RepairSummary::default();
        if self.scheme == SgxScheme::Asit
            && matches!(err, RecoveryError::ShadowCapacityExceeded { .. })
        {
            sum.absorb(spill_splice(self));
        }
        sum.absorb(degrade(self));
        Ok(sum)
    }

    fn reconcile_metadata(&mut self) -> Result<RepairSummary, RecoveryError> {
        Ok(degrade(self))
    }

    fn persist_quarantine(&mut self) {
        self.path.persist_quarantine();
    }

    fn is_line_quarantined(&self, addr: DataAddr) -> bool {
        self.path
            .domain
            .device()
            .is_quarantined(self.layout.data_addr(addr))
    }

    fn supervisor_telemetry(&self) -> Telemetry {
        self.path.telemetry.clone()
    }
}

impl<B: NvmBackend> SgxController<B> {
    /// Resolves a line under its current counter, unverified: from the
    /// resident leaf if cached (recovered nodes live there dirty), the
    /// on-chip top node for the degenerate single-leaf tree, or the NVM
    /// copy.
    fn current_line(&mut self, addr: DataAddr) -> Line {
        let (leaf, slot) = self.layout.leaf_of(addr);
        if self.layout.is_on_chip(leaf) {
            return self.line_under(addr, self.top.counter(slot));
        }
        let leaf_addr = self.layout.node_addr(leaf);
        let ctr = match self.cache.peek(leaf_addr) {
            Some(entry) => entry.node.counter(slot),
            None => SgxCounterNode::from_block(&self.path.domain.device_mut().read(leaf_addr))
                .counter(slot),
        };
        self.line_under(addr, ctr)
    }
}

/// Splices a verified-but-over-capacity Shadow Table straight into NVM,
/// bypassing the cache: parents before children, each splice kept only if
/// it MAC-verifies against its (already-spliced) parent counter. Entries
/// that fail are left stale for the cascade.
fn spill_splice<B: NvmBackend>(c: &mut SgxController<B>) -> RepairSummary {
    let mut sum = RepairSummary::default();
    let st_blocks: Vec<Block> = (0..c.layout.st_slots())
        .map(|slot| c.path.domain.device().read(c.layout.st_slot(slot)))
        .collect();
    // Only splice from a table the on-chip root still vouches for.
    if ShadowTree::rebuild(c.config.key, st_blocks.clone()).root() != c.shadow_root {
        return sum;
    }
    let g = c.layout.geometry().clone();
    let mut entries = recovery::dedup_st_entries(c, &st_blocks);
    entries.sort_by_key(|(addr, _)| {
        std::cmp::Reverse(c.layout.node_of_addr(*addr).map(|n| n.level).unwrap_or(0))
    });
    let lsb_bits = c.config.st_lsb_bits;
    for (addr, entry) in entries {
        let Some(id) = c.layout.node_of_addr(addr) else {
            continue;
        };
        let stale = SgxCounterNode::from_block(&c.path.domain.device_mut().read(addr));
        let node = recovery::splice_node(&stale, &entry, lsb_bits);
        let pc = match g.parent(id) {
            None => 0,
            Some(p) if c.layout.is_on_chip(p) => c.top.counter(g.child_slot(id)),
            Some(p) => {
                let p_addr = c.layout.node_addr(p);
                SgxCounterNode::from_block(&c.path.domain.device_mut().read(p_addr))
                    .counter(g.child_slot(id))
            }
        };
        if node.verify(&c.mac_key, pc) {
            c.path.domain.device_mut().write(addr, node.to_block());
            sum.rebuilt += 1;
        }
    }
    sum
}

/// The shared degraded-mode path: flush whatever the cache still holds,
/// run the verify-and-reseal cascade over the whole tree, and (ASIT)
/// reset the Shadow Table to match the now-empty cache.
fn degrade<B: NvmBackend>(c: &mut SgxController<B>) -> RepairSummary {
    // The ASIT flush path stages ST entries through the volatile shadow
    // tree; after a crash it is gone until recovery succeeds.
    if c.scheme == SgxScheme::Asit && c.shadow_tree.is_none() {
        c.shadow_tree = Some(ShadowTree::new(c.config.key, c.layout.st_slots()));
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
        for slot in 0..c.layout.st_slots() {
            let st_addr = c.layout.st_slot(slot);
            if !c.path.domain.device_mut().read(st_addr).is_zeroed() {
                c.path.domain.device_mut().write(st_addr, Block::zeroed());
            }
        }
        let fresh = ShadowTree::new(c.config.key, c.layout.st_slots());
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
    let g = c.layout.geometry().clone();
    let mut sum = RepairSummary::default();
    let top_level = g.num_levels() - 1;
    for level in (0..top_level).rev() {
        for index in 0..g.nodes_at(level) {
            let node = NodeId::new(level, index);
            let addr = c.layout.node_addr(node);
            let raw = c.path.domain.device().read(addr);
            let pc = match g.parent(node) {
                None => 0,
                Some(p) if c.layout.is_on_chip(p) => c.top.counter(g.child_slot(node)),
                Some(p) => {
                    let parent = c.path.domain.device().read(c.layout.node_addr(p));
                    SgxCounterNode::from_block(&parent).counter(g.child_slot(node))
                }
            };
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
