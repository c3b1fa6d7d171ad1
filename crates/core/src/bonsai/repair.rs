//! Degraded-mode repair for the Bonsai controller family: the two
//! metadata rungs of [`crate::Supervised`] the recovery supervisor drives
//! when the fast path cannot restore a verified state (the per-line rungs
//! are the shared data path's).
//!
//! The rungs map onto the general-tree design like this:
//!
//! * **Targeted repair** — Osiris-style salvage of *every* counter block
//!   (not just shadow-tracked ones), falling back to per-line probing
//!   when a whole-block probe fails, then a full bottom-up interior
//!   rebuild. Unlike the fast path, the rebuilt root *re-anchors* the
//!   on-chip register: degraded mode explicitly trades the root check
//!   for availability and relies on the scrub pass plus per-line MACs
//!   to bound what an attacker (or the fault) could have changed.
//! * **Per-line repair** — re-open the line through the ECC-correcting
//!   decoder and reseal it when correction moved any words.
//! * **Quarantine** — retire the line's backing block into the spare
//!   region and leave the line readable as zero under its current
//!   counter, counting committed content as lost.

use super::{recovery, BonsaiController};
use crate::layout::LINES_PER_COUNTER_BLOCK;
use crate::recovery::RecoveryReport;
use crate::supervisor::RepairSummary;
use anubis_crypto::SplitCounterBlock;
use anubis_itree::bonsai::Root;
use anubis_itree::NodeId;
use anubis_nvm::NvmBackend;

/// `targeted`: salvage every counter block, then rebuild the interior.
pub(super) fn targeted<B: NvmBackend>(c: &mut BonsaiController<B>) -> RepairSummary {
    // The domain is already powered up (rung 1 ran `power_up`), and the
    // salvage works on the medium alone: the caches are dropped by the
    // rebuild that ends it.
    // Best-effort replay of an interrupted re-encryption: if even the
    // replay fails the log is dropped and the scrub pass deals with the
    // affected lines individually.
    if recovery::complete_reencryption(c, &mut RecoveryReport::default()).is_err() {
        c.reenc_log = None;
    }
    let mut sum = salvage_counters(c);
    sum.absorb(reconcile(c));
    sum
}

/// Re-derives the interior from the leaves after per-line repairs, with
/// the caches and the staged group dropped.
pub(super) fn reconcile<B: NvmBackend>(c: &mut BonsaiController<B>) -> RepairSummary {
    c.counter_cache.invalidate_all();
    c.tree_cache.invalidate_all();
    c.path.reset_group();
    rebuild_interior(c)
}

/// Osiris-salvages every counter block: whole-block probing first, then
/// a per-line salvage for blocks where probing failed (retiring only the
/// individual lines that cannot be opened, instead of aborting recovery).
fn salvage_counters<B: NvmBackend>(c: &mut BonsaiController<B>) -> RepairSummary {
    let mut sum = RepairSummary::default();
    let mut t = RecoveryReport::default();
    for leaf in 0..c.layout().geometry().num_leaves() {
        match recovery::fix_counter_block(c, NodeId::new(0, leaf), &mut t) {
            Ok((_, rewritten)) => sum.rebuilt += u64::from(rewritten),
            Err(_) => salvage_leaf(c, leaf, &mut sum),
        }
    }
    sum
}

/// Per-line salvage of one counter block: lines that probe within the
/// stop-loss window advance the counter; lines that do not are retired
/// into the spare region and zero-sealed under their final counter bits.
fn salvage_leaf<B: NvmBackend>(c: &mut BonsaiController<B>, leaf: u64, sum: &mut RepairSummary) {
    let leaf_addr = c.layout().node_addr(NodeId::new(0, leaf));
    let stale = SplitCounterBlock::from_block(&c.path.domain.device_mut().read(leaf_addr));
    let mut fixed = stale;
    let mut changed = false;
    let mut t = RecoveryReport::default();
    for line in 0..LINES_PER_COUNTER_BLOCK as usize {
        let Some(data_addr) = c.layout().line_of(leaf, line) else {
            break;
        };
        let advanced = match recovery::probe_line(c, &stale, data_addr, line, &mut t) {
            Some(0) => true,
            Some(gap) if fixed.advance_minor(line, gap).is_ok() => {
                changed = true;
                sum.rebuilt += 1;
                true
            }
            // No candidate opened the line, or the salvaged minor would
            // overflow on replay: retire it.
            _ => false,
        };
        if !advanced {
            // Retire it: remap the backing block, zero-seal the line under
            // its (unadvanced) counter bits, count committed content lost.
            // The block failed its probe, so only content at rest counts.
            let line = c.line_under(data_addr, &stale);
            sum.lost += u64::from(c.path.quarantine_line(line, false));
            sum.quarantined += 1;
        }
    }
    if changed {
        c.path
            .domain
            .device_mut()
            .write(leaf_addr, fixed.to_block());
    }
}

/// Rebuilds every interior level bottom-up from the (salvaged) leaves and
/// re-anchors the on-chip root to the result. Only nodes whose stored
/// content differs from the recomputation are written — the zero-state
/// tree stays unmaterialized — so `rebuilt` counts genuine reconstruction.
fn rebuild_interior<B: NvmBackend>(c: &mut BonsaiController<B>) -> RepairSummary {
    let g = c.layout().geometry().clone();
    let mut sum = RepairSummary::default();
    let mut t = RecoveryReport::default();
    for level in 1..g.num_levels() {
        for index in 0..g.nodes_at(level) {
            let node = NodeId::new(level, index);
            let block = recovery::compute_interior_node(c, node, &mut t);
            let addr = c.layout().node_addr(node);
            let old = c.path.domain.device_mut().read(addr);
            let effective_old = if old.is_zeroed() {
                c.canonical_node(node)
            } else {
                old
            };
            if effective_old != block {
                c.path.domain.device_mut().write(addr, block);
                sum.rebuilt += 1;
            }
        }
    }
    // Degraded mode re-anchors the register to the rebuilt tree: the
    // fast path's root *check* already failed, so the choice is between
    // refusing service and trusting NVM contents that every per-line MAC
    // and the scrub pass still vouch for.
    let top = g.top();
    let top_addr = c.layout().node_addr(top);
    let raw = c.path.domain.device_mut().read(top_addr);
    let top_block = if top.level >= 1 && raw.is_zeroed() {
        c.canonical_node(top)
    } else {
        raw
    };
    c.root = Root(c.hasher.digest(&top_block));
    sum
}
