//! Degraded-mode repair hooks for the Bonsai controller family: the
//! [`Supervised`] implementation the recovery supervisor drives when the
//! fast path cannot restore a verified state.
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
use crate::datapath::{sealed_block, Line};
use crate::error::RecoveryError;
use crate::layout::{DataAddr, LINES_PER_COUNTER_BLOCK};
use crate::supervisor::{RepairSummary, Supervised};
use anubis_crypto::otp::IvCounter;
use anubis_crypto::{SplitCounterBlock, MINOR_MAX};
use anubis_itree::bonsai::Root;
use anubis_itree::NodeId;
use anubis_nvm::{BlockAddr, NvmBackend};
use anubis_telemetry::Telemetry;

impl<B: NvmBackend> Supervised for BonsaiController<B> {
    fn data_lines(&self) -> u64 {
        self.layout.data_blocks()
    }

    fn data_block(&self, addr: DataAddr) -> BlockAddr {
        self.layout.data_addr(addr)
    }

    fn repair_line(&mut self, addr: DataAddr) -> Result<u32, RecoveryError> {
        let line = self.stale_line(addr);
        self.path.repair_line(line)
    }

    fn quarantine_line(&mut self, addr: DataAddr) -> Result<bool, RecoveryError> {
        let line = self.stale_line(addr);
        Ok(self.path.quarantine_line(line))
    }

    fn targeted_repair(&mut self, _err: &RecoveryError) -> Result<RepairSummary, RecoveryError> {
        // The domain is already powered up (rung 1 ran `power_up`); only
        // volatile state needs resetting before the slow rebuild.
        self.counter_cache.invalidate_all();
        self.tree_cache.invalidate_all();
        self.path.reset_group();
        // Best-effort replay of an interrupted re-encryption: if even the
        // replay fails the log is dropped and the scrub pass deals with
        // the affected lines individually.
        let mut t = recovery::Tally::default();
        if recovery::complete_reencryption(self, &mut t).is_err() {
            self.reenc_log = None;
        }
        let mut sum = salvage_counters(self);
        sum.absorb(rebuild_interior(self));
        Ok(sum)
    }

    fn reconcile_metadata(&mut self) -> Result<RepairSummary, RecoveryError> {
        self.counter_cache.invalidate_all();
        self.tree_cache.invalidate_all();
        self.path.reset_group();
        Ok(rebuild_interior(self))
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

impl<B: NvmBackend> BonsaiController<B> {
    /// Resolves a line under its counter block's NVM copy, unverified:
    /// degraded mode runs with the caches down and the tree suspect.
    fn stale_line(&mut self, addr: DataAddr) -> Line {
        let (leaf, _) = self.layout.counter_of(addr);
        let leaf_addr = self.layout.node_addr(leaf);
        let stale = SplitCounterBlock::from_block(&self.path.domain.device_mut().read(leaf_addr));
        self.line_under(addr, &stale)
    }
}

/// Osiris-salvages every counter block: whole-block probing first, then
/// a per-line salvage for blocks where probing failed (retiring only the
/// individual lines that cannot be opened, instead of aborting recovery).
fn salvage_counters<B: NvmBackend>(c: &mut BonsaiController<B>) -> RepairSummary {
    let mut sum = RepairSummary::default();
    let mut t = recovery::Tally::default();
    for leaf in 0..c.layout.geometry().num_leaves() {
        match recovery::fix_counter_block(c, NodeId::new(0, leaf), &mut t) {
            Ok(rewritten) => sum.rebuilt += u64::from(rewritten),
            Err(_) => salvage_leaf(c, leaf, &mut sum),
        }
    }
    sum
}

/// Per-line salvage of one counter block: lines that probe within the
/// stop-loss window advance the counter; lines that do not are retired
/// into the spare region and zero-sealed under their final counter bits.
fn salvage_leaf<B: NvmBackend>(c: &mut BonsaiController<B>, leaf: u64, sum: &mut RepairSummary) {
    let leaf_node = NodeId::new(0, leaf);
    let leaf_addr = c.layout.node_addr(leaf_node);
    let stale = SplitCounterBlock::from_block(&c.path.domain.device_mut().read(leaf_addr));
    let mut fixed = stale;
    let mut changed = false;
    for line in 0..LINES_PER_COUNTER_BLOCK as usize {
        let Some(data_addr) = c.layout.line_of(leaf, line) else {
            break;
        };
        let dev = c.layout.data_addr(data_addr);
        let side_addr = c.layout.side_addr(data_addr);
        let ciphertext = c.path.domain.device_mut().read(dev);
        let side = c.path.domain.device_mut().read(side_addr);
        let base = stale.minor(line) as u64;
        if stale.major() == 0 && base == 0 && ciphertext.is_zeroed() && side.is_zeroed() {
            continue;
        }
        let sealed = sealed_block(ciphertext, &side);
        let mut hit = None;
        for gap in 0..=c.config.stop_loss as u64 {
            let minor = base + gap;
            if minor > MINOR_MAX as u64 {
                break;
            }
            if stale.major() == 0 && minor == 0 {
                continue;
            }
            let iv = IvCounter::split(stale.major(), minor);
            if c.path.codec.probe(dev, iv, &sealed).is_some() {
                hit = Some(gap as u8);
                break;
            }
        }
        let advanced = match hit {
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
            let line = c.line_under(data_addr, &stale);
            sum.lost += u64::from(c.path.quarantine_line(line));
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
    let g = c.layout.geometry().clone();
    let mut sum = RepairSummary::default();
    let mut t = recovery::Tally::default();
    for level in 1..g.num_levels() {
        for index in 0..g.nodes_at(level) {
            let node = NodeId::new(level, index);
            let block = recovery::compute_interior_node(c, node, &mut t);
            let addr = c.layout.node_addr(node);
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
    let top_addr = c.layout.node_addr(top);
    let raw = c.path.domain.device_mut().read(top_addr);
    let top_block = if top.level >= 1 && raw.is_zeroed() {
        c.canonical_node(top)
    } else {
        raw
    };
    c.root = Root(c.hasher.digest(&top_block));
    sum
}
