//! Post-crash recovery for the Bonsai controller family.
//!
//! * **Strict persistence** — nothing was lost; only an interrupted page
//!   re-encryption needs completing.
//! * **Write-back** — rebuild the whole tree from the NVM counters as-is
//!   (no Osiris probing) and compare with the root register: succeeds only
//!   if no dirty metadata was in flight.
//! * **Osiris** — the paper's O(memory) baseline: ECC-probe every counter
//!   of every counter block against its data, then rebuild the entire
//!   tree and compare with the root register.
//! * **AGIT** (Algorithm 1) — scan the SCT/SMT, Osiris-fix only the
//!   tracked counter blocks, recompute only the tracked tree nodes level
//!   by level, hold each rebuilt block whose parent is untracked to the
//!   digest that parent stores, then compare with the root register.
//!
//! Recovery is one serial pass (DESIGN.md §7). Levels are rebuilt
//! bottom-up — parents hash their children's repaired contents — and
//! within a sweep every block is read, repaired and written before the
//! next one is touched, in index order.

use super::{BonsaiController, BonsaiScheme, ReencLog};
use crate::datapath::{sealed_block, side_block};
use crate::error::RecoveryError;
use crate::layout::{DataAddr, LINES_PER_COUNTER_BLOCK};
use crate::recovery::RecoveryReport;
use crate::shadow::ShadowAddrEntry;
use anubis_crypto::otp::IvCounter;
use anubis_crypto::SplitCounterBlock;
use anubis_itree::bonsai::Root;
use anubis_itree::NodeId;
use anubis_nvm::{Block, BlockAddr, NvmBackend};
use std::collections::BTreeSet;

/// The scheme's recovery, after power-up (`crate::recovery::run`).
pub(super) fn recover<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    t: &mut RecoveryReport,
) -> Result<(), RecoveryError> {
    // Complete any interrupted page re-encryption first; it also tells
    // AGIT recovery which extra path must be repaired.
    let reenc_leaf = {
        let tel = c.path.telemetry.clone();
        let _span = tel.span("recovery_phase", "reencryption_replay");
        complete_reencryption(c, t)?
    };
    t.reencryption_completed = reenc_leaf.is_some();

    match c.scheme {
        // All metadata persisted eagerly. If a re-encryption was
        // interrupted, its leaf path must be recomputed (the path writes
        // may have been lost with the commit group).
        BonsaiScheme::StrictPersist => match reenc_leaf {
            Some(leaf) => {
                fix_path(c, leaf, t)?;
                check_root(c, t)
            }
            None => Ok(()),
        },
        BonsaiScheme::WriteBack
        | BonsaiScheme::CounterWriteThrough
        | BonsaiScheme::LazyWriteBack => {
            // Counters as-is (write-through keeps them current; plain
            // write-back only recovers if nothing dirty was lost), whole
            // tree rebuilt, root compared.
            rebuild_whole_tree(c, t, false)
        }
        BonsaiScheme::Osiris => rebuild_whole_tree(c, t, true),
        BonsaiScheme::AgitRead | BonsaiScheme::AgitPlus => recover_agit(c, t, reenc_leaf),
    }
}

fn dev_read<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    addr: BlockAddr,
    t: &mut RecoveryReport,
) -> Block {
    t.nvm_reads += 1;
    c.path.domain.device_mut().read(addr)
}

/// Reads a tree node, substituting the canonical zero-state content for
/// never-written interior nodes (see `BonsaiController::nvm_read_node`).
fn read_node<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    node: NodeId,
    t: &mut RecoveryReport,
) -> Block {
    let raw = dev_read(c, c.layout().node_addr(node), t);
    if node.level >= 1 && raw.is_zeroed() {
        c.canonical_node(node)
    } else {
        raw
    }
}

fn dev_write<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    addr: BlockAddr,
    block: Block,
    t: &mut RecoveryReport,
) {
    t.nvm_writes += 1;
    c.path.domain.device_mut().write(addr, block);
}

/// Completes an interrupted page re-encryption from the on-chip log
/// (counter block first, then the remaining lines). Returns the affected
/// leaf so tree recovery can repair its path. At most one page (64 lines)
/// of sequential REDO work.
///
/// This is a copy of the run-time loop (`BonsaiController::reencrypt_line`)
/// on purpose: it writes straight to the device and clears the log last,
/// so a write cut anywhere in it leaves the log set and the next power-on
/// redoes the page, which is idempotent. Staged in commit groups, a
/// group's register mirrors would land when it is staged while a cut
/// still drops its writes from the queue.
pub(super) fn complete_reencryption<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    t: &mut RecoveryReport,
) -> Result<Option<NodeId>, RecoveryError> {
    let Some(ReencLog {
        leaf,
        old,
        next_line,
    }) = c.reenc_log
    else {
        return Ok(None);
    };
    let leaf_node = NodeId::new(0, leaf);
    let new_major = old.major() + 1;
    // REDO the counter-block install (idempotent).
    let fresh = SplitCounterBlock::with_major(new_major);
    let leaf_addr = c.layout().node_addr(leaf_node);
    dev_write(c, leaf_addr, fresh.to_block(), t);
    // Finish the lines. Redo the boundary line defensively: a crash may
    // have landed between the line commit and the log bump.
    let start = next_line.saturating_sub(1) as usize;
    for line in start..LINES_PER_COUNTER_BLOCK as usize {
        let Some(data_addr) = c.layout().line_of(leaf, line) else {
            break;
        };
        let dev = c.layout().data_addr(data_addr);
        let side_addr = c.layout().side_addr(data_addr);
        let ciphertext = dev_read(c, dev, t);
        let side = c.path.domain.device_mut().read(side_addr);
        let sealed = sealed_block(ciphertext, &side);
        let new_iv = IvCounter::split(new_major, 0);
        let plaintext = if old.major() == 0 && old.minor(line) == 0 {
            Block::zeroed()
        } else {
            t.hash_ops += 1;
            let old_iv = IvCounter::split(old.major(), old.minor(line) as u64);
            match c.path.codec.probe(dev, old_iv, &sealed) {
                Some(pt) => pt,
                None => {
                    t.hash_ops += 1;
                    if c.path.codec.probe(dev, new_iv, &sealed).is_some() {
                        continue; // already re-encrypted before the crash
                    }
                    return Err(RecoveryError::CounterNotRecovered { addr: dev });
                }
            }
        };
        t.hash_ops += 2;
        let resealed = c.path.codec.seal(dev, new_iv, &plaintext);
        dev_write(c, dev, resealed.ciphertext, t);
        c.path
            .domain
            .device_mut()
            .write(side_addr, side_block(&resealed));
    }
    c.reenc_log = None;
    Ok(Some(leaf_node))
}

/// Osiris-fixes every counter of one counter block against its data
/// lines and writes the repaired block back if anything moved. Returns
/// the block as it now stands and whether it was rewritten. On an error
/// nothing of this block has been written.
pub(super) fn fix_counter_block<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    leaf: NodeId,
    t: &mut RecoveryReport,
) -> Result<(Block, bool), RecoveryError> {
    let leaf_addr = c.layout().node_addr(leaf);
    let stale = SplitCounterBlock::from_block(&dev_read(c, leaf_addr, t));
    let mut fixed = stale;
    let mut changed = false;
    for line in 0..LINES_PER_COUNTER_BLOCK as usize {
        let Some(data_addr) = c.layout().line_of(leaf.index, line) else {
            break;
        };
        match probe_line(c, &stale, data_addr, line, t) {
            Some(0) => {}
            // The probe loop never exceeds MINOR_MAX for a well-formed
            // stale block, but a corrupted block can present minors that
            // overflow when replayed — surface that as a typed error,
            // never a panic.
            Some(gap) => {
                fixed.advance_minor(line, gap).map_err(|source| {
                    RecoveryError::StopLossExceeded {
                        leaf: leaf.index,
                        source,
                    }
                })?;
                changed = true;
                t.counters_fixed += 1;
            }
            None => {
                let addr = c.layout().data_addr(data_addr);
                return Err(RecoveryError::CounterNotRecovered { addr });
            }
        }
    }
    let block = fixed.to_block();
    if changed {
        dev_write(c, leaf_addr, block, t);
    }
    Ok((block, changed))
}

/// Osiris-probes one data line against its counter block's stale copy:
/// how many updates past the stored minor the line opens under (0 for a
/// never-written line), or `None` when no candidate within the stop-loss
/// window opens it.
pub(super) fn probe_line<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    stale: &SplitCounterBlock,
    data_addr: DataAddr,
    line: usize,
    t: &mut RecoveryReport,
) -> Option<u8> {
    let dev = c.layout().data_addr(data_addr);
    let side_addr = c.layout().side_addr(data_addr);
    let ciphertext = dev_read(c, dev, t);
    let side = c.path.domain.device_mut().read(side_addr);
    let base_minor = stale.minor(line) as u64;
    // Candidate 0: the zero state (never-written line).
    if stale.major() == 0 && base_minor == 0 && ciphertext.is_zeroed() && side.is_zeroed() {
        return Some(0);
    }
    let sealed = sealed_block(ciphertext, &side);
    for gap in 0..=c.config.stop_loss as u64 {
        let minor = base_minor + gap;
        if minor > anubis_crypto::MINOR_MAX as u64 {
            break; // overflow would have persisted the block
        }
        if stale.major() == 0 && minor == 0 {
            continue; // zero state handled above
        }
        t.hash_ops += 1;
        let iv = IvCounter::split(stale.major(), minor);
        if c.path.codec.probe(dev, iv, &sealed).is_some() {
            return Some(gap as u8);
        }
    }
    None
}

/// Recomputes one interior node from its children in NVM; the caller
/// writes it.
pub(super) fn compute_interior_node<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    node: NodeId,
    t: &mut RecoveryReport,
) -> Block {
    let children: Vec<NodeId> = c.layout().geometry().children(node).collect();
    let mut digests = Vec::with_capacity(children.len());
    for child in children {
        let child_block = read_node(c, child, t);
        t.hash_ops += 1;
        digests.push(c.hasher.digest(&child_block));
    }
    t.nodes_fixed += 1;
    c.hasher.parent_block(&digests)
}

/// Osiris-fixes the given counter blocks in leaf order and returns each
/// as it now stands. A probe failure stops the sweep: the leaves before
/// it stay repaired, the error is returned.
fn fix_counter_blocks<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    t: &mut RecoveryReport,
    leaves: &[u64],
) -> Result<Vec<(NodeId, Block)>, RecoveryError> {
    let tel = c.path.telemetry.clone();
    let _phase = tel
        .span("recovery_phase", "osiris_probe")
        .items(leaves.len() as u64);
    let mut fixed = Vec::with_capacity(leaves.len());
    for &leaf in leaves {
        let leaf = NodeId::new(0, leaf);
        let (block, _) = fix_counter_block(c, leaf, t).inspect_err(|e| {
            if matches!(e, RecoveryError::StopLossExceeded { .. }) {
                c.stop_loss_events += 1;
                tel.incr("stop_loss_events_total", c.scheme.name(), 1);
            }
        })?;
        fixed.push((leaf, block));
    }
    Ok(fixed)
}

/// Rebuilds the given nodes of one tree level in index order and returns
/// each as written. The caller sequences levels bottom-up: a parent must
/// hash its children's *repaired* contents (unlike ASIT ST verification,
/// where nodes verify independently against parent counters).
fn fix_node_level<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    t: &mut RecoveryReport,
    level: usize,
    indices: &[u64],
) -> Vec<(NodeId, Block)> {
    let tel = c.path.telemetry.clone();
    let _phase = tel
        .span("recovery_phase", &format!("level_rebuild_{level}"))
        .items(indices.len() as u64);
    let mut rebuilt = Vec::with_capacity(indices.len());
    for &index in indices {
        let node = NodeId::new(level, index);
        let block = compute_interior_node(c, node, t);
        dev_write(c, c.layout().node_addr(node), block, t);
        rebuilt.push((node, block));
    }
    rebuilt
}

/// Holds every rebuilt block whose parent was not rebuilt to the digest
/// that parent stores in NVM: nothing else compares it, so damage under
/// the edge of the tracked set would otherwise pass into the rebuilt
/// node and surface only as read errors after a `Recovered`. After an
/// honest crash such a parent is clean or not resident — an eager update
/// dirties every ancestor of what it modifies, and AGIT tracks a node no
/// later than it turns dirty — so its NVM copy holds the digest of the
/// child's content. `rebuilt` is in node order, so the children of one parent
/// arrive together and each parent is read once.
fn check_edge<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    t: &mut RecoveryReport,
    rebuilt: &[(NodeId, Block)],
    tracked_nodes: &BTreeSet<(usize, u64)>,
) -> Result<(), RecoveryError> {
    let g = c.layout().geometry().clone();
    let mut parent: Option<(NodeId, Block)> = None;
    for &(node, block) in rebuilt {
        let Some(up) = (g.parent(node)).filter(|up| !tracked_nodes.contains(&(up.level, up.index)))
        else {
            continue;
        };
        let stored = match parent {
            Some((p, stored)) if p == up => stored,
            _ => parent.insert((up, read_node(c, up, t))).1,
        };
        t.hash_ops += 1;
        if c.hasher.digest(&block) != stored.word(g.child_slot(node)) {
            return Err(RecoveryError::EdgeMismatch { node, parent: up });
        }
    }
    Ok(())
}

/// Recomputes the root digest from the NVM top node and compares it with
/// the on-chip register.
fn check_root<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    t: &mut RecoveryReport,
) -> Result<(), RecoveryError> {
    let tel = c.path.telemetry.clone();
    let _span = tel.span("recovery_phase", "root_check");
    let top = c.layout().geometry().top();
    let top_block = read_node(c, top, t);
    t.hash_ops += 1;
    let computed = Root(c.hasher.digest(&top_block));
    if computed == c.root {
        Ok(())
    } else {
        Err(RecoveryError::RootMismatch)
    }
}

/// Recomputes the ancestors of `leaf` from NVM, bottom-up (used after an
/// interrupted re-encryption under strict persistence).
fn fix_path<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    leaf: NodeId,
    t: &mut RecoveryReport,
) -> Result<(), RecoveryError> {
    let g = c.layout().geometry().clone();
    for node in g.path_to_top(leaf) {
        let block = compute_interior_node(c, node, t);
        dev_write(c, c.layout().node_addr(node), block, t);
    }
    Ok(())
}

/// Whole-memory recovery: optionally Osiris-fix every counter block, then
/// rebuild every interior node bottom-up and compare the root.
fn rebuild_whole_tree<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    t: &mut RecoveryReport,
    probe_counters: bool,
) -> Result<(), RecoveryError> {
    let g = c.layout().geometry().clone();
    if probe_counters {
        let leaves: Vec<u64> = (0..g.num_leaves()).collect();
        fix_counter_blocks(c, t, &leaves)?;
    }
    for level in 1..g.num_levels() {
        let indices: Vec<u64> = (0..g.nodes_at(level)).collect();
        fix_node_level(c, t, level, &indices);
    }
    check_root(c, t)
}

/// Algorithm 1 (paper §4.2.3): fix tracked counters, then tracked nodes
/// level by level, then verify the root.
fn recover_agit<B: NvmBackend>(
    c: &mut BonsaiController<B>,
    t: &mut RecoveryReport,
    reenc_leaf: Option<NodeId>,
) -> Result<(), RecoveryError> {
    let g = c.layout().geometry().clone();

    // Scan the SCT and SMT in slot order into ordered sets.
    let tel = c.path.telemetry.clone();
    let mut tracked_counters: BTreeSet<u64> = BTreeSet::new();
    let mut tracked_nodes: BTreeSet<(usize, u64)> = BTreeSet::new();
    {
        let _span = tel.span("recovery_phase", "shadow_scan");
        for slot in 0..c.layout().shadow("sct").len() {
            let block = dev_read(c, c.layout().shadow("sct").nth(slot), t);
            if let Some(node) = ShadowAddrEntry::from_block(&block).map(|e| e.node()) {
                if node.level == 0 && node.index < g.num_leaves() {
                    tracked_counters.insert(node.index);
                }
            }
        }
        for slot in 0..c.layout().shadow("smt").len() {
            let block = dev_read(c, c.layout().shadow("smt").nth(slot), t);
            if let Some(node) = ShadowAddrEntry::from_block(&block).map(|e| e.node()) {
                if node.level >= 1
                    && node.level < g.num_levels()
                    && node.index < g.nodes_at(node.level)
                {
                    tracked_nodes.insert((node.level, node.index));
                }
            }
        }
    }
    // An interrupted re-encryption repairs its own leaf path regardless of
    // shadow tracking (the tracking commit may have been the lost group).
    if let Some(leaf) = reenc_leaf {
        tracked_counters.insert(leaf.index);
        for node in g.path_to_top(leaf) {
            tracked_nodes.insert((node.level, node.index));
        }
    }

    // Phase 1: fix tracked counter blocks.
    let leaves: Vec<u64> = tracked_counters.into_iter().collect();
    let mut rebuilt = fix_counter_blocks(c, t, &leaves)?;

    // Phase 2: fix tracked nodes level by level (order matters: upper
    // levels hash the already-repaired lower levels).
    for level in 1..g.num_levels() {
        let at_level: Vec<u64> = tracked_nodes
            .iter()
            .filter(|(l, _)| *l == level)
            .map(|(_, i)| *i)
            .collect();
        rebuilt.extend(fix_node_level(c, t, level, &at_level));
    }

    // Phase 3: the edge of what was rebuilt, then the root.
    check_edge(c, t, &rebuilt, &tracked_nodes)?;
    check_root(c, t)
}
