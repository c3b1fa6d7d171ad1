//! The general-tree (Bonsai-style) memory controller family.
//!
//! One controller struct implements all five schemes of the paper's §6.1
//! (write-back baseline, strict persistence, Osiris, AGIT-Read and
//! AGIT-Plus); [`BonsaiScheme`] selects which hooks fire. Everything else
//! — counter-mode encryption with split counters, the eagerly-updated
//! 8-ary Merkle tree with its root in an on-chip register, write-back
//! metadata caches, atomic commit groups through the persistent registers
//! — is shared.

mod recovery;
mod repair;

use crate::config::AnubisConfig;
use crate::datapath::{
    publish_cache_stats, reopened, sealed_block, Backed, DataPath, Line, Policy,
};
use crate::error::{IntegrityWitness, MemError, RecoveryError};
use crate::layout::{DataAddr, Layout, LINES_PER_COUNTER_BLOCK};
use crate::recovery::RecoveryReport;
use crate::shadow::ShadowAddrEntry;
use crate::supervisor::RepairSummary;
use anubis_cache::{Eviction, MetadataCache, SlotId};
use anubis_crypto::otp::IvCounter;
use anubis_crypto::{SplitCounterBlock, MINOR_MAX};
use anubis_itree::bonsai::{BonsaiHasher, Root};
use anubis_itree::{NodeId, TreeGeometry};
use anubis_nvm::{Block, BlockAddr, MemBackend, NvmBackend, PREG_CAPACITY};
use anubis_telemetry::Telemetry;

/// Backend register slot mirroring the on-chip Merkle-root register.
pub(crate) const REG_ROOT: u8 = 0;
/// Backend register slot mirroring the re-encryption log header
/// (word 0 = active flag, word 1 = leaf index, word 2 = next line).
pub(crate) const REG_REENC: u8 = 1;
/// Backend register slot mirroring the re-encryption log's old counter
/// block.
pub(crate) const REG_REENC_OLD: u8 = 2;

/// Which §6.1 scheme a [`BonsaiController`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BonsaiScheme {
    /// Plain write-back metadata caches; fastest, but dirty metadata lost
    /// in a crash makes the memory unverifiable (root mismatch).
    WriteBack,
    /// Every counter and tree-node update is persisted immediately, up to
    /// the root. Trivially recoverable; ~tree-depth extra writes per
    /// memory write.
    StrictPersist,
    /// Osiris stop-loss: counters persisted every N-th update; recovery
    /// must ECC-probe *every* counter in memory and rebuild the whole
    /// tree — O(memory size).
    Osiris,
    /// AGIT-Read (paper §4.2.1): Osiris stop-loss plus shadow tables
    /// updated on every counter/tree cache **fill**.
    AgitRead,
    /// AGIT-Plus (paper §4.2.2): shadow tables updated only on a block's
    /// **first modification** in the cache.
    AgitPlus,
    /// SecPM-style counter write-through (paper §7, related work): every
    /// counter update is written through to NVM (the WPQ coalesces
    /// bursts), the tree stays write-back. Counters are always current so
    /// recovery needs no ECC probing — but it still rebuilds the whole
    /// tree, O(memory), and like Osiris it cannot help SGX-style trees.
    CounterWriteThrough,
    /// Lazy-update write-back (paper §2.6's other design point for
    /// general trees): digests propagate upward only when dirty blocks
    /// are written back, so the on-chip root lags the cache. Cheapest at
    /// run time — and unsafe across crashes: after losing dirty metadata,
    /// recovery either fails the root check or, worse, *silently rolls
    /// back* (the stale root matches the stale NVM tree, and every write
    /// since the last writeback becomes unreadable). This is exactly why
    /// §2.6 requires a verifiable cache-content recovery mechanism (ASIT)
    /// before a lazy scheme may be used on persistent memory.
    LazyWriteBack,
}

impl BonsaiScheme {
    /// Scheme name used in reports and figures.
    pub fn name(self) -> &'static str {
        match self {
            BonsaiScheme::WriteBack => "write-back",
            BonsaiScheme::StrictPersist => "strict-persist",
            BonsaiScheme::Osiris => "osiris",
            BonsaiScheme::AgitRead => "agit-read",
            BonsaiScheme::AgitPlus => "agit-plus",
            BonsaiScheme::CounterWriteThrough => "ctr-write-through",
            BonsaiScheme::LazyWriteBack => "lazy-write-back",
        }
    }

    /// All five schemes in the paper's Figure 10 order.
    pub fn all() -> [BonsaiScheme; 5] {
        [
            BonsaiScheme::WriteBack,
            BonsaiScheme::StrictPersist,
            BonsaiScheme::Osiris,
            BonsaiScheme::AgitRead,
            BonsaiScheme::AgitPlus,
        ]
    }

    /// Every implemented scheme, including the beyond-paper SecPM-style
    /// [`BonsaiScheme::CounterWriteThrough`] comparator.
    pub fn all_with_extras() -> [BonsaiScheme; 7] {
        [
            BonsaiScheme::WriteBack,
            BonsaiScheme::StrictPersist,
            BonsaiScheme::Osiris,
            BonsaiScheme::AgitRead,
            BonsaiScheme::AgitPlus,
            BonsaiScheme::CounterWriteThrough,
            BonsaiScheme::LazyWriteBack,
        ]
    }

    fn is_lazy(self) -> bool {
        self == BonsaiScheme::LazyWriteBack
    }

    fn uses_stop_loss(self) -> bool {
        matches!(
            self,
            BonsaiScheme::Osiris | BonsaiScheme::AgitRead | BonsaiScheme::AgitPlus
        )
    }

    fn shadows_on_fill(self) -> bool {
        self == BonsaiScheme::AgitRead
    }

    fn shadows_on_first_mod(self) -> bool {
        self == BonsaiScheme::AgitPlus
    }
}

/// A cached counter block plus its Osiris stop-loss bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CtrEntry {
    pub(crate) ctr: SplitCounterBlock,
    /// Updates since the block was last persisted (stop-loss counter).
    pub(crate) since_persist: u8,
    /// Whether this residency has already written its shadow entry
    /// (AGIT-Plus tracks once per residency, not once per dirty episode —
    /// a stop-loss persist cleans the block without changing its slot).
    pub(crate) tracked: bool,
}

/// The persistent on-chip page re-encryption log: lets a crash interrupt
/// the 64-line re-encryption triggered by a minor-counter overflow without
/// losing data (see DESIGN.md, "Implementation decisions").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReencLog {
    /// Leaf (counter-block) index being re-encrypted.
    pub(crate) leaf: u64,
    /// Counter block *before* the major bump (old minors decrypt the
    /// not-yet-re-encrypted lines).
    pub(crate) old: SplitCounterBlock,
    /// First line not yet re-encrypted.
    pub(crate) next_line: u8,
}

/// The general-tree secure memory controller (paper §4.2 and baselines).
///
/// Generic over the NVM storage backend: the default in-memory
/// [`MemBackend`] for simulation, or a durable backend (e.g.
/// `anubis_nvm::FileBackend`) whose image survives process death and can
/// be reopened with [`BonsaiController::reopen`].
///
/// See the crate-level docs for an end-to-end example.
#[derive(Clone, Debug)]
pub struct BonsaiController<B: NvmBackend = MemBackend> {
    scheme: BonsaiScheme,
    config: AnubisConfig,
    /// The shared data path: layout, persistence domain, data codec,
    /// commit group, cost accounting, common telemetry.
    path: DataPath<B>,
    hasher: BonsaiHasher,
    counter_cache: MetadataCache<CtrEntry>,
    tree_cache: MetadataCache<Block>,
    /// On-chip persistent register: the Merkle root (eagerly updated).
    root: Root,
    /// Canonical zero-state content of a *full* node at each level (the
    /// value a never-written interior node logically holds). Level 0 is
    /// the zero block.
    canon: Vec<Block>,
    /// Canonical zero-state content of the *last* (possibly ragged) node
    /// at each level.
    edge: Vec<Block>,
    /// On-chip persistent register: interrupted page re-encryption.
    reenc_log: Option<ReencLog>,
    /// Osiris probes that hit the stop-loss / minor-overflow boundary.
    stop_loss_events: u64,
}

impl BonsaiController {
    /// Builds a controller over a fresh all-zero in-memory NVM image.
    ///
    /// The initial tree state (all counters zero, all nodes absent) is
    /// represented lazily: unwritten NVM reads as zeros, and the on-chip
    /// root is initialized to the digest of that all-zero tree.
    pub fn new(scheme: BonsaiScheme, config: &AnubisConfig) -> Self {
        Self::assemble(scheme, config, MemBackend::new())
    }
}

impl<B: NvmBackend> BonsaiController<B> {
    /// Shared construction over any storage backend.
    fn assemble(scheme: BonsaiScheme, config: &AnubisConfig, backend: B) -> Self {
        let counter_cache: MetadataCache<CtrEntry> =
            MetadataCache::new(config.counter_cache_bytes, config.counter_cache_ways);
        let tree_cache: MetadataCache<Block> =
            MetadataCache::new(config.tree_cache_bytes, config.tree_cache_ways);
        let layout = Layout::bonsai(
            config,
            counter_cache.num_slots() as u64,
            tree_cache.num_slots() as u64,
        );
        let hasher = BonsaiHasher::new(config.key);
        let (canon, edge) = Self::zero_state_contents(&hasher, layout.geometry());
        let root = Root(hasher.digest(&edge[layout.geometry().top_level()]));
        let mut c = BonsaiController {
            scheme,
            config: config.clone(),
            path: DataPath::new(layout, config.key, backend),
            hasher,
            counter_cache,
            tree_cache,
            root,
            canon,
            edge,
            reenc_log: None,
            stop_loss_events: 0,
        };
        c.path.fresh_regs = c.reg_mirrors().to_vec();
        c
    }

    /// Reopens a controller over an existing device image (e.g. a
    /// `FileBackend` replayed from disk after the previous process died).
    ///
    /// The on-chip persistent registers (Merkle root, re-encryption log)
    /// are restored from the register mirrors the previous incarnation
    /// committed alongside each group; the bad-block remap table is
    /// reloaded from its persisted region. The caller must still run
    /// recovery ([`crate::supervisor::recover`]) before serving reads:
    /// reopen restores *registers*, recovery restores *verified state*.
    ///
    /// A corrupt persisted quarantine table does not fail the reopen; the
    /// controller proceeds with an empty table and the second element
    /// carries [`RecoveryError::CorruptImage`] for the supervisor to feed
    /// into targeted repair ([`crate::supervisor::repair_then_recover`]).
    ///
    /// A backend opened against a sealed freshness anchor (see
    /// `anubis_nvm::FileBackend::open_with_anchor`) may instead report a
    /// freshness violation: the hint is then
    /// [`RecoveryError::RollbackDetected`] or
    /// [`RecoveryError::FreshnessAnchorViolation`], which the supervisor
    /// refuses outright rather than repairing — stale-but-consistent
    /// state must never be served.
    pub fn reopen(
        scheme: BonsaiScheme,
        config: &AnubisConfig,
        backend: B,
    ) -> (Self, Option<RecoveryError>) {
        reopened(Self::assemble(scheme, config, backend))
    }

    /// Computes the canonical zero-state node contents per level.
    ///
    /// Fresh memory is all zeros, and materializing a consistent tree for
    /// terabytes of leaves is out of the question. Instead, a zero block
    /// read at an interior-node address is interpreted as that node's
    /// *canonical zero-state content*: the parent of 8 canonical children.
    /// All full nodes of a level share one content (`canon`); the ragged
    /// right edge differs (`edge`). O(levels) work instead of O(leaves).
    fn zero_state_contents(hasher: &BonsaiHasher, g: &TreeGeometry) -> (Vec<Block>, Vec<Block>) {
        let mut canon = vec![Block::zeroed()];
        let mut edge = vec![Block::zeroed()];
        for level in 1..g.num_levels() {
            let full_child = hasher.digest(&canon[level - 1]);
            canon.push(hasher.parent_block(&[full_child; 8]));
            let last = NodeId::new(level, g.nodes_at(level) - 1);
            let children: Vec<NodeId> = g.children(last).collect();
            let digests: Vec<u64> = children
                .iter()
                .map(|c| {
                    if c.index == g.nodes_at(level - 1) - 1 {
                        hasher.digest(&edge[level - 1])
                    } else {
                        full_child
                    }
                })
                .collect();
            edge.push(hasher.parent_block(&digests));
        }
        (canon, edge)
    }

    /// The content a never-written node logically holds.
    fn canonical_node(&self, node: NodeId) -> Block {
        let g = self.layout().geometry();
        if node.index == g.nodes_at(node.level) - 1 {
            self.edge[node.level]
        } else {
            self.canon[node.level]
        }
    }

    /// Reads a tree node from NVM, substituting the canonical zero-state
    /// content for never-written (all-zero) interior nodes. A *real*
    /// interior node is all-zero only if all eight stored digests are
    /// zero — probability ≈ 2⁻⁵¹² — so the sentinel is safe.
    fn nvm_read_node(&mut self, node: NodeId) -> Result<Block, MemError> {
        let raw = self.path.nvm_read(self.layout().node_addr(node))?;
        if node.level >= 1 && raw.is_zeroed() {
            Ok(self.canonical_node(node))
        } else {
            Ok(raw)
        }
    }

    /// The memory layout (for experiments that tamper with NVM directly).
    pub fn layout(&self) -> &Layout {
        &self.path.layout
    }

    /// The on-chip root register.
    pub fn root(&self) -> Root {
        self.root
    }

    /// Counter-cache statistics (hits, misses, clean/dirty evictions —
    /// the Fig. 7 data).
    pub fn counter_cache_stats(&self) -> &anubis_cache::CacheStats {
        self.counter_cache.stats()
    }

    /// Tree-cache statistics.
    pub fn tree_cache_stats(&self) -> &anubis_cache::CacheStats {
        self.tree_cache.stats()
    }

    fn digest(&mut self, content: &Block) -> u64 {
        self.path.cost.hash_ops += 1;
        self.hasher.digest(content)
    }

    // ------------------------------------------------------------------
    // Cache management with shadow hooks
    // ------------------------------------------------------------------

    /// Inserts a verified tree node, handling the displaced victim and the
    /// AGIT-Read fill hook. Returns the node's slot.
    fn insert_tree_node(&mut self, node: NodeId, content: Block) -> SlotId {
        let addr = self.layout().node_addr(node);
        let outcome = self.tree_cache.insert(addr, content);
        if let Some(ev) = outcome.evicted {
            self.writeback_tree_victim(ev);
        }
        if self.scheme.shadows_on_fill() {
            let slot = outcome.slot.linear(self.tree_cache.ways()) as u64;
            let entry = ShadowAddrEntry::new(node).to_block();
            let smt = self.layout().shadow("smt").nth(slot);
            self.path.stage(smt, entry);
        }
        outcome.slot
    }

    fn writeback_tree_victim(&mut self, ev: Eviction<Block>) {
        if ev.dirty {
            if self.scheme.is_lazy() {
                let node = self
                    .layout()
                    .node_of_addr(ev.addr)
                    .expect("tree cache keys are node addresses");
                self.lazy_propagate_digest(node, &ev.value)
                    .expect("digest propagation only reads/writes the device");
            }
            self.path.stage(ev.addr, ev.value);
        }
    }

    /// Inserts a verified counter block, handling the victim and the
    /// AGIT-Read fill hook. Returns the block's slot.
    fn insert_counter(&mut self, leaf: NodeId, entry: CtrEntry) -> SlotId {
        let addr = self.layout().node_addr(leaf);
        let outcome = self.counter_cache.insert(addr, entry);
        if let Some(ev) = outcome.evicted {
            if ev.dirty {
                let block = ev.value.ctr.to_block();
                if self.scheme.is_lazy() {
                    let node = self
                        .layout()
                        .node_of_addr(ev.addr)
                        .expect("counter cache keys are leaf addresses");
                    self.lazy_propagate_digest(node, &block)
                        .expect("digest propagation only reads/writes the device");
                }
                self.path.stage(ev.addr, block);
            }
        }
        if self.scheme.shadows_on_fill() {
            let slot = outcome.slot.linear(self.counter_cache.ways()) as u64;
            let block = ShadowAddrEntry::new(leaf).to_block();
            let sct = self.layout().shadow("sct").nth(slot);
            self.path.stage(sct, block);
        }
        outcome.slot
    }

    /// AGIT-Plus hook: stage the shadow entry for the counter block in
    /// `slot` the first time it is modified during its residency.
    fn track_counter_if_first_mod(&mut self, leaf: NodeId, slot: SlotId) {
        if !self.scheme.shadows_on_first_mod() {
            return;
        }
        let entry = self.counter_cache.at_mut(slot);
        if entry.tracked {
            return;
        }
        entry.tracked = true;
        let slot = slot.linear(self.counter_cache.ways()) as u64;
        let block = ShadowAddrEntry::new(leaf).to_block();
        let sct = self.layout().shadow("sct").nth(slot);
        self.path.stage(sct, block);
    }

    fn track_tree_node_if_first_mod(&mut self, node: NodeId, slot: SlotId, first_mod: bool) {
        if self.scheme.shadows_on_first_mod() && first_mod {
            let slot = slot.linear(self.tree_cache.ways()) as u64;
            let block = ShadowAddrEntry::new(node).to_block();
            let smt = self.layout().shadow("smt").nth(slot);
            self.path.stage(smt, block);
        }
    }

    // ------------------------------------------------------------------
    // Verified fetch paths
    // ------------------------------------------------------------------

    /// Ensures an interior node is resident and verified, returning its
    /// slot. Fetches the missing suffix of the path to the first cached
    /// ancestor (or the root register) and verifies top-down.
    fn ensure_tree_node(&mut self, node: NodeId) -> Result<SlotId, MemError> {
        debug_assert!(node.level >= 1, "counter blocks use ensure_counter");
        // One lookup records the hit/miss; a miss fetches the chain, whose
        // last insert is `node` itself.
        match self.tree_cache.lookup_slot(self.layout().node_addr(node)) {
            Some(slot) => Ok(slot),
            None => self.fetch_tree_chain(node),
        }
    }

    fn fetch_tree_chain(&mut self, node: NodeId) -> Result<SlotId, MemError> {
        // The missing suffix: node itself plus the `missing - 1` uncached
        // ancestors above it, and the slot of the cached one above those.
        let mut missing = 1;
        let mut cur = node;
        let mut above = None;
        while let Some(p) = self.layout().geometry().parent(cur) {
            above = self.tree_cache.slot_of(self.layout().node_addr(p));
            if above.is_some() {
                break;
            }
            missing += 1;
            cur = p;
        }
        // Fetch and verify top-down; each node's parent is the one
        // inserted just before it, so its slot is still the parent's.
        for up in (0..missing).rev() {
            let n = self.layout().geometry().ancestor(node, up);
            let content = self.nvm_read_node(n)?;
            let d = self.digest(&content);
            match above {
                None => {
                    if Root(d) != self.root {
                        return Err(MemError::Integrity {
                            node: n,
                            against: IntegrityWitness::RootRegister,
                        });
                    }
                }
                Some(p_slot) => {
                    let stored =
                        (self.tree_cache.at(p_slot)).word(self.layout().geometry().child_slot(n));
                    if stored != d {
                        return Err(MemError::Integrity {
                            node: n,
                            against: IntegrityWitness::ParentDigest,
                        });
                    }
                }
            }
            above = Some(self.insert_tree_node(n, content));
        }
        Ok(above.expect("the chain ends at `node`"))
    }

    /// Ensures the counter block `leaf` is resident and verified,
    /// returning its slot.
    fn ensure_counter(&mut self, leaf: NodeId) -> Result<SlotId, MemError> {
        debug_assert_eq!(leaf.level, 0);
        let addr = self.layout().node_addr(leaf);
        if let Some(slot) = self.counter_cache.lookup_slot(addr) {
            return Ok(slot);
        }
        let content = self.path.nvm_read(addr)?;
        let d = self.digest(&content);
        match self.layout().geometry().parent(leaf) {
            None => {
                // Single-leaf tree: the leaf digest *is* the root.
                if Root(d) != self.root {
                    return Err(MemError::Integrity {
                        node: leaf,
                        against: IntegrityWitness::RootRegister,
                    });
                }
            }
            Some(p) => {
                let p_slot = self.ensure_tree_node(p)?;
                let stored =
                    (self.tree_cache.at(p_slot)).word(self.layout().geometry().child_slot(leaf));
                if stored != d {
                    return Err(MemError::Integrity {
                        node: leaf,
                        against: IntegrityWitness::ParentDigest,
                    });
                }
            }
        }
        let entry = CtrEntry {
            ctr: SplitCounterBlock::from_block(&content),
            since_persist: 0,
            tracked: false,
        };
        Ok(self.insert_counter(leaf, entry))
    }

    // ------------------------------------------------------------------
    // Eager tree update
    // ------------------------------------------------------------------

    /// Propagates a changed counter block, resident in `leaf_slot`, up the
    /// tree (eager scheme): updates every ancestor's stored digest in the
    /// cache and finally the on-chip root register. Under strict
    /// persistence the updated nodes are also staged for writeback.
    fn update_path(&mut self, leaf: NodeId, leaf_slot: SlotId) -> Result<(), MemError> {
        let leaf_block = self.counter_cache.at(leaf_slot).ctr.to_block();
        let mut child = leaf;
        let mut child_digest = self.digest(&leaf_block);
        while let Some(parent) = self.layout().geometry().parent(child) {
            let p_slot = self.ensure_tree_node(parent)?;
            let slot = self.layout().geometry().child_slot(child);
            self.tree_cache.at_mut(p_slot).set_word(slot, child_digest);
            let first_mod = self.tree_cache.mark_dirty_at(p_slot);
            self.track_tree_node_if_first_mod(parent, p_slot, first_mod);
            let updated = *self.tree_cache.at(p_slot);
            if self.scheme == BonsaiScheme::StrictPersist {
                self.path.stage(self.layout().node_addr(parent), updated);
                self.tree_cache.mark_clean_at(p_slot);
            }
            child_digest = self.digest(&updated);
            child = parent;
        }
        self.root = Root(child_digest);
        Ok(())
    }

    /// Lazy-scheme digest propagation: `child` is being written back with
    /// `content`; update its parent's stored digest — in the cache if the
    /// parent is resident, otherwise read-modify-write the parent in NVM,
    /// which is itself a writeback that cascades upward. Writing back the
    /// top node refreshes the root register (the only time the lazy
    /// scheme's root advances).
    fn lazy_propagate_digest(&mut self, child: NodeId, content: &Block) -> Result<(), MemError> {
        let d = self.digest(content);
        let g = self.layout().geometry();
        let Some(parent) = g.parent(child) else {
            self.root = Root(d);
            return Ok(());
        };
        let slot = g.child_slot(child);
        let p_addr = self.layout().node_addr(parent);
        if let Some(p_slot) = self.tree_cache.slot_of(p_addr) {
            self.tree_cache.at_mut(p_slot).set_word(slot, d);
            self.tree_cache.mark_dirty_at(p_slot);
            return Ok(());
        }
        let mut p_block = self.nvm_read_node(parent)?;
        p_block.set_word(slot, d);
        // Writing the parent back is a writeback of the parent: cascade.
        self.lazy_propagate_digest(parent, &p_block)?;
        self.path.stage(p_addr, p_block);
        Ok(())
    }

    /// Orderly shutdown for the lazy scheme: write back dirty blocks
    /// bottom-up, propagating digests, until the cache is clean and the
    /// root register reflects the fully persisted tree.
    fn lazy_flush(&mut self) -> Result<(), MemError> {
        loop {
            // Dirty counters first, then the lowest-level dirty tree node.
            let next_counter = self
                .counter_cache
                .iter_resident()
                .find(|(_, _, _, dirty)| *dirty)
                .map(|(slot, addr, entry, _)| (slot, addr, entry.ctr.to_block()));
            let next = next_counter.or_else(|| {
                self.tree_cache
                    .iter_resident()
                    .filter(|(_, _, _, dirty)| *dirty)
                    .min_by_key(|(_, addr, _, _)| {
                        self.layout()
                            .node_of_addr(*addr)
                            .map(|n| n.level)
                            .unwrap_or(usize::MAX)
                    })
                    .map(|(slot, addr, block, _)| (slot, addr, *block))
            });
            let Some((slot, addr, block)) = next else {
                break;
            };
            let node = self.layout().node_of_addr(addr).expect("metadata address");
            // Propagation dirties the node's parent in place; no insert
            // moves the node out of `slot`.
            self.lazy_propagate_digest(node, &block)?;
            self.path.stage(addr, block);
            self.commit()?;
            if node.level == 0 {
                self.counter_cache.mark_clean_at(slot);
            } else {
                self.tree_cache.mark_clean_at(slot);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Page re-encryption (minor-counter overflow)
    // ------------------------------------------------------------------

    /// Handles a minor-counter overflow for `leaf`, resident in `slot`:
    /// bumps the major counter, resets minors, persistently re-encrypts
    /// all 64 lines of the page, all crash-safely via the on-chip
    /// re-encryption log.
    fn reencrypt_page(&mut self, leaf: NodeId, slot: SlotId) -> Result<(), MemError> {
        let leaf_addr = self.layout().node_addr(leaf);
        let old = self.counter_cache.at(slot).ctr;
        // Step 1+2 (atomic from recovery's view): activate the log and
        // install the new counter state, root included, persisting the new
        // counter block. If the commit group is lost, recovery REDOes it
        // from the log.
        let fresh = SplitCounterBlock::with_major(old.major() + 1);
        self.reenc_log = Some(ReencLog {
            leaf: leaf.index,
            old,
            next_line: 0,
        });
        let entry = self.counter_cache.at_mut(slot);
        entry.ctr = fresh;
        entry.since_persist = 0;
        self.counter_cache.mark_dirty_at(slot);
        self.track_counter_if_first_mod(leaf, slot);
        self.path.stage(leaf_addr, fresh.to_block());
        self.counter_cache.mark_clean_at(slot);
        self.update_path(leaf, slot)?;
        self.commit()?;
        // Step 3: re-encrypt lines one by one; the log's next_line tracks
        // progress so a crash resumes exactly where it stopped.
        for line in 0..LINES_PER_COUNTER_BLOCK as usize {
            self.reencrypt_line(leaf.index, &old, old.major() + 1, line)?;
            self.commit()?;
            if let Some(log) = &mut self.reenc_log {
                log.next_line = line as u8 + 1;
            }
        }
        // Step 4: done.
        self.reenc_log = None;
        Ok(())
    }

    /// Re-encrypts one line of a page from its old counter to
    /// `(new_major, 0)`, staged in the op's commit group. Recovery finishes
    /// an interrupted re-encryption with its own copy of this loop,
    /// `recovery::complete_reencryption`.
    fn reencrypt_line(
        &mut self,
        leaf_index: u64,
        old: &SplitCounterBlock,
        new_major: u64,
        line: usize,
    ) -> Result<(), MemError> {
        let Some(data_addr) = self.layout().line_of(leaf_index, line) else {
            return Ok(()); // ragged last page
        };
        let Line { dev, side, .. } = self.path.line(data_addr, None);
        let ciphertext = self.path.nvm_read(dev)?;
        let sealed = sealed_block(ciphertext, &self.path.nvm_read_free(side)?);
        let new_ctr = IvCounter::split(new_major, 0);
        let plaintext = if old.major() == 0 && old.minor(line) == 0 {
            // Zero-state line: plaintext is zero by convention.
            Block::zeroed()
        } else {
            let old_ctr = IvCounter::split(old.major(), old.minor(line) as u64);
            self.path.cost.hash_ops += 1;
            match self.path.codec.probe(dev, old_ctr, &sealed) {
                Some(pt) => pt,
                None => {
                    // Already re-encrypted (recovery redoing the boundary
                    // line): verify it opens under the new counter.
                    self.path.cost.hash_ops += 1;
                    match self.path.codec.probe(dev, new_ctr, &sealed) {
                        Some(_) => return Ok(()),
                        None => {
                            return Err(MemError::Crypto(anubis_crypto::CryptoError::EccMismatch))
                        }
                    }
                }
            }
        };
        self.path.stage_sealed(data_addr, new_ctr, plaintext);
        Ok(())
    }

    /// Resolves a data line under `ctr`, the counter block covering it.
    fn line_under(&self, addr: DataAddr, ctr: &SplitCounterBlock) -> Line {
        let (_, slot) = self.layout().leaf_of(addr);
        let written = ctr.major() != 0 || ctr.minor(slot) != 0;
        let iv = written.then(|| IvCounter::split(ctr.major(), ctr.minor(slot) as u64));
        self.path.line(addr, iv)
    }
}

impl<B: NvmBackend> Backed for BonsaiController<B> {
    type Backend = B;
}

impl<B: NvmBackend> Policy for BonsaiController<B> {
    fn path(&self) -> &DataPath<B> {
        &self.path
    }

    fn path_mut(&mut self) -> &mut DataPath<B> {
        &mut self.path
    }

    fn name(&self) -> &'static str {
        self.scheme.name()
    }

    #[inline]
    fn line_iv(&mut self, addr: DataAddr) -> Result<Line, MemError> {
        let (leaf, _) = self.layout().leaf_of(addr);
        let slot = self.ensure_counter(leaf)?;
        let ctr = self.counter_cache.at(slot).ctr;
        Ok(self.line_under(addr, &ctr))
    }

    /// Resolves a line under its counter block's NVM copy: degraded mode
    /// runs with the caches down and the tree suspect.
    fn unverified_line(&mut self, addr: DataAddr) -> Line {
        let (leaf, _) = self.layout().leaf_of(addr);
        let leaf_addr = self.layout().node_addr(leaf);
        let stale = SplitCounterBlock::from_block(&self.path.domain.device_mut().read(leaf_addr));
        self.line_under(addr, &stale)
    }

    /// Counter maintenance, overflow-driven page re-encryption, the
    /// (deferred) data seal and the tree update.
    fn write_inner(&mut self, addr: DataAddr, data: Block) -> Result<(), MemError> {
        let (leaf, line) = self.layout().leaf_of(addr);
        // Only `ensure_counter` inserts into the counter cache: `slot`
        // holds the leaf for the rest of the write.
        let slot = self.ensure_counter(leaf)?;
        let leaf_addr = self.layout().node_addr(leaf);

        // Track *before* any mutation so AGIT-Plus has the shadow entry
        // committed (or staged in the same group) ahead of the change.
        self.counter_cache.mark_dirty_at(slot);
        self.track_counter_if_first_mod(leaf, slot);

        // Minor-counter overflow → crash-safe page re-encryption.
        if self.counter_cache.at(slot).ctr.minor(line) == MINOR_MAX {
            self.commit()?; // don't mix the tracking entry into reenc groups
            self.reencrypt_page(leaf, slot)?;
        }

        // Increment the counter.
        let entry = self.counter_cache.at_mut(slot);
        let outcome = entry.ctr.increment(line);
        debug_assert_eq!(outcome, anubis_crypto::CounterIncrement::Minor);
        entry.since_persist = entry.since_persist.saturating_add(1);
        let persist_now =
            self.scheme.uses_stop_loss() && entry.since_persist >= self.config.stop_loss;
        if persist_now {
            entry.since_persist = 0;
        }
        let iv = IvCounter::split(entry.ctr.major(), entry.ctr.minor(line) as u64);
        self.counter_cache.mark_dirty_at(slot);
        let write_through = matches!(
            self.scheme,
            BonsaiScheme::StrictPersist | BonsaiScheme::CounterWriteThrough
        );
        if persist_now || write_through {
            let block = self.counter_cache.at(slot).ctr.to_block();
            self.path.stage(leaf_addr, block);
            self.counter_cache.mark_clean_at(slot);
        }

        // Stage the data seal; the crypto itself is deferred to commit
        // time, where the whole group goes through the batch seal path.
        self.path.stage_sealed(addr, iv, data);

        // Eager tree update up to the on-chip root (lazy defers digest
        // propagation to writeback time).
        if !self.scheme.is_lazy() {
            self.update_path(leaf, slot)?;
        }
        Ok(())
    }

    type Mirrors = [(u8, Block); 3];

    /// The Merkle root and the re-encryption log. They ride the same
    /// backend barrier as the group's writes: a crash before the ack
    /// drops both together.
    fn reg_mirrors(&self) -> Self::Mirrors {
        let root = Block::from_words([self.root.0, 0, 0, 0, 0, 0, 0, 0]);
        let (meta, old) = self
            .reenc_log
            .map_or((Block::zeroed(), Block::zeroed()), |log| {
                let meta = [1, log.leaf, u64::from(log.next_line), 0, 0, 0, 0, 0];
                (Block::from_words(meta), log.old.to_block())
            });
        [(REG_ROOT, root), (REG_REENC, meta), (REG_REENC_OLD, old)]
    }

    fn flush_metadata(&mut self) -> Result<(), MemError> {
        if self.scheme.is_lazy() {
            return self.lazy_flush();
        }
        // Dirty counters, then dirty tree nodes, in commit groups the
        // persistent register file can hold; a block is marked clean only
        // once the group that carried it has committed, so a failed flush
        // leaves it for the next one.
        let dirty_ctrs = (self.counter_cache.iter_resident())
            .filter(|(_, _, _, dirty)| *dirty)
            .map(|(slot, addr, entry, _)| (slot, addr, entry.ctr.to_block(), true));
        let dirty_nodes = (self.tree_cache.iter_resident())
            .filter(|(_, _, _, dirty)| *dirty)
            .map(|(slot, addr, block, _)| (slot, addr, *block, false));
        let dirty: Vec<(SlotId, BlockAddr, Block, bool)> = dirty_ctrs.chain(dirty_nodes).collect();
        for group in dirty.chunks(PREG_CAPACITY) {
            for &(_, addr, block, _) in group {
                self.path.stage(addr, block);
            }
            self.commit()?;
            for &(slot, _, _, counter) in group {
                if counter {
                    self.counter_cache.mark_clean_at(slot);
                } else {
                    self.tree_cache.mark_clean_at(slot);
                }
            }
        }
        Ok(())
    }

    fn power_on_reset(&mut self) {
        self.counter_cache.invalidate_all();
        self.tree_cache.invalidate_all();
        let reg = |idx| self.path.reg(idx);
        self.root = Root(reg(REG_ROOT).word(0));
        let log = reg(REG_REENC);
        self.reenc_log = (log.word(0) == 1).then(|| ReencLog {
            leaf: log.word(1),
            old: SplitCounterBlock::from_block(&reg(REG_REENC_OLD)),
            next_line: log.word(2).min(LINES_PER_COUNTER_BLOCK) as u8,
        });
    }

    fn reset_cache_stats(&mut self) {
        self.counter_cache.reset_stats();
        self.tree_cache.reset_stats();
    }

    fn publish_own(&self, t: &Telemetry) {
        t.counter_set("stop_loss_events_total", self.name(), self.stop_loss_events);
        publish_cache_stats(t, "counter", self.counter_cache.stats());
        publish_cache_stats(t, "tree", self.tree_cache.stats());
    }

    fn recover_metadata(&mut self, t: &mut RecoveryReport) -> Result<(), RecoveryError> {
        recovery::recover(self, t)
    }

    fn targeted_repair(&mut self, _err: &RecoveryError) -> Result<RepairSummary, RecoveryError> {
        Ok(repair::targeted(self))
    }

    fn reconcile_metadata(&mut self) -> Result<RepairSummary, RecoveryError> {
        Ok(repair::reconcile(self))
    }
}

#[cfg(test)]
mod tests;
