//! The SGX-style (parallelizable-tree) memory controller family.
//!
//! One controller struct implements all four schemes of the paper's §6.2
//! (write-back, strict persistence, Osiris, ASIT); [`SgxScheme`] selects
//! the hooks. The tree is the parallelizable SGX-style counter tree with
//! *lazy* updates: a counter increment touches only the leaf in the
//! cache, and version counters propagate upward when dirty nodes are
//! written back (paper §2.3.2, Vault/Synergy style).

mod recovery;
mod repair;

use crate::config::AnubisConfig;
use crate::datapath::{mirrored, publish_cache_stats, reopened, Backed, DataPath, Line, Policy};
use crate::error::{IntegrityWitness, MemError, RecoveryError};
use crate::layout::{DataAddr, Layout};
use crate::recovery::RecoveryReport;
use crate::shadow::StEntry;
use crate::shadow_tree::ShadowTree;
use crate::supervisor::RepairSummary;
use anubis_cache::MetadataCache;
use anubis_crypto::hash::Hasher64;
use anubis_crypto::otp::IvCounter;
use anubis_crypto::{SgxCounterNode, SGX_COUNTERS_PER_NODE};
use anubis_itree::bonsai::Root;
use anubis_itree::NodeId;
use anubis_nvm::{Block, MemBackend, NvmBackend, Region};
use anubis_telemetry::Telemetry;

/// Backend register slot mirroring the on-chip top counter node.
pub(crate) const REG_TOP: u8 = 0;
/// Backend register slot mirroring `SHADOW_TREE_ROOT` (word 0) and
/// whether dirty cached metadata was at risk (word 1; see
/// `lost_dirty_metadata`).
pub(crate) const REG_SHADOW: u8 = 1;

/// Which §6.2 scheme an [`SgxController`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SgxScheme {
    /// Lazy write-back caching; unrecoverable after losing any dirty
    /// interior node (the paper's §3 motivation).
    WriteBack,
    /// Eager in-cache updates (every write propagates version counters up
    /// to the on-chip top node) with lazy *persistence*. Demonstrates the
    /// paper's §2.6 point: for SGX-style trees even a perfectly fresh
    /// root cannot recover lost intermediate nodes — eager update is
    /// insufficient, a shadow of the cache *contents* is required.
    EagerWriteBack,
    /// Eager update and immediate persistence of the whole path — the
    /// only pre-Anubis scheme that can recover an SGX-style tree.
    StrictPersist,
    /// Osiris-style stop-loss on leaf counters. Models the run-time cost;
    /// recovery remains impossible because interior nodes cannot be
    /// rebuilt from leaves.
    Osiris,
    /// ASIT (paper §4.3): lazy updates plus an integrity-protected Shadow
    /// Table mirroring the metadata cache.
    Asit,
}

impl SgxScheme {
    /// Scheme name used in reports and figures.
    pub fn name(self) -> &'static str {
        match self {
            SgxScheme::WriteBack => "sgx-write-back",
            SgxScheme::EagerWriteBack => "sgx-eager-write-back",
            SgxScheme::StrictPersist => "sgx-strict-persist",
            SgxScheme::Osiris => "sgx-osiris",
            SgxScheme::Asit => "asit",
        }
    }

    /// The four schemes of the paper's Figure 11, in its order.
    pub fn all() -> [SgxScheme; 4] {
        [
            SgxScheme::WriteBack,
            SgxScheme::StrictPersist,
            SgxScheme::Osiris,
            SgxScheme::Asit,
        ]
    }

    /// Every implemented scheme, including the beyond-paper
    /// [`SgxScheme::EagerWriteBack`] demonstrator.
    pub fn all_with_extras() -> [SgxScheme; 5] {
        [
            SgxScheme::WriteBack,
            SgxScheme::EagerWriteBack,
            SgxScheme::StrictPersist,
            SgxScheme::Osiris,
            SgxScheme::Asit,
        ]
    }
}

/// A cached SGX node plus Osiris stop-loss bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SgxEntry {
    pub(crate) node: SgxCounterNode,
    pub(crate) since_persist: u8,
}

/// The SGX-style secure memory controller (paper §4.3 and baselines).
///
/// Generic over the NVM storage backend, like
/// [`crate::BonsaiController`]: the default in-memory [`MemBackend`], or
/// a durable backend whose image can be reopened with
/// [`SgxController::reopen`] after the process died.
#[derive(Clone, Debug)]
pub struct SgxController<B: NvmBackend = MemBackend> {
    scheme: SgxScheme,
    config: AnubisConfig,
    /// The shared data path: layout, persistence domain, data codec,
    /// commit group, cost accounting, common telemetry.
    path: DataPath<B>,
    mac_key: Hasher64,
    cache: MetadataCache<SgxEntry>,
    /// On-chip persistent register: the top node's eight version counters.
    top: SgxCounterNode,
    /// The content a never-written node logically holds: zero counters
    /// sealed against a zero parent counter. One value serves every node
    /// because SGX MACs are content-only.
    canonical_zero: SgxCounterNode,
    /// Volatile shadow-table mirror + protection tree (ASIT only).
    shadow_tree: Option<ShadowTree>,
    /// On-chip persistent register: `SHADOW_TREE_ROOT` (ASIT only).
    shadow_root: Root,
    /// Simulation oracle: whether the image lacks dirty cached metadata
    /// a power cut destroyed. Write-back and Osiris cannot recover an SGX
    /// tree in that case (paper §3); in hardware the failure surfaces as
    /// stale or unreadable data, which this flag stands in for (see
    /// DESIGN.md). It comes from the image: every commit of those schemes
    /// records in the shadow-register mirror whether their cache still
    /// holds dirty metadata, and a power-on loads it from there. Always
    /// false for strict persistence and ASIT.
    lost_dirty_metadata: bool,
}

impl SgxController {
    /// Builds a controller over a fresh all-zero in-memory NVM image.
    pub fn new(scheme: SgxScheme, config: &AnubisConfig) -> Self {
        Self::assemble(scheme, config, MemBackend::new())
    }
}

impl<B: NvmBackend> SgxController<B> {
    /// Shared construction over any storage backend.
    fn assemble(scheme: SgxScheme, config: &AnubisConfig, backend: B) -> Self {
        let cache: MetadataCache<SgxEntry> =
            MetadataCache::new(config.metadata_cache_bytes, config.metadata_cache_ways);
        let layout = Layout::sgx(config, cache.num_slots() as u64);
        let mac_key = Hasher64::new(config.key.derive("sgx-mac"));
        let mut canonical_zero = SgxCounterNode::new();
        canonical_zero.seal(&mac_key, 0);
        let shadow_tree = (scheme == SgxScheme::Asit)
            .then(|| ShadowTree::new(config.key, cache.num_slots() as u64));
        let shadow_root = shadow_tree.as_ref().map(|t| t.root()).unwrap_or_default();
        let mut c = SgxController {
            scheme,
            config: config.clone(),
            path: DataPath::new(layout, config.key, backend),
            mac_key,
            cache,
            top: SgxCounterNode::new(),
            canonical_zero,
            shadow_tree,
            shadow_root,
            lost_dirty_metadata: false,
        };
        c.path.fresh_regs = c.reg_mirrors().to_vec();
        c
    }

    /// Reopens a controller over an existing device image (e.g. a
    /// `FileBackend` replayed from disk after the previous process died).
    ///
    /// The on-chip persistent registers (top counter node,
    /// `SHADOW_TREE_ROOT`) are restored from the register mirrors the
    /// previous incarnation committed alongside each group; the bad-block
    /// remap table is reloaded from its persisted region. The caller must
    /// still run recovery before serving reads.
    ///
    /// A process kill is a power cut: the write-back family (write-back,
    /// eager write-back, Osiris) refuses to recover when its last commit
    /// left dirty metadata in the cache — the image records that with
    /// the register mirrors — and recovers after an orderly
    /// `shutdown_flush`, exactly as across an in-process crash. Only
    /// strict persistence and ASIT survive an unclean restart.
    ///
    /// A corrupt persisted quarantine table does not fail the reopen; the
    /// controller proceeds with an empty table and the second element
    /// carries [`RecoveryError::CorruptImage`] for
    /// [`crate::supervisor::repair_then_recover`].
    pub fn reopen(
        scheme: SgxScheme,
        config: &AnubisConfig,
        backend: B,
    ) -> (Self, Option<RecoveryError>) {
        reopened(Self::assemble(scheme, config, backend))
    }

    /// The memory layout (for tamper experiments).
    pub fn layout(&self) -> &Layout {
        &self.path.layout
    }

    /// The ASIT Shadow Table's region.
    fn st(&self) -> &Region {
        self.layout().shadow("st")
    }

    /// The Shadow Table as it stands in NVM, in slot order.
    fn st_image(&self) -> Vec<Block> {
        let device = self.path.domain.device();
        self.st().iter().map(|addr| device.read(addr)).collect()
    }

    /// Combined metadata-cache statistics.
    pub fn cache_stats(&self) -> &anubis_cache::CacheStats {
        self.cache.stats()
    }

    /// The on-chip `SHADOW_TREE_ROOT` register (ASIT).
    pub fn shadow_root(&self) -> Root {
        self.shadow_root
    }

    /// Test/debug hook: re-anchors `SHADOW_TREE_ROOT` (and the volatile
    /// shadow tree) to the Shadow Table image currently in NVM, as if
    /// every slot had been written through the normal ST path. Lets
    /// crash-matrix tests stage hand-crafted ST contents that pass the
    /// recovery root check.
    #[doc(hidden)]
    pub fn debug_refresh_shadow_root_from_nvm(&mut self) {
        mirrored(self, |c| {
            let tree = ShadowTree::rebuild(c.config.key, c.st_image());
            c.shadow_root = tree.root();
            c.shadow_tree = Some(tree);
        });
    }

    // ------------------------------------------------------------------
    // Parent-counter plumbing
    // ------------------------------------------------------------------

    /// The parent version counter for `node`, from the cache if the
    /// parent is resident, from the on-chip register for top-level
    /// children, or from NVM otherwise (charged as a read).
    fn parent_counter(&mut self, node: NodeId) -> Result<u64, MemError> {
        let g = self.layout().geometry();
        let Some(parent) = g.parent(node) else {
            // `node` *is* the top node: versioned by an implicit constant.
            return Ok(0);
        };
        let slot = g.child_slot(node);
        if self.layout().is_on_chip(parent) {
            return Ok(self.top.counter(slot));
        }
        let p_addr = self.layout().node_addr(parent);
        if let Some(entry) = self.cache.peek(p_addr) {
            return Ok(entry.node.counter(slot));
        }
        // Not resident: NVM copy is current (lazy scheme invariant — a
        // parent counter only changes when this child is written back,
        // which marks the parent dirty and resident).
        let block = self.path.nvm_read(p_addr)?;
        Ok(SgxCounterNode::from_block(&block).counter(slot))
    }

    /// Bumps the parent's version counter for `node` (the writeback rule:
    /// every writeback of a node increments its parent counter so stale
    /// copies cannot be replayed). Returns the new counter value.
    ///
    /// Deliberately does **not** pull missing parents into the cache:
    /// inserting mid-eviction could evict further dirty nodes and re-fetch
    /// the very node being written back while its update is still in
    /// flight. A non-resident parent is instead read, bumped, re-sealed
    /// (recursively bumping *its* parent) and written straight back —
    /// recursion is strictly upward and bounded by the tree height.
    fn bump_parent_counter(&mut self, node: NodeId) -> Result<u64, MemError> {
        let g = self.layout().geometry();
        let Some(parent) = g.parent(node) else {
            return Ok(0);
        };
        let slot = g.child_slot(node);
        if self.layout().is_on_chip(parent) {
            self.top.increment(slot);
            return Ok(self.top.counter(slot));
        }
        let p_addr = self.layout().node_addr(parent);
        if self.cache.contains(p_addr) {
            let new = {
                let entry = self.cache.peek_mut(p_addr).expect("checked resident");
                entry.node.increment(slot);
                entry.node.counter(slot)
            };
            let first_mod = self.cache.mark_dirty(p_addr);
            self.after_update_hooks(parent, first_mod)?;
            return Ok(new);
        }
        // Non-resident parent: its NVM copy is current (lazy invariant).
        let block = self.path.nvm_read(p_addr)?;
        let mut p_node = if block.is_zeroed() {
            self.canonical_zero
        } else {
            SgxCounterNode::from_block(&block)
        };
        let pc_check = self.parent_counter(parent)?;
        self.path.cost.hash_ops += 1;
        if !p_node.verify(&self.mac_key, pc_check) {
            return Err(MemError::Integrity {
                node: parent,
                against: IntegrityWitness::NodeMac,
            });
        }
        p_node.increment(slot);
        // Writing the parent back is itself a writeback: bump upward.
        let pc_new = self.bump_parent_counter(parent)?;
        p_node.seal(&self.mac_key, pc_new);
        self.path.cost.hash_ops += 1;
        self.path.stage(p_addr, p_node.to_block());
        Ok(p_node.counter(slot))
    }

    // ------------------------------------------------------------------
    // Scheme hooks
    // ------------------------------------------------------------------

    /// Runs after any update to a cached node: ASIT shadow-table write
    /// (every update), Osiris stop-loss persistence, LSB-overflow
    /// persistence.
    fn after_update_hooks(&mut self, node: NodeId, _first_mod: bool) -> Result<(), MemError> {
        match self.scheme {
            SgxScheme::Asit => {
                self.stage_st_entry(node)?;
                self.maybe_persist_on_lsb_overflow(node)?;
            }
            SgxScheme::Osiris => {
                let addr = self.layout().node_addr(node);
                let persist = {
                    let entry = self.cache.peek_mut(addr).expect("resident");
                    entry.since_persist = entry.since_persist.saturating_add(1);
                    if entry.since_persist >= self.config.stop_loss {
                        entry.since_persist = 0;
                        true
                    } else {
                        false
                    }
                };
                if persist {
                    self.writeback_node(node)?;
                }
            }
            SgxScheme::WriteBack | SgxScheme::EagerWriteBack | SgxScheme::StrictPersist => {}
        }
        Ok(())
    }

    /// Stages the ST entry for a resident node and its leaf in the
    /// shadow-protection tree (settled, and the root installed, at
    /// commit).
    fn stage_st_entry(&mut self, node: NodeId) -> Result<(), MemError> {
        let addr = self.layout().node_addr(node);
        let pc = self.parent_counter(node)?;
        let (counters, slot) = {
            let entry = self.cache.peek(addr).expect("ST entry for resident node");
            let mut cs = [0u64; SGX_COUNTERS_PER_NODE];
            for (i, c) in cs.iter_mut().enumerate() {
                *c = entry.node.counter(i);
            }
            let slot = self
                .cache
                .slot_of(addr)
                .expect("resident")
                .linear(self.cache.ways()) as u64;
            (cs, slot)
        };
        self.path.cost.hash_ops += 1;
        let mac = SgxCounterNode::compute_mac(&self.mac_key, &counters, pc);
        let lsb_mask = (1u64 << self.config.st_lsb_bits) - 1;
        let lsbs = counters.map(|c| c & lsb_mask);
        let block = StEntry::new(addr, mac, lsbs).to_block();
        self.path.stage(self.st().nth(slot), block);
        self.stage_shadow_leaf(slot, block)
    }

    /// Stages `block` as the shadow-protection tree's leaf `slot`. The
    /// paper's dedicated on-chip engine updates the tree eagerly, off the
    /// data path, and the cost model charges exactly that; the host
    /// re-hashes once per group in [`Policy::commit`].
    fn stage_shadow_leaf(&mut self, slot: u64, block: Block) -> Result<(), MemError> {
        let tree = self.shadow_tree.as_mut().ok_or(MemError::RecoveryPending)?;
        self.path.cost.bg_hash_ops += tree.update_hash_ops();
        tree.stage(slot, block);
        Ok(())
    }

    /// Persists a node whose counter LSBs just wrapped past the ST field
    /// width, so recovery's MSB-splice stays correct (paper §4.3.1).
    fn maybe_persist_on_lsb_overflow(&mut self, node: NodeId) -> Result<(), MemError> {
        let addr = self.layout().node_addr(node);
        let lsb_mask = (1u64 << self.config.st_lsb_bits) - 1;
        let wrapped = {
            let entry = self.cache.peek(addr).expect("resident");
            (0..SGX_COUNTERS_PER_NODE)
                .any(|i| entry.node.counter(i) & lsb_mask == 0 && entry.node.counter(i) != 0)
        };
        if wrapped {
            self.writeback_node(node)?;
        }
        Ok(())
    }

    /// Writes a resident node back to NVM without evicting it: bumps the
    /// parent counter, seals, stages the write, and (ASIT) refreshes the
    /// node's ST entry so the shadow copy matches the NVM copy.
    fn writeback_node(&mut self, node: NodeId) -> Result<(), MemError> {
        let addr = self.layout().node_addr(node);
        let pc = self.bump_parent_counter(node)?;
        let sealed = {
            let entry = self
                .cache
                .peek_mut(addr)
                .expect("resident during writeback");
            entry.node.seal(&self.mac_key, pc);
            entry.node
        };
        self.path.cost.hash_ops += 1;
        self.path.stage(addr, sealed.to_block());
        self.cache.mark_clean(addr);
        if self.scheme == SgxScheme::Asit {
            self.stage_st_entry(node)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Verified fetch and eviction
    // ------------------------------------------------------------------

    /// Ensures `node` is resident and MAC-verified, fetching the missing
    /// chain up to the first cached ancestor (or the on-chip top node).
    fn ensure_node(&mut self, node: NodeId) -> Result<(), MemError> {
        debug_assert!(
            !self.layout().is_on_chip(node),
            "the top node is always on-chip"
        );
        // One lookup records the hit/miss; retries use `contains` so a
        // thrash-retry doesn't double-count.
        if self.cache.lookup(self.layout().node_addr(node)).is_some() {
            return Ok(());
        }
        for _attempt in 0..12 {
            if self.cache.contains(self.layout().node_addr(node)) {
                return Ok(());
            }
            self.fetch_chain(node)?;
        }
        panic!("metadata cache thrashing: cannot keep {node} resident");
    }

    fn fetch_chain(&mut self, node: NodeId) -> Result<(), MemError> {
        // The missing suffix of the path: `node` and the `missing - 1`
        // ancestors above it that are neither on chip nor cached.
        let mut missing = 1;
        let mut cur = node;
        while let Some(p) = self.layout().geometry().parent(cur) {
            if self.layout().is_on_chip(p) || self.cache.contains(self.layout().node_addr(p)) {
                break;
            }
            missing += 1;
            cur = p;
        }
        for up in (0..missing).rev() {
            let n = self.layout().geometry().ancestor(node, up);
            let addr = self.layout().node_addr(n);
            if self.cache.contains(addr) {
                continue; // an eviction cascade may have fetched it already
            }
            let block = self.path.nvm_read(addr)?;
            let fetched = if block.is_zeroed() {
                // Never-written node: canonical zero state (a real node's
                // MAC is zero only with probability 2^-56).
                self.canonical_zero
            } else {
                SgxCounterNode::from_block(&block)
            };
            let pc = self.parent_counter(n)?;
            self.path.cost.hash_ops += 1;
            if !fetched.verify(&self.mac_key, pc) {
                return Err(MemError::Integrity {
                    node: n,
                    against: IntegrityWitness::NodeMac,
                });
            }
            self.insert_node(n, fetched)?;
        }
        Ok(())
    }

    /// Inserts a verified node, handling the displaced victim (lazy
    /// propagation: dirty victims bump their parent counter, seal, write
    /// back, and refresh their ST entry).
    fn insert_node(&mut self, node: NodeId, value: SgxCounterNode) -> Result<(), MemError> {
        let addr = self.layout().node_addr(node);
        let outcome = self.cache.insert(
            addr,
            SgxEntry {
                node: value,
                since_persist: 0,
            },
        );
        if let Some(ev) = outcome.evicted {
            if ev.dirty {
                let victim = self
                    .layout()
                    .node_of_addr(ev.addr)
                    .expect("cache keys are metadata addresses");
                // Clear the victim's ST slot *before* bumping its parent:
                // the slot now belongs to the freshly inserted node, and
                // if that node happens to BE the victim's parent, the bump
                // below writes the parent's new ST entry into this very
                // slot — clearing afterwards would wipe it, leaving a
                // dirty resident node untracked (unrecoverable bump).
                if self.scheme == SgxScheme::Asit {
                    self.clear_st_slot(ev.slot.linear(self.cache.ways()) as u64)?;
                }
                let pc = self.bump_parent_counter(victim)?;
                let mut sealed = ev.value.node;
                sealed.seal(&self.mac_key, pc);
                self.path.cost.hash_ops += 1;
                self.path.stage(ev.addr, sealed.to_block());
            }
        }
        Ok(())
    }

    /// Clears the ST slot of an evicted dirty node. The eviction writeback
    /// makes the NVM copy current, so the entry is no longer needed — and
    /// keeping it would let a later *non-resident* writeback (the upward
    /// counter cascade) silently invalidate its MAC. Invariant: ST entries
    /// exist only for currently resident nodes (see DESIGN.md).
    fn clear_st_slot(&mut self, slot: u64) -> Result<(), MemError> {
        self.stage_shadow_leaf(slot, Block::zeroed())?;
        self.path.stage(self.st().nth(slot), Block::zeroed());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// The strict-persistence write path: eagerly bump and persist the
    /// whole path (every node sealed against its just-bumped parent).
    fn strict_propagate(&mut self, leaf: NodeId) -> Result<(), MemError> {
        let mut node = leaf;
        loop {
            let pc = self.bump_parent_counter(node)?;
            let addr = self.layout().node_addr(node);
            let sealed = {
                let entry = self.cache.peek_mut(addr).expect("resident");
                entry.node.seal(&self.mac_key, pc);
                entry.node
            };
            self.path.cost.hash_ops += 1;
            self.path.stage(addr, sealed.to_block());
            self.cache.mark_clean(addr);
            match self.layout().geometry().parent(node) {
                Some(p) if !self.layout().is_on_chip(p) => {
                    self.ensure_node(p)?;
                    node = p;
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// Eager in-cache propagation (no persistence): bump every ancestor's
    /// version counter and re-seal each node against its new parent
    /// counter, keeping everything dirty in the cache. The on-chip top
    /// node is always fresh — and yet a crash still loses the interior
    /// (paper §2.6: eager update is insufficient for SGX-style trees).
    fn eager_propagate(&mut self, leaf: NodeId) -> Result<(), MemError> {
        let mut node = leaf;
        loop {
            let pc = self.bump_parent_counter(node)?;
            let addr = self.layout().node_addr(node);
            {
                let entry = self.cache.peek_mut(addr).expect("resident on the path");
                entry.node.seal(&self.mac_key, pc);
            }
            self.path.cost.hash_ops += 1;
            self.cache.mark_dirty(addr);
            match self.layout().geometry().parent(node) {
                Some(p) if !self.layout().is_on_chip(p) => {
                    self.ensure_node(p)?;
                    node = p;
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// Resolves a data line under `ctr`, its current version counter.
    fn line_under(&self, addr: DataAddr, ctr: u64) -> Line {
        (self.path).line(addr, (ctr != 0).then(|| IvCounter::monolithic(ctr)))
    }
}

impl<B: NvmBackend> Backed for SgxController<B> {
    type Backend = B;
}

impl<B: NvmBackend> Policy for SgxController<B> {
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
        let (leaf, slot) = self.layout().leaf_of(addr);
        // Degenerate single-leaf tree: the leaf IS the on-chip top node.
        let ctr = if self.layout().is_on_chip(leaf) {
            self.top.counter(slot)
        } else {
            self.ensure_node(leaf)?;
            self.cache
                .peek(self.layout().node_addr(leaf))
                .expect("ensured")
                .node
                .counter(slot)
        };
        Ok(self.line_under(addr, ctr))
    }

    /// Resolves a line under its current counter: from the resident leaf
    /// if cached (recovered nodes live there dirty), the on-chip top node
    /// for the degenerate single-leaf tree, or the NVM copy.
    fn unverified_line(&mut self, addr: DataAddr) -> Line {
        let (leaf, slot) = self.layout().leaf_of(addr);
        if self.layout().is_on_chip(leaf) {
            return self.line_under(addr, self.top.counter(slot));
        }
        let leaf_addr = self.layout().node_addr(leaf);
        let ctr = match self.cache.peek(leaf_addr) {
            Some(entry) => entry.node.counter(slot),
            None => SgxCounterNode::from_block(&self.path.domain.device_mut().read(leaf_addr))
                .counter(slot),
        };
        self.line_under(addr, ctr)
    }

    /// Counter bump, scheme-specific propagation and the (deferred)
    /// data seal.
    fn write_inner(&mut self, addr: DataAddr, data: Block) -> Result<(), MemError> {
        // A crash or a restart took the shadow tree with it and only
        // recovery rebuilds it: refuse before a counter is bumped that
        // the Shadow Table could then not track.
        if self.scheme == SgxScheme::Asit && self.shadow_tree.is_none() {
            return Err(MemError::RecoveryPending);
        }
        let (leaf, slot) = self.layout().leaf_of(addr);
        let ctr = if self.layout().is_on_chip(leaf) {
            // Degenerate single-leaf tree: counters live in the persistent
            // on-chip register — no cache, no shadowing, no propagation.
            self.top.increment(slot);
            self.top.counter(slot)
        } else {
            self.ensure_node(leaf)?;
            let leaf_addr = self.layout().node_addr(leaf);
            let ctr = {
                let entry = self.cache.peek_mut(leaf_addr).expect("ensured");
                entry.node.increment(slot);
                entry.node.counter(slot)
            };
            let first_mod = self.cache.mark_dirty(leaf_addr);
            self.after_update_hooks(leaf, first_mod)?;
            if self.scheme == SgxScheme::StrictPersist {
                self.strict_propagate(leaf)?;
            }
            if self.scheme == SgxScheme::EagerWriteBack {
                self.eager_propagate(leaf)?;
            }
            ctr
        };
        // Stage the data seal; the crypto itself is deferred to commit
        // time, where the whole group goes through the batch seal path.
        (self.path).stage_sealed(addr, IvCounter::monolithic(ctr), data);
        Ok(())
    }

    type Mirrors = [(u8, Block); 2];

    /// The top node, and the shadow-root register with the dirty-metadata
    /// bit.
    fn reg_mirrors(&self) -> Self::Mirrors {
        let write_back = !matches!(self.scheme, SgxScheme::StrictPersist | SgxScheme::Asit);
        let lost = self.lost_dirty_metadata || (write_back && self.cache.has_dirty());
        let shadow = Block::from_words([self.shadow_root.0, u64::from(lost), 0, 0, 0, 0, 0, 0]);
        [(REG_TOP, self.top.to_block()), (REG_SHADOW, shadow)]
    }

    fn commit(&mut self) -> Result<(), MemError> {
        // Settle the ST writes staged since the last commit: the
        // SHADOW_TREE_ROOT register moves with the group and its mirror
        // rides it, atomic with the ST writes from the hardware's
        // perspective. A power cut mid-drain leaves the group in the
        // persistent REDO registers, replayed at power-up; a group that
        // does not land at all leaves the mirror behind, and the power-on
        // that follows reloads the register from it.
        if let Some(root) = self.shadow_tree.as_mut().and_then(ShadowTree::settle) {
            self.shadow_root = root;
        }
        self.path.commit(&self.reg_mirrors())
    }

    fn flush_metadata(&mut self) -> Result<(), MemError> {
        // Write back every dirty node, deepest levels first so parent
        // counter bumps target still-resident parents coherently.
        loop {
            let next = self
                .cache
                .iter_resident()
                .filter(|(_, _, _, dirty)| *dirty)
                .map(|(_, addr, _, _)| addr)
                .min_by_key(|addr| {
                    self.layout()
                        .node_of_addr(*addr)
                        .map(|n| n.level)
                        .unwrap_or(usize::MAX)
                });
            let Some(addr) = next else { break };
            let node = self.layout().node_of_addr(addr).expect("metadata address");
            self.writeback_node(node)?;
            self.commit()?;
        }
        Ok(())
    }

    /// The root a staged ST write installs at commit belongs to the group.
    /// The dropped group's leaves stay in the volatile tree; settling them
    /// here keeps a later commit that stages nothing from installing a
    /// root for them.
    fn reset_group(&mut self) {
        self.path.reset_group();
        if let Some(tree) = self.shadow_tree.as_mut() {
            tree.settle();
        }
    }

    /// The shadow-tree interior is volatile: ASIT recovery rebuilds it
    /// from the persisted Shadow Table and verifies it against the
    /// loaded register.
    fn power_on_reset(&mut self) {
        self.cache.invalidate_all();
        self.shadow_tree = None;
        self.top = SgxCounterNode::from_block(&self.path.reg(REG_TOP));
        let shadow = self.path.reg(REG_SHADOW);
        self.shadow_root = Root(shadow.word(0));
        self.lost_dirty_metadata = shadow.word(1) != 0;
    }

    fn reset_cache_stats(&mut self) {
        self.cache.reset_stats();
    }

    fn publish_own(&self, t: &Telemetry) {
        publish_cache_stats(t, "metadata", self.cache.stats());
    }

    fn recover_metadata(&mut self, t: &mut RecoveryReport) -> Result<(), RecoveryError> {
        recovery::recover(self, t)
    }

    fn targeted_repair(&mut self, err: &RecoveryError) -> Result<RepairSummary, RecoveryError> {
        Ok(repair::targeted(self, err))
    }

    fn reconcile_metadata(&mut self) -> Result<RepairSummary, RecoveryError> {
        Ok(repair::degrade(self))
    }
}

#[cfg(test)]
mod tests;
