//! The data path every controller family shares.
//!
//! The paper's schemes differ in *metadata policy* — which counter and
//! tree blocks are cached, shadowed and persisted when (§4.2, §4.3). What
//! happens to the data line itself is one mechanism: counter-mode seal
//! with the ECC and MAC words in the line's side block, an atomic commit
//! group through the persistent registers into the WPQ, verify-on-read.
//! [`DataPath`] is that mechanism, once; a controller embeds it and
//! supplies only the [`Policy`] hooks. A scheme *is* its policy: the
//! public [`MemoryController`] and [`Supervised`] surfaces are one
//! blanket implementation each over those hooks, at the end of this
//! module, and the recovery skeleton is `crate::recovery::run`.

use crate::cost::{CostAccum, OpCost};
use crate::error::{freshness_hint, MemError, RecoveryError};
use crate::layout::{DataAddr, Layout};
use crate::recovery::RecoveryReport;
use crate::supervisor::{RepairSummary, Supervised};
use crate::MemoryController;
use anubis_crypto::otp::IvCounter;
use anubis_crypto::{CryptoError, DataCodec, Key, SealedBlock};
use anubis_nvm::{Block, BlockAddr, Freshness, NvmBackend, PersistenceDomain, WriteOp};
use anubis_telemetry::Telemetry;

/// Pending-op watermark at which `write_batch` flushes its accumulated
/// commit group. One write stages at most a handful of ops (data + side +
/// counters + an eager tree path), so flushing here keeps the group
/// safely inside the persist queue's `PREG_CAPACITY` of 64.
const GROUP_FLUSH_WATERMARK: usize = 24;

/// One data line as the data path sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Line {
    /// Device address of the ciphertext block.
    pub(crate) dev: BlockAddr,
    /// Device address of the side block (word 0 = ECC, word 1 = MAC).
    pub(crate) side: BlockAddr,
    /// The IV the line's counter currently yields; `None` for a
    /// never-written line, which has no counter to verify against and
    /// must still be in the all-zero state.
    pub(crate) iv: Option<IvCounter>,
}

/// The side-block image of a sealed line.
#[inline]
pub(crate) fn side_block(sealed: &SealedBlock) -> Block {
    let mut side = Block::zeroed();
    side.set_word(0, sealed.ecc);
    side.set_word(1, sealed.mac);
    side
}

/// Reassembles a sealed line from its ciphertext and side block.
#[inline]
pub(crate) fn sealed_block(ciphertext: Block, side: &Block) -> SealedBlock {
    SealedBlock {
        ciphertext,
        ecc: side.word(0),
        mac: side.word(1),
    }
}

/// Everything both controller families own identically: the memory
/// layout and the persistence domain over it, the data codec, the
/// staged commit group, cost accounting and the common telemetry.
#[derive(Clone, Debug)]
pub(crate) struct DataPath<B: NvmBackend> {
    pub(crate) layout: Layout,
    pub(crate) domain: PersistenceDomain<B>,
    pub(crate) codec: DataCodec,
    /// The commit group being staged.
    pending: Vec<WriteOp>,
    /// Cost of the operation in flight (or the last one completed).
    pub(crate) cost: OpCost,
    pub(crate) totals: CostAccum,
    /// Words repaired by the SEC-DED decoder on the data read path.
    pub(crate) ecc_corrections: u64,
    pub(crate) telemetry: Telemetry,
    /// A fresh controller's register mirrors: what a power-on loads for
    /// a register the image holds no mirror of.
    pub(crate) fresh_regs: Vec<(u8, Block)>,
}

impl<B: NvmBackend> DataPath<B> {
    /// The data path over `backend`, laid out as `layout`: a domain of
    /// the layout's size that attributes accesses to its regions and
    /// remaps retired blocks into its spare pool.
    pub(crate) fn new(layout: Layout, key: Key, backend: B) -> Self {
        let mut domain = PersistenceDomain::with_backend(layout.device_bytes(), backend);
        let device = domain.device_mut();
        device.register_regions(layout.regions().clone());
        device.install_spare_pool(layout.spare_pool());
        DataPath {
            layout,
            domain,
            codec: DataCodec::new(key),
            pending: Vec::new(),
            cost: OpCost::zero(),
            totals: CostAccum::default(),
            ecc_corrections: 0,
            telemetry: Telemetry::global(),
            fresh_regs: Vec::new(),
        }
    }

    /// The image of register `idx` a power-on loads: its mirror in the
    /// domain, or a fresh controller's when the image holds none.
    pub(crate) fn reg(&self, idx: u8) -> Block {
        let fresh = || self.fresh_regs.iter().find(|r| r.0 == idx).map(|r| r.1);
        self.domain.reg(idx).or_else(fresh).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Cost-counted primitives
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn nvm_read(&mut self, addr: BlockAddr) -> Result<Block, MemError> {
        self.cost.nvm_reads += 1;
        self.read_through(addr)
    }

    /// Reads a block without charging the timing model (side blocks ride
    /// the same DIMM transfer as their data block).
    #[inline]
    pub(crate) fn nvm_read_free(&mut self, addr: BlockAddr) -> Result<Block, MemError> {
        self.read_through(addr)
    }

    /// Store-to-load forwarding: the controller must observe writes it has
    /// staged for the current commit group but not yet pushed to the WPQ
    /// (e.g. a dirty tree node evicted and re-fetched within one op).
    #[inline]
    fn read_through(&mut self, addr: BlockAddr) -> Result<Block, MemError> {
        if let Some(op) = self.pending.iter().rev().find(|op| op.addr == addr) {
            return Ok(op.block);
        }
        Ok(self.domain.read(addr)?)
    }

    pub(crate) fn stage(&mut self, addr: BlockAddr, block: Block) {
        self.cost.nvm_writes += 1;
        self.pending.push(WriteOp::new(addr, block));
    }

    /// Data line `addr` under `iv` (`None`: never written).
    #[inline]
    pub(crate) fn line(&self, addr: DataAddr, iv: Option<IvCounter>) -> Line {
        Line {
            dev: self.layout.data_addr(addr),
            side: self.layout.side_addr(addr),
            iv,
        }
    }

    /// Seals data line `addr` under `iv` and stages its ciphertext and
    /// side block in the current commit group.
    pub(crate) fn stage_sealed(&mut self, addr: DataAddr, iv: IvCounter, data: Block) {
        self.cost.hash_ops += 2; // pad + MAC
        let dev = self.layout.data_addr(addr);
        let sealed = self.codec.seal(dev, iv, &data);
        self.stage(dev, sealed.ciphertext);
        // The side block rides the data block's transfer: not charged.
        let side = self.layout.side_addr(addr);
        self.pending.push(WriteOp::new(side, side_block(&sealed)));
    }

    /// Commits the staged group atomically with `regs`, the backend
    /// mirrors of the family's on-chip persistent registers. The group is
    /// empty afterwards whatever the outcome: a group the domain refused
    /// or lost to a power cut is not retried.
    ///
    /// What the registers hold, and what happens to them once the group
    /// has landed, is policy — so the controller's own `commit` builds
    /// `regs` and wraps this call.
    pub(crate) fn commit(&mut self, regs: &[(u8, Block)]) -> Result<(), MemError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        Ok(self
            .domain
            .commit_group_with_regs(self.pending.drain(..), regs)?)
    }

    /// Drops the group being staged.
    pub(crate) fn reset_group(&mut self) {
        self.pending.clear();
    }

    pub(crate) fn reset_costs(&mut self) {
        self.totals.reset();
        self.domain.device_mut().reset_stats();
    }

    // ------------------------------------------------------------------
    // Line open / repair
    // ------------------------------------------------------------------

    /// The shared tail of a read: fetches the line and verifies it —
    /// against the all-zero state if it was never written, otherwise by
    /// decrypting under its IV with ECC correction and the MAC check.
    ///
    /// Inlined into `read` (like the other `#[inline]` items here): a
    /// `Result<Block, _>` crossing a call boundary is a 70-byte copy, and
    /// a read that hits the counter cache is short enough to feel each
    /// one.
    #[inline]
    fn open_line(&mut self, line: Line) -> Result<Block, MemError> {
        let stored = self.nvm_read(line.dev)?;
        let side = self.nvm_read_free(line.side)?;
        let Some(iv) = line.iv else {
            return if stored.is_zeroed() && side.is_zeroed() {
                Ok(Block::zeroed())
            } else {
                Err(MemError::Crypto(CryptoError::DataMacMismatch))
            };
        };
        self.cost.hash_ops += 2; // pad + MAC verify
        let sealed = sealed_block(stored, &side);
        let (plaintext, fixed) = self.codec.open_correcting(line.dev, iv, &sealed)?;
        self.ecc_corrections += u64::from(fixed);
        Ok(plaintext)
    }

    /// Seals `plaintext` under `iv` straight onto the device, outside any
    /// commit group (degraded-mode repair runs with the caches down).
    fn reseal_in_place(&mut self, line: Line, iv: IvCounter, plaintext: &Block) {
        let resealed = self.codec.seal(line.dev, iv, plaintext);
        let device = self.domain.device_mut();
        device.write(line.dev, resealed.ciphertext);
        device.write(line.side, side_block(&resealed));
    }

    /// Per-line repair rung: re-opens the line through the ECC-correcting
    /// decoder and reseals it when correction moved any words. Returns
    /// the number of corrected words.
    pub(crate) fn repair_line(&mut self, line: Line) -> Result<u32, RecoveryError> {
        let ciphertext = self.domain.device_mut().read(line.dev);
        let side = self.domain.device_mut().read(line.side);
        let lost = RecoveryError::CounterNotRecovered { addr: line.dev };
        let Some(iv) = line.iv else {
            // Zero state: clean media is all-zero; anything else cannot
            // be opened (there is no counter to verify against).
            return if ciphertext.is_zeroed() && side.is_zeroed() {
                Ok(0)
            } else {
                Err(lost)
            };
        };
        let sealed = sealed_block(ciphertext, &side);
        let Ok((plaintext, fixed)) = self.codec.open_correcting(line.dev, iv, &sealed) else {
            return Err(lost);
        };
        if fixed > 0 {
            self.reseal_in_place(line, iv, &plaintext);
            self.ecc_corrections += u64::from(fixed);
        }
        Ok(fixed)
    }

    /// Quarantine rung: retires the line's backing block into the spare
    /// region. A line that held content stays readable as an explicit
    /// zero under its current counter (the counter itself is untouched,
    /// so tree digests and node MACs remain valid) and is counted lost.
    /// A line under a never-written counter is zeroed, and counted lost
    /// when its data or side block held anything. Returns whether
    /// committed content was lost. When `counter_trusted` is false the
    /// counter failed its own check, so its bits do not say the line was
    /// written: only content at rest counts.
    ///
    /// A line retired in place (the spare pool used up) gets its zero in
    /// its own cells, where it reads as data unless the remap entry marks
    /// it: the table is persisted first, so a cut between the two never
    /// leaves the zero without its entry.
    pub(crate) fn quarantine_line(&mut self, line: Line, counter_trusted: bool) -> bool {
        let device = self.domain.device();
        let at_rest = |a| device.peek(device.quarantine_table().resolve(a));
        let lost = (counter_trusted && line.iv.is_some())
            || !at_rest(line.dev).is_zeroed()
            || !at_rest(line.side).is_zeroed();
        if self.domain.device_mut().quarantine_block(line.dev) == Some(line.dev) {
            self.persist_quarantine();
        }
        match line.iv {
            Some(iv) => self.reseal_in_place(line, iv, &Block::zeroed()),
            None => {
                self.domain.device_mut().write(line.dev, Block::zeroed());
                self.domain.device_mut().write(line.side, Block::zeroed());
            }
        }
        if lost {
            self.domain.device_mut().record_lost_lines(1);
        }
        lost
    }

    // ------------------------------------------------------------------
    // Quarantine table
    // ------------------------------------------------------------------

    /// Persists the device's bad-block remap table into its region.
    pub(crate) fn persist_quarantine(&mut self) {
        let blocks = self.domain.device().quarantine_table_blocks();
        for (addr, block) in self.layout.qtable().iter().zip(blocks) {
            self.domain.device_mut().write(addr, block);
        }
    }

    /// Replaces the bad-block remap table with the one persisted in the
    /// qtable region; returns the corrupt-image hint on parse failure,
    /// leaving the table empty.
    fn reload_quarantine_table(&mut self) -> Option<RecoveryError> {
        let blocks: Vec<Block> = (self.layout.qtable().iter())
            .map(|addr| self.domain.device().peek(addr))
            .collect();
        self.domain
            .device_mut()
            .load_quarantine_table(&blocks)
            .err()
            .map(|_| RecoveryError::CorruptImage {
                what: "quarantine table",
            })
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Publishes the metrics every scheme reports under the same names,
    /// so a new one is added here once; `shadow_table_writes_total` sums
    /// the layout's shadow tables. Returns the registry handle for the
    /// family's own rows, or `None` when telemetry is off.
    pub(crate) fn publish_telemetry(&self, scheme: &'static str) -> Option<&Telemetry> {
        let t = &self.telemetry;
        if !t.enabled() {
            return None;
        }
        let dev = self.domain.device().stats().snapshot();
        t.counter_set("nvm_reads_total", scheme, dev.reads);
        t.counter_set("nvm_writes_total", scheme, dev.writes);
        t.counter_set(
            "nvm_max_writes_to_one_block",
            scheme,
            dev.max_writes_to_one_block,
        );
        for (region, n) in &dev.writes_by_region {
            t.counter_set("nvm_region_writes_total", region, *n);
        }
        let shadow = dev
            .writes_by_region
            .iter()
            .filter(|(r, _)| self.layout.is_shadow(r))
            .map(|(_, n)| *n)
            .sum::<u64>();
        t.counter_set("shadow_table_writes_total", scheme, shadow);
        t.counter_set("persist_writes_total", scheme, self.domain.persist_writes());
        // Groups per frame is the coalescing an op-scoped barrier buys;
        // frames per acknowledged op should read at most 1.
        t.counter_set("commit_groups_total", scheme, self.domain.commits());
        t.counter_set("wal_frames_total", scheme, self.domain.epoch());
        // The log's logical end, not the file's length: the file is kept
        // longer than the log by `wal_slack_bytes` of preallocated zeros.
        let backend = self.domain.device().backend();
        let wal = backend.wal_stats();
        t.gauge_set("wal_log_bytes", scheme, wal.log_bytes as f64);
        t.gauge_set("wal_slack_bytes", scheme, wal.slack_bytes as f64);
        t.counter_set("wal_records_coalesced_total", scheme, wal.records_coalesced);
        t.counter_set("wal_rejected_total", scheme, backend.frames_rejected());
        t.counter_set("ecc_corrections_total", scheme, self.ecc_corrections);
        let quarantine = self.domain.device().quarantine_table();
        t.gauge_set("quarantined_blocks", scheme, quarantine.len() as f64);
        t.gauge_set(
            "quarantine_spares_left",
            scheme,
            quarantine.spares_left() as f64,
        );
        t.counter_set(
            "quarantine_lost_lines_total",
            scheme,
            quarantine.lost_lines(),
        );
        t.gauge_set("wpq_occupancy", scheme, self.domain.wpq_occupancy() as f64);
        t.gauge_set("wpq_capacity", scheme, self.domain.wpq_capacity() as f64);
        let rolled_back = matches!(self.domain.freshness(), Freshness::RolledBack { .. });
        t.counter_set("rollback_detected_total", scheme, rolled_back as u64);
        Some(t)
    }
}

/// Publishes one metadata cache's rows under `label`.
pub(crate) fn publish_cache_stats(t: &Telemetry, label: &str, stats: &anubis_cache::CacheStats) {
    t.counter_set("cache_hits_total", label, stats.hits);
    t.counter_set("cache_misses_total", label, stats.misses);
    if let Some(rate) = stats.hit_rate() {
        t.gauge_set("cache_hit_rate", label, rate);
    }
}

// ----------------------------------------------------------------------
// A scheme is its policy: the public surface, once, over its hooks
// ----------------------------------------------------------------------

/// What a scheme supplies on top of the shared data path: where a line's
/// counter lives and how it advances, which on-chip registers it keeps
/// and how they are mirrored, and how the scheme recovers and repairs.
/// [`MemoryController`], [`Supervised`] and the recovery skeleton are
/// implemented once over these hooks — statically dispatched: the
/// in-process call is a few microseconds and stays monomorphised.
pub(crate) trait Policy: Backed {
    fn path(&self) -> &DataPath<Self::Backend>;

    fn path_mut(&mut self) -> &mut DataPath<Self::Backend>;

    /// Scheme name for reports and telemetry labels.
    fn name(&self) -> &'static str;

    /// Brings the line's counter in verified (fetching and checking the
    /// metadata path as the scheme requires) and resolves the line.
    fn line_iv(&mut self, addr: DataAddr) -> Result<Line, MemError>;

    /// Resolves the line under its counter as it stands, unverified: the
    /// repair rungs run with the metadata suspect.
    fn unverified_line(&mut self, addr: DataAddr) -> Line;

    /// Body of one logical write: counter maintenance, the data seal and
    /// the scheme's tree update. The caller owns the group reset, the
    /// final commit and the cost recording, so scalar `write` and grouped
    /// `write_batch` share it.
    fn write_inner(&mut self, addr: DataAddr, data: Block) -> Result<(), MemError>;

    /// The register mirrors' type: a fixed list of `(slot, image)`.
    type Mirrors: AsRef<[(u8, Block)]> + PartialEq;

    /// Backend mirrors of the scheme's on-chip persistent registers: what
    /// rides each commit group, and what [`Policy::power_on_reset`]
    /// loads the registers from.
    fn reg_mirrors(&self) -> Self::Mirrors;

    /// Commits the staged group with the scheme's register mirrors.
    fn commit(&mut self) -> Result<(), MemError> {
        let regs = self.reg_mirrors();
        self.path_mut().commit(regs.as_ref())
    }

    /// Stages (and commits as it goes, if it must) every dirty metadata
    /// block for an orderly shutdown.
    fn flush_metadata(&mut self) -> Result<(), MemError>;

    /// Drops the group being staged, with whatever scheme state is
    /// scoped to it.
    fn reset_group(&mut self) {
        self.path_mut().reset_group();
    }

    /// The scheme's share of [`power_on`]: empty metadata caches, no
    /// shadow interior, and every on-chip register loaded from its mirror
    /// ([`DataPath::reg`]).
    fn power_on_reset(&mut self);

    /// Resets the scheme's own metadata-cache statistics.
    fn reset_cache_stats(&mut self);

    /// Publishes the scheme's own telemetry rows beside the common ones.
    fn publish_own(&self, t: &Telemetry);

    /// The scheme's recovery algorithm, run after power-up; tallies its
    /// work into `t`.
    fn recover_metadata(&mut self, t: &mut RecoveryReport) -> Result<(), RecoveryError>;

    /// See [`Supervised::targeted_repair`].
    fn targeted_repair(&mut self, err: &RecoveryError) -> Result<RepairSummary, RecoveryError>;

    /// See [`Supervised::reconcile_metadata`].
    fn reconcile_metadata(&mut self) -> Result<RepairSummary, RecoveryError>;
}

/// The storage backend a scheme's data path persists through. It is a
/// trait of its own, public in this private module, because the public
/// surface below names it (`MemoryController::Backend`), which a
/// crate-private trait's type may not be.
pub trait Backed {
    /// The backend of the scheme's persistence domain.
    type Backend: NvmBackend;
}

#[inline]
fn validate(addr: DataAddr, capacity_blocks: u64) -> Result<(), MemError> {
    if addr.index() < capacity_blocks {
        Ok(())
    } else {
        Err(MemError::OutOfRange {
            addr,
            capacity_blocks,
        })
    }
}

/// The state every controller is in the instant power comes on over its
/// image: no staged group, empty caches, the on-chip registers loaded
/// from their mirrors, the bad-block table reloaded from its region. This
/// is the one definition of what a power cut keeps — a reopen runs it
/// over a freshly assembled controller, [`MemoryController::crash`] right
/// after `power_fail` — so everything outside the persistence domain is
/// rebuilt from what is inside it. Returns the corrupt-image hint of the
/// quarantine table.
fn power_on<P: Policy>(c: &mut P) -> Option<RecoveryError> {
    c.reset_group();
    c.power_on_reset();
    c.path_mut().reload_quarantine_table()
}

/// A controller assembled over an existing image, powered on: the
/// families' `reopen`. The second element is the freshness or
/// corruption hint for [`crate::supervisor::resume`].
pub(crate) fn reopened<P: Policy>(mut c: P) -> (P, Option<RecoveryError>) {
    let table = power_on(&mut c);
    let hint = freshness_hint(c.path().domain.freshness()).or(table);
    (c, hint)
}

/// Runs `rung` — a step that may move an on-chip register in place,
/// outside any commit group — and, if it moved one, stores the register
/// mirrors: they then reach the backend with the rung's own writes, at
/// its barrier, and a power-on loads the registers the rung left. A rung
/// that moved nothing leaves the image as it was. Its callers are the two
/// degraded-mode repair rungs, [`Supervised::targeted_repair`] and
/// [`Supervised::reconcile_metadata`] (Bonsai re-anchors its root, SGX
/// resets `SHADOW_TREE_ROOT` with the table), and ASIT's
/// `debug_refresh_shadow_root_from_nvm` hook.
pub(crate) fn mirrored<P: Policy, T>(c: &mut P, rung: impl FnOnce(&mut P) -> T) -> T {
    let before = c.reg_mirrors();
    let out = rung(c);
    let after = c.reg_mirrors();
    if after != before {
        let device = c.path_mut().domain.device_mut();
        for &(idx, block) in after.as_ref() {
            device.set_reg(idx, block);
        }
    }
    out
}

fn begin_op<C: Policy>(c: &mut C) {
    c.path_mut().cost = OpCost::zero();
    c.reset_group();
}

fn record_op<C: Policy>(c: &mut C, is_write: bool) {
    let path = c.path_mut();
    path.totals.record(is_write, path.cost);
}

/// The durable half of a fused public operation. `body` is the execute
/// half — one of the `*_deferred` operations: it stages, commits groups
/// and leaves their records in the backend's pending frame — and this
/// closes it with the operation's single durability barrier, on every
/// exit: all commit groups the op produced — on an error, the ones it
/// completed before failing, which the in-process persistent domain
/// already holds — land in one backend frame, and the caller acknowledges
/// only after this returns. The op's own error wins over a barrier
/// failure.
///
/// This is the only place the two halves are joined, for every scheme.
/// A caller that wants them apart (a server sharing one barrier between
/// several operations) runs the deferred half alone and takes the
/// barrier itself; what it must then guarantee is on
/// [`MemoryController::read_deferred`].
#[inline]
fn fused<C: Policy, T>(
    c: &mut C,
    body: impl FnOnce(&mut C) -> Result<T, MemError>,
) -> Result<T, MemError> {
    let result = body(c);
    let flushed = c.path_mut().domain.barrier();
    let value = result?;
    flushed?;
    Ok(value)
}

impl<P: Policy> MemoryController for P {
    type Backend = P::Backend;

    fn scheme_name(&self) -> &'static str {
        self.name()
    }

    fn read(&mut self, addr: DataAddr) -> Result<Block, MemError> {
        fused(self, |c| c.read_deferred(addr))
    }

    fn write(&mut self, addr: DataAddr, data: Block) -> Result<(), MemError> {
        fused(self, |c| c.write_deferred(addr, data))
    }

    fn write_batch(&mut self, items: &[(DataAddr, Block)]) -> Result<(), MemError> {
        fused(self, |c| c.write_batch_deferred(items))
    }

    #[inline]
    fn read_deferred(&mut self, addr: DataAddr) -> Result<Block, MemError> {
        validate(addr, self.path().layout.data_blocks())?;
        begin_op(self);
        let opened = self
            .line_iv(addr)
            .and_then(|line| self.path_mut().open_line(line));
        // Persist the shadow/eviction traffic of the fills even when the
        // line or its counter chain is refused: the cache has already let
        // the victims go and their parents' counters have moved, so this
        // group is the only copy.
        let committed = self.commit();
        let value = opened?;
        committed?;
        record_op(self, false);
        Ok(value)
    }

    #[inline]
    fn write_deferred(&mut self, addr: DataAddr, data: Block) -> Result<(), MemError> {
        validate(addr, self.path().layout.data_blocks())?;
        begin_op(self);
        self.write_inner(addr, data)?;
        self.commit()?;
        record_op(self, true);
        Ok(())
    }

    #[inline]
    fn write_batch_deferred(&mut self, items: &[(DataAddr, Block)]) -> Result<(), MemError> {
        for (addr, _) in items {
            validate(*addr, self.path().layout.data_blocks())?;
        }
        begin_op(self);
        for (addr, data) in items {
            self.path_mut().cost = OpCost::zero();
            self.write_inner(*addr, *data)?;
            if self.path().pending.len() >= GROUP_FLUSH_WATERMARK {
                self.commit()?;
            }
            record_op(self, true);
        }
        self.commit()
    }

    fn crash(&mut self) {
        self.path_mut().domain.power_fail();
        power_on(self);
    }

    fn recover(&mut self) -> Result<RecoveryReport, RecoveryError> {
        crate::recovery::run(self)
    }

    fn shutdown_flush(&mut self) -> Result<(), MemError> {
        fused(self, |c| {
            begin_op(c);
            c.flush_metadata()?;
            c.commit()?;
            c.path_mut().domain.drain_wpq();
            Ok(())
        })
    }

    fn domain(&self) -> &PersistenceDomain<P::Backend> {
        &self.path().domain
    }

    fn domain_mut(&mut self) -> &mut PersistenceDomain<P::Backend> {
        &mut self.path_mut().domain
    }

    fn last_cost(&self) -> OpCost {
        self.path().cost
    }

    fn total_cost(&self) -> &CostAccum {
        &self.path().totals
    }

    fn reset_costs(&mut self) {
        self.path_mut().reset_costs();
        self.reset_cache_stats();
    }

    fn ecc_corrections(&self) -> u64 {
        self.path().ecc_corrections
    }

    fn set_telemetry(&mut self, t: Telemetry) {
        self.path_mut().telemetry = t;
    }

    fn publish_telemetry(&self) {
        if let Some(t) = self.path().publish_telemetry(self.name()) {
            self.publish_own(t);
        }
    }
}

impl<P: Policy> Supervised for P {
    fn data_lines(&self) -> u64 {
        self.path().layout.data_blocks()
    }

    fn data_block(&self, addr: DataAddr) -> BlockAddr {
        self.path().layout.data_addr(addr)
    }

    fn repair_line(&mut self, addr: DataAddr) -> Result<u32, RecoveryError> {
        let line = self.unverified_line(addr);
        self.path_mut().repair_line(line)
    }

    fn quarantine_line(&mut self, addr: DataAddr) -> Result<bool, RecoveryError> {
        let line = self.unverified_line(addr);
        Ok(self.path_mut().quarantine_line(line, true))
    }

    fn targeted_repair(&mut self, err: &RecoveryError) -> Result<RepairSummary, RecoveryError> {
        mirrored(self, |c| Policy::targeted_repair(c, err))
    }

    fn reconcile_metadata(&mut self) -> Result<RepairSummary, RecoveryError> {
        mirrored(self, Policy::reconcile_metadata)
    }

    fn persist_quarantine(&mut self) {
        self.path_mut().persist_quarantine();
    }

    fn is_line_quarantined(&self, addr: DataAddr) -> bool {
        self.path()
            .domain
            .device()
            .is_quarantined(self.data_block(addr))
    }

    fn telemetry(&self) -> &Telemetry {
        &self.path().telemetry
    }
}

#[cfg(test)]
mod tests;
