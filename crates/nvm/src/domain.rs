//! The persistence domain: device + WPQ + persistent registers.

use crate::addr::BlockAddr;
use crate::backend::{MemBackend, NvmBackend};
use crate::block::Block;
use crate::device::NvmDevice;
use crate::error::NvmError;
use crate::fault::{tear_block, FaultKind, FaultPlan};
use crate::pregs::{PersistentRegisters, PREG_CAPACITY};
use crate::wpq::Wpq;

/// One block write destined for NVM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOp {
    /// Destination block address.
    pub addr: BlockAddr,
    /// Block contents to persist.
    pub block: Block,
}

impl WriteOp {
    /// Creates a write operation.
    pub fn new(addr: BlockAddr, block: Block) -> Self {
        WriteOp { addr, block }
    }
}

/// The persistent side of the memory controller.
///
/// Every memory-controller scheme in the `anubis` crate performs its NVM
/// updates through [`PersistenceDomain::commit_group`], which implements
/// the paper's two-stage persistent-register commit (§2.7): the whole group
/// becomes persistent atomically or not at all, regardless of where a crash
/// lands.
///
/// Two durability points, on purpose. Against a *simulated* power
/// failure a group is persistent the moment it is drained (ADR covers the
/// WPQ), exactly as in the paper. Against *process death* over a durable
/// backend, groups only journal; [`PersistenceDomain::barrier`] makes
/// every group journaled so far durable as one backend frame, and the
/// controllers call it once at the end of each fused public operation —
/// the only point at which durability is observable from outside the
/// process (a caller of the controllers' deferred operations takes the
/// barrier itself, through the backend's `cut` / `commit` halves). A
/// frame therefore holds a whole number of commit groups in commit
/// order, and a reopened image is always a group-prefix of history that
/// contains every acknowledged operation.
///
/// Crash injection: call [`PersistenceDomain::power_fail`] at any point;
/// the WPQ is flushed by ADR, in-flight staged groups are lost, and any
/// group caught mid-drain is REDOne by [`PersistenceDomain::power_up`].
#[derive(Clone, Debug)]
pub struct PersistenceDomain<B: NvmBackend = MemBackend> {
    device: NvmDevice<B>,
    wpq: Wpq,
    pregs: PersistentRegisters,
    powered: bool,
    commits: u64,
    /// Lifetime count of device-level writes drained through the commit
    /// path — the index space over which [`FaultPlan`]s trigger.
    persist_writes: u64,
    fault: Option<FaultPlan>,
    fault_fired: Option<FaultKind>,
    /// A group whose REDO a write cut interrupted: it stays for the next
    /// [`PersistenceDomain::power_up`] to replay first.
    redo: Vec<WriteOp>,
}

impl PersistenceDomain<MemBackend> {
    /// Creates a powered-up domain over a fresh in-memory device of
    /// `capacity_bytes` bytes with a default-sized WPQ.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::with_device(NvmDevice::new(capacity_bytes))
    }
}

impl<B: NvmBackend> PersistenceDomain<B> {
    /// Creates a powered-up domain of `capacity_bytes` bytes over an
    /// existing storage backend (e.g. a reopened file image).
    pub fn with_backend(capacity_bytes: u64, backend: B) -> Self {
        Self::with_device(NvmDevice::with_backend(capacity_bytes, backend))
    }

    /// Creates a powered-up domain over an existing device (e.g. one with a
    /// prepared memory image).
    pub fn with_device(device: NvmDevice<B>) -> Self {
        PersistenceDomain {
            device,
            wpq: Wpq::default(),
            pregs: PersistentRegisters::new(),
            powered: true,
            commits: 0,
            persist_writes: 0,
            fault: None,
            fault_fired: None,
            redo: Vec::new(),
        }
    }

    /// The underlying device (contents, statistics, tamper API).
    pub fn device(&self) -> &NvmDevice<B> {
        &self.device
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut NvmDevice<B> {
        &mut self.device
    }

    /// Loads a persistent-register image.
    pub fn reg(&self, idx: u8) -> Option<Block> {
        self.device.reg(idx)
    }

    /// The backend's ordered durability point (no-op in memory): every
    /// commit group journaled since the previous barrier, its register
    /// mirrors, and any direct device writes land in **one** checksummed
    /// frame, one epoch bump, one fsync and one anchor seal. Controllers
    /// end every public operation with it, so an operation is acknowledged
    /// iff this call returned `Ok`, and a kill before it returns drops the
    /// operation's groups together.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] when the storage medium fails.
    pub fn barrier(&mut self) -> Result<(), NvmError> {
        self.device.flush_backend()
    }

    /// Number of commit groups completed since power-up.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Current write-pending-queue occupancy (entries held under ADR),
    /// exposed for the observability layer's `wpq_occupancy` gauge.
    pub fn wpq_occupancy(&self) -> usize {
        self.wpq.len()
    }

    /// The WPQ's capacity in entries.
    pub fn wpq_capacity(&self) -> usize {
        self.wpq.capacity()
    }

    /// Lifetime count of device-level writes drained through
    /// [`PersistenceDomain::commit_group`]. Fault plans trigger on indices
    /// in this space, so a harness can dry-run a workload, read this
    /// counter, and then sweep a fault over every index.
    pub fn persist_writes(&self) -> u64 {
        self.persist_writes
    }

    /// Arms a one-shot fault plan, replacing any armed plan. The plan fires
    /// when the counted write index reaches
    /// [`FaultPlan::trigger_index`]; see [`crate::FaultKind`] for the
    /// effect of each fault class.
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The fault that fired, if one has.
    pub fn fault_fired(&self) -> Option<&FaultKind> {
        self.fault_fired.as_ref()
    }

    /// Reads a block, observing pending WPQ writes (the controller must see
    /// its own queued stores).
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::PoweredOff`] if the domain is powered off, or
    /// [`NvmError::OutOfRange`] for addresses beyond capacity.
    pub fn read(&self, addr: BlockAddr) -> Result<Block, NvmError> {
        if !self.powered {
            return Err(NvmError::PoweredOff);
        }
        if let Some(b) = self.wpq.pending(addr) {
            // Still count it as a device access for the stats: a real
            // forwarding hit is cheaper, but the timing model charges for
            // that separately.
            self.device.stats_read_only(addr);
            return Ok(b);
        }
        self.device.try_read(addr)
    }

    /// Atomically persists a group of writes via the two-stage commit.
    ///
    /// On return the entire group is in the persistent domain (registers
    /// drained into the WPQ). A crash injected *before* this call loses the
    /// group; a crash injected *after* keeps it — there is no partial state.
    ///
    /// The group is journaled to the backend but **not** flushed: it
    /// survives process death once the caller's next
    /// [`PersistenceDomain::barrier`] returns (fault-injected power cuts
    /// and [`PersistenceDomain::power_fail`] flush on their own).
    ///
    /// # Errors
    ///
    /// * [`NvmError::PoweredOff`] if the domain is powered off.
    /// * [`NvmError::CommitGroupTooLarge`] if the group exceeds
    ///   [`PREG_CAPACITY`]; nothing is persisted in that case.
    pub fn commit_group<I>(&mut self, ops: I) -> Result<(), NvmError>
    where
        I: IntoIterator<Item = WriteOp>,
    {
        self.commit_group_with_regs(ops, &[])
    }

    /// [`PersistenceDomain::commit_group`] plus persistent-register
    /// mirrors made durable **atomically with the group**: the register
    /// images are staged after group validation and journaled right
    /// before the group's writes, so both land in the same backend frame
    /// and a reopened image never pairs a committed group with stale
    /// registers (or vice versa).
    ///
    /// # Errors
    ///
    /// As [`PersistenceDomain::commit_group`]; on
    /// [`NvmError::CommitGroupTooLarge`] neither the group nor the
    /// register mirrors are persisted.
    pub fn commit_group_with_regs<I>(
        &mut self,
        ops: I,
        regs: &[(u8, Block)],
    ) -> Result<(), NvmError>
    where
        I: IntoIterator<Item = WriteOp>,
    {
        if !self.powered {
            return Err(NvmError::PoweredOff);
        }
        // Stage.
        let mut staged = 0usize;
        for op in ops {
            if !self.pregs.stage(op) {
                // Roll the oversized group back out of the registers.
                let _ = self.pregs.survive_crash_discard_staging();
                return Err(NvmError::CommitGroupTooLarge {
                    group_len: staged + 1,
                    capacity: PREG_CAPACITY,
                });
            }
            staged += 1;
        }
        // The group is valid: the register mirrors now belong to the same
        // durability unit (same barrier frame) as the group itself.
        for &(idx, block) in regs {
            self.device.set_reg(idx, block);
        }
        if staged == 0 {
            return Ok(());
        }
        // Commit: set DONE_BIT then drain into the WPQ. Each drained entry
        // is one counted device-level write — the granularity at which
        // armed faults fire.
        self.pregs.set_done();
        while let Some(mut op) = self.pregs.next_to_drain() {
            if let Some(plan) = &self.fault {
                if plan.trigger_index() == self.persist_writes {
                    let kind = self.fault.take().expect("plan present").into_kind();
                    self.fault_fired = Some(kind.clone());
                    match kind {
                        FaultKind::PowerCut => {
                            // The triggering write never reaches the WPQ.
                            // ADR flushes what the WPQ holds; the group
                            // stays in the persistent registers with
                            // DONE_BIT set and is REDOne at power_up.
                            self.wpq.flush(&mut self.device);
                            self.powered = false;
                            let _ = self.device.flush_backend();
                            return Err(NvmError::PowerLost);
                        }
                        FaultKind::TornWrite { words } => {
                            // The write tears inside the device and the
                            // registers lose the rest of the group: this is
                            // the fault class two-stage commit cannot mask,
                            // so recovery must *detect* it.
                            let old = self.device.peek(op.addr);
                            let torn = tear_block(&old, &op.block, words);
                            self.persist_writes += 1;
                            self.device.try_write(op.addr, torn)?;
                            self.pregs.torn_discard();
                            self.wpq.flush(&mut self.device);
                            self.powered = false;
                            let _ = self.device.flush_backend();
                            return Err(NvmError::PowerLost);
                        }
                        FaultKind::BitFlip { bits } => {
                            // The write lands corrupted; execution
                            // continues and detection is deferred to the
                            // ECC / MAC / tree layers.
                            for bit in bits {
                                op.block.flip_bit(bit);
                            }
                        }
                    }
                }
            }
            self.persist_writes += 1;
            // The write is now in the persistent domain even though it may
            // sit in the WPQ for a while: journal it so durable backends
            // replay it after a restart.
            self.device.journal_write(op.addr, op.block);
            self.wpq.insert(op, &mut self.device);
        }
        self.commits += 1;
        // No backend flush here: the group is journaled, and the caller's
        // op-closing `barrier` lands it — with every other group of the
        // same operation — in one frame.
        Ok(())
    }

    /// Simulates a power failure: ADR flushes the WPQ to the device, a
    /// staging group is lost, a draining group survives in the NVM-backed
    /// registers. All volatile state above this domain (caches!) must be
    /// discarded by the caller.
    pub fn power_fail(&mut self) {
        self.wpq.flush(&mut self.device);
        self.powered = false;
        // ADR residual energy also covers the backend flush; best-effort
        // by design — a failing medium during power-down has no error
        // path on real hardware either.
        let _ = self.device.flush_backend();
        // Note: pregs keep their state; semantics resolve at power_up.
    }

    /// Restores power and REDOes any commit group that was caught
    /// mid-drain, completing the paper's recovery precondition. Returns the
    /// number of redone writes.
    ///
    /// The REDO is itself a run of device writes, so power can die inside
    /// it too (an armed write cut): the group is then kept until a
    /// power-up replays it whole, ahead of any group drained since.
    pub fn power_up(&mut self) -> usize {
        self.powered = true;
        self.redo.extend(self.pregs.survive_crash());
        for op in &self.redo {
            self.wpq.insert(op.clone(), &mut self.device);
        }
        self.wpq.flush(&mut self.device);
        let n = self.redo.len();
        if !self.device.write_cut_fired() {
            self.redo.clear();
        }
        let _ = self.device.flush_backend();
        n
    }

    /// Drains the WPQ to the device (idle-time draining); useful before
    /// inspecting device contents mid-run.
    pub fn drain_wpq(&mut self) {
        self.wpq.flush(&mut self.device);
        let _ = self.device.flush_backend();
    }

    /// The backend's current freshness epoch (0 for volatile backends).
    pub fn epoch(&self) -> u64 {
        self.device.backend().epoch()
    }

    /// The freshness-anchor verdict recorded when the backend was opened
    /// ([`crate::Freshness::Untracked`] for volatile backends).
    pub fn freshness(&self) -> crate::Freshness {
        self.device.backend().freshness()
    }

    /// Test hook: leaves a group staged (resp. draining) so crash tests can
    /// exercise the `DONE_BIT` semantics directly.
    #[doc(hidden)]
    pub fn pregs_mut(&mut self) -> &mut PersistentRegisters {
        &mut self.pregs
    }
}

impl<B: NvmBackend> NvmDevice<B> {
    /// Records a read that was served by WPQ forwarding (still one logical
    /// metadata access for statistics purposes).
    pub(crate) fn stats_read_only(&self, addr: BlockAddr) {
        // Delegate through try_read's bookkeeping without changing content:
        // forwarding hits are rare enough that double storage is not worth
        // a second code path.
        let _ = self.try_read(addr);
    }
}

impl PersistentRegisters {
    /// Discards a partially staged group (oversized-commit rollback).
    pub(crate) fn survive_crash_discard_staging(&mut self) -> usize {
        let n = self.len();
        let _ = self.survive_crash();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u64, fill: u8) -> WriteOp {
        WriteOp::new(BlockAddr::new(i), Block::filled(fill))
    }

    #[test]
    fn committed_group_survives_crash() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.commit_group([op(1, 0xAA), op(2, 0xBB)]).unwrap();
        d.power_fail();
        d.power_up();
        assert_eq!(d.device().peek(BlockAddr::new(1)), Block::filled(0xAA));
        assert_eq!(d.device().peek(BlockAddr::new(2)), Block::filled(0xBB));
        assert_eq!(d.commits(), 1);
    }

    #[test]
    fn groups_reach_a_durable_backend_at_the_barrier_as_one_frame() {
        use crate::FileBackend;
        let path = std::env::temp_dir().join(format!(
            "anubis-domain-{}-op-barrier.img",
            std::process::id()
        ));
        let anchor = crate::anchor_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&anchor);
        let reopen = || {
            FileBackend::open_with_anchor(&path, [7, 13], crate::AnchorPolicy::Strict)
                .expect("open image")
        };
        {
            let mut d = PersistenceDomain::with_backend(1 << 20, reopen());
            d.commit_group([op(1, 0xAA)]).unwrap();
            d.commit_group_with_regs([op(2, 0xBB)], &[(0, Block::filled(0x01))])
                .unwrap();
            assert_eq!((d.commits(), d.epoch()), (2, 0));
            // Dropped before any barrier: an unacknowledged op.
        }
        assert_eq!(reopen().touched(), 0);
        {
            let mut d = PersistenceDomain::with_backend(1 << 20, reopen());
            d.commit_group([op(1, 0xAA)]).unwrap();
            d.commit_group_with_regs([op(2, 0xBB)], &[(0, Block::filled(0x01))])
                .unwrap();
            d.barrier().unwrap();
            assert_eq!((d.commits(), d.epoch()), (2, 1));
            // A simulated power failure still flushes on its own.
            d.commit_group([op(3, 0xCC)]).unwrap();
            d.power_fail();
            assert_eq!(d.epoch(), 2);
        }
        let b = reopen();
        assert_eq!(b.load(1), Some(Block::filled(0xAA)));
        assert_eq!(b.load(2), Some(Block::filled(0xBB)));
        assert_eq!(b.load(3), Some(Block::filled(0xCC)));
        assert_eq!(b.reg(0), Some(Block::filled(0x01)));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&anchor);
    }

    #[test]
    fn staging_group_is_lost_on_crash() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.pregs_mut().stage(op(1, 0xAA));
        d.power_fail();
        let redone = d.power_up();
        assert_eq!(redone, 0);
        assert!(d.device().peek(BlockAddr::new(1)).is_zeroed());
    }

    #[test]
    fn draining_group_is_redone_on_power_up() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.pregs_mut().stage(op(1, 0xAA));
        d.pregs_mut().stage(op(2, 0xBB));
        d.pregs_mut().set_done();
        let _ = d.pregs_mut().next_to_drain(); // crash mid-drain
        d.power_fail();
        let redone = d.power_up();
        assert_eq!(redone, 2);
        assert_eq!(d.device().peek(BlockAddr::new(1)), Block::filled(0xAA));
        assert_eq!(d.device().peek(BlockAddr::new(2)), Block::filled(0xBB));
    }

    #[test]
    fn read_sees_pending_wpq_write() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.commit_group([op(5, 0x11)]).unwrap();
        assert_eq!(d.read(BlockAddr::new(5)).unwrap(), Block::filled(0x11));
    }

    #[test]
    fn oversized_group_rejected_atomically() {
        let mut d = PersistenceDomain::new(1 << 20);
        let big: Vec<_> = (0..=PREG_CAPACITY as u64).map(|i| op(i, 1)).collect();
        let err = d.commit_group(big).unwrap_err();
        assert!(matches!(err, NvmError::CommitGroupTooLarge { .. }));
        d.power_fail();
        d.power_up();
        assert!(d.device().peek(BlockAddr::new(0)).is_zeroed());
    }

    #[test]
    fn powered_off_domain_rejects_io() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.power_fail();
        assert_eq!(d.read(BlockAddr::new(0)), Err(NvmError::PoweredOff));
        assert_eq!(d.commit_group([op(0, 1)]), Err(NvmError::PoweredOff));
        d.power_up();
        assert!(d.read(BlockAddr::new(0)).is_ok());
    }

    #[test]
    fn empty_commit_group_is_noop() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.commit_group(std::iter::empty()).unwrap();
        assert_eq!(d.commits(), 0);
    }

    #[test]
    fn power_cut_mid_group_is_redone_at_power_up() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.arm_fault(FaultPlan::power_cut_after(1));
        let err = d
            .commit_group([op(1, 0xAA), op(2, 0xBB), op(3, 0xCC)])
            .unwrap_err();
        assert_eq!(err, NvmError::PowerLost);
        assert_eq!(d.read(BlockAddr::new(1)), Err(NvmError::PoweredOff));
        assert_eq!(d.fault_fired(), Some(&FaultKind::PowerCut));
        assert_eq!(d.persist_writes(), 1);
        // Two-stage commit masks the cut: power_up REDOes the whole group.
        d.power_up();
        assert_eq!(d.device().peek(BlockAddr::new(1)), Block::filled(0xAA));
        assert_eq!(d.device().peek(BlockAddr::new(2)), Block::filled(0xBB));
        assert_eq!(d.device().peek(BlockAddr::new(3)), Block::filled(0xCC));
    }

    #[test]
    fn power_cut_after_all_writes_of_a_group_never_fires() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.arm_fault(FaultPlan::power_cut_after(2));
        d.commit_group([op(1, 0xAA), op(2, 0xBB)]).unwrap();
        assert!(d.fault_fired().is_none());
        // It fires on the next group's first write instead.
        assert_eq!(d.commit_group([op(3, 0xCC)]), Err(NvmError::PowerLost));
    }

    #[test]
    fn torn_write_persists_partial_group_and_partial_block() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.device_mut().poke(BlockAddr::new(2), Block::filled(0x11));
        d.arm_fault(FaultPlan::torn_write_after(1, 3));
        let err = d
            .commit_group([op(1, 0xAA), op(2, 0xBB), op(3, 0xCC)])
            .unwrap_err();
        assert_eq!(err, NvmError::PowerLost);
        d.power_up();
        // Write 0 landed whole; write 1 tore mid-block; write 2 was lost
        // with the discarded register group.
        assert_eq!(d.device().peek(BlockAddr::new(1)), Block::filled(0xAA));
        let torn = d.device().peek(BlockAddr::new(2));
        for w in 0..Block::WORDS {
            let expect = if w < 3 {
                Block::filled(0xBB).word(w)
            } else {
                Block::filled(0x11).word(w)
            };
            assert_eq!(torn.word(w), expect, "word {w}");
        }
        assert!(d.device().peek(BlockAddr::new(3)).is_zeroed());
    }

    #[test]
    fn bit_flip_corrupts_silently_and_execution_continues() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.arm_fault(FaultPlan::bit_flip_after(0, vec![0, 9]));
        d.commit_group([op(1, 0x00), op(2, 0xBB)]).unwrap();
        assert!(d.read(BlockAddr::new(1)).is_ok(), "still powered");
        assert!(matches!(d.fault_fired(), Some(FaultKind::BitFlip { .. })));
        d.drain_wpq();
        let mut expect = Block::zeroed();
        expect.flip_bit(0);
        expect.flip_bit(9);
        assert_eq!(d.device().peek(BlockAddr::new(1)), expect);
        assert_eq!(d.device().peek(BlockAddr::new(2)), Block::filled(0xBB));
    }

    #[test]
    fn drain_wpq_makes_contents_visible_via_peek() {
        let mut d = PersistenceDomain::new(1 << 20);
        d.commit_group([op(7, 0x77)]).unwrap();
        assert!(d.device().peek(BlockAddr::new(7)).is_zeroed());
        d.drain_wpq();
        assert_eq!(d.device().peek(BlockAddr::new(7)), Block::filled(0x77));
    }
}
