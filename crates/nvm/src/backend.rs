//! Pluggable storage backends for the sparse NVM device.
//!
//! [`NvmDevice`](crate::NvmDevice) is generic over an [`NvmBackend`] that
//! owns the actual block contents. Two implementations exist:
//!
//! * [`MemBackend`] — the original process-lifetime hash map. Zero-cost,
//!   volatile across process death; the default everywhere.
//! * [`FileBackend`](crate::FileBackend) — a write-ahead-logged file image
//!   whose durability boundary is the acknowledgement: persisted bytes
//!   are always a whole-commit-group prefix of history holding every
//!   acknowledged operation, so a SIGKILLed process can be restarted
//!   against the image and recovered.
//!
//! The backend also hosts the *persistent register file*: a small set of
//! numbered 64-byte register images the controllers use to mirror their
//! on-chip persistent registers (tree root, reencryption log, shadow-table
//! root) so restart-entry recovery can restore them.

use crate::addr_hash::AddrMap;
use crate::anchor::Freshness;
use crate::block::Block;
use crate::error::NvmError;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The FNV-1a offset basis: the digest of nothing, where [`fnv1a64`]
/// starts.
pub const FNV1A64_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64: folds `bytes` into the digest `h`. The workspace's one
/// unkeyed checksum — under the anchor's seal, on the wire frames, in
/// the campaign digests and the trace seeds.
pub fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Size and economy of a durable backend's write-ahead log, for the
/// controllers' telemetry. All zero for volatile backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Logical end of the log: header plus every committed frame.
    pub log_bytes: u64,
    /// Zero bytes already on disk past the logical end, which the next
    /// frames land in.
    pub slack_bytes: u64,
    /// Records that never became frame bytes of their own: overwritten
    /// in place by a later record of the same frame, or equal to what
    /// the log already replays for their address.
    pub records_coalesced: u64,
}

/// How far a backend's log is durable — the one record of it, shared by
/// the backend (which hands out clones through
/// [`NvmBackend::durability`]), the threads that carry its [`Cut`]s and
/// whoever waits for a [`NvmBackend::ticket`]. A waiter needs no
/// reference to the backend, so the lock that guards the controller is
/// not held while it waits.
///
/// Three things live behind its one mutex: the last durable epoch, the
/// reason nothing more will become durable (permanent once set), and
/// whether somebody has taken it upon themselves to lead the next
/// barrier. The mutex is held to read or publish those, never across
/// I/O.
#[derive(Clone, Debug)]
pub struct Durability {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    progress: Mutex<Progress>,
    /// Signalled whenever `progress` changes.
    moved: Condvar,
}

#[derive(Debug)]
struct Progress {
    /// Epoch of the last frame on the medium, synced and sealed. Steps
    /// are admitted in epoch order, so everything up to it is durable.
    durable: u64,
    /// Why nothing more will be written: a step failed (the medium is in
    /// an unknown state past the last durable frame) or a cut was
    /// dropped (the in-memory half accounts for a frame that never
    /// landed).
    broken: Option<String>,
    /// A [`Lead`] is out.
    leader: bool,
}

impl Durability {
    /// A log that is durable up to `epoch` and in working order.
    pub fn at(epoch: u64) -> Self {
        Durability {
            shared: Arc::new(Shared {
                progress: Mutex::new(Progress {
                    durable: epoch,
                    broken: None,
                    leader: false,
                }),
                moved: Condvar::new(),
            }),
        }
    }

    fn progress(&self) -> MutexGuard<'_, Progress> {
        // Every update under this lock is a single assignment, so a
        // guard recovered from a panicking holder protects valid data.
        (self.shared.progress.lock()).unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, progress: MutexGuard<'a, Progress>) -> MutexGuard<'a, Progress> {
        (self.shared.moved.wait(progress)).unwrap_or_else(PoisonError::into_inner)
    }

    /// The last epoch durably on the medium, anchor seal included.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] once the log is broken: what was
    /// cut since will never become durable through this backend.
    pub fn reached(&self) -> Result<u64, NvmError> {
        let progress = self.progress();
        match &progress.broken {
            Some(reason) => Err(NvmError::Backend {
                reason: reason.clone(),
            }),
            None => Ok(progress.durable),
        }
    }

    /// Whether `ticket` is durable. Stays true after a later failure.
    pub fn covers(&self, ticket: u64) -> bool {
        self.progress().durable >= ticket
    }

    /// Runs `step` as what takes the log from `epoch - 1` to `epoch`:
    /// waits until every earlier epoch is durable, then publishes
    /// `epoch` — or the failure, for good — when `step` returns. Every
    /// frame of a backend goes through here, which is what makes frames
    /// land in epoch order whichever thread carries them.
    ///
    /// # Errors
    ///
    /// Returns what `step` returned, or why the log was broken already.
    pub fn in_turn(
        &self,
        epoch: u64,
        step: impl FnOnce() -> Result<(), NvmError>,
    ) -> Result<(), NvmError> {
        self.turn(epoch.saturating_sub(1), epoch, step)
    }

    /// Runs `step` once `epoch` itself is durable, as work that moves the
    /// medium but not the log's epoch (a checkpoint): it waits for every
    /// frame up to `epoch`, and a failure breaks the log as a frame's
    /// does.
    pub(crate) fn at_rest(
        &self,
        epoch: u64,
        step: impl FnOnce() -> Result<(), NvmError>,
    ) -> Result<(), NvmError> {
        self.turn(epoch, epoch, step)
    }

    /// Waits until `after` is durable, runs `step`, and publishes
    /// `epoch` or the failure.
    fn turn(
        &self,
        after: u64,
        epoch: u64,
        step: impl FnOnce() -> Result<(), NvmError>,
    ) -> Result<(), NvmError> {
        {
            let mut progress = self.progress();
            while progress.broken.is_none() && progress.durable < after {
                progress = self.wait(progress);
            }
            if let Some(reason) = &progress.broken {
                return Err(NvmError::Backend {
                    reason: reason.clone(),
                });
            }
        }
        let result = step();
        let mut progress = self.progress();
        match &result {
            Ok(()) => progress.durable = epoch,
            Err(e) => {
                progress.broken = Some(format!("log poisoned by an earlier failed barrier ({e})"));
            }
        }
        self.shared.moved.notify_all();
        result
    }

    /// Breaks the log without a step having failed; the first reason
    /// given stays.
    pub(crate) fn abandon(&self, reason: impl FnOnce() -> String) {
        self.progress().broken.get_or_insert_with(reason);
        self.shared.moved.notify_all();
    }

    /// Blocks until `ticket` is durable (`Ok(None)`), the log is broken
    /// (`Err`), or nobody is leading a barrier — then the caller is made
    /// leader (`Ok(Some(lead))`): it is to carry one barrier, give the
    /// [`Lead`] back by dropping it, and ask again. Group commit: every
    /// waiter but one sleeps through the barrier that covers it.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] when the log broke at or before the
    /// frame that would have covered `ticket`.
    pub fn await_or_lead(&self, ticket: u64) -> Result<Option<Lead>, NvmError> {
        let mut progress = self.progress();
        loop {
            if progress.durable >= ticket {
                return Ok(None);
            }
            if let Some(reason) = &progress.broken {
                return Err(NvmError::Backend {
                    reason: reason.clone(),
                });
            }
            if !progress.leader {
                progress.leader = true;
                return Ok(Some(Lead(self.clone())));
            }
            progress = self.wait(progress);
        }
    }
}

/// The leadership of one barrier ([`Durability::await_or_lead`]), given
/// back when dropped — also if the leader unwinds: its frame is lost
/// with it (a dropped [`Cut`] breaks the log), and the waiters must get
/// to find that out instead of waiting for a leader that is gone.
#[derive(Debug)]
pub struct Lead(Durability);

impl Drop for Lead {
    fn drop(&mut self) {
        self.0.progress().leader = false;
        self.0.shared.moved.notify_all();
    }
}

/// One barrier's worth of records, cut out of a backend's in-memory half
/// ([`NvmBackend::cut`]) and not yet durable: the frame, its epoch, and
/// the way to the medium. It holds no reference to the backend, so the
/// lock that guards the controller can be released before the slow half
/// — [`Cut::commit`] — runs. Dropping it uncommitted breaks the log: the
/// in-memory half already counts the frame, and frames behind it must
/// not wait for a turn that never comes.
#[must_use = "a cut that is dropped uncommitted breaks its backend"]
pub struct Cut {
    epoch: u64,
    wants_settle: bool,
    durability: Durability,
    write: Option<Box<dyn FnOnce() -> Result<(), NvmError> + Send>>,
}

impl Cut {
    /// A cut of `epoch` that `write` puts on the medium; the outcome is
    /// published through `durability`, in epoch order. `wants_settle`:
    /// [`NvmBackend::settle`] has work to do once this cut is committed.
    pub fn new(
        epoch: u64,
        wants_settle: bool,
        durability: Durability,
        write: impl FnOnce() -> Result<(), NvmError> + Send + 'static,
    ) -> Self {
        Cut {
            epoch,
            wants_settle,
            durability,
            write: Some(Box::new(write)),
        }
    }

    /// The epoch this cut's frame carries.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the backend asked for [`NvmBackend::settle`] after this
    /// cut has been committed.
    pub fn wants_settle(&self) -> bool {
        self.wants_settle
    }

    /// Makes the frame durable, after every frame of a lower epoch.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] when the medium fails or an earlier
    /// commit did; the backend is broken from then on.
    pub fn commit(mut self) -> Result<(), NvmError> {
        match self.write.take() {
            Some(write) => self.durability.in_turn(self.epoch, write),
            None => Ok(()),
        }
    }
}

impl Drop for Cut {
    fn drop(&mut self) {
        if self.write.is_some() {
            let epoch = self.epoch;
            self.durability.abandon(|| {
                format!("log poisoned: the frame of epoch {epoch} was cut and never committed")
            });
        }
    }
}

impl std::fmt::Debug for Cut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cut")
            .field("epoch", &self.epoch)
            .field("wants_settle", &self.wants_settle)
            .finish_non_exhaustive()
    }
}

/// Storage abstraction behind [`NvmDevice`](crate::NvmDevice).
///
/// Implementations own the sparse block map, each block's counted
/// writes, and the persistent register file. The `Send + Sync`
/// supertraits keep a device — and the controller over it — movable to
/// and shareable between threads.
///
/// # Durability contract
///
/// [`NvmBackend::store`], [`NvmBackend::store_reg`] and
/// [`NvmBackend::journal`] may buffer; only a **barrier** makes buffered
/// records durable, and it must do so atomically and in order (a torn
/// barrier must be indistinguishable from no barrier on reopen, and
/// replaying the barriers in order must yield, per address and per
/// register, the last image buffered — a backend may drop a record that
/// a later one of the same barrier supersedes, or that repeats what the
/// log already yields).
///
/// A barrier has two halves, because only one of them needs the backend:
///
/// * [`NvmBackend::cut`] — under `&mut self`, so under whatever lock
///   guards the controller — takes everything buffered since the
///   previous cut out of the in-memory half as **one frame with one
///   epoch**, and leaves the backend ready to buffer the next one. From
///   this moment the in-memory half describes the log *as if the frame
///   had landed*; that is safe because the only alternative outcome
///   breaks the backend for good (below).
/// * [`Cut::commit`] — on any thread, with no reference to the backend —
///   makes that frame durable: [`FileBackend`](crate::FileBackend)
///   reserves slack, writes the frame, `sync_data`s it and then seals
///   the freshness anchor. That sync commits file contents only — the
///   frame lands in zero-filled slack whose length and blocks an earlier
///   `sync_all` made durable — which makes it cheaper, not weaker.
///
/// [`NvmBackend::barrier`] is the two in one call and returns when the
/// records are on the medium. Whoever carries them, **frames reach the
/// medium in epoch order**: a commit waits for the frame before it, so a
/// fused `barrier` racing a detached [`Cut`] queues behind it. A commit
/// that fails, and a `Cut` dropped uncommitted, break the backend: every
/// later commit is refused and [`Durability::reached`] reports the
/// failure, since the in-memory half now runs ahead of a log that will
/// never catch up. Nothing is retried.
///
/// A barrier is taken where durability becomes *observable*, not where
/// the simulated hardware persists: a commit group is persistent against
/// a simulated power failure the moment it is drained, but it only
/// journals here. The callers are
///
/// * the controllers, exactly once at the end of every fused public
///   operation (`read` / `write` / `write_batch` / `shutdown_flush`, on
///   `Ok` and on `Err`) through
///   [`PersistenceDomain::barrier`](crate::PersistenceDomain::barrier) —
///   a fused operation is acknowledged iff that barrier returned, and
///   all the commit groups it produced share one barrier;
/// * a server that executes operations *deferred* and cuts once for
///   several of them (group commit): an operation is acknowledged iff
///   the backend's [`Durability`] has reached the
///   [`NvmBackend::ticket`] it left its execution with;
/// * the persistence domain itself on the paths that model the platform
///   rather than an operation: the ADR flush of a (fault-injected or
///   explicit) power failure, the REDO pass at power-up, and an
///   idle-time WPQ drain.
///
/// Because a cut covers a whole number of commit groups in commit order,
/// each preceded by its register mirrors — and, taken between
/// operations, a whole number of *operations* in execution order — a
/// reopened image is always a group-prefix (resp. op-prefix) of history
/// that contains every acknowledged operation; a frame that never
/// completed removes its operations whole.
pub trait NvmBackend: std::fmt::Debug + Send + Sync {
    /// Loads the block at physical index `phys`, if ever stored.
    fn load(&self, phys: u64) -> Option<Block>;

    /// Stores a block at physical index `phys`; its write count stays.
    fn store(&mut self, phys: u64, block: Block);

    /// [`NvmBackend::store`] as a counted write: returns how many counted
    /// writes `phys` has had, this one included (wear accounting).
    fn store_counted(&mut self, phys: u64, block: Block) -> u64;

    /// Counted writes to `phys` so far (0 if never).
    fn writes_to(&self, phys: u64) -> u64;

    /// Number of distinct physical blocks ever stored (materialized
    /// footprint).
    fn touched(&self) -> usize;

    /// Every stored block, sorted by physical index.
    fn entries(&self) -> Vec<(u64, Block)>;

    /// Stores one persistent-register image.
    fn store_reg(&mut self, idx: u8, block: Block);

    /// Loads a persistent-register image.
    fn reg(&self, idx: u8) -> Option<Block>;

    /// Every register image, sorted by index.
    fn regs(&self) -> Vec<(u8, Block)>;

    /// Journals a write that is in the persistent domain but still
    /// WPQ-resident in this process: durable backends must replay it on
    /// reopen without updating the live block map (the in-process WPQ
    /// still holds it). Volatile backends ignore it.
    fn journal(&mut self, phys: u64, block: Block) {
        let _ = (phys, block);
    }

    /// Makes everything stored/journaled so far durable: [`NvmBackend::cut`]
    /// and [`Cut::commit`] in one call, plus [`NvmBackend::settle`].
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] when the underlying medium fails,
    /// or failed at an earlier barrier.
    fn barrier(&mut self) -> Result<(), NvmError> {
        match self.cut() {
            Some(cut) => {
                cut.commit()?;
                self.settle()
            }
            None => Ok(()),
        }
    }

    /// Takes everything stored/journaled since the previous cut out of
    /// the backend as one frame under the next epoch, for the caller to
    /// [`Cut::commit`] — with or without this backend at hand. `None`
    /// when nothing is buffered (and always for volatile backends, which
    /// have no durable half).
    fn cut(&mut self) -> Option<Cut> {
        None
    }

    /// The epoch whose durability covers everything stored/journaled so
    /// far: that of the next cut while records are buffered, else that
    /// of the last one. An operation that leaves its execution with this
    /// ticket may be acknowledged once [`NvmBackend::durability`]
    /// [covers](Durability::covers) it.
    fn ticket(&self) -> u64 {
        self.epoch()
    }

    /// How far this backend's log is durable: a handle onto the one
    /// record of it, to wait on without the backend. Its epoch equals
    /// [`NvmBackend::epoch`] whenever no [`Cut`] is in flight. A backend
    /// with no durable half is durable as far as it has got.
    fn durability(&self) -> Durability {
        Durability::at(self.epoch())
    }

    /// Housekeeping that a committed cut left due and that needs both
    /// halves of the backend at rest (log compaction). Whatever was
    /// buffered since that cut is made durable first, as a frame of its
    /// own, so the log is never rewritten — nor its epoch moved — under
    /// records that are still waiting for theirs. Cheap when nothing is
    /// due; [`Cut::wants_settle`] says when something is.
    ///
    /// # Errors
    ///
    /// Returns [`NvmError::Backend`] when the underlying medium fails.
    fn settle(&mut self) -> Result<(), NvmError> {
        Ok(())
    }

    /// Power died (write cut fired mid-recovery): discard unflushed
    /// journal records and turn every subsequent [`NvmBackend::barrier`]
    /// into a no-op — a dying platform flushes nothing more.
    fn suppress_flushes(&mut self) {}

    /// The backend's current freshness epoch: a monotonic counter bumped
    /// on every cut (so: once per fused operation that wrote, once per
    /// group of deferred ones) and compaction by durable backends — the
    /// epoch of the last frame *cut*, which
    /// [`NvmBackend::durability`] trails while a [`Cut`] is in flight.
    /// Volatile backends report 0 — within one process there is no
    /// restart for a rollback to hide behind.
    fn epoch(&self) -> u64 {
        0
    }

    /// What the freshness-anchor check concluded when this backend was
    /// opened. [`Freshness::Untracked`] for volatile backends.
    fn freshness(&self) -> Freshness {
        Freshness::Untracked
    }

    /// Structurally damaged WAL frames discarded when the image was
    /// opened (torn tails truncated away) — the source feeding the
    /// `wal_rejected_total` telemetry counter.
    fn frames_rejected(&self) -> u64 {
        0
    }

    /// Holds the home area — blocks at rest outside the log — to the
    /// digest its log carries: the slots no frame of the log writes must
    /// hold what they held when the log began. Reads the whole home area,
    /// so it is for the rungs of recovery that re-anchor metadata to what
    /// the medium holds, not for an open. `Ok` for a backend with no home
    /// area.
    ///
    /// # Errors
    ///
    /// [`NvmError::Backend`] when the home area does not match, cannot be
    /// read, or holds a slot marker that is neither empty nor present.
    fn check_home(&self) -> Result<(), NvmError> {
        Ok(())
    }

    /// Log size, preallocated slack and coalesced-record count of a
    /// durable backend — the `wal_log_bytes` / `wal_slack_bytes` /
    /// `wal_records_coalesced_total` telemetry.
    fn wal_stats(&self) -> WalStats {
        WalStats::default()
    }
}

/// The original in-memory backend: a sparse hash map, volatile across
/// process death. [`NvmBackend::barrier`] is a no-op — within one process
/// the map itself is the persistence model.
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    /// Each block with its counted writes: one probe per device write.
    store: AddrMap<(Block, u64)>,
    regs: BTreeMap<u8, Block>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NvmBackend for MemBackend {
    fn load(&self, phys: u64) -> Option<Block> {
        self.store.get(&phys).map(|&(b, _)| b)
    }

    fn store(&mut self, phys: u64, block: Block) {
        self.store.entry(phys).or_insert((block, 0)).0 = block;
    }

    fn store_counted(&mut self, phys: u64, block: Block) -> u64 {
        let entry = self.store.entry(phys).or_insert((block, 0));
        *entry = (block, entry.1 + 1);
        entry.1
    }

    fn writes_to(&self, phys: u64) -> u64 {
        self.store.get(&phys).map_or(0, |&(_, n)| n)
    }

    fn touched(&self) -> usize {
        self.store.len()
    }

    fn entries(&self) -> Vec<(u64, Block)> {
        let mut v: Vec<_> = self.store.iter().map(|(&k, &(b, _))| (k, b)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    fn store_reg(&mut self, idx: u8, block: Block) {
        self.regs.insert(idx, block);
    }

    fn reg(&self, idx: u8) -> Option<Block> {
        self.regs.get(&idx).copied()
    }

    fn regs(&self) -> Vec<(u8, Block)> {
        self.regs.iter().map(|(&i, &b)| (i, b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_roundtrip() {
        let mut b = MemBackend::new();
        assert_eq!(b.load(7), None);
        b.store(7, Block::filled(0xAA));
        b.store(3, Block::filled(0xBB));
        assert_eq!(b.load(7), Some(Block::filled(0xAA)));
        assert_eq!(b.touched(), 2);
        let e = b.entries();
        assert_eq!(e[0].0, 3);
        assert_eq!(e[1].0, 7);
        b.barrier().unwrap();
        b.journal(9, Block::filled(1)); // no-op for the volatile backend
        assert_eq!(b.load(9), None);
    }

    #[test]
    fn mem_backend_registers() {
        let mut b = MemBackend::new();
        assert_eq!(b.reg(0), None);
        b.store_reg(2, Block::filled(2));
        b.store_reg(0, Block::filled(0));
        assert_eq!(b.reg(2), Some(Block::filled(2)));
        let r = b.regs();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, 0);
    }

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a 64 test vectors, one shot and folded.
        assert_eq!(fnv1a64(FNV1A64_EMPTY, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV1A64_EMPTY, b"a"), 0xaf63_dc4c_8601_ec8c);
        let abc = fnv1a64(FNV1A64_EMPTY, b"abc");
        assert_ne!(abc, fnv1a64(FNV1A64_EMPTY, b"acb"));
        let folded = fnv1a64(fnv1a64(FNV1A64_EMPTY, b"foo"), b"bar");
        assert_eq!(folded, fnv1a64(FNV1A64_EMPTY, b"foobar"));
        assert_eq!(folded, 0x8594_4171_f739_67e8);
    }
}
