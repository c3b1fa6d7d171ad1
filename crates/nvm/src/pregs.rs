//! Persistent registers and the two-stage REDO commit (paper §2.7).

use crate::domain::WriteOp;

/// Capacity of the persistent register file in write entries.
///
/// A commit group (data block + counter block + affected tree nodes +
/// shadow-table blocks) must fit here; the deepest group any scheme in this
/// reproduction produces is bounded by the tree height plus a handful of
/// shadow writes, so 64 entries is generous.
pub const PREG_CAPACITY: usize = 64;

/// Where the two-stage commit was interrupted, as observed after a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPhase {
    /// No group was in flight (registers empty or already drained).
    Idle,
    /// A crash hit while the group was still being staged: `DONE_BIT` was
    /// not yet set, so the group never reached the persistent domain and is
    /// lost (the corresponding store never completed, which is acceptable).
    Staging,
    /// A crash hit after `DONE_BIT` was set but before every entry was
    /// copied into the WPQ: recovery must REDO the group.
    Draining,
}

/// On-chip NVM-backed registers implementing the atomic update of data and
/// security metadata.
///
/// Protocol (paper §2.7): all writes belonging to one logical memory-write
/// are first *staged* into the registers; then `DONE_BIT` is set; then the
/// entries are copied one by one into the WPQ; finally `DONE_BIT` is
/// cleared. If power fails
///
/// * before `DONE_BIT` is set → the whole group is lost (never persisted);
/// * after `DONE_BIT` is set → recovery re-inserts the surviving register
///   contents into the WPQ (REDO), making the group effectively atomic.
#[derive(Clone, Debug, Default)]
pub struct PersistentRegisters {
    entries: Vec<WriteOp>,
    done_bit: bool,
    drained: usize,
}

impl PersistentRegisters {
    /// Creates an empty register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of staged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no group is staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `DONE_BIT` is currently set.
    pub fn done_bit(&self) -> bool {
        self.done_bit
    }

    /// Stages one write entry. Returns `false` (entry rejected) if the
    /// register file is full.
    ///
    /// # Panics
    ///
    /// Panics if called while `DONE_BIT` is set — the protocol forbids
    /// staging into a group that is already committing.
    pub fn stage(&mut self, op: WriteOp) -> bool {
        assert!(!self.done_bit, "cannot stage while a group is draining");
        if self.entries.len() == PREG_CAPACITY {
            return false;
        }
        self.entries.push(op);
        true
    }

    /// Sets `DONE_BIT`: the staged group is now in the persistent domain.
    pub fn set_done(&mut self) {
        self.done_bit = true;
        self.drained = 0;
    }

    /// Takes the next entry to copy into the WPQ, or `None` when the group
    /// has fully drained (in which case the registers clear themselves and
    /// `DONE_BIT` drops).
    pub fn next_to_drain(&mut self) -> Option<WriteOp> {
        if !self.done_bit {
            return None;
        }
        if self.drained < self.entries.len() {
            let op = self.entries[self.drained].clone();
            self.drained += 1;
            Some(op)
        } else {
            self.entries.clear();
            self.done_bit = false;
            self.drained = 0;
            None
        }
    }

    /// What a crash at this instant would observe.
    pub fn phase(&self) -> CommitPhase {
        if self.done_bit {
            CommitPhase::Draining
        } else if self.entries.is_empty() {
            CommitPhase::Idle
        } else {
            CommitPhase::Staging
        }
    }

    /// Wipes the register file unconditionally — used by torn-write fault
    /// injection to model the group being lost after the tear (the REDO
    /// log is gone, so the partial persist becomes observable).
    pub(crate) fn torn_discard(&mut self) {
        self.entries.clear();
        self.done_bit = false;
        self.drained = 0;
    }

    /// Applies crash semantics: a staging group (no `DONE_BIT`) is lost;
    /// a draining group survives in the NVM-backed registers and is
    /// returned for REDO.
    pub fn survive_crash(&mut self) -> Vec<WriteOp> {
        match self.phase() {
            CommitPhase::Idle => Vec::new(),
            CommitPhase::Staging => {
                self.entries.clear();
                Vec::new()
            }
            CommitPhase::Draining => {
                // REDO the *whole* group: re-inserting already-drained
                // entries is idempotent because WPQ/device writes of the
                // same value are idempotent.
                let ops = std::mem::take(&mut self.entries);
                self.done_bit = false;
                self.drained = 0;
                ops
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, BlockAddr};

    fn op(i: u64) -> WriteOp {
        WriteOp::new(BlockAddr::new(i), Block::filled(i as u8))
    }

    #[test]
    fn full_protocol_roundtrip() {
        let mut regs = PersistentRegisters::new();
        assert_eq!(regs.phase(), CommitPhase::Idle);
        assert!(regs.stage(op(1)));
        assert!(regs.stage(op(2)));
        assert_eq!(regs.phase(), CommitPhase::Staging);
        regs.set_done();
        assert_eq!(regs.phase(), CommitPhase::Draining);
        assert_eq!(regs.next_to_drain(), Some(op(1)));
        assert_eq!(regs.next_to_drain(), Some(op(2)));
        assert_eq!(regs.next_to_drain(), None);
        assert_eq!(regs.phase(), CommitPhase::Idle);
        assert!(!regs.done_bit());
    }

    #[test]
    fn crash_while_staging_loses_group() {
        let mut regs = PersistentRegisters::new();
        regs.stage(op(1));
        let redo = regs.survive_crash();
        assert!(redo.is_empty());
        assert_eq!(regs.phase(), CommitPhase::Idle);
    }

    #[test]
    fn crash_while_draining_redoes_group() {
        let mut regs = PersistentRegisters::new();
        regs.stage(op(1));
        regs.stage(op(2));
        regs.set_done();
        let _ = regs.next_to_drain(); // one entry copied, then power fails
        let redo = regs.survive_crash();
        assert_eq!(redo, vec![op(1), op(2)]);
        assert_eq!(regs.phase(), CommitPhase::Idle);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut regs = PersistentRegisters::new();
        for i in 0..PREG_CAPACITY as u64 {
            assert!(regs.stage(op(i)));
        }
        assert!(!regs.stage(op(999)));
        assert_eq!(regs.len(), PREG_CAPACITY);
    }

    #[test]
    #[should_panic(expected = "draining")]
    fn staging_during_drain_panics() {
        let mut regs = PersistentRegisters::new();
        regs.stage(op(1));
        regs.set_done();
        regs.stage(op(2));
    }
}
