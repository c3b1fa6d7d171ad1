//! The acknowledged-write oracle.

use std::collections::BTreeMap;

use anubis_nvm::Block;

/// What a system owes after a crash, as far as one client can know it:
/// for every address the last write it saw **acknowledged**, and at most
/// one write that was **in flight** when the crash came — unacknowledged,
/// and free to have landed or not.
///
/// Built as the acknowledgements arrive ([`Acked::ack`], and
/// [`Acked::attempt`] for the write a power cut interrupted), or by a
/// harness that knows exactly which writes are durable, over
/// [`Acked::fresh`]: that model owes every line of an address space and
/// has nothing in flight.
#[derive(Clone, Debug, Default)]
pub struct Acked {
    /// Address → `(op index, payload)` of its last acknowledged write.
    last: BTreeMap<u64, (u64, Block)>,
    inflight: Option<(u64, Block)>,
}

/// How one value read from an address stands against the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judged {
    /// The address's last acknowledged payload.
    Matched,
    /// The payload of the write in flight, which targeted this address.
    InFlight,
    /// Anything else.
    Other,
}

/// One audited address: what the model expected and how the read-back
/// compared.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding<E> {
    /// The acknowledged address.
    pub addr: u64,
    /// Op index of its last acknowledged write (`u64::MAX`: none, the
    /// zeros of [`Acked::fresh`] are owed).
    pub op_index: u64,
    /// That write's payload.
    pub want: Block,
    /// What reading it back gave.
    pub readback: ReadBack<E>,
}

/// The five ways an acknowledged address can read back.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadBack<E> {
    /// Its last acknowledged payload.
    Matched,
    /// The in-flight write's payload: it landed without being
    /// acknowledged, which the contract allows for that one write.
    InFlight,
    /// Something else, which the caller's `excuse` hook vouched for (a
    /// zero on a line the supervisor quarantined and said so).
    Excused,
    /// The read failed with a typed error.
    Failed(E),
    /// Something else, unexcused: the acknowledged write is gone.
    Wrong {
        /// What was read instead.
        got: Block,
    },
}

impl Acked {
    /// The model of a fresh address space of `lines` lines: each owes
    /// zeros until a write to it is acknowledged. Its audit reads every
    /// line, so a write that was never acknowledged is wrong wherever it
    /// shows — the exact model of a harness that knows which of its
    /// writes are durable.
    pub fn fresh(lines: u64) -> Acked {
        let zeros = (0..lines).map(|addr| (addr, (u64::MAX, Block::zeroed())));
        Acked {
            last: zeros.collect(),
            inflight: None,
        }
    }

    /// Records an acknowledged write; whatever was in flight has been
    /// settled by it.
    pub fn ack(&mut self, op_index: u64, addr: u64, payload: Block) {
        self.last.insert(addr, (op_index, payload));
        self.inflight = None;
    }

    /// Marks `payload` → `addr` as sent but not acknowledged.
    pub fn attempt(&mut self, addr: u64, payload: Block) {
        self.inflight = Some((addr, payload));
    }

    /// Distinct acknowledged addresses.
    pub fn len(&self) -> usize {
        self.last.len()
    }

    /// Whether nothing was acknowledged.
    pub fn is_empty(&self) -> bool {
        self.last.is_empty()
    }

    /// The address the in-flight write targeted, if there is one.
    pub fn inflight_addr(&self) -> Option<u64> {
        self.inflight.map(|(addr, _)| addr)
    }

    /// Compares `got`, read from `addr`, with what the model holds for
    /// it; `None` when nothing was ever acknowledged there. The one place
    /// a read-back meets an acknowledged payload.
    pub fn judge(&self, addr: u64, got: Block) -> Option<Judged> {
        let &(_, want) = self.last.get(&addr)?;
        Some(if got == want {
            Judged::Matched
        } else if self.inflight == Some((addr, got)) {
            Judged::InFlight
        } else {
            Judged::Other
        })
    }

    /// Reads every acknowledged address back through `read` and
    /// classifies it, in address order. `excuse(subject, addr, got)` is
    /// asked only about a value that is neither the acknowledged nor the
    /// in-flight payload. Lazy: a caller that stops at its first finding
    /// reads no further.
    pub fn audit<'a, S: ?Sized, E>(
        &'a self,
        subject: &'a mut S,
        mut read: impl FnMut(&mut S, u64) -> Result<Block, E> + 'a,
        mut excuse: impl FnMut(&S, u64, &Block) -> bool + 'a,
    ) -> impl Iterator<Item = Finding<E>> + 'a {
        self.last.iter().map(move |(&addr, &(op_index, want))| {
            let readback = match read(subject, addr) {
                Err(e) => ReadBack::Failed(e),
                Ok(got) => match self.judge(addr, got) {
                    Some(Judged::Matched) => ReadBack::Matched,
                    Some(Judged::InFlight) => ReadBack::InFlight,
                    _ if excuse(subject, addr, &got) => ReadBack::Excused,
                    _ => ReadBack::Wrong { got },
                },
            };
            Finding {
                addr,
                op_index,
                want,
                readback,
            }
        })
    }
}
