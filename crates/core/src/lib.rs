//! # Anubis — secure, recoverable non-volatile memory controllers
//!
//! A from-scratch reproduction of **"Anubis: Ultra-Low Overhead and
//! Recovery Time for Secure Non-Volatile Memories"** (Zubair & Awad,
//! ISCA 2019).
//!
//! The crate implements the paper's memory-controller schemes over the
//! substrates in the sibling crates (`anubis-nvm`, `anubis-crypto`,
//! `anubis-cache`, `anubis-itree`):
//!
//! | Scheme | Tree | Recovery | Paper section |
//! |--------|------|----------|---------------|
//! | [`BonsaiScheme::WriteBack`] | general 8-ary | unrecoverable after metadata loss | §6.1 ① |
//! | [`BonsaiScheme::StrictPersist`] | general 8-ary | trivial (everything persisted) | §6.1 ② |
//! | [`BonsaiScheme::Osiris`] | general 8-ary | O(memory): fix every counter, rebuild whole tree | §6.1 ③ |
//! | [`BonsaiScheme::AgitRead`] | general 8-ary | O(cache): shadow-tracked blocks only | §4.2.1 |
//! | [`BonsaiScheme::AgitPlus`] | general 8-ary | O(cache): tracked on first modification | §4.2.2 |
//! | [`SgxScheme::WriteBack`] | SGX-style | **impossible** (lost interior nodes) | §6.2 ① |
//! | [`SgxScheme::StrictPersist`] | SGX-style | trivial | §6.2 ② |
//! | [`SgxScheme::Osiris`] | SGX-style | **impossible** (leaves don't determine tree) | §6.2 ③ |
//! | [`SgxScheme::Asit`] | SGX-style | O(cache): integrity-protected shadow copy | §4.3 |
//!
//! Both controller families expose the same surface: [`MemoryController`]
//! with `read`/`write`/`crash`/`recover`, per-operation [`OpCost`]s for
//! the timing simulator, and honest integrity verification (tampering
//! with NVM contents is *detected*, not assumed away).
//!
//! # Quickstart
//!
//! ```
//! use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController};
//! use anubis_nvm::Block;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = AnubisConfig::small_test();
//! let mut mem = BonsaiController::new(BonsaiScheme::AgitPlus, &config);
//! mem.write(DataAddr::new(7), Block::filled(0xAB))?;
//! mem.crash();                       // power failure: caches lost
//! let report = mem.recover()?;       // Algorithm 1, O(cache) work
//! assert_eq!(mem.read(DataAddr::new(7))?, Block::filled(0xAB));
//! assert!(report.estimated_ns() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cost;
mod datapath;
mod error;
mod family;
mod layout;
mod shadow;
mod shadow_tree;

pub mod bonsai;
pub mod recovery;
pub mod sgx;
pub mod supervisor;

pub use bonsai::{BonsaiController, BonsaiScheme};
pub use config::AnubisConfig;
pub use cost::{CostAccum, OpCost};
pub use error::{freshness_hint, MemError, RecoveryError};
pub use family::{Family, Reopened};
pub use layout::{BonsaiLayout, DataAddr, SgxLayout, LINES_PER_COUNTER_BLOCK};
pub use recovery::RecoveryReport;
pub use sgx::{SgxController, SgxScheme};
pub use shadow::{ShadowAddrEntry, StEntry};
pub use supervisor::{RecoveryOutcome, RepairSummary, Supervised, SupervisedRecovery};

pub use anubis_telemetry as telemetry;

use anubis_nvm::{Block, NvmBackend, PersistenceDomain};

/// The uniform controller surface shared by every scheme.
///
/// A controller owns the NVM persistence domain, the metadata caches and
/// the on-chip persistent registers (tree root, shadow root). The timing
/// simulator drives it op by op, reading [`MemoryController::last_cost`]
/// after each call; crash-recovery experiments call
/// [`MemoryController::crash`] at arbitrary points and then
/// [`MemoryController::recover`].
///
/// Controllers are generic over the [`NvmBackend`] their persistence
/// domain stores blocks in: the default in-memory map for simulation, or
/// a durable file-backed store (see `anubis_nvm::FileBackend`) for
/// restart-survivable images. [`MemoryController::Backend`] names that
/// choice so harnesses stay generic over both.
///
/// Durability across process death is scoped to the operation, not to
/// the commit group: `read`, `write`, `write_batch` and `shutdown_flush`
/// end with exactly one [`PersistenceDomain::barrier`] on every exit, so
/// over a durable backend an operation that returned is on the medium —
/// all of its commit groups in one frame — and a caller may acknowledge
/// it to the outside world the moment the call returns.
///
/// Each of those *fused* operations is two halves back to back, and the
/// halves are callable apart: [`MemoryController::read_deferred`],
/// [`MemoryController::write_deferred`] and
/// [`MemoryController::write_batch_deferred`] execute only, and
/// [`MemoryController::barrier`] makes everything executed so far
/// durable. A caller that serializes controller access behind a lock
/// uses the split to keep the slow half out of the lock and to let one
/// barrier cover several operations (group commit).
pub trait MemoryController {
    /// The storage backend of the controller's persistence domain.
    type Backend: NvmBackend;

    /// Scheme name for reports (e.g. `"agit-plus"`).
    fn scheme_name(&self) -> &'static str;

    /// Reads and decrypts the data line at `addr`, verifying counters
    /// against the integrity tree and data against its MAC.
    ///
    /// # Errors
    ///
    /// [`MemError::Integrity`] on any verification failure;
    /// [`MemError::Nvm`] on device errors (including powered-off).
    fn read(&mut self, addr: DataAddr) -> Result<Block, MemError>;

    /// Encrypts and persists `data` at `addr`, updating counters and the
    /// integrity tree according to the scheme.
    ///
    /// # Errors
    ///
    /// Same classes as [`MemoryController::read`].
    fn write(&mut self, addr: DataAddr, data: Block) -> Result<(), MemError>;

    /// Writes a group of `(addr, data)` lines.
    ///
    /// The default is the scalar loop. Controllers override this to share
    /// commit groups across several writes and to push every data seal of
    /// a group through the batch crypto path in one pass. Overrides must
    /// leave the device in a state bit-identical to the scalar loop (the
    /// `write_batch_equiv` suite holds them to it).
    ///
    /// # Errors
    ///
    /// Same classes as [`MemoryController::write`]; on error, writes
    /// before the failing item may already be persisted (matching the
    /// scalar loop).
    fn write_batch(&mut self, items: &[(DataAddr, Block)]) -> Result<(), MemError> {
        for (addr, data) in items {
            self.write(*addr, *data)?;
        }
        Ok(())
    }

    /// The execute half of [`MemoryController::read`]: verifies and
    /// decrypts the line, commits whatever metadata traffic the fills
    /// caused, and returns **without a durability barrier** — the
    /// records of those commit groups sit in the backend's pending
    /// frame.
    ///
    /// The contract a caller of the deferred operations takes over from
    /// the fused ones, over a durable backend:
    ///
    /// * nothing an operation did may be acknowledged to the outside
    ///   world before a barrier taken *after* it executed has returned
    ///   `Ok` — [`MemoryController::barrier`], or the backend's
    ///   `cut` / `commit` pair with
    ///   [`NvmBackend::ticket`] read
    ///   right after the operation as the epoch to wait for;
    /// * that includes a *read*: the value returned here may come from a
    ///   `write_deferred` that is not durable yet, and must not be shown
    ///   to anyone before that write's barrier (a crash would otherwise
    ///   un-happen data a client already saw). The read's own metadata
    ///   records need no wait: nothing a client sees depends on them,
    ///   and they ride the next barrier;
    /// * barriers are taken between operations, never inside one, so a
    ///   frame holds whole operations in execution order.
    ///
    /// The default is the fused operation, which satisfies all of this
    /// trivially; both controller families override it.
    ///
    /// # Errors
    ///
    /// Same classes as [`MemoryController::read`].
    fn read_deferred(&mut self, addr: DataAddr) -> Result<Block, MemError> {
        self.read(addr)
    }

    /// The execute half of [`MemoryController::write`]; see
    /// [`MemoryController::read_deferred`] for what the caller owes.
    ///
    /// # Errors
    ///
    /// Same classes as [`MemoryController::write`].
    fn write_deferred(&mut self, addr: DataAddr, data: Block) -> Result<(), MemError> {
        self.write(addr, data)
    }

    /// The execute half of [`MemoryController::write_batch`]; see
    /// [`MemoryController::read_deferred`] for what the caller owes.
    ///
    /// # Errors
    ///
    /// Same classes as [`MemoryController::write_batch`].
    fn write_batch_deferred(&mut self, items: &[(DataAddr, Block)]) -> Result<(), MemError> {
        self.write_batch(items)
    }

    /// The durable half: makes every commit group executed so far — by
    /// deferred operations, recovery's direct writes, tamper hooks —
    /// durable as one backend frame, one epoch, one seal. The fused
    /// operations are exactly their deferred half followed by this, on
    /// `Ok` and on `Err`.
    ///
    /// # Errors
    ///
    /// [`MemError::Nvm`] when the medium fails; the backend then refuses
    /// every later barrier, and nothing is retried.
    fn barrier(&mut self) -> Result<(), MemError> {
        Ok(self.domain_mut().barrier()?)
    }

    /// Simulates a power failure: every volatile structure (caches,
    /// shadow-tree interior, write buffers outside the WPQ) is lost; the
    /// device, the WPQ (via ADR) and on-chip persistent registers survive.
    fn crash(&mut self);

    /// Restores power and runs the scheme's recovery algorithm.
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] if the scheme cannot restore a verified state
    /// (e.g. write-back after losing dirty metadata, or detected
    /// tampering).
    fn recover(&mut self) -> Result<RecoveryReport, RecoveryError>;

    /// Gracefully drains all dirty metadata to NVM (orderly shutdown).
    ///
    /// # Errors
    ///
    /// [`MemError::Nvm`] on device errors.
    fn shutdown_flush(&mut self) -> Result<(), MemError>;

    /// Read-only access to the controller's persistence domain — used by
    /// fault-injection campaigns to inspect the lifetime persist-write
    /// counter and by experiments to read device statistics.
    fn domain(&self) -> &PersistenceDomain<Self::Backend>;

    /// Mutable access to the persistence domain — the hook through which
    /// fault-injection campaigns arm [`anubis_nvm::FaultPlan`]s and
    /// tamper experiments corrupt NVM contents.
    fn domain_mut(&mut self) -> &mut PersistenceDomain<Self::Backend>;

    /// Cost of the most recent `read`/`write` call, for the timing model.
    fn last_cost(&self) -> OpCost;

    /// Cumulative costs since construction or the last reset.
    fn total_cost(&self) -> &CostAccum;

    /// Resets cumulative cost counters (e.g. after cache warm-up).
    fn reset_costs(&mut self);

    /// Redirects the controller's observability output to `t` (controllers
    /// default to the process-global registry). Schemes without
    /// instrumentation may ignore the handle.
    fn set_telemetry(&mut self, t: telemetry::Telemetry) {
        let _ = t;
    }

    /// Publishes the controller's current counters (device stats, cache
    /// hit rates, WPQ occupancy, ECC corrections) into its telemetry
    /// registry. Cheap no-op when telemetry is disabled; called by the
    /// simulator at epoch boundaries and end-of-run.
    fn publish_telemetry(&self) {}
}
