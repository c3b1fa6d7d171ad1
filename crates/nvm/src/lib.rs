//! Non-volatile main-memory substrate for the Anubis reproduction.
//!
//! This crate models the *persistence domain* of an NVM-equipped system the
//! way the Anubis paper (ISCA'19, §2.7) assumes it:
//!
//! * [`NvmDevice`] — a sparse, block-addressable (64 B) phase-change-memory
//!   device. Contents survive crashes. Reads/writes are counted per region
//!   for endurance/write-amplification studies.
//! * [`Wpq`] — the Write Pending Queue inside the memory controller. Writes
//!   inserted here are *in the persistent domain*: on power failure the ADR
//!   feature guarantees enough energy to flush the WPQ to the device.
//! * [`PersistentRegisters`] — a small set of on-chip NVM-backed registers
//!   plus a `DONE_BIT`, used for the two-stage REDO commit that makes a
//!   data+metadata update group atomic with respect to crashes.
//! * [`PersistenceDomain`] — ties the three together and exposes the
//!   [`PersistenceDomain::commit_group`] primitive used by every memory
//!   controller scheme in the `anubis` crate, plus [`PersistenceDomain::power_fail`]
//!   for crash injection.
//!
//! Everything *outside* this crate (metadata caches, controller state other
//! than explicitly-persistent registers) is volatile and is lost on a crash.
//!
//! # Example
//!
//! ```
//! use anubis_nvm::{BlockAddr, Block, PersistenceDomain, WriteOp};
//!
//! let mut domain = PersistenceDomain::new(1 << 20); // 1 MiB device
//! let addr = BlockAddr::new(3);
//! domain
//!     .commit_group([WriteOp::new(addr, Block::filled(0xAB))])
//!     .expect("commit fits in the persistent registers");
//! domain.power_fail(); // ADR flushes the WPQ
//! assert_eq!(domain.device().peek(addr), Block::filled(0xAB));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod addr_hash;
mod anchor;
mod backend;
mod block;
mod device;
mod domain;
mod error;
mod fault;
mod file_backend;
mod pregs;
mod quarantine;
mod rng;
mod stats;
mod wal;
mod wpq;

pub use addr::{BlockAddr, Region, RegionAllocator, BLOCK_BYTES};
pub use anchor::{anchor_path_for, AnchorError, AnchorPolicy, Freshness, FreshnessAnchor};
pub use backend::{
    fnv1a64, Cut, Durability, Lead, MemBackend, NvmBackend, WalStats, FNV1A64_EMPTY,
};
pub use block::Block;
pub use device::NvmDevice;
pub use domain::{PersistenceDomain, WriteOp};
pub use error::NvmError;
pub use fault::{FaultKind, FaultPlan, FaultPlanError};
pub use file_backend::{copy_image, home_path_for, FileBackend, CHECKPOINT_BYTES, HOME_SLOT_BYTES};
pub use pregs::{CommitPhase, PersistentRegisters, PREG_CAPACITY};
pub use quarantine::{QuarantineError, RemapTable};
pub use rng::SplitMix64;
pub use stats::{NvmStats, StatsSnapshot};
pub use wal::{encode_wal_frame, WalFault, WalFrame, WalWalker};
pub use wpq::{Wpq, DEFAULT_WPQ_ENTRIES};
