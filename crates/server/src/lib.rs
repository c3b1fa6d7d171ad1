//! # anubis-server — fault-tolerant multi-tenant serving front-end
//!
//! A dependency-free `std::net` TCP server exposing the Anubis
//! [`anubis::MemoryController`] contract (read / write / write-batch /
//! flush / recover / stats) over a length-prefixed, checksummed frame
//! protocol. Each tenant gets its own persistence domain backed by a
//! durable [`anubis_nvm::FileBackend`] image and authenticated by a
//! session token in the handshake.
//!
//! The point of the crate is the *robustness machinery* around the
//! controllers, not the transport:
//!
//! * **Per-request deadlines** — every read/write carries a budget;
//!   blowing it is a typed [`ServeError::DeadlineExceeded`], and the
//!   operation is *not* executed past its deadline.
//! * **No retries** — a controller op is deterministic, so a failed one
//!   is answered at once: integrity failures enter the recovery ladder,
//!   any other failure is a typed [`ServeError::Internal`] that counts
//!   against the circuit breaker.
//! * **Admission control** — a per-tenant in-flight cap and ops/s token
//!   bucket; overload is a typed [`ServeError::Overloaded`] with a
//!   `retry_after_ms` hint, never a silently growing queue.
//! * **Circuit breaking** — repeated faults trip a per-tenant breaker
//!   ([`ServeError::CircuitOpen`]) so a failing domain sheds load.
//! * **Graceful degradation** — while the recovery supervisor runs its
//!   escalation ladder the tenant serves reads from the last verified
//!   state in read-only mode and rejects writes with a typed
//!   [`ServeError::Degraded`]; full service resumes only on a
//!   structured [`anubis::RecoveryOutcome`].
//!
//! See `DESIGN.md` §12 for the architecture and the serving-mode state
//! machine, and the `ANUBIS_SERVE_*` environment table in the README
//! for every knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod client;
pub mod config;
pub mod protocol;
pub mod server;
mod tenant;

pub use admission::{InflightGate, TokenBucket};
pub use breaker::{Breaker, BreakerState};
pub use client::{ClientError, ServeClient};
pub use config::{parse_tenants, ConfigError, ServeConfig, TenantFamily, TenantSpec};
pub use protocol::{
    token_hash, Inject, ProtoError, Request, Response, ServeError, ServeMode, TenantStats,
    PROTO_VERSION,
};
pub use server::{ServeStartError, Server};
pub use tenant::Tenant;
#[doc(hidden)]
pub use tenant::{Executed, ThreadReg, VERIFIED_SLOTS};
