//! Synthetic memory-trace workloads for the Anubis reproduction.
//!
//! The paper stresses its schemes with 11 memory-intensive SPEC CPU2006
//! applications run under gem5. SPEC binaries cannot be redistributed, so
//! this crate generates *synthetic LLC-miss traces* whose knobs —
//! read/write mix, footprint, page-level locality skew, streaming vs
//! random access, and write-rehit behaviour — are set per application to
//! match the paper's qualitative descriptions (§6.1: MCF read-intensive,
//! LBM write-intensive with few reads, LIBQUANTUM the most write-intensive
//! while also reading heavily, ...) plus published SPEC memory
//! characterizations. See `DESIGN.md` for the substitution rationale.
//!
//! Traces are deterministic given `(spec, seed, n_ops)`.
//!
//! # Example
//!
//! ```
//! use anubis_workloads::{spec2006, TraceGenerator};
//! let spec = spec2006::mcf();
//! let trace = TraceGenerator::new(spec, 16 << 30).generate(10_000, 42);
//! assert_eq!(trace.len(), 10_000);
//! assert!(trace.read_fraction() > 0.8, "mcf is read-intensive");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod trace;
mod zipf;

pub mod spec2006;

pub use generator::{TraceGenerator, WorkloadSpec};
pub use trace::{MemOp, OpKind, Trace};
pub use zipf::Zipf;
