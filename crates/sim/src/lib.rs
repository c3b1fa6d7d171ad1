//! Trace-driven timing simulation and experiment harness.
//!
//! This crate converts the per-operation [`anubis::OpCost`]s reported by
//! the memory controllers into wall-clock execution time, standing in for
//! the cycle-level gem5 simulation the paper used. The model
//! (see [`TimingModel`]) is a banked PCM channel with the paper's Table 1
//! latencies (read 60 ns, write 150 ns), driven by a deterministic
//! discrete-event engine on an integer-nanosecond clock: reads stall the
//! CPU and schedule with priority over queued writes, writes are posted
//! through a bounded write-pending queue whose back-pressure stalls the
//! CPU only when full, and bank conflicts serialize — exactly the
//! mechanisms that make write-amplifying schemes (strict persistence)
//! slow, visibly *more* so at p99 than in the mean, and shadow-table
//! schemes (Anubis) nearly free. Every replay reports the per-op latency
//! distribution ([`LatencySummary`]: p50/p95/p99), not just totals.
//!
//! What is deliberately *not* modeled: row buffers, the on-chip cache
//! hierarchy above the LLC (traces are LLC-miss streams), and
//! instruction-level overlap. Figures 10/11/13 report overheads
//! *normalized to the write-back baseline on the same trace*, which this
//! level of abstraction preserves (see DESIGN.md §13).
//!
//! # Example
//!
//! ```
//! use anubis::{AnubisConfig, BonsaiController, BonsaiScheme};
//! use anubis_sim::{run_trace, TimingModel};
//! use anubis_workloads::{spec2006, TraceGenerator};
//!
//! let config = AnubisConfig::small_test();
//! let trace = TraceGenerator::new(spec2006::xalancbmk(), config.capacity_bytes)
//!     .generate(2_000, 7);
//! let mut ctrl = BonsaiController::new(BonsaiScheme::AgitPlus, &config);
//! let result = run_trace(&mut ctrl, &trace, &TimingModel::paper()).unwrap();
//! assert!(result.total_ns > 0);
//! assert!(result.latency.p99_ns >= result.latency.p50_ns);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod endurance;
mod engine;
mod event;
mod report;
mod timing;

pub mod adversary;
pub mod campaign;
pub mod drill;
pub mod experiments;
pub mod fault;
pub mod serve;
pub mod storm;

pub use endurance::EnduranceModel;
pub use engine::{
    payload, run_trace, run_trace_latencies, LatencySummary, RunResult, OP_LATENCY_METRIC,
};
pub use fault::{
    bit_flip_sweep, count_persist_writes, op_payload, power_cut_sweep, run_with_fault,
    torn_write_sweep, CampaignReport, FaultVerdict, ScriptOp,
};
pub use report::Table;
pub use storm::{crash_storm, StormConfig, StormReport};
pub use timing::TimingModel;
