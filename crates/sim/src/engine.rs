//! Trace replay over a memory controller with timing accounting.

use crate::timing::{Channel, TimingModel};
use anubis::telemetry::{percentile_of_sorted, Telemetry};
use anubis::{DataAddr, MemError, MemoryController};
use anubis_workloads::{OpKind, Trace};

/// Telemetry histogram fed one observation per trace op: the op's
/// end-to-end critical-path latency in nanoseconds.
pub const OP_LATENCY_METRIC: &str = "op_latency_ns";

/// Tail summary of the per-op latency stream from one replay.
///
/// Percentiles use the shared nearest-rank convention
/// ([`percentile_of_sorted`]): the reported value is always an observed
/// latency, never an interpolation. All fields are deterministic
/// (simulated time).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of ops summarized.
    pub count: u64,
    /// Mean op latency (ns).
    pub mean_ns: f64,
    /// Median op latency (ns).
    pub p50_ns: u64,
    /// 95th-percentile op latency (ns).
    pub p95_ns: u64,
    /// 99th-percentile op latency (ns).
    pub p99_ns: u64,
    /// Worst op latency (ns).
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a latency stream (order does not matter).
    pub fn of(latencies: &[u64]) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let sum: u64 = sorted.iter().sum();
        LatencySummary {
            count: sorted.len() as u64,
            mean_ns: sum as f64 / sorted.len() as f64,
            p50_ns: percentile_of_sorted(&sorted, 0.50),
            p95_ns: percentile_of_sorted(&sorted, 0.95),
            p99_ns: percentile_of_sorted(&sorted, 0.99),
            max_ns: sorted[sorted.len() - 1],
        }
    }
}

/// The outcome of replaying one trace on one controller.
///
/// All clock fields are integer nanoseconds: the discrete-event engine
/// never accumulates floating point, so identical replays produce
/// bit-identical results.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Scheme name (from the controller).
    pub scheme: &'static str,
    /// Workload name (from the trace).
    pub workload: String,
    /// Simulated wall-clock time for the whole trace (ns).
    pub total_ns: u64,
    /// Time the CPU stalled waiting on reads (ns).
    pub read_stall_ns: u64,
    /// Time the CPU stalled on write-queue back-pressure (ns).
    pub write_stall_ns: u64,
    /// Number of trace operations executed.
    pub ops: usize,
    /// Total NVM block reads issued by the controller.
    pub nvm_reads: u64,
    /// Total NVM block writes issued by the controller.
    pub nvm_writes: u64,
    /// NVM writes per data write (endurance metric).
    pub writes_per_data_write: f64,
    /// Total bank occupancy (ns).
    pub busy_ns: u64,
    /// Total bank-time (ns): `wall clock × banks`, the utilization
    /// denominator.
    pub channel_time_ns: u64,
    /// Tail summary of the per-op latency stream. The mean alone hides
    /// the cost of metadata write bursts — schemes with similar means
    /// can differ several-fold at p99 (see DESIGN.md §13).
    pub latency: LatencySummary,
}

impl RunResult {
    /// Execution time normalized to a baseline result (> 1 means slower).
    pub fn normalized_to(&self, baseline: &RunResult) -> f64 {
        self.total_ns as f64 / baseline.total_ns as f64
    }

    /// Fraction of bank-time spent transferring, in `[0, 1]`; exactly
    /// `0.0` for an empty trace (no NaN).
    pub fn utilization(&self) -> f64 {
        if self.channel_time_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / self.channel_time_ns as f64).clamp(0.0, 1.0)
        }
    }
}

/// Replays `trace` through `controller`, feeding every op's
/// [`anubis::OpCost`] into the discrete-event channel.
///
/// Per-op latencies stream into the [`OP_LATENCY_METRIC`] histogram of
/// the process-global telemetry registry (when enabled) and are
/// summarized in [`RunResult::latency`]; use [`run_trace_latencies`] to
/// get the raw stream.
///
/// # Errors
///
/// Propagates the first [`MemError`] from the controller (which, for a
/// well-formed trace on an untampered memory, indicates a bug — tests
/// rely on that).
pub fn run_trace<C: MemoryController>(
    controller: &mut C,
    trace: &Trace,
    model: &TimingModel,
) -> Result<RunResult, MemError> {
    run_trace_latencies(controller, trace, model).map(|(result, _)| result)
}

/// [`run_trace`] returning the raw per-op latency stream (trace order)
/// alongside the result.
///
/// # Errors
///
/// Same as [`run_trace`].
pub fn run_trace_latencies<C: MemoryController>(
    controller: &mut C,
    trace: &Trace,
    model: &TimingModel,
) -> Result<(RunResult, Vec<u64>), MemError> {
    let mut channel = Channel::new(model);
    let mut latencies = Vec::with_capacity(trace.len());
    let telemetry = Telemetry::global();
    let record = telemetry.enabled();
    for op in trace.ops() {
        channel.advance(u64::from(op.gap_ns));
        match op.kind {
            OpKind::Read => {
                controller.read(DataAddr::new(op.addr.index()))?;
            }
            OpKind::Write => {
                // Deterministic, address-derived payload: contents don't
                // affect timing, but they make post-crash verification in
                // tests meaningful.
                let block = payload(op.addr.index());
                controller.write(DataAddr::new(op.addr.index()), block)?;
            }
        }
        let latency = channel.execute(controller.last_cost());
        latencies.push(latency);
        if record {
            telemetry.observe(OP_LATENCY_METRIC, controller.scheme_name(), latency as f64);
        }
    }
    controller.publish_telemetry();
    channel.drain();
    let totals = *controller.total_cost();
    let result = RunResult {
        scheme: controller.scheme_name(),
        workload: trace.name().to_string(),
        total_ns: channel.finish(),
        read_stall_ns: channel.read_stall_ns,
        write_stall_ns: channel.write_stall_ns,
        ops: trace.len(),
        nvm_reads: totals.nvm_reads,
        nvm_writes: totals.nvm_writes,
        writes_per_data_write: totals.writes_per_data_write().unwrap_or(0.0),
        busy_ns: channel.busy_ns,
        channel_time_ns: channel.channel_time_ns(),
        latency: LatencySummary::of(&latencies),
    };
    Ok((result, latencies))
}

/// Deterministic per-address block contents for trace writes.
pub fn payload(index: u64) -> anubis_nvm::Block {
    anubis_nvm::Block::from_words([
        index,
        index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        !index,
        index.rotate_left(21),
        index ^ 0xABCD_EF01_2345_6789,
        index.wrapping_add(7),
        index << 7,
        index >> 3,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};
    use anubis_workloads::{spec2006, TraceGenerator};

    fn small_trace(n: usize) -> Trace {
        let cfg = AnubisConfig::small_test();
        TraceGenerator::new(spec2006::omnetpp(), cfg.capacity_bytes).generate(n, 3)
    }

    #[test]
    fn replay_produces_time_and_counts() {
        let cfg = AnubisConfig::small_test();
        let mut c = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
        let r = run_trace(&mut c, &small_trace(500), &TimingModel::paper()).unwrap();
        assert_eq!(r.ops, 500);
        assert!(r.total_ns > 0);
        assert!(r.nvm_reads > 0);
        assert_eq!(r.scheme, "osiris");
        assert_eq!(r.workload, "omnetpp");
        assert_eq!(r.latency.count, 500);
        assert!(r.latency.p50_ns <= r.latency.p95_ns);
        assert!(r.latency.p95_ns <= r.latency.p99_ns);
        assert!(r.latency.p99_ns <= r.latency.max_ns);
    }

    #[test]
    fn latency_stream_matches_summary() {
        let cfg = AnubisConfig::small_test();
        let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
        let (r, lats) =
            run_trace_latencies(&mut c, &small_trace(400), &TimingModel::paper()).unwrap();
        assert_eq!(lats.len(), 400);
        assert_eq!(r.latency, LatencySummary::of(&lats));
        assert_eq!(r.latency.max_ns, lats.iter().copied().max().unwrap());
    }

    #[test]
    fn strict_is_slower_than_write_back() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(2_000);
        let model = TimingModel::paper();
        let mut wb = BonsaiController::new(BonsaiScheme::WriteBack, &cfg);
        let base = run_trace(&mut wb, &trace, &model).unwrap();
        let mut strict = BonsaiController::new(BonsaiScheme::StrictPersist, &cfg);
        let s = run_trace(&mut strict, &trace, &model).unwrap();
        assert!(
            s.normalized_to(&base) > 1.0,
            "strict {} vs wb {}",
            s.total_ns,
            base.total_ns
        );
        // The latency-distribution claim behind this PR: strict
        // persistence hurts the tail at least as much as the mean.
        assert!(
            s.latency.p99_ns > base.latency.p99_ns,
            "strict p99 {} vs wb p99 {}",
            s.latency.p99_ns,
            base.latency.p99_ns
        );
    }

    #[test]
    fn sgx_controllers_replay_too() {
        let cfg = AnubisConfig::small_test();
        let mut c = SgxController::new(SgxScheme::Asit, &cfg);
        let r = run_trace(&mut c, &small_trace(500), &TimingModel::paper()).unwrap();
        assert!(r.total_ns > 0);
        assert!(r.writes_per_data_write >= 1.0);
    }

    #[test]
    fn empty_trace_reports_zero_not_nan() {
        let cfg = AnubisConfig::small_test();
        let mut c = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
        let trace = Trace::new("empty", Vec::new());
        let r = run_trace(&mut c, &trace, &TimingModel::paper()).unwrap();
        assert_eq!(r.total_ns, 0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.latency, LatencySummary::default());
        assert!(r.utilization().is_finite());
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(300);
        let model = TimingModel::paper();
        let r1 = run_trace(
            &mut BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
            &trace,
            &model,
        )
        .unwrap();
        let r2 = run_trace(
            &mut BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
            &trace,
            &model,
        )
        .unwrap();
        assert_eq!(r1, r2);
    }
}
