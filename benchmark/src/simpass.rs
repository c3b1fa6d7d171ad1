//! The simulated half of the ledger: the paper's two experiments,
//! replayed in-process (`MemBackend`) on the discrete-event timing
//! engine. Everything here is simulated time or a count and repeats
//! exactly for a seed.
//!
//! * Overhead (Fig. 10/11): `mcf` (read-intensive), `lbm`
//!   (write-intensive) and `libquantum` (both) on
//!   `AnubisConfig::paper()`, through the write-back baseline and the
//!   Anubis scheme of each tree family — per trace exactly what
//!   `fig10_agit_performance` / `fig11_asit_performance` run.
//! * Recovery (Fig. 12's executed companion): the configuration and
//!   trace of `bench_recovery` (`small_test()` with 32 MiB capacity and
//!   32 KiB caches, dirtying `milc` ops), then crash and recover,
//!   counting the recovery's operations at 100 ns each.
//!
//! Every workload reports both, because the benchmark contract wants
//! every end-to-end metric from every workload. `replay_spec` runs the
//! overhead experiment at `experiments::Scale::full()` and
//! `crash_recover` the recovery experiment at `bench_recovery`'s scale;
//! everywhere else they run at a tenth of that, as a replica that costs
//! a fraction of a second. A read-only served stream replayed here
//! instead would give both Anubis schemes nothing to do: overhead
//! exactly 0 and a recovery that does not depend on the seed.

use std::time::Instant;

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, MemoryController, RecoveryReport, SgxController,
    SgxScheme,
};
use anubis_sim::experiments::{measured_recovery, Scale};
use anubis_sim::{run_trace, run_trace_latencies, RunResult, TimingModel};
use anubis_workloads::{spec2006, Trace, TraceGenerator};

use crate::stats;

pub struct SimInput {
    pub config: AnubisConfig,
    pub traces: Vec<Trace>,
    /// Leading ops of each trace replayed before statistics start.
    pub warmup: usize,
}

/// One tree family: its Anubis scheme against its write-back baseline.
pub struct FamilySim {
    /// Geomean over traces of scheme `total_ns` ÷ baseline `total_ns`.
    pub slowdown: f64,
    /// Mean latency of the slowest 1 % of ops, pooled over the traces.
    /// The nearest-rank p99 is one of a handful of integers and reads
    /// identical for many seeds; the mean beyond it moves with every
    /// op in the tail.
    pub tail_ns: f64,
    /// Nearest-rank p99 of the same pool.
    pub p99_ns: f64,
    pub samples: usize,
    /// Mean over traces of `RecoveryReport::estimated_ns`, in ms.
    pub recovery_ms: f64,
    /// Mean over traces of `RecoveryReport::total_ops`.
    pub recovery_ops: f64,
    /// Median host µs of one `recover()` call.
    pub recover_host_us: f64,
    /// The scheme's measured-region results, one per trace.
    pub runs: Vec<RunResult>,
    /// Metadata-cache hit ratios after the last trace (counter, tree)
    /// for Bonsai, (combined, combined) for SGX.
    pub hit_ratios: (f64, f64),
    /// Host ns per op of the scheme's `run_trace` calls.
    pub engine_host_ns_per_op: f64,
}

pub struct SimOutput {
    pub agit_plus: FamilySim,
    pub asit: FamilySim,
}

struct SchemeRun {
    result: RunResult,
    latencies: Vec<u64>,
    recovery: Option<RecoveryReport>,
    recover_host_us: f64,
    hit_ratios: (f64, f64),
    host_ns: u128,
}

fn split(trace: &Trace, warmup: usize) -> (Trace, Trace) {
    let cut = warmup.min(trace.len());
    (
        Trace::new(trace.name(), trace.ops()[..cut].to_vec()),
        Trace::new(trace.name(), trace.ops()[cut..].to_vec()),
    )
}

/// Warm-up, reset, measured replay (the sequence of
/// `anubis_sim::experiments::run_measured`), then crash and recover
/// when `recoverable`.
fn run_scheme<C: MemoryController>(
    mut ctrl: C,
    trace: &Trace,
    warmup: usize,
    recoverable: bool,
    hit_ratios: impl Fn(&C) -> (f64, f64),
) -> Result<SchemeRun, String> {
    let model = TimingModel::paper();
    let (warm, measured) = split(trace, warmup);
    let t = Instant::now();
    if !warm.is_empty() {
        run_trace(&mut ctrl, &warm, &model).map_err(|e| format!("warm-up replay: {e}"))?;
        ctrl.reset_costs();
    }
    let (result, latencies) = run_trace_latencies(&mut ctrl, &measured, &model)
        .map_err(|e| format!("measured replay of {}: {e}", trace.name()))?;
    let host_ns = t.elapsed().as_nanos();
    let ratios = hit_ratios(&ctrl);
    let (recovery, recover_host_us) = if recoverable {
        ctrl.crash();
        let t = Instant::now();
        let report = ctrl
            .recover()
            .map_err(|e| format!("recovery after {}: {e}", trace.name()))?;
        (Some(report), t.elapsed().as_secs_f64() * 1e6)
    } else {
        (None, 0.0)
    };
    Ok(SchemeRun {
        result,
        latencies,
        recovery,
        recover_host_us,
        hit_ratios: ratios,
        host_ns,
    })
}

fn family(
    input: &SimInput,
    run: impl Fn(&Trace, bool) -> Result<SchemeRun, String>,
) -> Result<FamilySim, String> {
    let mut ratios = Vec::new();
    let mut pooled: Vec<f64> = Vec::new();
    let mut recoveries = Vec::new();
    let mut recover_host = Vec::new();
    let mut runs = Vec::new();
    let mut hit_ratios = (0.0, 0.0);
    let (mut host_ns, mut ops) = (0u128, 0usize);
    for trace in &input.traces {
        let base = run(trace, false)?;
        let scheme = run(trace, true)?;
        ratios.push(scheme.result.total_ns as f64 / base.result.total_ns as f64);
        pooled.extend(scheme.latencies.iter().map(|l| *l as f64));
        recoveries.push(scheme.recovery.expect("recoverable scheme"));
        recover_host.push(scheme.recover_host_us);
        hit_ratios = scheme.hit_ratios;
        host_ns += scheme.host_ns;
        ops += trace.len();
        runs.push(scheme.result);
    }
    pooled.sort_unstable_by(f64::total_cmp);
    let tail = &pooled[pooled.len() - pooled.len().div_ceil(100)..];
    let n = recoveries.len() as f64;
    Ok(FamilySim {
        slowdown: stats::geomean(&ratios),
        tail_ns: tail.iter().sum::<f64>() / tail.len() as f64,
        p99_ns: stats::percentile(&pooled, 0.99),
        samples: pooled.len(),
        recovery_ms: recoveries
            .iter()
            .map(|r| r.estimated_ns() as f64)
            .sum::<f64>()
            / n
            / 1e6,
        recovery_ops: recoveries.iter().map(|r| r.total_ops() as f64).sum::<f64>() / n,
        recover_host_us: stats::median(&mut recover_host),
        runs,
        hit_ratios,
        engine_host_ns_per_op: host_ns as f64 / ops.max(1) as f64,
    })
}

/// Runs both families, one thread each.
///
/// # Errors
///
/// The first controller or recovery error, which on a well-formed
/// trace over untampered memory is a bug in the measured code.
pub fn sim_pass(input: &SimInput) -> Result<SimOutput, String> {
    let bonsai = |trace: &Trace, anubis: bool| {
        let scheme = if anubis {
            BonsaiScheme::AgitPlus
        } else {
            BonsaiScheme::WriteBack
        };
        run_scheme(
            BonsaiController::new(scheme, &input.config),
            trace,
            input.warmup,
            anubis,
            |c| {
                (
                    c.counter_cache_stats().hit_rate().unwrap_or(0.0),
                    c.tree_cache_stats().hit_rate().unwrap_or(0.0),
                )
            },
        )
    };
    let sgx = |trace: &Trace, anubis: bool| {
        let scheme = if anubis {
            SgxScheme::Asit
        } else {
            SgxScheme::WriteBack
        };
        run_scheme(
            SgxController::new(scheme, &input.config),
            trace,
            input.warmup,
            anubis,
            |c| {
                let r = c.cache_stats().hit_rate().unwrap_or(0.0);
                (r, r)
            },
        )
    };
    let (agit_plus, asit) = std::thread::scope(|s| {
        let a = s.spawn(|| family(input, bonsai));
        let b = s.spawn(|| family(input, sgx));
        (a.join(), b.join())
    });
    Ok(SimOutput {
        agit_plus: agit_plus.map_err(|_| "bonsai simulation thread panicked".to_string())??,
        asit: asit.map_err(|_| "sgx simulation thread panicked".to_string())??,
    })
}

/// `experiments::Scale::full()`: measured and warm-up ops per trace.
pub const OVERHEAD_OPS: usize = 200_000;
pub const OVERHEAD_WARMUP: usize = 20_000;
/// `bench_recovery`: dirtying ops before the crash, and how often the
/// crash is repeated on fresh controllers at full scale.
pub const RECOVERY_OPS: usize = 40_000;
const RECOVERY_REPS: usize = 5;

/// The overhead experiment at `1/div` of full scale.
pub fn overhead_input(seed: u64, div: usize) -> SimInput {
    let config = AnubisConfig::paper();
    let traces = [spec2006::mcf(), spec2006::lbm(), spec2006::libquantum()]
        .into_iter()
        .map(|spec| {
            TraceGenerator::new(spec, config.capacity_bytes)
                .generate((OVERHEAD_OPS + OVERHEAD_WARMUP) / div, seed)
        })
        .collect();
    SimInput {
        config,
        traces,
        warmup: OVERHEAD_WARMUP / div,
    }
}

pub fn recovery_config() -> AnubisConfig {
    AnubisConfig::small_test()
        .with_capacity(32 << 20)
        .with_cache_bytes(32 << 10)
}

/// The recovery experiment at `1/div` of `bench_recovery`'s scale.
pub fn recovery_input(seed: u64, div: usize) -> SimInput {
    let config = recovery_config();
    let trace = TraceGenerator::new(spec2006::milc(), config.capacity_bytes)
        .generate(RECOVERY_OPS / div, seed);
    SimInput {
        config,
        traces: vec![trace],
        warmup: 0,
    }
}

/// Both experiments of one run.
pub struct PaperNumbers {
    pub overhead: SimOutput,
    pub recovery: SimOutput,
    /// Crash repetitions whose operation count was compared with the
    /// first, and how many differed.
    pub repeats_checked: u64,
    pub repeats_differed: u64,
}

/// Runs the overhead experiment at `1/overhead_div` and the recovery
/// experiment at `1/recovery_div`; at full recovery scale the crash is
/// repeated on fresh controllers and must count the same operations.
///
/// # Errors
///
/// See [`sim_pass`].
pub fn paper_pass(
    seed: u64,
    overhead_div: usize,
    recovery_div: usize,
) -> Result<PaperNumbers, String> {
    let overhead = sim_pass(&overhead_input(seed, overhead_div))?;
    let recovery = sim_pass(&recovery_input(seed, recovery_div))?;
    let (mut checked, mut differed) = (0, 0);
    if recovery_div == 1 {
        let scale = Scale {
            ops: RECOVERY_OPS,
            warmup_ops: 0,
            seed,
        };
        for (agit, first) in [(true, &recovery.agit_plus), (false, &recovery.asit)] {
            for rep in 1..RECOVERY_REPS {
                let r = measured_recovery(&spec2006::milc(), &recovery_config(), scale, agit)
                    .map_err(|e| format!("recovery repetition {rep}: {e}"))?;
                checked += 1;
                differed += u64::from(r.total_ops() as f64 != first.recovery_ops);
            }
        }
    }
    Ok(PaperNumbers {
        overhead,
        recovery,
        repeats_checked: checked,
        repeats_differed: differed,
    })
}
