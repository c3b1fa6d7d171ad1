//! Reusable experiment drivers for the paper's figures.
//!
//! The `reproduce` binary in `anubis-bench` renders every figure and
//! table from these functions; integration tests and the benchmark
//! ledger call the same functions at their own scales.

use crate::engine::{run_trace, RunResult};
use crate::timing::TimingModel;
use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, MemError, MemoryController, SgxController,
    SgxScheme,
};
use anubis_workloads::{Trace, TraceGenerator, WorkloadSpec};

/// How many trace operations a figure run replays per workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Measured operations per (workload, scheme) run.
    pub ops: usize,
    /// Warm-up operations replayed before measurement starts (cost
    /// counters and cache statistics reset afterwards) — the analogue of
    /// the paper's fast-forward to a representative region.
    pub warmup_ops: usize,
    /// RNG seed for trace generation.
    pub seed: u64,
}

impl Scale {
    /// Full-figure scale (the committed `results/`).
    pub fn full() -> Self {
        Scale {
            ops: 200_000,
            warmup_ops: 20_000,
            seed: 1907,
        }
    }

    /// Reduced scale for integration tests and `results/smoke/`.
    pub fn smoke() -> Self {
        Scale {
            ops: 3_000,
            warmup_ops: 500,
            seed: 1907,
        }
    }
}

/// Splits a trace into its warm-up prefix and its measured suffix.
fn split_trace(trace: &Trace, scale: Scale) -> (Trace, Trace) {
    let (warm, measured) = trace.ops().split_at(scale.warmup_ops.min(trace.len()));
    let part = |ops: &[_]| Trace::new(trace.name(), ops.to_vec());
    (part(warm), part(measured))
}

/// Warms a controller on the prefix, resets its statistics, and replays
/// the measured suffix through the timing model.
///
/// # Errors
///
/// Propagates controller errors.
pub fn run_measured<C: MemoryController>(
    controller: &mut C,
    trace: &Trace,
    model: &TimingModel,
    scale: Scale,
) -> Result<RunResult, MemError> {
    let (warm, measured) = split_trace(trace, scale);
    if !warm.is_empty() {
        run_trace(controller, &warm, model)?;
        controller.reset_costs();
    }
    run_trace(controller, &measured, model)
}

/// One workload's results across one family's schemes: a Figure 10 row
/// ([`bonsai_row`]) or a Figure 11 row ([`sgx_row`]).
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Results per scheme, in [`BonsaiScheme::all`] or [`SgxScheme::all`]
    /// order (write-back first).
    pub results: Vec<RunResult>,
}

impl Row {
    /// Normalized execution time per scheme (write-back = 1.0).
    pub fn normalized(&self) -> Vec<f64> {
        let base = &self.results[0];
        self.results.iter().map(|r| r.normalized_to(base)).collect()
    }
}

/// A measured run's trace: the warm-up prefix and the measured ops.
fn warm_trace(spec: &WorkloadSpec, config: &AnubisConfig, scale: Scale) -> Trace {
    TraceGenerator::new(spec.clone(), config.capacity_bytes)
        .generate(scale.ops + scale.warmup_ops, scale.seed)
}

/// `spec`'s row from its per-scheme runs.
fn collect_row(
    spec: &WorkloadSpec,
    runs: impl Iterator<Item = Result<RunResult, MemError>>,
) -> Result<Row, MemError> {
    Ok(Row {
        workload: spec.name.to_string(),
        results: runs.collect::<Result<_, _>>()?,
    })
}

/// Runs one workload through every Bonsai scheme (one Figure 10 row).
///
/// # Errors
///
/// Propagates controller errors (indicating a harness bug).
pub fn bonsai_row(
    spec: &WorkloadSpec,
    config: &AnubisConfig,
    model: &TimingModel,
    scale: Scale,
) -> Result<Row, MemError> {
    let trace = warm_trace(spec, config, scale);
    let run = |s| run_measured(&mut BonsaiController::new(s, config), &trace, model, scale);
    collect_row(spec, BonsaiScheme::all().into_iter().map(run))
}

/// Runs one workload through every SGX scheme (one Figure 11 row).
///
/// # Errors
///
/// Propagates controller errors (indicating a harness bug).
pub fn sgx_row(
    spec: &WorkloadSpec,
    config: &AnubisConfig,
    model: &TimingModel,
    scale: Scale,
) -> Result<Row, MemError> {
    let trace = warm_trace(spec, config, scale);
    let run = |s| run_measured(&mut SgxController::new(s, config), &trace, model, scale);
    collect_row(spec, SgxScheme::all().into_iter().map(run))
}

/// Geometric mean of normalized overheads across rows (the "GEOMEAN" bar
/// in the paper's figures).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty set");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Clean-eviction fraction of the counter cache for one workload
/// (a Figure 7 bar). Uses the write-back baseline, as the paper does.
///
/// # Errors
///
/// Propagates controller errors.
pub fn clean_eviction_fraction(
    spec: &WorkloadSpec,
    config: &AnubisConfig,
    scale: Scale,
) -> Result<Option<f64>, MemError> {
    let trace = warm_trace(spec, config, scale);
    let mut ctrl = BonsaiController::new(BonsaiScheme::WriteBack, config);
    run_measured(&mut ctrl, &trace, &TimingModel::paper(), scale)?;
    Ok(ctrl.counter_cache_stats().clean_eviction_fraction())
}

/// A cache-size sweep point for Figure 13: normalized execution time of
/// each recoverable scheme at one cache size.
#[derive(Clone, Debug)]
pub struct SensitivityPoint {
    /// Per-side cache size in bytes (counter and tree caches each).
    pub cache_bytes: usize,
    /// (scheme name, normalized-to-write-back-at-same-size) pairs.
    pub normalized: Vec<(&'static str, f64)>,
    /// Raw write-back time at this size (for absolute-improvement plots).
    pub write_back_ns: f64,
}

/// Runs the Figure 13 sensitivity sweep for one workload.
///
/// # Errors
///
/// Propagates controller errors.
pub fn cache_sensitivity(
    spec: &WorkloadSpec,
    base_config: &AnubisConfig,
    cache_sizes: &[usize],
    model: &TimingModel,
    scale: Scale,
) -> Result<Vec<SensitivityPoint>, MemError> {
    let mut points = Vec::with_capacity(cache_sizes.len());
    for &bytes in cache_sizes {
        let config = base_config.clone().with_cache_bytes(bytes);
        let trace = warm_trace(spec, &config, scale);
        let mut wb = BonsaiController::new(BonsaiScheme::WriteBack, &config);
        let base = run_measured(&mut wb, &trace, model, scale)?;
        let mut normalized = Vec::new();
        for scheme in [BonsaiScheme::AgitRead, BonsaiScheme::AgitPlus] {
            let mut ctrl = BonsaiController::new(scheme, &config);
            let r = run_measured(&mut ctrl, &trace, model, scale)?;
            normalized.push((scheme.name(), r.normalized_to(&base)));
        }
        // ASIT normalizes to the SGX write-back baseline at the same size.
        let mut sgx_wb = SgxController::new(SgxScheme::WriteBack, &config);
        let sgx_base = run_measured(&mut sgx_wb, &trace, model, scale)?;
        let mut asit = SgxController::new(SgxScheme::Asit, &config);
        let r = run_measured(&mut asit, &trace, model, scale)?;
        normalized.push((SgxScheme::Asit.name(), r.normalized_to(&sgx_base)));
        points.push(SensitivityPoint {
            cache_bytes: bytes,
            normalized,
            write_back_ns: base.total_ns as f64,
        });
    }
    Ok(points)
}

/// Executes a live crash + recovery for one scheme at one cache size and
/// returns the measured recovery report (Figure 12's executed companion).
///
/// # Errors
///
/// Returns harness errors; recovery failures panic (they indicate bugs at
/// this scale).
pub fn measured_recovery(
    spec: &WorkloadSpec,
    config: &AnubisConfig,
    scale: Scale,
    agit: bool,
) -> Result<anubis::RecoveryReport, MemError> {
    let trace =
        TraceGenerator::new(spec.clone(), config.capacity_bytes).generate(scale.ops, scale.seed);
    // (No warm-up split here: recovery work depends on the cache contents
    // at crash time, which any prefix provides equally well.)
    if agit {
        let mut ctrl = BonsaiController::new(BonsaiScheme::AgitPlus, config);
        run_trace(&mut ctrl, &trace, &TimingModel::paper())?;
        ctrl.crash();
        Ok(ctrl.recover().expect("AGIT recovery at test scale"))
    } else {
        let mut ctrl = SgxController::new(SgxScheme::Asit, config);
        run_trace(&mut ctrl, &trace, &TimingModel::paper())?;
        ctrl.crash();
        Ok(ctrl.recover().expect("ASIT recovery at test scale"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_workloads::spec2006;

    fn cfg() -> AnubisConfig {
        AnubisConfig::small_test()
    }

    #[test]
    fn bonsai_row_ordering_holds_at_smoke_scale() {
        let row = bonsai_row(
            &spec2006::libquantum(),
            &cfg(),
            &TimingModel::paper(),
            Scale::smoke(),
        )
        .unwrap();
        let n = row.normalized();
        assert_eq!(n[0], 1.0);
        // Strict must be the slowest; every Anubis variant must beat it.
        assert!(
            n[1] > n[3] && n[1] > n[4],
            "strict {} vs agit {} {}",
            n[1],
            n[3],
            n[4]
        );
        assert!(n[2] >= 0.99, "osiris ~ baseline: {}", n[2]);
    }

    #[test]
    fn sgx_row_ordering_holds_at_smoke_scale() {
        let row = sgx_row(
            &spec2006::lbm(),
            &cfg(),
            &TimingModel::paper(),
            Scale::smoke(),
        )
        .unwrap();
        let n = row.normalized();
        assert_eq!(n[0], 1.0);
        assert!(n[1] > n[3], "strict {} must exceed asit {}", n[1], n[3]);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }

    #[test]
    fn clean_eviction_fraction_in_range() {
        let f = clean_eviction_fraction(&spec2006::mcf(), &cfg(), Scale::smoke()).unwrap();
        if let Some(f) = f {
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn measured_recovery_runs_both_families() {
        let agit = measured_recovery(&spec2006::milc(), &cfg(), Scale::smoke(), true).unwrap();
        assert!(agit.total_ops() > 0);
        let asit = measured_recovery(&spec2006::milc(), &cfg(), Scale::smoke(), false).unwrap();
        assert!(asit.total_ops() > 0);
    }
}
