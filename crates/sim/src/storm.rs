//! Crash-storm campaigns: randomized fault plans under *supervised*
//! recovery, including faults injected into recovery itself.
//!
//! Where [`crate::fault`] sweeps a single deterministic fault and asks the
//! scheme's own `recover()` for a verdict, a storm drives the full
//! [`anubis::supervisor`] escalation ladder: every run must terminate in a
//! structured [`anubis::RecoveryOutcome`] (`Recovered`, `Degraded`, or
//! `Quarantined`) — never a panic, never silently wrong data. The checker
//! accepts exactly three states for an acknowledged write after
//! supervision: its committed value, the in-flight value of the one
//! interrupted op, or an explicit zero on a line the supervisor
//! quarantined. Anything else aborts the campaign — as does a *live*
//! read, before the crash, that returns anything but the acknowledged
//! value (the driver and the oracle are [`crate::campaign`]'s, shared
//! with [`crate::fault`]).
//!
//! Each run draws a fresh scripted workload, a fault class (power cut,
//! torn write, bit flip) and an injection point from a [`SplitMix64`]
//! stream seeded per run, so campaigns are reproducible from
//! `(seed, run)` alone. With [`StormConfig::recovery_faults`] set, half
//! the runs additionally arm a device-level *write cut* during recovery —
//! persists silently stop partway through the supervisor's work, the
//! machine is crashed again, and recovery restarts from scratch
//! (recursively, up to three times) before a final uninterrupted attempt.
//!
//! The per-run randomness is a function of `(seed, run)` only and every
//! supervisor rung applies its writes in item order, so the campaign
//! [`StormReport::fingerprint`] is a constant of the configuration —
//! `tests/crash_storm.rs` pins the ones `bench_campaign storm --smoke`
//! prints.
//!
//! Only schemes whose ladder terminates can ride a storm: the Bonsai
//! family (all four schemes) and SGX `StrictPersist`/`Asit`. SGX
//! write-back and Osiris are *structurally* unrecoverable once dirty
//! metadata is lost (paper §3) and fail the campaign by design. Give the
//! controller a generous spare pool
//! (e.g. `AnubisConfig::small_test().with_spare_blocks(256)`) so
//! quarantine never runs out of remap capacity mid-campaign.

use anubis::supervisor::recover;
use anubis::{DataAddr, RecoveryOutcome, Supervised, SupervisedRecovery};
use anubis_nvm::{FaultKind, FaultPlan, SplitMix64};

use crate::campaign::{drive_checked, ReadBack, ScriptOp};
use crate::fault::count_persist_writes;

/// Maximum consecutive crash-during-recovery injections per run before
/// the final, uninterrupted recovery attempt.
const MAX_RECOVERY_CRASHES: u32 = 3;

/// Shape of one crash-storm campaign.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Number of independent runs (one randomized fault plan each).
    pub runs: u64,
    /// Operations per scripted workload.
    pub ops: u64,
    /// Data-line address space the script draws from.
    pub addr_space: u64,
    /// Campaign seed; run `i` derives its stream from `(seed, i)`.
    pub seed: u64,
    /// Arm write cuts *during* recovery on half the runs.
    pub recovery_faults: bool,
}

impl StormConfig {
    /// A small smoke-sized campaign with recovery faults enabled.
    pub fn smoke(seed: u64) -> Self {
        StormConfig {
            runs: 8,
            ops: 16,
            addr_space: 200,
            seed,
            recovery_faults: true,
        }
    }

    /// Overrides the number of runs.
    pub fn with_runs(mut self, runs: u64) -> Self {
        self.runs = runs;
        self
    }
}

/// Aggregate outcome of a crash-storm campaign.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// `scheme_name()` of the controller under test.
    pub scheme: String,
    /// Runs executed.
    pub runs: u64,
    /// Runs that ended `RecoveryOutcome::Recovered`.
    pub recovered: u64,
    /// Runs that ended `RecoveryOutcome::Degraded`.
    pub degraded: u64,
    /// Runs that ended `RecoveryOutcome::Quarantined`.
    pub quarantined: u64,
    /// Total data lines resealed after ECC repair.
    pub repaired_lines: u64,
    /// Total metadata blocks reconstructed.
    pub rebuilt_nodes: u64,
    /// Total lines remapped into the spare region.
    pub quarantined_lines: u64,
    /// Total quarantined lines whose committed content was lost.
    pub lost_lines: u64,
    /// Total ladder escalations across all runs.
    pub escalations_total: u64,
    /// Write cuts that actually fired during recovery attempts.
    pub recovery_faults_injected: u64,
    /// Order-sensitive digest of every run's outcome and repair counts;
    /// a constant of the configuration.
    pub fingerprint: u64,
}

/// Runs a crash-storm campaign against fresh controllers from `make`.
///
/// # Panics
///
/// Panics on any contract violation: wrong data served for an
/// acknowledged write, a post-supervision read error, an unexpected live
/// error, or a supervised recovery that fails outright.
pub fn crash_storm<C, F>(make: F, cfg: &StormConfig) -> StormReport
where
    C: Supervised,
    F: Fn() -> C,
{
    assert!(cfg.runs > 0, "a storm needs at least one run");
    assert!(cfg.ops > 0, "a storm script needs at least one op");
    assert!(cfg.addr_space > 0, "the address space must be non-empty");
    let mut report = StormReport {
        scheme: make().scheme_name().to_string(),
        runs: cfg.runs,
        recovered: 0,
        degraded: 0,
        quarantined: 0,
        repaired_lines: 0,
        rebuilt_nodes: 0,
        quarantined_lines: 0,
        lost_lines: 0,
        escalations_total: 0,
        recovery_faults_injected: 0,
        fingerprint: mix(0xA17B_0B15_5707_12C4, cfg.seed),
    };
    for run in 0..cfg.runs {
        let mut rng = SplitMix64::new(cfg.seed ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let script = random_script(&mut rng, cfg.ops, cfg.addr_space);
        let total = count_persist_writes(&make, &script);
        let k = rng.next_u64() % total.max(1);
        let plan = random_plan(&mut rng, k);
        let one = storm_run(&make, &script, plan, cfg, &mut rng);
        match one.sup.outcome {
            RecoveryOutcome::Recovered => report.recovered += 1,
            RecoveryOutcome::Degraded { .. } => report.degraded += 1,
            RecoveryOutcome::Quarantined { .. } => report.quarantined += 1,
        }
        report.repaired_lines += one.sup.repaired_lines;
        report.rebuilt_nodes += one.sup.rebuilt_nodes;
        report.quarantined_lines += one.sup.quarantined_lines;
        report.lost_lines += one.sup.lost_lines;
        report.escalations_total += u64::from(one.sup.escalations);
        report.recovery_faults_injected += u64::from(one.recovery_crashes);
        for v in [
            run,
            outcome_rank(&one.sup.outcome),
            one.sup.repaired_lines,
            one.sup.rebuilt_nodes,
            one.sup.quarantined_lines,
            one.sup.lost_lines,
            u64::from(one.sup.escalations),
            u64::from(one.recovery_crashes),
        ] {
            report.fingerprint = mix(report.fingerprint, v);
        }
    }
    report
}

struct RunOutcome {
    sup: SupervisedRecovery,
    recovery_crashes: u32,
}

/// One storm run: execute the script with `plan` armed, crash, drive
/// supervised recovery (optionally interrupted by write cuts), then hold
/// the post-supervision state to the acknowledged-write contract.
fn storm_run<C, F>(
    make: &F,
    script: &[ScriptOp],
    plan: FaultPlan,
    cfg: &StormConfig,
    rng: &mut SplitMix64,
) -> RunOutcome
where
    C: Supervised,
    F: Fn() -> C,
{
    // Power cuts leave media intact; the detection-only classes may
    // legitimately surface typed corruption errors on live ops.
    let lenient = !matches!(plan.kind(), FaultKind::PowerCut);
    let label = format!("{plan:?}");

    let mut ctrl = make();
    ctrl.domain_mut().arm_fault(plan);

    // Damage detected live stops the workload like a power loss does:
    // either way the machine goes to the supervisor below.
    let (model, _) = drive_checked(&mut ctrl, script, lenient, &label);

    ctrl.crash();
    // Crash-during-recovery: arm a write cut so device persists silently
    // stop partway through the supervisor's work, then power-fail and
    // restart the ladder from scratch. The final attempt always runs
    // uninterrupted so every run terminates.
    let mut recovery_crashes = 0u32;
    let mut result = None;
    if cfg.recovery_faults && rng.next_u64().is_multiple_of(2) {
        for _ in 0..MAX_RECOVERY_CRASHES {
            let cut_after = 1 + rng.next_u64() % 256;
            ctrl.domain_mut().device_mut().arm_write_cut(cut_after);
            let attempt = recover(&mut ctrl);
            let fired = ctrl.domain().device().write_cut_fired();
            ctrl.domain_mut().device_mut().clear_write_cut();
            if fired {
                // Whatever `attempt` said is void: persists were dropped
                // behind the supervisor's back. Crash and start over.
                recovery_crashes += 1;
                ctrl.crash();
                continue;
            }
            result = Some(attempt);
            break;
        }
    }
    let result = match result {
        Some(r) => r,
        None => recover(&mut ctrl),
    };
    let sup =
        result.unwrap_or_else(|e| panic!("[{label}] supervised recovery must terminate, got: {e}"));

    // The contract: every acknowledged write reads back as its committed
    // value, the in-flight value (one interrupted op only), or an
    // explicit zero on a quarantined line. The supervisor's scrub scans
    // with full `read()` verification, so a read *error* here means the
    // ladder lied about converging.
    let findings = model.audit(
        &mut ctrl,
        |c, addr| c.read(DataAddr::new(addr)),
        |c, addr, got| got.is_zeroed() && c.is_line_quarantined(DataAddr::new(addr)),
    );
    for found in findings {
        let addr = found.addr;
        match found.readback {
            ReadBack::Matched | ReadBack::InFlight | ReadBack::Excused => {}
            ReadBack::Wrong { .. } => panic!(
                "[{label}] post-supervision read of acknowledged addr {addr} returned \
                 wrong data (not committed, not in-flight, not quarantined-zero)"
            ),
            ReadBack::Failed(e) => panic!(
                "[{label}] post-supervision read of addr {addr} failed: {e} \
                 (outcome was {}, every line must stay readable)",
                sup.outcome
            ),
        }
    }

    RunOutcome {
        sup,
        recovery_crashes,
    }
}

/// A random script: 2/3 writes, addresses split between a 64-line hot set
/// (forcing overwrites and shared metadata) and the full space. The first
/// op is always a write so every script persists something.
fn random_script(rng: &mut SplitMix64, ops: u64, addr_space: u64) -> Vec<ScriptOp> {
    let hot = addr_space.min(64);
    (0..ops)
        .map(|i| {
            let is_write = i == 0 || rng.next_u64() % 3 != 2;
            let addr = if rng.next_u64().is_multiple_of(2) {
                rng.next_u64() % hot
            } else {
                rng.next_u64() % addr_space
            };
            (is_write, addr)
        })
        .collect()
}

/// A random fault plan firing on the `k`-th counted persist write: power
/// cut, torn write (1..=7 torn words), or bit flip (1..=4 random bits).
fn random_plan(rng: &mut SplitMix64, k: u64) -> FaultPlan {
    match rng.next_u64() % 3 {
        0 => FaultPlan::power_cut_after(k),
        1 => FaultPlan::torn_write_after(k, 1 + (rng.next_u64() % 7) as usize),
        _ => {
            let n = 1 + (rng.next_u64() % 4) as usize;
            let bits: Vec<usize> = (0..n).map(|_| (rng.next_u64() % 512) as usize).collect();
            FaultPlan::bit_flip_after(k, bits)
        }
    }
}

fn outcome_rank(outcome: &RecoveryOutcome) -> u64 {
    match outcome {
        RecoveryOutcome::Recovered => 0,
        RecoveryOutcome::Degraded { .. } => 1,
        RecoveryOutcome::Quarantined { .. } => 2,
    }
}

/// SplitMix64-style finalizer folding `v` into a running digest.
fn mix(fp: u64, v: u64) -> u64 {
    let mut x = fp ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};

    fn config() -> AnubisConfig {
        AnubisConfig::small_test().with_spare_blocks(256)
    }

    #[test]
    fn storm_bonsai_agit_plus_fingerprint_is_pinned() {
        let cfg = StormConfig::smoke(0xA5).with_runs(5);
        let make = || BonsaiController::new(BonsaiScheme::AgitPlus, &config());
        let one = crash_storm(make, &cfg);
        assert_eq!(one.recovered + one.degraded + one.quarantined, one.runs);
        assert_eq!(one.fingerprint, 0xde2a_cd78_6e79_3e70);
    }

    #[test]
    fn storm_sgx_asit_fingerprint_is_pinned() {
        let cfg = StormConfig::smoke(0x51).with_runs(5);
        let make = || SgxController::new(SgxScheme::Asit, &config());
        let one = crash_storm(make, &cfg);
        assert_eq!(one.recovered + one.degraded + one.quarantined, one.runs);
        assert_eq!(one.fingerprint, 0x19a4_552c_2819_08fe);
    }

    #[test]
    fn storm_osiris_terminates_structured() {
        let cfg = StormConfig::smoke(0x05).with_runs(4);
        let make = || BonsaiController::new(BonsaiScheme::Osiris, &config());
        let report = crash_storm(make, &cfg);
        assert_eq!(
            report.recovered + report.degraded + report.quarantined,
            report.runs
        );
    }
}
