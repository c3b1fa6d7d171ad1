//! Fault-injection campaigns: sweep deterministic faults over a scripted
//! workload and verify the recovery contract at every injection point.
//!
//! The contract under test is the one the Anubis paper's recovery
//! algorithms promise (and the one `tests/crash_matrix.rs` checks at *op*
//! granularity): after any fault, [`anubis::MemoryController::recover`]
//! either restores every **acknowledged** write, or fails with a *typed*
//! detection error — it never silently serves wrong data. This module
//! pushes the crash point *inside* individual operations: a
//! [`anubis_nvm::FaultPlan`] fires on the k-th counted device-level write
//! since controller construction, and [`power_cut_sweep`] walks `k` across
//! every such write the workload performs.
//!
//! The script loop and the audit of acknowledged writes are the shared
//! ones of [`crate::campaign`]; what follows is this harness's policy
//! over their findings. Verdict rules, per fault class:
//!
//! * **Power cut** — recovery *must* succeed and every acknowledged write
//!   must read back exactly. The address of the one in-flight (errored,
//!   unacknowledged) operation may hold its old value, its new value, or
//!   return a typed corruption error; anything else panics the campaign.
//! * **Torn write** — recovery may succeed (same obligations as power
//!   cut) or fail with a typed [`anubis::RecoveryError`]; a successful
//!   recovery may additionally surface typed corruption errors on
//!   individual reads. Silent wrong data panics the campaign.
//! * **Bit flip** — execution continues past the fault, so detection may
//!   happen on a live read (typed corruption error), be repaired
//!   transparently by SEC-DED, or surface after a later crash/recovery.
//!   Again: wrong data panics, typed errors count as detection.

use std::convert::Infallible;

use anubis::{DataAddr, MemoryController};
use anubis_nvm::{FaultKind, FaultPlan};

use crate::campaign::{drive, drive_checked, ReadBack, Stop};

pub use crate::campaign::{op_payload, ScriptOp};

/// How a single fault injection resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Recovery succeeded and every acknowledged write read back exactly.
    Recovered,
    /// The fault surfaced as a typed detection error — from a live read,
    /// from `recover()` itself, or from a post-recovery read.
    Detected,
    /// The armed fault never triggered (its index lies beyond the writes
    /// the script performs).
    NotTriggered,
}

/// Aggregate outcome of a fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// `scheme_name()` of the controller under test.
    pub scheme: String,
    /// Number of injections that actually fired.
    pub injection_points: u64,
    /// Injections after which recovery restored all acknowledged writes.
    pub recovered: u64,
    /// Injections that resolved as typed detection errors.
    pub detected: u64,
    /// Armed plans whose trigger index was never reached.
    pub not_triggered: u64,
}

impl CampaignReport {
    fn new(scheme: &str) -> Self {
        CampaignReport {
            scheme: scheme.to_string(),
            injection_points: 0,
            recovered: 0,
            detected: 0,
            not_triggered: 0,
        }
    }

    fn absorb(&mut self, verdict: FaultVerdict) {
        match verdict {
            FaultVerdict::Recovered => {
                self.injection_points += 1;
                self.recovered += 1;
            }
            FaultVerdict::Detected => {
                self.injection_points += 1;
                self.detected += 1;
            }
            FaultVerdict::NotTriggered => self.not_triggered += 1,
        }
    }
}

/// Dry-runs `script` on a fresh controller and returns the total number
/// of counted device-level persist writes it performs — the sweep range
/// for [`power_cut_sweep`].
///
/// # Panics
///
/// Panics if the fault-free run itself errors (that would be a plain
/// functional bug, not a fault-injection finding).
pub fn count_persist_writes<C, F>(make: &F, script: &[ScriptOp]) -> u64
where
    C: MemoryController,
    F: Fn() -> C,
{
    let mut ctrl = make();
    let Ok(stop) = drive(&mut ctrl, script, |_, _, _| Ok::<(), Infallible>(()));
    assert_eq!(stop, Stop::Completed, "dry run failed");
    ctrl.domain().persist_writes()
}

/// Runs `script` on a fresh controller with `plan` armed and checks the
/// recovery contract for whatever the fault does.
///
/// # Panics
///
/// Panics — with the plan and op index in the message — on any contract
/// violation: wrong data served for an acknowledged write, an untyped /
/// unexpected error, or (for power cuts) a failed recovery.
pub fn run_with_fault<C, F>(make: &F, script: &[ScriptOp], plan: FaultPlan) -> FaultVerdict
where
    C: MemoryController,
    F: Fn() -> C,
{
    // Power cuts are the *recoverable* class: the two-stage commit must
    // come back clean. Torn writes and bit flips only owe us detection.
    let lenient = !matches!(plan.kind(), FaultKind::PowerCut);
    let label = format!("{plan:?}");

    let mut ctrl = make();
    ctrl.domain_mut().arm_fault(plan);
    let model = match drive_checked(&mut ctrl, script, lenient, &label) {
        (_, Stop::Failed { .. }) => return FaultVerdict::Detected,
        (_, Stop::Completed) if ctrl.domain().fault_fired().is_none() => {
            return FaultVerdict::NotTriggered
        }
        (model, _) => model,
    };

    // The machine died (power cut / torn write) or carries a latent flip:
    // crash it and run recovery against the damaged device image.
    ctrl.crash();
    if let Err(err) = ctrl.recover() {
        assert!(
            lenient,
            "[{label}] recovery after a pure power cut must succeed, got: {err}"
        );
        return FaultVerdict::Detected;
    }
    let mut verdict = FaultVerdict::Recovered;
    let findings = model.audit(
        &mut ctrl,
        |c, addr| c.read(DataAddr::new(addr)),
        |_, _, _| false,
    );
    for found in findings {
        let addr = found.addr;
        let in_flight = model.inflight_addr() == Some(addr);
        match found.readback {
            ReadBack::Matched | ReadBack::InFlight => {}
            // The in-flight op's address may surface a typed error under
            // any fault class; other addresses only under the
            // detection-only classes.
            ReadBack::Failed(e) if e.is_detected_corruption() && (lenient || in_flight) => {
                verdict = FaultVerdict::Detected;
            }
            ReadBack::Failed(e) => {
                panic!("[{label}] post-recovery read of addr {addr} failed unexpectedly: {e}")
            }
            _ if in_flight => panic!(
                "[{label}] post-recovery read of in-flight addr {addr} returned neither the \
                 old nor the new value"
            ),
            _ => panic!(
                "[{label}] post-recovery read of acknowledged addr {addr} returned wrong data"
            ),
        }
    }
    verdict
}

/// Exhaustively (or with `stride > 1`, sparsely) cuts power after every
/// counted device-level write the script performs, verifying full
/// recovery of acknowledged writes at each point.
///
/// Returns the aggregated report; since power cuts must always recover,
/// `report.detected` is 0 on success and every exercised point counts in
/// `report.recovered`.
///
/// # Panics
///
/// Panics if `stride == 0`, or on any contract violation (see
/// [`run_with_fault`]).
pub fn power_cut_sweep<C, F>(make: F, script: &[ScriptOp], stride: u64) -> CampaignReport
where
    C: MemoryController,
    F: Fn() -> C,
{
    sweep(&make, script, stride, |k| {
        vec![FaultPlan::power_cut_after(k)]
    })
}

/// Sweeps torn writes: for each injection index (stepped by `stride`) and
/// each tear width in `words`, the k-th device write lands torn and power
/// is lost. Every injection must resolve as recovered-clean or
/// typed-detected.
///
/// # Panics
///
/// Panics if `stride == 0`, or on any contract violation.
pub fn torn_write_sweep<C, F>(
    make: F,
    script: &[ScriptOp],
    stride: u64,
    words: &[usize],
) -> CampaignReport
where
    C: MemoryController,
    F: Fn() -> C,
{
    sweep(&make, script, stride, |k| {
        words
            .iter()
            .map(|&w| FaultPlan::torn_write_after(k, w))
            .collect()
    })
}

/// Sweeps bit flips: the k-th device write (stepped by `stride`) lands
/// with `bits` inverted and execution continues. Single-bit flips on data
/// blocks should be repaired by SEC-DED (verdict `Recovered`); wider
/// damage and metadata hits must surface as typed detection errors.
///
/// # Panics
///
/// Panics if `stride == 0`, or on any contract violation.
pub fn bit_flip_sweep<C, F>(
    make: F,
    script: &[ScriptOp],
    stride: u64,
    bits: &[usize],
) -> CampaignReport
where
    C: MemoryController,
    F: Fn() -> C,
{
    sweep(&make, script, stride, |k| {
        vec![FaultPlan::bit_flip_after(k, bits.to_vec())]
    })
}

/// The sweep all three classes share: every `stride`-th counted device
/// write `k` of a dry run, each plan of `plans_at(k)` on a fresh
/// controller.
fn sweep<C, F>(
    make: &F,
    script: &[ScriptOp],
    stride: u64,
    plans_at: impl Fn(u64) -> Vec<FaultPlan>,
) -> CampaignReport
where
    C: MemoryController,
    F: Fn() -> C,
{
    assert!(stride >= 1, "stride must be at least 1");
    let total = count_persist_writes(make, script);
    let mut report = CampaignReport::new(make().scheme_name());
    for k in (0..total).step_by(stride as usize) {
        for plan in plans_at(k) {
            report.absorb(run_with_fault(make, script, plan));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};

    fn script(n: u64) -> Vec<ScriptOp> {
        (0..n).map(|i| (i % 3 != 2, (i * 37) % 300)).collect()
    }

    #[test]
    fn dry_run_counts_are_deterministic() {
        let make =
            || BonsaiController::new(BonsaiScheme::StrictPersist, &AnubisConfig::small_test());
        let s = script(12);
        let a = count_persist_writes(&make, &s);
        let b = count_persist_writes(&make, &s);
        assert_eq!(a, b);
        assert!(a > 12, "strict persistence must write more blocks than ops");
    }

    #[test]
    fn short_power_cut_sweep_recovers_bonsai() {
        let make = || BonsaiController::new(BonsaiScheme::AgitPlus, &AnubisConfig::small_test());
        let report = power_cut_sweep(make, &script(9), 3);
        assert!(report.injection_points > 0);
        assert_eq!(report.recovered, report.injection_points);
        assert_eq!(report.detected, 0);
    }

    #[test]
    fn short_power_cut_sweep_recovers_sgx() {
        let make = || SgxController::new(SgxScheme::Asit, &AnubisConfig::small_test());
        let report = power_cut_sweep(make, &script(9), 3);
        assert!(report.injection_points > 0);
        assert_eq!(report.recovered, report.injection_points);
        assert_eq!(report.detected, 0);
    }

    #[test]
    fn beyond_range_plan_reports_not_triggered() {
        let make = || BonsaiController::new(BonsaiScheme::AgitRead, &AnubisConfig::small_test());
        let s = script(6);
        let total = count_persist_writes(&make, &s);
        let verdict = run_with_fault(&make, &s, FaultPlan::power_cut_after(total + 10));
        assert_eq!(verdict, FaultVerdict::NotTriggered);
    }

    #[test]
    fn torn_write_resolves_recovered_or_detected() {
        let make = || BonsaiController::new(BonsaiScheme::AgitPlus, &AnubisConfig::small_test());
        let report = torn_write_sweep(make, &script(9), 5, &[3]);
        assert!(report.injection_points > 0);
        assert_eq!(report.recovered + report.detected, report.injection_points);
    }

    /// `(injection points, recovered, detected, not triggered)`.
    fn counts(r: &CampaignReport) -> (u64, u64, u64, u64) {
        (r.injection_points, r.recovered, r.detected, r.not_triggered)
    }

    /// The four sweeps over one fixed script, in the order power cut,
    /// torn write (1 and 4 words), bit flip (bit 1), bit flip (bits 3 and
    /// 200).
    fn sweep_counts<C: MemoryController>(make: impl Fn() -> C) -> [(u64, u64, u64, u64); 4] {
        let s = script(40);
        [
            counts(&power_cut_sweep(&make, &s, 1)),
            counts(&torn_write_sweep(&make, &s, 1, &[1, 4])),
            counts(&bit_flip_sweep(&make, &s, 1, &[1])),
            counts(&bit_flip_sweep(&make, &s, 1, &[3, 200])),
        ]
    }

    /// Pinned outcomes: the script driver and the acked-write audit decide
    /// every one of these verdicts, so a change to either that moved an
    /// outcome shows here as a changed count.
    #[test]
    fn campaign_reports_are_pinned_agit_plus() {
        let make = || BonsaiController::new(BonsaiScheme::AgitPlus, &AnubisConfig::small_test());
        assert_eq!(
            sweep_counts(make),
            [
                (66, 66, 0, 0),
                (132, 53, 79, 0),
                (66, 0, 66, 0),
                (66, 0, 66, 0)
            ]
        );
    }

    #[test]
    fn campaign_reports_are_pinned_asit() {
        let make = || SgxController::new(SgxScheme::Asit, &AnubisConfig::small_test());
        assert_eq!(
            sweep_counts(make),
            [
                (81, 81, 0, 0),
                (162, 113, 49, 0),
                (81, 62, 19, 0),
                (81, 62, 19, 0)
            ]
        );
    }
}
