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
//! since controller construction, and [`nested_sweep`] walks `k` across
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
//!
//! Depth 0 of [`nested_sweep`] is that plain sweep: one uncut
//! `recover()` per plan. Each depth above it adds the one dimension a
//! single fault leaves out: power dying again while the machine
//! recovers. The crashed machine is recovered once uncut, which makes
//! `R` device writes; then, for every `j` in `0..R`, a copy is recovered
//! under a write cut after `j` writes, crashed, and — down to the
//! sweep's depth — enumerated the same way, depth-first, before a last
//! uncut attempt is judged. Two recovery entries are cut this way, each
//! held to its own verdict: the plain `recover()` to the rules above,
//! and the supervised ladder ([`anubis::supervisor::recover`]) to a
//! structured outcome with every acknowledged write committed, in
//! flight, or an explicit zero on a line it quarantined — and to a
//! fixpoint: a clean crash and one more ladder end `Recovered`. The
//! ladder's scrub reads every data line, so depth 0 leaves it out.
//! Nothing is sampled, so a [`NestedReport`] is a pure function of the
//! scheme, its configuration, the script, the plans, the stride and the
//! depth.

use std::convert::Infallible;

use anubis::supervisor::{self, RecoveryOutcome, SupervisedRecovery};
use anubis::{DataAddr, MemoryController, RecoveryError, RecoveryReport, Supervised};
use anubis_nvm::{FaultKind, FaultPlan};

use crate::campaign::{drive, drive_checked, fnv1a64, Acked, ReadBack, Stop, FNV1A64_EMPTY};

pub use crate::campaign::{op_payload, ScriptOp};

/// How one plain `recover()` of a sweep point resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultVerdict {
    /// Recovery succeeded and every acknowledged write read back exactly.
    Recovered,
    /// The fault surfaced as a typed detection error — from a live read,
    /// from `recover()` itself, or from a post-recovery read.
    Detected,
}

/// Dry-runs `script` on a fresh controller and returns the total number
/// of counted device-level persist writes it performs — the sweep range
/// for [`nested_sweep`].
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

/// What a faulted machine owes, and how it got there.
struct Owed {
    model: Acked,
    /// Power cuts owe exact recovery; torn writes and bit flips owe
    /// detection.
    exact: bool,
    /// A live op already failed with a typed corruption error: the plain
    /// verdict is `Detected` without a recovery.
    detected_live: bool,
    label: String,
}

/// Runs `script` on a fresh controller with `plan` armed and crashes it:
/// the state every recovery of one sweep point starts from.
///
/// # Panics
///
/// If the plan never fired: the script makes fewer counted writes.
fn faulted<C, F>(make: &F, script: &[ScriptOp], plan: FaultPlan) -> (C, Owed)
where
    C: MemoryController,
    F: Fn() -> C,
{
    // Power cuts are the *recoverable* class: the two-stage commit must
    // come back clean. Torn writes and bit flips only owe us detection.
    let exact = matches!(plan.kind(), FaultKind::PowerCut);
    let label = format!("{plan:?}");
    let mut ctrl = make();
    ctrl.domain_mut().arm_fault(plan);
    let (model, stop) = drive_checked(&mut ctrl, script, !exact, &label);
    assert!(
        ctrl.domain().fault_fired().is_some(),
        "[{label}] never fired"
    );
    // The machine died (power cut / torn write), carries a latent flip,
    // or stopped on the damage it detected.
    ctrl.crash();
    let detected_live = matches!(stop, Stop::Failed { .. });
    let owed = Owed {
        model,
        exact,
        detected_live,
        label,
    };
    (ctrl, owed)
}

impl Owed {
    /// The plain rules (module docs) for `ctrl`, on which the point's
    /// last `recover()` returned `recovered`. `Err`, with the reason, when
    /// a power cut's recovery failed.
    fn plain<C: MemoryController>(
        &self,
        ctrl: &mut C,
        recovered: Result<RecoveryReport, RecoveryError>,
    ) -> Result<FaultVerdict, String> {
        let (label, lenient) = (&self.label, !self.exact);
        if let Err(err) = recovered {
            let refused =
                format!("[{label}] recovery after a pure power cut must succeed, got: {err}");
            return if lenient {
                Ok(FaultVerdict::Detected)
            } else {
                Err(refused)
            };
        }
        let mut verdict = FaultVerdict::Recovered;
        let findings =
            self.model
                .audit(ctrl, |c, addr| c.read(DataAddr::new(addr)), |_, _, _| false);
        for found in findings {
            let addr = found.addr;
            let in_flight = self.model.inflight_addr() == Some(addr);
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
        Ok(verdict)
    }

    /// The ladder's verdict on `ctrl`, whose last attempt returned
    /// `result`: a structured outcome, then every acknowledged line
    /// committed, in flight, or a zero on a line it quarantined; then a
    /// clean crash and one more ladder, held to the same. Panics on
    /// anything else; counts the point into `r`, with whether either
    /// ladder retired an acknowledged line and whether the second ended
    /// `Recovered`.
    fn ladder<C: Supervised>(
        &self,
        r: &mut NestedReport,
        path: &[u64],
        ctrl: &mut C,
        result: Result<SupervisedRecovery, RecoveryError>,
    ) {
        let label = format!("{} cut at {path:?}", self.label);
        let must = |r: Result<_, RecoveryError>| {
            r.unwrap_or_else(|e| panic!("[{label}] supervised recovery must terminate, got: {e}"))
        };
        let sup = must(result);
        let retired = self.retired(ctrl, &label);
        ctrl.crash();
        let again = must(supervisor::recover(ctrl));
        let retired = self.retired(ctrl, &label) || retired;
        let settled = again.outcome == RecoveryOutcome::Recovered;
        let rank = match sup.outcome {
            RecoveryOutcome::Recovered => 0,
            RecoveryOutcome::Degraded { .. } => 1,
            RecoveryOutcome::Quarantined { .. } => 2,
        };
        r.outcomes[rank] += 1;
        r.lost_lines += sup.lost_lines;
        r.escalations += u64::from(sup.escalations);
        r.retired_after_power_cut += u64::from(self.exact && retired);
        r.unsettled += u64::from(!settled);
        let counts = [sup.repaired_lines, sup.rebuilt_nodes, sup.quarantined_lines];
        let verdict = [rank as u64, sup.lost_lines, u64::from(sup.escalations)];
        let flags = [u64::from(retired), u64::from(settled)];
        r.fold(path, &[&verdict[..], &counts, &flags].concat());
    }

    /// Reads every acknowledged line after a ladder: committed, in
    /// flight, or a zero on a line it quarantined — whether any was the
    /// last. Panics on anything else.
    fn retired<C: Supervised>(&self, ctrl: &mut C, label: &str) -> bool {
        let mut retired = false;
        let findings = self.model.audit(
            ctrl,
            |c, addr| c.read(DataAddr::new(addr)),
            |c, addr, got| got.is_zeroed() && c.is_line_quarantined(DataAddr::new(addr)),
        );
        for found in findings {
            match found.readback {
                ReadBack::Matched | ReadBack::InFlight => {}
                ReadBack::Excused => retired = true,
                other => panic!(
                    "[{label}] acknowledged addr {} after the ladder: {other:?}",
                    found.addr
                ),
            }
        }
        retired
    }
}

/// What [`nested_sweep`] found for one scheme: a pure function of the
/// scheme, its configuration, the script, the plans, the stride and the
/// depth. At depth 0 the ladder's fields stay zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NestedReport {
    /// `scheme_name()` of the controller under test.
    pub scheme: String,
    /// Plain `recover()` verdicts: one per plan, plus one per cut path
    /// below it.
    pub injection_points: u64,
    /// Plain points after which every acknowledged write read back
    /// exactly.
    pub recovered: u64,
    /// Plain points that resolved as typed detection errors.
    pub detected: u64,
    /// Power-cut points whose last plain `recover()` failed after a cut
    /// inside an earlier one (counted in `detected`).
    pub plain_refused: u64,
    /// Ladder points that ended `Recovered`, `Degraded`, `Quarantined`.
    pub outcomes: [u64; 3],
    /// Lines the ladder counted lost, over every point.
    pub lost_lines: u64,
    /// Ladder escalations into `targeted`, over every point.
    pub escalations: u64,
    /// Power-cut points whose ladder retired an acknowledged line.
    pub retired_after_power_cut: u64,
    /// Ladder points after which a clean crash and one more ladder did
    /// not end `Recovered`.
    pub unsettled: u64,
    /// Write cuts armed inside a recovery attempt; every one fired.
    pub cuts: u64,
    /// FNV-1a over every point's cut path and verdict, in enumeration
    /// order.
    pub digest: u64,
}

impl NestedReport {
    /// Counts one plain point; a refusal after a cut counts as detected.
    ///
    /// # Panics
    ///
    /// On a refusal with no cut before it: a power cut must recover.
    fn absorb_plain(&mut self, path: &[u64], verdict: Result<FaultVerdict, String>) {
        let verdict = verdict.unwrap_or_else(|refused| {
            assert!(!path.is_empty(), "{refused}");
            self.plain_refused += 1;
            FaultVerdict::Detected
        });
        self.injection_points += 1;
        match verdict {
            FaultVerdict::Recovered => self.recovered += 1,
            FaultVerdict::Detected => self.detected += 1,
        }
        self.fold(path, &[verdict as u64]);
    }

    /// Folds one point into the digest. Every cut leads to exactly one
    /// point, the uncut attempt after it, so the points with a path count
    /// the cuts.
    fn fold(&mut self, path: &[u64], verdict: &[u64]) {
        self.cuts += u64::from(!path.is_empty());
        let words = [path.len() as u64]
            .into_iter()
            .chain(path.iter().chain(verdict).copied());
        self.digest = words.fold(self.digest, |h, w| fnv1a64(h, &w.to_le_bytes()));
    }
}

/// The one fault sweep: every `stride`-th counted persist write `k` of a
/// dry run of `script`, each plan of `plans_at(k)` on a fresh controller,
/// the plain `recover()` held to its verdict. At depth `d ≥ 1` the
/// supervised ladder is held to its own too, and every recovery after the
/// fault is cut at each of its device writes, `d` attempts deep (module
/// docs). Depth 0 cuts nothing and runs no ladder.
///
/// # Panics
///
/// If `stride == 0`, or on any contract violation of either verdict; a
/// power cut whose plain `recover()` fails after a cut inside an earlier
/// one, a power cut whose ladder retires an acknowledged line, and a
/// ladder that is not a fixpoint are counted instead.
pub fn nested_sweep<C, F>(
    make: F,
    script: &[ScriptOp],
    depth: u32,
    stride: u64,
    plans_at: impl Fn(u64) -> Vec<FaultPlan>,
) -> NestedReport
where
    C: Supervised + Clone,
    F: Fn() -> C,
{
    assert!(stride >= 1, "stride must be at least 1");
    let mut r = NestedReport {
        scheme: make().scheme_name().to_string(),
        digest: FNV1A64_EMPTY,
        ..NestedReport::default()
    };
    for k in (0..count_persist_writes(&make, script)).step_by(stride as usize) {
        for plan in plans_at(k) {
            let (crashed, owed) = faulted(&make, script, plan);
            plain_leaves(&crashed, &owed, depth, &mut |path, got| {
                r.absorb_plain(path, got);
            });
            if depth > 0 {
                let mut judge =
                    |path: &[u64], mut c: C, got| owed.ladder(&mut r, path, &mut c, got);
                cut_paths(&crashed, depth, &[], supervisor::recover, &mut judge);
            }
        }
    }
    r
}

/// Hands `absorb` the plain verdict of every leaf of `crashed`'s cut
/// paths, `depth` attempts deep, or one `Detected` with no recovery when
/// a live op already detected the damage.
fn plain_leaves<C: Supervised + Clone>(
    crashed: &C,
    owed: &Owed,
    depth: u32,
    absorb: &mut impl FnMut(&[u64], Result<FaultVerdict, String>),
) {
    if owed.detected_live {
        absorb(&[], Ok(FaultVerdict::Detected));
        return;
    }
    let recover = |c: &mut C| c.recover();
    let mut judge = |path: &[u64], mut c: C, got| absorb(path, owed.plain(&mut c, got));
    cut_paths(crashed, depth, &[], recover, &mut judge);
}

/// Recovers a copy of `crashed` with `attempt` and hands it to `leaf`
/// with what the attempt returned and the cut `path` that led there.
/// Below `depth`, also recovers a copy under a write cut after each `j`
/// of the `R` device writes the uncut attempt made, crashes it and
/// recurses, depth-first.
fn cut_paths<C: Supervised + Clone, T>(
    crashed: &C,
    depth: u32,
    path: &[u64],
    attempt: fn(&mut C) -> T,
    leaf: &mut impl FnMut(&[u64], C, T),
) {
    let writes = |c: &C| c.domain().device().stats().writes();
    let mut uncut = crashed.clone();
    let got = attempt(&mut uncut);
    let made = writes(&uncut) - writes(crashed);
    leaf(path, uncut, got);
    let cuts = if path.len() < depth as usize { made } else { 0 };
    for j in 0..cuts {
        let mut cut = crashed.clone();
        cut.domain_mut().device_mut().arm_write_cut(j);
        attempt(&mut cut);
        assert!(
            cut.domain().device().write_cut_fired(),
            "cut {j} never fired"
        );
        cut.domain_mut().device_mut().clear_write_cut();
        cut.crash();
        cut_paths(&cut, depth, &[path, &[j]].concat(), attempt, leaf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};
    use std::cell::RefCell;

    fn script(n: u64) -> Vec<ScriptOp> {
        (0..n).map(|i| (i % 3 != 2, (i * 37) % 300)).collect()
    }

    fn power_cut(k: u64) -> Vec<FaultPlan> {
        vec![FaultPlan::power_cut_after(k)]
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
    fn strided_power_cuts_recover_bonsai() {
        let make = || BonsaiController::new(BonsaiScheme::AgitPlus, &AnubisConfig::small_test());
        let report = nested_sweep(make, &script(9), 0, 3, power_cut);
        assert!(report.injection_points > 0);
        assert_eq!(report.recovered, report.injection_points);
        assert_eq!(report.detected, 0);
    }

    #[test]
    fn strided_power_cuts_recover_sgx() {
        let make = || SgxController::new(SgxScheme::Asit, &AnubisConfig::small_test());
        let report = nested_sweep(make, &script(9), 0, 3, power_cut);
        assert!(report.injection_points > 0);
        assert_eq!(report.recovered, report.injection_points);
        assert_eq!(report.detected, 0);
    }

    #[test]
    fn torn_write_resolves_recovered_or_detected() {
        let make = || BonsaiController::new(BonsaiScheme::AgitPlus, &AnubisConfig::small_test());
        let torn = |k| vec![FaultPlan::torn_write_after(k, 3)];
        let report = nested_sweep(make, &script(9), 0, 5, torn);
        assert!(report.injection_points > 0);
        assert_eq!(report.recovered + report.detected, report.injection_points);
    }

    /// A stride visits exactly `0, s, 2s, …` below the dry run's write
    /// count; depth 0 cuts nothing and runs no ladder; and at every point
    /// the plain verdict of depth 1's uncut attempt is depth 0's.
    #[test]
    fn depth_zero_is_depth_one_s_uncut_attempt() {
        let config = AnubisConfig::small_test().with_capacity(32 << 10);
        let make = || BonsaiController::new(BonsaiScheme::AgitPlus, &config);
        let s = script(6);
        let plans = |k| {
            vec![
                FaultPlan::power_cut_after(k),
                FaultPlan::torn_write_after(k, 4),
                FaultPlan::bit_flip_after(k, vec![3, 200]),
            ]
        };
        let visited = RefCell::new(Vec::new());
        let r = nested_sweep(make, &s, 0, 3, |k| {
            visited.borrow_mut().push(k);
            plans(k)
        });
        let total = count_persist_writes(&make, &s);
        let want: Vec<u64> = (0..total).step_by(3).collect();
        assert_eq!(visited.into_inner(), want);
        assert_eq!(r.injection_points, 3 * want.len() as u64);
        assert_eq!((r.cuts, r.outcomes), (0, [0; 3]));
        for k in want {
            for plan in plans(k) {
                let one = |j| {
                    if j == k {
                        vec![plan.clone()]
                    } else {
                        Vec::new()
                    }
                };
                let zero = nested_sweep(make, &s, 0, 1, one);
                assert_eq!(zero.injection_points, 1);
                let (crashed, owed) = faulted(&make, &s, plan.clone());
                let mut uncut = Vec::new();
                plain_leaves(&crashed, &owed, 1, &mut |path, got| {
                    if path.is_empty() {
                        uncut.push(got.expect("an uncut power cut recovers"));
                    }
                });
                let want = if zero.detected == 1 {
                    FaultVerdict::Detected
                } else {
                    FaultVerdict::Recovered
                };
                assert_eq!(uncut, [want], "{plan:?}");
            }
        }
    }

    /// `(injection points, recovered, detected)`.
    fn counts(r: &NestedReport) -> (u64, u64, u64) {
        (r.injection_points, r.recovered, r.detected)
    }

    /// Depth 0 over one fixed script, in the order power cut, torn write
    /// (1 and 4 words), bit flip (bit 1), bit flip (bits 3 and 200).
    fn sweep_counts<C: Supervised + Clone>(make: impl Fn() -> C) -> [(u64, u64, u64); 4] {
        let s = script(40);
        let sweep = |plans_at: &dyn Fn(u64) -> Vec<FaultPlan>| {
            counts(&nested_sweep(&make, &s, 0, 1, plans_at))
        };
        [
            sweep(&power_cut),
            sweep(&|k| {
                vec![1, 4]
                    .into_iter()
                    .map(|w| FaultPlan::torn_write_after(k, w))
                    .collect()
            }),
            sweep(&|k| vec![FaultPlan::bit_flip_after(k, vec![1])]),
            sweep(&|k| vec![FaultPlan::bit_flip_after(k, vec![3, 200])]),
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
            [(66, 66, 0), (132, 53, 79), (66, 0, 66), (66, 0, 66)]
        );
    }

    #[test]
    fn campaign_reports_are_pinned_asit() {
        let make = || SgxController::new(SgxScheme::Asit, &AnubisConfig::small_test());
        assert_eq!(
            sweep_counts(make),
            [(81, 81, 0), (162, 113, 49), (81, 62, 19), (81, 62, 19)]
        );
    }
}
