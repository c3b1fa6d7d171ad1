//! The recovery supervisor: an escalation ladder that turns terminal
//! [`RecoveryError`]s into graceful degradation.
//!
//! The paper's recovery algorithms (and `MemoryController::recover`) are
//! all-or-nothing: the first unverifiable block aborts recovery even when
//! a slower path could still restore, or at least bound, the damage. The
//! supervisor drives a [`Supervised`] controller through three rungs,
//! named here as their `supervisor_rung` spans are labelled:
//!
//! * **`fast`** — the scheme's shadow-assisted recovery (AGIT SCT/SMT
//!   scan or ASIT ST splice), exactly as `recover()` runs it. It reads
//!   only the image and the on-chip roots, so it is never re-run: over
//!   the same image it would fail the same way.
//! * **`targeted`** — scheme-specific reconstruction, entered with the
//!   error that defeated `fast`: Osiris-style counter probing plus
//!   bottom-up tree rebuild for the general-tree family; shadow-table
//!   spill-splice or top-down MAC-verify-and-reset for the SGX family.
//! * **`scrub`** — a pass over every data line; lines that still cannot
//!   be verified are ECC-repaired in place when possible and otherwise
//!   quarantined (remapped into the spare region by the bad-block layer
//!   in `anubis-nvm`), with permanently lost content counted.
//!
//! The ladder always terminates in a structured [`RecoveryOutcome`]
//! (`Recovered`, `Degraded`, or `Quarantined`) unless the scheme is
//! structurally unable to recover at all (`SchemeCannotRecover`). Every
//! rung runs on the calling thread and applies its writes in item order.
//!
//! # Two entries: the scrub runs on evidence
//!
//! `fast` is the paper's recovery and costs O(metadata cache); `scrub` is
//! O(memory) — the pass Anubis exists to remove from a restart. Which
//! of them a caller pays for is decided by what it knows, not by an
//! option:
//!
//! * [`resume`] is the restart entry (a server's boot, a
//!   campaign's restart of a killed process). `fast` passing, over an
//!   image whose reopen raised no hint, ends it:
//!   the metadata is verified against the root, and each data line is
//!   verified against that metadata when it is first read, as every
//!   read is. Anything else — a reopen hint, any `fast` error — is
//!   evidence, and takes the whole ladder, scrub included.
//! * [`recover`] is the full ladder, always: the entry for a
//!   caller that already has evidence (a read that failed verification
//!   while serving, an operator's request) and for fault campaigns.
//!
//! So a damaged data line on an otherwise clean image is found at its
//! first access instead of at boot — typed, never served — and that
//! access is what sends the caller into [`recover`], which
//! repairs or quarantines and counts it as the boot-time scrub did.

use crate::error::RecoveryError;
use crate::layout::DataAddr;
use crate::recovery::RecoveryReport;
use crate::MemoryController;
use anubis_nvm::{BlockAddr, NvmBackend};
use anubis_telemetry::Telemetry;

/// Scrub passes before the supervisor gives up on convergence. Each pass
/// quarantines every still-failing line, so two passes normally suffice;
/// the cap is a defense against a repair rung that loses ground.
const MAX_SCRUB_PASSES: u32 = 6;

/// How a supervised recovery ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The metadata verified against the root through the fast path;
    /// nothing was rebuilt or lost. Out of [`recover`] every
    /// data line has been read and verified as well; out of a
    /// [`resume`] that stopped at `fast`, data lines are
    /// verified on access.
    Recovered,
    /// All committed data survives, but slower rungs had to repair media
    /// (`repaired` lines resealed after ECC correction) or rebuild
    /// metadata (`rebuilt` counter blocks / tree nodes reconstructed).
    Degraded {
        /// Data lines resealed after in-place ECC repair.
        repaired: u64,
        /// Metadata blocks reconstructed (probed counters, rebuilt or
        /// reset tree nodes, respliced shadow entries).
        rebuilt: u64,
    },
    /// Some lines were retired into the spare region; `lost_lines` of
    /// them held committed non-zero content that could not be restored.
    Quarantined {
        /// Permanently lost data lines (quarantined with content).
        lost_lines: u64,
    },
}

impl core::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryOutcome::Recovered => write!(f, "recovered"),
            RecoveryOutcome::Degraded { repaired, rebuilt } => {
                write!(f, "degraded (repaired {repaired}, rebuilt {rebuilt})")
            }
            RecoveryOutcome::Quarantined { lost_lines } => {
                write!(f, "quarantined (lost {lost_lines} lines)")
            }
        }
    }
}

/// Full accounting of a supervised recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisedRecovery {
    /// The structured outcome (see [`RecoveryOutcome`]).
    pub outcome: RecoveryOutcome,
    /// The report of the fast recovery (zeroed when it failed and
    /// recovery only succeeded through targeted repair).
    pub report: RecoveryReport,
    /// Times the ladder entered targeted repair.
    pub escalations: u32,
    /// Data lines resealed after ECC repair.
    pub repaired_lines: u64,
    /// Metadata blocks reconstructed by `targeted` and `scrub`.
    pub rebuilt_nodes: u64,
    /// Lines remapped into the spare region.
    pub quarantined_lines: u64,
    /// Quarantined lines whose committed content was lost.
    pub lost_lines: u64,
}

/// What a targeted-repair or reconcile step accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairSummary {
    /// Data lines resealed after in-place ECC repair.
    pub repaired: u64,
    /// Metadata blocks reconstructed.
    pub rebuilt: u64,
    /// Lines remapped into the spare region.
    pub quarantined: u64,
    /// Quarantined lines that held committed content.
    pub lost: u64,
}

impl RepairSummary {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: RepairSummary) {
        self.repaired += other.repaired;
        self.rebuilt += other.rebuilt;
        self.quarantined += other.quarantined;
        self.lost += other.lost;
    }
}

/// The per-scheme hooks the supervisor drives past `fast` (which is
/// [`MemoryController::recover`] itself). Implemented once, over the
/// shared data path, for every controller family
/// ([`crate::BonsaiController`], [`crate::SgxController`]): the per-line
/// rungs are the data path's, and only `targeted_repair` and
/// `reconcile_metadata` are the family's own (in its `repair` submodule).
pub trait Supervised: MemoryController {
    /// Number of data lines the scrub pass must walk.
    fn data_lines(&self) -> u64;

    /// The device block holding the line's ciphertext — where a tamper
    /// hook that knows only the controller's family-neutral surface aims.
    fn data_block(&self, addr: DataAddr) -> BlockAddr;

    /// Per-line media repair: re-read ciphertext and side block,
    /// ECC-correct against the stored code, reseal and write back.
    /// Returns the number of corrected words (0 = media already clean).
    ///
    /// # Errors
    ///
    /// Fails when the line cannot be verified even after correction.
    fn repair_line(&mut self, addr: DataAddr) -> Result<u32, RecoveryError>;

    /// Retires a line into the spare region (or in place once the pool
    /// is exhausted), leaving it readable as zero. Returns `true` when
    /// committed non-zero content was lost.
    ///
    /// # Errors
    ///
    /// Propagates device-level failures only.
    fn quarantine_line(&mut self, addr: DataAddr) -> Result<bool, RecoveryError>;

    /// `targeted`: scheme-specific metadata reconstruction, driven by
    /// the error that defeated the fast path.
    ///
    /// # Errors
    ///
    /// Fails only when the scheme has no slower path for `err`.
    fn targeted_repair(&mut self, err: &RecoveryError) -> Result<RepairSummary, RecoveryError>;

    /// Restores metadata self-consistency after per-line repairs and
    /// quarantines (tree digests recomputed, caches invalidated).
    ///
    /// # Errors
    ///
    /// Propagates reconstruction failures.
    fn reconcile_metadata(&mut self) -> Result<RepairSummary, RecoveryError>;

    /// Persists the bad-block remap table into the `qtable` region.
    fn persist_quarantine(&mut self);

    /// Whether the line's backing block is currently quarantined.
    fn is_line_quarantined(&self, addr: DataAddr) -> bool;

    /// The telemetry handle the controller records spans and counters
    /// through (defaults to the process-global registry).
    fn telemetry(&self) -> &Telemetry;
}

/// Runs the full ladder: `fast`, `targeted` when it fails, and the
/// `scrub` over every data line in either case. This is the
/// entry for a machine that *knows* something went wrong — a
/// serve-time integrity fault, an operator's request, a fault
/// campaign — and O(memory) by design; a restart with no such
/// evidence goes through [`resume`].
///
/// Returns with nothing left buffered in the backend: what the
/// ladder wrote is durable when it hands the controller back.
///
/// # Errors
///
/// [`RecoveryError::SchemeCannotRecover`] when the scheme is
/// structurally unrecoverable (no shadow information at all) or the
/// scrub fails to converge; [`RecoveryError::Nvm`] for device-level
/// failures. Every *content* problem ends in a structured
/// [`RecoveryOutcome`] instead of an error.
pub fn recover<C: Supervised + ?Sized>(ctrl: &mut C) -> Result<SupervisedRecovery, RecoveryError> {
    let (out, first_err) = fast(ctrl)?;
    climb(ctrl, out, first_err)
}

/// `fast`: shadow-assisted recovery. Hands back the accounting
/// it starts and, when the fast path failed in a way a slower rung
/// can improve on, the error that defeated it.
fn fast<C: Supervised + ?Sized>(
    ctrl: &mut C,
) -> Result<(SupervisedRecovery, Option<RecoveryError>), RecoveryError> {
    let tel = ctrl.telemetry().clone();
    let mut out = SupervisedRecovery {
        outcome: RecoveryOutcome::Recovered,
        report: RecoveryReport::default(),
        escalations: 0,
        repaired_lines: 0,
        rebuilt_nodes: 0,
        quarantined_lines: 0,
        lost_lines: 0,
    };
    let _g = tel.span("supervisor_rung", "fast");
    match ctrl.recover() {
        Ok(r) => {
            out.report = r;
            Ok((out, None))
        }
        Err(e) if e.is_refusal() => Err(note_refusal(e, &tel, ctrl.scheme_name())),
        Err(e) if is_structural(&e) => Err(e),
        Err(e) => Ok((out, Some(e))),
    }
}

/// `targeted` and `scrub`, after `fast` left `first_err` (or
/// nothing: the scrub runs either way), once the home area has checked.
fn climb<C: Supervised + ?Sized>(
    ctrl: &mut C,
    mut out: SupervisedRecovery,
    first_err: Option<RecoveryError>,
) -> Result<SupervisedRecovery, RecoveryError> {
    check_home(ctrl)?;
    let tel = ctrl.telemetry().clone();
    let scheme = ctrl.scheme_name();

    if let Some(first) = first_err {
        out.escalations += 1;
        tel.incr("supervisor_escalations_total", scheme, 1);
        let _g = tel.span("supervisor_rung", "targeted");
        let sum = ctrl.targeted_repair(&first)?;
        absorb(&mut out, sum, &tel, scheme);
    }

    // Scrub: every line must verify, be repaired, or be explicitly
    // quarantined and counted.
    scrub_pass(ctrl, &mut out, &tel, scheme)?;

    if out.quarantined_lines > 0 {
        ctrl.persist_quarantine();
        ctrl.domain_mut().barrier()?;
    }
    out.outcome = outcome_of(&out);
    Ok(out)
}

/// Holds the home area to the digest its log carries before a rung
/// re-anchors metadata to what the medium holds: once `targeted` has, a
/// slot flipped or rolled back at rest outside the log's reach verifies
/// against nothing else (DESIGN §14.1). A mismatch is a refusal.
fn check_home<C: Supervised + ?Sized>(ctrl: &C) -> Result<(), RecoveryError> {
    let checked = ctrl.domain().device().backend().check_home();
    checked.map_err(|e| {
        let err = RecoveryError::HomeAreaMismatch {
            reason: e.to_string(),
        };
        note_refusal(err, ctrl.telemetry(), ctrl.scheme_name())
    })
}

/// Enters the ladder at `targeted` with a known corruption hint,
/// then runs the full ladder.
///
/// This is the restart path for a reopened device image whose
/// controller reported a non-structural [`RecoveryError`] at reopen
/// (e.g. [`RecoveryError::CorruptImage`] for an unparseable persisted
/// quarantine table): the corruption is already known, so there is
/// no point waiting for the fast path to trip over it. Targeted
/// repair runs first with the hint — valid on a freshly reopened,
/// powered device — and its repair work is merged into the accounting
/// of the subsequent [`recover`] run.
///
/// # Errors
///
/// Same classes as [`recover`].
pub fn repair_then_recover<C: Supervised + ?Sized>(
    ctrl: &mut C,
    err: &RecoveryError,
) -> Result<SupervisedRecovery, RecoveryError> {
    let tel = ctrl.telemetry().clone();
    let scheme = ctrl.scheme_name();
    // A freshness refusal from reopen is not a corruption hint: no
    // ladder rung may repair its way into serving rolled-back or
    // unverifiable-epoch state. Refuse before touching the image.
    if err.is_refusal() {
        return Err(note_refusal(err.clone(), &tel, scheme));
    }
    // Drain any REDO group left in the persistent registers before
    // repairing over the image (idempotent; `fast` repeats it).
    let _ = ctrl.domain_mut().power_up();
    check_home(ctrl)?;
    tel.incr("supervisor_escalations_total", scheme, 1);
    let pre = {
        let _g = tel.span("supervisor_rung", "targeted");
        ctrl.targeted_repair(err)?
    };
    let mut out = recover(ctrl)?;
    out.escalations += 1;
    out.repaired_lines += pre.repaired;
    out.rebuilt_nodes += pre.rebuilt;
    out.quarantined_lines += pre.quarantined;
    out.lost_lines += pre.lost;
    if pre.quarantined > 0 {
        ctrl.persist_quarantine();
        ctrl.domain_mut().barrier()?;
    }
    out.outcome = outcome_of(&out);
    Ok(out)
}

/// The restart path over a reopened image, and the paper's recovery:
/// it scrubs on evidence. With a `hint` from reopen the corruption is
/// already known and [`repair_then_recover`] runs the
/// whole ladder. Without one it runs `fast`, and when that passes it
/// is done — O(metadata cache), no data line read: the outcome is
/// `Recovered`, meaning the metadata verified against the root; a
/// data line is verified against that metadata when it is first
/// read, as every read is, and a line that fails then is the
/// caller's cue for [`recover`]. Any `fast` error takes
/// `targeted` and `scrub`.
///
/// Returns with nothing left buffered in the backend, like
/// [`recover`].
///
/// # Errors
///
/// Same classes as [`recover`].
pub fn resume<C: Supervised + ?Sized>(
    ctrl: &mut C,
    hint: Option<&RecoveryError>,
) -> Result<SupervisedRecovery, RecoveryError> {
    if let Some(err) = hint {
        return repair_then_recover(ctrl, err);
    }
    match fast(ctrl)? {
        (out, None) => {
            ctrl.domain_mut().barrier()?;
            Ok(out)
        }
        (out, first_err) => climb(ctrl, out, first_err),
    }
}

/// Counts a freshness refusal in telemetry and hands the error back
/// unchanged — the caller's decision (refuse service, surface to the
/// operator) happens above the ladder.
fn note_refusal(err: RecoveryError, tel: &Telemetry, scheme: &'static str) -> RecoveryError {
    match &err {
        RecoveryError::RollbackDetected { .. } => {
            tel.incr("supervisor_rollback_refusals_total", scheme, 1);
        }
        RecoveryError::FreshnessAnchorViolation { .. } => {
            tel.incr("supervisor_anchor_refusals_total", scheme, 1);
        }
        RecoveryError::HomeAreaMismatch { .. } => {
            tel.incr("supervisor_home_refusals_total", scheme, 1);
        }
        _ => {}
    }
    err
}

fn absorb(out: &mut SupervisedRecovery, sum: RepairSummary, tel: &Telemetry, scheme: &'static str) {
    out.repaired_lines += sum.repaired;
    out.rebuilt_nodes += sum.rebuilt;
    out.quarantined_lines += sum.quarantined;
    out.lost_lines += sum.lost;
    if sum.repaired > 0 {
        tel.incr("supervisor_repaired_lines_total", scheme, sum.repaired);
    }
    if sum.quarantined > 0 {
        tel.incr(
            "supervisor_quarantined_lines_total",
            scheme,
            sum.quarantined,
        );
    }
    if sum.lost > 0 {
        tel.incr("supervisor_lost_lines_total", scheme, sum.lost);
    }
}

fn scrub_pass<C: Supervised + ?Sized>(
    ctrl: &mut C,
    out: &mut SupervisedRecovery,
    tel: &Telemetry,
    scheme: &'static str,
) -> Result<(), RecoveryError> {
    let _g = tel
        .span("supervisor_rung", "scrub")
        .items(ctrl.data_lines());
    let mut did_targeted = out.escalations > 0;
    for pass in 1..=MAX_SCRUB_PASSES {
        let failures = sweep(ctrl)?;
        if failures.is_empty() {
            return Ok(());
        }
        // First failing pass without a `targeted` run yet: give the
        // scheme one shot at wholesale metadata reconstruction
        // before retiring lines one by one.
        if !did_targeted {
            did_targeted = true;
            out.escalations += 1;
            tel.incr("supervisor_escalations_total", scheme, 1);
            let hint = RecoveryError::ScrubFailed { addr: failures[0] };
            if let Ok(sum) = ctrl.targeted_repair(&hint) {
                absorb(out, sum, tel, scheme);
                continue;
            }
        }
        let mut sum = RepairSummary::default();
        let final_passes = pass >= MAX_SCRUB_PASSES - 2;
        for addr in &failures {
            match ctrl.repair_line(*addr) {
                Ok(w) if w > 0 => sum.repaired += 1,
                // Media-clean but unverifiable: on early passes let
                // reconcile try to re-anchor the metadata first; on
                // the late passes retire the line.
                Ok(_) if !final_passes => {}
                _ => {
                    sum.quarantined += 1;
                    if ctrl.quarantine_line(*addr)? {
                        sum.lost += 1;
                    }
                }
            }
        }
        let rec = ctrl.reconcile_metadata()?;
        sum.absorb(rec);
        absorb(out, sum, tel, scheme);
    }
    // One last check after the final pass's reconcile.
    if sweep(ctrl)?.is_empty() {
        Ok(())
    } else {
        Err(RecoveryError::SchemeCannotRecover {
            reason: "scrub did not converge",
        })
    }
}

/// One scrub sweep: reads and verifies every data line, returning the
/// ones that fail. The ladder owns the controller and nobody is shown a
/// value, so the reads are deferred and the sweep ends in one barrier
/// for whatever the fills and the repairs before it left buffered,
/// instead of one per line.
fn sweep<C: Supervised + ?Sized>(ctrl: &mut C) -> Result<Vec<DataAddr>, RecoveryError> {
    let failures = (0..ctrl.data_lines())
        .map(DataAddr::new)
        .filter(|&addr| ctrl.read_deferred(addr).is_err())
        .collect();
    ctrl.domain_mut().barrier()?;
    Ok(failures)
}

/// Synthesizes the outcome from the accumulated repair accounting.
fn outcome_of(out: &SupervisedRecovery) -> RecoveryOutcome {
    if out.lost_lines > 0 {
        RecoveryOutcome::Quarantined {
            lost_lines: out.lost_lines,
        }
    } else if out.repaired_lines + out.rebuilt_nodes + out.quarantined_lines > 0 {
        RecoveryOutcome::Degraded {
            repaired: out.repaired_lines,
            rebuilt: out.rebuilt_nodes,
        }
    } else {
        RecoveryOutcome::Recovered
    }
}

/// Errors no ladder rung can improve on: the scheme has no shadow
/// information at all, or the device itself failed.
fn is_structural(err: &RecoveryError) -> bool {
    matches!(
        err,
        RecoveryError::SchemeCannotRecover { .. } | RecoveryError::Nvm(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_display_is_readable() {
        assert_eq!(RecoveryOutcome::Recovered.to_string(), "recovered");
        assert_eq!(
            RecoveryOutcome::Degraded {
                repaired: 2,
                rebuilt: 3
            }
            .to_string(),
            "degraded (repaired 2, rebuilt 3)"
        );
        assert_eq!(
            RecoveryOutcome::Quarantined { lost_lines: 5 }.to_string(),
            "quarantined (lost 5 lines)"
        );
    }

    #[test]
    fn repair_summary_absorbs() {
        let mut a = RepairSummary {
            repaired: 1,
            rebuilt: 2,
            quarantined: 3,
            lost: 1,
        };
        a.absorb(RepairSummary {
            repaired: 10,
            rebuilt: 20,
            quarantined: 30,
            lost: 4,
        });
        assert_eq!(a.repaired, 11);
        assert_eq!(a.rebuilt, 22);
        assert_eq!(a.quarantined, 33);
        assert_eq!(a.lost, 5);
    }

    use crate::{AnubisConfig, Family, Reopened};
    use anubis_nvm::{Block, FaultPlan, MemBackend};
    use anubis_telemetry::Registry;
    use std::sync::Arc;

    const LINES: u64 = 96;

    fn payload(addr: u64) -> Block {
        Block::from_words([addr, !addr, addr * 7, 1, 2, 3, 4, 0x5CAB])
    }

    /// A controller over a fresh in-memory image, booted as a server
    /// boots one, with `LINES` lines written — under `plan` when given,
    /// stopping at the write the fault interrupts.
    fn served(family: Family, plan: Option<FaultPlan>) -> Reopened<MemBackend> {
        let (mut ctrl, hint) = family.reopen(&AnubisConfig::small_test(), MemBackend::new());
        resume(ctrl.as_mut(), hint.as_ref()).expect("boot of a fresh image");
        if let Some(plan) = plan {
            ctrl.domain_mut().arm_fault(plan);
        }
        for addr in 0..LINES {
            // Strided so the writes dirty many counter blocks and nodes.
            if ctrl.write(DataAddr::new(addr * 67), payload(addr)).is_err() {
                break;
            }
        }
        ctrl
    }

    /// What `kill -9` leaves of [`served`]: the backend with the WPQ
    /// drained into it, every volatile structure gone.
    fn killed_image(family: Family) -> MemBackend {
        let mut ctrl = served(family, None);
        ctrl.domain_mut().drain_wpq();
        ctrl.domain().device().backend().clone()
    }

    fn reopened(family: Family, image: MemBackend) -> (Reopened<MemBackend>, Arc<Registry>) {
        let (mut ctrl, hint) = family.reopen(&AnubisConfig::small_test(), image);
        assert_eq!(hint, None, "{}: a clean image has no hint", family.name());
        let (reg, tel) = Telemetry::private();
        ctrl.set_telemetry(tel);
        (ctrl, reg)
    }

    /// Labels of the `supervisor_rung` spans, in the order they began.
    fn rungs(reg: &Registry) -> Vec<String> {
        let mut spans = reg.spans();
        spans.retain(|s| s.name == "supervisor_rung");
        spans.sort_by_key(|s| s.start_ns);
        spans.into_iter().map(|s| s.label).collect()
    }

    fn device_reads(ctrl: &Reopened<MemBackend>) -> u64 {
        ctrl.domain().device().stats().reads()
    }

    #[test]
    fn a_clean_restart_is_rung_one_and_reads_no_data_line() {
        for family in Family::all() {
            let name = family.name();
            let image = killed_image(family);

            // The paper's recovery alone: the controller call, no ladder.
            let (mut bare, _) = reopened(family, image.clone());
            bare.recover().expect("bare recovery of a clean image");

            let (mut ctrl, reg) = reopened(family, image);
            let out = resume(ctrl.as_mut(), None).expect("resume of a clean image");
            assert_eq!(out.outcome, RecoveryOutcome::Recovered, "{name}");
            assert_eq!(rungs(&reg), ["fast"], "{name}: no scrub span");
            assert_eq!(
                device_reads(&ctrl),
                device_reads(&bare),
                "{name}: a clean boot reads what recover() reads and not a line more"
            );
            // Verified on access instead: every line is there.
            for addr in 0..LINES {
                let got = ctrl
                    .read(DataAddr::new(addr * 67))
                    .expect("read after boot");
                assert_eq!(got, payload(addr), "{name}: line {addr}");
            }
        }
    }

    #[test]
    fn recover_always_scrubs_and_so_does_resume_with_a_reopen_hint() {
        for family in Family::all() {
            let name = family.name();
            let image = killed_image(family);

            let (mut ctrl, reg) = reopened(family, image.clone());
            let lines = ctrl.data_lines();
            let out = recover(ctrl.as_mut()).expect("full ladder over a clean image");
            assert_eq!(out.outcome, RecoveryOutcome::Recovered, "{name}");
            assert_eq!(rungs(&reg), ["fast", "scrub"], "{name}: recover()");
            let scrub = reg.spans().into_iter().find(|s| s.label == "scrub");
            assert_eq!(scrub.map(|s| s.items), Some(lines), "{name}: every line");

            let (mut ctrl, reg) = reopened(family, image);
            let hint = RecoveryError::CorruptImage {
                what: "quarantine table",
            };
            resume(ctrl.as_mut(), Some(&hint)).expect("resume with a hint");
            assert_eq!(
                rungs(&reg),
                ["targeted", "fast", "scrub"],
                "{name}: a reopen hint is evidence"
            );
        }
    }

    /// The first torn write (counted persist index) after which the
    /// scheme's own `recover()` fails in a way the ladder can climb past.
    fn plan_that_defeats_rung_one(family: Family) -> FaultPlan {
        (0..)
            .map(|k| FaultPlan::torn_write_after(k, 3))
            .find(|plan| {
                let mut ctrl = served(family, Some(plan.clone()));
                assert!(
                    ctrl.domain().fault_fired().is_some(),
                    "{}: no torn write defeats rung 1",
                    family.name()
                );
                ctrl.crash();
                matches!(ctrl.recover(), Err(e) if !e.is_refusal() && !is_structural(&e))
            })
            .expect("the search ends in the assertion above")
    }

    #[test]
    fn a_rung_one_error_on_restart_takes_the_whole_ladder() {
        for family in Family::all() {
            let name = family.name();
            let plan = plan_that_defeats_rung_one(family);
            let mut ctrl = served(family, Some(plan));
            ctrl.crash();
            let (reg, tel) = Telemetry::private();
            ctrl.set_telemetry(tel);

            let out = resume(ctrl.as_mut(), None).expect("the ladder ends in a structured outcome");
            // A torn block stays torn: `fast` runs once and the ladder
            // goes straight to targeted repair.
            assert!(out.escalations >= 1, "{name}");
            assert_eq!(
                rungs(&reg),
                ["fast", "targeted", "scrub"],
                "{name}: a rung-1 error is evidence"
            );
        }
    }
}
