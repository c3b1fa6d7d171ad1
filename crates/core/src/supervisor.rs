//! The recovery supervisor: an escalation ladder that turns terminal
//! [`RecoveryError`]s into graceful degradation.
//!
//! The paper's recovery algorithms (and `MemoryController::recover`) are
//! all-or-nothing: the first unverifiable block aborts recovery even when
//! a slower path could still restore, or at least bound, the damage. The
//! supervisor drives a [`Supervised`] controller through four rungs:
//!
//! 1. **Fast** — the scheme's shadow-assisted recovery (AGIT SCT/SMT
//!    scan or ASIT ST splice), exactly as `recover()` runs it today.
//! 2. **Retry** — bounded re-runs with exponential backoff accounted in
//!    *simulated* nanoseconds, for transiently correctable media errors
//!    (each retry re-reads and ECC-corrects through the normal path).
//! 3. **Targeted repair** — scheme-specific reconstruction: Osiris-style
//!    counter probing plus bottom-up tree rebuild for the general-tree
//!    family; shadow-table spill-splice or top-down MAC-verify-and-reset
//!    for the SGX family.
//! 4. **Quarantine** — a scrub pass walks every data line; lines that
//!    still cannot be verified are ECC-repaired in place when possible
//!    and otherwise remapped into the spare region by the bad-block
//!    layer in `anubis-nvm`, with permanently lost content counted.
//!
//! The ladder always terminates in a structured [`RecoveryOutcome`]
//! (`Recovered`, `Degraded`, or `Quarantined`) unless the scheme is
//! structurally unable to recover at all (`SchemeCannotRecover`). Every
//! rung runs on the calling thread and applies its writes in item order.

use crate::error::RecoveryError;
use crate::layout::DataAddr;
use crate::recovery::RecoveryReport;
use crate::MemoryController;
use anubis_nvm::BlockAddr;
use anubis_telemetry::Telemetry;

/// Rung-2 retry budget unless [`Supervisor::with_max_retries`] sets
/// another.
pub const DEFAULT_MAX_RETRIES: u32 = 3;

/// Simulated backoff before the first retry; doubles per attempt.
pub const BASE_BACKOFF_NS: u64 = 1_000;

/// Scrub passes before the supervisor gives up on convergence. Each pass
/// quarantines every still-failing line, so two passes normally suffice;
/// the cap is a defense against a repair rung that loses ground.
const MAX_SCRUB_PASSES: u32 = 6;

/// How a supervised recovery ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Every line verified through the fast path (possibly after
    /// retries); nothing was rebuilt or lost.
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
    /// The report of the last successful fast-recovery attempt (zeroed
    /// when recovery only succeeded through targeted repair).
    pub report: RecoveryReport,
    /// Rung-2 attempts consumed.
    pub retries: u32,
    /// Times the ladder escalated past rung 2.
    pub escalations: u32,
    /// Simulated backoff time accumulated by rung 2.
    pub backoff_ns: u64,
    /// Data lines resealed after ECC repair.
    pub repaired_lines: u64,
    /// Metadata blocks reconstructed by rungs 3/4.
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

/// The per-scheme hooks the supervisor drives past rung 1 (which is
/// [`MemoryController::recover`] itself). Implemented by
/// [`crate::BonsaiController`] and [`crate::SgxController`] (in their
/// `repair` submodules, which have access to controller internals).
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

    /// Rung 3: scheme-specific metadata reconstruction, driven by the
    /// error that defeated the fast path.
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

    /// Telemetry handle for supervisor instrumentation.
    fn supervisor_telemetry(&self) -> Telemetry;
}

/// Drives a [`Supervised`] controller through the escalation ladder.
#[derive(Clone, Debug)]
pub struct Supervisor {
    max_retries: u32,
    scrub: bool,
}

impl Supervisor {
    /// A supervisor with the default retry budget
    /// ([`DEFAULT_MAX_RETRIES`]) and the scrub pass enabled.
    pub fn new() -> Self {
        Supervisor {
            max_retries: DEFAULT_MAX_RETRIES,
            scrub: true,
        }
    }

    /// Overrides the rung-2 retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Enables or disables the O(memory) scrub pass. With scrub off the
    /// supervisor trusts the fast path's verdict and never quarantines —
    /// recovery stays O(cache) but latent data damage goes undetected
    /// until the next read.
    pub fn with_scrub(mut self, scrub: bool) -> Self {
        self.scrub = scrub;
        self
    }

    /// The configured retry budget.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Runs the full ladder.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::SchemeCannotRecover`] when the scheme is
    /// structurally unrecoverable (no shadow information at all) or the
    /// scrub fails to converge; [`RecoveryError::Nvm`] for device-level
    /// failures. Every *content* problem ends in a structured
    /// [`RecoveryOutcome`] instead of an error.
    pub fn recover<C: Supervised + ?Sized>(
        &self,
        ctrl: &mut C,
    ) -> Result<SupervisedRecovery, RecoveryError> {
        let tel = ctrl.supervisor_telemetry();
        let scheme = ctrl.scheme_name();
        let mut out = SupervisedRecovery {
            outcome: RecoveryOutcome::Recovered,
            report: RecoveryReport::default(),
            retries: 0,
            escalations: 0,
            backoff_ns: 0,
            repaired_lines: 0,
            rebuilt_nodes: 0,
            quarantined_lines: 0,
            lost_lines: 0,
        };

        // Rung 1: fast shadow-assisted recovery.
        let first_err = {
            let _g = tel.span("supervisor_rung", "fast");
            match ctrl.recover() {
                Ok(r) => {
                    out.report = r;
                    None
                }
                Err(e) if e.is_refusal() => return Err(self.note_refusal(e, &tel, scheme)),
                Err(e) if is_structural(&e) => return Err(e),
                Err(e) => Some(e),
            }
        };

        if let Some(first) = first_err {
            // Rung 2: bounded retries with exponential simulated backoff.
            let mut last = first;
            let mut fast_ok = false;
            for attempt in 0..self.max_retries {
                out.retries += 1;
                out.backoff_ns += BASE_BACKOFF_NS << attempt;
                tel.incr("supervisor_retries_total", scheme, 1);
                ctrl.crash();
                let _g = tel.span("supervisor_rung", "retry");
                match ctrl.recover() {
                    Ok(r) => {
                        out.report = r;
                        fast_ok = true;
                        break;
                    }
                    Err(e) if e.is_refusal() => return Err(self.note_refusal(e, &tel, scheme)),
                    Err(e) if is_structural(&e) => return Err(e),
                    Err(e) => last = e,
                }
            }
            if !fast_ok {
                // Rung 3: targeted repair.
                out.escalations += 1;
                tel.incr("supervisor_escalations_total", scheme, 1);
                let _g = tel.span("supervisor_rung", "targeted");
                let sum = ctrl.targeted_repair(&last)?;
                self.absorb(&mut out, sum, &tel, scheme);
            }
        }

        // Rung 4: scrub — every line must verify, be repaired, or be
        // explicitly quarantined and counted.
        if self.scrub {
            self.scrub_pass(ctrl, &mut out, &tel, scheme)?;
        }

        if out.quarantined_lines > 0 {
            ctrl.persist_quarantine();
        }
        out.outcome = outcome_of(&out);
        Ok(out)
    }

    /// Enters the ladder at rung 3 with a known corruption hint, then
    /// runs the full ladder.
    ///
    /// This is the restart path for a reopened device image whose
    /// controller reported a non-structural [`RecoveryError`] at reopen
    /// (e.g. [`RecoveryError::CorruptImage`] for an unparseable persisted
    /// quarantine table): the corruption is already known, so waiting for
    /// the fast path to trip over it wastes the retry budget. Targeted
    /// repair runs first with the hint — valid on a freshly reopened,
    /// powered device — and its repair work is merged into the accounting
    /// of the subsequent [`Supervisor::recover`] run.
    ///
    /// # Errors
    ///
    /// Same classes as [`Supervisor::recover`].
    pub fn repair_then_recover<C: Supervised + ?Sized>(
        &self,
        ctrl: &mut C,
        err: &RecoveryError,
    ) -> Result<SupervisedRecovery, RecoveryError> {
        let tel = ctrl.supervisor_telemetry();
        let scheme = ctrl.scheme_name();
        // A freshness refusal from reopen is not a corruption hint: no
        // ladder rung may repair its way into serving rolled-back or
        // unverifiable-epoch state. Refuse before touching the image.
        if err.is_refusal() {
            return Err(self.note_refusal(err.clone(), &tel, scheme));
        }
        // Drain any REDO group left in the persistent registers before
        // repairing over the image (idempotent; rung 1 repeats it).
        let _ = ctrl.domain_mut().power_up();
        tel.incr("supervisor_escalations_total", scheme, 1);
        let pre = {
            let _g = tel.span("supervisor_rung", "targeted");
            ctrl.targeted_repair(err)?
        };
        let mut out = self.recover(ctrl)?;
        out.escalations += 1;
        out.repaired_lines += pre.repaired;
        out.rebuilt_nodes += pre.rebuilt;
        out.quarantined_lines += pre.quarantined;
        out.lost_lines += pre.lost;
        if pre.quarantined > 0 {
            ctrl.persist_quarantine();
        }
        out.outcome = outcome_of(&out);
        Ok(out)
    }

    /// The restart path over a reopened image: [`Supervisor::recover`],
    /// or [`Supervisor::repair_then_recover`] when reopen handed back a
    /// `hint`.
    ///
    /// # Errors
    ///
    /// Same classes as [`Supervisor::recover`].
    pub fn resume<C: Supervised + ?Sized>(
        &self,
        ctrl: &mut C,
        hint: Option<&RecoveryError>,
    ) -> Result<SupervisedRecovery, RecoveryError> {
        match hint {
            Some(err) => self.repair_then_recover(ctrl, err),
            None => self.recover(ctrl),
        }
    }

    /// Counts a freshness refusal in telemetry and hands the error back
    /// unchanged — the caller's decision (refuse service, surface to the
    /// operator) happens above the ladder.
    fn note_refusal(
        &self,
        err: RecoveryError,
        tel: &Telemetry,
        scheme: &'static str,
    ) -> RecoveryError {
        match &err {
            RecoveryError::RollbackDetected { .. } => {
                tel.incr("supervisor_rollback_refusals_total", scheme, 1);
            }
            RecoveryError::FreshnessAnchorViolation { .. } => {
                tel.incr("supervisor_anchor_refusals_total", scheme, 1);
            }
            _ => {}
        }
        err
    }

    fn absorb(
        &self,
        out: &mut SupervisedRecovery,
        sum: RepairSummary,
        tel: &Telemetry,
        scheme: &'static str,
    ) {
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
        &self,
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
            let mut failures: Vec<DataAddr> = Vec::new();
            for i in 0..ctrl.data_lines() {
                let addr = DataAddr::new(i);
                if ctrl.read(addr).is_err() {
                    failures.push(addr);
                }
            }
            if failures.is_empty() {
                return Ok(());
            }
            // First failing pass without a rung-3 run yet: give the
            // scheme one shot at wholesale metadata reconstruction
            // before retiring lines one by one.
            if !did_targeted {
                did_targeted = true;
                out.escalations += 1;
                tel.incr("supervisor_escalations_total", scheme, 1);
                let hint = RecoveryError::ScrubFailed { addr: failures[0] };
                if let Ok(sum) = ctrl.targeted_repair(&hint) {
                    self.absorb(out, sum, tel, scheme);
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
            self.absorb(out, sum, tel, scheme);
        }
        // One last check after the final pass's reconcile.
        let clean = (0..ctrl.data_lines()).all(|i| ctrl.read(DataAddr::new(i)).is_ok());
        if clean {
            Ok(())
        } else {
            Err(RecoveryError::SchemeCannotRecover {
                reason: "scrub did not converge",
            })
        }
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::new()
    }
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

    #[test]
    fn supervisor_builders() {
        let s = Supervisor::new().with_max_retries(5).with_scrub(false);
        assert_eq!(s.max_retries(), 5);
    }
}
