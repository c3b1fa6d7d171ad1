//! A restart over a dead image, and the one verdict every harness that
//! makes dead images takes from it.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use anubis::{
    supervisor, AnubisConfig, DataAddr, Family, RecoveryError, RecoveryOutcome, Reopened,
    SupervisedRecovery,
};
use anubis_nvm::{AnchorPolicy, FileBackend, Freshness, NvmBackend};

use super::{Acked, HarnessError, ReadBack};

/// Opens `image` under its freshness anchor, reopens `family`'s
/// controller over it and runs supervised recovery: what a restarted
/// machine does, whoever restarts it. That is [`supervisor::resume`]:
/// rung 1, and the rest of the ladder with its scrub only when reopen
/// raised a hint or rung 1 failed — so a campaign's audit is the first
/// reader of every line it checks, and a line damaged at rest must fail
/// that read typed.
///
/// # Errors
///
/// [`HarnessError::Nvm`] when the image does not open,
/// [`HarnessError::Recovery`] when the supervisor refuses or fails.
pub fn restart(
    family: Family,
    config: &AnubisConfig,
    image: &Path,
    policy: AnchorPolicy,
) -> Result<(Reopened<FileBackend>, SupervisedRecovery), HarnessError> {
    let backend = FileBackend::open_with_anchor(image, config.key.0, policy)?;
    let (mut ctrl, hint) = family.reopen(config, backend);
    let recovery = supervisor::resume(ctrl.as_mut(), hint.as_ref())?;
    Ok((ctrl, recovery))
}

/// How one restart over a dead image terminated. Every restart
/// [`judge`] finishes lands in exactly one of these; silent staleness and
/// panics are [`Breach`]es, never verdicts.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Recovery succeeded and every line the model owes read back what
    /// it owes.
    FullRecovery,
    /// The system serves, but some owed state was damaged — and said so,
    /// through typed read errors or declared quarantine loss.
    Degraded {
        /// Owed addresses whose reads errored or were declared lost by
        /// quarantine.
        damage: u64,
        /// The supervised recovery outcome, rendered.
        outcome: String,
    },
    /// Reopen or supervised recovery returned a typed error; nothing
    /// was served.
    Refused {
        /// Whether the refusal was specifically
        /// [`RecoveryError::RollbackDetected`].
        rollback: bool,
        /// The refusal, rendered.
        reason: String,
    },
}

impl Verdict {
    /// Stable identifier used in reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::FullRecovery => "full-recovery",
            Verdict::Degraded { .. } => "degraded",
            Verdict::Refused { .. } => "refused",
        }
    }
}

/// What ends a restart instead of a [`Verdict`]: a finding that stops
/// any campaign.
#[derive(Debug)]
pub enum Breach {
    /// A line read back something other than what the model owes, with
    /// no typed error and no declared quarantine loss: an owed write
    /// lost, or a write the model does not owe visible.
    SilentStale {
        /// The data-line address.
        addr: u64,
        /// Op index of the write the model owes there (`u64::MAX`: none,
        /// zeros are owed).
        owed: u64,
        /// First word of what was read instead.
        got: u64,
    },
    /// The reopen / recover / read path panicked instead of returning a
    /// typed error.
    Panicked {
        /// The panic payload, rendered.
        what: String,
    },
}

impl std::fmt::Display for Breach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let silent = "with no typed error and no declared loss";
        match self {
            Breach::SilentStale { addr, owed, got } => {
                write!(f, "SILENT STALE SERVE: line {addr} read {got:#018x} ")?;
                match *owed {
                    u64::MAX => write!(f, "where zeros are owed, {silent}"),
                    op => write!(f, "where the write of op {op} is owed, {silent}"),
                }
            }
            Breach::Panicked { what } => write!(f, "PANIC in the restart: {what}"),
        }
    }
}

/// Restarts `family` over `image` under `policy` ([`restart`]) and
/// drives it to a [`Verdict`]: a typed refusal (the image does not open,
/// or the supervisor refuses), degraded with declared damage, or full
/// recovery. A surviving image is audited against `model(freshness)`,
/// where `freshness` is what the anchored open reported; the model is
/// asked for only then. Wrong data is tolerable only as *declared* loss:
/// a zero on a line the supervisor quarantined and said so.
///
/// # Errors
///
/// A [`Breach`]: a silent stale serve, or a panic anywhere in the
/// restart.
pub fn judge(
    family: Family,
    image: &Path,
    policy: AnchorPolicy,
    model: impl FnOnce(Freshness) -> Acked,
) -> Result<Verdict, Breach> {
    let evaluate = || {
        let config = AnubisConfig::small_test();
        let (mut ctrl, rec) = match restart(family, &config, image, policy) {
            Ok(restarted) => restarted,
            Err(HarnessError::Recovery(e)) => {
                return Ok(Verdict::Refused {
                    rollback: matches!(e, RecoveryError::RollbackDetected { .. }),
                    reason: e.to_string(),
                })
            }
            Err(HarnessError::Nvm(e)) => {
                return Ok(Verdict::Refused {
                    rollback: false,
                    reason: e.to_string(),
                })
            }
            Err(other) => unreachable!("restart() opens and recovers only: {other}"),
        };
        let model = model(ctrl.domain().device().backend().freshness());
        let findings = model.audit(
            ctrl.as_mut(),
            |c, addr| c.read(DataAddr::new(addr)),
            |c, addr, _| rec.quarantined_lines > 0 && c.is_line_quarantined(DataAddr::new(addr)),
        );
        let mut damage = 0u64;
        for found in findings {
            match found.readback {
                ReadBack::Matched | ReadBack::InFlight => {}
                // A typed read error is detected damage, never silent.
                ReadBack::Excused | ReadBack::Failed(_) => damage += 1,
                ReadBack::Wrong { got } => {
                    return Err(Breach::SilentStale {
                        addr: found.addr,
                        owed: found.op_index,
                        got: got.word(0),
                    })
                }
            }
        }
        if damage == 0 && matches!(rec.outcome, RecoveryOutcome::Recovered) {
            Ok(Verdict::FullRecovery)
        } else {
            Ok(Verdict::Degraded {
                damage: damage.max(rec.lost_lines),
                outcome: rec.outcome.to_string(),
            })
        }
    };
    panic::catch_unwind(AssertUnwindSafe(evaluate)).unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(Breach::Panicked { what })
    })
}
