//! Kill −9 restart drills against the file-backed NVM device.
//!
//! The fault campaigns in [`crate::fault`] crash a controller *in
//! process*: the device image survives because it lives in the same
//! address space. This module removes that safety net. A **child
//! process** — the script child of [`crate::campaign`] — serves a
//! deterministic script against a [`anubis_nvm::FileBackend`] image and
//! appends a checksummed, fsynced *ack record* after every acknowledged
//! write. The **parent** SIGKILLs the child at a randomized point, then —
//! in its own address space, exactly like a machine restart — reopens the
//! image, runs the recovery supervisor, and audits the result against the
//! model the ack log implies ([`Acked::from_log`]).
//!
//! The contract under test is the durability side of the Anubis
//! recovery story: an acknowledged write (one whose commit group reached
//! the write-ahead log *and* was flushed by the backend barrier) must
//! survive an arbitrary process death, while an unacknowledged tail may
//! vanish — but must never surface as silently wrong data.
//!
//! Tolerance window: the child logs the ack *after* the controller
//! acknowledges, so a kill can land between the durable barrier and the
//! ack append. At most **one** write (the first scripted write past the
//! highest logged ack) may therefore be durable-but-unlogged — the
//! model's in-flight write; its address may read either its old
//! acknowledged payload or the in-flight one. Everything else must match
//! the ack log exactly.
//!
//! Every point is restarted and audited once, over a copy: the dead image
//! itself is the evidence a failing point keeps.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use anubis::{AnubisConfig, DataAddr, Family, MemError, MemoryController};
use anubis_nvm::NvmBackend;

use crate::campaign::{
    fnv1a64, io_ctx, restart, Acked, HarnessError, ReadBack, ScriptChild, ScriptOp, XorShift64,
    FNV1A64_EMPTY,
};

pub use crate::campaign::drill_script;

/// Everything a drill campaign needs besides the family.
#[derive(Debug, Clone)]
pub struct DrillSpec {
    /// Script length in operations (reads and writes).
    pub script_len: usize,
    /// Data-line address range the script touches.
    pub lines: u64,
    /// Seed for the script and for the kill-point sequence.
    pub seed: u64,
}

impl Default for DrillSpec {
    fn default() -> Self {
        DrillSpec {
            script_len: 1_200,
            lines: 300,
            seed: 0xA17B_05E7,
        }
    }
}

/// A drill failure. Every variant is a campaign-stopping finding (or an
/// environmental error the caller should surface), never a panic.
#[derive(Debug)]
pub enum DrillError {
    /// The harness itself failed: filesystem, process control, the child
    /// before its kill, the image or the recovery of a restart.
    Harness(HarnessError),
    /// An acknowledged write did not read back after recovery.
    AckedWriteLost {
        /// The data-line address that lost its payload.
        addr: u64,
        /// The script index of the last acknowledged write to it.
        op_index: u64,
    },
    /// A read of an acknowledged address errored after recovery.
    AckedReadFailed {
        /// The data-line address whose read failed.
        addr: u64,
        /// The controller error.
        err: MemError,
    },
    /// A campaign point failed; wraps the underlying error with enough
    /// context to reproduce it (the point's scratch dir is kept).
    Point {
        /// Index of the failing point in campaign order.
        index: u64,
        /// The point's kill threshold (acks).
        kill_after: u64,
        /// Scratch directory preserved for post-mortem.
        dir: PathBuf,
        /// The underlying failure.
        source: Box<DrillError>,
    },
}

impl std::fmt::Display for DrillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrillError::Harness(
                e @ (HarnessError::Io { .. } | HarnessError::BadChildArg { .. }),
            ) => write!(f, "drill {e}"),
            DrillError::Harness(e) => write!(f, "{e}"),
            DrillError::AckedWriteLost { addr, op_index } => {
                write!(f, "acknowledged write lost: addr {addr} (op {op_index})")
            }
            DrillError::AckedReadFailed { addr, err } => {
                write!(
                    f,
                    "post-recovery read of acknowledged addr {addr} failed: {err}"
                )
            }
            DrillError::Point {
                index,
                kill_after,
                dir,
                source,
            } => write!(
                f,
                "point {index} (kill after {kill_after} acks, artifacts in {}): {source}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for DrillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrillError::Harness(e) => Some(e),
            DrillError::Point { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl<E: Into<HarnessError>> From<E> for DrillError {
    fn from(e: E) -> Self {
        DrillError::Harness(e.into())
    }
}

/// A stable fingerprint of the persistent device state: every touched
/// block and every register mirror, hashed in address order.
pub fn device_fingerprint<C: MemoryController + ?Sized>(ctrl: &C) -> u64 {
    let backend = ctrl.domain().device().backend();
    let mut entries = backend.entries();
    entries.sort_by_key(|&(a, _)| a);
    let mut regs = backend.regs();
    regs.sort_by_key(|&(i, _)| i);
    let mut h = FNV1A64_EMPTY;
    for (addr, block) in &entries {
        h = fnv1a64(fnv1a64(h, &addr.to_le_bytes()), block.as_bytes());
    }
    h = fnv1a64(h, b"|regs|");
    for (idx, block) in &regs {
        h = fnv1a64(fnv1a64(h, &[*idx]), block.as_bytes());
    }
    h
}

/// What one kill point established.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Ack-count threshold at which the parent pulled the trigger.
    pub kill_after_acks: u64,
    /// Acknowledged writes found in the (possibly torn) ack log.
    pub acked: u64,
    /// Whether the child finished the whole script before the kill
    /// threshold was reached (the kill then exercised a clean image).
    pub completed: bool,
    /// Distinct acknowledged addresses verified post-recovery.
    pub verified_addrs: u64,
    /// Whether the single durable-but-unlogged in-flight write was
    /// observed (kill landed between barrier and ack append).
    pub inflight_observed: bool,
    /// The supervised outcome, rendered.
    pub outcome: String,
    /// The post-recovery device fingerprint.
    pub fingerprint: u64,
}

/// Restarts one family over `image` and audits it against the ack log's
/// model.
fn audited_restart(
    family: Family,
    image: &Path,
    model: &Acked,
) -> Result<(u64, String, bool), DrillError> {
    let (mut ctrl, sup) = restart(family, &AnubisConfig::small_test(), image, None)?;
    let fingerprint = device_fingerprint(ctrl.as_ref());
    let mut inflight_observed = false;
    let findings = model.audit(
        ctrl.as_mut(),
        |c, addr| c.read(DataAddr::new(addr)),
        |_, _, _| false,
    );
    for found in findings {
        let (addr, op_index) = (found.addr, found.op_index);
        match found.readback {
            ReadBack::Matched => {}
            // The one tolerated divergence: the first scripted write past
            // the highest ack may be durable without a log record.
            ReadBack::InFlight => inflight_observed = true,
            ReadBack::Failed(err) => return Err(DrillError::AckedReadFailed { addr, err }),
            ReadBack::Excused | ReadBack::Wrong { .. } => {
                return Err(DrillError::AckedWriteLost { addr, op_index })
            }
        }
    }
    Ok((fingerprint, sup.outcome.to_string(), inflight_observed))
}

/// Verifies a dead image: one supervised restart and one audit, over a
/// copy — recovery and the audit write, and the dead image is the
/// evidence a failing point keeps. Returns the post-recovery fingerprint,
/// the rendered supervised outcome and whether the in-flight write was
/// observed. Shared by the process drill and the in-process restart
/// tests. `acked` is the parsed ack log — `(op index, addr)` per
/// acknowledged write — of the run over `script` that left the image.
///
/// # Errors
///
/// Any verification failure ([`DrillError::AckedWriteLost`],
/// [`DrillError::AckedReadFailed`], recovery errors).
pub fn verify_dead_image(
    family: Family,
    image: &Path,
    acked: &[(u64, u64)],
    script: &[ScriptOp],
) -> Result<(u64, String, bool), DrillError> {
    let model = Acked::from_log(acked, script);
    let copy = image.with_extension("restart.wal");
    fs::copy(image, &copy).map_err(io_ctx("copy image to", &copy))?;
    let result = audited_restart(family, &copy, &model);
    let _ = fs::remove_file(&copy);
    result
}

/// Runs one kill point: spawn the script child over a fresh image,
/// SIGKILL it once `kill_after_acks` acknowledgements are durable, then
/// verify the dead image. `exe` is the campaign binary itself (see
/// [`ScriptChild`] for the child's command line).
fn run_point(
    exe: &Path,
    family: Family,
    spec: &DrillSpec,
    dir: &Path,
    kill_after_acks: u64,
) -> Result<PointOutcome, DrillError> {
    fs::create_dir_all(dir).map_err(io_ctx("create scratch dir", dir))?;
    let child = ScriptChild {
        family,
        image: dir.join("image.wal"),
        ack: dir.join("acks.bin"),
        script_len: spec.script_len,
        lines: spec.lines,
        seed: spec.seed,
    };
    for stale in [&child.image, &child.ack] {
        let _ = fs::remove_file(stale);
    }
    let (completed, acked) = child.run_killed(exe, kill_after_acks)?;
    let (fingerprint, outcome, inflight_observed) =
        verify_dead_image(family, &child.image, &acked, &child.script())?;
    let verified_addrs = acked.iter().map(|&(_, a)| a).collect::<BTreeSet<_>>();
    Ok(PointOutcome {
        kill_after_acks,
        acked: acked.len() as u64,
        completed,
        verified_addrs: verified_addrs.len() as u64,
        inflight_observed,
        outcome,
        fingerprint,
    })
}

/// Aggregate results of one family's campaign.
#[derive(Debug, Clone)]
pub struct FamilyReport {
    /// The drilled family.
    pub family: Family,
    /// Kill points executed.
    pub points: u64,
    /// Points where the child outran the kill threshold and exited
    /// cleanly (the restart then exercised a quiescent image).
    pub completed_runs: u64,
    /// Total acknowledged writes verified across all points.
    pub acked_total: u64,
    /// Points where the durable-but-unlogged in-flight write surfaced.
    pub inflight_observed: u64,
    /// Smallest and largest kill thresholds drawn.
    pub kill_range: (u64, u64),
    /// Per-point outcomes (in execution order).
    pub outcomes: Vec<PointOutcome>,
}

/// The kill thresholds of one family's campaign, a pure function of the
/// spec's seed: `points` draws from `1..=max_acks`, or every one of them
/// when `sweep` is set.
fn planned_kills(family: Family, spec: &DrillSpec, points: u64, sweep: bool) -> Vec<u64> {
    let script = drill_script(spec.script_len, spec.lines, spec.seed);
    let max_acks = script.iter().filter(|op| op.0).count() as u64;
    if sweep {
        return (1..=max_acks).collect();
    }
    let mut rng = XorShift64::for_family(spec.seed, family);
    (0..points)
        .map(|_| 1 + rng.next_star() % max_acks)
        .collect()
}

/// Runs a family's full campaign: `points` randomized kill thresholds
/// (or, when `sweep` is set, one point per possible ack count — the
/// exhaustive nightly mode).
///
/// # Errors
///
/// Stops at the first [`DrillError`]; a completed campaign means zero
/// acknowledged-write loss at every point.
pub fn run_campaign(
    exe: &Path,
    family: Family,
    spec: &DrillSpec,
    dir: &Path,
    points: u64,
    sweep: bool,
) -> Result<FamilyReport, DrillError> {
    let planned = planned_kills(family, spec, points, sweep);
    let mut report = FamilyReport {
        family,
        points: 0,
        completed_runs: 0,
        acked_total: 0,
        inflight_observed: 0,
        kill_range: (u64::MAX, 0),
        outcomes: Vec::with_capacity(planned.len()),
    };
    for (i, &kill_after) in planned.iter().enumerate() {
        let pdir = dir.join(format!("{}-p{i}", family.name()));
        let out = match run_point(exe, family, spec, &pdir, kill_after) {
            Ok(out) => {
                let _ = fs::remove_dir_all(&pdir);
                out
            }
            // Keep the point's image and ack log for post-mortem.
            Err(source) => {
                return Err(DrillError::Point {
                    index: i as u64,
                    kill_after,
                    dir: pdir,
                    source: Box::new(source),
                })
            }
        };
        report.points += 1;
        report.completed_runs += u64::from(out.completed);
        report.acked_total += out.acked;
        report.inflight_observed += u64::from(out.inflight_observed);
        report.kill_range.0 = report.kill_range.0.min(kill_after);
        report.kill_range.1 = report.kill_range.1.max(kill_after);
        report.outcomes.push(out);
    }
    if report.points == 0 {
        report.kill_range = (0, 0);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{drive, Done, Stop};

    /// A point's verdict always comes from an audited restart — there is
    /// no way to get `Ok` out of [`verify_dead_image`] without one — and
    /// the dead image is still what the kill left afterwards.
    #[test]
    fn a_verdict_always_comes_from_an_audited_restart_of_a_copy() {
        let dir = std::env::temp_dir().join(format!("anubis-drill-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        let (family, config) = (Family::SgxAsit, AnubisConfig::small_test());
        let script = drill_script(80, 40, 0xD1A7);

        // Serve the script in process; dropping the controller without a
        // shutdown is the kill.
        let image = dir.join("image.wal");
        let mut acked = Vec::new();
        {
            let (mut ctrl, _) = restart(family, &config, &image, None).expect("fresh image");
            let stop = drive(ctrl.as_mut(), &script, |i, addr, what| {
                if let Done::Wrote(_) = what {
                    acked.push((i, addr));
                }
                Ok::<(), std::convert::Infallible>(())
            });
            assert_eq!(stop, Ok(Stop::Completed));
        }
        let dead = fs::read(&image).expect("dead image");

        // An empty ack log is restarted like any other: the outcome is the
        // supervisor's and the fingerprint the recovered image's.
        let (fingerprint, outcome, _) =
            verify_dead_image(family, &image, &[], &script).expect("nothing acknowledged");
        assert_eq!(outcome, "recovered");
        let full = verify_dead_image(family, &image, &acked, &script).expect("whole log");
        assert_eq!(full, (fingerprint, outcome, false));

        // Both restarts ran over a copy that is gone again; the dead
        // image is byte for byte what the kill left.
        assert!(!image.with_extension("restart.wal").exists());
        assert_eq!(fs::read(&image).expect("dead image"), dead);
        let (ctrl, _) = restart(family, &config, &image, None).expect("restart by hand");
        assert_eq!(fingerprint, device_fingerprint(ctrl.as_ref()));
        drop(ctrl);

        // The audit reads: the same log over an image that holds none of
        // its writes is a loss, not a pass.
        let empty = dir.join("empty.wal");
        drop(restart(family, &config, &empty, None).expect("empty image"));
        let lost = verify_dead_image(family, &empty, &acked, &script);
        assert!(
            matches!(lost, Err(DrillError::AckedWriteLost { .. })),
            "{lost:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The committed `BENCH_drill.json` is reproducible from its seed only
    /// while the script and the kill-point draw stay what they were.
    #[test]
    fn committed_seed_produces_the_recorded_script_and_kill_points() {
        let spec = DrillSpec::default();
        let script = drill_script(1_200, 300, 0xA17B_05E7);
        assert_eq!(
            script[..6],
            [
                (false, 284),
                (true, 257),
                (true, 64),
                (false, 77),
                (true, 210),
                (true, 139)
            ]
        );
        let max_acks = script.iter().filter(|op| op.0).count() as u64;
        assert_eq!(max_acks, 840);
        let mut bytes = Vec::new();
        for &(is_write, addr) in &script {
            bytes.push(u8::from(is_write));
            bytes.extend_from_slice(&addr.to_le_bytes());
        }
        assert_eq!(fnv1a64(FNV1A64_EMPTY, &bytes), 0x738d_ad14_aca6_1818);

        let planned = |family| planned_kills(family, &spec, 13, false);
        assert_eq!(
            planned(Family::BonsaiAgitPlus),
            [605, 548, 674, 425, 260, 801, 403, 360, 703, 518, 160, 761, 523]
        );
        assert_eq!(
            planned(Family::SgxAsit),
            [13, 266, 175, 435, 820, 33, 3, 740, 760, 157, 610, 391, 68]
        );
    }
}
