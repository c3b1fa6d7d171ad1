//! Kill −9 restart drills against the file-backed NVM device.
//!
//! The fault campaigns in [`crate::fault`] crash a controller *in
//! process*: the device image survives because it lives in the same
//! address space. This module removes that safety net. A **child
//! process** — the script child of [`crate::campaign`] — serves a
//! deterministic script over an anchored [`anubis_nvm::FileBackend`]
//! image, opened as the server opens its tenants. The **parent** SIGKILLs
//! it once the anchor beside the image reads a sealed epoch at or above
//! the point's threshold, then — in its own address space, exactly like a
//! machine restart — reopens a copy of the image and its anchor, runs the
//! recovery supervisor and requires full recovery against the exact
//! model ([`judge`]).
//!
//! The model is exact because the script is deterministic. An in-process
//! dry run over a fresh anchored image records the epoch of the frame
//! that holds every write ([`EpochTable`]): the epoch sealed before the
//! op, plus one — also for a write that leaves a checkpoint due, since a
//! checkpoint takes no epoch of its own, and a kill between the write's
//! frame and its checkpoint still owes it. After the kill a write is owed
//! exactly when its frame epoch is at most the image epoch the anchored
//! open reports in [`Freshness::Fresh`], which is one frame past the
//! sealed anchor when the kill landed between a frame's fsync and its
//! seal. Every line is audited ([`Acked::fresh`]): an owed write that
//! does not read back and a write that is not owed but shows both fail
//! the point. Nothing is
//! tolerated as in flight: the contract under test is the Triad-NVM rule,
//! *acknowledged ⇒ durable*, held from the durable side.
//!
//! Every point is restarted and audited once, over a copy: the dead image
//! and its anchor are the evidence a failing point keeps. A point fails
//! the campaign as a [`CampaignError`]: a `Breach` when a line reads other
//! than the model owes with nothing typed (an owed write lost, a write not
//! owed visible) or the restart panics, `Short` for a typed verdict below
//! full recovery. [`run_points`] keeps that point's directory,
//! `<family>-p<i>`, with the dead image and its anchor in it.

use std::fs;
use std::ops::ControlFlow;
use std::path::Path;

use anubis::{AnubisConfig, Family};
use anubis_nvm::{anchor_path_for, copy_image, AnchorPolicy, Freshness, FreshnessAnchor};

use crate::campaign::{
    drive_anchored, io_ctx, judge, op_payload, remove_image, run_points, Acked, CampaignError,
    ScriptChild, ScriptOp, ScriptSpec, Verdict, XorShift64,
};

pub use crate::campaign::drill_script;

/// Where every write of a script lands when the script is served from a
/// fresh anchored image: the epoch of its frame. A pure function of the
/// family and the script — the script child, serving the same script the
/// same way, writes the same frames.
#[derive(Clone, Debug)]
pub struct EpochTable {
    /// `(op index, addr, frame epoch)` per write, in script order.
    writes: Vec<(u64, u64, u64)>,
    /// The epoch sealed once the whole script has been served.
    final_epoch: u64,
}

impl EpochTable {
    /// Serves `script` in process over a fresh anchored image at `image`
    /// (removed again afterwards) and records each write's frame epoch:
    /// the epoch sealed before its op, plus one.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Harness`] when the image does not open or an op
    /// fails.
    pub fn dry_run(
        family: Family,
        script: &[ScriptOp],
        image: &Path,
    ) -> Result<EpochTable, CampaignError> {
        let (mut frames, mut final_epoch) = (Vec::new(), 0);
        drive_anchored(family, script, image, |_, acks, (before, sealed)| {
            if acks > frames.len() as u64 {
                frames.push(before + 1);
            }
            final_epoch = sealed;
            Ok::<_, CampaignError>(ControlFlow::Continue(()))
        })?;
        remove_image(image);
        let writes = (0..).zip(script).filter(|(_, op)| op.0);
        Ok(EpochTable {
            writes: (writes.zip(frames))
                .map(|((i, &(_, addr)), frame)| (i, addr, frame))
                .collect(),
            final_epoch,
        })
    }

    /// The epoch sealed once the whole script has been served.
    pub fn final_epoch(&self) -> u64 {
        self.final_epoch
    }

    /// Writes whose frame is at most `epoch`: what an image at `epoch`
    /// owes.
    pub fn owed(&self, epoch: u64) -> u64 {
        self.writes.iter().filter(|w| w.2 <= epoch).count() as u64
    }

    /// The exact model of an image at `epoch` over `lines` lines: every
    /// write whose frame is at most `epoch`, in script order, over zeros.
    pub fn model(&self, epoch: u64, lines: u64) -> Acked {
        let mut model = Acked::fresh(lines);
        for &(op, addr, _) in self.writes.iter().filter(|w| w.2 <= epoch) {
            model.ack(op, addr, op_payload(op, addr));
        }
        model
    }
}

/// What one kill point established.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Sealed epoch at which the parent pulled the trigger.
    pub kill_at: u64,
    /// Whether the child finished the whole script before its anchor
    /// reached the threshold (the kill then exercised a clean image).
    pub completed: bool,
    /// The epoch the anchored open of the dead image reported.
    pub image_epoch: u64,
    /// Whether the anchor was one frame behind the image: the kill
    /// landed between a frame's fsync and its seal.
    pub anchor_behind: bool,
    /// Writes owed at the image epoch; every one read back.
    pub owed: u64,
}

/// Verifies a dead image: one restart under its anchor and one audit of
/// every line, over a copy of the image and its anchor — recovery and
/// the audit write, and the dead pair is the evidence a failing point
/// keeps. `model(epoch)` is what an image at `epoch` owes; it is asked
/// at the epoch the anchored open reports. Returns that epoch and whether
/// the anchor was one frame behind it. Shared by the process drill and
/// the in-process restart tests.
///
/// # Errors
///
/// For anything short of full recovery against the model,
/// [`CampaignError::Breach`] (an owed write lost, a write not owed
/// visible, a panic) or [`CampaignError::Short`] (a typed verdict below
/// full recovery); harness I/O.
pub fn verify_dead_image(
    family: Family,
    image: &Path,
    model: impl FnOnce(u64) -> Acked,
) -> Result<(u64, bool), CampaignError> {
    let copy = image.with_extension("restart.wal");
    copy_image(image, &copy).map_err(io_ctx("copy image to", &copy))?;
    let sealed = FreshnessAnchor::probe(&anchor_path_for(&copy), AnubisConfig::small_test().key.0);
    let mut image_epoch = 0;
    let verdict = judge(family, &copy, AnchorPolicy::Strict, |fresh| {
        // The strict open lets no other verdict reach the audit.
        let Freshness::Fresh { epoch } = fresh else {
            return Acked::default();
        };
        image_epoch = epoch;
        model(epoch)
    });
    remove_image(&copy);
    let at = "restart".to_string();
    match verdict {
        Ok(Verdict::FullRecovery) => {}
        Ok(verdict) => {
            let (want, got) = (Verdict::FullRecovery.name(), format!("{verdict:?}"));
            return Err(CampaignError::Short { at, want, got });
        }
        Err(breach) => return Err(CampaignError::Breach { at, breach }),
    }
    let behind = matches!(sealed, Ok(Some(epoch)) if epoch < image_epoch);
    Ok((image_epoch, behind))
}

/// Runs one kill point in the empty directory `dir`: spawn the script
/// child over a fresh image, SIGKILL it once its anchor has sealed
/// `kill_at`, then verify the dead image against `table`. `exe` is the
/// campaign binary itself (see [`ScriptChild`] for the child's command
/// line).
fn run_point(
    exe: &Path,
    family: Family,
    spec: &ScriptSpec,
    table: &EpochTable,
    dir: &Path,
    kill_at: u64,
) -> Result<PointOutcome, CampaignError> {
    let child = ScriptChild {
        family,
        image: dir.join("image.wal"),
        script_len: spec.script_len,
        lines: spec.lines,
        seed: spec.seed,
    };
    let completed = child.run_killed(exe, kill_at)?;
    let (image_epoch, anchor_behind) =
        verify_dead_image(family, &child.image, |epoch| table.model(epoch, spec.lines))?;
    Ok(PointOutcome {
        kill_at,
        completed,
        image_epoch,
        anchor_behind,
        owed: table.owed(image_epoch),
    })
}

/// Aggregate results of one family's campaign.
#[derive(Debug, Clone)]
pub struct FamilyReport {
    /// The drilled family.
    pub family: Family,
    /// The dry run's final epoch: kill thresholds are drawn from
    /// `1..=final_epoch`.
    pub final_epoch: u64,
    /// Points where the child outran the kill threshold and exited
    /// cleanly (the restart then exercised a quiescent image).
    pub completed_runs: u64,
    /// Total owed writes verified across all points.
    pub owed_total: u64,
    /// Points whose anchor was one frame behind the image.
    pub anchor_behind: u64,
    /// Per-point outcomes (in execution order).
    pub outcomes: Vec<PointOutcome>,
}

/// The kill thresholds of one family's campaign, a pure function of the
/// spec's seed and the dry run's `final_epoch`: `points` draws from
/// `1..=final_epoch`, or every one of them when `sweep` is set.
fn planned_kills(
    family: Family,
    spec: &ScriptSpec,
    final_epoch: u64,
    points: u64,
    sweep: bool,
) -> Vec<u64> {
    if sweep {
        return (1..=final_epoch).collect();
    }
    let mut rng = XorShift64::for_family(spec.seed, family);
    (0..points)
        .map(|_| 1 + rng.next_star() % final_epoch.max(1))
        .collect()
}

/// Runs a family's full campaign: one dry run for the epoch table, then
/// `points` randomized kill thresholds (or, when `sweep` is set, one
/// point per sealed epoch — the exhaustive nightly mode), point `i` in
/// `dir/<family>-p<i>`.
///
/// # Errors
///
/// Stops at the first failing point ([`CampaignError::Point`]); a
/// completed campaign means full recovery against the exact model at
/// every point.
pub fn run_campaign(
    exe: &Path,
    family: Family,
    spec: &ScriptSpec,
    dir: &Path,
    points: u64,
    sweep: bool,
) -> Result<FamilyReport, CampaignError> {
    fs::create_dir_all(dir).map_err(io_ctx("create scratch dir", dir))?;
    let dry = dir.join(format!("{}-dry.wal", family.name()));
    let table = EpochTable::dry_run(family, &spec.script(), &dry)?;
    let planned = planned_kills(family, spec, table.final_epoch, points, sweep);
    let points = (0..).zip(planned).map(|(i, kill_at)| {
        let label = format!("point {i}, kill at sealed epoch {kill_at}");
        (format!("{}-p{i}", family.name()), label, kill_at)
    });
    let outcomes = run_points(dir, points, |kill_at, pdir| {
        run_point(exe, family, spec, &table, pdir, kill_at)
    })?;
    Ok(FamilyReport {
        family,
        final_epoch: table.final_epoch,
        completed_runs: outcomes.iter().filter(|o| o.completed).count() as u64,
        owed_total: outcomes.iter().map(|o| o.owed).sum(),
        anchor_behind: outcomes.iter().filter(|o| o.anchor_behind).count() as u64,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Breach;
    use crate::campaign::{drive, fnv1a64, restart, Stop, FNV1A64_EMPTY};
    use anubis::DataAddr;
    use anubis_nvm::{home_path_for, NvmBackend};
    use std::convert::Infallible;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anubis-drill-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Copies an image: what a kill there leaves.
    fn copy(from: &Path, to: &Path) -> Result<(), CampaignError> {
        copy_image(from, to).map_err(io_ctx("copy image to", to))?;
        Ok(())
    }

    const LINES: u64 = 40;

    /// Serves a short script over an anchored image and keeps two copies
    /// of it: `early`, after the last op before the tenth write, and `at`,
    /// after that write, whose frame is the last one `at` holds. Returns
    /// the dry run's table and that write.
    fn around_the_tenth_write(dir: &Path) -> (EpochTable, (u64, u64, u64)) {
        let (family, script) = (Family::BonsaiAgitPlus, drill_script(80, LINES, 0xD1A7));
        let table = EpochTable::dry_run(family, &script, &dir.join("dry.wal")).expect("dry run");
        let image = dir.join("image.wal");
        drive_anchored(family, &script, &image, |_, acks, _| {
            match acks {
                9 => copy(&image, &dir.join("early.wal"))?,
                10 => {
                    copy(&image, &dir.join("at.wal"))?;
                    return Ok(ControlFlow::Break(()));
                }
                _ => {}
            }
            Ok::<_, CampaignError>(ControlFlow::Continue(()))
        })
        .expect("drive to the tenth write");
        (table.clone(), table.writes[9])
    }

    /// Both copies pass against the model of the epoch they open at; the
    /// copy after the write, audited against the model one frame earlier,
    /// shows a write that model does not owe.
    #[test]
    fn a_model_taken_one_frame_early_reports_the_last_frames_write_as_visible_but_not_owed() {
        let dir = scratch("early-model");
        let (table, (op, addr, frame)) = around_the_tenth_write(&dir);
        let family = Family::BonsaiAgitPlus;
        let (at, early) = (dir.join("at.wal"), dir.join("early.wal"));
        let exact = |epoch| table.model(epoch, LINES);
        assert_eq!(
            verify_dead_image(family, &at, exact).ok(),
            Some((frame, false))
        );
        assert_eq!(
            verify_dead_image(family, &early, exact).ok(),
            Some((frame - 1, false))
        );

        let found = verify_dead_image(family, &at, |epoch| table.model(epoch - 1, LINES));
        let Err(CampaignError::Breach {
            breach: Breach::SilentStale { addr: a, owed, got },
            ..
        }) = found
        else {
            panic!("a write the model does not owe must show: {found:?}");
        };
        assert_eq!((a, got), (addr, op_payload(op, addr).word(0)));
        assert_ne!(owed, op, "the early model owes what was there before");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The copy before the write, audited against the model one frame
    /// later, has lost the write that model owes.
    #[test]
    fn a_model_taken_one_frame_late_reports_that_write_as_lost() {
        let dir = scratch("late-model");
        let (table, (op, addr, _)) = around_the_tenth_write(&dir);
        let early = dir.join("early.wal");
        let found = verify_dead_image(Family::BonsaiAgitPlus, &early, |epoch| {
            table.model(epoch + 1, LINES)
        });
        let Err(CampaignError::Breach {
            breach: Breach::SilentStale { addr: a, owed, got },
            ..
        }) = found
        else {
            panic!("the write of the next frame must be missing: {found:?}");
        };
        assert_eq!((a, owed), (addr, op));
        assert_ne!(got, op_payload(op, addr).word(0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A write that leaves a checkpoint due seals its own frame, then
    /// checkpoints in the same op, taking no epoch. A kill between the two
    /// leaves the image at the write's frame, over the home area as it
    /// was, which owes the write.
    #[test]
    fn an_image_cut_between_a_writes_frame_and_its_checkpoint_still_owes_that_write() {
        let dir = scratch("checkpoint-cut");
        let (family, lines) = (Family::BonsaiAgitPlus, LINES);
        let script = drill_script(2_400, lines, 0xC0A1);
        let dry = dir.join("dry.wal");
        let table = EpochTable::dry_run(family, &script, &dry).expect("dry run");
        // The first write whose op checkpointed: the home area appears.
        let (mut seen, mut checkpointing) = (0, None);
        drive_anchored(family, &script, &dry, |_, acks, (before, sealed)| {
            let wrote = std::mem::replace(&mut seen, acks) < acks;
            if wrote && home_path_for(&dry).exists() {
                assert_eq!(sealed, before + 1, "the checkpoint took no epoch");
                checkpointing = Some(table.writes[acks as usize - 1]);
                return Ok(ControlFlow::Break(()));
            }
            Ok::<_, CampaignError>(ControlFlow::Continue(()))
        })
        .expect("drive to a checkpoint");
        let (op, addr, frame) = checkpointing.expect("the script checkpoints");

        // Serve every op before it, then the write itself up to its
        // frame: executed, cut and committed, and never settled.
        let image = dir.join("image.wal");
        let config = AnubisConfig::small_test();
        let (mut ctrl, _) = restart(family, &config, &image, AnchorPolicy::Strict).expect("open");
        let Ok(stop) = drive(ctrl.as_mut(), &script[..op as usize], |_, _, _| {
            Ok::<(), Infallible>(())
        });
        assert_eq!(stop, Stop::Completed);
        ctrl.write_deferred(DataAddr::new(addr), op_payload(op, addr))
            .expect("execute");
        let cut = ctrl.domain_mut().device_mut().backend_mut().cut();
        let cut = cut.expect("the write's records");
        assert!(cut.wants_settle(), "the write leaves a checkpoint due");
        assert_eq!(cut.epoch(), frame);
        cut.commit().expect("the write's frame");
        drop(ctrl); // killed before the checkpoint
        assert!(!home_path_for(&image).exists());

        let exact = |epoch| table.model(epoch, lines);
        assert_eq!(
            verify_dead_image(family, &image, exact).ok(),
            Some((frame, false))
        );
        let after_the_op = verify_dead_image(family, &image, |epoch| table.model(epoch - 1, lines));
        assert!(
            matches!(after_the_op, Err(CampaignError::Breach { breach: Breach::SilentStale { addr: a, .. }, .. }) if a == addr),
            "{after_the_op:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A point's verdict comes from a restart of a copy: the dead image
    /// and its anchor are byte for byte what the kill left afterwards,
    /// and an anchor one seal behind the image is reported as such.
    #[test]
    fn a_verdict_always_comes_from_an_audited_restart_of_a_copy() {
        let dir = scratch("copy");
        let (family, script) = (Family::SgxAsit, drill_script(80, LINES, 0xD1A7));
        let table = EpochTable::dry_run(family, &script, &dir.join("dry.wal")).expect("dry run");
        let image = dir.join("image.wal");
        let anchor = anchor_path_for(&image);
        let whole = drive_anchored(family, &script, &image, |_, _, _| {
            Ok::<_, CampaignError>(ControlFlow::Continue(()))
        })
        .expect("the whole script");
        let dead = || {
            (
                fs::read(&image).expect("image"),
                fs::read(&anchor).expect("anchor"),
            )
        };
        let before = dead();

        let exact = |epoch| table.model(epoch, LINES);
        let last = table.final_epoch();
        assert_eq!(
            verify_dead_image(family, &image, exact).ok(),
            Some((last, false))
        );
        assert!(!image.with_extension("restart.wal").exists());
        assert_eq!(dead(), before, "the dead pair is untouched");
        assert_eq!(
            table.owed(last),
            script.iter().filter(|op| op.0).count() as u64
        );
        assert!(
            whole.len() as u64 > LINES / 2,
            "the script writes most lines"
        );

        // The seal of the last frame lost: the open heals the copy's
        // anchor and says so.
        fs::remove_file(&anchor).expect("remove anchor");
        FreshnessAnchor::create(anchor.clone(), AnubisConfig::small_test().key.0, last - 1)
            .expect("anchor one seal behind");
        assert_eq!(
            verify_dead_image(family, &image, exact).ok(),
            Some((last, true))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The committed `BENCH_drill.json` is reproducible from its seed only
    /// while the script, the dry run's final epochs and the kill-point
    /// draw stay what they were.
    #[test]
    fn committed_seed_produces_the_recorded_script_and_kill_points() {
        let spec = ScriptSpec::drill();
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

        let dir = scratch("committed");
        let planned = |family: Family| {
            let dry = dir.join(format!("{}.wal", family.name()));
            let table = EpochTable::dry_run(family, &script, &dry).expect("dry run");
            let kills = planned_kills(family, &spec, table.final_epoch(), 13, false);
            (table.final_epoch(), kills)
        };
        // One frame per write, none per read, and no epoch for a
        // checkpoint: the final epochs are the write counts, so the draws
        // are the ones the ack thresholds drew.
        assert_eq!(
            planned(Family::BonsaiAgitPlus),
            (
                max_acks,
                vec![605, 548, 674, 425, 260, 801, 403, 360, 703, 518, 160, 761, 523]
            )
        );
        assert_eq!(
            planned(Family::SgxAsit),
            (
                max_acks,
                vec![13, 266, 175, 435, 820, 33, 3, 740, 760, 157, 610, 391, 68]
            )
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
